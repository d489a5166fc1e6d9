package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/metrics"
	"ttdiag/internal/replay"
	"ttdiag/internal/sim"
	"ttdiag/internal/trace"
)

func TestVariants(t *testing.T) {
	cases := [][]string{
		{"-burst", "6:3:1", "-rounds", "12", "-quiet"},
		{"-variant", "membership", "-blind", "1:2:8", "-rounds", "18", "-quiet"},
		{"-variant", "lowlat", "-burst", "6:3:1", "-rounds", "12", "-quiet"},
		{"-variant", "ttpc", "-burst", "6:3:1", "-rounds", "12", "-quiet"},
		{"-malicious", "2", "-rounds", "10", "-quiet"},
		{"-crash", "3:5", "-rounds", "12", "-p", "4", "-quiet"},
		{"-scenario", "lightning", "-rounds", "100", "-p", "17", "-quiet"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestBadInputs(t *testing.T) {
	cases := [][]string{
		{"-variant", "nope"},
		{"-burst", "garbage"},
		{"-burst", "1:2"},
		{"-blind", "x:y:z"},
		{"-crash", "zzz"},
		{"-scenario", "hurricane"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run(%v): expected error", args)
		}
	}
}

// TestWideSystemPointsToFleet: a flat cluster beyond core.MaxPackedN is
// refused, and the error names the package that runs such systems.
func TestWideSystemPointsToFleet(t *testing.T) {
	for _, variant := range []string{"diag", "membership", "lowlat", "ttpc"} {
		err := run([]string{"-n", "65", "-variant", variant, "-quiet"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "internal/fleet") {
			t.Fatalf("-n 65 -variant %s: got %v, want an error pointing to internal/fleet", variant, err)
		}
	}
}

// TestGanttFlag: -gantt renders the diag variant's timeline (its output is
// pinned by gantt.golden) and is a usage error for every other variant,
// which has no timeline to render.
func TestGanttFlag(t *testing.T) {
	if err := run([]string{"-burst", "6:3:1", "-crash", "2:10", "-p", "4", "-rounds", "20", "-quiet", "-gantt"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{"membership", "lowlat", "ttpc"} {
		var out bytes.Buffer
		err := run([]string{"-variant", variant, "-blind", "1:2:8", "-rounds", "18", "-gantt", "-quiet"}, &out)
		if err == nil || err.Error() != fmt.Sprintf("-gantt supports the diag variant, not %q", variant) {
			t.Fatalf("-variant %s -gantt: got %v, want a usage error", variant, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-variant %s -gantt printed %q before refusing", variant, out.String())
		}
	}
}

// TestRecordFlag: the flight recorder is the -trace stream — -record and
// its separate bus transcript are gone — and replaying the recorded trace
// under the run's tuning reproduces node 1's isolation of the crashed node.
func TestRecordFlag(t *testing.T) {
	path := t.TempDir() + "/flight.jsonl"
	if err := run([]string{"-rounds", "10", "-quiet", "-record", path}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -record") {
		t.Fatalf("-record: got %v, want an unknown-flag error", err)
	}
	if err := run([]string{"-crash", "4:10", "-p", "4", "-rounds", "20", "-quiet", "-trace", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ClusterConfig{PR: core.PRConfig{PenaltyThreshold: 4, RewardThreshold: 1_000_000}}
	diags, err := replay.Replay(events, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	isolated := false
	for _, d := range diags {
		isolated = isolated || d.Isolated == 1<<3
	}
	if !isolated {
		t.Fatal("replaying the trace did not isolate the crashed node 4")
	}
}

func TestMetricsFlag(t *testing.T) {
	for _, variant := range []string{"diag", "membership"} {
		path := t.TempDir() + "/metrics.json"
		args := []string{"-variant", variant, "-rounds", "16", "-quiet", "-metrics", path}
		if variant == "diag" {
			args = append(args, "-burst", "6:3:1")
		} else {
			args = append(args, "-blind", "1:2:8")
		}
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep metrics.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		snap, ok := rep.Experiments[variant]
		if !ok {
			t.Fatalf("%s: report misses its snapshot: %v", variant, rep.Experiments)
		}
		if snap.Counters["protocol/steps"] == 0 || len(snap.Series) == 0 {
			t.Fatalf("%s: report under-filled: %+v", variant, snap)
		}
	}
	if err := run([]string{"-variant", "ttpc", "-rounds", "4", "-metrics", t.TempDir() + "/m.json"}, io.Discard); err == nil {
		t.Fatal("-metrics on ttpc accepted")
	}
}

func TestTraceJSONLFlag(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := run([]string{"-burst", "6:3:1", "-rounds", "10", "-quiet", "-gantt", "-trace", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace stream empty")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the golden outputs in testdata")

// TestGoldenOutputs pins what the diag and membership variants print, the
// -trace stream and the -metrics report byte for byte. In each case's
// arguments "OUT" stands for a temporary file whose content is compared
// with the golden file instead of stdout.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"diag-burst.golden", []string{"-burst", "6:3:1", "-rounds", "12"}},
		// -n 0 is the default 4-node cluster, printed as such.
		{"diag-burst.golden", []string{"-n", "0", "-burst", "6:3:1", "-rounds", "12"}},
		{"membership-blind.golden", []string{"-variant", "membership", "-blind", "1:2:8", "-rounds", "18"}},
		{"diag-malicious.golden", []string{"-malicious", "2", "-rounds", "10"}},
		{"diag-crash.golden", []string{"-crash", "3:5", "-rounds", "12", "-p", "4"}},
		{"diag-lightning.golden", []string{"-scenario", "lightning", "-rounds", "100", "-p", "17"}},
		{"gantt.golden", []string{"-burst", "6:3:1", "-crash", "2:10", "-p", "4", "-rounds", "20", "-gantt"}},
		{"crash.trace.jsonl", []string{"-crash", "4:10", "-p", "4", "-rounds", "20", "-quiet", "-trace", "OUT"}},
		{"diag.metrics.json", []string{"-variant", "diag", "-rounds", "16", "-quiet", "-metrics", "OUT", "-burst", "6:3:1"}},
		{"membership.metrics.json", []string{"-variant", "membership", "-rounds", "16", "-quiet", "-metrics", "OUT", "-blind", "1:2:8"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), c.golden)
			args := append([]string(nil), c.args...)
			toFile := false
			for i, a := range args {
				if a == "OUT" {
					args[i], toFile = path, true
				}
			}
			var stdout bytes.Buffer
			if err := run(args, &stdout); err != nil {
				t.Fatal(err)
			}
			got := stdout.Bytes()
			if toFile {
				var err error
				if got, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			golden := filepath.Join("testdata", c.golden)
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: output differs from %s:\n%s", c.args, golden, got)
			}
		})
	}
}

// TestTTPCZeroNodes: -n 0 is the default 4-node cluster, and the TTP/C
// variant lists all four of its nodes.
func TestTTPCZeroNodes(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-variant", "ttpc", "-n", "0", "-rounds", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "alive=true"); got != 4 {
		t.Fatalf("-n 0 listed %d live nodes, want 4:\n%s", got, out.String())
	}
}
