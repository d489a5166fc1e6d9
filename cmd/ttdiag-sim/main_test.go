package main

import (
	"encoding/json"
	"os"
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
		if err := run(args); err != nil {
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
		if err := run(args); err == nil {
			t.Fatalf("run(%v): expected error", args)
		}
	}
}

// TestWideSystemPointsToFleet: a flat cluster beyond core.MaxPackedN is
// refused, and the error names the package that runs such systems.
func TestWideSystemPointsToFleet(t *testing.T) {
	for _, variant := range []string{"diag", "membership", "lowlat", "ttpc"} {
		err := run([]string{"-n", "65", "-variant", variant, "-quiet"})
		if err == nil || !strings.Contains(err.Error(), "internal/fleet") {
			t.Fatalf("-n 65 -variant %s: got %v, want an error pointing to internal/fleet", variant, err)
		}
	}
}

func TestGanttFlag(t *testing.T) {
	if err := run([]string{"-burst", "6:3:1", "-crash", "2:10", "-p", "4", "-rounds", "20", "-quiet", "-gantt"}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordFlag: the flight recorder is the -trace stream — -record and
// its separate bus transcript are gone — and replaying the recorded trace
// under the run's tuning reproduces node 1's isolation of the crashed node.
func TestRecordFlag(t *testing.T) {
	path := t.TempDir() + "/flight.jsonl"
	if err := run([]string{"-rounds", "10", "-quiet", "-record", path}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -record") {
		t.Fatalf("-record: got %v, want an unknown-flag error", err)
	}
	if err := run([]string{"-crash", "4:10", "-p", "4", "-rounds", "20", "-quiet", "-trace", path}); err != nil {
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
		if err := run(args); err != nil {
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
	if err := run([]string{"-variant", "ttpc", "-rounds", "4", "-metrics", t.TempDir() + "/m.json"}); err == nil {
		t.Fatal("-metrics on ttpc accepted")
	}
}

func TestTraceJSONLFlag(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := run([]string{"-burst", "6:3:1", "-rounds", "10", "-quiet", "-gantt", "-trace", path}); err != nil {
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
