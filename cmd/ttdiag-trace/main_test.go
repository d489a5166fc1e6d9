package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/sim"
	"ttdiag/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace testdata")

const goldenTrace = "testdata/sec8-bursts.trace.jsonl"

// genSec8BurstTrace reruns the sec8-bursts scenario geometry (prototype node
// schedule, single-slot bursts in node 3's sending slot) with isolation-grade
// thresholds, streaming node 1's causal flight recorder plus the engine
// events to JSONL. The whole pipeline is deterministic, so the bytes are
// golden.
func genSec8BurstTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := trace.NewJSONLWriter(&buf)
	cl, err := sim.NewReusableDiagnosticCluster(sim.ClusterConfig{
		N:    4,
		Ls:   []int{2, 0, 3, 1},
		PR:   core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3, ReintegrationThreshold: 4},
		Sink: jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	var bursts []fault.Burst
	for r := 6; r <= 10; r++ {
		bursts = append(bursts, fault.SlotBurst(cl.Eng.Schedule(), r, 3, 1))
	}
	cl.Eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
	if err := cl.Eng.RunRounds(28); err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTrace pins the JSONL trace of the burst scenario byte for byte —
// any change to the causal event schema or emission order shows up here.
// Regenerate with: go test ./cmd/ttdiag-trace -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	got := genSec8BurstTrace(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTrace), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTrace, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace drifted from %s (regenerate with -update if intended)", goldenTrace)
	}
}

// goldenIsolation locates node 3's isolation in the golden trace.
func goldenIsolation(t *testing.T) trace.Event {
	t.Helper()
	events, err := loadRun(goldenTrace, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == trace.KindIsolation && e.Subject == 3 {
			return e
		}
	}
	t.Fatal("golden trace holds no isolation of node 3")
	return trace.Event{}
}

// TestExplainGolden is the acceptance check: `explain 3 <round>` against the
// sec8-bursts golden trace must reproduce the causal chain — the penalty
// ramp crossing the threshold, ending in the isolation with its trajectory —
// and agree with trace.Explain computed directly on the decoded events.
func TestExplainGolden(t *testing.T) {
	iso := goldenIsolation(t)
	var out bytes.Buffer
	err := run([]string{"explain", "-in", goldenTrace,
		fmt.Sprint(iso.Subject), fmt.Sprint(iso.Round)}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	head := fmt.Sprintf("node 3 isolated at round %d (penalty %d > threshold %d):",
		iso.Round, iso.Penalty, iso.Threshold)
	if !strings.HasPrefix(got, head) {
		t.Fatalf("explain output starts\n%s\nwant prefix\n%s", got, head)
	}
	events, err := loadRun(goldenTrace, -1)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := trace.Explain(events, 3, iso.Round)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) < 3 {
		t.Fatalf("golden chain too short to be a ramp: %v", chain)
	}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")[1:]
	if len(lines) != len(chain) {
		t.Fatalf("explain printed %d chain events, want %d", len(lines), len(chain))
	}
	for i, e := range chain {
		if lines[i] != e.String() {
			t.Fatalf("chain line %d:\n got %q\nwant %q", i, lines[i], e.String())
		}
	}
	last := chain[len(chain)-1]
	if last.Kind != trace.KindIsolation || !strings.Contains(last.Detail, "trajectory") {
		t.Fatalf("chain does not end in the isolation with its trajectory: %+v", last)
	}
	var prev int64
	for _, e := range chain[:len(chain)-1] {
		if e.Kind != trace.KindPenalty && e.Kind != trace.KindAccusation {
			t.Fatalf("chain holds a non-causal event: %+v", e)
		}
		if e.Kind == trace.KindPenalty {
			if e.Penalty <= prev {
				t.Fatalf("penalty ramp not increasing: %v", chain)
			}
			prev = e.Penalty
		}
	}
}

// TestTimelineGolden: node 3's burst-window isolation span must appear, with
// its reintegration closing the interval.
func TestTimelineGolden(t *testing.T) {
	iso := goldenIsolation(t)
	var out bytes.Buffer
	if err := run([]string{"timeline", "-in", goldenTrace}, &out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("node 3: isolated r%d..r", iso.Round)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("timeline output %q lacks %q", out.String(), want)
	}
}

func TestFilterGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"filter", "-in", goldenTrace, "-kind", "isolation"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "isolation") || !strings.Contains(out.String(), "->n3") {
		t.Fatalf("filter output lacks node 3's isolation: %q", out.String())
	}
	out.Reset()
	if err := run([]string{"filter", "-in", goldenTrace, "-kind", "no-such-kind"}, &out); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDiffCLI(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, events []trace.Event) string {
		var buf bytes.Buffer
		for _, e := range events {
			if err := trace.WriteJSONL(&buf, e); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := []trace.Event{
		{Round: 1, Kind: trace.KindPenalty, Node: 1, Subject: 3, Penalty: 1, Threshold: 2},
		{Round: 2, Kind: trace.KindPenalty, Node: 1, Subject: 3, Penalty: 2, Threshold: 2},
	}
	fork := append([]trace.Event(nil), base...)
	fork[1].Penalty = 9
	a, b := write("a.jsonl", base), write("b.jsonl", fork)

	var out bytes.Buffer
	if err := run([]string{"diff", "-a", a, "-b", a}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "traces identical (2 events)") {
		t.Fatalf("identical diff output: %q", out.String())
	}
	out.Reset()
	if err := run([]string{"diff", "-a", a, "-b", b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "diverge at event 1") {
		t.Fatalf("divergent diff output: %q", out.String())
	}
}

// TestBisectCLI pins the acceptance property end to end: an artificially
// injected single-slot burst at round 13 is localized to exactly round 13,
// in exactly 1 + log2(32) probes.
func TestBisectCLI(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"bisect", "-rounds", "32", "-inject", "13:1:1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "first divergent round: 13") {
		t.Fatalf("bisect did not localize round 13:\n%s", got)
	}
	if !strings.Contains(got, "6 probes over 32 rounds") {
		t.Fatalf("bisect probe count drifted from 1+log2(32)=6:\n%s", got)
	}
	if !strings.Contains(got, "side A causal events") || !strings.Contains(got, "side B causal events") {
		t.Fatalf("bisect output lacks the causal dumps:\n%s", got)
	}
}

// TestBisectCLIScalarFlagRemoved: the protocol has a single representation,
// so -scalar is an unknown flag, while -inject keeps working — here with a
// burst past the horizon, which leaves the sides agreeing.
func TestBisectCLIScalarFlagRemoved(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"bisect", "-rounds", "32", "-scalar"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -scalar") {
		t.Fatalf("bisect -scalar: got %v, want an unknown-flag error", err)
	}
	out.Reset()
	if err := run([]string{"bisect", "-rounds", "32", "-inject", "40:1:1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no divergence within 32 rounds") {
		t.Fatalf("bisect with a burst past the horizon: %q", out.String())
	}
}

func TestBisectCLIRejectsIdenticalSides(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"bisect"}, &out); err == nil {
		t.Fatal("bisect with identical sides accepted")
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no command accepted")
	}
	if err := run([]string{"nope"}, &out); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"explain", "-in", goldenTrace}, &out); err == nil {
		t.Fatal("explain without a node accepted")
	}
}
