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
	"ttdiag/internal/replay"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace testdata")

const goldenTrace = "testdata/sec8-bursts.trace.jsonl"

// prototypeLs is the node schedule of the Sec. 8 campaigns.
var prototypeLs = []int{2, 0, 3, 1}

// goldenConfig is the sec8-bursts scenario geometry (prototype node
// schedule) with isolation-grade thresholds, streaming node 1's causal
// flight recorder plus the engine events to sink.
func goldenConfig(sink trace.Sink) sim.ClusterConfig {
	return sim.ClusterConfig{
		N:    4,
		Ls:   prototypeLs,
		PR:   core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3, ReintegrationThreshold: 4},
		Sink: sink,
	}
}

// goldenBursts is the golden scenario's fault: single-slot bursts in node
// 3's sending slot, rounds 6-10.
func goldenBursts(sched *tdma.Schedule) tdma.Disturbance {
	var bursts []fault.Burst
	for r := 6; r <= 10; r++ {
		bursts = append(bursts, fault.SlotBurst(sched, r, 3, 1))
	}
	return fault.NewTrain(bursts...)
}

// goldenRounds is the golden scenario's run length.
const goldenRounds = 28

// genSec8BurstTrace runs the golden scenario on the per-run engine and
// returns its JSONL trace. The whole pipeline is deterministic, so the
// bytes are golden.
func genSec8BurstTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := trace.NewJSONLWriter(&buf)
	cl, err := sim.NewReusableDiagnosticCluster(goldenConfig(jw))
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	cl.Eng.Bus().AddDisturbance(goldenBursts(cl.Eng.Schedule()))
	if err := cl.Eng.RunRounds(goldenRounds); err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// genSec8BurstTraceBatched runs the golden scenario as a one-lane gang of
// the lane-packed cluster and returns the lane's flushed JSONL trace.
func genSec8BurstTraceBatched(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := trace.NewJSONLWriter(&buf)
	bc, err := sim.NewBatchDiagCluster(goldenConfig(jw))
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.ResetBatch(1); err != nil {
		t.Fatal(err)
	}
	bc.AddLaneDisturbance(0, goldenBursts(bc.Schedule()))
	bc.SetLaneHorizon(0, goldenRounds)
	if err := bc.Run(); err != nil {
		t.Fatal(err)
	}
	bc.FlushLaneTrace(0)
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTrace pins the JSONL trace of the burst scenario byte for byte —
// any change to the causal event schema or emission order shows up here —
// on the per-run engine and on a one-lane gang of the lane-packed cluster.
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
	if !bytes.Equal(genSec8BurstTraceBatched(t), want) {
		t.Fatalf("the one-lane gang's trace differs from %s", goldenTrace)
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
// with the first differing event and both sides' events of that round.
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

// TestBisectCLIRejectsIdenticalSides covers the argument contract: sides
// without an injected burst and an empty horizon are errors, not searches.
func TestBisectCLIRejectsIdenticalSides(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"bisect"}, &out); err == nil {
		t.Fatal("bisect with identical sides accepted")
	}
	if err := run([]string{"bisect", "-rounds", "0", "-inject", "13:1:1"}, &out); err == nil {
		t.Fatal("bisect with horizon 0 accepted")
	}
}

// sideState fingerprints everything a divergence can live in: the engine's
// ground-truth record, and every node's protocol snapshot plus controller
// interface state.
func sideState(t *testing.T, eng *sim.Engine, runners []*sim.DiagRunner) []byte {
	t.Helper()
	var buf bytes.Buffer
	for round := 0; round < eng.Round(); round++ {
		for _, cls := range eng.Truth(round) {
			buf.WriteByte(byte(cls))
		}
	}
	n := len(runners) - 1
	for id := 1; id <= n; id++ {
		snap, err := runners[id].Protocol().Snapshot()
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		buf.Write(snap)
		ctrl := eng.Controller(tdma.NodeID(id))
		for j := 1; j <= n; j++ {
			v, ok := ctrl.ReadValue(tdma.NodeID(j))
			buf.WriteString(fmt.Sprint(ok, ctrl.Ignored(tdma.NodeID(j))))
			buf.Write(v)
			buf.WriteByte(0xFF)
		}
		buf.Write(ctrl.Outbox())
	}
	return buf.Bytes()
}

// stateDivergence steps the sides in lock-step and returns the first round
// after whose execution their full states differ, or -1 when they agree for
// the whole horizon.
func stateDivergence(t *testing.T, engA, engB *sim.Engine, runA, runB []*sim.DiagRunner, rounds int) int {
	t.Helper()
	for k := 0; k < rounds; k++ {
		if err := engA.RunRound(); err != nil {
			t.Fatal(err)
		}
		if err := engB.RunRound(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sideState(t, engA, runA), sideState(t, engB, runB)) {
			return k
		}
	}
	return -1
}

// TestBisectMatchesStateScan is the differential check behind the lock-step
// trace comparison: over a sweep of injected bursts — node counts, with and
// without the shared fault, every sending slot, single-slot to nearly
// two-round bursts, inject rounds inside and past the horizon — the first
// round whose events differ on the one-lane gangs bisect steps is exactly
// the first round whose full state differs on an independent per-run
// engine.
func TestBisectMatchesStateScan(t *testing.T) {
	const horizon = 32
	cases := 0
	for _, n := range []int{4, 5, 8} {
		cfg := sim.ClusterConfig{
			N:  n,
			PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3, ReintegrationThreshold: 4},
		}
		for _, shared := range []bool{false, true} {
			for _, round := range []int{0, 3, 6, 9, 13, 21, 31, 32} {
				for slot := 1; slot <= n; slot++ {
					for _, slots := range []int{1, n, 2*n - 1} {
						disturb := func(add func(tdma.Disturbance), sched *tdma.Schedule, burst bool) {
							if shared {
								add(fault.EveryKthRound(3, 1, 4, 9))
							}
							if burst {
								add(fault.NewTrain(fault.SlotBurst(sched, round, slot, slots)))
							}
						}
						engA, runA, errA := sim.NewDiagnosticCluster(cfg)
						engB, runB, errB := sim.NewDiagnosticCluster(cfg)
						a, errC := newSide(cfg, horizon)
						b, errD := newSide(cfg, horizon)
						for _, err := range []error{errA, errB, errC, errD} {
							if err != nil {
								t.Fatal(err)
							}
						}
						laneOf := func(s side) func(tdma.Disturbance) {
							return func(d tdma.Disturbance) { s.cl.AddLaneDisturbance(0, d) }
						}
						disturb(engA.Bus().AddDisturbance, engA.Schedule(), false)
						disturb(engB.Bus().AddDisturbance, engB.Schedule(), true)
						disturb(laneOf(a), a.cl.Schedule(), false)
						disturb(laneOf(b), b.cl.Schedule(), true)
						want := stateDivergence(t, engA, engB, runA, runB, horizon)
						got, evA, evB, err := firstDivergentRound(a, b, horizon)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("N=%d shared=%v inject %d:%d:%d: events diverge in round %d, state in round %d",
								n, shared, round, slot, slots, got, want)
						}
						for _, e := range append(evA, evB...) {
							if e.Round != got {
								t.Fatalf("N=%d inject %d:%d:%d: dump of round %d holds %v", n, round, slot, slots, got, e)
							}
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases agree", cases)
}

// TestReplayGoldenGang: replaying every repetition of the golden trace,
// which the lane-packed gang records, under the recorded configuration
// reproduces that repetition's events exactly.
func TestReplayGoldenGang(t *testing.T) {
	f, err := os.Open(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	all, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	for i, events := range trace.SplitRuns(all) {
		if events[0].Kind == trace.KindNote {
			events = events[1:]
		}
		var rec trace.Recorder
		cfg := goldenConfig(&rec)
		cfg.Ls = prototypeLs
		if _, err := replay.Replay(events, cfg, 1); err != nil {
			t.Fatal(err)
		}
		got := rec.Events()
		if j := trace.FirstDivergence(got, events); j >= 0 {
			t.Fatalf("repetition %d: replay diverges at event %d of %d/%d", i, j, len(got), len(events))
		}
	}
}

// TestReplayCLI drives the flight-recorder workflow: the golden trace
// replayed under its recorded tuning prints node 3's isolation, and a
// larger P is the counterfactual without it.
func TestReplayCLI(t *testing.T) {
	iso := goldenIsolation(t)
	var out bytes.Buffer
	if err := run([]string{"replay", "-in", goldenTrace, "-p", "2", "-r", "3", "-faulty-only"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "trace: rounds 0..27, 4-node system, job positions [2 0 3 1]; replaying observer 1") {
		t.Fatalf("replay header: %q", got)
	}
	if want := fmt.Sprintf("round %-5d", iso.Round); !strings.Contains(got, want) || !strings.Contains(got, "ISOLATED [3]") {
		t.Fatalf("replay output lacks node 3's isolation in round %d:\n%s", iso.Round, got)
	}

	// A campaign trace separates repetitions with notes; -run picks one.
	golden, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	var multi bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := trace.WriteJSONL(&multi, trace.Event{Kind: trace.KindNote, Detail: fmt.Sprintf("run %d", i)}); err != nil {
			t.Fatal(err)
		}
		multi.Write(golden)
	}
	campaign := filepath.Join(t.TempDir(), "campaign.jsonl")
	if err := os.WriteFile(campaign, multi.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var picked bytes.Buffer
	if err := run([]string{"replay", "-in", campaign, "-run", "1", "-p", "2", "-r", "3", "-faulty-only"}, &picked); err != nil {
		t.Fatal(err)
	}
	if picked.String() != got {
		t.Fatalf("replaying repetition 1 of a campaign trace:\n%s\nwant\n%s", picked.String(), got)
	}

	out.Reset()
	if err := run([]string{"replay", "-in", goldenTrace, "-observer", "4", "-p", "50", "-r", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ISOLATED") || !strings.Contains(out.String(), "cons_hv(round 6) = 1101") {
		t.Fatalf("counterfactual replay with P=50:\n%s", out.String())
	}
}

func TestReplayCLIErrors(t *testing.T) {
	legacy := filepath.Join(t.TempDir(), "v2.jsonl")
	v2 := `{"v":2,"at_ns":0,"round":0,"kind":"transmit","node":1,"detail":"benign"}` + "\n" +
		`{"v":2,"at_ns":0,"round":0,"kind":"job","node":2}` + "\n" +
		`{"v":2,"at_ns":0,"round":0,"kind":"transmit","node":2,"detail":"correct"}` + "\n"
	if err := os.WriteFile(legacy, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"replay"},
		{"replay", "-in", "/does/not/exist"},
		{"replay", "-in", goldenTrace, "-observer", "9"},
		{"replay", "-in", goldenTrace, "-run", "3"},
		{"replay", "-in", goldenTrace, "-n", "4"},
		{"replay", "-in", goldenTrace, "-ls", "0,1,2,3"},
		{"replay", "-in", legacy},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Fatalf("run(%v): expected an error", args)
		}
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
