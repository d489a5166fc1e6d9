// Command ttdiag-trace queries JSONL causal traces written by the simulators
// and experiments (-trace), and localizes the first divergent round between
// two scenario variants.
//
// Usage:
//
//	ttdiag-trace filter   -in f.jsonl [-run i] [-node n] [-subject n] [-kind k] [-from r] [-to r]
//	ttdiag-trace timeline -in f.jsonl [-run i] [-node n]
//	ttdiag-trace explain  -in f.jsonl [-run i] -node n [-round r]
//	ttdiag-trace diff     -a x.jsonl -b y.jsonl
//	ttdiag-trace replay   -in f.jsonl [-run i] [-observer id] [-p P] [-r R] [-faulty-only]
//	ttdiag-trace bisect   [-n nodes] [-rounds k] [-p P] [-r R] [-reint T]
//	                      [-every node:k:from:to] -inject round:slot:slots
//
// filter prints matching events; timeline prints each node's isolation
// spans; explain prints the causal chain (accusations, penalty trajectory,
// isolation) that ended in a node's isolation; diff reports the first event
// where two traces diverge. replay re-simulates a recorded diagnostic run
// from its transmit events — the node count and job positions come from the
// trace — and prints one observer's health vectors and isolations: with the
// recorded -p/-r it reproduces the run, with others it shows the
// counterfactual (runs recorded with a reintegration threshold or
// AllSendCurrRound need replay.Replay with their full configuration).
// bisect runs a scenario on two sides — the base cluster vs one with an
// extra injected burst (-inject) — in lock-step, compares each round's
// recorded events, and at the first round where they differ prints the
// first differing event and both sides' events of that round.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/replay"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ttdiag-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ttdiag-trace filter|timeline|explain|diff|replay|bisect [flags]")
	}
	switch cmd := args[0]; cmd {
	case "filter":
		return runFilter(args[1:], out)
	case "timeline":
		return runTimeline(args[1:], out)
	case "explain":
		return runExplain(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	case "replay":
		return runReplay(args[1:], out)
	case "bisect":
		return runBisect(args[1:], out)
	default:
		return fmt.Errorf("unknown command %q (want filter, timeline, explain, diff, replay or bisect)", cmd)
	}
}

// loadRun reads a JSONL trace and selects one repetition. Multi-run streams
// (the experiments harness separates repetitions with note events) need an
// explicit -run index; runIdx -1 accepts only single-run streams.
func loadRun(path string, runIdx int) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	runs := trace.SplitRuns(events)
	switch {
	case len(runs) == 0:
		return nil, fmt.Errorf("%s: empty trace", path)
	case runIdx < 0 && len(runs) > 1:
		return nil, fmt.Errorf("%s holds %d runs — pick one with -run", path, len(runs))
	case runIdx < 0:
		return runs[0], nil
	case runIdx >= len(runs):
		return nil, fmt.Errorf("%s holds %d runs, -run %d is out of range", path, len(runs), runIdx)
	default:
		return runs[runIdx], nil
	}
}

func runFilter(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ttdiag-trace filter", flag.ContinueOnError)
	in := fs.String("in", "", "JSONL trace file")
	runIdx := fs.Int("run", -1, "repetition index in a multi-run trace")
	node := fs.Int("node", 0, "only events observed by this node (0 = any)")
	subject := fs.Int("subject", 0, "only events about this node (0 = any)")
	kind := fs.String("kind", "", "only events of this kind (e.g. isolation, penalty)")
	from := fs.Int("from", 0, "first round (inclusive)")
	to := fs.Int("to", -1, "last round (exclusive; -1 = end)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("filter: -in is required")
	}
	var wantKind trace.Kind
	if *kind != "" {
		k, err := trace.ParseKind(*kind)
		if err != nil {
			return err
		}
		wantKind = k
	}
	events, err := loadRun(*in, *runIdx)
	if err != nil {
		return err
	}
	matched := 0
	for _, e := range events {
		if *node != 0 && e.Node != *node {
			continue
		}
		if *subject != 0 && e.Subject != *subject {
			continue
		}
		if wantKind != 0 && e.Kind != wantKind {
			continue
		}
		if e.Round < *from || (*to >= 0 && e.Round >= *to) {
			continue
		}
		matched++
		fmt.Fprintln(out, e)
	}
	fmt.Fprintf(out, "%d of %d events matched\n", matched, len(events))
	return nil
}

func runTimeline(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ttdiag-trace timeline", flag.ContinueOnError)
	in := fs.String("in", "", "JSONL trace file")
	runIdx := fs.Int("run", -1, "repetition index in a multi-run trace")
	node := fs.Int("node", 0, "only this node's spans (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("timeline: -in is required")
	}
	events, err := loadRun(*in, *runIdx)
	if err != nil {
		return err
	}
	spans := trace.Timeline(events)
	printed := 0
	for _, iv := range spans {
		if *node != 0 && iv.Node != *node {
			continue
		}
		printed++
		if iv.To < 0 {
			fmt.Fprintf(out, "node %d: isolated r%d.. (still isolated at end of trace)\n", iv.Node, iv.From)
		} else {
			fmt.Fprintf(out, "node %d: isolated r%d..r%d (%d rounds)\n", iv.Node, iv.From, iv.To, iv.To-iv.From)
		}
	}
	if printed == 0 {
		fmt.Fprintln(out, "no isolations in the trace")
	}
	return nil
}

func runExplain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ttdiag-trace explain", flag.ContinueOnError)
	in := fs.String("in", "", "JSONL trace file")
	runIdx := fs.Int("run", -1, "repetition index in a multi-run trace")
	node := fs.Int("node", 0, "the isolated node to explain")
	round := fs.Int("round", -1, "round of the isolation (-1 = the node's last isolation)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Positional shorthand: explain <node> <round>.
	if rest := fs.Args(); len(rest) > 0 {
		if _, err := fmt.Sscanf(rest[0], "%d", node); err != nil {
			return fmt.Errorf("explain: bad node %q", rest[0])
		}
		if len(rest) > 1 {
			if _, err := fmt.Sscanf(rest[1], "%d", round); err != nil {
				return fmt.Errorf("explain: bad round %q", rest[1])
			}
		}
	}
	if *in == "" || *node == 0 {
		return fmt.Errorf("explain: -in and a node are required (explain -in f.jsonl <node> [round])")
	}
	events, err := loadRun(*in, *runIdx)
	if err != nil {
		return err
	}
	chain, err := trace.Explain(events, *node, *round)
	if err != nil {
		return err
	}
	iso := chain[len(chain)-1]
	fmt.Fprintf(out, "node %d isolated at round %d (penalty %d > threshold %d):\n",
		*node, iso.Round, iso.Penalty, iso.Threshold)
	for _, e := range chain {
		fmt.Fprintln(out, e)
	}
	return nil
}

func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ttdiag-trace diff", flag.ContinueOnError)
	fileA := fs.String("a", "", "first JSONL trace")
	fileB := fs.String("b", "", "second JSONL trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fileA == "" || *fileB == "" {
		return fmt.Errorf("diff: -a and -b are required")
	}
	read := func(path string) ([]trace.Event, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadJSONL(f)
	}
	a, err := read(*fileA)
	if err != nil {
		return err
	}
	b, err := read(*fileB)
	if err != nil {
		return err
	}
	i := trace.FirstDivergence(a, b)
	if i < 0 {
		fmt.Fprintf(out, "traces identical (%d events)\n", len(a))
		return nil
	}
	fmt.Fprintf(out, "traces diverge at event %d:\n", i)
	printDivergence(out, i, *fileA, a, *fileB, b)
	return nil
}

// printDivergence prints event i of two event streams, one line per stream,
// or where a stream ends before it.
func printDivergence(out io.Writer, i int, nameA string, a []trace.Event, nameB string, b []trace.Event) {
	for _, s := range []struct {
		name   string
		events []trace.Event
	}{{nameA, a}, {nameB, b}} {
		if i < len(s.events) {
			fmt.Fprintf(out, "  %s: %s\n", s.name, s.events[i])
		} else {
			fmt.Fprintf(out, "  %s: (ends after %d events)\n", s.name, len(s.events))
		}
	}
}

func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ttdiag-trace replay", flag.ContinueOnError)
	in := fs.String("in", "", "JSONL trace file")
	runIdx := fs.Int("run", -1, "repetition index in a multi-run trace")
	observer := fs.Int("observer", 1, "node whose diagnosis to replay")
	p := fs.Int64("p", 197, "penalty threshold P (the recorded one reproduces the run)")
	r := fs.Int64("r", 1_000_000, "reward threshold R (the recorded one reproduces the run)")
	faultyOnly := fs.Bool("faulty-only", false, "print only rounds with non-healthy vectors or isolations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("replay: -in is required")
	}
	events, err := loadRun(*in, *runIdx)
	if err != nil {
		return err
	}
	n, ls, err := replay.Layout(events)
	if err != nil {
		return err
	}
	diags, err := replay.Replay(events, sim.ClusterConfig{
		N: n, Ls: ls, PR: core.PRConfig{PenaltyThreshold: *p, RewardThreshold: *r},
	}, *observer)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: rounds 0..%d, %d-node system, job positions %v; replaying observer %d\n\n",
		events[len(events)-1].Round, n, ls, *observer)
	printed := 0
	for _, d := range diags {
		if *faultyOnly && d.ConsHV.CountFaulty(n) == 0 && d.Isolated == 0 {
			continue
		}
		extra := ""
		if d.Isolated != 0 {
			var nodes []int
			for m := d.Isolated; m != 0; m &= m - 1 {
				nodes = append(nodes, bits.TrailingZeros64(m)+1)
			}
			extra = fmt.Sprintf("   ISOLATED %v", nodes)
		}
		fmt.Fprintf(out, "round %-5d cons_hv(round %d) = %s%s\n", d.Round, d.DiagnosedRound, d.ConsHV.String(n), extra)
		printed++
	}
	if printed == 0 {
		fmt.Fprintln(out, "no matching rounds (the trace looks clean)")
	}
	return nil
}

func runBisect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ttdiag-trace bisect", flag.ContinueOnError)
	n := fs.Int("n", 4, "number of nodes")
	rounds := fs.Int("rounds", 64, "search horizon in rounds")
	p := fs.Int64("p", 2, "penalty threshold P")
	r := fs.Int64("r", 3, "reward threshold R")
	reint := fs.Int64("reint", 4, "reintegration threshold")
	every := fs.String("every", "3:1:4:9", "shared fault on both sides: node:k:from:to (empty = none)")
	inject := fs.String("inject", "", "extra burst on side B only: round:slot:slots")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inject == "" {
		return fmt.Errorf("bisect: nothing distinguishes the sides — pass -inject")
	}
	if *rounds < 1 {
		return fmt.Errorf("bisect: need at least 1 round, got %d", *rounds)
	}
	var round, slot, slots int
	if _, err := fmt.Sscanf(*inject, "%d:%d:%d", &round, &slot, &slots); err != nil {
		return fmt.Errorf("bisect: -inject wants round:slot:slots, got %q", *inject)
	}
	var node, k, from, to int
	if *every != "" {
		if _, err := fmt.Sscanf(*every, "%d:%d:%d:%d", &node, &k, &from, &to); err != nil {
			return fmt.Errorf("bisect: -every wants node:k:from:to, got %q", *every)
		}
	}
	cfg := sim.ClusterConfig{
		N:  *n,
		PR: core.PRConfig{PenaltyThreshold: *p, RewardThreshold: *r, ReintegrationThreshold: *reint},
	}
	// Each side gets its own disturbance instances, so no fault process
	// state is shared between them.
	build := func() (side, error) {
		s, err := newSide(cfg, *rounds)
		if err == nil && *every != "" {
			s.cl.AddLaneDisturbance(0, fault.EveryKthRound(tdma.NodeID(node), k, from, to))
		}
		return s, err
	}
	a, err := build()
	if err != nil {
		return err
	}
	b, err := build()
	if err != nil {
		return err
	}
	b.cl.AddLaneDisturbance(0, fault.NewTrain(fault.SlotBurst(b.cl.Schedule(), round, slot, slots)))
	div, evA, evB, err := firstDivergentRound(a, b, *rounds)
	if err != nil {
		return err
	}
	if div < 0 {
		fmt.Fprintf(out, "no divergence within %d rounds\n", *rounds)
		return nil
	}
	i := trace.FirstDivergence(evA, evB)
	fmt.Fprintf(out, "first divergent round: %d, at event %d of the round:\n", div, i)
	printDivergence(out, i, "side A", evA, "side B", evB)
	dump := func(name string, events []trace.Event) {
		fmt.Fprintf(out, "side %s causal events in round %d:\n", name, div)
		for _, e := range events {
			fmt.Fprintf(out, "  %s\n", e)
		}
	}
	dump("A", evA)
	dump("B", evB)
	return nil
}

// side is one variant of a bisected scenario: a one-lane gang whose flight
// recorder holds the events of the round it executed last.
type side struct {
	cl  *sim.BatchDiagCluster
	rec *trace.Recorder
}

// newSide builds a fresh, undisturbed variant of cfg that records rounds
// 0..rounds-1 into its own unbounded recorder.
func newSide(cfg sim.ClusterConfig, rounds int) (side, error) {
	rec := &trace.Recorder{}
	cfg.Sink = rec
	cl, err := sim.NewOneLaneCluster(cfg, rounds)
	return side{cl: cl, rec: rec}, err
}

// firstDivergentRound steps a and b in lock-step for at most rounds rounds
// and returns the first round whose recorded events differ, together with
// both sides' events of that round; -1 when the sides agree throughout. A
// schema-v3 trace records every input the protocol state depends on, so the
// first round whose events differ is the first round whose state differs.
func firstDivergentRound(a, b side, rounds int) (int, []trace.Event, []trace.Event, error) {
	for k := 0; k < rounds; k++ {
		if err := a.cl.Step(); err != nil {
			return 0, nil, nil, fmt.Errorf("bisect: side A: %w", err)
		}
		if err := b.cl.Step(); err != nil {
			return 0, nil, nil, fmt.Errorf("bisect: side B: %w", err)
		}
		a.cl.FlushLaneTrace(0)
		b.cl.FlushLaneTrace(0)
		evA, evB := a.rec.Events(), b.rec.Events()
		if trace.FirstDivergence(evA, evB) >= 0 {
			return k, evA, evB, nil
		}
		a.rec.Reset()
		b.rec.Reset()
	}
	return -1, nil, nil, nil
}
