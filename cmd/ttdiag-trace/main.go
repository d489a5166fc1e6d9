// Command ttdiag-trace queries JSONL causal traces written by the simulators
// and experiments (-trace), and bisects divergences between two scenario
// variants.
//
// Usage:
//
//	ttdiag-trace filter   -in f.jsonl [-run i] [-node n] [-subject n] [-kind k] [-from r] [-to r]
//	ttdiag-trace timeline -in f.jsonl [-run i] [-node n]
//	ttdiag-trace explain  -in f.jsonl [-run i] -node n [-round r]
//	ttdiag-trace diff     -a x.jsonl -b y.jsonl
//	ttdiag-trace bisect   [-n nodes] [-rounds k] [-p P] [-r R] [-reint T]
//	                      [-every node:k:from:to] -inject round:slot:slots
//
// filter prints matching events; timeline prints each node's isolation
// spans; explain prints the causal chain (accusations, penalty trajectory,
// isolation) that ended in a node's isolation; diff reports the first event
// where two traces diverge. bisect re-executes a scenario on two sides — the
// base cluster vs one with an extra injected burst (-inject) — and
// binary-searches the first divergent round via run checkpointing, printing
// both sides' causal events at that round.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ttdiag/internal/bisect"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
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
		return fmt.Errorf("usage: ttdiag-trace filter|timeline|explain|diff|bisect [flags]")
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
	case "bisect":
		return runBisect(args[1:], out)
	default:
		return fmt.Errorf("unknown command %q (want filter, timeline, explain, diff or bisect)", cmd)
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
	if i < len(a) {
		fmt.Fprintf(out, "  %s: %s\n", *fileA, a[i])
	} else {
		fmt.Fprintf(out, "  %s: (ends after %d events)\n", *fileA, len(a))
	}
	if i < len(b) {
		fmt.Fprintf(out, "  %s: %s\n", *fileB, b[i])
	} else {
		fmt.Fprintf(out, "  %s: (ends after %d events)\n", *fileB, len(b))
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
	var round, slot, slots int
	if _, err := fmt.Sscanf(*inject, "%d:%d:%d", &round, &slot, &slots); err != nil {
		return fmt.Errorf("bisect: -inject wants round:slot:slots, got %q", *inject)
	}
	build := func(name string) (bisect.Side, error) {
		rec := &trace.Recorder{}
		cl, err := sim.NewReusableDiagnosticCluster(sim.ClusterConfig{
			N: *n,
			PR: core.PRConfig{
				PenaltyThreshold: *p, RewardThreshold: *r, ReintegrationThreshold: *reint,
			},
			Sink: rec,
		})
		if err != nil {
			return bisect.Side{}, err
		}
		cl.Reset()
		if *every != "" {
			var node, k, from, to int
			if _, err := fmt.Sscanf(*every, "%d:%d:%d:%d", &node, &k, &from, &to); err != nil {
				return bisect.Side{}, fmt.Errorf("bisect: -every wants node:k:from:to, got %q", *every)
			}
			cl.Eng.Bus().AddDisturbance(fault.EveryKthRound(tdma.NodeID(node), k, from, to))
		}
		return bisect.Side{Name: name, Cluster: cl, Rec: rec}, nil
	}
	a, err := build("A")
	if err != nil {
		return err
	}
	b, err := build("B")
	if err != nil {
		return err
	}
	b.Cluster.Eng.Bus().AddDisturbance(fault.NewTrain(
		fault.SlotBurst(b.Cluster.Eng.Schedule(), round, slot, slots)))
	rep, err := bisect.FirstDivergence(a, b, *rounds)
	if err != nil {
		return err
	}
	if !rep.Diverged {
		fmt.Fprintf(out, "no divergence within %d rounds (%d probe)\n", *rounds, rep.Probes)
		return nil
	}
	where := fmt.Sprintf("node %d state", rep.Node)
	if rep.Node == 0 {
		where = "ground truth only"
	}
	fmt.Fprintf(out, "first divergent round: %d (%s; %d probes over %d rounds)\n",
		rep.Round, where, rep.Probes, *rounds)
	dump := func(name string, events []trace.Event) {
		fmt.Fprintf(out, "side %s causal events in round %d:\n", name, rep.Round)
		if len(events) == 0 {
			fmt.Fprintln(out, "  (none)")
			return
		}
		for _, e := range events {
			fmt.Fprintf(out, "  %s\n", e)
		}
	}
	dump("A", rep.EventsA)
	dump("B", rep.EventsB)
	return nil
}
