// Command ttdiag-sim runs an interactive-style scenario on the simulation
// stack and prints a round-by-round trace: transmissions with their
// ground-truth outcome class, diagnostic-job executions, agreed health
// vectors, isolations and view changes.
//
// Usage:
//
//	ttdiag-sim [-variant diag|membership|lowlat|ttpc] [-n nodes] [-rounds k]
//	           [-burst round:slot:slots] [-blind rcv:sender:round]
//	           [-malicious node] [-crash node:round] [-scenario blinking|lightning]
//	           [-p P] [-r R] [-seed s] [-quiet] [-gantt] [-metrics f] [-trace f]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strings"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/lowlat"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ttdiag-sim:", err)
		os.Exit(1)
	}
}

type options struct {
	variant  string
	n        int
	rounds   int
	burst    string
	blind    string
	mal      int
	crash    string
	scenario string
	p        int64
	r        int64
	seed     int64
	quiet    bool
	gantt    bool
	metrics  string
	traceOut string
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ttdiag-sim", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.variant, "variant", "diag", "protocol variant: diag, membership, lowlat or ttpc")
	fs.IntVar(&o.n, "n", 4, "number of nodes")
	fs.IntVar(&o.rounds, "rounds", 20, "rounds to simulate")
	fs.StringVar(&o.burst, "burst", "", "inject a benign burst: round:slot:slots")
	fs.StringVar(&o.blind, "blind", "", "asymmetric receive fault: receiver:sender:round")
	fs.IntVar(&o.mal, "malicious", 0, "node broadcasting random syndromes (0 = none)")
	fs.StringVar(&o.crash, "crash", "", "crash a node: node:round")
	fs.StringVar(&o.scenario, "scenario", "", "abnormal transient scenario: blinking or lightning")
	fs.Int64Var(&o.p, "p", 197, "penalty threshold P")
	fs.Int64Var(&o.r, "r", 1_000_000, "reward threshold R")
	fs.Int64Var(&o.seed, "seed", 2007, "random seed")
	fs.BoolVar(&o.quiet, "quiet", false, "only print the final summary")
	fs.BoolVar(&o.gantt, "gantt", false, "print an ASCII round timeline at the end (diag variant)")
	fs.StringVar(&o.metrics, "metrics", "", "write a versioned metrics report (JSON) to this file (diag and membership variants)")
	fs.StringVar(&o.traceOut, "trace", "", "stream simulation trace events (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return simulate(w, o)
}

func parseTriple(s string) (a, b, c int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("want x:y:z, got %q", s)
	}
	if _, err := fmt.Sscanf(s, "%d:%d:%d", &a, &b, &c); err != nil {
		return 0, 0, 0, fmt.Errorf("parse %q: %v", s, err)
	}
	return a, b, c, nil
}

func parsePair(s string) (a, b int, err error) {
	if _, err := fmt.Sscanf(s, "%d:%d", &a, &b); err != nil {
		return 0, 0, fmt.Errorf("parse %q: %v", s, err)
	}
	return a, b, nil
}

// addDisturbances attaches the faults the flags name through add.
func addDisturbances(o options, sched *tdma.Schedule, add func(tdma.Disturbance)) error {
	if o.burst != "" {
		round, slot, slots, err := parseTriple(o.burst)
		if err != nil {
			return err
		}
		add(fault.NewTrain(fault.SlotBurst(sched, round, slot, slots)))
	}
	if o.blind != "" {
		rcv, sender, round, err := parseTriple(o.blind)
		if err != nil {
			return err
		}
		add(fault.ReceiverBlind{
			Receiver: tdma.NodeID(rcv), Senders: []tdma.NodeID{tdma.NodeID(sender)},
			FromRound: round, ToRound: round + 1,
		})
	}
	if o.mal > 0 {
		add(fault.NewMaliciousSyndrome(tdma.NodeID(o.mal),
			rng.NewSource(o.seed).Stream("malicious")))
	}
	if o.crash != "" {
		node, round, err := parsePair(o.crash)
		if err != nil {
			return err
		}
		add(fault.Crash(tdma.NodeID(node), round))
	}
	switch o.scenario {
	case "":
	case "blinking":
		add(fault.BlinkingLight().Train(0))
	case "lightning":
		add(fault.LightningBolt().Train(0))
	default:
		return fmt.Errorf("unknown scenario %q", o.scenario)
	}
	return nil
}

func simulate(w io.Writer, o options) error {
	cfg := sim.ClusterConfig{
		N:  o.n,
		PR: core.PRConfig{PenaltyThreshold: o.p, RewardThreshold: o.r},
	}
	if o.metrics != "" && o.variant != "diag" && o.variant != "membership" {
		return fmt.Errorf("-metrics supports the diag and membership variants, not %q", o.variant)
	}
	if o.gantt && o.variant != "diag" {
		return fmt.Errorf("-gantt supports the diag variant, not %q", o.variant)
	}
	var jw *trace.JSONLWriter
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jw = trace.NewJSONLWriter(f)
		cfg.Sink = jw
	}
	runVariant := func() error {
		switch o.variant {
		case "diag", "membership":
			return simulateGang(w, o, cfg)
		case "lowlat":
			return simulateLowLat(w, o, cfg)
		case "ttpc":
			return simulateTTPC(w, o, cfg)
		default:
			return fmt.Errorf("unknown variant %q", o.variant)
		}
	}
	if err := runVariant(); err != nil {
		return err
	}
	if jw != nil {
		if err := jw.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// attachMetrics is the metrics wiring of the -metrics flag: standard
// protocol counters on every node of the gang's lane, penalty trajectories
// on the node-1 observer.
func attachMetrics(cl *sim.BatchDiagCluster, reg *metrics.Registry) {
	n := cl.Config().N
	sm := core.NewStepMetrics(reg)
	smObs := *sm
	smObs.PenaltySeries = make([]*metrics.Series, n+1)
	for j := 1; j <= n; j++ {
		smObs.PenaltySeries[j] = reg.Series(fmt.Sprintf("penalty/node%d", j), 1024)
	}
	cl.Proto(1).SetLaneMetrics(0, &smObs)
	for id := 2; id <= n; id++ {
		cl.Proto(id).SetLaneMetrics(0, sm)
	}
}

// writeMetrics folds the lane's ground truth into reg — with the isolation
// latencies in diagnostic mode, the view changes in membership mode — and
// writes the report file.
func writeMetrics(o options, cl *sim.BatchDiagCluster, reg *metrics.Registry) error {
	sys := sim.NewRunMetrics(reg)
	sys.ObserveTruth(cl.LaneTruth(0))
	if cl.Config().Mode == core.ModeMembership {
		for id := 1; id <= cl.Config().N; id++ {
			sys.ViewChanges.Add(int64(cl.LaneView(0, id).ID))
		}
	} else {
		sys.ObserveIsolationLatency(cl.LaneTruth(0), cl.LaneCollector(0))
	}
	rep := metrics.NewReport("ttdiag-sim", o.seed, 1)
	rep.Set(o.variant, reg.Snapshot())
	f, err := os.Create(o.metrics)
	if err != nil {
		return err
	}
	defer f.Close()
	return rep.WriteJSON(f)
}

// printHV prints node 1's consistent health vector of the lane when it
// holds a faulty entry or comes with a decision.
func printHV(w io.Writer, o options, out *core.BatchRoundOutput, n int, sched *tdma.Schedule) {
	hv := out.LaneConsHV(0, n)
	if o.quiet || hv.Known == 0 {
		return
	}
	extra := ""
	if iso := out.LaneIsolated(0, n); iso != 0 {
		extra = fmt.Sprintf("  ISOLATED %v", nodeList(iso))
	}
	if re := out.LaneReintegrated(0, n); re != 0 {
		extra += fmt.Sprintf("  REINTEGRATED %v", nodeList(re))
	}
	if hv.CountFaulty(n) > 0 || extra != "" {
		fmt.Fprintf(w, "%10v round %-4d cons_hv(round %d) = %s%s\n",
			sched.RoundStart(out.Round), out.Round, out.DiagnosedRound, hv.String(n), extra)
	}
}

// nodeList lists the nodes of a mask (bit j-1 = node j) in ascending order.
func nodeList(m uint64) []int {
	var nodes []int
	for ; m != 0; m &= m - 1 {
		nodes = append(nodes, bits.TrailingZeros64(m)+1)
	}
	return nodes
}

// simulateGang runs the diag and membership variants on a one-lane gang:
// node 1's outputs are printed as its jobs run (in membership mode with the
// view changes, installed before OnOutput fires), and the lane's trace
// reaches the sink after every round.
func simulateGang(w io.Writer, o options, cfg sim.ClusterConfig) error {
	if o.variant == "membership" {
		cfg.Mode = core.ModeMembership
	}
	var rec trace.Recorder
	if o.gantt {
		if cfg.Sink != nil {
			cfg.Sink = trace.Tee{cfg.Sink, &rec}
		} else {
			cfg.Sink = &rec
		}
	}
	cl, err := sim.NewOneLaneCluster(cfg, o.rounds)
	if err != nil {
		return err
	}
	var reg *metrics.Registry
	if o.metrics != "" {
		reg = metrics.New()
		attachMetrics(cl, reg)
	}
	if err := addDisturbances(o, cl.Schedule(), func(d tdma.Disturbance) { cl.AddLaneDisturbance(0, d) }); err != nil {
		return err
	}
	n, sched := cl.Config().N, cl.Schedule()
	var active uint64 // node 1's activity vector after its last job
	cl.OnOutput = func(id int, out *core.BatchRoundOutput) {
		if id != 1 {
			return
		}
		active = out.LaneActiveMask(0, n)
		printHV(w, o, out, n, sched)
		if cfg.Mode == core.ModeMembership && !o.quiet {
			if v := cl.LaneView(0, 1); v.FormedAtRound == out.Round {
				fmt.Fprintf(w, "%10v round %-4d NEW VIEW %d: members %v\n",
					sched.RoundStart(out.Round), out.Round, v.ID, v.Members)
			}
		}
	}
	for cl.Round() < o.rounds {
		if err := cl.Step(); err != nil {
			return err
		}
		cl.FlushLaneTrace(0)
	}
	if reg != nil {
		if err := writeMetrics(o, cl, reg); err != nil {
			return err
		}
	}
	if cfg.Mode == core.ModeMembership {
		v := cl.LaneView(0, 1)
		fmt.Fprintf(w, "\nfinal view %d: members %v (formed at round %d)\n", v.ID, v.Members, v.FormedAtRound)
		return nil
	}
	col := cl.LaneCollector(0)
	fmt.Fprintf(w, "\nsimulated %d rounds (%v of bus time), %d isolation decision(s)\n",
		o.rounds, time.Duration(o.rounds)*sched.RoundLen(), len(col.Isolations))
	fmt.Fprintf(w, "active nodes: %v\n", nodeList(active))
	if o.gantt {
		events := rec.Events()
		// Node 1's isolations/reintegrations already arrive through its causal
		// flight recorder (ClusterConfig.Sink); synthesize only the other
		// observers' decisions from the collector to avoid duplicate marks.
		for _, d := range []struct {
			kind trace.Kind
			list []sim.Isolation
		}{{trace.KindIsolation, col.Isolations}, {trace.KindReintegration, col.Reintegrations}} {
			for _, e := range d.list {
				if e.Observer != 1 {
					events = append(events, trace.Event{Round: e.Round, Kind: d.kind, Node: e.Observer, Subject: e.Node})
				}
			}
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, trace.Gantt{Nodes: n}.Render(events))
	}
	return nil
}

func simulateLowLat(w io.Writer, o options, cfg sim.ClusterConfig) error {
	eng, runners, err := sim.NewLowLatCluster(cfg)
	if err != nil {
		return err
	}
	if err := addDisturbances(o, eng.Schedule(), eng.Bus().AddDisturbance); err != nil {
		return err
	}
	faultyVerdicts := 0
	runners[1].OnVerdict = func(v lowlat.Verdict) {
		if v.Health == core.Faulty {
			faultyVerdicts++
			if !o.quiet {
				fmt.Fprintf(w, "verdict: slot (%d, round %d) FAULTY (decided during round %d)\n",
					v.Node, v.Round, eng.Round())
			}
		}
	}
	if err := eng.RunRounds(o.rounds); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsimulated %d rounds, %d faulty per-slot verdicts at node 1\n", o.rounds, faultyVerdicts)
	return nil
}

func simulateTTPC(w io.Writer, o options, cfg sim.ClusterConfig) error {
	eng, nodes, err := sim.NewTTPCCluster(cfg)
	if err != nil {
		return err
	}
	if err := addDisturbances(o, eng.Schedule(), eng.Bus().AddDisturbance); err != nil {
		return err
	}
	if err := eng.RunRounds(o.rounds); err != nil {
		return err
	}
	n := eng.Schedule().N()
	for id := 1; id <= n; id++ {
		var members []int
		for j := 1; j <= n; j++ {
			if nodes[id].Members()[j] {
				members = append(members, j)
			}
		}
		fmt.Fprintf(w, "node %d: alive=%v members=%v\n", id, nodes[id].Alive(), members)
	}
	return nil
}
