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
//	           [-p P] [-r R] [-seed s] [-quiet] [-metrics f] [-trace f]
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strings"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/lowlat"
	"ttdiag/internal/membership"
	"ttdiag/internal/metrics"
	"ttdiag/internal/replay"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
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
	record   string
	metrics  string
	traceOut string
}

func run(args []string) error {
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
	fs.BoolVar(&o.gantt, "gantt", false, "print an ASCII round timeline at the end")
	fs.StringVar(&o.record, "record", "", "write a flight-recorder bus transcript (JSONL) to this file")
	fs.StringVar(&o.metrics, "metrics", "", "write a versioned metrics report (JSON) to this file (diag and membership variants)")
	fs.StringVar(&o.traceOut, "trace", "", "stream simulation trace events (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return simulate(o)
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

func disturbances(o options, sched *tdma.Schedule) ([]tdma.Disturbance, error) {
	var ds []tdma.Disturbance
	if o.burst != "" {
		round, slot, slots, err := parseTriple(o.burst)
		if err != nil {
			return nil, err
		}
		ds = append(ds, fault.NewTrain(fault.SlotBurst(sched, round, slot, slots)))
	}
	if o.blind != "" {
		rcv, sender, round, err := parseTriple(o.blind)
		if err != nil {
			return nil, err
		}
		ds = append(ds, fault.ReceiverBlind{
			Receiver: tdma.NodeID(rcv), Senders: []tdma.NodeID{tdma.NodeID(sender)},
			FromRound: round, ToRound: round + 1,
		})
	}
	if o.mal > 0 {
		ds = append(ds, fault.NewMaliciousSyndrome(tdma.NodeID(o.mal),
			rng.NewSource(o.seed).Stream("malicious")))
	}
	if o.crash != "" {
		node, round, err := parsePair(o.crash)
		if err != nil {
			return nil, err
		}
		ds = append(ds, fault.Crash(tdma.NodeID(node), round))
	}
	switch o.scenario {
	case "":
	case "blinking":
		ds = append(ds, fault.BlinkingLight().Train(0))
	case "lightning":
		ds = append(ds, fault.LightningBolt().Train(0))
	default:
		return nil, fmt.Errorf("unknown scenario %q", o.scenario)
	}
	return ds, nil
}

func simulate(o options) error {
	cfg := sim.ClusterConfig{
		N:  o.n,
		PR: core.PRConfig{PenaltyThreshold: o.p, RewardThreshold: o.r},
	}
	if o.metrics != "" && o.variant != "diag" && o.variant != "membership" {
		return fmt.Errorf("-metrics supports the diag and membership variants, not %q", o.variant)
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
		case "diag":
			return simulateDiag(o, cfg)
		case "membership":
			return simulateMembership(o, cfg)
		case "lowlat":
			return simulateLowLat(o, cfg)
		case "ttpc":
			return simulateTTPC(o, cfg)
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

// simTelemetry is the single-run metrics wiring of the -metrics flag: one
// registry shared by the lock-step cluster, standard protocol counters on
// every node, penalty trajectories on the node-1 observer.
type simTelemetry struct {
	reg *metrics.Registry
	sys *sim.RunMetrics
}

func newSimTelemetry(o options) *simTelemetry {
	if o.metrics == "" {
		return nil
	}
	reg := metrics.New()
	return &simTelemetry{reg: reg, sys: sim.NewRunMetrics(reg)}
}

// attach wires every protocol's StepMetrics; protoOf must return node id's
// protocol. A nil receiver is a no-op.
func (t *simTelemetry) attach(n int, protoOf func(id int) *core.Protocol) {
	if t == nil {
		return
	}
	sm := core.NewStepMetrics(t.reg)
	smObs := *sm
	smObs.PenaltySeries = make([]*metrics.Series, n+1)
	for j := 1; j <= n; j++ {
		smObs.PenaltySeries[j] = t.reg.Series(fmt.Sprintf("penalty/node%d", j), 1024)
	}
	protoOf(1).SetMetrics(&smObs)
	for id := 2; id <= n; id++ {
		protoOf(id).SetMetrics(sm)
	}
}

// write folds the run's ground truth and writes the report file; col and
// views may be nil when the variant has no collector or membership layer.
func (t *simTelemetry) write(o options, eng *sim.Engine, col *sim.Collector, views []*sim.MembershipRunner) error {
	if t == nil {
		return nil
	}
	t.sys.ObserveTruth(eng)
	if col != nil {
		t.sys.ObserveIsolationLatency(eng, col)
	}
	t.sys.ObserveViews(views)
	rep := metrics.NewReport("ttdiag-sim", o.seed, 1)
	rep.Set(o.variant, t.reg.Snapshot())
	f, err := os.Create(o.metrics)
	if err != nil {
		return err
	}
	defer f.Close()
	return rep.WriteJSON(f)
}

func printHV(o options, observer int, out core.RoundOutput, sched *tdma.Schedule) {
	if o.quiet || out.ConsHV.Known == 0 || observer != 1 {
		return
	}
	at := sched.RoundStart(out.Round)
	extra := ""
	if out.Isolated != 0 {
		extra = fmt.Sprintf("  ISOLATED %v", nodeList(out.Isolated))
	}
	if out.Reintegrated != 0 {
		extra += fmt.Sprintf("  REINTEGRATED %v", nodeList(out.Reintegrated))
	}
	if out.ConsHV.CountFaulty(o.n) > 0 || extra != "" {
		fmt.Printf("%10v round %-4d cons_hv(round %d) = %s%s\n", at, out.Round, out.DiagnosedRound, out.ConsHV.String(o.n), extra)
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

func simulateDiag(o options, cfg sim.ClusterConfig) error {
	var rec trace.Recorder
	if o.gantt {
		if cfg.Sink != nil {
			cfg.Sink = trace.Tee{cfg.Sink, &rec}
		} else {
			cfg.Sink = &rec
		}
	}
	eng, runners, err := sim.NewDiagnosticCluster(cfg)
	if err != nil {
		return err
	}
	tel := newSimTelemetry(o)
	tel.attach(o.n, func(id int) *core.Protocol { return runners[id].Protocol() })
	if o.record != "" {
		f, err := os.Create(o.record)
		if err != nil {
			return err
		}
		defer f.Close()
		w := replay.NewWriter(f)
		var recErr error
		eng.OnReport = func(rep *tdma.TxReport) {
			if err := w.RecordReport(rep); err != nil && recErr == nil {
				recErr = err
			}
		}
		defer func() {
			if recErr != nil {
				fmt.Fprintln(os.Stderr, "ttdiag-sim: transcript:", recErr)
			}
		}()
	}
	ds, err := disturbances(o, eng.Schedule())
	if err != nil {
		return err
	}
	for _, d := range ds {
		eng.Bus().AddDisturbance(d)
	}
	col := sim.NewCollector()
	for id := 1; id <= o.n; id++ {
		id := id
		col.HookDiag(id, runners[id])
		inner := runners[id].OnOutput
		runners[id].OnOutput = func(out core.RoundOutput) {
			if inner != nil {
				inner(out)
			}
			printHV(o, id, out, eng.Schedule())
		}
	}
	if err := eng.RunRounds(o.rounds); err != nil {
		return err
	}
	if err := tel.write(o, eng, col, nil); err != nil {
		return err
	}
	fmt.Printf("\nsimulated %d rounds (%v of bus time), %d isolation decision(s)\n",
		o.rounds, time.Duration(o.rounds)*eng.Schedule().RoundLen(), len(col.Isolations))
	fmt.Printf("active nodes: %v\n", nodeList(runners[1].Last().Active))
	if o.gantt {
		events := rec.Events()
		// Node 1's isolations/reintegrations already arrive through its causal
		// flight recorder (ClusterConfig.Sink); synthesize only the other
		// observers' decisions from the collector to avoid duplicate marks.
		for _, iso := range col.Isolations {
			if iso.Observer == 1 {
				continue
			}
			events = append(events, trace.Event{
				Round: iso.Round, Kind: trace.KindIsolation,
				Node: iso.Observer, Subject: iso.Node,
			})
		}
		for _, re := range col.Reintegrations {
			if re.Observer == 1 {
				continue
			}
			events = append(events, trace.Event{
				Round: re.Round, Kind: trace.KindReintegration,
				Node: re.Observer, Subject: re.Node,
			})
		}
		fmt.Println()
		fmt.Print(trace.Gantt{Nodes: o.n}.Render(events))
	}
	return nil
}

func simulateMembership(o options, cfg sim.ClusterConfig) error {
	eng, runners, err := sim.NewMembershipCluster(cfg)
	if err != nil {
		return err
	}
	tel := newSimTelemetry(o)
	tel.attach(o.n, func(id int) *core.Protocol { return runners[id].Service().Protocol() })
	ds, err := disturbances(o, eng.Schedule())
	if err != nil {
		return err
	}
	for _, d := range ds {
		eng.Bus().AddDisturbance(d)
	}
	runners[1].OnOutput = func(out membership.Output) {
		printHV(o, 1, out.Diag, eng.Schedule())
		if out.ViewChanged && !o.quiet {
			fmt.Printf("%10v round %-4d NEW VIEW %d: members %v\n",
				eng.Schedule().RoundStart(out.Diag.Round), out.Diag.Round, out.View.ID, out.View.Members)
		}
	}
	if err := eng.RunRounds(o.rounds); err != nil {
		return err
	}
	if err := tel.write(o, eng, nil, runners); err != nil {
		return err
	}
	v := runners[1].View()
	fmt.Printf("\nfinal view %d: members %v (formed at round %d)\n", v.ID, v.Members, v.FormedAtRound)
	return nil
}

func simulateLowLat(o options, cfg sim.ClusterConfig) error {
	eng, runners, err := sim.NewLowLatCluster(cfg)
	if err != nil {
		return err
	}
	ds, err := disturbances(o, eng.Schedule())
	if err != nil {
		return err
	}
	for _, d := range ds {
		eng.Bus().AddDisturbance(d)
	}
	faultyVerdicts := 0
	runners[1].OnVerdict = func(v lowlat.Verdict) {
		if v.Health == core.Faulty {
			faultyVerdicts++
			if !o.quiet {
				fmt.Printf("verdict: slot (%d, round %d) FAULTY (decided during round %d)\n",
					v.Node, v.Round, eng.Round())
			}
		}
	}
	if err := eng.RunRounds(o.rounds); err != nil {
		return err
	}
	fmt.Printf("\nsimulated %d rounds, %d faulty per-slot verdicts at node 1\n", o.rounds, faultyVerdicts)
	return nil
}

func simulateTTPC(o options, cfg sim.ClusterConfig) error {
	eng, nodes, err := sim.NewTTPCCluster(cfg)
	if err != nil {
		return err
	}
	ds, err := disturbances(o, eng.Schedule())
	if err != nil {
		return err
	}
	for _, d := range ds {
		eng.Bus().AddDisturbance(d)
	}
	if err := eng.RunRounds(o.rounds); err != nil {
		return err
	}
	for id := 1; id <= o.n; id++ {
		var members []int
		for j := 1; j <= o.n; j++ {
			if nodes[id].Members()[j] {
				members = append(members, j)
			}
		}
		fmt.Printf("node %d: alive=%v members=%v\n", id, nodes[id].Alive(), members)
	}
	return nil
}
