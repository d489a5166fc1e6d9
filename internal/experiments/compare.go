package experiments

import (
	"fmt"
	"math/bits"
	"strconv"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/lowlat"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/tuning"
)

func init() {
	register(Experiment{
		ID:    "sec10-lowlat",
		Title: "Detection latency: add-on protocol vs system-level variant",
		Ref:   "Sec. 10",
		Run:   runSec10,
	})
	register(Experiment{
		ID:    "cmp-ttpc",
		Title: "Multiple coincident faults: add-on protocol vs TTP/C membership",
		Ref:   "Sec. 2 (related work claims)",
		Run:   runCmpTTPC,
	})
	register(Experiment{
		ID:    "cmp-isolation",
		Title: "Availability under abnormal transients: p/r vs immediate isolation vs α-count",
		Ref:   "Sec. 9",
		Run:   runCmpIsolation,
	})
}

// runSec10 renders the detection latency of the three deployments on an
// identical single-slot fault: the add-on protocol with unconstrained
// scheduling (k-3), the add-on protocol under the global send_curr_round
// predicate (k-2), and the constrained system-level variant (one round).
func runSec10(p Params) error {
	lat, err := detectionLatencies()
	if err != nil {
		return err
	}
	t := newTable(p.Out)
	t.row("deployment", "detection latency (rounds)", "paper")
	t.rule(3)
	paper := []string{"k-3 (Lemma 1), <= 4 worst case", "k-2 (Lemma 1)", "1"}
	for i, l := range lat {
		t.row(sec10Deployments[i], strconv.Itoa(l), paper[i])
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\nmembership: 2 executions of the respective protocol (see sec8-clique and the low-latency membership tests)")
	return nil
}

// sec10Deployments names the three deployments of the Sec. 10 comparison,
// in the order detectionLatencies measures them.
var sec10Deployments = [3]string{"add-on, unconstrained scheduling", "add-on, all send_curr_round", "system-level (constrained)"}

// detectionLatencies measures the detection latency (detection round minus
// fault round) of the sec10Deployments against an identical single-slot
// fault.
func detectionLatencies() ([3]int, error) {
	var out [3]int
	const faultRound = 8
	addOn := func(name string, cfg sim.ClusterConfig) (int, error) {
		cl, err := sim.NewOneLaneCluster(cfg, faultRound+8)
		if err != nil {
			return 0, err
		}
		cl.AddLaneDisturbance(0, fault.NewTrain(fault.SlotBurst(cl.Schedule(), faultRound, 3, 1)))
		detected := -1
		cl.OnOutput = func(id int, o *core.BatchRoundOutput) {
			if id == 1 && detected < 0 && o.DiagnosedRound == faultRound && o.LaneConsHV(0, 4).Get(3) == core.Faulty {
				detected = o.Round
			}
		}
		if err := cl.Run(); err != nil {
			return 0, err
		}
		if detected < 0 {
			return 0, fmt.Errorf("%s never detected the fault", name)
		}
		return detected - faultRound, nil
	}
	var err error
	if out[0], err = addOn(sec10Deployments[0], sim.ClusterConfig{Ls: []int{2, 0, 3, 1}}); err != nil {
		return out, err
	}
	if out[1], err = addOn(sec10Deployments[1], sim.ClusterConfig{Ls: sim.Staircase(4), AllSendCurrRound: true}); err != nil {
		return out, err
	}
	eng, runners, err := sim.NewLowLatCluster(sim.ClusterConfig{})
	if err != nil {
		return out, err
	}
	eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), faultRound, 3, 1)))
	detected := -1
	runners[1].OnVerdict = func(v lowlat.Verdict) {
		if detected < 0 && v.Round == faultRound && v.Node == 3 && v.Health == core.Faulty {
			detected = eng.Round()
		}
	}
	if err := eng.RunRounds(faultRound + 6); err != nil {
		return out, err
	}
	if detected < 0 {
		return out, fmt.Errorf("low-latency variant never detected the fault")
	}
	out[2] = detected - faultRound
	return out, nil
}

// runCmpTTPC compares the protocols under fault patterns beyond the
// single-fault assumption: two coincident asymmetric receive faults and a
// two-round communication blackout.
func runCmpTTPC(p Params) error {
	type outcome struct {
		scenario  string
		protocol  string
		aliveOrOK string
		verdict   string
	}
	var rows []outcome

	double := func(sched *tdma.Schedule) []tdma.Disturbance {
		return []tdma.Disturbance{
			fault.ReceiverBlind{Receiver: 4, Senders: []tdma.NodeID{1}, FromRound: 6, ToRound: 7},
			fault.ReceiverBlind{Receiver: 3, Senders: []tdma.NodeID{2}, FromRound: 6, ToRound: 7},
		}
	}
	blackout := func(sched *tdma.Schedule) []tdma.Disturbance {
		return []tdma.Disturbance{fault.NewTrain(fault.Blackout(sched, 6, 2))}
	}

	runTTPC := func(scenario string, ds func(*tdma.Schedule) []tdma.Disturbance) error {
		eng, nodes, err := sim.NewTTPCCluster(sim.ClusterConfig{})
		if err != nil {
			return err
		}
		for _, d := range ds(eng.Schedule()) {
			eng.Bus().AddDisturbance(d)
		}
		if err := eng.RunRounds(16); err != nil {
			return err
		}
		alive := 0
		for id := 1; id <= 4; id++ {
			if nodes[id].Alive() {
				alive++
			}
		}
		verdict := "survives"
		if alive < 4 {
			verdict = fmt.Sprintf("%d healthy node(s) killed", 4-alive)
		}
		if alive == 0 {
			verdict = "whole system down"
		}
		rows = append(rows, outcome{scenario, "TTP/C membership", fmt.Sprintf("%d/4 alive", alive), verdict})
		return nil
	}

	runOurs := func(scenario string, ds func(*tdma.Schedule) []tdma.Disturbance) error {
		cl, err := sim.NewOneLaneCluster(sim.ClusterConfig{
			Ls: sim.Staircase(4), AllSendCurrRound: true,
			PR: core.PRConfig{PenaltyThreshold: 10, RewardThreshold: 100},
		}, 16)
		if err != nil {
			return err
		}
		for _, d := range ds(cl.Schedule()) {
			cl.AddLaneDisturbance(0, d)
		}
		var last uint64 // node 1's activity vector after its last job
		cl.OnOutput = func(id int, o *core.BatchRoundOutput) {
			if id == 1 {
				last = o.LaneActiveMask(0, 4)
			}
		}
		if err := cl.Run(); err != nil {
			return err
		}
		active := bits.OnesCount64(last)
		verdict := "consistent diagnosis, all nodes kept"
		if err := sim.AuditTheorem1(cl.LaneTruth(0), cl.LaneCollector(0), []int{1, 2, 3, 4}, 3, 10); err != nil {
			verdict = "audit failed: " + err.Error()
		} else if active < 4 {
			verdict = fmt.Sprintf("%d node(s) isolated", 4-active)
		}
		rows = append(rows, outcome{scenario, "add-on diagnostic", fmt.Sprintf("%d/4 active", active), verdict})
		return nil
	}

	for _, sc := range []struct {
		name string
		ds   func(*tdma.Schedule) []tdma.Disturbance
	}{
		{name: "2 coincident asymmetric faults", ds: double},
		{name: "2-round communication blackout", ds: blackout},
	} {
		if err := runTTPC(sc.name, sc.ds); err != nil {
			return err
		}
		if err := runOurs(sc.name, sc.ds); err != nil {
			return err
		}
	}

	t := newTable(p.Out)
	t.row("scenario", "protocol", "availability", "outcome")
	t.rule(4)
	for _, r := range rows {
		t.row(r.scenario, r.protocol, r.aliveOrOK, r.verdict)
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\nbandwidth: both protocols carry O(N) bits per message (N-bit vector)")
	return nil
}

// runCmpIsolation reproduces the Sec. 9 availability argument on both
// abnormal transient scenarios.
func runCmpIsolation(p Params) error {
	t := newTable(p.Out)
	t.row("scenario", "policy", "nodes isolated", "first isolation", "system down")
	t.rule(5)
	for _, ds := range []struct {
		spec tuning.DomainSpec
		scen fault.Scenario
	}{
		{spec: tuning.Automotive(), scen: fault.BlinkingLight()},
		{spec: tuning.Aerospace(), scen: fault.LightningBolt()},
	} {
		res, err := tuning.Derive(ds.spec)
		if err != nil {
			return err
		}
		outs, err := tuning.ComparePolicies(ds.scen, res, 0.95, 200)
		if err != nil {
			return err
		}
		for _, o := range outs {
			t.row(ds.scen.Name, o.Policy, strconv.Itoa(o.NodesIsolated), ms(o.FirstIsolation),
				strconv.FormatBool(o.SystemDown))
		}
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\npaper: immediate isolation after the first burst would isolate every node and restart the whole system")
	return nil
}
