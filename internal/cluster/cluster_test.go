package cluster

import (
	"sync"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/lowlat"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// buildDisturbances returns the identical disturbance set for both runtimes.
func scenarioDisturbances(sched *tdma.Schedule) []tdma.Disturbance {
	return []tdma.Disturbance{
		fault.NewTrain(
			fault.SlotBurst(sched, 6, 2, 2),
			fault.Blackout(sched, 12, 1),
		),
		fault.ReceiverBlind{Receiver: 1, Senders: []tdma.NodeID{3}, FromRound: 16, ToRound: 17},
	}
}

// equivalenceCfgs are the configurations the lock-step equivalence tests
// run under scenarioDisturbances.
var equivalenceCfgs = []sim.ClusterConfig{
	{Ls: sim.Staircase(4), AllSendCurrRound: true,
		PR: core.PRConfig{PenaltyThreshold: 6, RewardThreshold: 50}},
	{Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 6, RewardThreshold: 50}},
}

// heterogeneousCfg declares per-slot frame lengths, and
// heterogeneousBurst is its scenario.
var heterogeneousCfg = sim.ClusterConfig{
	SlotLens: []time.Duration{
		250 * time.Microsecond,
		time.Millisecond,
		500 * time.Microsecond,
		750 * time.Microsecond,
	},
	Ls: sim.Staircase(4), AllSendCurrRound: true,
}

func heterogeneousBurst(sched *tdma.Schedule) []tdma.Disturbance {
	return []tdma.Disturbance{fault.NewTrain(fault.SlotBurst(sched, 6, 2, 1))}
}

// TestEquivalenceWithLockStepEngine runs the same scenario on the lock-step
// engine and the concurrent runtime and requires bit-identical consistent
// health vectors and activity vectors in every round.
func TestEquivalenceWithLockStepEngine(t *testing.T) {
	for ci, cfg := range equivalenceCfgs {
		// Lock-step reference run.
		eng, runners, err := sim.NewDiagnosticCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range scenarioDisturbances(eng.Schedule()) {
			eng.Bus().AddDisturbance(d)
		}
		const rounds = 24
		ref := make([][]core.RoundOutput, rounds)
		for k := 0; k < rounds; k++ {
			if err := eng.RunRound(); err != nil {
				t.Fatal(err)
			}
			ref[k] = make([]core.RoundOutput, 5)
			for id := 1; id <= 4; id++ {
				ref[k][id] = runners[id].Last()
			}
		}

		// Concurrent run.
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for _, d := range scenarioDisturbances(cl.Schedule()) {
			cl.AddDisturbance(d)
		}
		for k := 0; k < rounds; k++ {
			if err := cl.RunRound(); err != nil {
				t.Fatal(err)
			}
			for id := 1; id <= 4; id++ {
				if out := cl.Last(id); out != ref[k][id] {
					t.Fatalf("cfg %d round %d node %d: output %+v != lock-step %+v",
						ci, k, id, out, ref[k][id])
				}
			}
		}
	}
}

func TestClusterIsolatesCrashedNode(t *testing.T) {
	cl, err := New(sim.ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 4, RewardThreshold: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.AddDisturbance(fault.Crash(3, 8))
	if err := cl.RunRounds(25); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		out := cl.Last(id)
		if out.Active != 0b1011 {
			t.Fatalf("node %d activity vector %04b, want node 3 isolated and 1, 2, 4 active", id, out.Active)
		}
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	cl, err := New(sim.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close()
	if err := cl.RunRound(); err == nil {
		t.Fatal("RunRound after Close accepted")
	}
}

func TestClusterTrace(t *testing.T) {
	var rec trace.Recorder
	cl, err := New(sim.ClusterConfig{Sink: &rec})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Filter(trace.KindJobRun)); got != 8 {
		t.Fatalf("job events = %d, want 8", got)
	}
	if got := len(rec.Filter(trace.KindTransmit)); got != 8 {
		t.Fatalf("transmit events = %d, want 8", got)
	}
}

// TestConcurrentTraceMatchesLockStep: the concurrent runtime's flight
// recording equals the lock-step engine's, event for event — transmit and
// job events with the deviations a replay needs, node 1's causal stream
// (penalties, isolations, accusations) and membership view changes.
func TestConcurrentTraceMatchesLockStep(t *testing.T) {
	type tcase struct {
		cfg        sim.ClusterConfig
		dist       func(*tdma.Schedule) []tdma.Disturbance
		membership bool
	}
	cases := []tcase{{cfg: heterogeneousCfg, dist: heterogeneousBurst}}
	for _, cfg := range equivalenceCfgs {
		cases = append(cases, tcase{cfg: cfg, dist: scenarioDisturbances})
	}
	cases = append(cases, tcase{cfg: equivalenceCfgs[1], dist: scenarioDisturbances, membership: true})
	const rounds = 24
	for ci, tc := range cases {
		var want, got trace.Recorder
		cfg := tc.cfg
		cfg.Sink = &want
		var eng *sim.Engine
		var err error
		if tc.membership {
			eng, _, err = sim.NewMembershipCluster(cfg)
		} else {
			eng, _, err = sim.NewDiagnosticCluster(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range tc.dist(eng.Schedule()) {
			eng.Bus().AddDisturbance(d)
		}
		if err := eng.RunRounds(rounds); err != nil {
			t.Fatal(err)
		}
		cfg.Sink = &got
		var cl *Cluster
		if tc.membership {
			cl, _, err = NewMembershipCluster(cfg)
		} else {
			cl, err = New(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range tc.dist(cl.Schedule()) {
			cl.AddDisturbance(d)
		}
		err = cl.RunRounds(rounds)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		w, g := want.Events(), got.Events()
		if i := trace.FirstDivergence(g, w); i >= 0 {
			if i >= len(g) || i >= len(w) {
				t.Fatalf("case %d: concurrent trace has %d events, lock-step %d", ci, len(g), len(w))
			}
			t.Fatalf("case %d: event %d of %d is %+v, lock-step %+v", ci, i, len(w), g[i], w[i])
		}
		var invalid uint64
		causal := 0
		for _, e := range w {
			invalid |= e.Invalid
			if e.Kind != trace.KindTransmit && e.Kind != trace.KindJobRun {
				causal++
			}
		}
		if invalid == 0 {
			t.Fatalf("case %d: the scenario records no invalid delivery", ci)
		}
		if causal == 0 {
			t.Fatalf("case %d: the scenario records no causal event", ci)
		}
		if tc.membership && len(want.Filter(trace.KindViewChange)) == 0 {
			t.Fatalf("case %d: the membership scenario records no view change", ci)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(sim.ClusterConfig{N: 1}); err == nil {
		t.Fatal("1-node cluster accepted")
	}
	if _, err := New(sim.ClusterConfig{N: 4, Ls: []int{0, 0}}); err == nil {
		t.Fatal("short Ls accepted")
	}
}

func TestLastOutOfRange(t *testing.T) {
	cl, err := New(sim.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if out := cl.Last(0); out.Round != 0 || out.ConsHV.Known != 0 {
		t.Fatalf("Last(0) = %+v", out)
	}
	if out := cl.Last(99); out.ConsHV.Known != 0 {
		t.Fatalf("Last(99) = %+v", out)
	}
}

// TestConcurrentMembershipClique runs the Sec. 8 clique scenario on the
// concurrent runtime: node 1 misses node 2's broadcast and must be excluded
// from the view at every node goroutine, identically to the lock-step run.
func TestConcurrentMembershipClique(t *testing.T) {
	cl, runners, err := NewMembershipCluster(sim.ClusterConfig{Ls: sim.Staircase(4), AllSendCurrRound: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.AddDisturbance(fault.ReceiverBlind{
		Receiver: 1, Senders: []tdma.NodeID{2}, FromRound: 8, ToRound: 9,
	})
	if err := cl.RunRounds(24); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		v := runners[id].View()
		if len(v.Members) != 3 || v.Members[0] != 2 {
			t.Fatalf("node %d view = %+v, want members [2 3 4]", id, v)
		}
		if v.ID != runners[1].View().ID || v.FormedAtRound != runners[1].View().FormedAtRound {
			t.Fatalf("views diverge across goroutines")
		}
	}
}

// TestConcurrentLowLat runs the constrained per-slot variant inside node
// goroutines: a single benign fault must be diagnosed with one-round latency
// and consistent verdicts.
func TestConcurrentLowLat(t *testing.T) {
	cl, runners, err := NewLowLatCluster(sim.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	verdicts := make(map[int]core.Opinion)
	var mu sync.Mutex
	for id := 1; id <= 4; id++ {
		id := id
		runners[id].OnVerdict = func(v lowlat.Verdict) {
			if v.Round == 6 && v.Node == 3 {
				mu.Lock()
				verdicts[id] = v.Health
				mu.Unlock()
			}
		}
	}
	cl.AddDisturbance(fault.NewTrain(fault.SlotBurst(cl.Schedule(), 6, 3, 1)))
	if err := cl.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(verdicts) != 4 {
		t.Fatalf("verdicts from %d nodes, want 4", len(verdicts))
	}
	for id, h := range verdicts {
		if h != core.Faulty {
			t.Fatalf("node %d verdict %v", id, h)
		}
	}
}

// TestConcurrentHeterogeneousSlots runs the goroutine-per-node runtime on a
// custom per-slot schedule, matching the lock-step engine's support.
func TestConcurrentHeterogeneousSlots(t *testing.T) {
	cl, err := New(heterogeneousCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Schedule().Uniform() {
		t.Fatal("custom schedule not applied")
	}
	for _, d := range heterogeneousBurst(cl.Schedule()) {
		cl.AddDisturbance(d)
	}
	if err := cl.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		out := cl.Last(id)
		if out.ConsHV.Known == 0 || out.ConsHV != cl.Last(1).ConsHV {
			t.Fatalf("node %d disagreed on the heterogeneous schedule", id)
		}
	}
	if _, err := New(sim.ClusterConfig{SlotLens: []time.Duration{time.Millisecond}}); err == nil {
		t.Fatal("short SlotLens accepted")
	}
}

func TestMembershipClusterValidation(t *testing.T) {
	if _, _, err := NewMembershipCluster(sim.ClusterConfig{N: 1}); err == nil {
		t.Fatal("invalid membership cluster accepted")
	}
	if _, _, err := NewLowLatCluster(sim.ClusterConfig{N: 1}); err == nil {
		t.Fatal("invalid lowlat cluster accepted")
	}
}

// TestMembershipEquivalenceWithLockStep holds the membership variant to the
// same bit-identical cross-runtime guarantee as the diagnostic one.
func TestMembershipEquivalenceWithLockStep(t *testing.T) {
	cfg := sim.ClusterConfig{Ls: []int{2, 0, 3, 1}}
	mkDisturb := func(sched *tdma.Schedule) []tdma.Disturbance {
		return []tdma.Disturbance{
			fault.ReceiverBlind{Receiver: 1, Senders: []tdma.NodeID{2}, FromRound: 8, ToRound: 9},
			fault.NewTrain(fault.SlotBurst(sched, 14, 4, 1)),
		}
	}
	const rounds = 28

	engRef, refRunners, err := sim.NewMembershipCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range mkDisturb(engRef.Schedule()) {
		engRef.Bus().AddDisturbance(d)
	}
	if err := engRef.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}

	cl, clRunners, err := NewMembershipCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, d := range mkDisturb(cl.Schedule()) {
		cl.AddDisturbance(d)
	}
	if err := cl.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		want := refRunners[id].Service().History()
		got := clRunners[id].Service().History()
		if len(got) != len(want) {
			t.Fatalf("node %d: %d views vs lock-step %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].FormedAtRound != want[i].FormedAtRound ||
				len(got[i].Members) != len(want[i].Members) {
				t.Fatalf("node %d view %d: %+v vs lock-step %+v", id, i, got[i], want[i])
			}
		}
	}
}

// TestHostedDynamicScheduling hosts a dynamically scheduled engine, whose
// runners take a round-start snapshot, and requires the lock-step outputs:
// the snapshot call is forwarded to the node goroutines.
func TestHostedDynamicScheduling(t *testing.T) {
	sides := []bool{true, false, true, true}
	pos := func(id, round int) int {
		if sides[id-1] {
			return (round + id) % id // before the node's slot
		}
		return id + round%(4-id) // after it
	}
	build := func() (*sim.Engine, []*sim.DiagRunner) {
		eng, runners, err := sim.NewDynamicDiagnosticCluster(sim.ClusterConfig{}, sides, pos)
		if err != nil {
			t.Fatal(err)
		}
		eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), 6, 3, 1)))
		return eng, runners
	}
	eng, want := build()
	hosted, got := build()
	cl := Host(hosted)
	defer cl.Close()
	faulty := 0
	for k := 0; k < 16; k++ {
		if err := eng.RunRound(); err != nil {
			t.Fatal(err)
		}
		if err := cl.RunRound(); err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= 4; id++ {
			if got[id].Last() != want[id].Last() {
				t.Fatalf("round %d node %d: %+v, lock-step %+v", k, id, got[id].Last(), want[id].Last())
			}
		}
		faulty += want[1].Last().ConsHV.CountFaulty(4)
	}
	if faulty == 0 {
		t.Fatal("the burst was never diagnosed")
	}
}
