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

// TestEquivalenceWithLockStepEngine runs the same scenario on the lock-step
// engine and the concurrent runtime and requires bit-identical consistent
// health vectors and activity vectors in every round.
func TestEquivalenceWithLockStepEngine(t *testing.T) {
	cfgs := []Config{
		{Ls: sim.Staircase(4), AllSendCurrRound: true,
			PR: core.PRConfig{PenaltyThreshold: 6, RewardThreshold: 50}},
		{Ls: []int{2, 0, 3, 1},
			PR: core.PRConfig{PenaltyThreshold: 6, RewardThreshold: 50}},
	}
	for ci, cfg := range cfgs {
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
	cl, err := New(Config{
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
	cl, err := New(Config{})
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
	cl, err := New(Config{Sink: &rec})
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

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{N: 1}); err == nil {
		t.Fatal("1-node cluster accepted")
	}
	if _, err := New(Config{N: 4, Ls: []int{0, 0}}); err == nil {
		t.Fatal("short Ls accepted")
	}
}

func TestLastOutOfRange(t *testing.T) {
	cl, err := New(Config{})
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
	cl, runners, err := NewMembershipCluster(Config{Ls: sim.Staircase(4), AllSendCurrRound: true})
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
	cl, runners, err := NewLowLatCluster(Config{})
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

func TestNewWithRunnersValidation(t *testing.T) {
	if _, err := NewWithRunners(Config{}, make([]sim.Runner, 2), []int{0, 0, 0, 0}); err == nil {
		t.Error("short runners accepted")
	}
	if _, err := NewWithRunners(Config{}, make([]sim.Runner, 5), []int{0}); err == nil {
		t.Error("short ls accepted")
	}
	if _, err := NewWithRunners(Config{}, make([]sim.Runner, 5), []int{0, 0, 0, 0}); err == nil {
		t.Error("nil runners accepted")
	}
}

// TestConcurrentHeterogeneousSlots runs the goroutine-per-node runtime on a
// custom per-slot schedule, matching the lock-step engine's support.
func TestConcurrentHeterogeneousSlots(t *testing.T) {
	cfg := Config{
		SlotLens: []time.Duration{
			250 * time.Microsecond,
			time.Millisecond,
			500 * time.Microsecond,
			750 * time.Microsecond,
		},
		Ls: sim.Staircase(4), AllSendCurrRound: true,
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Schedule().Uniform() {
		t.Fatal("custom schedule not applied")
	}
	cl.AddDisturbance(fault.NewTrain(fault.SlotBurst(cl.Schedule(), 6, 2, 1)))
	if err := cl.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		out := cl.Last(id)
		if out.ConsHV.Known == 0 || out.ConsHV != cl.Last(1).ConsHV {
			t.Fatalf("node %d disagreed on the heterogeneous schedule", id)
		}
	}
	if _, err := New(Config{SlotLens: []time.Duration{time.Millisecond}}); err == nil {
		t.Fatal("short SlotLens accepted")
	}
}

func TestNewWithRunnersBadPosition(t *testing.T) {
	runners := make([]sim.Runner, 5)
	for id := 1; id <= 4; id++ {
		r, err := sim.NewDiagRunner(sim.NodeConfig(mustNormal(t), id))
		if err != nil {
			t.Fatal(err)
		}
		runners[id] = r
	}
	if _, err := NewWithRunners(Config{}, runners, []int{0, 0, 0, 9}); err == nil {
		t.Fatal("out-of-range position accepted")
	}
}

func mustNormal(t *testing.T) Config {
	t.Helper()
	cfg, err := Normalize(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestMembershipClusterValidation(t *testing.T) {
	if _, _, err := NewMembershipCluster(Config{N: 1}); err == nil {
		t.Fatal("invalid membership cluster accepted")
	}
	if _, _, err := NewLowLatCluster(Config{N: 1}); err == nil {
		t.Fatal("invalid lowlat cluster accepted")
	}
}

// TestMembershipEquivalenceWithLockStep holds the membership variant to the
// same bit-identical cross-runtime guarantee as the diagnostic one.
func TestMembershipEquivalenceWithLockStep(t *testing.T) {
	cfg := Config{Ls: []int{2, 0, 3, 1}}
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
