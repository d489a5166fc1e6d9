package ttdiag_test

import (
	"testing"

	"ttdiag"
)

// TestFacadeQuickstart exercises the doc-comment quick-start path end to end
// through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	eng, runners, err := ttdiag.NewSimulation(ttdiag.SimulationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Bus().AddDisturbance(ttdiag.SlotBurstTrain(eng.Schedule(), 6, 3, 1))
	if err := eng.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	found := false
	for id := 1; id <= 4; id++ {
		last := runners[id].Last()
		if last.ConsHV.Known == 0 {
			t.Fatalf("node %d has no health vector", id)
		}
	}
	// Rewind through a collector-less check: re-run with a collector.
	eng2, runners2, err := ttdiag.NewSimulation(ttdiag.SimulationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	col := ttdiag.NewCollector()
	for id := 1; id <= 4; id++ {
		col.HookDiag(id, runners2[id])
	}
	eng2.Bus().AddDisturbance(ttdiag.SlotBurstTrain(eng2.Schedule(), 6, 3, 1))
	if err := eng2.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	if err := ttdiag.AuditTheorem1(eng2, col, []int{1, 2, 3, 4}, 3, 9); err != nil {
		t.Fatal(err)
	}
	if hv := col.HV(6, 1); hv.String(4) == "1101" {
		found = true
	}
	if !found {
		t.Fatalf("faulty round 6 diagnosed as %s, want 1101", col.HV(6, 1).String(4))
	}
}

func TestFacadeProtocolConstruction(t *testing.T) {
	p, err := ttdiag.NewProtocol(ttdiag.Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: ttdiag.PRConfig{PenaltyThreshold: 10, RewardThreshold: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Config().N != 4 {
		t.Fatal("config lost")
	}
	if _, err := ttdiag.NewMembership(ttdiag.Config{
		N: 4, ID: 2, L: 1, SendCurrRound: true,
		PR: ttdiag.PRConfig{PenaltyThreshold: 10, RewardThreshold: 10},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ttdiag.NewLowLatNode(ttdiag.LowLatConfig{
		N: 4, ID: 3,
		PR: ttdiag.PRConfig{PenaltyThreshold: 10, RewardThreshold: 10},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeVoting(t *testing.T) {
	v, ok := ttdiag.HMaj([]ttdiag.Opinion{ttdiag.Faulty, ttdiag.Faulty, ttdiag.Healthy})
	if !ok || v != ttdiag.Faulty {
		t.Fatalf("HMaj = %v,%v", v, ok)
	}
	s := ttdiag.NewSyndrome(4, ttdiag.Healthy)
	dec, err := ttdiag.DecodeSyndrome(s.Encode(), 4)
	if err != nil || !dec.Equal(s) {
		t.Fatalf("round trip failed: %v %v", dec, err)
	}
}

func TestFacadeTuning(t *testing.T) {
	res, err := ttdiag.DeriveTuning(ttdiag.Automotive())
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 197 {
		t.Fatalf("P = %d", res.P)
	}
	if _, err := ttdiag.DeriveTuning(ttdiag.Aerospace()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeConcurrentCluster(t *testing.T) {
	cl, err := ttdiag.NewConcurrentCluster(ttdiag.SimulationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.RunRounds(5); err != nil {
		t.Fatal(err)
	}
	if cl.Last(1).ConsHV.Known == 0 {
		t.Fatal("no health vector from concurrent cluster")
	}
}

func TestFacadeScenarios(t *testing.T) {
	if got := ttdiag.BlinkingLight().TotalBursts(); got != 50 {
		t.Fatalf("blinking light bursts = %d", got)
	}
	if got := ttdiag.LightningBolt().TotalBursts(); got != 11 {
		t.Fatalf("lightning bursts = %d", got)
	}
	if got := ttdiag.Staircase(4); len(got) != 4 || got[3] != 3 {
		t.Fatalf("staircase = %v", got)
	}
}

func TestFacadePlatforms(t *testing.T) {
	ps := ttdiag.Platforms()
	if len(ps) != 4 {
		t.Fatalf("platforms = %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		eng, _, err := ttdiag.NewSimulation(p.ClusterConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunRounds(4); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeDynamicAndNoise(t *testing.T) {
	sides := []bool{true, true, true, true}
	eng, runners, err := ttdiag.NewDynamicSimulation(ttdiag.SimulationConfig{}, sides,
		func(id, round int) int { return (round + id) % id })
	if err != nil {
		t.Fatal(err)
	}
	eng.Bus().AddDisturbance(ttdiag.NewRandomNoise(0.1, 3))
	if err := eng.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	for id := 2; id <= 4; id++ {
		if runners[id].Last().ConsHV != runners[1].Last().ConsHV {
			t.Fatal("dynamic+noise cluster disagreed")
		}
	}
}

func TestFacadeCrash(t *testing.T) {
	eng, runners, err := ttdiag.NewSimulation(ttdiag.SimulationConfig{
		PR: ttdiag.PRConfig{PenaltyThreshold: 3, RewardThreshold: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Bus().AddDisturbance(ttdiag.Crash(2, 5))
	if err := eng.RunRounds(20); err != nil {
		t.Fatal(err)
	}
	if runners[1].Last().Active&(1<<1) != 0 {
		t.Fatal("crashed node still active")
	}
}

func TestFacadeConcurrentVariants(t *testing.T) {
	cm, mrs, err := ttdiag.NewConcurrentMembership(ttdiag.SimulationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	if err := cm.RunRounds(6); err != nil {
		t.Fatal(err)
	}
	if got := mrs[1].View().ID; got != 0 {
		t.Fatalf("clean membership run changed views: %d", got)
	}

	cl, lrs, err := ttdiag.NewConcurrentLowLat(ttdiag.SimulationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.RunRounds(6); err != nil {
		t.Fatal(err)
	}
	if lrs[1].Node().Config().N != 4 {
		t.Fatal("lowlat runner misconfigured")
	}
}

func TestFacadeLowLatSimulation(t *testing.T) {
	eng, runners, err := ttdiag.NewLowLatSimulation(ttdiag.SimulationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	runners[1].OnVerdict = func(v ttdiag.Verdict) { got++ }
	if err := eng.RunRounds(6); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("no verdicts from low-latency simulation")
	}
}

func TestFacadeMembershipSimulation(t *testing.T) {
	eng, runners, err := ttdiag.NewMembershipSimulation(ttdiag.SimulationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var last ttdiag.MembershipOutput
	runners[2].OnOutput = func(out ttdiag.MembershipOutput) { last = out }
	if err := eng.RunRounds(8); err != nil {
		t.Fatal(err)
	}
	if last.View.ID != 0 || len(last.View.Members) != 4 {
		t.Fatalf("membership output %+v", last.View)
	}
}

func TestFacadePenaltyRewardAndTrains(t *testing.T) {
	pr, err := ttdiag.NewPenaltyReward(4, ttdiag.PRConfig{PenaltyThreshold: 1, RewardThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	hv := ttdiag.NewSyndrome(4, ttdiag.Healthy)
	hv[2] = ttdiag.Faulty
	if _, _, err := pr.Update(hv); err != nil {
		t.Fatal(err)
	}
	tr := ttdiag.NewTrain(ttdiag.Burst{Start: 0, Length: 10})
	if len(tr.Bursts()) != 1 {
		t.Fatal("train lost its burst")
	}
}

func TestFacadeCheckpoint(t *testing.T) {
	p, err := ttdiag.NewProtocol(ttdiag.Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: ttdiag.PRConfig{PenaltyThreshold: 5, RewardThreshold: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ttdiag.RestoreProtocol(data); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRecovery(t *testing.T) {
	plan, err := ttdiag.NewRecoveryPlan(4, []ttdiag.RecoveryJob{
		{Name: "steer", Criticality: 40, Hosts: []int{1, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := ttdiag.NewRecoveryManager(plan)
	if _, err := m.Observe([]bool{false, true, true, true, true}); err != nil {
		t.Fatal(err)
	}
	if m.HostOf("steer") != 1 {
		t.Fatalf("steer host = %d", m.HostOf("steer"))
	}
}

func TestFacadeFlightRecorder(t *testing.T) {
	var rec ttdiag.Recorder
	cfg := ttdiag.SimulationConfig{PR: ttdiag.PRConfig{PenaltyThreshold: 3, RewardThreshold: 10}, Sink: &rec}
	eng, _, err := ttdiag.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Bus().AddDisturbance(ttdiag.Crash(2, 5))
	if err := eng.RunRounds(20); err != nil {
		t.Fatal(err)
	}
	cfg.Sink = nil
	diags, err := ttdiag.ReplayTrace(rec.Events(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	isolated := false
	for _, d := range diags {
		if d.Isolated&(1<<1) != 0 {
			isolated = true
		}
	}
	if !isolated {
		t.Fatal("replay did not reconstruct the isolation")
	}
}
