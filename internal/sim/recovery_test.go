package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/recovery"
)

// TestFDIRLoopConsistentModeSwitches closes the FDIR loop on the full stack:
// a recovery manager on every node consumes the activity vectors the
// diagnostic protocol produces. A crash must switch every manager to the
// identical degraded mode in the identical round, and the reintegration
// extension must switch them all back.
func TestFDIRLoopConsistentModeSwitches(t *testing.T) {
	plan, err := recovery.NewPlan(4, []recovery.Job{
		{Name: "steer", Criticality: 40, Hosts: []int{3, 1}},
		{Name: "brake", Criticality: 40, Hosts: []int{2, 4}},
		{Name: "doors", Criticality: 1, Hosts: []int{4}, Degradable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, runners, err := NewDiagnosticCluster(ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 10, ReintegrationThreshold: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	managers := make([]*recovery.Manager, 5)
	switchRounds := make([][]int, 5)
	for id := 1; id <= 4; id++ {
		id := id
		managers[id] = recovery.NewManager(plan)
		active := make([]bool, 5)
		runners[id].OnOutput = func(out core.RoundOutput) {
			for j := 1; j <= 4; j++ {
				active[j] = out.Active&(1<<uint(j-1)) != 0
			}
			changed, err := managers[id].Observe(active)
			if err != nil {
				t.Error(err)
				return
			}
			if changed {
				switchRounds[id] = append(switchRounds[id], out.Round)
			}
		}
	}
	// Node 3 (steer primary) suffers a 6-round transient, is isolated, then
	// recovers and is reintegrated.
	var bursts []fault.Burst
	for r := 8; r < 14; r++ {
		bursts = append(bursts, fault.SlotBurst(eng.Schedule(), r, 3, 1))
	}
	eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
	if err := eng.RunRounds(40); err != nil {
		t.Fatal(err)
	}
	// Every manager: initial mode, degraded mode, nominal mode = 3 changes.
	for id := 1; id <= 4; id++ {
		if got := len(switchRounds[id]); got != 3 {
			t.Fatalf("node %d saw %d mode changes (%v), want 3", id, got, switchRounds[id])
		}
		for i, r := range switchRounds[id] {
			if r != switchRounds[1][i] {
				t.Fatalf("mode-switch rounds disagree: node %d %v vs node 1 %v",
					id, switchRounds[id], switchRounds[1])
			}
		}
		if managers[id].Switches() != 2 {
			t.Fatalf("node %d counted %d switches, want 2", id, managers[id].Switches())
		}
		if got := managers[id].HostOf("steer"); got != 3 {
			t.Fatalf("node %d: steer back on node %d, want 3 after reintegration", id, got)
		}
	}
	// During the degraded window the steer job ran on the backup.
	mode, err := plan.ModeFor([]bool{false, true, true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if mode.Jobs["steer"] != 1 {
		t.Fatalf("degraded steer host = %d, want 1", mode.Jobs["steer"])
	}
}
