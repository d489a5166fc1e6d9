package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/tdma"
)

func TestTTPCSingleBenignFault(t *testing.T) {
	eng, nodes, err := NewTTPCCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), 6, 3, 1)))
	if err := eng.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	// Under the single-fault assumption TTP/C handles this perfectly: the
	// sender fails silent, the survivors share a consistent view {1,2,4}.
	if nodes[3].Alive() {
		t.Fatal("faulty sender did not fail silent")
	}
	for _, id := range []int{1, 2, 4} {
		if !nodes[id].Alive() {
			t.Fatalf("healthy node %d died", id)
		}
		m := nodes[id].Members()
		if m[3] {
			t.Fatalf("node %d still considers 3 a member", id)
		}
		for _, ok := range []int{1, 2, 4} {
			if !m[ok] {
				t.Fatalf("node %d dropped healthy member %d", id, ok)
			}
		}
	}
}

// TestTTPCDoubleAsymmetricBreaks demonstrates the single-fault-assumption
// limit (Sec. 2): two coincident asymmetric receive faults make two healthy
// nodes kill themselves via clique avoidance, while the add-on diagnostic
// protocol under the identical fault pattern keeps every node running with a
// consistent health vector.
func TestTTPCDoubleAsymmetricBreaks(t *testing.T) {
	doubleAsym := func(round int) []tdma.Disturbance {
		return []tdma.Disturbance{
			fault.ReceiverBlind{Receiver: 4, Senders: []tdma.NodeID{1}, FromRound: round, ToRound: round + 1},
			fault.ReceiverBlind{Receiver: 3, Senders: []tdma.NodeID{2}, FromRound: round, ToRound: round + 1},
		}
	}

	// Baseline: TTP/C-style membership.
	engT, nodes, err := NewTTPCCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range doubleAsym(6) {
		engT.Bus().AddDisturbance(d)
	}
	if err := engT.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	dead := 0
	for id := 1; id <= 4; id++ {
		if !nodes[id].Alive() {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("expected the TTP/C baseline to kill nodes under coincident asymmetric faults")
	}

	// Our protocol under the identical fault pattern: nobody is isolated
	// and diagnosis stays consistent.
	engD, _, col := mustDiagCluster(t, ClusterConfig{Ls: Staircase(4), AllSendCurrRound: true,
		PR: core.PRConfig{PenaltyThreshold: 10, RewardThreshold: 100}})
	for _, d := range doubleAsym(6) {
		engD.Bus().AddDisturbance(d)
	}
	if err := engD.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	if err := AuditTheorem1(engD, col, obedientAll(4), 2, 9); err != nil {
		t.Fatal(err)
	}
	if len(col.Isolations) != 0 {
		t.Fatalf("diagnostic protocol isolated nodes: %+v", col.Isolations)
	}
}

// TestTTPCBlackoutKillsEveryone: a two-round communication blackout makes
// every TTP/C node fail clique avoidance and the whole system dies; the
// add-on protocol diagnoses the blackout consistently and the p/r algorithm
// rides it out.
func TestTTPCBlackoutKillsEveryone(t *testing.T) {
	engT, nodes, err := NewTTPCCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	engT.Bus().AddDisturbance(fault.NewTrain(fault.Blackout(engT.Schedule(), 6, 2)))
	if err := engT.RunRounds(14); err != nil {
		t.Fatal(err)
	}
	alive := 0
	for id := 1; id <= 4; id++ {
		if nodes[id].Alive() {
			alive++
		}
	}
	if alive != 0 {
		t.Fatalf("%d TTP/C nodes survived a blackout; the single-fault baseline should collapse", alive)
	}

	engD, runners, col := mustDiagCluster(t, ClusterConfig{Ls: Staircase(4), AllSendCurrRound: true,
		PR: core.PRConfig{PenaltyThreshold: 10, RewardThreshold: 100}})
	engD.Bus().AddDisturbance(fault.NewTrain(fault.Blackout(engD.Schedule(), 6, 2)))
	if err := engD.RunRounds(14); err != nil {
		t.Fatal(err)
	}
	if len(col.Isolations) != 0 {
		t.Fatalf("p/r isolated nodes during a short blackout: %+v", col.Isolations)
	}
	for id := 1; id <= 4; id++ {
		if a := runners[id].Last().Active; a != core.PlaneMask(4) {
			t.Fatalf("node %d considers some node inactive after the blackout: %04b", id, a)
		}
	}
}

func TestTTPCClusterValidation(t *testing.T) {
	if _, _, err := NewTTPCCluster(ClusterConfig{N: 1}); err == nil {
		t.Fatal("1-node TTP/C cluster accepted")
	}
}
