package sim_test

import (
	"testing"

	"ttdiag/internal/cluster"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

// TestStressConcurrentMatchesLockStepUnderNoise extends the equivalence
// guarantee to a noisy 400-round run: the same engine hosted on node
// goroutines (package cluster) reproduces the lock-step outputs round for
// round.
func TestStressConcurrentMatchesLockStepUnderNoise(t *testing.T) {
	cfg := sim.ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 30, RewardThreshold: 15},
	}
	eng, runners, err := sim.NewDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Bus().AddDisturbance(fault.NewRandomNoise(0.1, rng.NewStream(5)))
	const rounds = 400
	ref := make([][5]core.RoundOutput, rounds)
	for k := 0; k < rounds; k++ {
		if err := eng.RunRound(); err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= 4; id++ {
			ref[k][id] = runners[id].Last()
		}
	}
	eng2, runners2, err := sim.NewDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Bus().AddDisturbance(fault.NewRandomNoise(0.1, rng.NewStream(5)))
	cl := cluster.Host(eng2)
	defer cl.Close()
	for k := 0; k < rounds; k++ {
		if err := cl.RunRound(); err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= 4; id++ {
			if runners2[id].Last() != ref[k][id] {
				t.Fatalf("round %d node %d: concurrent run diverged from lock-step", k, id)
			}
		}
	}
}
