package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// stressDisturbances derives a randomized fault schedule from the master
// seed: background noise on every transmission plus a few seeded asymmetric
// blind windows. Both runtimes get an independently constructed but
// identically seeded copy, so their buses behave identically.
func stressDisturbances(seed int64) []tdma.Disturbance {
	src := rng.NewSource(seed)
	ds := []tdma.Disturbance{fault.NewRandomNoise(0.12, src.Stream("noise"))}
	pick := src.Stream("schedule")
	for i := 0; i < 3; i++ {
		from := 5 + pick.Intn(25)
		ds = append(ds, fault.ReceiverBlind{
			Receiver:  tdma.NodeID(1 + pick.Intn(4)),
			Senders:   []tdma.NodeID{tdma.NodeID(1 + pick.Intn(4))},
			FromRound: from,
			ToRound:   from + 1 + pick.Intn(3),
		})
	}
	return ds
}

// TestSeededCrossEngineEquivalenceStress runs the same randomized fault
// schedule through the lock-step engine and the goroutine-per-node runtime
// and asserts byte-identical core.Snapshot output for every node — the full
// protocol state (alignment buffers, accusation state, penalty/reward
// counters), not just the health vectors the example-based equivalence test
// compares. Run under -race (scripts/check.sh does), this catches the data
// races the static analyzer cannot see.
func TestSeededCrossEngineEquivalenceStress(t *testing.T) {
	const rounds = 40
	cfg := sim.ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{
			PenaltyThreshold:       5,
			RewardThreshold:        12,
			ReintegrationThreshold: 10,
		},
	}
	for _, seed := range []int64{1, 7, 42, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := lockStepSnapshots(t, cfg, seed, rounds)
			got := concurrentSnapshots(t, cfg, seed, rounds)
			for id := 1; id <= 4; id++ {
				if !bytes.Equal(ref[id], got[id]) {
					t.Errorf("node %d: concurrent protocol state diverged from lock-step\nlock-step:  %s\nconcurrent: %s",
						id, ref[id], got[id])
				}
			}
		})
	}
}

func lockStepSnapshots(t *testing.T, cfg sim.ClusterConfig, seed int64, rounds int) [][]byte {
	t.Helper()
	eng, runners, err := sim.NewDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range stressDisturbances(seed) {
		eng.Bus().AddDisturbance(d)
	}
	if err := eng.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	snaps := make([][]byte, 5)
	for id := 1; id <= 4; id++ {
		snap, err := runners[id].Protocol().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps[id] = snap
	}
	return snaps
}

func concurrentSnapshots(t *testing.T, cfg sim.ClusterConfig, seed int64, rounds int) [][]byte {
	t.Helper()
	eng, typed, err := sim.NewDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := Host(eng)
	defer cl.Close()
	for _, d := range stressDisturbances(seed) {
		cl.AddDisturbance(d)
	}
	if err := cl.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	// The mailbox rendezvous of the last RunRound establishes the
	// happens-before edge that makes reading the runners safe here.
	snaps := make([][]byte, 5)
	for id := 1; id <= 4; id++ {
		snap, err := typed[id].Protocol().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps[id] = snap
	}
	return snaps
}
