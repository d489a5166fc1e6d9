// Allocation-ceiling regression test for the lock-step simulation hot path.
// The race detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/invariant"
	"ttdiag/internal/tdma"
)

// TestEngineRoundAllocs pins the steady-state allocation budget of one TDMA
// round on the 4-node prototype: none. Node Steps return plain values, the
// runners encode the payload into their own buffer, and the bus, the
// controllers and the round-input construction reuse theirs; the ground-truth
// growth amortizes below one allocation per hundred rounds.
func TestEngineRoundAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	cl, err := NewReusableDiagnosticCluster(ClusterConfig{Ls: []int{2, 0, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: fill every reusable buffer and get past the truth block's
	// early doublings.
	if err := cl.Eng.RunRounds(64); err != nil {
		t.Fatal(err)
	}
	const ceiling = 0
	avg := testing.AllocsPerRun(100, func() {
		if err := cl.Eng.RunRound(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Fatalf("RunRound allocates %.1f objects/round in steady state, ceiling %d", avg, ceiling)
	}
}

// TestBatchClusterRunAllocs pins the steady-state allocation budget of the
// lane-packed cluster: once a few gangs have sized the collectors and the
// truth rows, a whole warm gang — ResetBatch, disturbance attachment and
// Run — allocates nothing, with receiver-uniform lanes only and with SOS
// lanes that take the blind-mask path.
func TestBatchClusterRunAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	for _, withSOS := range []bool{false, true} {
		name := "uniform"
		if withSOS {
			name = "sos"
		}
		t.Run(name, func(t *testing.T) {
			bc, err := NewBatchDiagCluster(ClusterConfig{
				Ls: []int{2, 0, 3, 1},
				PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			const horizon = 30
			lanes := core.BatchLanes(bc.Config().N)
			// The disturbances are built once: boxing a struct into the
			// interface allocates, and that cost belongs to the caller.
			dist := make([][]tdma.Disturbance, lanes)
			for lane := range dist {
				target := 1 + lane%4
				dist[lane] = append(dist[lane], fault.NewTrain(fault.SlotBurst(bc.Schedule(), 5+lane%6, target, 1)))
				if withSOS && lane%2 == 0 {
					for r := 8; r < 20; r += 2 {
						dist[lane] = append(dist[lane], fault.SOS{
							Sender:    tdma.NodeID(target%4 + 1),
							Victims:   []tdma.NodeID{tdma.NodeID(target), tdma.NodeID(target%4 + 1)},
							FromRound: r, ToRound: r + 1,
						})
					}
				}
			}
			gang := func() {
				if err := bc.ResetBatch(lanes); err != nil {
					t.Fatal(err)
				}
				for lane, ds := range dist {
					for _, d := range ds {
						bc.AddLaneDisturbance(lane, d)
					}
					bc.SetLaneHorizon(lane, horizon)
				}
				if err := bc.Run(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				gang()
			}
			if avg := testing.AllocsPerRun(20, gang); avg != 0 {
				t.Fatalf("a warm %d-lane gang of %d rounds allocates %.2f objects, want 0", lanes, horizon, avg)
			}
		})
	}
}
