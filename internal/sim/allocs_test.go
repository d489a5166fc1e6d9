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
	"ttdiag/internal/metrics"
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

// TestLoudGangRoundAllocs pins one loud round of a warm N = 64 gang at no
// allocation: every job borrows the round's snapshot, the first re-bases
// the shared vote tally and the others install their candidate rows and
// correct it, with a malicious sender redrawing its payload every round.
func TestLoudGangRoundAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	bc := loudWideGang(t)
	if avg := testing.AllocsPerRun(50, func() {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("a loud N=64 gang round allocates %.2f objects, want 0", avg)
	}
}

// TestStaggeredHorizonMetricsAllocs pins whole gangs with telemetry on
// every lane and staggered lane horizons at no allocation. The instruments
// are attached once, before the first gang: a lane whose horizon passes
// keeps them (the round's live lanes gate what it emits), so no gang
// detaches, re-attaches or regroups anything, and every gang still counts
// exactly each lane's own horizon of steps on every node.
func TestStaggeredHorizonMetricsAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	bc, err := NewBatchDiagCluster(ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, lanes := bc.Config().N, core.BatchLanes(bc.Config().N)
	sm := core.NewStepMetrics(metrics.New())
	for id := 1; id <= n; id++ {
		for lane := 0; lane < lanes; lane++ {
			bc.Proto(id).SetLaneMetrics(lane, sm)
		}
	}
	dist := make([]tdma.Disturbance, lanes)
	steps := int64(0) // per gang: every node steps once per round of each lane's horizon
	for lane := range dist {
		dist[lane] = fault.NewTrain(fault.SlotBurst(bc.Schedule(), 5+lane%6, 1+lane%4, 1))
		steps += int64(n * (12 + 2*lane))
	}
	gang := func() {
		if err := bc.ResetBatch(lanes); err != nil {
			t.Fatal(err)
		}
		for lane, d := range dist {
			bc.AddLaneDisturbance(lane, d)
			bc.SetLaneHorizon(lane, 12+2*lane)
		}
		if err := bc.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		gang()
	}
	before := sm.Steps.Value()
	const runs = 20
	if avg := testing.AllocsPerRun(runs, gang); avg != 0 {
		t.Fatalf("a warm %d-lane gang with staggered horizons and telemetry allocates %.2f objects, want 0", lanes, avg)
	}
	// AllocsPerRun runs the gang once more to warm up.
	if got, want := sm.Steps.Value()-before, (runs+1)*steps; got != want {
		t.Fatalf("%d gangs counted %d steps, want %d: a lane emitted past its horizon or stopped emitting", runs+1, got, want)
	}
}
