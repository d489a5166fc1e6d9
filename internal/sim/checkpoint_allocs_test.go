// Allocation-ceiling regression test for the cluster checkpoint hot path.
// The race detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
)

// TestClusterCheckpointAllocs pins Capture and Restore at ≤ 1 allocation per
// call in steady state (the single admissible allocation is the ground-truth
// block growing past its previous high-water mark; everything else is flat
// copies into pre-sized buffers).
func TestClusterCheckpointAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	cl, err := NewReusableDiagnosticCluster(ClusterConfig{
		N:  4,
		PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	ck, err := NewClusterCheckpoint(cl)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: run past the truth block's early doublings, capture once to
	// grow the checkpoint's buffers, restore once to warm the reverse path.
	if err := cl.Eng.RunRounds(64); err != nil {
		t.Fatal(err)
	}
	if err := ck.Capture(cl); err != nil {
		t.Fatal(err)
	}
	if err := ck.Restore(cl); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := ck.Capture(cl); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("Capture allocates %.2f objects/op in steady state, ceiling 1", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := ck.Restore(cl); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("Restore allocates %.2f objects/op in steady state, ceiling 1", avg)
	}
}
