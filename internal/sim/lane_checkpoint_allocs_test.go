// Allocation-ceiling regression test for the lane checkpoint. The race
// detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
)

// TestLaneCheckpointAllocs pins CaptureLaneRecord into a reused record and
// a one-lane RestoreLanes at zero allocations: both are flat copies of
// lane segments into pre-sized buffers, which is what lets the splitting
// estimator refill a gang lane every few rounds.
func TestLaneCheckpointAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	bc, err := NewBatchDiagCluster(ClusterConfig{N: 4, PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ck := make([]uint64, bc.LaneRecordLen())
	if avg := testing.AllocsPerRun(100, func() {
		if err := bc.CaptureLaneRecord(3, ck); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CaptureLaneRecord allocates %.2f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := bc.RestoreLanes(1<<7, [][]uint64{ck}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("RestoreLanes allocates %.2f objects/op, want 0", avg)
	}
}
