package splitting

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

// BenchmarkSplittingCampaign measures one full fixed-effort estimation at a
// small but non-trivial shape (3 levels, 64 trials each): gang set-up, a
// lane restore at every trial start and a lane capture at every level
// crossing. Tracked in BENCH_splitting.json.
func BenchmarkSplittingCampaign(b *testing.B) {
	cfg := Config{
		Cluster: sim.ClusterConfig{
			N:  4,
			PR: core.PRConfig{PenaltyThreshold: 7, RewardThreshold: 2},
		},
		Levels:    []int64{1, 2, 3},
		Effort:    64,
		FaultProb: 0.15,
		Workers:   1,
	}
	src := rng.NewSource(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, src); err != nil {
			b.Fatal(err)
		}
	}
}
