package fleet

import (
	"fmt"
	"testing"

	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

// BenchmarkFleetCampaign compares hierarchical fleet diagnosis against the
// scalar monolithic fallback at equal node-rounds per iteration:
//
//   - sharded_n1024_s16: 1024 nodes in 16 shards of 64, 12 rounds each plus
//     the 16-gateway fleet level — 12288 node-rounds; every shard is a
//     single-lane gang of the lane-packed kernel;
//   - sharded_n1024_s64: the same 1024 nodes in 64 shards of 16, which pack
//     four to a gang, plus a 64-gateway fleet level;
//   - scalar_monolithic_n256_eq: one flat 256-node cluster (past the packed
//     bound, so every step runs the scalar reference) for 48 rounds — the
//     same 12288 node-rounds.
//
// The monolithic baseline is measured at N = 256 because the flat design's
// per-step cost grows with N²: the comparison is conservative — a flat
// N = 1024 iteration would be far slower still (and its alignment state
// alone needs gigabytes).
func BenchmarkFleetCampaign(b *testing.B) {
	for _, shards := range []int{16, 64} {
		b.Run(fmt.Sprintf("sharded_n1024_s%d", shards), func(b *testing.B) {
			c, err := New(Config{Nodes: 1024, Shards: shards, Rounds: 12})
			if err != nil {
				b.Fatal(err)
			}
			src := rng.NewSource(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(src, Hooks{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("scalar_monolithic_n256_eq", func(b *testing.B) {
		cl, err := sim.NewReusableDiagnosticCluster(sim.ClusterConfig{
			N:        256,
			RoundLen: sim.DefaultRoundLen * 256 / 4, // constant slot length, like the fleet's shards
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cl.Reset()
			if err := cl.Eng.RunRounds(48); err != nil {
				b.Fatal(err)
			}
		}
	})
}
