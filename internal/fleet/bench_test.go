package fleet

import (
	"fmt"
	"testing"

	"ttdiag/internal/rng"
)

// BenchmarkFleetCampaign measures hierarchical fleet diagnosis of a
// 1024-node system, 12 rounds per iteration (12288 node-rounds):
//
//   - sharded_n1024_s16: 16 shards of 64 plus the 16-gateway fleet level;
//     every shard is a single-lane gang of the lane-packed kernel;
//   - sharded_n1024_s64: 64 shards of 16, which pack four to a gang, plus a
//     64-gateway fleet level.
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
}
