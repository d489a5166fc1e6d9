package sim

import (
	"fmt"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// BenchmarkBatchClusterRun times one gang of the lane-packed cluster: a
// full-width gang of 40-round repetitions, at N = 64 (one lane, the
// fleet-shard shape) and N = 4 (sixteen lanes, the Sec. 8 shape). "quiet"
// runs fault-free, so every warm job may take the quiet-round shortcuts;
// "burst" hits each lane with one two-slot burst at round 10, so the jobs
// that diagnose it run the full install and vote. Divide ns/op by the lane
// count for the per-repetition cost. "n64_g1_loud_round" is one round of
// a warm N = 64 gang whose node 2 sends malicious syndromes every round, as
// in scale-resilience: every job installs and votes, the first re-bases
// the shared tally and the others install only their candidate rows.
// Tracked in BENCH_campaign.json.
func BenchmarkBatchClusterRun(b *testing.B) {
	for _, n := range []int{64, 4} {
		for _, burst := range []bool{false, true} {
			mode := "quiet"
			if burst {
				mode = "burst"
			}
			// The prototype's slot length at every N, as the wide
			// experiments scale it.
			bc, err := NewBatchDiagCluster(ClusterConfig{N: n, RoundLen: DefaultRoundLen * time.Duration(n) / 4})
			if err != nil {
				b.Fatal(err)
			}
			lanes := core.BatchLanes(bc.Config().N)
			b.Run(fmt.Sprintf("n%d_g%d_%s", n, lanes, mode), func(b *testing.B) {
				const horizon = 40
				// Boxing a burst into the interface allocates, so the
				// disturbances are built once, outside the timed gangs.
				dist := make([]tdma.Disturbance, lanes)
				for lane := range dist {
					dist[lane] = fault.NewTrain(fault.SlotBurst(bc.Schedule(), 10, 1+lane%n, 2))
				}
				gang := func() {
					if err := bc.ResetBatch(lanes); err != nil {
						b.Fatal(err)
					}
					for lane := 0; lane < lanes; lane++ {
						if burst {
							bc.AddLaneDisturbance(lane, dist[lane])
						}
						bc.SetLaneHorizon(lane, horizon)
					}
					if err := bc.Run(); err != nil {
						b.Fatal(err)
					}
				}
				gang()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					gang()
				}
			})
		}
	}
	b.Run("n64_g1_loud_round", func(b *testing.B) {
		bc := loudWideGang(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bc.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// loudWideGang returns a warm one-lane N = 64 gang at horizon 0 whose
// node 2 sends a malicious syndrome in every round, so every job of a
// round installs a loud matrix.
func loudWideGang(tb testing.TB) *BatchDiagCluster {
	tb.Helper()
	bc, err := NewOneLaneCluster(ClusterConfig{
		N: 64, RoundLen: DefaultRoundLen * 16,
		PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5},
	}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	bc.AddLaneDisturbance(0, fault.NewMaliciousSyndrome(2, rng.NewStream(64)))
	for k := 0; k < 8; k++ {
		if err := bc.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return bc
}

// BenchmarkLaneCheckpoint times the lane checkpoint of a warmed N = 4
// gang: "capture" records lane 5 into a reused lane record, "restore"
// writes it into lane 11, the two halves of a splitting level crossing and
// trial start, and "restore8" refills the eight even lanes with one
// RestoreLanes call from eight records, as a splitting round boundary
// does. Tracked in BENCH_splitting.json.
func BenchmarkLaneCheckpoint(b *testing.B) {
	bc, err := NewBatchDiagCluster(ClusterConfig{N: 4, PR: core.PRConfig{PenaltyThreshold: 7, RewardThreshold: 2}})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 16; k++ {
		if err := bc.Step(); err != nil {
			b.Fatal(err)
		}
	}
	ck := make([]uint64, bc.LaneRecordLen())
	if err := bc.CaptureLaneRecord(5, ck); err != nil {
		b.Fatal(err)
	}
	b.Run("n4_capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := bc.CaptureLaneRecord(5, ck); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("n4_restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := bc.RestoreLanes(1<<11, [][]uint64{ck}); err != nil {
				b.Fatal(err)
			}
		}
	})
	recs := make([][]uint64, 8)
	for i := range recs {
		recs[i] = make([]uint64, bc.LaneRecordLen())
		if err := bc.CaptureLaneRecord(2*i+1, recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("n4_restore8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := bc.RestoreLanes(0x5555, recs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
