package experiments

import (
	"testing"

	"ttdiag/internal/rng"
)

// BenchmarkWideResilienceRun times the widest asymmetric scale-resilience
// case (N = 64, a = 1, s = 30: thirty malicious sources and one SOS sender)
// on one-lane gangs of the lane-packed cluster. One op is one repetition:
// the campaign runs b.N repetitions, so its setup is amortised. Tracked in
// BENCH_campaign.json.
func BenchmarkWideResilienceRun(b *testing.B) {
	b.Run("batched_n64_a1_s30", func(b *testing.B) {
		b.ReportAllocs()
		p := Params{Runs: b.N, Workers: 1}
		violations, err := resilienceRuns(64, 1, 30, 0, p, rng.NewSource(1))
		if err != nil {
			b.Fatal(err)
		}
		if violations != 0 {
			b.Fatalf("%d Theorem 1 violations inside the bound", violations)
		}
	})
}
