package experiments

import (
	"testing"

	"ttdiag/internal/rng"
	"ttdiag/internal/trace"
)

// BenchmarkWideResilienceRun times the widest asymmetric scale-resilience
// case (N = 64, a = 1, s = 30: thirty malicious sources and one SOS sender)
// on the per-run engine, which traced campaigns take, and on one-lane gangs
// of the lane-packed cluster, the default. One op is one repetition: the
// campaign runs b.N repetitions, so its setup is amortised. Tracked in
// BENCH_campaign.json.
func BenchmarkWideResilienceRun(b *testing.B) {
	for _, bc := range []struct {
		name string
		sink trace.Sink
	}{
		{"perrun_n64_a1_s30", trace.Discard{}},
		{"batched_n64_a1_s30", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			p := Params{Runs: b.N, Workers: 1, Trace: bc.sink}
			violations, err := resilienceRunsWide(64, 1, 30, 0, p, rng.NewSource(1))
			if err != nil {
				b.Fatal(err)
			}
			if violations != 0 {
				b.Fatalf("%d Theorem 1 violations inside the bound", violations)
			}
		})
	}
}
