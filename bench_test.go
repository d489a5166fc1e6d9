// Benchmarks: one per paper table/figure (regenerating the artifact inside
// the timing loop) plus microbenchmarks of the protocol's hot paths. Run
// with: go test -bench=. -benchmem
package ttdiag_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"ttdiag/internal/campaign"
	"ttdiag/internal/core"
	"ttdiag/internal/experiments"
	"ttdiag/internal/fault"
	"ttdiag/internal/recovery"
	"ttdiag/internal/replay"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/trace"
	"ttdiag/internal/tuning"

	"ttdiag"
)

// --- Per-artifact benchmarks ------------------------------------------------

func benchExperiment(b *testing.B, id string, runs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, experiments.Params{Seed: 1, Runs: runs, Out: io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DiagnosticMatrix(b *testing.B) { benchExperiment(b, "table1", 1) }

func BenchmarkTable2Tuning(b *testing.B) { benchExperiment(b, "table2", 1) }

func BenchmarkFig3RewardTradeoff(b *testing.B) { benchExperiment(b, "fig3", 1) }

// BenchmarkTable4AdverseScenarios measures the aerospace row (the automotive
// NSR class simulates 25 s of bus time per repetition and is exercised by
// the experiments binary instead).
func BenchmarkTable4AdverseScenarios(b *testing.B) {
	res, err := tuning.Derive(tuning.Aerospace())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := tuning.TimeToIncorrectIsolation(fault.LightningBolt(), res, 1, campaign.Options{Workers: 1}, int64(i), true)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].IsolatedRuns != 1 {
			b.Fatal("no isolation")
		}
	}
}

// BenchmarkSec8BurstCampaign runs the full 12-class, 100-repetition burst
// campaign at several worker counts, on the default lane-packed path: gangs
// of 16 repetitions share each protocol step and each bus delivery. The
// rendered output is bit-identical across the sub-benchmarks and to the
// per-run test oracle; only the wall clock changes (on
// multi-core hosts — with GOMAXPROCS=1 the pool degenerates to the serial
// path plus channel overhead). Tracked in BENCH_campaign.json, discussed in
// docs/PERFORMANCE.md.
func BenchmarkSec8BurstCampaign(b *testing.B) {
	for _, workers := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := experiments.Run("sec8-bursts", experiments.Params{
					Seed: 1, Runs: 100, Workers: workers, Out: io.Discard,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSec8MaliciousCampaign(b *testing.B) { benchExperiment(b, "sec8-malicious", 1) }

func BenchmarkSec8CliqueCampaign(b *testing.B) { benchExperiment(b, "sec8-clique", 1) }

func BenchmarkSec10LowLatency(b *testing.B) { benchExperiment(b, "sec10-lowlat", 1) }

func BenchmarkBaselineTTPC(b *testing.B) { benchExperiment(b, "cmp-ttpc", 1) }

func BenchmarkBaselineComparison(b *testing.B) {
	res, err := tuning.Derive(tuning.Aerospace())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuning.ComparePolicies(fault.LightningBolt(), res, 0.95, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the protocol hot paths ------------------------------

func BenchmarkHMaj(b *testing.B) {
	for _, n := range []int{4, 8, 16, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			st := rng.NewStream(1)
			votes := make([]core.Opinion, n-1)
			for i := range votes {
				votes[i] = core.Opinion(st.Intn(3))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.HMaj(votes)
			}
		})
	}
}

func BenchmarkSyndromeCodec(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s := core.NewSyndrome(n, core.Healthy)
			s[2] = core.Faulty
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc := s.Encode()
				if _, err := core.DecodeSyndrome(enc, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPenaltyRewardUpdate(b *testing.B) {
	pr, err := core.NewPenaltyReward(4, core.PRConfig{PenaltyThreshold: 1 << 40, RewardThreshold: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	hv := core.NewSyndrome(4, core.Healthy)
	hv[2] = core.Faulty
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pr.Update(hv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolStep measures one diagnostic-job execution (Alg. 1, all
// five phases) for growing cluster sizes, on the packed entry the simulation
// runners call (StepPacked); the byte-input Step adds the conversion.
func BenchmarkProtocolStep(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			p, err := core.NewProtocol(core.Config{
				N: n, ID: 1, L: 0, SendCurrRound: true, AllSendCurrRound: true,
				PR: core.PRConfig{PenaltyThreshold: 1 << 40, RewardThreshold: 1 << 40},
			})
			if err != nil {
				b.Fatal(err)
			}
			all := core.PlaneMask(n)
			healthy := core.BitSyndrome{Op: all, Known: all}
			rows := make([]core.BitSyndrome, n+1)
			for j := 1; j <= n; j++ {
				rows[j] = healthy
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := core.PackedRoundInput{Round: i, Rows: rows, Present: all, Validity: healthy}
				if _, err := p.StepPacked(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRound measures a full simulated TDMA round of the lock-step
// engine (N transmissions + N diagnostic jobs).
func BenchmarkEngineRound(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			eng, _, err := sim.NewDiagnosticCluster(sim.ClusterConfig{
				N: n, RoundLen: sim.DefaultRoundLen * time.Duration(n) / 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(eng.Schedule().N()), "slots/round")
		})
	}
}

// BenchmarkConcurrentClusterRound measures the goroutine-per-node runtime's
// round, including all channel synchronisation.
func BenchmarkConcurrentClusterRound(b *testing.B) {
	cl, err := ttdiag.NewConcurrentCluster(ttdiag.SimulationConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowLatRound measures the constrained system-level variant's round
// (per-slot analysis on every node).
func BenchmarkLowLatRound(b *testing.B) {
	eng, _, err := sim.NewLowLatCluster(sim.ClusterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMembershipRound measures the membership variant's round.
func BenchmarkMembershipRound(b *testing.B) {
	eng, _, err := sim.NewMembershipCluster(sim.ClusterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension-artifact benchmarks -------------------------------------------

func BenchmarkPortabilityAcrossPlatforms(b *testing.B) { benchExperiment(b, "port-platforms", 1) }

func BenchmarkScaleResilience(b *testing.B) { benchExperiment(b, "scale-resilience", 1) }

func BenchmarkVotingAblation(b *testing.B) { benchExperiment(b, "ablate-vote", 1) }

func BenchmarkThresholdSweep(b *testing.B) { benchExperiment(b, "sweep-threshold", 1) }

func BenchmarkHealthyIsolation(b *testing.B) { benchExperiment(b, "healthy-isolation", 1) }

func BenchmarkTable3Scenarios(b *testing.B) { benchExperiment(b, "table3", 1) }

func BenchmarkFig1PhaseInterleaving(b *testing.B) { benchExperiment(b, "fig1", 1) }

func BenchmarkFig2ReadAlignment(b *testing.B) { benchExperiment(b, "fig2", 1) }

func BenchmarkFDIRLoop(b *testing.B) { benchExperiment(b, "fdir-loop", 1) }

func BenchmarkReintegrationExtension(b *testing.B) { benchExperiment(b, "ext-reintegration", 1) }

// BenchmarkFlightRecorder measures recording a 30-round scenario's JSONL
// trace plus decoding and replaying it.
func BenchmarkFlightRecorder(b *testing.B) {
	cfg := sim.ClusterConfig{Ls: []int{2, 0, 3, 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		jw := trace.NewJSONLWriter(&buf)
		live := cfg
		live.Sink = jw
		eng, _, err := sim.NewDiagnosticCluster(live)
		if err != nil {
			b.Fatal(err)
		}
		eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), 6, 3, 1)))
		if err := eng.RunRounds(30); err != nil {
			b.Fatal(err)
		}
		if err := jw.Err(); err != nil {
			b.Fatal(err)
		}
		events, err := trace.ReadJSONL(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := replay.Replay(events, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryModeDerivation measures the reconfiguration-table lookup.
func BenchmarkRecoveryModeDerivation(b *testing.B) {
	plan, err := recovery.NewPlan(8, []recovery.Job{
		{Name: "a", Criticality: 40, Hosts: []int{1, 3, 5}},
		{Name: "b", Criticality: 6, Hosts: []int{2, 4}},
		{Name: "c", Criticality: 1, Hosts: []int{6}, Degradable: true},
		{Name: "d", Criticality: 1, Hosts: []int{7, 8}, Degradable: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	active := make([]bool, 9)
	for i := range active {
		active[i] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		active[1+i%8] = !active[1+i%8]
		if _, err := plan.ModeFor(active); err != nil {
			b.Fatal(err)
		}
	}
}
