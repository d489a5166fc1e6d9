package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ttdiag/internal/metrics"
	"ttdiag/internal/replay"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/trace"
)

// batchedIDs are the campaigns with a lane-packed batched twin.
var batchedIDs = []string{"sec8-bursts", "sec8-pr", "sec8-malicious", "sec8-clique"}

// runCampaign renders one experiment and collects its metrics report.
func runCampaign(t *testing.T, id string, p Params) (string, metrics.Snapshot) {
	t.Helper()
	rep := metrics.NewReport("test", p.Seed, p.Runs)
	var out bytes.Buffer
	p.Out = &out
	p.Metrics = rep
	if err := Run(id, p); err != nil {
		t.Fatal(err)
	}
	return out.String(), rep.Snapshot(id)
}

// stripBatchInstruments removes the batch/* occupancy instruments, which
// exist only on the batched path, so the remaining snapshot can be compared
// against the per-run oracle.
func stripBatchInstruments(s metrics.Snapshot) metrics.Snapshot {
	counters := make(map[string]int64, len(s.Counters))
	for k, v := range s.Counters {
		if !strings.HasPrefix(k, "batch/") {
			counters[k] = v
		}
	}
	gauges := make(map[string]int64, len(s.Gauges))
	for k, v := range s.Gauges {
		if !strings.HasPrefix(k, "batch/") {
			gauges[k] = v
		}
	}
	s.Counters = counters
	s.Gauges = gauges
	return s
}

// TestBatchedCampaignEquivalence pins the lane-packed campaigns against
// their per-run oracles (perrun_test.go): for every batchable Sec. 8
// campaign, the rendered artifact is byte-identical and the metrics report
// identical (modulo the batch-only occupancy instruments) — at a run count
// with a full and a ragged gang (20 = 16 + 4) and at a run count below one
// gang (5).
func TestBatchedCampaignEquivalence(t *testing.T) {
	for _, id := range batchedIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for _, runs := range []int{5, 20} {
				p := Params{Seed: 7, Runs: runs, Workers: 1}
				reference, referenceSnap := runPerRun(t, id, p)
				batched, batchedSnap := runCampaign(t, id, p)
				if reference != batched {
					t.Fatalf("runs=%d: rendered output differs:\n--- per-run ---\n%s\n--- batched ---\n%s", runs, reference, batched)
				}
				if got := stripBatchInstruments(batchedSnap); !reflect.DeepEqual(got, referenceSnap) {
					gj, _ := json.Marshal(got)
					wj, _ := json.Marshal(referenceSnap)
					t.Fatalf("runs=%d: metrics diverge beyond batch/* instruments:\n--- batched ---\n%s\n--- per-run ---\n%s", runs, gj, wj)
				}
				// The occupancy instruments must actually be there on the
				// batched path: every gang accounts its lanes, and a full
				// 16-lane gang of the 4-node cluster fills the word.
				if batchedSnap.Counters["batch/lanes"] == 0 || batchedSnap.Counters["batch/gangs"] == 0 {
					t.Fatalf("runs=%d: missing batch occupancy counters: %v", runs, batchedSnap.Counters)
				}
				wantOcc := int64(100) // 16 lanes × 4 nodes of 64 bits
				if runs < 16 {
					wantOcc = int64(runs * 4 * 100 / 64)
				}
				if got := batchedSnap.Gauges["batch/lane_occupancy_pct"]; got != wantOcc {
					t.Fatalf("runs=%d: lane occupancy %d%%, want %d%%", runs, got, wantOcc)
				}
			}
		})
	}
}

// TestBatchedWorkerCountInvariance is the batched-path determinism gate,
// run under -race -cpu=1,4 by scripts/check.sh and CI: rendered rows and
// metrics report must be byte-identical whether the gangs run serially or
// on eight workers.
func TestBatchedWorkerCountInvariance(t *testing.T) {
	for _, id := range batchedIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serialOut, serialSnap := runCampaign(t, id, Params{Seed: 7, Runs: 40, Workers: 1})
			parallelOut, parallelSnap := runCampaign(t, id, Params{Seed: 7, Runs: 40, Workers: 8})
			if serialOut != parallelOut {
				t.Fatalf("rendered output differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- 8 workers ---\n%s", serialOut, parallelOut)
			}
			if !reflect.DeepEqual(serialSnap, parallelSnap) {
				t.Fatal("metrics report differs between workers=1 and workers=8")
			}
		})
	}
}

// TestTracedCampaignEquivalence pins the gang's flight recorder at the
// campaign level: with a JSONL trace sink on one worker, every batchable
// Sec. 8 campaign writes byte for byte the stream of its per-run oracle —
// boundary notes, engine events and node 1's causal events, run after run —
// and renders the same artifact, at a full plus ragged gang (20) and below
// one gang (5).
func TestTracedCampaignEquivalence(t *testing.T) {
	for _, id := range batchedIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for _, runs := range []int{5, 20} {
				var gangTrace, refTrace bytes.Buffer
				p := Params{Seed: 7, Runs: runs, Workers: 1, Trace: trace.NewJSONLWriter(&gangTrace)}
				batched, _ := runCampaign(t, id, p)
				p.Trace = trace.NewJSONLWriter(&refTrace)
				reference, _ := runPerRun(t, id, p)
				if reference != batched {
					t.Fatalf("runs=%d: rendered output differs:\n--- per-run ---\n%s\n--- batched ---\n%s", runs, reference, batched)
				}
				if refTrace.Len() == 0 {
					t.Fatalf("runs=%d: the oracle recorded no trace", runs)
				}
				if !bytes.Equal(gangTrace.Bytes(), refTrace.Bytes()) {
					got, _ := trace.ReadJSONL(&gangTrace)
					want, _ := trace.ReadJSONL(&refTrace)
					i := trace.FirstDivergence(got, want)
					t.Fatalf("runs=%d: JSONL trace diverges at event %d of %d (oracle %d)", runs, i, len(got), len(want))
				}
			}
		})
	}
}

// TestTracedCampaignReplays: every repetition a diagnostic-mode Sec. 8
// campaign traces from its gang — bursts with their invalid receivers and
// collisions, malicious senders with their altered payloads — replays under
// the campaign's cluster configuration to exactly the events it recorded.
func TestTracedCampaignReplays(t *testing.T) {
	for _, id := range []string{"sec8-bursts", "sec8-malicious"} {
		var buf bytes.Buffer
		runCampaign(t, id, Params{Seed: 7, Runs: 20, Workers: 1, Trace: trace.NewJSONLWriter(&buf)})
		all, err := trace.ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		runs := trace.SplitRuns(all)
		if len(runs) == 0 {
			t.Fatalf("%s recorded no repetition", id)
		}
		for _, run := range runs {
			var rec trace.Recorder
			if _, err := replay.Replay(run[1:], sim.ClusterConfig{Ls: prototypeLs, Sink: &rec}, 1); err != nil {
				t.Fatalf("%s: %v", run[0].Detail, err)
			}
			if i := trace.FirstDivergence(rec.Events(), run[1:]); i >= 0 {
				t.Fatalf("%s: replay diverges at event %d of %d", run[0].Detail, i, len(run)-1)
			}
		}
	}
}

// TestScaleResilienceBatchedEquivalence pins every scale-resilience row
// against its per-run oracle: each case of the sweep, the asymmetric a = 1
// ones included, and the out-of-bound N = 4, s = 2 row counts the same
// Theorem 1 violations on gangs — one-lane gangs re-pinned per run for
// N <= 16, N = 32 gangs two repetitions per word, N = 64 one-lane gangs —
// as one lock-step engine per repetition.
func TestScaleResilienceBatchedEquivalence(t *testing.T) {
	type scaleCase struct{ n, a, s, b int }
	var cases []scaleCase
	for _, n := range []int{4, 6, 8, 12, 16, 32, 64} {
		for _, c := range resilienceCases(n) {
			cases = append(cases, scaleCase{n, c[0], c[1], c[2]})
		}
	}
	cases = append(cases, scaleCase{4, 0, 2, 0})
	violated := false
	for _, runs := range []int{3, 5} {
		p := Params{Seed: 7, Runs: runs, Workers: 1}
		for _, c := range cases {
			name := fmt.Sprintf("runs=%d N=%d a=%d s=%d b=%d", runs, c.n, c.a, c.s, c.b)
			want, err := resilienceRunsPerRun(c.n, c.a, c.s, c.b, p, rng.NewSource(p.Seed))
			if err != nil {
				t.Fatalf("%s: per-run: %v", name, err)
			}
			got, err := resilienceRuns(c.n, c.a, c.s, c.b, p, rng.NewSource(p.Seed))
			if err != nil {
				t.Fatalf("%s: batched: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: %d violations lane-packed, %d per-run", name, got, want)
			}
			violated = violated || got > 0
		}
	}
	if !violated {
		t.Fatal("no case violated an audit; the out-of-bound row should")
	}
}

// TestScaleResilienceProgress: Params.Progress observes every repetition of
// the sweep — the one-lane N <= 16 and bound-violation rows as well as the
// wider gangs — so 29 rows report 29 × Runs completions.
func TestScaleResilienceProgress(t *testing.T) {
	const runs, rows = 2, 29
	var done atomic.Int64
	p := Params{Seed: 7, Runs: runs, Workers: 2, Progress: func(int) { done.Add(1) }}
	runCampaign(t, "scale-resilience", p)
	if got := done.Load(); got != rows*runs {
		t.Fatalf("Progress observed %d runs, want %d (%d rows × %d runs)", got, rows*runs, rows, runs)
	}
}

// TestTable4Progress: Params.Progress observes every Table 4 repetition,
// the round-aligned run and the random-phase batch of both domains, so
// Runs = 3 reports 2 × (1 + 3) completions.
func TestTable4Progress(t *testing.T) {
	const runs, domains = 3, 2
	var done atomic.Int64
	p := Params{Seed: 7, Runs: runs, Workers: 2, Progress: func(int) { done.Add(1) }}
	runCampaign(t, "table4", p)
	if got, want := done.Load(), int64(domains*(1+runs)); got != want {
		t.Fatalf("Progress observed %d runs, want %d (%d domains × (1 aligned + %d random))", got, want, domains, runs)
	}
}

// TestScoreboardProgress: Params.Progress observes every repetition the
// scoreboard runs — three of each of the 18 Sec. 8 classes (12 burst, 1 p/r,
// 4 malicious, 1 clique) and the round-aligned Table 4 run of both domains.
func TestScoreboardProgress(t *testing.T) {
	const sec8, table4 = 18 * 3, 2
	var done atomic.Int64
	p := Params{Seed: 7, Runs: 5, Workers: 2, Progress: func(int) { done.Add(1) }}
	runCampaign(t, "scoreboard", p)
	if got, want := done.Load(), int64(sec8+table4); got != want {
		t.Fatalf("Progress observed %d runs, want %d (%d Sec. 8 + %d Table 4)", got, want, sec8, table4)
	}
}
