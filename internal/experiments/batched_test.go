package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ttdiag/internal/metrics"
	"ttdiag/internal/trace"
)

// batchedIDs are the campaigns with a lane-packed batched twin.
var batchedIDs = []string{"sec8-bursts", "sec8-pr", "sec8-malicious"}

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
// against the per-run reference.
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

// perRun returns p with a trace recorder attached, which moves the Sec. 8
// campaigns and the wide scale-resilience cases onto their per-run path: the
// reference the default lane-packed path is tested against.
func perRun(p Params) Params {
	p.Trace = &trace.Recorder{}
	return p
}

// TestBatchedCampaignEquivalence pins the lane-packed campaign path against
// its per-run reference: for every batchable Sec. 8 campaign, the rendered
// artifact is byte-identical and the metrics report identical (modulo the
// batch-only occupancy instruments) between a default run and a traced one
// — at a run count with a full and a ragged gang (20 = 16 + 4) and at a run
// count below one gang (5).
func TestBatchedCampaignEquivalence(t *testing.T) {
	for _, id := range batchedIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			for _, runs := range []int{5, 20} {
				p := Params{Seed: 7, Runs: runs, Workers: 1}
				reference, referenceSnap := runCampaign(t, id, perRun(p))
				batched, batchedSnap := runCampaign(t, id, p)
				if reference != batched {
					t.Fatalf("runs=%d: rendered output differs:\n--- per-run ---\n%s\n--- batched ---\n%s", runs, reference, batched)
				}
				if _, ok := referenceSnap.Counters["batch/lanes"]; ok {
					t.Fatalf("runs=%d: the traced campaign ran lane-packed", runs)
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

// TestScaleResilienceBatchedEquivalence pins the wide scale-resilience rows
// (N = 32 and N = 64, see scale_wide.go): the rendered sweep is
// byte-identical whether every wide case, the asymmetric a = 1 ones
// included, runs lane-packed (the default; N = 32 gangs two repetitions per
// word, N = 64 runs one-lane gangs) or per-run under a trace sink.
func TestScaleResilienceBatchedEquivalence(t *testing.T) {
	for _, runs := range []int{3, 5} {
		p := Params{Seed: 7, Runs: runs, Workers: 1}
		reference, _ := runCampaign(t, "scale-resilience", perRun(p))
		batched, _ := runCampaign(t, "scale-resilience", p)
		if reference != batched {
			t.Fatalf("runs=%d: rendered output differs:\n--- per-run ---\n%s\n--- batched ---\n%s", runs, reference, batched)
		}
	}
}
