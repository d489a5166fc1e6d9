package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// root is the repository root as seen from this package's directory.
const root = "../.."

// TestSetupDigestsRepeat launches every workload twice at its setup size
// and the digest seed: both launches must pass the workload's output check
// and print the committed digest.
func TestSetupDigestsRepeat(t *testing.T) {
	b, err := newBench(root, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if b.digests[w.name]["setup"] == "" {
			t.Fatalf("%s: no committed setup digest in %s", w.name, digestsFile)
		}
		var s sample
		for i := 0; i < 2; i++ {
			if _, err := b.try(&s, w, "setup", w.setupSize, digestSeed); err != nil {
				t.Fatal(err)
			}
		}
		if s.attempted != 2 || s.failed != 0 {
			t.Fatalf("%s: %d of %d launches failed", w.name, s.failed, s.attempted)
		}
	}
}

func TestFoldTop(t *testing.T) {
	data, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldTop(string(data))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"core.self_share": 24, "tdma.self_share": 15, "sim.self_share": 5, "campaign.self_share": 3,
		"fault.self_share": 3, "rng.self_share": 2.5, "splitting.self_share": 1.5,
		"experiments.self_share": 0, "fleet.self_share": 0, "metrics.self_share": 0,
		"runtime.alloc_share": 20, "runtime.gc_share": 14, "other.self_share": 12,
	}
	if len(got) != len(want) {
		t.Errorf("got %d shares, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if _, err := foldTop("no profile here"); err == nil {
		t.Error("empty pprof output accepted")
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3}, 3, 3},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompare(t *testing.T) {
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, sp, "testdata/base.json", "testdata/new.json"); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			rows[f[0]+" "+f[1]] = line
		}
	}
	for key, suffix := range map[string]string{
		"sec8-bursts reps_per_s":       "better",
		"sec8-bursts cpu_s":            "worse",
		"sec8-bursts peak_rss_mb":      "within bound",
		"sec8-bursts setup_s":          "unresolved",
		"sec8-bursts error_rate":       "worse",
		"sec8-bursts core.step_ns":     "-21.1%",
		"sec8-bursts core.step_allocs": "CHANGED",
		"sec8-bursts sim.round_allocs": "same",
		"rare-event (missing":          "",
	} {
		if line, ok := rows[key]; !ok || !strings.HasSuffix(strings.TrimSpace(line), suffix) {
			t.Errorf("%s: got row %q, want it to end in %q\n%s", key, line, suffix, out.String())
		}
	}
}
