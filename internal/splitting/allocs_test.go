// Allocation-ceiling regression test for the splitting level crossing. The
// race detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package splitting

import (
	"testing"

	"ttdiag/internal/invariant"
	"ttdiag/internal/rng"
)

// TestLevelCrossingAllocs pins a steady-state batch of level-1 trials at
// zero allocations: every trial start refills lanes from entry records in
// place, and every crossing captures into a slab record the worker's
// previous pass at the level already holds, so a level crossing allocates
// nothing.
func TestLevelCrossingAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	s, base, err := newSession(cfg, rng.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := s.runLevel(0, []entry{base})
	if err != nil {
		t.Fatal(err)
	}
	var entries []entry
	for _, o := range outs {
		if o.hit {
			entries = append(entries, o.entry)
		}
	}
	out := make([]trialOut[entry], cfg.Effort)
	hits := 0
	batch := func() {
		s.taken = 0
		w, err := s.takeWorker(1)
		if err != nil {
			t.Fatal(err)
		}
		clear(out)
		if err := s.runBatch(w, 1, 0, entries, out); err != nil {
			t.Fatal(err)
		}
		hits = 0
		for _, o := range out {
			if o.hit {
				hits++
			}
		}
	}
	batch() // grows the worker's level-1 slab and its scratch
	if avg := testing.AllocsPerRun(5, batch); avg != 0 {
		t.Fatalf("a batch of %d level-1 trials with %d crossings allocates %.1f objects, want 0", cfg.Effort, hits, avg)
	}
	if hits == 0 {
		t.Fatal("no level-1 crossing: the batch exercises no capture")
	}
}
