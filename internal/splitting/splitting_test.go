package splitting

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

func testConfig() Config {
	return Config{
		Cluster: sim.ClusterConfig{
			N:  4,
			PR: core.PRConfig{PenaltyThreshold: 7, RewardThreshold: 2},
		},
		Levels:    []int64{1, 2, 3, 4},
		Effort:    400,
		FaultProb: 0.1,
	}
}

// TestRunWorkerCountInvariance pins the determinism contract: the entire
// Result — every per-level count, every round total, the product estimate —
// is bit-identical at any worker count.
func TestRunWorkerCountInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	mk := func(workers int) *Result {
		cfg := testConfig()
		cfg.Workers = workers
		res, err := Run(cfg, rng.NewSource(7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := mk(1)
	if ref.P <= 0 {
		t.Fatalf("test configuration produced a dry level (P = %v); pick parameters that exercise every level", ref.P)
	}
	for _, workers := range []int{2, 3, 4} {
		if got := mk(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// directStaged estimates the same staged quantity splitting factorises — a
// trajectory from the base state must climb every threshold, each within a
// fresh StageRounds window of its previous crossing, without regenerating to
// penalty zero once past the first — by brute force: one full trajectory per
// trial, no cloning. The per-round fault process is iid Bernoulli under the
// keyed hash, so re-keying clones at crossings (what splitting does) and
// keeping one key throughout (what this does) draw from the same
// distribution; the two estimates must agree within Monte-Carlo error.
func directStaged(t *testing.T, cfg Config, src *rng.Source, trials int) float64 {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	base, _, _ := perRunBase(t, cfg)
	w := newPerRunWorker(t, cfg, src)
	observer := observerOf(cfg.Target)
	hits := 0
trialLoop:
	for trial := 0; trial < trials; trial++ {
		if err := base.Restore(w.cl); err != nil {
			t.Fatal(err)
		}
		w.pool.Recycle()
		w.fault.key = w.pool.Stream(fmt.Sprintf("direct/T%d", trial)).Uint64()
		stage := 0
		window := 0
		for stage < len(cfg.Levels) {
			if window >= cfg.StageRounds {
				continue trialLoop // deadline missed
			}
			if err := w.cl.Eng.RunRound(); err != nil {
				t.Fatal(err)
			}
			window++
			imp := perRunImportance(w.cl, observer, cfg.Target)
			if imp >= cfg.Levels[stage] {
				stage++
				window = 0
				continue
			}
			if stage > 0 && imp == 0 {
				continue trialLoop // regenerated
			}
		}
		hits++
	}
	return float64(hits) / float64(trials)
}

// TestRunMatchesDirectMonteCarlo validates the estimator against brute
// force in a regime reachable by both: the splitting product must agree
// with the direct staged estimate well within their combined Monte-Carlo
// error (the assertion allows 5 combined standard errors; the seeds are
// fixed, so this is a deterministic regression check, not a flaky one).
func TestRunMatchesDirectMonteCarlo(t *testing.T) {
	cfg := Config{
		Cluster: sim.ClusterConfig{
			N:  4,
			PR: core.PRConfig{PenaltyThreshold: 7, RewardThreshold: 2},
		},
		Levels:    []int64{1, 2},
		Effort:    2500,
		FaultProb: 0.3,
	}
	res, err := Run(cfg, rng.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	const directTrials = 6000
	direct := directStaged(t, cfg, rng.NewSource(4), directTrials)
	directSE := math.Sqrt(direct * (1 - direct) / directTrials)
	tol := 5 * math.Hypot(res.P*res.RelErr, directSE)
	if diff := math.Abs(res.P - direct); diff > tol {
		t.Fatalf("splitting P = %v (RE %.3f) vs direct %v (SE %.4f): |diff| = %v > %v",
			res.P, res.RelErr, direct, directSE, diff, tol)
	}
}

// TestRunDeterministicExtremes pins the plumbing at the probability
// extremes, where the dynamics are deterministic.
func TestRunDeterministicExtremes(t *testing.T) {
	// A fault every round climbs every level: P = 1, zero relative error.
	cfg := testConfig()
	cfg.Effort = 8
	cfg.FaultProb = 1
	res, err := Run(cfg, rng.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 || res.RelErr != 0 {
		t.Fatalf("FaultProb=1: P = %v, RelErr = %v, want 1, 0", res.P, res.RelErr)
	}
	for i, lr := range res.Levels {
		if lr.Hits != lr.Trials {
			t.Fatalf("FaultProb=1: level %d hit %d/%d", i, lr.Hits, lr.Trials)
		}
	}
	if res.NaiveTrials != 0 {
		t.Fatalf("FaultProb=1: NaiveTrials = %v, want 0", res.NaiveTrials)
	}

	// No faults at all: level 0 is dry, the estimate is zero, and the
	// estimation stops without attempting unreachable levels.
	cfg = testConfig()
	cfg.Effort = 8
	cfg.FaultProb = 0
	res, err = Run(cfg, rng.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 || !math.IsInf(res.RelErr, 1) {
		t.Fatalf("FaultProb=0: P = %v, RelErr = %v, want 0, +Inf", res.P, res.RelErr)
	}
	if len(res.Levels) != 1 || res.Levels[0].Hits != 0 {
		t.Fatalf("FaultProb=0: levels = %+v, want one dry level", res.Levels)
	}
	if !math.IsInf(res.NaiveTrials, 1) {
		t.Fatalf("FaultProb=0: NaiveTrials = %v, want +Inf", res.NaiveTrials)
	}
}

// TestRunAccounting checks the bookkeeping invariants that the experiment
// layer turns into metrics: restores count every trial, captures count the
// base state plus every retained clone, and clones are exactly the non-final
// level hits (final-level successes need no entry state).
func TestRunAccounting(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, rng.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(res.Levels)) * int64(cfg.Effort); res.Restores != want {
		t.Fatalf("Restores = %d, want %d", res.Restores, want)
	}
	wantClones := 0
	for i, lr := range res.Levels {
		if i < len(cfg.Levels)-1 {
			wantClones += lr.Hits
		}
	}
	if res.Clones != wantClones {
		t.Fatalf("Clones = %d, want %d", res.Clones, wantClones)
	}
	if res.Captures != wantClones+1 {
		t.Fatalf("Captures = %d, want %d", res.Captures, wantClones+1)
	}
	var rounds int64
	for _, lr := range res.Levels {
		rounds += lr.Rounds
	}
	if res.Rounds <= rounds { // warm-up must be included
		t.Fatalf("Rounds = %d, not greater than level sum %d", res.Rounds, rounds)
	}
	if res.NodeRounds != res.Rounds*4 {
		t.Fatalf("NodeRounds = %d, want %d", res.NodeRounds, res.Rounds*4)
	}
}

func TestConfigValidation(t *testing.T) {
	src := rng.NewSource(1)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero effort", func(c *Config) { c.Effort = 0 }},
		{"no levels", func(c *Config) { c.Levels = nil }},
		{"descending levels", func(c *Config) { c.Levels = []int64{2, 1} }},
		{"zero level", func(c *Config) { c.Levels = []int64{0, 1} }},
		{"bad probability", func(c *Config) { c.FaultProb = 1.5 }},
		{"bad target", func(c *Config) { c.Target = 9 }},
		{"negative stage rounds", func(c *Config) { c.StageRounds = -1 }},
		{"warm-up shorter than the lag", func(c *Config) { c.WarmRounds = 2 }},
	} {
		cfg := testConfig()
		tc.mutate(&cfg)
		if _, err := Run(cfg, src); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSlabReuse runs the levels of one estimation by hand and pins the
// slab life cycle: a level's crossings land in the slab of its workers for
// the level's parity, and every level finds its entry records intact after
// running, although workers wrote theirs meanwhile. On three workers, under
// the race detector, it is the check that a worker writes only its own
// slabs while the others read the previous level's. On one worker, where
// the jobs per worker do not depend on scheduling, a slab whose level ℓ
// crosses no more often than level ℓ-2 did must write over that level's
// memory instead of growing.
func TestSlabReuse(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 3} {
		cfg := testConfig()
		cfg.Effort = 2500 // three jobs of 1024 trials
		cfg.Workers = workers
		cfg, err := cfg.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		s, base, err := newSession(cfg, rng.NewSource(7))
		if err != nil {
			t.Fatal(err)
		}
		entries := []entry{base}
		type use struct{ n, chunks int }
		uses := map[int]use{}
		reused := 0
		for level := range cfg.Levels {
			want := make([][]uint64, len(entries))
			for i, e := range entries {
				want[i] = slices.Clone(s.record(e))
			}
			outs, err := s.runLevel(level, entries)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range entries {
				if !slices.Equal(s.record(e), want[i]) {
					t.Fatalf("workers=%d level %d: entry record %d (slab %d, record %d) changed while the level read it", workers, level, i, e.slab, e.rec)
				}
			}
			if level == len(cfg.Levels)-1 {
				break // final-level hits keep no entry state
			}
			entries = entries[:0:0]
			for _, o := range outs {
				if o.hit {
					entries = append(entries, o.entry)
				}
			}
			for _, e := range entries {
				if e.slab == 0 || (e.slab-1)%2 != level&1 {
					t.Fatalf("workers=%d level %d: entry in slab %d, not a worker slab of parity %d", workers, level, e.slab, level&1)
				}
			}
			for _, w := range s.workers {
				id := w.slabs[level&1]
				b := &s.slabs[id]
				if before, ok := uses[id]; ok && workers == 1 && b.n <= before.n {
					if len(b.chunks) != before.chunks {
						t.Fatalf("level %d: slab %d grew from %d to %d chunks for %d records, after holding %d", level, id, before.chunks, len(b.chunks), b.n, before.n)
					}
					reused++
				}
				uses[id] = use{n: max(b.n, uses[id].n), chunks: len(b.chunks)}
			}
		}
		if len(s.workers) != workers {
			t.Fatalf("%d workers, want %d", len(s.workers), workers)
		}
		if workers == 1 && reused == 0 {
			t.Fatal("no slab was written over: the levels exercise no reuse")
		}
	}
}

// TestTrialKeyMatchesStream pins the trial keys key for key against the
// stream they were first drawn from: the first Uint64 of the pooled stream
// "<name>/L<level>/T<trial>".
func TestTrialKeyMatchesStream(t *testing.T) {
	for _, name := range []string{"splitting", "rare-event"} {
		src := rng.NewSource(2007)
		s := &session{cfg: Config{Name: name}, src: src}
		pool := src.NewPool()
		for level := 0; level < 12; level++ {
			prefix := s.levelName(level)
			for _, trial := range append(seq(0, 300), 9999, 10000, 139999, 1<<40) {
				pool.Recycle()
				want := pool.StreamBytes([]byte(fmt.Sprintf("%s/L%d/T%d", name, level, trial))).Uint64()
				if got := s.trialKey(prefix, trial); got != want {
					t.Fatalf("%s level %d trial %d: key %#x, stream %#x", name, level, trial, got, want)
				}
			}
		}
	}
}

// seq returns lo, lo+1, …, hi-1.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
