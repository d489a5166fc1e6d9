package splitting

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ttdiag/internal/campaign"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// This file keeps the per-run splitting body as the test oracle of the gang
// one: each trial restores a whole-cluster sim.ClusterCheckpoint into a
// per-run sim.DiagCluster and steps it on its own, under one keyed fault
// process installed on the bus. TestRunMatchesPerRun requires the gang to
// reproduce its Result exactly.

// perRunWorker is one campaign worker's per-run simulation state.
type perRunWorker struct {
	cl    *sim.DiagCluster
	pool  *rng.Pool
	fault *keyedTransient
}

// predicate is the oracle's own bus fault for f: a fault.Predicate over
// f.hit, so the per-run path shares neither the transient's Deliver and
// SenderCollision nor its quiet-slot answer with the gang.
func (f *keyedTransient) predicate() fault.Predicate {
	return fault.Predicate{Match: func(tx *tdma.Transmission) bool {
		return tx.Sender == f.target && f.hit(tx.Round+f.off)
	}}
}

// perRunCluster builds a reset per-run cluster and its observer.
func perRunCluster(t testing.TB, cfg Config) (*sim.DiagCluster, int) {
	t.Helper()
	cl, err := sim.NewReusableDiagnosticCluster(cfg.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	return cl, observerOf(cfg.Target)
}

func newPerRunWorker(t testing.TB, cfg Config, src *rng.Source) *perRunWorker {
	cl, _ := perRunCluster(t, cfg)
	w := &perRunWorker{
		cl:   cl,
		pool: src.NewPool(),
		fault: &keyedTransient{
			target: tdma.NodeID(cfg.Target),
			thresh: uint64(cfg.FaultProb * (1 << 53)),
		},
	}
	// Installed once; trials re-key it. Restore never clears disturbances.
	cl.Eng.Bus().AddDisturbance(w.fault.predicate())
	return w
}

// perRunImportance is the level function on the per-run cluster.
func perRunImportance(cl *sim.DiagCluster, observer, target int) int64 {
	return cl.Runners[observer].Protocol().PenaltyReward().Penalty(target)
}

// perRunTrial is the per-run trial body: restore the entry, re-key the
// fault process, step until the trial hits, regenerates or exhausts
// StageRounds.
func perRunTrial(cfg Config, w *perRunWorker, entries []*sim.ClusterCheckpoint, level, trial int) (trialOut[*sim.ClusterCheckpoint], error) {
	var out trialOut[*sim.ClusterCheckpoint]
	if err := entries[trial%len(entries)].Restore(w.cl); err != nil {
		return out, err
	}
	w.pool.Recycle()
	w.fault.key = w.pool.Stream(fmt.Sprintf("%s/L%d/T%d", cfg.Name, level, trial)).Uint64()
	observer := observerOf(cfg.Target)
	for r := 0; r < cfg.StageRounds; r++ {
		if err := w.cl.Eng.RunRound(); err != nil {
			return out, err
		}
		out.rounds++
		imp := perRunImportance(w.cl, observer, cfg.Target)
		if imp >= cfg.Levels[level] {
			out.hit = true
			if level < len(cfg.Levels)-1 {
				ck, err := sim.NewClusterCheckpoint(w.cl)
				if err != nil {
					return out, err
				}
				if err := ck.Capture(w.cl); err != nil {
					return out, err
				}
				out.entry = ck
			}
			return out, nil
		}
		if level > 0 && imp == 0 {
			return out, nil // regenerated
		}
	}
	return out, nil
}

// perRunBase warms a per-run cluster fault-free and captures it as the
// level-0 entry state; it returns the run-in length and node count too.
func perRunBase(t testing.TB, cfg Config) (base *sim.ClusterCheckpoint, warm, n int) {
	t.Helper()
	boot, observer := perRunCluster(t, cfg)
	warm = cfg.WarmRounds
	if warm == 0 {
		warm = boot.Runners[observer].Protocol().Config().Lag() + 2
	}
	if err := boot.Eng.RunRounds(warm); err != nil {
		t.Fatal(err)
	}
	base, err := sim.NewClusterCheckpoint(boot)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Capture(boot); err != nil {
		t.Fatal(err)
	}
	return base, warm, boot.Config().N
}

// runPerRun is Run on the per-run oracle: the same levels, streams and
// Result assembly, one trial per campaign run.
func runPerRun(t testing.TB, cfg Config, src *rng.Source) *Result {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	base, warm, n := perRunBase(t, cfg)
	res, err := estimate(cfg, n, warm, base, func(level int, entries []*sim.ClusterCheckpoint) ([]trialOut[*sim.ClusterCheckpoint], error) {
		return campaign.RunPooledWith(campaign.Options{Workers: cfg.Workers}, cfg.Effort,
			func() (*perRunWorker, error) { return newPerRunWorker(t, cfg, src), nil },
			func(w *perRunWorker, trial int) (trialOut[*sim.ClusterCheckpoint], error) {
				return perRunTrial(cfg, w, entries, level, trial)
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunMatchesPerRun is the differential pin of the gang body: for every
// shape, fault rate and worker count, Run must return exactly the per-run
// oracle's Result — every level's hits, rounds and intervals, the estimate,
// and the clone, capture and restore counts. The efforts are not multiples
// of the 16-lane (N=4) or 12-lane (N=5) gang, and the larger one spans
// several batches of trials, so lanes take new trials mid-gang and batches
// end ragged.
func TestRunMatchesPerRun(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{4, 5} {
		for _, q := range []float64{0.05, 0.3, 1} {
			for _, effort := range []int{37, 1100} {
				cfg := Config{
					Cluster: sim.ClusterConfig{
						N:  n,
						PR: core.PRConfig{PenaltyThreshold: 4, RewardThreshold: 2},
					},
					Levels:    []int64{1, 2, 3, 4, 5},
					Effort:    effort,
					FaultProb: q,
				}
				if effort > 100 && q == 1 {
					continue // deterministic: the small effort covers it
				}
				want := runPerRun(t, cfg, rng.NewSource(11))
				for _, workers := range []int{1, 2} {
					cfg.Workers = workers
					got, err := Run(cfg, rng.NewSource(11))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("N=%d q=%v effort=%d workers=%d: gang diverged from the per-run oracle:\n got %+v\nwant %+v",
							n, q, effort, workers, got, want)
					}
				}
			}
		}
	}
	// A run-in of exactly the diagnosis lag (3 rounds), and a target other
	// than node 1 (observer node 1).
	cfg := Config{
		Cluster: sim.ClusterConfig{
			N:  4,
			PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 3},
		},
		Target:     3,
		Levels:     []int64{1, 2, 3, 4},
		Effort:     300,
		WarmRounds: 3,
		FaultProb:  0.3,
	}
	want := runPerRun(t, cfg, rng.NewSource(12))
	got, err := Run(cfg, rng.NewSource(12))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run-in 3, target 3: gang diverged from the per-run oracle:\n got %+v\nwant %+v", got, want)
	}
}
