// Package campaign is the parallel Monte-Carlo campaign engine: it fans
// independent repetitions of a fault-injection experiment across a bounded
// worker pool while keeping the aggregate result bit-identical to the serial
// execution at any worker count.
//
// The determinism contract has two halves, and both are the caller's and the
// engine's job respectively:
//
//   - The caller's run function must be self-contained: it derives every
//     random stream it needs from the master seed and its own run index
//     (e.g. rng.Source.Stream("sec8-bursts/run-7")), shares no mutable state
//     with other runs, and never reads scheduling-dependent inputs. Named
//     stream derivation is order-independent by construction, so run 7 draws
//     the same sequence whether it executes first, last or concurrently.
//   - The engine writes each run's result into a pre-sized slice at the
//     run's own index and aggregates only after every worker has joined, so
//     result order — and therefore every downstream summary statistic and
//     rendered row — never depends on goroutine scheduling.
//
// Workers <= 0 selects GOMAXPROCS workers; Workers == 1 bypasses the pool
// entirely and recovers the exact serial execution.
package campaign

import (
	"fmt"
	"log"
	"runtime"
	"sync"
)

var clampLogOnce sync.Once

// Workers resolves a worker-count setting: values <= 0 mean "one worker per
// available CPU" (GOMAXPROCS), and explicit requests are clamped to
// GOMAXPROCS — workers beyond the schedulable CPUs only add contention, and
// the results are bit-identical at any worker count anyway. The first clamp
// is logged once per process so an over-provisioned configuration is
// visible.
func Workers(workers int) int {
	max := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		return max
	}
	if workers > max {
		clampLogOnce.Do(func() {
			log.Printf("campaign: clamping %d requested workers to GOMAXPROCS=%d", workers, max)
		})
		return max
	}
	return workers
}

// Options configures a campaign. The zero value is valid: GOMAXPROCS
// workers, the default clamp log, no completion callback.
type Options struct {
	// Workers bounds the worker pool: <= 0 means GOMAXPROCS, 1 recovers
	// serial execution; requests beyond GOMAXPROCS are clamped.
	Workers int
	// OnRunDone, when non-nil, is invoked after every successfully completed
	// run with its run index. With more than one worker it is called
	// concurrently from the worker goroutines, in completion order — which
	// is scheduling-dependent, so OnRunDone is for wall-clock progress
	// reporting (see metrics.Progress.RunDone) and must never feed
	// deterministic outputs.
	OnRunDone func(run int)
}

// RunPooledWith executes fn(state, 0) .. fn(state, runs-1) on a pool of
// o.Workers workers and returns the results indexed by run. newState builds
// one state value per worker (serially, before any run starts), and every
// repetition dispatched to that worker receives the same state value — a
// reusable simulation cluster that each repetition resets instead of
// rebuilding, for instance. It is the engine RunBatchedWith delegates to.
//
// The result slice is identical for every worker count as long as fn is a
// pure function of its run index (see the package comment for the full
// contract) and returns the state to a scenario-independent condition
// before (or after) each repetition — typically by resetting the cluster as
// its first action — so that a run's result never depends on which runs the
// worker executed before it.
//
// On failure the first error — the error of the lowest-indexed failing run
// that was observed — is returned and the remaining runs are cancelled;
// already-running repetitions finish or fail on their own, but no new run is
// dispatched. With one worker the runs execute serially on the calling
// goroutine and the first error aborts the loop immediately.
func RunPooledWith[S, T any](o Options, runs int, newState func() (S, error), fn func(state S, run int) (T, error)) ([]T, error) {
	if runs < 0 {
		return nil, fmt.Errorf("campaign: negative run count %d", runs)
	}
	if newState == nil {
		return nil, fmt.Errorf("campaign: nil state constructor")
	}
	if fn == nil {
		return nil, fmt.Errorf("campaign: nil run function")
	}
	workers := Workers(o.Workers)
	if workers > runs {
		workers = runs
	}
	results := make([]T, runs)
	if workers <= 1 {
		state, err := newState()
		if err != nil {
			return nil, fmt.Errorf("campaign: worker 0 state: %w", err)
		}
		for run := 0; run < runs; run++ {
			v, err := fn(state, run)
			if err != nil {
				return nil, fmt.Errorf("campaign: run %d: %w", run, err)
			}
			results[run] = v
			if o.OnRunDone != nil {
				o.OnRunDone(run)
			}
		}
		return results, nil
	}

	states := make([]S, workers)
	for w := 0; w < workers; w++ {
		state, err := newState()
		if err != nil {
			return nil, fmt.Errorf("campaign: worker %d state: %w", w, err)
		}
		states[w] = state
	}
	var (
		jobs = make(chan int)
		quit = make(chan struct{})
		wg   sync.WaitGroup

		mu       sync.Mutex
		once     sync.Once
		firstRun = -1
		firstErr error
	)
	fail := func(run int, err error) {
		mu.Lock()
		if firstRun < 0 || run < firstRun {
			firstRun, firstErr = run, err
		}
		mu.Unlock()
		once.Do(func() { close(quit) })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(state S) {
			defer wg.Done()
			for {
				select {
				case run, ok := <-jobs:
					if !ok {
						return
					}
					v, err := fn(state, run)
					if err != nil {
						fail(run, err)
						return
					}
					// Index-addressed write: no two runs share an index, so
					// the slice needs no lock and the final content is
					// independent of which worker executed which run.
					results[run] = v
					if o.OnRunDone != nil {
						o.OnRunDone(run)
					}
				case <-quit:
					return
				}
			}
		}(states[w])
	}
dispatchPooled:
	for run := 0; run < runs; run++ {
		select {
		case jobs <- run:
		case <-quit:
			break dispatchPooled
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("campaign: run %d: %w", firstRun, firstErr)
	}
	return results, nil
}
