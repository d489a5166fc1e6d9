package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ttdiag/internal/rng"
)

// stateless runs a campaign without per-worker state on RunPooledWith.
func stateless[T any](o Options, runs int, fn func(run int) (T, error)) ([]T, error) {
	return RunPooledWith(o, runs, func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, run int) (T, error) { return fn(run) })
}

// TestResultsIndexedByRun checks the core contract: results land at their
// run index for any worker count, identically to the serial execution.
func TestResultsIndexedByRun(t *testing.T) {
	const runs = 257
	fn := func(run int) (int, error) { return run * run, nil }
	want, err := stateless(Options{Workers: 1}, runs, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 64, runs + 5} {
		got, err := stateless(Options{Workers: workers}, runs, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != runs {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), runs)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSeededStreamsAreScheduleIndependent checks the full determinism story
// with real named streams: every run derives its own stream from the master
// seed and run index, so the drawn values are identical at any worker count.
func TestSeededStreamsAreScheduleIndependent(t *testing.T) {
	const runs = 64
	draw := func(run int) (uint64, error) {
		st := rng.NewSource(2007).Stream(fmt.Sprintf("campaign-test/run-%d", run))
		return st.Uint64(), nil
	}
	serial, err := stateless(Options{Workers: 1}, runs, draw)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := stateless(Options{Workers: 8}, runs, draw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("run %d drew %d serially but %d with 8 workers", i, serial[i], parallel[i])
		}
	}
}

// TestFirstErrorPropagatesAndCancels checks the failure path: the injected
// error surfaces (wrapped, but errors.Is-discoverable, naming its run), and
// cancellation keeps the pool from dispatching the remaining runs.
func TestFirstErrorPropagatesAndCancels(t *testing.T) {
	boom := errors.New("injected failure")
	const runs = 1000
	var executed atomic.Int64
	_, err := stateless(Options{Workers: 4}, runs, func(run int) (struct{}, error) {
		executed.Add(1)
		if run == 0 {
			return struct{}{}, boom
		}
		// Keep the surviving workers busy long enough that an unbounded
		// dispatcher would provably have handed out far more runs.
		time.Sleep(time.Millisecond)
		return struct{}{}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	if got := err.Error(); got != "campaign: run 0: injected failure" {
		t.Fatalf("error text = %q", got)
	}
	if n := executed.Load(); n >= runs {
		t.Fatalf("all %d runs executed despite an error in run 0", n)
	}
}

// TestSerialErrorAbortsImmediately pins the workers=1 fast path.
func TestSerialErrorAbortsImmediately(t *testing.T) {
	boom := errors.New("stop here")
	executed := 0
	_, err := stateless(Options{Workers: 1}, 10, func(run int) (int, error) {
		executed++
		if run == 3 {
			return 0, boom
		}
		return run, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	if executed != 4 {
		t.Fatalf("executed %d runs, want 4 (0..3)", executed)
	}
}

// TestLowestFailingIndexWins makes the error choice deterministic enough to
// rely on: when several runs fail, the reported error belongs to the lowest
// observed run index.
func TestLowestFailingIndexWins(t *testing.T) {
	_, err := stateless(Options{Workers: 8}, 8, func(run int) (int, error) {
		return 0, fmt.Errorf("run %d failed", run)
	})
	if err == nil {
		t.Fatal("want an error")
	}
	// All eight runs fail; with eight workers every index is dispatched, so
	// the minimum over observed failures is run 0 regardless of scheduling.
	if got := err.Error(); got != "campaign: run 0: run 0 failed" {
		t.Fatalf("error text = %q", got)
	}
}

// TestEdgeCases covers zero runs, negative runs, a nil function and a nil
// state constructor.
func TestEdgeCases(t *testing.T) {
	got, err := stateless(Options{Workers: 4}, 0, func(int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("zero runs: results %v, err %v", got, err)
	}
	if _, err := stateless(Options{Workers: 4}, -1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative runs: want an error")
	}
	newState := func() (struct{}, error) { return struct{}{}, nil }
	if _, err := RunPooledWith[struct{}, int](Options{Workers: 4}, 4, newState, nil); err == nil {
		t.Fatal("nil fn: want an error")
	}
	if _, err := RunPooledWith[struct{}, int](Options{Workers: 4}, 4, nil,
		func(struct{}, int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("nil state constructor: want an error")
	}
}

// TestWorkersResolution pins the GOMAXPROCS defaulting and clamping.
func TestWorkersResolution(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if max >= 3 {
		if got := Workers(3); got != 3 {
			t.Fatalf("Workers(3) = %d", got)
		}
	}
	if got := Workers(max + 2); got != max {
		t.Fatalf("Workers(%d) = %d, want clamp to GOMAXPROCS=%d", max+2, got, max)
	}
	if got := Workers(0); got != max {
		t.Fatalf("Workers(0) = %d, want %d", got, max)
	}
	if got := Workers(-2); got != max {
		t.Fatalf("Workers(-2) = %d, want %d", got, max)
	}
}

// TestOnRunDone checks the completion callback: every successful run is
// reported exactly once, at any worker count, and failed runs are not.
func TestOnRunDone(t *testing.T) {
	const runs = 24
	for _, workers := range []int{1, 4} {
		var done int64
		var seen [runs]int64
		o := Options{Workers: workers, OnRunDone: func(run int) {
			atomic.AddInt64(&done, 1)
			atomic.AddInt64(&seen[run], 1)
		}}
		if _, err := RunPooledWith(o, runs,
			func() (int, error) { return 0, nil },
			func(_ int, run int) (int, error) { return run, nil }); err != nil {
			t.Fatal(err)
		}
		if done != runs {
			t.Fatalf("workers=%d: OnRunDone fired %d times, want %d", workers, done, runs)
		}
		for run := range seen {
			if seen[run] != 1 {
				t.Fatalf("workers=%d: run %d reported %d times", workers, run, seen[run])
			}
		}
	}
	// A failing run must not be reported as done.
	var done int64
	_, err := stateless(Options{Workers: 1, OnRunDone: func(int) { atomic.AddInt64(&done, 1) }}, 4,
		func(run int) (int, error) {
			if run == 2 {
				return 0, errors.New("boom")
			}
			return run, nil
		})
	if err == nil {
		t.Fatal("want error")
	}
	if done != 2 {
		t.Fatalf("OnRunDone fired %d times before the serial abort, want 2", done)
	}
}
