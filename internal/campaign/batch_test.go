package campaign

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestRunBatchedWithDeterminism pins the gang scheduler's core contract:
// the result slice is identical at every worker count and every gang
// width, including gang widths that leave a ragged final gang.
func TestRunBatchedWithDeterminism(t *testing.T) {
	fn := func(_ struct{}, base, width int, out []int) error {
		if len(out) != width {
			return fmt.Errorf("out has %d entries, want %d", len(out), width)
		}
		for i := 0; i < width; i++ {
			run := base + i
			out[i] = run*run + 7
		}
		return nil
	}
	newState := func() (struct{}, error) { return struct{}{}, nil }
	for _, runs := range []int{0, 1, 5, 16, 20, 33} {
		var want []int
		for _, gang := range []int{1, 3, 16} {
			for _, workers := range []int{1, 4} {
				got, err := RunBatchedWith(Options{Workers: workers},
					runs, gang, newState, fn)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != runs {
					t.Fatalf("runs=%d gang=%d workers=%d: %d results", runs, gang, workers, len(got))
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("runs=%d gang=%d workers=%d: results diverge", runs, gang, workers)
				}
			}
		}
	}
}

// TestRunBatchedWithGangShape checks the gang decomposition: contiguous
// disjoint windows in run order, full gangs except a single ragged tail.
func TestRunBatchedWithGangShape(t *testing.T) {
	var mu sync.Mutex
	type gangRec struct{ base, width int }
	var gangsSeen []gangRec
	_, err := RunBatchedWith(Options{Workers: 1}, 21, 8,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, base, width int, out []int) error {
			mu.Lock()
			gangsSeen = append(gangsSeen, gangRec{base, width})
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(gangsSeen, func(i, j int) bool { return gangsSeen[i].base < gangsSeen[j].base })
	want := []gangRec{{0, 8}, {8, 8}, {16, 5}}
	if !reflect.DeepEqual(gangsSeen, want) {
		t.Fatalf("gangs %v, want %v", gangsSeen, want)
	}
}

// TestRunBatchedWithOnRunDone checks the completion callback fires once per
// run with the run's own index.
func TestRunBatchedWithOnRunDone(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	_, err := RunBatchedWith(Options{Workers: 2, OnRunDone: func(run int) {
		mu.Lock()
		seen[run]++
		mu.Unlock()
	}}, 11, 4,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, base, width int, out []int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 11 {
		t.Fatalf("OnRunDone saw %d distinct runs, want 11", len(seen))
	}
	for run, count := range seen {
		if run < 0 || run >= 11 || count != 1 {
			t.Fatalf("OnRunDone(%d) fired %d times", run, count)
		}
	}
}

// TestRunBatchedWithErrors pins the validation and failure surface.
func TestRunBatchedWithErrors(t *testing.T) {
	newState := func() (struct{}, error) { return struct{}{}, nil }
	if _, err := RunBatchedWith[struct{}, int](Options{}, 4, 0, newState, nil); err == nil {
		t.Fatal("gang width 0 accepted")
	}
	if _, err := RunBatchedWith[struct{}, int](Options{}, -1, 4, newState,
		func(_ struct{}, _, _ int, _ []int) error { return nil }); err == nil {
		t.Fatal("negative run count accepted")
	}
	_, err := RunBatchedWith(Options{Workers: 1}, 20, 8, newState,
		func(_ struct{}, base, width int, out []int) error {
			if base <= 9 && 9 < base+width {
				return fmt.Errorf("boom at 9")
			}
			return nil
		})
	if err == nil {
		t.Fatal("gang error not propagated")
	}
	if got := err.Error(); got != "campaign: run 1: gang of runs 8-15: boom at 9" {
		t.Fatalf("error = %q", got)
	}
}
