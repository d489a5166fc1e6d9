// Allocation-ceiling regression tests for the protocol hot path. The race
// detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package core

import (
	"fmt"
	"testing"

	"ttdiag/internal/invariant"
	"ttdiag/internal/metrics"
)

// stepAllocProtocol builds a steady-state protocol plus a step closure for
// the allocation measurements below, stepping through StepPacked when packed
// is set and through Step otherwise. withMetrics attaches the full
// StepMetrics instrument set (counters, gauge — the fixed-cost telemetry
// every campaign run carries when metrics are on).
func stepAllocProtocol(t *testing.T, n int, withMetrics, packed bool) func() {
	t.Helper()
	p, err := NewProtocol(Config{
		N: n, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withMetrics {
		p.SetMetrics(NewStepMetrics(metrics.New()))
	}
	dms := make([]Syndrome, n+1)
	for j := 1; j <= n; j++ {
		dms[j] = NewSyndrome(n, Healthy)
	}
	validity := NewSyndrome(n, Healthy)
	collision := func(int) Opinion { return Healthy }
	all := PlaneMask(n)
	rows := make([]BitSyndrome, n+1)
	for j := 1; j <= n; j++ {
		rows[j] = BitSyndrome{Op: all, Known: all}
	}
	round := 0
	return func() {
		var err error
		if packed {
			_, err = p.StepPacked(PackedRoundInput{Round: round, Rows: rows, Present: all, Validity: rows[1], Collision: collision})
		} else {
			_, err = p.Step(RoundInput{Round: round, DMs: dms, Validity: validity, Collision: collision})
		}
		if err != nil {
			t.Fatal(err)
		}
		round++
	}
}

// TestProtocolStepAllocs pins the steady-state allocation budget of one
// protocol execution through Step and through StepPacked. RoundOutput is a
// value and the kernel votes on protocol-owned scratch, so a Step allocates
// nothing.
func TestProtocolStepAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	cases := []struct {
		name        string
		n           int
		withMetrics bool
		ceiling     float64
	}{
		{"packed_n4", 4, false, 0},
		{"packed_n64", 64, false, 0},
		// Telemetry attached: the instruments are preallocated int64 cells
		// updated in place, so the ceilings do not move.
		{"packed_n4_metrics", 4, true, 0},
		{"packed_n64_metrics", 64, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, packed := range []bool{false, true} {
				step := stepAllocProtocol(t, tc.n, tc.withMetrics, packed)
				// Warm past the diagnosis lag so every measured Step emits
				// a full round output.
				for i := 0; i < 16; i++ {
					step()
				}
				if avg := testing.AllocsPerRun(200, step); avg > tc.ceiling {
					t.Fatalf("Step (packed input %v) allocates %.2f objects/round in steady state, ceiling %.0f", packed, avg, tc.ceiling)
				}
			}
		})
	}
}

// Telemetry attachments of the batched allocation measurement.
const (
	batchMetricsOff     = iota
	batchMetricsPerLane // one registry per lane
	batchMetricsShared  // the campaign shape: one StepMetrics for every lane, lane 0 with trajectories
)

// stepBatchAlloc builds a full-width steady-state gang plus a step closure
// for the batched allocation measurement.
func stepBatchAlloc(t *testing.T, n int, attach int) func() {
	t.Helper()
	lanes := BatchLanes(n)
	p, err := NewBatchProtocol(Config{
		N: n, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50},
	}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	switch attach {
	case batchMetricsPerLane:
		for r := 0; r < lanes; r++ {
			p.SetLaneMetrics(r, NewStepMetrics(metrics.New()))
		}
	case batchMetricsShared:
		reg := metrics.New()
		shared := NewStepMetrics(reg)
		for r := 0; r < lanes; r++ {
			p.SetLaneMetrics(r, shared)
		}
		lane0 := *shared
		lane0.PenaltySeries = make([]*metrics.Series, n+1)
		for j := 1; j <= n; j++ {
			lane0.PenaltySeries[j] = reg.Series(fmt.Sprintf("penalty/node%d", j), 256)
		}
		p.SetLaneMetrics(0, &lane0)
	}
	allB := p.allB
	rows := make([]BitSyndrome, n+1)
	for j := 1; j <= n; j++ {
		rows[j] = BitSyndrome{Op: allB, Known: allB}
	}
	validity := BitSyndrome{Op: allB, Known: allB}
	round := 0
	return func() {
		in := BatchRoundInput{Round: round, Rows: rows, Present: allB, Validity: validity}
		if _, err := p.StepBatch(in); err != nil {
			t.Fatal(err)
		}
		round++
	}
}

// TestStepBatchAllocs pins the batched hot path at zero steady-state
// allocations, with and without telemetry: every gang output is returned by
// value, all lane state lives in preallocated planes and the lane groups of
// the attached instruments reuse their slice, so advancing ⌊64/N⌋ runs
// costs no heap traffic at all.
func TestStepBatchAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	for _, tc := range []struct {
		name   string
		n      int
		attach int
	}{
		{"n4", 4, batchMetricsOff},
		{"n16", 16, batchMetricsOff},
		{"n4_metrics", 4, batchMetricsPerLane},
		{"n4_shared_metrics", 4, batchMetricsShared},
		{"n8_shared_metrics", 8, batchMetricsShared},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := stepBatchAlloc(t, tc.n, tc.attach)
			for i := 0; i < 16; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(200, step); avg > 0 {
				t.Fatalf("StepBatch allocates %.2f objects/round in steady state, want 0", avg)
			}
		})
	}
}

// TestVoteAllAllocs pins the word-parallel voting kernel and the packed row
// write at zero allocations.
func TestVoteAllAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	for _, n := range []int{4, 64} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			m, err := NewPackedMatrix(n)
			if err != nil {
				t.Fatal(err)
			}
			row := bitSyndromeAllHealthy(n)
			for j := 1; j <= n; j++ {
				if err := m.SetBitRow(j, row); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(200, func() {
				if _, err := m.VoteAll(); err != nil {
					t.Fatal(err)
				}
			}); avg > 0 {
				t.Fatalf("VoteAll allocates %.2f objects/op, want 0", avg)
			}
			j := 1
			if avg := testing.AllocsPerRun(200, func() {
				if err := m.SetBitRow(j, row); err != nil {
					t.Fatal(err)
				}
				j = j%n + 1
			}); avg > 0 {
				t.Fatalf("SetBitRow allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// TestCopyFromAllocs pins the zero-copy checkpoint path at exactly zero
// steady-state allocations, per run and on the gang path —
// the property that lets splitting clones checkpoint at every level
// crossing without touching the allocator.
func TestCopyFromAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	cfg := Config{
		N: 4, ID: 2, L: 0, SendCurrRound: true, Mode: ModeMembership,
		PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 4, ReintegrationThreshold: 6},
	}
	t.Run("protocol", func(t *testing.T) {
		src, err := NewProtocol(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewProtocol(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tape := copyFromTape(13, 4, 16)
		for _, in := range tape { // park src mid-run, warm state
			if _, err := src.Step(in); err != nil {
				t.Fatal(err)
			}
		}
		if err := dst.CopyFrom(src); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(200, func() {
			if err := dst.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
		}); avg > 0 {
			t.Fatalf("Protocol.CopyFrom allocates %.2f objects/op in steady state, want 0", avg)
		}
	})
	t.Run("batch", func(t *testing.T) {
		bcfg := Config{
			N: 4, ID: 2, L: 2, SendCurrRound: false,
			PR: PRConfig{PenaltyThreshold: 2, RewardThreshold: 3},
		}
		src, err := NewBatchProtocol(bcfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewBatchProtocol(bcfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(200, func() {
			if err := dst.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
		}); avg > 0 {
			t.Fatalf("BatchProtocol.CopyFrom allocates %.2f objects/op, want 0", avg)
		}
	})
}
