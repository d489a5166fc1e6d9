// Allocation-ceiling regression tests for the fleet hot path. The race
// detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package fleet

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
	"ttdiag/internal/rng"
)

// TestGatewayRoundAllocs pins the steady-state allocation budget of one
// gateway TDMA round at zero: the one-lane gang kernel returns values, and
// frames, rows, collision ring and summary scratch are all reused.
func TestGatewayRoundAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	const s = 16
	gw, err := NewGatewayNet(s, core.PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	summaries := make([]core.ShardSummary, s)
	for i := range summaries {
		summaries[i] = core.ShardSummary{Size: 64, Isolated: i % 3, Faulty: i % 5}
	}
	round := 0
	run := func() {
		if _, err := gw.RunRound(summaries, uint64(round%3)<<4); err != nil {
			t.Fatal(err)
		}
		round++
	}
	// Warm up past the protocol warm-up and the collision ring.
	for round < 8 {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("gateway round allocates %.1f times, want 0", avg)
	}
}

// TestFleetRunAllocs pins the steady-state allocation budget of a whole
// fleet repetition. Shard workers and their lane-packed clusters are
// recycled across repetitions, so the shard phase allocates nothing: the
// count must not depend on the shard size (one 16-lane gang of 4-node shards
// against sixteen single-lane gangs of 64-node shards). What remains is the
// gateway phase's one health-vector row per diagnosed round and a fixed set
// of result headers.
func TestFleetRunAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	const s, rounds, headers = 16, 12, 40
	allocs := func(nodes int) float64 {
		c, err := New(Config{Nodes: nodes, Shards: s, Rounds: rounds, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewSource(1)
		run := func() {
			if _, err := c.Run(src, Hooks{}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm up: the first repetitions build the workers and grow the
		// health-vector arenas.
		for i := 0; i < 3; i++ {
			run()
		}
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(4*s), allocs(64*s)
	if small != large {
		t.Errorf("a repetition allocates %.1f times with 4-node shards but %.1f with 64-node shards; the shard phase must allocate nothing", small, large)
	}
	if ceiling := float64(rounds + headers); large > ceiling {
		t.Errorf("a repetition allocates %.1f times, want <= %.0f", large, ceiling)
	}
}
