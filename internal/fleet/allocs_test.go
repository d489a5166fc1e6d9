// Allocation-ceiling regression tests for the fleet hot path. The race
// detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package fleet

import (
	"testing"

	"ttdiag/internal/invariant"
	"ttdiag/internal/rng"
)

// TestFleetRunAllocs pins the steady-state allocation budget of a whole
// fleet repetition. Shard workers and their lane-packed clusters are
// recycled across repetitions, so the shard phase allocates nothing: the
// count must not depend on the shard size (one 16-lane gang of 4-node shards
// against sixteen single-lane gangs of 64-node shards). What remains is the
// gateway phase's one health-vector row per diagnosed round and a fixed set
// of result headers. Lost gateway frames cost nothing more: the campaign
// refills one fault.Train in place (its bursts arrive in start order, so it
// merges them without sorting), and a whole-shard outage plus a transient
// gateway fault allocate exactly what a quiet repetition does.
func TestFleetRunAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	const s, rounds, headers = 16, 12, 40
	allocs := func(nodes int, hooks Hooks) float64 {
		c, err := New(Config{Nodes: nodes, Shards: s, Rounds: rounds, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewSource(1)
		run := func() {
			if _, err := c.Run(src, hooks); err != nil {
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
	small, large := allocs(4*s, Hooks{}), allocs(64*s, Hooks{})
	drops := allocs(64*s, Hooks{GatewayDrop: func(round, g int) bool {
		return g == 3 && round >= 5 || g == 2 && round >= 4 && round < 6
	}})
	if small != large {
		t.Errorf("a repetition allocates %.1f times with 4-node shards but %.1f with 64-node shards; the shard phase must allocate nothing", small, large)
	}
	if ceiling := float64(rounds + headers); large > ceiling {
		t.Errorf("a repetition allocates %.1f times, want <= %.0f", large, ceiling)
	}
	if drops > large {
		t.Errorf("a repetition with lost gateway frames allocates %.1f times, want <= %.0f: the gateway fault.Train is refilled in place", drops, large)
	}
}
