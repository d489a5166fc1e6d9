// Package fleet is the hierarchical diagnosis layer that takes the protocol
// past the packed 64-node wall: an N-node system is partitioned into shards
// of at most core.MaxPackedN nodes, each shard runs the unchanged intra-
// cluster protocol (so word-parallel voting applies at every scale), and a
// second diagnosis level runs the same Alg. 1 pipeline over the shards
// themselves — per-shard gateways exchange bit-packed cluster-health summary
// syndromes over a gateway TDMA round and accumulate penalties/rewards one
// level up, with shards as "nodes" (the FTI-TMR interconnected-cluster
// model). Both levels run on the lane-packed cluster: equal-sized shards are
// the lanes of one sim.BatchDiagCluster, and the gateways are the nodes of a
// one-lane sim.BatchDiagCluster of their own. Gangs of shards execute in
// parallel on the internal/campaign pool with per-shard named rng streams;
// results are index-addressed and per-shard metrics registries merge through
// the commutative WorkerSet machinery, so every report is byte-identical at
// any worker count, shard execution order and lane placement.
package fleet

import (
	"fmt"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/metrics"
	"ttdiag/internal/trace"
)

// Partition splits an N-node fleet into the given number of shards, sized as
// evenly as possible (the first nodes%shards shards get one extra node). The
// split is valid only when every shard stays on the packed fast path
// (size <= core.MaxPackedN), carries enough nodes for a protocol instance
// (size >= 2), and the gateway level itself fits one machine word
// (shards <= core.MaxPackedN).
func Partition(nodes, shards int) ([]int, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 shard, got %d", shards)
	}
	if shards > core.MaxPackedN {
		return nil, fmt.Errorf("fleet: %d shards exceed the packed gateway bound %d (add a third level before going wider)", shards, core.MaxPackedN)
	}
	if nodes < 2*shards {
		return nil, fmt.Errorf("fleet: %d nodes across %d shards leaves shards below the 2-node protocol minimum", nodes, shards)
	}
	if nodes > shards*core.MaxPackedN {
		return nil, fmt.Errorf("fleet: %d nodes across %d shards would push shards past the packed bound %d (need at least %d shards)",
			nodes, shards, core.MaxPackedN, (nodes+core.MaxPackedN-1)/core.MaxPackedN)
	}
	sizes := make([]int, shards)
	base, rem := nodes/shards, nodes%shards
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return sizes, nil
}

// Config describes one hierarchical fleet campaign.
type Config struct {
	// Nodes is the fleet-wide node count.
	Nodes int
	// Shards is the number of intra-diagnosed clusters; each shard's gateway
	// is a node of the second diagnosis level. 1 disables the gateway level
	// (the degenerate single-cluster fleet, used by the equivalence tests).
	Shards int
	// Rounds is how many TDMA rounds every shard (and the gateway round
	// schedule) executes per run.
	Rounds int
	// Workers bounds the shard worker pool (campaign.Options semantics:
	// <= 0 means GOMAXPROCS, 1 recovers serial execution). Results and
	// metrics are identical at any setting.
	Workers int
	// RoundLen is the intra-shard TDMA round length; 0 scales the paper's
	// 2.5 ms prototype round by size/4 so the slot length stays constant
	// across shard sizes.
	RoundLen time.Duration
	// ShardPR tunes the intra-shard penalty/reward algorithm. Zero
	// thresholds follow the sim default (detection only, never isolate).
	ShardPR core.PRConfig
	// GatewayPR tunes the fleet-level penalty/reward accumulation over
	// shards. Zero thresholds default to detection only, like ShardPR.
	GatewayPR core.PRConfig
	// Metrics, when non-nil, receives one registry per shard plus one for
	// the gateway level (acquired serially at construction, so the merged
	// snapshot is invariant to worker count and shard order). nil keeps the
	// campaign on the zero-overhead metrics-off path.
	Metrics *metrics.WorkerSet
	// Sink, when non-nil, receives the fleet's causal events — shard-summary
	// health transitions and first gateway-level isolations — emitted during
	// the serial gateway phase of every Run, so the stream is identical at
	// any worker count. nil keeps the campaign trace-free.
	Sink trace.Sink
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 24
	}
	if c.GatewayPR.PenaltyThreshold == 0 && c.GatewayPR.RewardThreshold == 0 {
		c.GatewayPR.PenaltyThreshold = 1 << 50
		c.GatewayPR.RewardThreshold = 1 << 50
	}
	return c
}

// Validate checks the configuration (after defaulting).
func (c Config) Validate() error {
	if _, err := Partition(c.Nodes, c.Shards); err != nil {
		return err
	}
	if c.Rounds < 4 {
		return fmt.Errorf("fleet: %d rounds cannot outlast the protocol warm-up", c.Rounds)
	}
	return nil
}

// shardRoundLen returns the intra-shard TDMA round length for a shard of the
// given size.
func (c Config) shardRoundLen(size int) time.Duration {
	if c.RoundLen != 0 {
		return c.RoundLen
	}
	return defaultShardRoundLen * time.Duration(size) / 4
}
