package core

// ShardSummary is the cluster-health summary a shard's gateway disseminates
// at the inter-cluster level of a hierarchical fleet: how large the shard is,
// how many of its nodes the intra-shard protocol has isolated, and how many
// the latest consistent health vector holds faulty. It is the payload the
// gateway appends to its fleet-level syndrome (21 bits: three 7-bit counts,
// each at most MaxPackedN) — the fleet analogue of the per-node opinion, but
// carrying enough detail for capacity planning (a shard that has burned
// through its 2a+2s+b+1 margin is flagged before it fails).
type ShardSummary struct {
	// Size is the shard's node count (1..MaxPackedN).
	Size int
	// Isolated is how many shard nodes the intra-shard penalty/reward
	// algorithm has isolated (0..Size).
	Isolated int
	// Faulty is how many entries of the shard's latest consistent health
	// vector are Faulty (0..Size); zero while the shard protocol warms up.
	Faulty int
}

// Health folds the summary into a fleet-level opinion about the shard:
// Faulty once isolations have consumed the shard's majority margin (half or
// more of its nodes isolated, so intra-shard voting can no longer outvote a
// coincident fault), Healthy otherwise, Erased for the zero value.
func (s ShardSummary) Health() Opinion {
	if s.Size <= 0 {
		return Erased
	}
	if 2*s.Isolated >= s.Size {
		return Faulty
	}
	return Healthy
}

// Degraded reports whether the shard currently carries any isolation or open
// fault verdict — the "attention" bit of fleet dashboards.
func (s ShardSummary) Degraded() bool { return s.Isolated > 0 || s.Faulty > 0 }
