package core

import (
	"fmt"
	"math/bits"
)

// PRConfig tunes the penalty/reward algorithm (Alg. 2 and Sec. 9).
type PRConfig struct {
	// PenaltyThreshold is P: a node is isolated once its penalty counter
	// exceeds P.
	PenaltyThreshold int64
	// RewardThreshold is R: after R consecutive fault-free rounds (while
	// carrying a non-zero penalty) the node's counters are reset — earlier
	// faults are no longer correlated with later ones.
	RewardThreshold int64
	// Criticalities[i] is s_i, the penalty increment of node i: the maximum
	// criticality level of the applications hosted on the node (Table 2).
	// 1-based; entry 0 is ignored. An empty slice means every node has
	// criticality 1.
	Criticalities []int64
	// ReintegrationThreshold enables the extension suggested in Sec. 9:
	// isolated nodes are kept under observation and reintegrated after this
	// many consecutive fault-free rounds. Zero disables reintegration
	// (the paper's baseline behaviour: activity bits only ever go to 0).
	ReintegrationThreshold int64
}

// Validate checks the configuration for an n-node system.
func (c PRConfig) Validate(n int) error {
	if c.PenaltyThreshold < 0 {
		return fmt.Errorf("core: penalty threshold %d must be >= 0", c.PenaltyThreshold)
	}
	if c.RewardThreshold < 1 {
		return fmt.Errorf("core: reward threshold %d must be >= 1", c.RewardThreshold)
	}
	if c.ReintegrationThreshold < 0 {
		return fmt.Errorf("core: reintegration threshold %d must be >= 0", c.ReintegrationThreshold)
	}
	if len(c.Criticalities) != 0 && len(c.Criticalities) != n+1 {
		return fmt.Errorf("core: criticalities has %d entries, want %d (1-based) or none", len(c.Criticalities), n+1)
	}
	for j := 1; j < len(c.Criticalities); j++ {
		if c.Criticalities[j] < 1 {
			return fmt.Errorf("core: criticality of node %d is %d, must be >= 1", j, c.Criticalities[j])
		}
	}
	return nil
}

func (c PRConfig) criticality(j int) int64 {
	if j < len(c.Criticalities) {
		return c.Criticalities[j]
	}
	return 1
}

// PenaltyReward is the per-node instance of Alg. 2: it accumulates the
// consistent health vectors into penalty and reward counters and decides
// isolation. Because every obedient node feeds it the same (consistently
// agreed) health vectors, all obedient nodes take identical isolation
// decisions in the same round.
type PenaltyReward struct {
	cfg       PRConfig
	n         int
	penalties []int64
	rewards   []int64
	active    []bool
	// observe counts consecutive fault-free rounds of isolated nodes for
	// the optional reintegration extension.
	observe []int64
	// activeMask mirrors active[] as a bit mask (bit j-1 = node j).
	activeMask uint64
	// attention marks the nodes for which a Healthy verdict is not a no-op:
	// active nodes paying off a penalty (rewards must advance) and isolated
	// nodes under reintegration observation. Together with the round's
	// faulty columns it bounds the masked update to the nodes whose
	// counters can actually move — zero in the fault-free steady state.
	attention uint64
}

// NewPenaltyReward builds the algorithm state for an n-node system; all
// counters start at zero and every node starts active. n is bounded by
// MaxPackedN like every flat system.
func NewPenaltyReward(n int, cfg PRConfig) (*PenaltyReward, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: penalty/reward needs n >= 1, got %d", n)
	}
	if err := checkFlatN(n); err != nil {
		return nil, err
	}
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	pr := &PenaltyReward{
		cfg:       cfg,
		n:         n,
		penalties: make([]int64, n+1),
		rewards:   make([]int64, n+1),
		active:    make([]bool, n+1),
		observe:   make([]int64, n+1),
	}
	pr.Reset()
	return pr, nil
}

// Reset zeroes all counters and returns every node to active, restoring the
// freshly constructed state while keeping the allocated counter slices.
func (pr *PenaltyReward) Reset() {
	for j := 1; j <= pr.n; j++ {
		pr.penalties[j] = 0
		pr.rewards[j] = 0
		pr.observe[j] = 0
		pr.active[j] = true
	}
	pr.activeMask = PlaneMask(pr.n)
	pr.attention = 0
}

// ResetConfig swaps in a new tuning configuration and resets all counters.
// The node count is fixed at construction time.
func (pr *PenaltyReward) ResetConfig(cfg PRConfig) error {
	if err := cfg.Validate(pr.n); err != nil {
		return err
	}
	pr.cfg = cfg
	pr.Reset()
	return nil
}

// Update applies one consistent health vector (Alg. 2) and folds the result
// into the activity vector (Alg. 1 line 15: active ← active AND curr_act).
// It returns the nodes that transitioned in this round: isolated lists nodes
// whose activity bit dropped to 0, reintegrated (extension) lists nodes that
// returned to service.
func (pr *PenaltyReward) Update(consHV Syndrome) (isolated, reintegrated []int, err error) {
	if consHV.N() != pr.n {
		return nil, nil, fmt.Errorf("core: health vector covers %d nodes, want %d", consHV.N(), pr.n)
	}
	for i := 1; i <= pr.n; i++ {
		iso, reint := pr.UpdateNode(i, consHV[i])
		if iso {
			isolated = append(isolated, i)
		}
		if reint {
			reintegrated = append(reintegrated, i)
		}
	}
	return isolated, reintegrated, nil
}

// UpdateNode applies one agreed verdict about a single node (used by the
// low-latency per-slot variant, where verdicts arrive one slot at a time).
// It reports whether the node transitioned to isolated or, under the
// extension, back to active.
func (pr *PenaltyReward) UpdateNode(i int, health Opinion) (isolated, reintegrated bool) {
	if i < 1 || i > pr.n {
		return false, false
	}
	isolated, reintegrated = pr.updateNode(i, health)
	pr.syncMask(i)
	return isolated, reintegrated
}

// updateMasked is Update on a packed health vector: faultyMask marks the
// columns the consistent health vector holds Faulty (every other column is
// Healthy — the fallback of Alg. 1 line 14 leaves no ⊥ entries). Only the
// faulty columns and the attention set are visited; for every other node the
// verdict is Healthy and the update is a no-op by construction (active with
// a zero penalty, or isolated without the reintegration extension).
func (pr *PenaltyReward) updateMasked(faultyMask uint64) (isolated, reintegrated []int) {
	for rem := faultyMask | pr.attention; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem) + 1
		health := Healthy
		if faultyMask&(rem&-rem) != 0 {
			health = Faulty
		}
		iso, reint := pr.updateNode(i, health)
		pr.syncMask(i)
		if iso {
			isolated = append(isolated, i)
		}
		if reint {
			reintegrated = append(reintegrated, i)
		}
	}
	return isolated, reintegrated
}

// syncMask refreshes node i's bits in activeMask and attention after a
// counter update.
func (pr *PenaltyReward) syncMask(i int) {
	bit := uint64(1) << uint(i-1)
	if pr.active[i] {
		pr.activeMask |= bit
	} else {
		pr.activeMask &^= bit
	}
	needs := !pr.active[i] && pr.cfg.ReintegrationThreshold > 0 ||
		pr.active[i] && pr.penalties[i] > 0
	if needs {
		pr.attention |= bit
	} else {
		pr.attention &^= bit
	}
}

// rebuildMasks recomputes activeMask and attention from the counter slices
// (used after a snapshot restore replaces them).
func (pr *PenaltyReward) rebuildMasks() {
	pr.activeMask, pr.attention = 0, 0
	for i := 1; i <= pr.n; i++ {
		pr.syncMask(i)
	}
}

// updateNode is UpdateNode without the mask bookkeeping.
func (pr *PenaltyReward) updateNode(i int, health Opinion) (isolated, reintegrated bool) {
	if !pr.active[i] {
		// Extension: observation of isolated nodes.
		if pr.cfg.ReintegrationThreshold > 0 {
			if health == Faulty {
				pr.observe[i] = 0
				return false, false
			}
			pr.observe[i]++
			if pr.observe[i] >= pr.cfg.ReintegrationThreshold {
				pr.active[i] = true
				pr.penalties[i] = 0
				pr.rewards[i] = 0
				pr.observe[i] = 0
				return false, true
			}
		}
		return false, false
	}
	if health == Faulty {
		pr.penalties[i] += pr.cfg.criticality(i)
		pr.rewards[i] = 0
		if pr.penalties[i] > pr.cfg.PenaltyThreshold {
			pr.active[i] = false
			pr.observe[i] = 0
			return true, false
		}
		return false, false
	}
	if pr.penalties[i] > 0 {
		pr.rewards[i]++
		if pr.rewards[i] >= pr.cfg.RewardThreshold {
			pr.penalties[i] = 0
			pr.rewards[i] = 0
		}
	}
	return false, false
}

// Active returns a copy of the activity vector (1-based).
func (pr *PenaltyReward) Active() []bool {
	return append([]bool(nil), pr.active...)
}

// ActiveMask returns the activity vector as a bit mask (bit j-1 = node j
// active).
func (pr *PenaltyReward) ActiveMask() uint64 {
	return pr.activeMask
}

// IsActive reports whether node j is currently active (not isolated).
func (pr *PenaltyReward) IsActive(j int) bool {
	if j < 1 || j > pr.n {
		return false
	}
	return pr.active[j]
}

// Penalty returns node j's penalty counter.
func (pr *PenaltyReward) Penalty(j int) int64 {
	if j < 1 || j > pr.n {
		return 0
	}
	return pr.penalties[j]
}

// Reward returns node j's reward counter.
func (pr *PenaltyReward) Reward(j int) int64 {
	if j < 1 || j > pr.n {
		return 0
	}
	return pr.rewards[j]
}
