package core

import (
	"fmt"
	"math"
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

// PenaltyReward is Alg. 2: it accumulates the consistent health vectors into
// penalty and reward counters and decides isolation. Because every obedient
// node feeds it the same (consistently agreed) health vectors, all obedient
// nodes take identical isolation decisions in the same round.
//
// One instance carries the counters of one or more lanes (independent runs of
// the same node, see BatchProtocol). Lane r's counter of node j lives at
// index r·(n+1)+j of the flat slices, so lane 0 has exactly the per-node
// 1-based layout; the activity and attention masks are lane-packed (bit
// r·n + j-1). The exported accessors and updates address lane 0, which is
// the whole state of a stand-alone instance (NewPenaltyReward) and of a
// Protocol's.
//
// The masked update works by events: a Healthy verdict on a node under
// attention only advances its reward (active) or observation (isolated)
// counter by one, so that counter is kept implicitly as the stored value
// plus the masked updates applied since it was written (tick − stamp). A
// masked update visits only the faulty columns and the nodes whose window
// is filed to close at this tick (a small deadline wheel, plus a far set
// swept at its earliest deadline); every reader materialises the
// effective counters.
type PenaltyReward struct {
	cfg PRConfig
	n   int
	// lanes is the number of live lanes; the slices are sized for the
	// instance's lane capacity.
	lanes     int
	penalties []int64
	rewards   []int64
	// observe counts consecutive fault-free rounds of isolated nodes for
	// the optional reintegration extension.
	observe []int64
	// activeMask is the activity vector, lane-packed: bit r·n + j-1 is set
	// iff node j is active in lane r.
	activeMask uint64
	// attention marks the nodes for which a Healthy verdict is not a no-op:
	// active nodes paying off a penalty (rewards must advance) and isolated
	// nodes under reintegration observation. Together with the round's
	// faulty columns it bounds the masked update to the nodes whose
	// counters can actually move — zero in the fault-free steady state.
	attention uint64
	// tick counts the masked updates applied. stamp[i] is the tick at
	// which the reward or observation counter at flat index i was last
	// written: a node under attention holds rewards[i] (active) or
	// observe[i] (isolated) plus tick − stamp[i]; every other node holds
	// its stored counters, and its stamp is never read.
	tick  int64
	stamp []int64
	// wheel[d % wheelLen] marks the nodes under attention whose window
	// closes at tick d, filed less than wheelLen ticks ahead; far marks
	// the ones filed further ahead, and farNext is no later than the
	// earliest of their deadlines (math.MaxInt64 when none can close). A
	// fault or a close leaves an entry stale; visiting it re-files the
	// node at its true deadline, so every node under attention stays
	// filed no later than its deadline.
	wheel   [wheelLen]uint64
	far     uint64
	farNext int64
	// touched marks the positions whose counters or activity may differ
	// from a fresh instance's, in any lane since the last reset, so a
	// reset zeroes only those.
	touched uint64
	// raised marks the positions whose penalty may have risen since the
	// last warm emitMetrics took it, so the telemetry's penalty watermark
	// is recomputed only where it can move.
	raised uint64
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
	return newPenaltyReward(n, 1, cfg)
}

// newPenaltyReward builds the counters of `lanes` runs of an n-node system
// (n·lanes <= MaxPackedN), all live.
func newPenaltyReward(n, lanes int, cfg PRConfig) (*PenaltyReward, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	w := lanes * (n + 1)
	counters := make([]int64, 4*w)
	pr := &PenaltyReward{
		cfg:       cfg,
		n:         n,
		penalties: counters[:w:w],
		rewards:   counters[w : 2*w : 2*w],
		observe:   counters[2*w : 3*w : 3*w],
		stamp:     counters[3*w:],
	}
	pr.reset(lanes)
	return pr, nil
}

// Reset zeroes all counters and returns every node to active, restoring the
// freshly constructed state while keeping the allocated counter slices.
func (pr *PenaltyReward) Reset() { pr.reset(pr.lanes) }

// reset is Reset with a new live lane count (at most the capacity). Only
// the touched positions differ from the fresh state, in any lane.
func (pr *PenaltyReward) reset(lanes int) {
	for rem := pr.touched; rem != 0; rem &= rem - 1 {
		pos := bits.TrailingZeros64(rem)
		i := pos + pos/pr.n + 1 // lane·(n+1) + j
		pr.penalties[i], pr.rewards[i], pr.observe[i] = 0, 0, 0
	}
	pr.lanes = lanes
	pr.touched, pr.raised = 0, 0
	pr.activeMask = laneReplicator(pr.n, lanes) * PlaneMask(pr.n)
	pr.attention = 0
	pr.wheel, pr.far, pr.farNext = [wheelLen]uint64{}, 0, math.MaxInt64
}

// laneReplicator returns the lane replicator of a gang of `lanes` n-node
// lanes (bit r·n for every lane r): multiplying an n-bit mask by it copies
// the mask into every lane.
func laneReplicator(n, lanes int) uint64 {
	var rep uint64
	for r := 0; r < lanes; r++ {
		rep |= 1 << uint(r*n)
	}
	return rep
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
// extension, back to active. It is eager and does not advance the tick: a
// Healthy verdict materialises the node's counter one step on and stores
// it.
func (pr *PenaltyReward) UpdateNode(i int, health Opinion) (isolated, reintegrated bool) {
	if i < 1 || i > pr.n {
		return false, false
	}
	bit := uint64(1) << uint(i-1)
	if health == Faulty {
		return pr.fault(i, i, bit), false
	}
	if pr.attention&bit == 0 {
		return false, false // no window open: a Healthy verdict moves nothing
	}
	reward, observe := pr.counters(i, bit)
	if pr.activeMask&bit != 0 {
		if reward++; reward >= pr.cfg.RewardThreshold {
			return false, pr.closeWindow(i, bit)
		}
	} else if observe++; observe >= pr.cfg.ReintegrationThreshold {
		return false, pr.closeWindow(i, bit)
	}
	pr.rewards[i], pr.observe[i], pr.stamp[i] = reward, observe, pr.tick
	pr.file(bit, pr.deadline(i, bit))
	return false, false
}

// updateMasked is Update on lane-packed health vectors, one more tick:
// faultyMask marks the columns the consistent health vectors hold Faulty
// (every other column is Healthy — the fallback of Alg. 1 line 14 leaves
// no ⊥ entries). A Healthy verdict is a no-op for every node outside the
// attention set (active with a zero penalty, or isolated without the
// reintegration extension) and only advances the implicit counter of one
// inside it, so the update visits the faulty columns, plus the nodes
// filed to close at this tick. Verdicts on distinct nodes commute, so the
// windows close before the faults apply; a fault re-files its node.
// Ascending bit order is lane-major and, within a lane, ascending node
// order.
func (pr *PenaltyReward) updateMasked(faultyMask uint64) (isolated, reintegrated uint64) {
	pr.tick++
	if pr.attention != 0 {
		// Without a window open every filed entry is stale; leaving them
		// costs one more visit when a window opens, whose visit files it
		// again.
		slot := &pr.wheel[pr.tick%wheelLen]
		due := *slot
		*slot = 0
		if pr.tick >= pr.farNext {
			due |= pr.far
			pr.far, pr.farNext = 0, math.MaxInt64
		}
		if due &= pr.attention &^ faultyMask; due != 0 {
			reintegrated = pr.closeWindows(due)
		}
	}
	// The visited positions ascend, so the lane follows them without a
	// division per node.
	lane, laneEnd := 0, pr.n
	for rem := faultyMask; rem != 0; rem &= rem - 1 {
		pos := bits.TrailingZeros64(rem)
		for pos >= laneEnd {
			lane++
			laneEnd += pr.n
		}
		bit := rem & -rem
		i := pos + lane + 1 // lane·(n+1) + j
		if pr.fault(i, pos-lane*pr.n+1, bit) {
			isolated |= bit
		}
	}
	return isolated, reintegrated
}

// closeWindows applies this tick's Healthy verdicts to the filed nodes of
// `due`, all under attention: a window whose counter reaches its threshold
// at this tick closes (the penalty of an active node is forgiven, an
// isolated node is reintegrated), and a stale entry is re-filed at its
// node's deadline. It returns the reintegrated nodes.
func (pr *PenaltyReward) closeWindows(due uint64) (reintegrated uint64) {
	lane, laneEnd := 0, pr.n
	for rem := due; rem != 0; rem &= rem - 1 {
		pos := bits.TrailingZeros64(rem)
		for pos >= laneEnd {
			lane++
			laneEnd += pr.n
		}
		bit := rem & -rem
		i := pos + lane + 1 // lane·(n+1) + j
		if d := pr.deadline(i, bit); d > pr.tick {
			pr.file(bit, d)
		} else if pr.closeWindow(i, bit) {
			reintegrated |= bit
		}
	}
	return reintegrated
}

// counters returns the effective reward and observation counters of the
// node at flat index i and lane-packed bit `bit`.
func (pr *PenaltyReward) counters(i int, bit uint64) (reward, observe int64) {
	reward, observe = pr.rewards[i], pr.observe[i]
	if pr.attention&bit != 0 {
		if pr.activeMask&bit != 0 {
			reward += pr.tick - pr.stamp[i]
		} else {
			observe += pr.tick - pr.stamp[i]
		}
	}
	return reward, observe
}

// deadline returns the tick at which the window of the node at flat index
// i under attention closes if no Faulty verdict intervenes: its reward
// (active) or observation (isolated) counter reaches its threshold one
// tick per Healthy verdict, and a counter already at the threshold closes
// at the next tick. It depends only on the stored counter and the stamp,
// not on the tick. Saturates at math.MaxInt64.
func (pr *PenaltyReward) deadline(i int, bit uint64) int64 {
	thr, v := pr.cfg.RewardThreshold, pr.rewards[i]
	if pr.activeMask&bit == 0 {
		thr, v = pr.cfg.ReintegrationThreshold, pr.observe[i]
	}
	if v >= thr {
		return pr.stamp[i] + 1
	}
	// thr − v overflows only for a negative counter; it then wraps to a
	// negative value and, like a sum past math.MaxInt64, never closes.
	if left := thr - v; left > 0 && left <= math.MaxInt64-pr.stamp[i] {
		return pr.stamp[i] + left
	}
	return math.MaxInt64
}

// closeWindow ends the window of the node under attention at flat index i
// and lane-packed bit `bit` once its counter reached its threshold: an
// active node's penalty is forgiven, an isolated node returns to service
// with fresh counters (the Sec. 9 extension). It reports a reintegration.
func (pr *PenaltyReward) closeWindow(i int, bit uint64) (reintegrated bool) {
	pr.attention &^= bit
	pr.penalties[i], pr.rewards[i] = 0, 0
	if pr.activeMask&bit != 0 {
		return false
	}
	pr.observe[i] = 0
	pr.activeMask |= bit
	return true
}

// fault applies a Faulty verdict to node j at flat index i and lane-packed
// bit `bit`, at the current tick: an active node's penalty grows by s_j and
// its reward window restarts, isolating it past P; an observed isolated
// node's observation window restarts. The restarted window is scheduled.
// It reports an isolation.
func (pr *PenaltyReward) fault(i, j int, bit uint64) (isolated bool) {
	pr.stamp[i] = pr.tick
	rt := pr.cfg.ReintegrationThreshold
	if pr.activeMask&bit == 0 {
		if rt > 0 {
			pr.observe[i] = 0
			pr.opened(bit, rt)
		}
		return false
	}
	pr.penalties[i] += pr.cfg.criticality(j)
	pr.rewards[i] = 0
	pr.touched |= bit
	pr.raised |= bit
	if pr.penalties[i] <= pr.cfg.PenaltyThreshold {
		pr.attention |= bit
		pr.opened(bit, pr.cfg.RewardThreshold)
		return false
	}
	pr.observe[i] = 0
	pr.activeMask &^= bit
	if rt > 0 {
		pr.attention |= bit
		pr.opened(bit, rt)
	} else {
		pr.attention &^= bit
	}
	return true
}

// wheelLen is the number of ticks ahead a deadline is filed in the
// wheel; later ones wait in the far set. It covers the windows that close
// every few rounds (R = 2 in the rare-event study), where a sweep of the
// far set would run on almost every tick.
const wheelLen = 8

// file schedules the window of the node at lane-packed bit `bit` to close
// at tick d, after the current one.
func (pr *PenaltyReward) file(bit uint64, d int64) {
	if d-pr.tick < wheelLen {
		pr.wheel[d%wheelLen] |= bit
		return
	}
	pr.far |= bit
	pr.farNext = min(pr.farNext, d)
}

// opened files a window of `window` ticks that opened at this tick: its
// counter starts at zero, so it closes at tick + window (never, past
// math.MaxInt64).
func (pr *PenaltyReward) opened(bit uint64, window int64) {
	d := int64(math.MaxInt64)
	if window <= math.MaxInt64-pr.tick {
		d = pr.tick + window
	}
	pr.file(bit, d)
}

// restamp takes in the lanes of the mask (bit r = lane r) after a restore
// replaced their counters and masks: their positions count as touched and
// their penalties as raised, and their nodes under attention are stamped
// at the current tick and filed at their deadlines.
func (pr *PenaltyReward) restamp(lanes uint64) {
	for m := lanes; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		seg := PlaneMask(pr.n) << uint(r*pr.n)
		pr.touched |= seg
		pr.raised |= seg
		for rem := pr.attention & seg; rem != 0; rem &= rem - 1 {
			i, bit := bits.TrailingZeros64(rem)+r+1, rem&-rem // lane·(n+1) + j
			pr.stamp[i] = pr.tick
			pr.file(bit, pr.deadline(i, bit))
		}
	}
}

// rebuildMasks takes in the activity mask `active` and recomputes the
// attention mask from it and the counter slices, then re-stamps the live
// lanes (used after a snapshot restore replaces them).
func (pr *PenaltyReward) rebuildMasks(active uint64) {
	all := laneReplicator(pr.n, pr.lanes) * PlaneMask(pr.n)
	pr.activeMask, pr.attention = active&all, 0
	for rem := all; rem != 0; rem &= rem - 1 {
		pos := bits.TrailingZeros64(rem)
		i, bit := pos+pos/pr.n+1, rem&-rem
		if on := active&bit != 0; !on && pr.cfg.ReintegrationThreshold > 0 || on && pr.penalties[i] > 0 {
			pr.attention |= bit
		}
	}
	pr.restamp(uint64(1)<<uint(pr.lanes) - 1)
}

// maxPenalty returns the largest penalty counter at the lane-packed
// positions in mask, 0 for an empty mask.
func (pr *PenaltyReward) maxPenalty(mask uint64) int64 {
	var max int64
	lane, laneEnd := 0, pr.n
	for rem := mask; rem != 0; rem &= rem - 1 {
		pos := bits.TrailingZeros64(rem)
		for pos >= laneEnd {
			lane++
			laneEnd += pr.n
		}
		if v := pr.penalties[pos+lane+1]; v > max {
			max = v
		}
	}
	return max
}

// Active returns a copy of the activity vector (1-based).
func (pr *PenaltyReward) Active() []bool { return pr.laneActive(0) }

// laneActive returns lane `lane`'s activity vector (1-based; entry 0 is
// unused and false).
func (pr *PenaltyReward) laneActive(lane int) []bool {
	active := make([]bool, pr.n+1)
	for j := 1; j <= pr.n; j++ {
		active[j] = pr.activeMask>>uint(lane*pr.n+j-1)&1 != 0
	}
	return active
}

// ActiveMask returns the activity vector as a bit mask (bit j-1 = node j
// active).
func (pr *PenaltyReward) ActiveMask() uint64 {
	return pr.activeMask & PlaneMask(pr.n)
}

// IsActive reports whether node j is currently active (not isolated).
func (pr *PenaltyReward) IsActive(j int) bool {
	if j < 1 || j > pr.n {
		return false
	}
	return pr.activeMask>>uint(j-1)&1 != 0
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
	reward, _ := pr.counters(j, 1<<uint(j-1))
	return reward
}
