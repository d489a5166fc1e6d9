package core

import (
	"fmt"

	"ttdiag/internal/invariant"
)

// CopyFrom overwrites this protocol's complete run state with src's: round
// cursor, read-alignment buffer, dissemination history, accusation state,
// and every penalty/reward counter. Afterwards the two instances are
// behaviourally indistinguishable — stepping either with the same inputs
// produces the same outputs — and share no mutable memory, so they may
// diverge freely. It is the in-memory fast path of the checkpoint/restore
// pair: equivalent to Snapshot on src followed by RestoreProtocol on p
// (pinned by a differential test), but a flat state copy with zero
// steady-state allocations instead of a JSON round-trip.
//
// Both protocols must have been built for the same N; within that shape the
// configurations may differ — dst adopts src's. Telemetry and trace
// attachments (SetMetrics, SetTrace) are per-instance and deliberately not
// copied; an attached recorder re-baselines on the copied counters.
func (p *Protocol) CopyFrom(src *Protocol) error {
	if p == src {
		return nil
	}
	if err := p.b.CopyFrom(src.b); err != nil {
		return err
	}
	p.warm = false
	return nil
}

// CopyFrom overwrites this batch protocol's run state — every live lane's —
// with src's. Both instances must have been built for the same N, and src's
// live lanes must fit this instance's capacity; dst adopts src's
// configuration and live lane count. Per-lane telemetry and trace
// attachments are not copied; attached lane recorders re-baseline on the
// copied counters, so the wholesale state swap does not masquerade as
// penalty changes. Zero allocations.
func (p *BatchProtocol) CopyFrom(src *BatchProtocol) error {
	if p == src {
		return nil
	}
	if p.n != src.n {
		return fmt.Errorf("core: CopyFrom across system sizes (dst N=%d, src N=%d)", p.n, src.n)
	}
	if src.lanes > p.capLanes {
		return fmt.Errorf("core: CopyFrom of %d lanes into a capacity of %d", src.lanes, p.capLanes)
	}
	p.cfg = src.cfg
	p.lanes = src.lanes
	p.steps = src.steps
	p.lag = src.lag
	p.laneRep, p.allB, p.selfB, p.lowB, p.laneAll = src.laneRep, src.allB, src.selfB, src.lowB, src.laneAll

	// Only the buffer the next step will read carries live state; the other
	// one is fully rewritten (set/ls/al, rows gated by set) before it is
	// ever read again, and op/know/rowSet are per-round scratch, so copying
	// them would be dead work.
	dst, from := &p.pbufs[p.steps&1], &src.pbufs[src.steps&1]
	copy(dst.rows, from.rows)
	dst.set, dst.healthy, dst.ls, dst.al = from.set, from.healthy, from.ls, from.al
	p.lastSentB = src.lastSentB
	p.prevSentB = src.prevSentB
	p.accuse, p.age, p.aging = src.accuse, src.age, src.aging

	// The config is copied by value; its Criticalities slice — the only
	// reference field — is read-only after validation, so sharing the
	// header is safe.
	w := src.lanes * (p.n + 1)
	p.pr.cfg = src.pr.cfg
	p.pr.lanes = src.pr.lanes
	copy(p.pr.penalties[:w], src.pr.penalties)
	copy(p.pr.rewards[:w], src.pr.rewards)
	copy(p.pr.observe[:w], src.pr.observe)
	copy(p.pr.active[:w], src.pr.active)
	p.pr.activeMask = src.pr.activeMask
	p.pr.attention = src.pr.attention

	// The invariant-build activity history is observation state, not run
	// state; dropping it skips one round of the monotonicity check after a
	// copy, exactly like RestoreProtocol.
	p.invHavePrev = false
	p.resyncTraces()
	return nil
}

// LaneState is one lane's run state of a BatchProtocol, the per-node half of
// a lane checkpoint: CaptureLane fills it from lane r of one gang and
// RestoreLane writes it into any lane r′ of a gang of the same node. Every
// lane-packed word is stored as its lane segment, right-aligned (bit j-1 =
// node j). A LaneState is immutable between captures, so one may be
// restored into many gangs concurrently.
type LaneState struct {
	// The read-alignment buffer the next step reads: rows[j] is the copy of
	// interface variable j (1-based), set its presence bits, ls and al the
	// buffered validity vector and aligned local syndrome.
	rows   []BitSyndrome
	set    uint64
	ls, al BitSyndrome
	// lastSent and prevSent are the last two dissemination syndromes.
	lastSent, prevSent BitSyndrome
	// The membership accusation registers (see BatchProtocol).
	accuse [accusationTTL]uint64
	age    [accusationSkew + 1]uint64
	aging  uint64
	// counters holds the penalty, reward and observation counters, n+1
	// entries each (1-based, entry 0 unused); active and attention are the
	// lane's masks.
	counters          []int64
	active, attention uint64
}

// NewLaneStates allocates count lane states for an n-node system; they
// share two backing arrays, so a whole cluster's lane checkpoint costs a
// handful of allocations.
func NewLaneStates(n, count int) []LaneState {
	w := n + 1
	rows := make([]BitSyndrome, count*w)
	counters := make([]int64, 3*count*w)
	st := make([]LaneState, count)
	for i := range st {
		st[i].rows = rows[i*w : (i+1)*w : (i+1)*w]
		st[i].counters = counters[3*i*w : 3*(i+1)*w : 3*(i+1)*w]
	}
	return st
}

// checkLane validates a lane index and a lane state's shape.
func (p *BatchProtocol) checkLane(lane int, st *LaneState) error {
	if lane < 0 || lane >= p.lanes {
		return fmt.Errorf("core: node %d: lane %d outside 0..%d", p.cfg.ID, lane, p.lanes-1)
	}
	if len(st.rows) != p.n+1 {
		return fmt.Errorf("core: node %d: lane state shaped for N=%d, want N=%d", p.cfg.ID, len(st.rows)-1, p.n)
	}
	return nil
}

// CaptureLane copies lane `lane`'s run state into st, overwriting it: the
// read-alignment buffer the next step reads, the sent syndromes, the
// accusation registers and the lane's counters and masks. Telemetry and
// trace attachments are not state. Zero allocations.
func (p *BatchProtocol) CaptureLane(lane int, st *LaneState) error {
	if err := p.checkLane(lane, st); err != nil {
		return err
	}
	n := p.n
	sh := uint(lane * n)
	seg := func(w uint64) uint64 { return (w >> sh) & p.laneAll }
	segSyn := func(b BitSyndrome) BitSyndrome { return BitSyndrome{Op: seg(b.Op), Known: seg(b.Known)} }
	rd := &p.pbufs[p.steps&1]
	w := n + 1
	base := lane * w
	pen, rew, obs := st.counters[:w], st.counters[w:2*w], st.counters[2*w:3*w]
	for j := 1; j <= n; j++ {
		st.rows[j] = segSyn(rd.rows[j])
		pen[j], rew[j], obs[j] = p.pr.penalties[base+j], p.pr.rewards[base+j], p.pr.observe[base+j]
	}
	st.set, st.ls, st.al = seg(rd.set), segSyn(rd.ls), segSyn(rd.al)
	st.lastSent, st.prevSent = segSyn(p.lastSentB), segSyn(p.prevSentB)
	for k, m := range p.accuse {
		st.accuse[k] = seg(m)
	}
	for k, m := range p.age {
		st.age[k] = seg(m)
	}
	st.aging = seg(p.aging)
	st.active, st.attention = seg(p.pr.activeMask), seg(p.pr.attention)
	return nil
}

// RestoreLane overwrites lane `lane`'s run state with st, leaving every
// other lane untouched; the lane then steps exactly as the captured lane
// would have. The alignment buffer is written into the half this gang reads
// next, which follows its own step parity, not the source's. Both gangs
// must be warm (past the diagnosis lag) or both cold: warm-up is gang-wide.
// The HealthyRows hint buffered with the rows is cleared for every row the
// restored segment does not keep all-Healthy. An attached lane recorder
// re-baselines on the restored counters; under ttdiag_invariants the
// activity history of this lane re-baselines too (a restore may bring an
// isolated node back), and the lane is re-captured and compared with st.
// Zero allocations.
func (p *BatchProtocol) RestoreLane(lane int, st *LaneState) error {
	if err := p.checkLane(lane, st); err != nil {
		return err
	}
	n := p.n
	sh := uint(lane * n)
	keep := ^(p.laneAll << sh)
	put := func(w, v uint64) uint64 { return w&keep | v<<sh }
	putSyn := func(b, v BitSyndrome) BitSyndrome {
		return BitSyndrome{Op: put(b.Op, v.Op), Known: put(b.Known, v.Known)}
	}
	rd := &p.pbufs[p.steps&1]
	w := n + 1
	base := lane * w
	pen, rew, obs := st.counters[:w], st.counters[w:2*w], st.counters[2*w:3*w]
	for j := 1; j <= n; j++ {
		row := st.rows[j]
		rd.rows[j] = putSyn(rd.rows[j], row)
		if row.Op&row.Known != p.laneAll {
			rd.healthy &^= 1 << uint(j-1)
		}
		i := base + j
		p.pr.penalties[i], p.pr.rewards[i], p.pr.observe[i] = pen[j], rew[j], obs[j]
		p.pr.active[i] = st.active>>uint(j-1)&1 != 0
	}
	rd.set, rd.ls, rd.al = put(rd.set, st.set), putSyn(rd.ls, st.ls), putSyn(rd.al, st.al)
	p.lastSentB, p.prevSentB = putSyn(p.lastSentB, st.lastSent), putSyn(p.prevSentB, st.prevSent)
	for k := range p.accuse {
		p.accuse[k] = put(p.accuse[k], st.accuse[k])
	}
	for k := range p.age {
		p.age[k] = put(p.age[k], st.age[k])
	}
	p.aging = put(p.aging, st.aging)
	p.pr.activeMask = put(p.pr.activeMask, st.active)
	p.pr.attention = put(p.pr.attention, st.attention)
	if p.tracedLanes&(1<<uint(lane)) != 0 {
		p.traces[lane].resync(p.pr, lane)
	}
	if invariant.Enabled {
		p.invPrevActive = put(p.invPrevActive, st.active)
		p.checkRestoredLane(lane, st)
	}
	return nil
}
