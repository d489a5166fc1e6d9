package core

import (
	"fmt"
	"math/bits"

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

// A lane record is one lane's run state of a BatchProtocol, the per-node
// half of a lane checkpoint: CaptureLane fills it from lane r of one gang
// and RestoreLanes writes it into any lane r′ of a gang of the same node.
// It is LaneRecordLen(n) words with no pointers, so records can live side
// by side in one flat slab the garbage collector never scans. The first
// laneRecPacked(n) words are lane-packed words stored as their lane
// segment, right-aligned (bit j-1 = node j):
//
//	set, ls.Op, ls.Known, al.Op, al.Known  the read-alignment buffer the
//	                                       next step reads: presence bits,
//	                                       buffered validity vector and
//	                                       aligned local syndrome
//	lastSent.Op/Known, prevSent.Op/Known   the last two dissemination
//	                                       syndromes
//	active, attention                      the lane's activity masks
//	rows[j].Op, rows[j].Known, j = 1..n    the buffered interface variables
//
// followed by the penalty, reward and observation counters of nodes 1..n,
// n words each, stored as their bits. A record is immutable between
// captures, so one may be restored into many gangs concurrently. Lane
// records cover diagnostic mode only: the membership accusation registers
// are not part of them.
const (
	recSet = iota
	recLsOp
	recLsKnown
	recAlOp
	recAlKnown
	recLastOp
	recLastKnown
	recPrevOp
	recPrevKnown
	recActive
	recAttention
	recRows // rows[j] at recRows+2(j-1): Op, then Known
)

// laneRecPacked is the number of lane-packed words leading an n-node lane
// record; the counters follow.
func laneRecPacked(n int) int { return recRows + 2*n }

// LaneRecordLen returns the length in words of one lane record of an n-node
// system.
func LaneRecordLen(n int) int { return laneRecPacked(n) + 3*n }

// checkLaneRecords validates that lane records are supported and that the
// lanes of a capture or restore are live.
func (p *BatchProtocol) checkLaneRecords(lanes uint64) error {
	if p.cfg.Mode == ModeMembership {
		return fmt.Errorf("core: node %d: lane records cover diagnostic mode only", p.cfg.ID)
	}
	if live := uint64(1)<<uint(p.lanes) - 1; lanes&^live != 0 {
		return fmt.Errorf("core: node %d: lanes %#x outside 0..%d", p.cfg.ID, lanes, p.lanes-1)
	}
	return nil
}

// CaptureLane copies lane `lane`'s run state into rec, a lane record of
// LaneRecordLen(N) words, overwriting it: the read-alignment buffer the
// next step reads, the sent syndromes and the lane's counters and masks.
// Telemetry and trace attachments are not state. Membership-mode protocols
// are refused. Zero allocations.
func (p *BatchProtocol) CaptureLane(lane int, rec []uint64) error {
	if lane < 0 || lane >= p.lanes {
		return fmt.Errorf("core: node %d: lane %d outside 0..%d", p.cfg.ID, lane, p.lanes-1)
	}
	if err := p.checkLaneRecords(1 << uint(lane)); err != nil {
		return err
	}
	n := p.n
	if len(rec) != LaneRecordLen(n) {
		return fmt.Errorf("core: node %d: lane record of %d words, want %d", p.cfg.ID, len(rec), LaneRecordLen(n))
	}
	sh := uint(lane * n)
	all := p.laneAll
	rd := &p.pbufs[p.steps&1]
	rec[recSet] = rd.set >> sh & all
	rec[recLsOp], rec[recLsKnown] = rd.ls.Op>>sh&all, rd.ls.Known>>sh&all
	rec[recAlOp], rec[recAlKnown] = rd.al.Op>>sh&all, rd.al.Known>>sh&all
	rec[recLastOp], rec[recLastKnown] = p.lastSentB.Op>>sh&all, p.lastSentB.Known>>sh&all
	rec[recPrevOp], rec[recPrevKnown] = p.prevSentB.Op>>sh&all, p.prevSentB.Known>>sh&all
	rec[recActive], rec[recAttention] = p.pr.activeMask>>sh&all, p.pr.attention>>sh&all
	rows := rec[recRows:laneRecPacked(n)]
	for j := 1; j <= n; j++ {
		rows[2*j-2], rows[2*j-1] = rd.rows[j].Op>>sh&all, rd.rows[j].Known>>sh&all
	}
	counters, base := rec[laneRecPacked(n):], lane*(n+1)+1
	for j, v := range p.pr.penalties[base : base+n] {
		counters[j] = uint64(v)
	}
	for j, v := range p.pr.rewards[base : base+n] {
		counters[n+j] = uint64(v)
	}
	for j, v := range p.pr.observe[base : base+n] {
		counters[2*n+j] = uint64(v)
	}
	return nil
}

// RestoreLanes overwrites the run state of every lane in the mask `lanes`
// (bit r = lane r) with a lane record, leaving every other lane untouched;
// each restored lane then steps exactly as its captured lane would have.
// recs[i][at:] holds the record of the i-th lane of the mask in lane order,
// so a caller may pass records embedded at a fixed offset in larger ones.
// Each lane-packed word is assembled from every record (GatherLanes) and
// written once. The alignment buffer is written into the half this gang
// reads next, which follows its own step parity, not the source's. Both
// gangs must be warm (past the diagnosis lag) or both cold: warm-up is
// gang-wide. The HealthyRows hint buffered with the rows is cleared for
// every row a restored segment does not keep all-Healthy. Attached lane recorders re-baseline on the restored
// counters; under ttdiag_invariants the activity history of the restored
// lanes re-baselines too (a restore may bring an isolated node back), and
// every restored lane is re-captured and compared with its record.
// Membership-mode protocols are refused. Zero allocations after the first
// restore.
func (p *BatchProtocol) RestoreLanes(lanes uint64, recs [][]uint64, at int) error {
	if err := p.checkLaneRecords(lanes); err != nil {
		return err
	}
	n := p.n
	if len(recs) != bits.OnesCount64(lanes) {
		return fmt.Errorf("core: node %d: %d lane records for %d lanes", p.cfg.ID, len(recs), bits.OnesCount64(lanes))
	}
	size := LaneRecordLen(n)
	packed := laneRecPacked(n)
	for i, rec := range recs {
		if at < 0 || len(rec) < at+size {
			return fmt.Errorf("core: node %d: lane record %d holds %d words, want %d from word %d", p.cfg.ID, i, len(rec), size, at)
		}
	}
	var segs uint64 // every restored lane's node bits
	for i, m := 0, lanes; m != 0; i, m = i+1, m&(m-1) {
		lane := bits.TrailingZeros64(m)
		segs |= p.laneAll << uint(lane*n)
		rec, base := recs[i][at:at+size], lane*(n+1)+1
		active, counters := rec[recActive], rec[packed:packed+3*n]
		pen, rew, obs, act := p.pr.penalties[base:base+n], p.pr.rewards[base:base+n], p.pr.observe[base:base+n], p.pr.active[base:base+n]
		for j := range pen {
			pen[j], rew[j], obs[j] = int64(counters[j]), int64(counters[n+j]), int64(counters[2*n+j])
			act[j] = active>>uint(j)&1 != 0
		}
	}
	if p.restoreAcc == nil {
		p.restoreAcc = make([]uint64, packed)
	}
	acc := p.restoreAcc
	GatherLanes(acc, lanes, recs, at, n)
	put := func(w uint64, o int) uint64 { return w&^segs | acc[o] }
	rd := &p.pbufs[p.steps&1]
	rd.set = put(rd.set, recSet)
	rd.ls = BitSyndrome{Op: put(rd.ls.Op, recLsOp), Known: put(rd.ls.Known, recLsKnown)}
	rd.al = BitSyndrome{Op: put(rd.al.Op, recAlOp), Known: put(rd.al.Known, recAlKnown)}
	p.lastSentB = BitSyndrome{Op: put(p.lastSentB.Op, recLastOp), Known: put(p.lastSentB.Known, recLastKnown)}
	p.prevSentB = BitSyndrome{Op: put(p.prevSentB.Op, recPrevOp), Known: put(p.prevSentB.Known, recPrevKnown)}
	p.pr.activeMask = put(p.pr.activeMask, recActive)
	p.pr.attention = put(p.pr.attention, recAttention)
	for j := 1; j <= n; j++ {
		o := recRows + 2*j - 2
		op, known := acc[o], acc[o+1]
		rd.rows[j] = BitSyndrome{Op: rd.rows[j].Op&^segs | op, Known: rd.rows[j].Known&^segs | known}
		if op&known != segs {
			rd.healthy &^= 1 << uint(j-1)
		}
	}
	for m := p.tracedLanes & lanes; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		p.traces[lane].resync(p.pr, lane)
	}
	if invariant.Enabled {
		p.invPrevActive = put(p.invPrevActive, recActive)
		for i, m := 0, lanes; m != 0; i, m = i+1, m&(m-1) {
			p.checkRestoredLane(bits.TrailingZeros64(m), recs[i][at:at+size])
		}
	}
	return nil
}

// GatherLanes assembles lane-packed words from lane records, the
// restoring half of a gang-wide refill: acc[o] becomes the OR, over the
// lanes r of the mask, of recs[i][at+o] shifted to lane r's segment of an
// n-node plane, where recs[i] is the record of the i-th lane of the mask.
// Each record's words are read once, in order.
func GatherLanes(acc []uint64, lanes uint64, recs [][]uint64, at, n int) {
	if lanes == 0 {
		clear(acc)
		return
	}
	sh := uint(bits.TrailingZeros64(lanes) * n)
	for o, v := range recs[0][at : at+len(acc)] {
		acc[o] = v << sh
	}
	for i, m := 1, lanes&(lanes-1); m != 0; i, m = i+1, m&(m-1) {
		sh := uint(bits.TrailingZeros64(m) * n)
		for o, v := range recs[i][at : at+len(acc)] {
			acc[o] |= v << sh
		}
	}
}
