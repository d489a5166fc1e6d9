package core

import "fmt"

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
// configurations may differ — dst adopts src's. Telemetry attachments
// (SetMetrics) are per-instance and deliberately not copied.
func (p *Protocol) CopyFrom(src *Protocol) error {
	if p == src {
		return nil
	}
	if p.cfg.N != src.cfg.N {
		return fmt.Errorf("core: CopyFrom across system sizes (dst N=%d, src N=%d)", p.cfg.N, src.cfg.N)
	}
	p.cfg = src.cfg
	p.steps = src.steps

	// Only the buffer the next Step will read carries live state; the other
	// one is fully rewritten (set/ls/al, rows gated by set) before it is
	// ever read again, so copying it would be dead work.
	dst, from := &p.bufs[p.steps&1], &src.bufs[src.steps&1]
	copy(dst.rows, from.rows)
	dst.set, dst.ls, dst.al = from.set, from.ls, from.al
	p.lastSent = src.lastSent
	p.prevSent = src.prevSent

	copy(p.accuse, src.accuse)
	copy(p.accusedAge, src.accusedAge)
	p.accuseMask = src.accuseMask
	p.agingMask = src.agingMask

	p.pr.copyFrom(src.pr)

	// The invariant-build activity history is observation state, not run
	// state; dropping it skips one round of the monotonicity check after a
	// restore, exactly like RestoreProtocol.
	p.invPrevActive = nil
	// An attached flight recorder re-baselines on the copied counters so the
	// wholesale state swap does not masquerade as penalty changes.
	if p.trace != nil {
		p.trace.resync(p.pr)
	}
	return nil
}

// copyFrom overwrites pr's counters and masks with src's. Both must be sized
// for the same n (guaranteed by Protocol.CopyFrom's N check). The config is
// copied by value; its Criticalities slice — the only reference field — is
// read-only after validation, so sharing the header is safe.
func (pr *PenaltyReward) copyFrom(src *PenaltyReward) {
	pr.cfg = src.cfg
	copy(pr.penalties, src.penalties)
	copy(pr.rewards, src.rewards)
	copy(pr.active, src.active)
	copy(pr.observe, src.observe)
	pr.activeMask = src.activeMask
	pr.attention = src.attention
}

// CopyFrom is Protocol.CopyFrom for the gang path: it overwrites this batch
// protocol's run state — every lane's — with src's. Both instances must have
// been built for the same N (which fixes the lane capacity); dst adopts
// src's configuration and live lane count. Per-lane telemetry attachments
// are not copied. Zero allocations.
func (p *BatchProtocol) CopyFrom(src *BatchProtocol) error {
	if p == src {
		return nil
	}
	if p.n != src.n {
		return fmt.Errorf("core: batch CopyFrom across system sizes (dst N=%d, src N=%d)", p.n, src.n)
	}
	p.cfg = src.cfg
	p.lanes = src.lanes
	p.steps = src.steps
	p.laneRep, p.allB, p.selfB, p.lowB, p.laneAll = src.laneRep, src.allB, src.selfB, src.lowB, src.laneAll

	// As on the per-run path, only the read buffer is live state; op/know
	// are per-round scratch fully rewritten by the next warm StepBatch.
	dst, from := &p.pbufs[p.steps&1], &src.pbufs[src.steps&1]
	copy(dst.rows, from.rows)
	dst.set, dst.ls, dst.al = from.set, from.ls, from.al
	p.lastSentB = src.lastSentB
	p.prevSentB = src.prevSentB

	p.pr.cfg = src.pr.cfg
	p.pr.lanes = src.pr.lanes
	copy(p.pr.penalties, src.pr.penalties)
	copy(p.pr.rewards, src.pr.rewards)
	copy(p.pr.observe, src.pr.observe)
	copy(p.pr.active, src.pr.active)
	p.pr.activeMask = src.pr.activeMask
	p.pr.attention = src.pr.attention

	// snapAccuse/snapAge hold the constant diagnostic-mode accusation state
	// (no accusations ever) and never change after construction — skip.
	return nil
}
