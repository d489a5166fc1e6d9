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
