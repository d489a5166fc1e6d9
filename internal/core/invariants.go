package core

import (
	"math/bits"
	"slices"

	"ttdiag/internal/invariant"
)

// The round-boundary invariants below are gated on invariant.Enabled at
// their call sites, so normal builds pay nothing; under the
// ttdiag_invariants build tag a violation panics at the first round where
// the state diverges, instead of surfacing rounds later as a failed
// equivalence test.

// checkStepInvariants asserts, for every live lane at the end of a
// StepBatch, the health-vector lag (Lemma 1), the penalty/reward bounds
// (Alg. 2), and activity-bit
// monotonicity (bits only drop with a faulty verdict or an exceeded penalty
// threshold, and only return to 1 via the reintegration extension). Every
// path that steps the kernel — per-run protocols, campaign lanes, fleet
// shards and gateways — runs it. Each Checkf sits behind its own failing
// condition so the arguments are boxed only on a violation and the gang
// keeps its zero-allocation steady state under the tag.
func (p *BatchProtocol) checkStepInvariants(out *BatchRoundOutput) {
	id, n, lag := p.cfg.ID, p.n, p.lag
	if warm := p.steps >= lag; out.Warm != warm ||
		warm && out.DiagnosedRound != out.Round-lag || !warm && out.DiagnosedRound != -1 {
		invariant.Checkf(false, "core: node %d round %d: diagnosed round %d violates the lag of Lemma 1 (want %d once warm)",
			id, out.Round, out.DiagnosedRound, out.Round-lag)
	}
	c := p.pr.cfg
	for r := 0; r < p.lanes; r++ {
		for j := 1; j <= n; j++ {
			i := r*(n+1) + j
			pen := p.pr.penalties[i]
			rew, obs := p.pr.counters(i, 1<<uint(r*n+j-1))
			if bound := c.PenaltyThreshold + c.criticality(j); pen < 0 || pen > bound {
				invariant.Checkf(false, "core: node %d lane %d round %d: penalty counter of node %d is %d, outside [0, P+s_%d] = [0, %d]",
					id, r, out.Round, j, pen, j, bound)
			}
			if rew < 0 || rew >= c.RewardThreshold {
				invariant.Checkf(false, "core: node %d lane %d round %d: reward counter of node %d is %d, outside [0, R) = [0, %d)",
					id, r, out.Round, j, rew, c.RewardThreshold)
			}
			if obs < 0 || c.ReintegrationThreshold > 0 && obs >= c.ReintegrationThreshold {
				invariant.Checkf(false, "core: node %d lane %d round %d: observation counter of node %d is %d, outside its reintegration window",
					id, r, out.Round, j, obs)
			}
		}
	}
	if p.invHavePrev {
		convicted := out.ConsKnown &^ out.ConsOp
		for rem := p.invPrevActive &^ out.ActiveMask &^ convicted; rem != 0; rem &= rem - 1 {
			pos := bits.TrailingZeros64(rem)
			if p.pr.penalties[pos+pos/n+1] <= c.PenaltyThreshold { // lane·(n+1) + j
				invariant.Checkf(false, "core: node %d lane %d round %d: node %d isolated without a faulty verdict or an exceeded penalty threshold",
					id, pos/n, out.Round, pos%n+1)
			}
		}
		if back := out.ActiveMask &^ p.invPrevActive; back != 0 && c.ReintegrationThreshold == 0 {
			pos := bits.TrailingZeros64(back)
			invariant.Checkf(false, "core: node %d lane %d round %d: node %d returned to service with reintegration disabled",
				id, pos/n, out.Round, pos%n+1)
		}
	}
	p.invPrevActive, p.invHavePrev = out.ActiveMask, true
}

// checkHealthyRows asserts that every row a shared round marks healthy is
// all-Healthy and fully Known in every live lane: a false bit would let the
// kernel skip the install of a matrix that is not quiet.
func (p *BatchProtocol) checkHealthyRows(round int, sr *SharedRound) {
	if extra := sr.healthyRows &^ p.laneAll; extra != 0 {
		invariant.Checkf(false, "core: node %d round %d: the shared round's healthy rows %#x mark rows beyond N=%d",
			p.cfg.ID, round, sr.healthyRows, p.n)
	}
	for rem := sr.healthyRows & p.laneAll; rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		if row := sr.rows[j]; row.Op&row.Known&p.allB != p.allB {
			invariant.Checkf(false, "core: node %d round %d: the shared round marks row %d healthy, but it is not all-Healthy in every lane",
				p.cfg.ID, round, j)
		}
	}
}

// checkQuietVote re-runs a quiet step the long way: it installs the matrix
// the shortcut may have skipped and requires the full vote to return what
// the shortcut assumed — all-Healthy, fully Known, no Faulty majority and no
// tie in any column.
func (p *BatchProtocol) checkQuietVote(round int, rows, held []BitSyndrome, rowSet uint64, l int) {
	all := p.allB
	acc, _ := p.install(rows, held, rowSet, l, nil, p.laneAll)
	var v laneVotes
	consOp, consKnown := voteAllLanes(p.op, p.know, p.n, p.laneRep, &v)
	if acc&all != all || consOp != all || consKnown != all || v.any != all || v.faulty != 0 || v.tied != 0 {
		invariant.Checkf(false, "core: node %d round %d: quiet shortcut disagrees with the full vote (matrix AND %#x, consistent vector %#x/%#x, faulty %#x, tied %#x)",
			p.cfg.ID, round, acc&all, consOp, consKnown, v.faulty, v.tied)
	}
}

// checkSparseInstall completes a sparse install: it installs every row of
// the shared rows' matrix, so the recount of checkTallyVote sees it whole,
// and requires every row that differs from the tallied matrix to lie in
// the installed rows of mask.
//
//ttdiag:noretain params
func (p *BatchProtocol) checkSparseInstall(round int, rows []BitSyndrome, rowSet uint64, t *SharedRound, mask uint64) {
	if _, differ := p.install(rows, nil, rowSet, 0, t, p.laneAll); differ&^mask != 0 {
		invariant.Checkf(false, "core: node %d round %d: sparse install of rows %#x missed rows %#x that differ from the tally of node %d",
			p.cfg.ID, round, mask, differ&^mask, t.owner)
	}
}

// checkTallyVote re-counts a matrix whose vote was taken from a shared
// round's tally and requires the corrected counters to equal the counts
// from scratch, so the full vote and every telemetry class read off them
// agree with the tallied ones.
func (p *BatchProtocol) checkTallyVote(healthy, faulty *[countPlanes]uint64) {
	h, f := tallyLanes(p.op, p.know, p.n, p.laneRep)
	if h != *healthy || f != *faulty {
		var got, want laneVotes
		gotOp, gotKnown := finishVote(healthy, faulty, &got)
		wantOp, wantKnown := finishVote(&h, &f, &want)
		invariant.Checkf(false, "core: node %d round %d: tallied vote disagrees with the full vote (consistent vector %#x/%#x, want %#x/%#x; faulty %#x, want %#x; tied %#x, want %#x)",
			p.cfg.ID, p.cfg.StartRound+p.steps, gotOp, gotKnown, wantOp, wantKnown, got.faulty, want.faulty, got.tied, want.tied)
	}
}

// checkStepInvariants asserts that a per-run RoundOutput's warm-up marker
// (a zero ConsHV) matches its diagnosed round; the counter and lag
// invariants run inside the kernel.
func (p *Protocol) checkStepInvariants(out RoundOutput) {
	if (out.ConsHV.Known == 0) != (out.DiagnosedRound == -1) {
		invariant.Checkf(false, "core: node %d round %d: health vector %s does not match diagnosed round %d",
			p.b.cfg.ID, out.Round, out.ConsHV.String(p.b.n), out.DiagnosedRound)
	}
}

// checkRestoredLane re-captures a lane RestoreLanes just wrote and requires
// it to equal the lane record it was restored from.
func (p *BatchProtocol) checkRestoredLane(lane int, want []uint64) {
	if p.invLane == nil {
		p.invLane = make([]uint64, LaneRecordLen(p.n))
	}
	got := p.invLane
	if err := p.CaptureLane(lane, got); err != nil {
		invariant.Checkf(false, "core: node %d: re-capturing restored lane %d: %v", p.cfg.ID, lane, err)
		return
	}
	if !slices.Equal(got, want) {
		invariant.Checkf(false, "core: node %d round %d: restored lane %d does not re-capture to the lane record it was restored from",
			p.cfg.ID, p.cfg.StartRound+p.steps, lane)
	}
}
