package core

import (
	"math/bits"

	"ttdiag/internal/invariant"
)

// The round-boundary invariants below are gated on invariant.Enabled at
// their call sites, so normal builds pay nothing; under the
// ttdiag_invariants build tag a violation panics at the first round where
// the state diverges, instead of surfacing rounds later as a failed
// equivalence test.

// checkStepInvariants asserts, for every live lane at the end of a
// StepBatch, the health-vector lag (Lemma 1), the penalty/reward bounds
// (Alg. 2), the activity mask mirroring the counters, and activity-bit
// monotonicity (bits only drop with a faulty verdict or an exceeded penalty
// threshold, and only return to 1 via the reintegration extension). Every
// path that steps the kernel — per-run protocols, campaign lanes, fleet
// shards and gateways — runs it. Each Checkf sits behind its own failing
// condition so the arguments are boxed only on a violation and the gang
// keeps its zero-allocation steady state under the tag.
func (p *BatchProtocol) checkStepInvariants(out *BatchRoundOutput) {
	id, n, lag := p.cfg.ID, p.n, p.cfg.Lag()
	if warm := p.steps >= lag; out.Warm != warm ||
		warm && out.DiagnosedRound != out.Round-lag || !warm && out.DiagnosedRound != -1 {
		invariant.Checkf(false, "core: node %d round %d: diagnosed round %d violates the lag of Lemma 1 (want %d once warm)",
			id, out.Round, out.DiagnosedRound, out.Round-lag)
	}
	c := p.pr.cfg
	for r := 0; r < p.lanes; r++ {
		for j := 1; j <= n; j++ {
			i := r*(n+1) + j
			pen, rew, obs := p.pr.penalties[i], p.pr.rewards[i], p.pr.observe[i]
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
			if p.pr.active[i] != (out.ActiveMask>>uint(r*n+j-1)&1 != 0) {
				invariant.Checkf(false, "core: node %d lane %d round %d: activity vector and mask disagree on node %d",
					id, r, out.Round, j)
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

// checkStepInvariants asserts the shape of one per-run RoundOutput:
// dissemination payload, diagnostic matrix, health vector and activity
// vector. The counter and lag invariants run inside the kernel.
func (p *Protocol) checkStepInvariants(out RoundOutput) {
	id, n := p.b.cfg.ID, p.b.n
	invariant.Checkf(out.SendSyndrome.N() == n,
		"core: node %d round %d: send syndrome covers %d nodes, want %d",
		id, out.Round, out.SendSyndrome.N(), n)
	invariant.Checkf(len(out.Send) == EncodedLen(n),
		"core: node %d round %d: dissemination payload is %d bytes, want %d",
		id, out.Round, len(out.Send), EncodedLen(n))
	if out.Matrix != nil {
		invariant.Checkf(out.Matrix.N() == n,
			"core: node %d round %d: diagnostic matrix covers %d nodes, want %d",
			id, out.Round, out.Matrix.N(), n)
		for j := 1; j <= n; j++ {
			row := out.Matrix.Row(j)
			invariant.Checkf(row == nil || row.N() == n,
				"core: node %d round %d: matrix row %d covers %d nodes, want %d",
				id, out.Round, j, row.N(), n)
		}
	}
	invariant.Checkf((out.ConsHV == nil) == (out.DiagnosedRound == -1) && (out.ConsHV == nil || out.ConsHV.N() == n),
		"core: node %d round %d: health vector %v does not match diagnosed round %d",
		id, out.Round, out.ConsHV, out.DiagnosedRound)
	invariant.Checkf(len(out.Active) == n+1,
		"core: node %d round %d: activity vector has %d entries, want %d",
		id, out.Round, len(out.Active), n+1)
}
