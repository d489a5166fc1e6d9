package core

import "ttdiag/internal/metrics"

// StepMetrics bundles the per-node protocol instruments one Protocol (or
// one lane of a BatchProtocol) emits into on every step. All fields are
// optional: a nil instrument is skipped (metrics.Counter et al. are nil-safe
// no-ops), and a protocol with no StepMetrics attached pays a single branch
// — zero extra allocations — per step.
//
// Every emitted value derives from simulated quantities (rounds, counts,
// penalty counters), never from wall-clock time, so attached metrics keep
// the bit-identical campaign contract intact. Emission happens on the warm
// path with mask arithmetic only; the Step allocation ceilings hold with
// metrics attached (see allocs_test.go).
type StepMetrics struct {
	// Steps counts protocol executions.
	Steps *metrics.Counter
	// Vote-outcome counts, one increment per matrix column per warm round,
	// classified from the H-maj tally (Eqn. 1): ⊥ when no opinions at all,
	// Faulty on a strict majority, Healthy otherwise. VotesTied counts the
	// Healthy verdicts that were exact non-zero ties.
	VotesHealthy *metrics.Counter
	VotesFaulty  *metrics.Counter
	VotesBottom  *metrics.Counter
	VotesTied    *metrics.Counter
	// Disagreements counts definite matrix opinions that differ from the
	// round's agreed health vector (syndrome disagreement).
	Disagreements *metrics.Counter
	// MatrixQuiet counts the warm executions whose installed matrix was
	// all-Healthy and fully Known — the rounds whose vote the kernel skips.
	MatrixQuiet *metrics.Counter
	// Accusations counts minority accusations raised (membership mode), and
	// Isolations/Reintegrations count penalty/reward threshold crossings.
	Accusations    *metrics.Counter
	Isolations     *metrics.Counter
	Reintegrations *metrics.Counter
	// PenaltyMax is the high watermark of every node's penalty counter as
	// seen by this protocol instance.
	PenaltyMax *metrics.Gauge
	// PenaltySeries, when non-nil, records node j's penalty counter after
	// every warm execution as a (diagnosed round, penalty) point in
	// PenaltySeries[j] (1-based; nil entries are skipped). Attach the
	// trajectory variant to ONE observer of ONE run only — series cannot be
	// merged across registries, and every obedient observer sees the same
	// counters anyway (Theorem 1 consistency).
	PenaltySeries []*metrics.Series
}

// NewStepMetrics wires a StepMetrics to the registry under the standard
// protocol instrument names. A nil registry yields a StepMetrics whose
// instruments are all nil (every update a no-op); callers that want true
// zero overhead should skip SetMetrics entirely in that case.
func NewStepMetrics(reg *metrics.Registry) *StepMetrics {
	return &StepMetrics{
		Steps:          reg.Counter("protocol/steps"),
		VotesHealthy:   reg.Counter("vote/healthy"),
		VotesFaulty:    reg.Counter("vote/faulty"),
		VotesBottom:    reg.Counter("vote/bottom"),
		VotesTied:      reg.Counter("vote/tied"),
		Disagreements:  reg.Counter("matrix/disagreements"),
		MatrixQuiet:    reg.Counter("matrix/quiet"),
		Accusations:    reg.Counter("membership/accusations"),
		Isolations:     reg.Counter("pr/isolations"),
		Reintegrations: reg.Counter("pr/reintegrations"),
		PenaltyMax:     reg.Gauge("pr/penalty_max"),
	}
}

// SetMetrics attaches (or, with nil, detaches) the protocol's telemetry.
// The attachment survives Reset so reusable campaign clusters keep
// accumulating across repetitions; pass nil to stop emitting.
// The instruments are updated from whichever goroutine calls Step, so in
// concurrent runtimes each protocol needs instruments from its own
// registry, merged after the run (see internal/metrics).
func (p *Protocol) SetMetrics(m *StepMetrics) { p.b.SetLaneMetrics(0, m) }

// Metrics returns the attached telemetry, nil when none.
func (p *Protocol) Metrics() *StepMetrics {
	if p.b.metrics == nil {
		return nil
	}
	return p.b.metrics[0]
}
