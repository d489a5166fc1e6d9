package core

import (
	"strconv"
	"strings"

	"ttdiag/internal/trace"
)

// trajectoryLen bounds the penalty-trajectory window rendered into an
// isolation event's Detail: the last trajectoryLen counter changes.
const trajectoryLen = 8

// StepTrace is the protocol's optional causal flight recorder: attached with
// SetTrace, it emits typed trace events — accusations with their evidence
// class, penalty-counter changes, isolations with the penalty trajectory
// that caused them, reintegrations — keyed by simulated round, on every warm
// Step/StepPacked. A Protocol with no StepTrace attached pays a single nil
// check per Step (the same nil-is-off discipline as StepMetrics), and an
// attached recorder allocates only when an event actually fires.
//
// Every emitted value derives from simulated quantities, never wall-clock
// time, and the emission order within a round is fixed (accusations, penalty
// changes in ascending node order, isolations, reintegrations). The
// accusation evidence class is checked against the byte-per-entry reference
// by TestPackedScalarTraceEquivalence.
type StepTrace struct {
	sink trace.Sink

	// prevPen mirrors the penalty counters as of the last emission so only
	// actual changes become KindPenalty events (1-based).
	prevPen []int64
	// trajRound/trajPen are flat per-node rings of the last trajectoryLen
	// (round, penalty) counter changes; trajN counts total changes per node.
	trajRound []int
	trajPen   []int64
	trajN     []int
}

// NewStepTrace wires a flight recorder to the given sink. A nil sink yields
// a recorder that discards everything; callers that want true zero overhead
// should skip SetTrace entirely in that case.
func NewStepTrace(sink trace.Sink) *StepTrace {
	if sink == nil {
		sink = trace.Discard{}
	}
	return &StepTrace{sink: sink}
}

// SetTrace attaches (or, with nil, detaches) the protocol's causal flight
// recorder. The attachment survives Reset and ResetConfig so reusable
// campaign clusters keep emitting across repetitions; the recorder is
// re-baselined on the protocol's current counter state so the attachment
// itself never masquerades as a penalty change. Events are recorded from
// whichever goroutine calls Step, so in concurrent runtimes the sink must be
// safe for concurrent use (trace.Recorder and trace.JSONLWriter are).
func (p *Protocol) SetTrace(t *StepTrace) {
	p.trace = t
	if t != nil {
		t.bind(p.b.n, p.b.pr)
	}
}

// Trace returns the attached flight recorder, nil when none.
func (p *Protocol) Trace() *StepTrace { return p.trace }

// bind sizes the recorder's state for an n-node system (idempotent) and
// re-baselines it on pr's counters.
func (t *StepTrace) bind(n int, pr *PenaltyReward) {
	if len(t.prevPen) != n+1 {
		t.prevPen = make([]int64, n+1)
		t.trajRound = make([]int, (n+1)*trajectoryLen)
		t.trajPen = make([]int64, (n+1)*trajectoryLen)
		t.trajN = make([]int, n+1)
	}
	t.resync(pr)
}

// resync re-baselines the recorder on the protocol's current counter state
// without emitting events; called after Reset, ResetConfig and CopyFrom so
// wholesale state swaps do not masquerade as penalty changes.
func (t *StepTrace) resync(pr *PenaltyReward) {
	copy(t.prevPen, pr.penalties)
	for j := range t.trajN {
		t.trajN[j] = 0
	}
}

// trajectory renders node j's recent penalty trajectory ("r16:1 r18:3
// r20:4", oldest first) for an isolation event's Detail.
func (t *StepTrace) trajectory(j int) string {
	total := t.trajN[j]
	count := total
	if count > trajectoryLen {
		count = trajectoryLen
	}
	var b strings.Builder
	b.WriteString("trajectory")
	for i := 0; i < count; i++ {
		slot := j*trajectoryLen + (total-count+i)%trajectoryLen
		b.WriteString(" r")
		b.WriteString(strconv.Itoa(t.trajRound[slot]))
		b.WriteString(":")
		b.WriteString(strconv.FormatInt(t.trajPen[slot], 10))
	}
	return b.String()
}

// emitStepTrace records one execution's causal events; called only when
// p.trace != nil, after the round's counters are updated. definite marks
// the accusations backed by a definite opinion opposite the H-maj verdict
// (as opposed to mere ε gaps where the vector holds a verdict). Cold
// executions emit nothing: there is no health vector, so no counter can
// have moved.
func (p *Protocol) emitStepTrace(out *RoundOutput, definite uint64) {
	if out.ConsHV == nil {
		return
	}
	t := p.trace
	pr := p.b.pr
	id := p.b.cfg.ID
	thr := pr.cfg.PenaltyThreshold
	for _, j := range out.Accused {
		ev := trace.EvidenceMatrix
		if definite&(1<<uint(j-1)) != 0 {
			ev = trace.EvidenceVerdict
		}
		t.sink.Record(trace.Event{
			Round:    out.Round,
			Kind:     trace.KindAccusation,
			Node:     id,
			Subject:  j,
			Evidence: ev,
		})
	}
	n := p.b.n
	for j := 1; j <= n; j++ {
		pen := pr.penalties[j]
		if pen == t.prevPen[j] {
			continue
		}
		t.prevPen[j] = pen
		slot := j*trajectoryLen + t.trajN[j]%trajectoryLen
		t.trajRound[slot] = out.Round
		t.trajPen[slot] = pen
		t.trajN[j]++
		if pen == 0 && intsContain(out.Reintegrated, j) {
			// The zeroing is part of the reintegration, reported below.
			continue
		}
		e := trace.Event{
			Round:     out.Round,
			Kind:      trace.KindPenalty,
			Node:      id,
			Subject:   j,
			Penalty:   pen,
			Threshold: thr,
		}
		if pen == 0 {
			e.Detail = "reward reset"
		}
		t.sink.Record(e)
	}
	for _, j := range out.Isolated {
		t.sink.Record(trace.Event{
			Round:     out.Round,
			Kind:      trace.KindIsolation,
			Node:      id,
			Subject:   j,
			Penalty:   pr.penalties[j],
			Threshold: thr,
			Detail:    t.trajectory(j),
		})
	}
	for _, j := range out.Reintegrated {
		t.sink.Record(trace.Event{
			Round:     out.Round,
			Kind:      trace.KindReintegration,
			Node:      id,
			Subject:   j,
			Threshold: thr,
		})
	}
}

func intsContain(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
