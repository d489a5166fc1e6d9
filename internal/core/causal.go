package core

import (
	"math/bits"
	"strconv"
	"strings"

	"ttdiag/internal/trace"
)

// trajectoryLen bounds the penalty-trajectory window rendered into an
// isolation event's Detail: the last trajectoryLen counter changes.
const trajectoryLen = 8

// StepTrace is the kernel's optional causal flight recorder for one lane:
// attached with BatchProtocol.SetLaneTrace (Protocol.SetTrace is lane 0 of
// the one-lane view), it emits typed trace events — accusations with their
// evidence class, penalty-counter changes, isolations with the penalty
// trajectory that caused them, reintegrations — keyed by simulated round, on
// every warm step of its lane. A kernel with no lane traced pays a single
// mask check per step (the same nil-is-off discipline as StepMetrics), and
// an attached recorder allocates only when an event actually fires.
//
// Every emitted value derives from simulated quantities, never wall-clock
// time, and the emission order within a round is fixed (accusations, penalty
// changes in ascending node order, isolations, reintegrations). The
// accusation evidence class is checked against the byte-per-entry reference
// by TestPackedScalarTraceEquivalence, and each gang lane's stream against
// its per-run twin by TestBatchStepEquivalence.
type StepTrace struct {
	sink trace.Sink

	// prevPen mirrors the lane's penalty counters as of the last emission
	// so only actual changes become KindPenalty events (1-based).
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
// recorder: SetLaneTrace on the one-lane kernel. The attachment survives
// Reset so reusable campaign clusters keep emitting across repetitions.
// Events are recorded from whichever goroutine calls Step, so in concurrent
// runtimes the sink must be safe for concurrent use (trace.Recorder and
// trace.JSONLWriter are).
func (p *Protocol) SetTrace(t *StepTrace) { p.b.SetLaneTrace(0, t) }

// SetLaneTrace attaches (or, with nil, detaches) lane `lane`'s causal flight
// recorder; the lane's events are exactly what a per-run protocol stepping
// that lane's inputs records. The attachment survives Reset, and the
// recorder is re-baselined on the lane's current counters — at attachment,
// Reset and CopyFrom — so neither the attachment nor a wholesale state swap
// masquerades as a penalty change. A recorder serves one lane at a time.
func (p *BatchProtocol) SetLaneTrace(lane int, t *StepTrace) {
	if p.traces == nil {
		if t == nil {
			return
		}
		p.traces = make([]*StepTrace, p.capLanes)
	}
	p.traces[lane] = t
	bit := uint64(1) << uint(lane)
	p.tracedLanes &^= bit
	if t != nil {
		p.tracedLanes |= bit
		t.bind(p.n)
		t.resync(p.pr, lane)
	}
}

// resyncTraces re-baselines every attached lane recorder on its lane's
// counters without emitting events.
func (p *BatchProtocol) resyncTraces() {
	for rem := p.tracedLanes; rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros64(rem)
		p.traces[lane].resync(p.pr, lane)
	}
}

// emitTraces records one warm gang execution's causal events into the
// recorders of the traced lanes among live (bit r·N), each from its own
// lane segment.
func (p *BatchProtocol) emitTraces(out *BatchRoundOutput, live uint64) {
	for rem := p.tracedLanes; rem != 0; rem &= rem - 1 {
		if lane := bits.TrailingZeros64(rem); live>>uint(lane*p.n)&1 != 0 {
			p.traces[lane].emit(p, out, lane)
		}
	}
}

// bind sizes the recorder's state for an n-node system (idempotent).
func (t *StepTrace) bind(n int) {
	if len(t.prevPen) != n+1 {
		t.prevPen = make([]int64, n+1)
		t.trajRound = make([]int, (n+1)*trajectoryLen)
		t.trajPen = make([]int64, (n+1)*trajectoryLen)
		t.trajN = make([]int, n+1)
	}
}

// resync re-baselines the recorder on lane `lane`'s counters and forgets
// the trajectories.
func (t *StepTrace) resync(pr *PenaltyReward, lane int) {
	base := lane * (pr.n + 1)
	copy(t.prevPen, pr.penalties[base:base+pr.n+1])
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

// emit records lane `lane`'s causal events of one warm execution, after
// the round's counters are updated: accusations (definite ones, backed by a
// definite opinion opposite the H-maj verdict, as opposed to mere ε gaps
// where the vector holds a verdict), penalty changes, isolations and
// reintegrations. Cold executions emit nothing: there is no health vector,
// so no counter can have moved.
func (t *StepTrace) emit(p *BatchProtocol, out *BatchRoundOutput, lane int) {
	n := p.n
	id := p.cfg.ID
	thr := p.pr.cfg.PenaltyThreshold
	pens := p.pr.penalties[lane*(n+1) : (lane+1)*(n+1)]
	definite := laneExtract(out.DefiniteMask, lane, n)
	reintegrated := laneExtract(out.ReintegratedMask, lane, n)
	for rem := laneExtract(out.AccusedMask, lane, n); rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		ev := trace.EvidenceMatrix
		if definite&rem&-rem != 0 {
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
	for j := 1; j <= n; j++ {
		pen := pens[j]
		if pen == t.prevPen[j] {
			continue
		}
		t.prevPen[j] = pen
		slot := j*trajectoryLen + t.trajN[j]%trajectoryLen
		t.trajRound[slot] = out.Round
		t.trajPen[slot] = pen
		t.trajN[j]++
		if pen == 0 && reintegrated&(1<<uint(j-1)) != 0 {
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
	for rem := laneExtract(out.IsolatedMask, lane, n); rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		t.sink.Record(trace.Event{
			Round:     out.Round,
			Kind:      trace.KindIsolation,
			Node:      id,
			Subject:   j,
			Penalty:   pens[j],
			Threshold: thr,
			Detail:    t.trajectory(j),
		})
	}
	for rem := reintegrated; rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		t.sink.Record(trace.Event{
			Round:     out.Round,
			Kind:      trace.KindReintegration,
			Node:      id,
			Subject:   j,
			Threshold: thr,
		})
	}
}
