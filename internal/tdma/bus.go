package tdma

import (
	"fmt"

	"ttdiag/internal/trace"
)

// OutcomeClass is the ground-truth classification of one transmission under
// the Customizable Fault-Effect Model (Sec. 4): it describes the
// communication errors actually produced on the bus, independent of what any
// protocol later diagnoses. Experiments use it to audit correctness,
// completeness and consistency.
type OutcomeClass int

// Ground-truth transmission outcome classes.
const (
	// OutcomeCorrect: every receiver got the original payload, validity 1.
	OutcomeCorrect OutcomeClass = iota + 1
	// OutcomeBenign: the message was locally detectable by all receivers.
	OutcomeBenign
	// OutcomeMalicious: all receivers got the same, locally undetectable
	// but semantically incorrect message.
	OutcomeMalicious
	// OutcomeAsymmetric: the message was locally detectable by at least one
	// but not all receivers.
	OutcomeAsymmetric
)

// String returns the paper's name for the class.
func (o OutcomeClass) String() string {
	switch o {
	case OutcomeCorrect:
		return "correct"
	case OutcomeBenign:
		return "benign"
	case OutcomeMalicious:
		return "malicious"
	case OutcomeAsymmetric:
		return "asymmetric"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// TxReport is the bus's record of one slot transmission: what was sent, what
// every receiver observed, and the sender-side collision verdict.
type TxReport struct {
	Tx Transmission
	// Deliveries[r] (1-based) is what receiver r observed. The sender's own
	// entry reflects its loop-back reception.
	Deliveries []Delivery
	// Collision is the sender-side collision-detector verdict.
	Collision bool
}

// Classify returns the ground-truth outcome class of the transmission with
// respect to the receivers other than the sender.
func (r *TxReport) Classify() OutcomeClass {
	var invalid, valid, altered int
	for rcv := 1; rcv < len(r.Deliveries); rcv++ {
		if NodeID(rcv) == r.Tx.Sender {
			continue
		}
		d := r.Deliveries[rcv]
		if !d.Valid {
			invalid++
			continue
		}
		valid++
		if !bytesEqual(d.Payload, r.Tx.Payload) {
			altered++
		}
	}
	switch {
	case invalid > 0 && valid > 0:
		return OutcomeAsymmetric
	case invalid > 0:
		return OutcomeBenign
	case altered > 0:
		return OutcomeMalicious
	default:
		return OutcomeCorrect
	}
}

// Event returns the report's flight-recorder transmit event: the outcome
// class as Detail plus the deviations a replay re-simulates from (see
// trace.Event). An altered payload is copied, so the event is retain-safe.
func (r *TxReport) Event() trace.Event {
	e := trace.Event{
		At: r.Tx.Start, Round: r.Tx.Round, Kind: trace.KindTransmit, Node: int(r.Tx.Sender),
		Detail: r.Classify().String(), Collision: r.Collision,
	}
	altered := false
	for rcv := 1; rcv < len(r.Deliveries); rcv++ {
		switch d := r.Deliveries[rcv]; {
		case !d.Valid:
			e.Invalid |= ReceiverBit(NodeID(rcv))
		case !altered && !bytesEqual(d.Payload, r.Tx.Payload):
			e.Payload, altered = string(d.Payload), true
		}
	}
	return e
}

// Bus is the shared broadcast medium. It executes slot transmissions
// according to the global communication schedule, applying the configured
// disturbances per receiver, updating every attached controller, and
// reporting ground truth for audits.
type Bus struct {
	sched *Schedule
	ctrls []*Controller // 1-based by node ID
	dist  Disturbances
	sink  trace.Sink // nil: no transmit events are built

	// payloadBuf, tx and report are the bus's reusable in-flight frame: the
	// staged payload copy, the transmission handed to disturbances and the
	// per-slot transmission report are overwritten on every TransmitSlot
	// instead of allocated per slot.
	payloadBuf []byte
	tx         Transmission
	report     TxReport
}

// NewBus creates a bus for the given schedule; a nil sink records no
// events. All N controllers must be attached before the first transmission.
func NewBus(sched *Schedule, sink trace.Sink) *Bus {
	return &Bus{
		sched:  sched,
		ctrls:  make([]*Controller, sched.N()+1),
		sink:   sink,
		report: TxReport{Deliveries: make([]Delivery, sched.N()+1)},
	}
}

// Schedule returns the bus's global communication schedule.
func (b *Bus) Schedule() *Schedule { return b.sched }

// Attach registers a controller on the bus.
func (b *Bus) Attach(c *Controller) error {
	if c.N() != b.sched.N() {
		return fmt.Errorf("tdma: controller for %d nodes attached to %d-node bus", c.N(), b.sched.N())
	}
	if int(c.ID()) >= len(b.ctrls) || c.ID() < 1 {
		return fmt.Errorf("tdma: controller id %d out of range", c.ID())
	}
	if b.ctrls[c.ID()] != nil {
		return fmt.Errorf("tdma: controller %d already attached", c.ID())
	}
	b.ctrls[c.ID()] = c
	return nil
}

// Controller returns the attached controller of the given node, or nil.
func (b *Bus) Controller(id NodeID) *Controller {
	if id < 1 || int(id) >= len(b.ctrls) {
		return nil
	}
	return b.ctrls[id]
}

// AddDisturbance appends a disturbance to the bus's filter chain.
func (b *Bus) AddDisturbance(d Disturbance) { b.dist = append(b.dist, d) }

// ClearDisturbances removes all disturbances.
func (b *Bus) ClearDisturbances() { b.dist = nil }

// TransmitSlot executes the transmission of the given slot (1-based) in the
// given round (0-based): the slot owner's staged interface value is
// broadcast, each receiver's controller is updated with its (possibly
// disturbed) delivery, and the sender's collision detector is refreshed.
//
// The returned report is bus-owned scratch, overwritten by the next
// TransmitSlot — callers must not keep it across slots.
//
//ttdiag:noretain
func (b *Bus) TransmitSlot(round, slot int) (*TxReport, error) {
	if !b.sched.ValidSlot(slot) {
		return nil, fmt.Errorf("tdma: invalid slot %d", slot)
	}
	sender := b.sched.SlotOwner(slot)
	sc := b.ctrls[sender]
	if sc == nil {
		return nil, fmt.Errorf("tdma: no controller attached for node %d", sender)
	}
	start, end := b.sched.SlotWindow(round, slot)
	b.payloadBuf = append(b.payloadBuf[:0], sc.Outbox()...)
	// The transmission is built in bus-owned scratch: handing a pointer to
	// the disturbance interface would otherwise heap-allocate it every slot.
	tx := &b.tx
	*tx = Transmission{
		Sender:  sender,
		Round:   round,
		Slot:    slot,
		Start:   start,
		End:     end,
		Payload: b.payloadBuf,
	}

	report := &b.report
	report.Tx = *tx
	report.Collision = false
	for rcv := 1; rcv <= b.sched.N(); rcv++ {
		rc := b.ctrls[rcv]
		if rc == nil {
			return nil, fmt.Errorf("tdma: no controller attached for node %d", rcv)
		}
		d := Delivery{Valid: true, Payload: tx.Payload}
		d = b.dist.Deliver(tx, NodeID(rcv), d)
		if !d.Valid {
			d.Payload = nil
		}
		report.Deliveries[rcv] = d
		rc.ApplyDelivery(sender, d)
	}

	// The sender's loop-back validity is governed by its local collision
	// detector: if the message could not be read back from the bus, the
	// loop-back copy is invalid too.
	report.Collision = b.dist.SenderCollision(tx, false)
	sc.RecordCollision(round, report.Collision)
	if report.Collision {
		sc.ApplyDelivery(sender, Delivery{})
	}

	if b.sink != nil {
		b.sink.Record(report.Event())
	}
	return report, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
