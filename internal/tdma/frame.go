package tdma

import (
	"math"
	"time"
)

// Transmission describes one broadcast of a node's interface variable in its
// sending slot, including its window on the simulated-time axis so that
// continuous-time disturbances (bursts with arbitrary phase) can decide
// whether they overlap it.
type Transmission struct {
	// Sender is the transmitting node; in this model slot s belongs to
	// node s, so Slot == int(Sender).
	Sender NodeID
	// Round is the 0-based TDMA round of the transmission.
	Round int
	// Slot is the 1-based sending slot.
	Slot int
	// Start and End delimit the slot window on the simulated clock; all
	// times are simulated nanoseconds from simulation start.
	Start, End time.Duration
	// Payload is the transmitted value of the sender's interface variable.
	Payload []byte
}

// Delivery is what one receiver observes for one transmission.
type Delivery struct {
	// Valid mirrors the validity bit set by the receiver's communication
	// controller: true iff the message passed local error detection
	// (syntactically correct, timely).
	Valid bool
	// Payload is the observed value. It equals the transmitted payload for
	// fault-free deliveries, may differ under malicious faults, and is nil
	// when Valid is false.
	Payload []byte
}

// Disturbance perturbs the behaviour of the bus. Implementations live in
// package fault; the zero set of disturbances yields a perfect bus.
//
// A Disturbance is applied as a filter chain: it receives the delivery as
// decided so far and returns the (possibly degraded) delivery. Conforming
// implementations only ever degrade a delivery (clear validity, corrupt the
// payload); they never restore validity, since a broadcast bus cannot
// un-corrupt a frame.
type Disturbance interface {
	// Deliver transforms the delivery of tx observed by receiver rcv.
	Deliver(tx *Transmission, rcv NodeID, d Delivery) Delivery
	// SenderCollision transforms the sender-side collision-detector verdict
	// for tx: true means the sender's controller could not read its own
	// message back from the bus.
	SenderCollision(tx *Transmission, collided bool) bool
}

// Blinder is an optional interface of receiver-selective disturbances, the
// asymmetric class of Sec. 4: the disturbance makes tx locally detectable
// at some receivers and leaves every other delivery untouched. Blinded
// returns those receivers as a mask, bit rcv−1 for receiver rcv (1..64),
// and must agree with Deliver: Deliver(tx, rcv, d) is invalid exactly when
// bit rcv−1 is set and returns d unchanged otherwise. A bus that evaluates
// a chain once per transmission rather than once per receiver (the
// lane-packed sim.BatchDiagCluster) uses the mask as per-receiver validity.
type Blinder interface {
	Blinded(tx *Transmission) uint64
}

// Quieter is an optional interface of disturbances that can say ahead of
// time how long they leave a sender alone. QuietUntil returns a Wake that
// bounds a run of tx.Sender's transmissions, from tx on, which the
// disturbance leaves untouched: for every transmission tx′ of that sender
// with tx′.Start ≥ tx.Start that the Wake covers,
//
//   - Deliver returns its input delivery, for every receiver;
//   - SenderCollision returns its input verdict;
//   - Blinded, on a Blinder, returns 0;
//   - the disturbance's own state does not change: no random draw, no
//     cache update.
//
// The answer may be conservative — the zero Wake covers nothing and is
// always correct — but it must never cover a transmission the disturbance
// touches. A bus that folds untouched transmissions in without calling the
// chain (the lane-packed sim.BatchDiagCluster) asks again only once a
// transmission runs past the returned Wake.
type Quieter interface {
	QuietUntil(tx *Transmission) Wake
}

// Wake is a Quieter's answer: it covers the transmissions whose Round is
// below Round and whose window ends by At. The zero Wake covers nothing.
type Wake struct {
	Round int
	At    time.Duration
}

// WakeNever is the Wake of a disturbance that never touches the sender
// again.
var WakeNever = Wake{Round: math.MaxInt, At: math.MaxInt64}

// Covers reports whether w covers tx.
func (w Wake) Covers(tx *Transmission) bool { return tx.Round < w.Round && tx.End <= w.At }

// Min returns the Wake that covers exactly what both w and o cover.
func (w Wake) Min(o Wake) Wake { return Wake{Round: min(w.Round, o.Round), At: min(w.At, o.At)} }

// Quiets reports whether d answers QuietUntil: it is a Quieter, and a
// Disturbances chain only when every member does. A bus that skips quiet
// transmissions asks this once per chain, not once per slot.
func Quiets(d Disturbance) bool {
	if ds, ok := d.(Disturbances); ok {
		for _, m := range ds {
			if !Quiets(m) {
				return false
			}
		}
		return true
	}
	_, ok := d.(Quieter)
	return ok
}

// ReceiverBit returns the Blinder mask bit of receiver rcv: bit rcv−1 for
// receivers 1..64, zero for any other id.
func ReceiverBit(rcv NodeID) uint64 {
	if rcv < 1 || rcv > 64 {
		return 0
	}
	return 1 << uint(rcv-1)
}

// Disturbances composes several disturbances, applied in order.
type Disturbances []Disturbance

var (
	_ Disturbance = Disturbances(nil)
	_ Quieter     = Disturbances(nil)
)

// Deliver applies every disturbance in order.
func (ds Disturbances) Deliver(tx *Transmission, rcv NodeID, d Delivery) Delivery {
	for _, dist := range ds {
		d = dist.Deliver(tx, rcv, d)
	}
	return d
}

// SenderCollision applies every disturbance in order.
func (ds Disturbances) SenderCollision(tx *Transmission, collided bool) bool {
	for _, dist := range ds {
		collided = dist.SenderCollision(tx, collided)
	}
	return collided
}

// QuietUntil implements Quieter: the minimum over the members' Wakes. A
// member that is not a Quieter has no answer, and neither has the chain:
// the zero Wake (see Quiets).
func (ds Disturbances) QuietUntil(tx *Transmission) Wake {
	w := WakeNever
	for _, dist := range ds {
		q, ok := dist.(Quieter)
		if !ok {
			return Wake{}
		}
		if w = w.Min(q.QuietUntil(tx)); !w.Covers(tx) {
			return Wake{}
		}
	}
	return w
}
