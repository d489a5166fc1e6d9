package fault

import (
	"ttdiag/internal/core"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// MaliciousSyndrome replaces the payload of one node's transmissions with
// random (but per-transmission consistent) garbage while leaving the frames
// locally undetectable: a symmetric malicious faulty sender. All receivers
// observe the same wrong value, and the sender's collision detector does not
// trip (the frame is syntactically fine on the bus).
//
// This reproduces the Sec. 8 experiment class "one malicious node sending
// random local syndromes".
type MaliciousSyndrome struct {
	// Node is the malicious sender.
	Node tdma.NodeID
	// FromRound and ToRound bound the malicious behaviour; transmissions in
	// [FromRound, ToRound) are corrupted. ToRound <= 0 means "forever".
	FromRound, ToRound int

	stream *rng.Stream
	// cache keeps the corrupted payload of the current transmission so that
	// every receiver of one broadcast observes the same value.
	cacheRound, cacheSlot int
	cachePayload          []byte
	cacheSet              bool
}

var (
	_ tdma.Disturbance = (*MaliciousSyndrome)(nil)
	_ tdma.Quieter     = (*MaliciousSyndrome)(nil)
)

// NewMaliciousSyndrome builds the disturbance with its own random stream.
func NewMaliciousSyndrome(node tdma.NodeID, stream *rng.Stream) *MaliciousSyndrome {
	return &MaliciousSyndrome{Node: node, stream: stream}
}

func (m *MaliciousSyndrome) active(tx *tdma.Transmission) bool {
	if tx.Sender != m.Node || tx.Round < m.FromRound {
		return false
	}
	return m.ToRound <= 0 || tx.Round < m.ToRound
}

// Deliver implements tdma.Disturbance.
func (m *MaliciousSyndrome) Deliver(tx *tdma.Transmission, _ tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if !m.active(tx) || !d.Valid {
		return d
	}
	if !m.cacheSet || m.cacheRound != tx.Round || m.cacheSlot != tx.Slot {
		// Same length as the genuine payload keeps the frame syntactically
		// valid (locally undetectable), as the malicious class requires.
		// The buffer is reused from the last corrupted transmission: a
		// delivery's payload is read within its slot (decoded, copied into
		// the controller or a trace event), never kept past it.
		if len(m.cachePayload) != len(d.Payload) {
			m.cachePayload = make([]byte, len(d.Payload))
		}
		m.stream.Bytes(m.cachePayload)
		m.cacheRound, m.cacheSlot, m.cacheSet = tx.Round, tx.Slot, true
	}
	d.Payload = m.cachePayload
	return d
}

// QuietUntil implements tdma.Quieter: other senders are never touched,
// Node until FromRound and from ToRound on.
func (m *MaliciousSyndrome) QuietUntil(tx *tdma.Transmission) tdma.Wake {
	return windowWake(tx, tx.Sender == m.Node, m.FromRound, m.ToRound)
}

// windowWake answers tdma.Quieter for a disturbance that touches tx.Sender
// (when sender holds) in the rounds [from, to) only, to <= 0 meaning
// "forever".
func windowWake(tx *tdma.Transmission, sender bool, from, to int) tdma.Wake {
	switch {
	case !sender || (to > 0 && tx.Round >= to):
		return tdma.WakeNever
	case tx.Round < from:
		return tdma.Wake{Round: from, At: tdma.WakeNever.At}
	}
	return tdma.Wake{}
}

// SenderCollision implements tdma.Disturbance: malicious content does not
// trip local detection anywhere, including at the sender.
func (m *MaliciousSyndrome) SenderCollision(_ *tdma.Transmission, collided bool) bool {
	return collided
}

// ReceiverBlind makes one receiver unable to receive from a set of senders
// during a round interval, while every other receiver is unaffected: an
// asymmetric fault. It models the clique-detection setup of Sec. 8, where
// the disturbance node sits between Node 1 and the rest of the cluster and
// disconnects the bus during the sending slot of at least another node.
type ReceiverBlind struct {
	// Receiver is the node that cannot hear.
	Receiver tdma.NodeID
	// Senders lists the senders whose slots are invisible to Receiver; an
	// empty list means all senders other than Receiver itself.
	Senders []tdma.NodeID
	// FromRound and ToRound bound the fault; rounds in [FromRound, ToRound)
	// are affected. ToRound <= 0 means "forever".
	FromRound, ToRound int
}

var (
	_ tdma.Disturbance = ReceiverBlind{}
	_ tdma.Blinder     = ReceiverBlind{}
	_ tdma.Quieter     = ReceiverBlind{}
)

func (rb ReceiverBlind) matches(tx *tdma.Transmission, rcv tdma.NodeID) bool {
	if rcv != rb.Receiver || tx.Sender == rb.Receiver {
		return false
	}
	if tx.Round < rb.FromRound || (rb.ToRound > 0 && tx.Round >= rb.ToRound) {
		return false
	}
	return rb.blinds(tx.Sender)
}

// blinds reports whether the fault's sender set holds sender.
func (rb ReceiverBlind) blinds(sender tdma.NodeID) bool {
	if len(rb.Senders) == 0 {
		return true
	}
	for _, s := range rb.Senders {
		if sender == s {
			return true
		}
	}
	return false
}

// QuietUntil implements tdma.Quieter: senders outside the fault's set are
// never touched, the others until FromRound and from ToRound on.
func (rb ReceiverBlind) QuietUntil(tx *tdma.Transmission) tdma.Wake {
	return windowWake(tx, tx.Sender != rb.Receiver && rb.blinds(tx.Sender), rb.FromRound, rb.ToRound)
}

// Deliver implements tdma.Disturbance.
func (rb ReceiverBlind) Deliver(tx *tdma.Transmission, rcv tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if rb.matches(tx, rcv) {
		return tdma.Delivery{}
	}
	return d
}

// Blinded implements tdma.Blinder: the one blind receiver, while the fault
// covers tx.
func (rb ReceiverBlind) Blinded(tx *tdma.Transmission) uint64 {
	if rb.matches(tx, rb.Receiver) {
		return tdma.ReceiverBit(rb.Receiver)
	}
	return 0
}

// SenderCollision implements tdma.Disturbance: the sender's side of the bus
// is intact, so its collision detector stays quiet — precisely what makes
// the fault asymmetric.
func (rb ReceiverBlind) SenderCollision(_ *tdma.Transmission, collided bool) bool {
	return collided
}

// SOS (Slightly-Off-Specification) corrupts one sender's transmissions for a
// fixed subset of receivers: the sender's clock sits at the edge of the
// allowed offset, so its messages are seen as timely only by the remaining
// receivers (Sec. 4). Unlike ReceiverBlind it is a *sender* fault, but the
// observable effect is the same asymmetric class.
type SOS struct {
	// Sender is the slightly-off-specification node.
	Sender tdma.NodeID
	// Victims are the receivers that locally detect the fault.
	Victims []tdma.NodeID
	// FromRound and ToRound bound the fault as in ReceiverBlind.
	FromRound, ToRound int
}

var (
	_ tdma.Disturbance = SOS{}
	_ tdma.Blinder     = SOS{}
	_ tdma.Quieter     = SOS{}
)

func (s SOS) active(tx *tdma.Transmission) bool {
	return tx.Sender == s.Sender && tx.Round >= s.FromRound && (s.ToRound <= 0 || tx.Round < s.ToRound)
}

// QuietUntil implements tdma.Quieter: other senders are never touched,
// Sender until FromRound and from ToRound on.
func (s SOS) QuietUntil(tx *tdma.Transmission) tdma.Wake {
	return windowWake(tx, tx.Sender == s.Sender, s.FromRound, s.ToRound)
}

// Deliver implements tdma.Disturbance.
func (s SOS) Deliver(tx *tdma.Transmission, rcv tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if !s.active(tx) {
		return d
	}
	for _, v := range s.Victims {
		if rcv == v {
			return tdma.Delivery{}
		}
	}
	return d
}

// Blinded implements tdma.Blinder: the victims, while the fault covers tx.
func (s SOS) Blinded(tx *tdma.Transmission) uint64 {
	if !s.active(tx) {
		return 0
	}
	var m uint64
	for _, v := range s.Victims {
		m |= tdma.ReceiverBit(v)
	}
	return m
}

// SenderCollision implements tdma.Disturbance: an SOS sender reads its own
// message back fine.
func (s SOS) SenderCollision(_ *tdma.Transmission, collided bool) bool { return collided }

// AdversarialSyndrome replaces one node's disseminated syndromes with the
// worst-case lie instead of random bits: it accuses every other node and
// declares itself healthy. Against H-maj this is the strongest symmetric-
// malicious strategy (random bits waste half their votes agreeing with the
// truth), so it exercises the Lemma 2 margin exactly at its edge.
type AdversarialSyndrome struct {
	// Node is the malicious sender.
	Node tdma.NodeID
	// FromRound and ToRound bound the behaviour; ToRound <= 0 = forever.
	FromRound, ToRound int
	// N is the system size (needed to forge the payload).
	N int
}

var _ tdma.Disturbance = AdversarialSyndrome{}

// Deliver implements tdma.Disturbance.
func (a AdversarialSyndrome) Deliver(tx *tdma.Transmission, _ tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if tx.Sender != a.Node || !d.Valid {
		return d
	}
	if tx.Round < a.FromRound || (a.ToRound > 0 && tx.Round >= a.ToRound) {
		return d
	}
	lie := core.NewSyndrome(a.N, core.Faulty)
	lie[int(a.Node)] = core.Healthy
	d.Payload = lie.Encode()
	return d
}

// SenderCollision implements tdma.Disturbance.
func (a AdversarialSyndrome) SenderCollision(_ *tdma.Transmission, collided bool) bool {
	return collided
}
