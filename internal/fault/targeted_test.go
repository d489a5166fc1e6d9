package fault

import (
	"bytes"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

func txAt(sched *tdma.Schedule, sender tdma.NodeID, round int, payload []byte) *tdma.Transmission {
	s, e := sched.SlotWindow(round, int(sender))
	return &tdma.Transmission{
		Sender: sender, Round: round, Slot: int(sender),
		Start: s, End: e, Payload: payload,
	}
}

func TestMaliciousSyndromeConsistentAcrossReceivers(t *testing.T) {
	m := NewMaliciousSyndrome(2, rng.NewStream(1))
	tx := txAt(paperSched, 2, 5, []byte{0xAA, 0xBB})
	in := tdma.Delivery{Valid: true, Payload: tx.Payload}
	d1 := m.Deliver(tx, 1, in)
	d3 := m.Deliver(tx, 3, in)
	d4 := m.Deliver(tx, 4, in)
	if !d1.Valid || !d3.Valid || !d4.Valid {
		t.Fatal("malicious delivery lost validity (would be benign, not malicious)")
	}
	if !bytes.Equal(d1.Payload, d3.Payload) || !bytes.Equal(d1.Payload, d4.Payload) {
		t.Fatal("receivers observed different payloads (symmetric malicious requires equality)")
	}
	if len(d1.Payload) != len(tx.Payload) {
		t.Fatalf("corrupted payload length %d, want %d (must stay locally undetectable)", len(d1.Payload), len(tx.Payload))
	}
	if m.SenderCollision(tx, false) {
		t.Fatal("malicious fault tripped the collision detector")
	}
}

func TestMaliciousSyndromeFreshPerTransmission(t *testing.T) {
	m := NewMaliciousSyndrome(2, rng.NewStream(1))
	in := tdma.Delivery{Valid: true, Payload: []byte{0, 0, 0, 0}}
	seen := make(map[string]bool)
	distinct := 0
	for round := 0; round < 32; round++ {
		tx := txAt(paperSched, 2, round, in.Payload)
		d := m.Deliver(tx, 1, in)
		if !seen[string(d.Payload)] {
			seen[string(d.Payload)] = true
			distinct++
		}
	}
	if distinct < 16 {
		t.Fatalf("only %d distinct corrupted payloads over 32 rounds", distinct)
	}
}

func TestMaliciousSyndromeScope(t *testing.T) {
	m := NewMaliciousSyndrome(2, rng.NewStream(1))
	m.FromRound, m.ToRound = 5, 8
	in := tdma.Delivery{Valid: true, Payload: []byte{0x42}}
	for _, tt := range []struct {
		round int
		want  bool // corrupted?
	}{{4, false}, {5, true}, {7, true}, {8, false}} {
		tx := txAt(paperSched, 2, tt.round, in.Payload)
		d := m.Deliver(tx, 1, in)
		corrupted := !bytes.Equal(d.Payload, in.Payload)
		if corrupted != tt.want {
			t.Errorf("round %d: corrupted = %v, want %v", tt.round, corrupted, tt.want)
		}
	}
	// Other senders untouched.
	tx := txAt(paperSched, 3, 6, in.Payload)
	if d := m.Deliver(tx, 1, in); !bytes.Equal(d.Payload, in.Payload) {
		t.Error("malicious disturbance corrupted another sender")
	}
}

func TestMaliciousSkipsInvalidDeliveries(t *testing.T) {
	m := NewMaliciousSyndrome(2, rng.NewStream(1))
	tx := txAt(paperSched, 2, 0, []byte{1})
	d := m.Deliver(tx, 1, tdma.Delivery{})
	if d.Valid {
		t.Fatal("malicious disturbance revived an invalid delivery")
	}
}

func TestReceiverBlindAsymmetry(t *testing.T) {
	rb := ReceiverBlind{Receiver: 1, Senders: []tdma.NodeID{2}, FromRound: 0, ToRound: 10}
	tx := txAt(paperSched, 2, 3, []byte{1})
	in := tdma.Delivery{Valid: true, Payload: tx.Payload}
	if d := rb.Deliver(tx, 1, in); d.Valid {
		t.Error("blinded receiver still got the message")
	}
	if d := rb.Deliver(tx, 3, in); !d.Valid {
		t.Error("unblinded receiver lost the message")
	}
	if rb.SenderCollision(tx, false) {
		t.Error("asymmetric receive fault tripped the sender's collision detector")
	}
	// Sender outside the victim set.
	tx3 := txAt(paperSched, 3, 3, []byte{1})
	if d := rb.Deliver(tx3, 1, in); !d.Valid {
		t.Error("unlisted sender's message dropped")
	}
	// Outside the round window.
	txLate := txAt(paperSched, 2, 10, []byte{1})
	if d := rb.Deliver(txLate, 1, in); !d.Valid {
		t.Error("message dropped outside the round window")
	}
}

func TestReceiverBlindAllSendersDefault(t *testing.T) {
	rb := ReceiverBlind{Receiver: 1}
	in := tdma.Delivery{Valid: true, Payload: []byte{1}}
	for sender := tdma.NodeID(2); sender <= 4; sender++ {
		tx := txAt(paperSched, sender, 0, in.Payload)
		if d := rb.Deliver(tx, 1, in); d.Valid {
			t.Errorf("sender %d not blinded by empty sender list", sender)
		}
	}
	// Own slot loop-back unaffected.
	tx := txAt(paperSched, 1, 0, in.Payload)
	if d := rb.Deliver(tx, 1, in); !d.Valid {
		t.Error("receiver's own loop-back dropped")
	}
}

func TestSOSAsymmetricSenderFault(t *testing.T) {
	s := SOS{Sender: 3, Victims: []tdma.NodeID{1, 2}, FromRound: 2, ToRound: 4}
	in := tdma.Delivery{Valid: true, Payload: []byte{1}}
	tx := txAt(paperSched, 3, 2, in.Payload)
	if d := s.Deliver(tx, 1, in); d.Valid {
		t.Error("victim 1 received the SOS frame")
	}
	if d := s.Deliver(tx, 2, in); d.Valid {
		t.Error("victim 2 received the SOS frame")
	}
	if d := s.Deliver(tx, 4, in); !d.Valid {
		t.Error("non-victim lost the frame")
	}
	if s.SenderCollision(tx, false) {
		t.Error("SOS tripped the sender's collision detector")
	}
	txOut := txAt(paperSched, 3, 5, in.Payload)
	if d := s.Deliver(txOut, 1, in); !d.Valid {
		t.Error("frame dropped outside the round window")
	}
}

func TestEveryKthRound(t *testing.T) {
	p := EveryKthRound(3, 2, 10, 30)
	in := tdma.Delivery{Valid: true, Payload: []byte{1}}
	for round := 8; round < 32; round++ {
		tx := txAt(paperSched, 3, round, in.Payload)
		want := round >= 10 && round < 30 && (round-10)%2 == 0
		d := p.Deliver(tx, 1, in)
		if got := !d.Valid; got != want {
			t.Errorf("round %d: corrupted = %v, want %v", round, got, want)
		}
		if got := p.SenderCollision(tx, false); got != want {
			t.Errorf("round %d: collision = %v, want %v", round, got, want)
		}
	}
	// Other nodes unaffected.
	tx := txAt(paperSched, 2, 12, in.Payload)
	if d := p.Deliver(tx, 1, in); !d.Valid {
		t.Error("other node's slot corrupted")
	}
}

func TestCrashIsPermanentBenign(t *testing.T) {
	p := Crash(2, 5)
	in := tdma.Delivery{Valid: true, Payload: []byte{1}}
	if d := p.Deliver(txAt(paperSched, 2, 4, in.Payload), 1, in); !d.Valid {
		t.Error("crashed before FromRound")
	}
	for _, round := range []int{5, 6, 100, 100000} {
		if d := p.Deliver(txAt(paperSched, 2, round, in.Payload), 1, in); d.Valid {
			t.Errorf("round %d: crashed node still transmitting", round)
		}
	}
}

func TestPredicateNilMatch(t *testing.T) {
	var p Predicate
	in := tdma.Delivery{Valid: true, Payload: []byte{1}}
	if d := p.Deliver(txAt(paperSched, 1, 0, in.Payload), 2, in); !d.Valid {
		t.Error("nil-match predicate corrupted a delivery")
	}
	if p.SenderCollision(txAt(paperSched, 1, 0, nil), false) {
		t.Error("nil-match predicate tripped collision")
	}
}

var _ = time.Duration(0)

func TestAdversarialSyndromeLie(t *testing.T) {
	adv := AdversarialSyndrome{Node: 2, N: 4}
	tx := txAt(paperSched, 2, 5, []byte{0x0f})
	in := tdma.Delivery{Valid: true, Payload: tx.Payload}
	d := adv.Deliver(tx, 1, in)
	if !d.Valid {
		t.Fatal("adversarial frame lost validity")
	}
	syn, err := core.DecodeSyndrome(d.Payload, 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 4; j++ {
		want := core.Faulty
		if j == 2 {
			want = core.Healthy
		}
		if syn[j] != want {
			t.Fatalf("lie[%d] = %v, want %v", j, syn[j], want)
		}
	}
	if adv.SenderCollision(tx, false) {
		t.Fatal("adversarial fault tripped the collision detector")
	}
	// Other senders and out-of-window rounds untouched.
	if d := adv.Deliver(txAt(paperSched, 3, 5, in.Payload), 1, in); !bytes.Equal(d.Payload, in.Payload) {
		t.Fatal("other sender corrupted")
	}
	scoped := AdversarialSyndrome{Node: 2, N: 4, FromRound: 10, ToRound: 12}
	if d := scoped.Deliver(txAt(paperSched, 2, 9, in.Payload), 1, in); !bytes.Equal(d.Payload, in.Payload) {
		t.Fatal("round before window corrupted")
	}
	if d := scoped.Deliver(txAt(paperSched, 2, 12, in.Payload), 1, in); !bytes.Equal(d.Payload, in.Payload) {
		t.Fatal("round after window corrupted")
	}
}

// TestBlinderContract checks the tdma.Blinder contract of the
// receiver-selective faults over every (round, sender, receiver) at N = 4
// and N = 64: Deliver makes a valid delivery invalid exactly at the
// receivers Blinded reports (bit rcv−1) and hands every other receiver the
// delivery unchanged. Bits past N (a victim id beyond the system) name no
// receiver; the bus masks them off. The lane-packed bus relies on it to replace the
// per-receiver Deliver calls with the mask.
func TestBlinderContract(t *testing.T) {
	for _, n := range []int{4, 64} {
		last := tdma.NodeID(n)
		type blinder interface {
			tdma.Disturbance
			tdma.Blinder
		}
		cases := []struct {
			name string
			d    blinder
		}{
			{"sos", SOS{Sender: 2, Victims: []tdma.NodeID{1, 3}, FromRound: 2, ToRound: 5}},
			{"sos_self_victim", SOS{Sender: 3, Victims: []tdma.NodeID{3, last, 1}, FromRound: 4, ToRound: 5}},
			{"sos_forever", SOS{Sender: last, Victims: []tdma.NodeID{2}, FromRound: 3}},
			{"sos_out_of_range_victim", SOS{Sender: 1, Victims: []tdma.NodeID{0, last + 1, 2}, FromRound: 1, ToRound: 3}},
			{"sos_no_victims", SOS{Sender: 1}},
			{"blind_all_senders", ReceiverBlind{Receiver: 2, FromRound: 3, ToRound: 6}},
			{"blind_some_senders", ReceiverBlind{Receiver: last, Senders: []tdma.NodeID{1, 3, 2}, FromRound: 1}},
			{"blind_self_listed", ReceiverBlind{Receiver: 1, Senders: []tdma.NodeID{1, last}, ToRound: 4}},
		}
		sched, err := tdma.NewSchedule(n, time.Duration(n)*625*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte{0x5A}
		for _, c := range cases {
			name, d := c.name, c.d
			blinded := 0
			for round := 0; round < 8; round++ {
				for sender := tdma.NodeID(1); sender <= last; sender++ {
					tx := txAt(sched, sender, round, payload)
					mask := d.Blinded(tx)
					if mask != 0 {
						blinded++
					}
					for rcv := tdma.NodeID(1); rcv <= last; rcv++ {
						in := tdma.Delivery{Valid: true, Payload: payload}
						got := d.Deliver(tx, rcv, in)
						blind := mask&tdma.ReceiverBit(rcv) != 0
						switch {
						case blind && (got.Valid || got.Payload != nil):
							t.Fatalf("N=%d %s round %d sender %d rcv %d: blinded receiver got %+v", n, name, round, sender, rcv, got)
						case !blind && (!got.Valid || !bytes.Equal(got.Payload, payload) || &got.Payload[0] != &payload[0]):
							t.Fatalf("N=%d %s round %d sender %d rcv %d: unblinded receiver got %+v", n, name, round, sender, rcv, got)
						}
					}
				}
			}
			if want := name != "sos_no_victims"; (blinded > 0) != want {
				t.Fatalf("N=%d %s: %d blinded transmissions, want some: %v", n, name, blinded, want)
			}
		}
	}
}
