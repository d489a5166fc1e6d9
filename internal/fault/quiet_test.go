package fault

import (
	"bytes"
	"testing"
	"time"

	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// slotTx is sender s's transmission in round k.
func slotTx(sched *tdma.Schedule, k, s int, payload []byte) tdma.Transmission {
	start, end := sched.SlotWindow(k, s)
	return tdma.Transmission{Sender: tdma.NodeID(s), Round: k, Slot: s, Start: start, End: end, Payload: payload}
}

// checkQuietContract walks every sender's transmissions over the first
// `rounds` rounds and, at each, every later transmission of the sender the
// answer covers: there Deliver must return its input (valid or not) at
// every receiver, SenderCollision its input verdict, and Blinded 0. It
// returns how many covered transmissions it checked.
func checkQuietContract(t *testing.T, sched *tdma.Schedule, d tdma.Disturbance, rounds int) int {
	t.Helper()
	q, ok := d.(tdma.Quieter)
	if !ok || !tdma.Quiets(d) {
		t.Fatalf("%T does not answer tdma.Quieter", d)
	}
	n := sched.N()
	payload := []byte{0x5a, 0xa5}
	covered := 0
	for s := 1; s <= n; s++ {
		for k := 0; k < rounds; k++ {
			tx := slotTx(sched, k, s, payload)
			w := q.QuietUntil(&tx)
			for k2 := k; k2 < rounds; k2++ {
				tx2 := slotTx(sched, k2, s, payload)
				if !w.Covers(&tx2) {
					break
				}
				covered++
				for rcv := 1; rcv <= n; rcv++ {
					for _, in := range []tdma.Delivery{{Valid: true, Payload: payload}, {}} {
						out := d.Deliver(&tx2, tdma.NodeID(rcv), in)
						if out.Valid != in.Valid || !bytes.Equal(out.Payload, in.Payload) {
							t.Fatalf("%+v covers round %d slot %d (asked at round %d), but Deliver at %d turns %+v into %+v", w, k2, s, k, rcv, in, out)
						}
					}
				}
				for _, in := range []bool{false, true} {
					if out := d.SenderCollision(&tx2, in); out != in {
						t.Fatalf("%+v covers round %d slot %d, but SenderCollision turns %v into %v", w, k2, s, in, out)
					}
				}
				if b, ok := d.(tdma.Blinder); ok {
					if m := b.Blinded(&tx2); m != 0 {
						t.Fatalf("%+v covers round %d slot %d, but Blinded is %#b", w, k2, s, m)
					}
				}
			}
		}
	}
	return covered
}

// TestQuietContract holds every tdma.Quieter in the package to the
// contract: whatever a QuietUntil answer covers, the disturbance leaves
// untouched, and a malicious sender's stream and payload cache do not
// move. Each case also requires the answer to cover something, so a
// disturbance that never answered would not pass.
func TestQuietContract(t *testing.T) {
	sched, err := tdma.NewSchedule(4, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 14
	newMal := func(node tdma.NodeID, from, to int) *MaliciousSyndrome {
		m := NewMaliciousSyndrome(node, rng.NewStream(int64(node)))
		m.FromRound, m.ToRound = from, to
		return m
	}
	cases := []struct {
		name string
		d    tdma.Disturbance
	}{
		{"train/empty", NewTrain()},
		{"train/slots", NewTrain(SlotBurst(sched, 3, 2, 1), SlotBurst(sched, 7, 4, 6))},
		{"train/phase", NewTrain(Burst{Start: 33 * time.Millisecond, Length: 700 * time.Microsecond}, Burst{Start: 91 * time.Millisecond, Length: 25 * time.Millisecond})},
		{"train/blackout", NewTrain(Blackout(sched, 5, 2))},
		{"train/periodic", Periodic(12*time.Millisecond, 3*time.Millisecond, 17*time.Millisecond, 5)},
		{"malicious/forever", newMal(2, 0, 0)},
		{"malicious/window", newMal(3, 4, 6)},
		{"malicious/from", newMal(1, 5, 0)},
		{"malicious/empty-window", newMal(4, 6, 3)},
		{"sos/window", SOS{Sender: 2, Victims: []tdma.NodeID{1, 3}, FromRound: 3, ToRound: 5}},
		{"sos/no-victims", SOS{Sender: 4, FromRound: 2}},
		{"blind/all-senders", ReceiverBlind{Receiver: 1, FromRound: 2, ToRound: 4}},
		{"blind/some-senders", ReceiverBlind{Receiver: 3, Senders: []tdma.NodeID{2, 4}}},
		{"chain", tdma.Disturbances{NewTrain(SlotBurst(sched, 6, 3, 2)), newMal(2, 8, 10), SOS{Sender: 4, Victims: []tdma.NodeID{2}, FromRound: 1, ToRound: 2}}},
		{"chain/empty", tdma.Disturbances{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if covered := checkQuietContract(t, sched, c.d, rounds); covered == 0 {
				t.Fatalf("no transmission covered by any answer")
			}
		})
	}
	for _, c := range cases {
		m, ok := c.d.(*MaliciousSyndrome)
		if !ok {
			continue
		}
		if m.cacheSet {
			t.Fatalf("%s: covered deliveries filled the payload cache", c.name)
		}
		if got, want := m.stream.Uint64(), rng.NewStream(int64(m.Node)).Uint64(); got != want {
			t.Fatalf("%s: covered deliveries advanced the payload stream", c.name)
		}
	}
}

// TestQuietAnswers pins answers the contract alone would allow to be
// weaker: uninvolved senders are never touched, a window is quiet up to
// its first round and for good after its last, and a train is quiet up to
// its next burst's start.
func TestQuietAnswers(t *testing.T) {
	sched, err := tdma.NewSchedule(4, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	at := func(k, s int) *tdma.Transmission {
		tx := slotTx(sched, k, s, nil)
		return &tx
	}
	burst := SlotBurst(sched, 6, 2, 1)
	cases := []struct {
		name string
		q    tdma.Quieter
		tx   *tdma.Transmission
		want tdma.Wake
	}{
		{"train before", NewTrain(burst), at(2, 3), tdma.Wake{Round: tdma.WakeNever.Round, At: burst.Start}},
		{"train inside", NewTrain(burst), at(6, 2), tdma.Wake{}},
		{"train after", NewTrain(burst), at(6, 3), tdma.WakeNever},
		{"malicious other sender", NewMaliciousSyndrome(2, nil), at(1, 3), tdma.WakeNever},
		{"malicious before", &MaliciousSyndrome{Node: 2, FromRound: 4}, at(1, 2), tdma.Wake{Round: 4, At: tdma.WakeNever.At}},
		{"malicious inside", &MaliciousSyndrome{Node: 2, FromRound: 4, ToRound: 6}, at(5, 2), tdma.Wake{}},
		{"malicious after", &MaliciousSyndrome{Node: 2, FromRound: 4, ToRound: 6}, at(6, 2), tdma.WakeNever},
		{"sos other sender", SOS{Sender: 1, Victims: []tdma.NodeID{2}}, at(0, 2), tdma.WakeNever},
		{"blind own slot", ReceiverBlind{Receiver: 3}, at(0, 3), tdma.WakeNever},
		{"blind unlisted sender", ReceiverBlind{Receiver: 3, Senders: []tdma.NodeID{1}}, at(0, 2), tdma.WakeNever},
		{"blind listed sender", ReceiverBlind{Receiver: 3, Senders: []tdma.NodeID{1}, FromRound: 2}, at(0, 1), tdma.Wake{Round: 2, At: tdma.WakeNever.At}},
		{"chain minimum", tdma.Disturbances{NewTrain(burst), &MaliciousSyndrome{Node: 2, FromRound: 9}}, at(1, 2), tdma.Wake{Round: 9, At: burst.Start}},
		{"chain touched", tdma.Disturbances{NewTrain(burst), SOS{Sender: 2, FromRound: 1}}, at(1, 2), tdma.Wake{}},
	}
	for _, c := range cases {
		if got := c.q.QuietUntil(c.tx); got != c.want {
			t.Errorf("%s: QuietUntil = %+v, want %+v", c.name, got, c.want)
		}
	}
	// One member without an answer silences the chain's.
	chain := tdma.Disturbances{NewTrain(burst), Crash(2, 50)}
	if tdma.Quiets(chain) || tdma.Quiets(Crash(2, 50)) || tdma.Quiets(NewRandomNoise(0.1, rng.NewStream(1))) {
		t.Fatal("a chain or disturbance without an answer reports one")
	}
	if got := chain.QuietUntil(at(0, 1)); got != (tdma.Wake{}) {
		t.Fatalf("chain with a predicate answers %+v, want the zero Wake", got)
	}
	if !tdma.Quiets(tdma.Disturbances{NewTrain(), tdma.Disturbances{SOS{}}}) {
		t.Fatal("a nested chain of Quieters does not answer")
	}
}
