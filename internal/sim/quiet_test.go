package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// opaque hides a disturbance's tdma.Quieter answer: a lane whose chain
// holds one runs the chain on every slot, which is the reference the quiet
// path must reproduce.
type opaque struct{ d tdma.Disturbance }

func (o opaque) Deliver(tx *tdma.Transmission, rcv tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	return o.d.Deliver(tx, rcv, d)
}

func (o opaque) SenderCollision(tx *tdma.Transmission, collided bool) bool {
	return o.d.SenderCollision(tx, collided)
}

// opaqueBlinder is opaque for a tdma.Blinder, whose receiver masks the
// gang must keep using.
type opaqueBlinder struct {
	opaque
	b tdma.Blinder
}

func (o opaqueBlinder) Blinded(tx *tdma.Transmission) uint64 { return o.b.Blinded(tx) }

func hideQuiet(d tdma.Disturbance) tdma.Disturbance {
	if b, ok := d.(tdma.Blinder); ok {
		return opaqueBlinder{opaque{d}, b}
	}
	return opaque{d}
}

// quietChains decodes fuzzer bytes into one disturbance chain per lane of
// an n-node gang: burst trains on the slot grid and at arbitrary phase,
// malicious senders, SOS senders and blind receivers in round windows, and
// predicates. Every call builds fresh instances (a malicious sender's
// payload stream is named by lane and position), so two gangs fed the same
// bytes see the same faults.
func quietChains(data []byte, sched *tdma.Schedule, lanes int) [][]tdma.Disturbance {
	n := sched.N()
	src := rng.NewSource(int64(len(data)))
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	node := func() tdma.NodeID { return tdma.NodeID(1 + next()%n) }
	window := func() (from, to int) {
		from = next() % 24
		if to = next() % 32; to%4 == 0 {
			to = 0 // forever
		}
		return from, to
	}
	chains := make([][]tdma.Disturbance, lanes)
	for lane := range chains {
		for i, count := 0, next()%4; i < count; i++ {
			var d tdma.Disturbance
			switch next() % 6 {
			case 0:
				d = fault.NewTrain(fault.SlotBurst(sched, next()%24, 1+next()%n, 1+next()%(2*n)))
			case 1:
				start := time.Duration(next()*256+next()) * sched.RoundLen() / 2048
				d = fault.NewTrain(fault.Burst{Start: start, Length: time.Duration(1+next()) * sched.SlotLen() / 16})
			case 2:
				m := fault.NewMaliciousSyndrome(node(), src.Stream(fmt.Sprintf("lane-%d/%d", lane, i)))
				m.FromRound, m.ToRound = window()
				d = m
			case 3:
				sos := fault.SOS{Sender: node(), Victims: []tdma.NodeID{node()}}
				if next()%2 == 0 {
					sos.Victims = append(sos.Victims, node())
				}
				sos.FromRound, sos.ToRound = window()
				d = sos
			case 4:
				rb := fault.ReceiverBlind{Receiver: node()}
				if next()%2 == 0 {
					rb.Senders = []tdma.NodeID{node()}
				}
				rb.FromRound, rb.ToRound = window()
				d = rb
			case 5:
				d = fault.EveryKthRound(node(), 1+next()%3, next()%24, next()%32)
			}
			chains[lane] = append(chains[lane], d)
		}
	}
	return chains
}

// runQuietTwins runs one gang with the decoded chains as they are and one
// with every disturbance's Quieter answer hidden, and requires the lanes
// to end alike: collectors, truth rows, final penalties, views and flight
// recordings.
func runQuietTwins(t *testing.T, data []byte) {
	cfgs := []ClusterConfig{
		{Ls: []int{2, 0, 3, 1}},
		{Ls: []int{2, 0, 3, 1}, PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5}},
		{N: 5, PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4, ReintegrationThreshold: 3}},
		{Ls: []int{0, 1, 2, 3}, AllSendCurrRound: true, PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5}},
		{Mode: core.ModeMembership, PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3}},
	}
	cfg := ClusterConfig{}
	if len(data) > 0 {
		cfg = cfgs[int(data[0])%len(cfgs)]
		data = data[1:]
	}
	build := func(hide bool) (*BatchDiagCluster, *trace.Recorder, int) {
		sink := new(trace.Recorder)
		c := cfg
		c.Sink = sink
		bc, err := NewBatchDiagCluster(c)
		if err != nil {
			t.Fatal(err)
		}
		width := bc.max
		for lane, chain := range quietChains(data, bc.Schedule(), width) {
			for _, d := range chain {
				if hide {
					d = hideQuiet(d)
				}
				bc.AddLaneDisturbance(lane, d)
			}
			bc.SetLaneHorizon(lane, 20+(lane*7)%17)
		}
		if err := bc.Run(); err != nil {
			t.Fatal(err)
		}
		return bc, sink, width
	}
	got, gotSink, width := build(false)
	want, wantSink, _ := build(true)
	sameLanes(t, "quiet", got, want, width)
	for lane := 0; lane < width; lane++ {
		gotSink.Reset()
		got.FlushLaneTrace(lane)
		wantSink.Reset()
		want.FlushLaneTrace(lane)
		if i := trace.FirstDivergence(gotSink.Events(), wantSink.Events()); i >= 0 {
			t.Fatalf("lane %d trace diverges at event %d: %+v vs %+v", lane, i, gotSink.Events()[i], wantSink.Events()[i])
		}
	}
}

// FuzzQuietSlots checks the quiet-slot path of BatchDiagCluster against
// the chains it skips: a gang whose disturbances answer tdma.Quieter must
// end exactly like a twin whose disturbances hide the answer, whatever mix
// of bursts, malicious and SOS senders, blind receivers and predicates the
// lanes carry.
func FuzzQuietSlots(f *testing.F) {
	f.Add([]byte{})
	// One slot burst per lane, no other fault: the Sec. 8 regime.
	f.Add([]byte{0, 1, 0, 10, 1, 2, 1, 0, 12, 3, 1, 1, 0, 5, 4, 8, 1, 1, 9, 0, 7})
	// Isolation with windows and blinders.
	f.Add([]byte{1, 3, 2, 1, 2, 9, 3, 0, 5, 2, 5, 4, 2, 1, 3, 8, 2, 4, 0, 6, 11, 3, 3, 0, 4, 3, 10, 1, 2})
	// Reintegration with a predicate beside a quiet train.
	f.Add([]byte{2, 2, 5, 2, 1, 4, 13, 0, 3, 4, 2, 1, 1, 200, 40, 9, 2, 2, 7, 1, 9, 6})
	// AllSendCurrRound, malicious senders forever and in a window.
	f.Add([]byte{3, 2, 2, 1, 0, 8, 2, 3, 5, 9, 3, 2, 4, 4, 1, 7, 1, 6, 0, 2, 3})
	// Membership views with blind receivers and bursts at phase.
	f.Add([]byte{4, 3, 4, 0, 1, 6, 10, 1, 3, 100, 7, 2, 0, 9, 4, 2, 2, 3, 4, 3, 8, 12, 3, 1, 1, 2, 3})
	for seed := int64(0); seed < 6; seed++ {
		st := rng.NewStream(seed)
		b := make([]byte, 64)
		st.Bytes(b)
		f.Add(b)
	}
	f.Fuzz(runQuietTwins)
}

// TestQuietSlotWakes pins the wake bookkeeping: a lane with a burst train
// is quiet up to the burst and asks again at it, a lane with a predicate
// is loud and never asks, an empty lane is quiet for good, and
// AddLaneDisturbance, RestoreLane and ResetBatch make a lane ask afresh;
// a restore leaves every other lane's wake and the slots' fast path alone.
func TestQuietSlotWakes(t *testing.T) {
	bc, err := NewBatchDiagCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const burstRound = 6
	bc.AddLaneDisturbance(0, fault.NewTrain(fault.SlotBurst(bc.Schedule(), burstRound, 2, 1)))
	bc.AddLaneDisturbance(1, fault.Crash(3, 100))
	for k := 0; k < 4; k++ {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	wake := func(s, lane int) int { return bc.wake[s*bc.max+lane] }
	if got := wake(2, 0); got != burstRound {
		t.Fatalf("burst lane's slot-2 wake %d, want the burst round %d", got, burstRound)
	}
	// A Train answers with the burst's start: slot 3 of the burst round
	// ends after it, so the lane asks there (and learns the burst is
	// over), while slot 1 of that round ends before it.
	if got := wake(3, 0); got != burstRound {
		t.Fatalf("burst lane's slot-3 wake %d, want %d", got, burstRound)
	}
	if got := wake(1, 0); got != burstRound+1 {
		t.Fatalf("burst lane's slot-1 wake %d, want %d", got, burstRound+1)
	}
	if got := wake(3, 1); got != 0 || bc.loudLanes != 1<<1 {
		t.Fatalf("predicate lane's wake %d, loud lanes %#b: want 0 and lane 1 alone", got, bc.loudLanes)
	}
	if got := wake(1, 2); got < 1<<30 {
		t.Fatalf("empty lane's wake %d, want never", got)
	}
	// Restoring lane 2 marks it stale in every slot and touches nothing
	// else: every other lane keeps its wake, and every slot its least wake,
	// so the next transmission asks lane 2 alone.
	ck := bc.NewLaneCheckpoint()
	if err := bc.CaptureLane(2, ck); err != nil {
		t.Fatal(err)
	}
	wakes, mins := slices.Clone(bc.wake), slices.Clone(bc.wakeMin)
	if err := bc.RestoreLane(2, ck); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= bc.n; s++ {
		if bc.stale[s] != 1<<2 {
			t.Fatalf("slot %d stale lanes %#b after restoring lane 2, want lane 2 alone", s, bc.stale[s])
		}
		if bc.wakeMin[s] != mins[s] {
			t.Fatalf("slot %d least wake %d after restoring lane 2, was %d", s, bc.wakeMin[s], mins[s])
		}
		for lane := 0; lane < bc.max; lane++ {
			if lane != 2 && wake(s, lane) != wakes[s*bc.max+lane] {
				t.Fatalf("slot %d lane %d wake %d after restoring lane 2, was %d", s, lane, wake(s, lane), wakes[s*bc.max+lane])
			}
		}
	}
	bc.AddLaneDisturbance(3, fault.SOS{Sender: 4, Victims: []tdma.NodeID{1}, FromRound: 9})
	if bc.stale[4]>>3&1 == 0 {
		t.Fatalf("slot 4 stale lanes %#b after AddLaneDisturbance, want lane 3", bc.stale[4])
	}
	for k := 0; k < 2; k++ {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := wake(4, 3); got != 9 {
		t.Fatalf("SOS lane's slot-4 wake %d, want its FromRound 9", got)
	}
	if got := bc.truth[0]; len(got) != 0 {
		t.Fatalf("lane 0 recorded %d truth entries at horizon 0", len(got))
	}
	if err := bc.ResetBatch(bc.max); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= bc.n; s++ {
		for lane := 0; lane < bc.max; lane++ {
			if wake(s, lane) != 0 || bc.wakeMin[s] != 0 || bc.stale[s] != 0 {
				t.Fatalf("slot %d lane %d wake %d after ResetBatch, want 0", s, lane, wake(s, lane))
			}
		}
	}
	if bc.loudLanes != 0 {
		t.Fatalf("loud lanes %#b after ResetBatch", bc.loudLanes)
	}

	// A gang without loud lanes takes the fast path: slot 2 of rounds
	// before the burst is below every wake. Restoring lane 2 there makes the
	// next transmissions ask lane 2 alone; lane 0 is not asked again before
	// its burst and the least wakes stay.
	bc.AddLaneDisturbance(0, &countQuiet{Disturbance: fault.NewTrain(fault.SlotBurst(bc.Schedule(), burstRound, 2, 1))})
	asked := &countQuiet{Disturbance: fault.NewTrain()}
	bc.AddLaneDisturbance(2, asked)
	for k := 0; k < 4; k++ {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	first := bc.dist[0][0].(*countQuiet).n
	if asked.n != bc.n || bc.wakeMin[2] != burstRound {
		t.Fatalf("before the restore: lane 2 asked %d times, slot 2 least wake %d; want %d and %d", asked.n, bc.wakeMin[2], bc.n, burstRound)
	}
	if err := bc.CaptureLane(2, ck); err != nil {
		t.Fatal(err)
	}
	if err := bc.RestoreLane(2, ck); err != nil {
		t.Fatal(err)
	}
	if bc.wakeMin[2] != burstRound || bc.stale[2] != 1<<2 {
		t.Fatalf("after the restore: slot 2 least wake %d, stale lanes %#b; want %d and lane 2", bc.wakeMin[2], bc.stale[2], burstRound)
	}
	if err := bc.Step(); err != nil {
		t.Fatal(err)
	}
	if got := bc.dist[0][0].(*countQuiet).n; got != first {
		t.Fatalf("lane 0 asked %d times after lane 2's restore, want %d (not again)", got, first)
	}
	if asked.n != 2*bc.n || bc.wakeMin[2] != burstRound {
		t.Fatalf("after the restore: lane 2 asked %d times, slot 2 least wake %d; want %d and %d", asked.n, bc.wakeMin[2], 2*bc.n, burstRound)
	}
	for s := 1; s <= bc.n; s++ {
		if bc.stale[s] != 0 {
			t.Fatalf("slot %d stale lanes %#b after a round, want none", s, bc.stale[s])
		}
	}
}

// countQuiet counts the quiet-slot questions its disturbance is asked.
type countQuiet struct {
	tdma.Disturbance
	n int
}

func (q *countQuiet) QuietUntil(tx *tdma.Transmission) tdma.Wake {
	q.n++
	return q.Disturbance.(tdma.Quieter).QuietUntil(tx)
}
