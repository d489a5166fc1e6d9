package fault

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// paperSched is the Sec. 8 prototype's schedule: N = 4, T = 2.5 ms.
var paperSched = func() *tdma.Schedule {
	s, err := tdma.NewSchedule(4, 2500*time.Microsecond)
	if err != nil {
		panic(err)
	}
	return s
}()

func TestBurstOverlaps(t *testing.T) {
	b := Burst{Start: 10, Length: 5} // [10, 15)
	tests := []struct {
		name       string
		start, end time.Duration
		want       bool
	}{
		{name: "inside", start: 11, end: 12, want: true},
		{name: "covering", start: 5, end: 20, want: true},
		{name: "left_edge", start: 5, end: 10, want: false},
		{name: "right_edge", start: 15, end: 20, want: false},
		{name: "left_partial", start: 9, end: 11, want: true},
		{name: "right_partial", start: 14, end: 16, want: true},
		{name: "far_left", start: 0, end: 2, want: false},
		{name: "far_right", start: 30, end: 32, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := b.Overlaps(tt.start, tt.end); got != tt.want {
				t.Errorf("Overlaps(%v,%v) = %v, want %v", tt.start, tt.end, got, tt.want)
			}
		})
	}
}

func TestNewTrainMergesAndSorts(t *testing.T) {
	tr := NewTrain(
		Burst{Start: 20, Length: 5},
		Burst{Start: 0, Length: 10},
		Burst{Start: 5, Length: 10}, // overlaps the second -> merge to [0,15)
		Burst{Start: 40, Length: 0}, // dropped: empty
	)
	got := tr.Bursts()
	if len(got) != 2 {
		t.Fatalf("got %d bursts, want 2: %+v", len(got), got)
	}
	if got[0].Start != 0 || got[0].End() != 15 {
		t.Errorf("merged burst = [%v,%v), want [0,15)", got[0].Start, got[0].End())
	}
	if got[1].Start != 20 || got[1].End() != 25 {
		t.Errorf("second burst = [%v,%v), want [20,25)", got[1].Start, got[1].End())
	}
}

// TestTrainResetMatchesNewTrain refills one train with random burst sets,
// sorted and unsorted, larger and smaller than the last: each Reset must
// leave exactly the bursts NewTrain builds, and refilling with sorted
// bursts that fit its storage must allocate nothing.
func TestTrainResetMatchesNewTrain(t *testing.T) {
	st := rng.NewStream(5)
	var tr Train
	for i := 0; i < 200; i++ {
		raw := make([]Burst, st.Intn(20))
		for j := range raw {
			raw[j] = Burst{Start: time.Duration(st.Intn(500)), Length: time.Duration(st.Intn(40))}
		}
		if i%2 == 0 {
			slices.SortFunc(raw, func(a, b Burst) int { return cmp.Compare(a.Start, b.Start) })
		}
		tr.Reset(raw...)
		if got, want := tr.Bursts(), NewTrain(raw...).Bursts(); !slices.Equal(got, want) {
			t.Fatalf("refill %d: Reset left %+v, NewTrain builds %+v", i, got, want)
		}
	}
	sorted := []Burst{{Start: 0, Length: 10}, {Start: 5, Length: 10}, {Start: 30, Length: 5}}
	tr.Reset(sorted...)
	if allocs := testing.AllocsPerRun(20, func() { tr.Reset(sorted...) }); allocs != 0 {
		t.Errorf("refilling a train with sorted bursts allocates %.1f times, want 0", allocs)
	}
}

func TestTrainHitsMatchesLinearScan(t *testing.T) {
	if err := quick.Check(func(seed int64, q1, q2 uint16) bool {
		st := rng.NewStream(seed)
		raw := make([]Burst, 0, 16)
		for i := 0; i < 16; i++ {
			raw = append(raw, Burst{
				Start:  time.Duration(st.Intn(1000)),
				Length: time.Duration(st.Intn(50)),
			})
		}
		tr := NewTrain(raw...)
		start := time.Duration(q1 % 1100)
		end := start + time.Duration(q2%60) + 1
		want := false
		for _, b := range raw {
			if b.Length > 0 && b.Overlaps(start, end) {
				want = true
				break
			}
		}
		return tr.Hits(start, end) == want
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotBurstGeometry(t *testing.T) {
	// Two slots starting at slot 3 of round 1.
	b := SlotBurst(paperSched, 1, 3, 2)
	wantStart := paperSched.RoundStart(1) + 2*paperSched.SlotLen()
	if b.Start != wantStart {
		t.Errorf("Start = %v, want %v", b.Start, wantStart)
	}
	if b.Length != 2*paperSched.SlotLen() {
		t.Errorf("Length = %v, want %v", b.Length, 2*paperSched.SlotLen())
	}
}

func TestBlackoutCoversWholeRounds(t *testing.T) {
	b := Blackout(paperSched, 2, 2)
	if b.Start != paperSched.RoundStart(2) {
		t.Errorf("Start = %v", b.Start)
	}
	if b.Length != 2*paperSched.RoundLen() {
		t.Errorf("Length = %v", b.Length)
	}
	// Every slot of rounds 2 and 3 must be hit; rounds 1 and 4 untouched.
	tr := NewTrain(b)
	for round := 1; round <= 4; round++ {
		for slot := 1; slot <= 4; slot++ {
			s, e := paperSched.SlotWindow(round, slot)
			want := round == 2 || round == 3
			if got := tr.Hits(s, e); got != want {
				t.Errorf("round %d slot %d: Hits = %v, want %v", round, slot, got, want)
			}
		}
	}
}

func TestPeriodicTrainEndToStartGap(t *testing.T) {
	tr := Periodic(0, 10*time.Millisecond, 500*time.Millisecond, 3)
	bursts := tr.Bursts()
	if len(bursts) != 3 {
		t.Fatalf("got %d bursts", len(bursts))
	}
	if bursts[1].Start != 510*time.Millisecond {
		t.Errorf("second burst at %v, want 510ms", bursts[1].Start)
	}
	if bursts[2].Start != 1020*time.Millisecond {
		t.Errorf("third burst at %v, want 1020ms", bursts[2].Start)
	}
}

func TestTrainAsDisturbance(t *testing.T) {
	tr := NewTrain(SlotBurst(paperSched, 0, 2, 1))
	s, e := paperSched.SlotWindow(0, 2)
	tx := &tdma.Transmission{Sender: 2, Round: 0, Slot: 2, Start: s, End: e, Payload: []byte{1}}
	d := tr.Deliver(tx, 1, tdma.Delivery{Valid: true, Payload: tx.Payload})
	if d.Valid {
		t.Error("delivery inside burst remained valid")
	}
	if !tr.SenderCollision(tx, false) {
		t.Error("collision detector did not trip inside burst")
	}
	s, e = paperSched.SlotWindow(0, 3)
	tx2 := &tdma.Transmission{Sender: 3, Round: 0, Slot: 3, Start: s, End: e, Payload: []byte{1}}
	if d := tr.Deliver(tx2, 1, tdma.Delivery{Valid: true, Payload: tx2.Payload}); !d.Valid {
		t.Error("delivery outside burst was corrupted")
	}
}

func TestPoissonTransientsStatistics(t *testing.T) {
	const (
		rate    = 100.0 // per second
		horizon = 100 * time.Second
		length  = time.Millisecond
	)
	tr := PoissonTransients(rng.NewStream(1), rate, length, horizon)
	n := len(tr.Bursts())
	// Expect ~rate*horizon_seconds = 10000 bursts; allow 5% slack.
	if n < 9000 || n > 11000 {
		t.Fatalf("got %d transient bursts, want ~10000", n)
	}
	for _, b := range tr.Bursts() {
		if b.Start < 0 || b.Start >= horizon {
			t.Fatalf("burst outside horizon: %+v", b)
		}
		if b.Length != length {
			t.Fatalf("burst has length %v", b.Length)
		}
	}
}

func TestPoissonTransientsZeroRate(t *testing.T) {
	tr := PoissonTransients(rng.NewStream(1), 0, time.Millisecond, time.Second)
	if len(tr.Bursts()) != 0 {
		t.Fatalf("zero rate produced %d bursts", len(tr.Bursts()))
	}
}

// Property: a burst of exactly k rounds, dropped at an arbitrary phase,
// corrupts either k or k+1 sending slots of every node — the physical
// straddling artifact discussed in DESIGN.md §3.
func TestBurstStraddlingProperty(t *testing.T) {
	if err := quick.Check(func(phaseRaw uint32, kRaw uint8) bool {
		k := int(kRaw%4) + 1
		phase := time.Duration(phaseRaw) % paperSched.RoundLen()
		b := Burst{Start: phase, Length: time.Duration(k) * paperSched.RoundLen()}
		tr := NewTrain(b)
		for node := 1; node <= 4; node++ {
			hits := 0
			for round := 0; round < k+3; round++ {
				s, e := paperSched.SlotWindow(round, node)
				if tr.Hits(s, e) {
					hits++
				}
			}
			if hits != k && hits != k+1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
