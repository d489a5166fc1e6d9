package tdma

import (
	"testing"
	"testing/quick"
	"time"
)

// MustSchedule is NewSchedule for the tests' known-good parameters; it
// panics on error.
func MustSchedule(n int, roundLen time.Duration) *Schedule {
	s, err := NewSchedule(n, roundLen)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewScheduleValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		round   time.Duration
		wantErr bool
	}{
		{name: "paper_setup", n: 4, round: 2500 * time.Microsecond},
		{name: "one_node", n: 1, round: time.Millisecond, wantErr: true},
		{name: "zero_round", n: 4, round: 0, wantErr: true},
		{name: "negative_round", n: 4, round: -time.Millisecond, wantErr: true},
		{name: "indivisible", n: 3, round: 2500 * time.Microsecond, wantErr: true},
		{name: "large_cluster", n: 64, round: 6400 * time.Microsecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := NewSchedule(tt.n, tt.round)
			if tt.wantErr {
				if err == nil {
					t.Fatal("expected error, got nil")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if s.N() != tt.n {
				t.Errorf("N() = %d, want %d", s.N(), tt.n)
			}
			if s.RoundLen() != tt.round {
				t.Errorf("RoundLen() = %v, want %v", s.RoundLen(), tt.round)
			}
		})
	}
}

func TestMustSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchedule did not panic on invalid input")
		}
	}()
	MustSchedule(1, time.Millisecond)
}

func TestScheduleGeometryPaperSetup(t *testing.T) {
	// The prototype of Sec. 8: N = 4, TDMA round T = 2.5 ms.
	s := MustSchedule(4, 2500*time.Microsecond)
	if got, want := s.SlotLen(), 625*time.Microsecond; got != want {
		t.Fatalf("SlotLen() = %v, want %v", got, want)
	}
	start, end := s.SlotWindow(0, 1)
	if start != 0 || end != 625*time.Microsecond {
		t.Errorf("slot (0,1) window = [%v, %v)", start, end)
	}
	start, end = s.SlotWindow(2, 3)
	if want := 2*s.RoundLen() + 2*s.SlotLen(); start != want {
		t.Errorf("slot (2,3) start = %v, want %v", start, want)
	}
	if want := 2*s.RoundLen() + 3*s.SlotLen(); end != want {
		t.Errorf("slot (2,3) end = %v, want %v", end, want)
	}
}

func TestScheduleAtInvertsSlotWindow(t *testing.T) {
	s := MustSchedule(4, 2500*time.Microsecond)
	if err := quick.Check(func(r uint16, sl uint8, frac uint8) bool {
		round := int(r % 1000)
		slot := int(sl%4) + 1
		start, end := s.SlotWindow(round, slot)
		// Probe a point strictly inside the window.
		t0 := start + time.Duration(frac)*(end-start-1)/255
		gr, gs := s.At(t0)
		return gr == round && gs == slot
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleAtBoundaries(t *testing.T) {
	s := MustSchedule(4, 2500*time.Microsecond)
	r, sl := s.At(-time.Second)
	if r != 0 || sl != 1 {
		t.Errorf("At(negative) = (%d,%d), want (0,1)", r, sl)
	}
	r, sl = s.At(0)
	if r != 0 || sl != 1 {
		t.Errorf("At(0) = (%d,%d), want (0,1)", r, sl)
	}
	// Exactly at the start of round 1.
	r, sl = s.At(s.RoundLen())
	if r != 1 || sl != 1 {
		t.Errorf("At(roundLen) = (%d,%d), want (1,1)", r, sl)
	}
}

func TestSlotOwnerFollowsSlotOrder(t *testing.T) {
	s := MustSchedule(6, 6*time.Millisecond)
	for slot := 1; slot <= 6; slot++ {
		if got := s.SlotOwner(slot); got != NodeID(slot) {
			t.Errorf("SlotOwner(%d) = %d", slot, got)
		}
	}
}

func TestValidSlot(t *testing.T) {
	s := MustSchedule(4, 4*time.Millisecond)
	for _, tt := range []struct {
		slot int
		want bool
	}{{0, false}, {1, true}, {4, true}, {5, false}, {-1, false}} {
		if got := s.ValidSlot(tt.slot); got != tt.want {
			t.Errorf("ValidSlot(%d) = %v, want %v", tt.slot, got, tt.want)
		}
	}
}

func TestNewCustomScheduleValidation(t *testing.T) {
	if _, err := NewCustomSchedule([]time.Duration{time.Millisecond}); err == nil {
		t.Error("single slot accepted")
	}
	if _, err := NewCustomSchedule([]time.Duration{time.Millisecond, 0}); err == nil {
		t.Error("zero slot length accepted")
	}
	if _, err := NewCustomSchedule([]time.Duration{time.Millisecond, -time.Millisecond}); err == nil {
		t.Error("negative slot length accepted")
	}
}

func TestCustomScheduleGeometry(t *testing.T) {
	// An ARINC-659-style table: heterogeneous frame lengths.
	lens := []time.Duration{
		250 * time.Microsecond,
		1 * time.Millisecond,
		500 * time.Microsecond,
		750 * time.Microsecond,
	}
	s, err := NewCustomSchedule(lens)
	if err != nil {
		t.Fatal(err)
	}
	if s.Uniform() {
		t.Error("custom schedule reported uniform")
	}
	if got, want := s.RoundLen(), 2500*time.Microsecond; got != want {
		t.Fatalf("RoundLen = %v, want %v", got, want)
	}
	if got := s.SlotLen(); got != 250*time.Microsecond {
		t.Fatalf("SlotLen (min) = %v", got)
	}
	for slot, want := range map[int]time.Duration{1: lens[0], 2: lens[1], 3: lens[2], 4: lens[3]} {
		if got := s.SlotLenOf(slot); got != want {
			t.Errorf("SlotLenOf(%d) = %v, want %v", slot, got, want)
		}
	}
	if got := s.SlotLenOf(0); got != 0 {
		t.Errorf("SlotLenOf(0) = %v", got)
	}
	// Windows tile the round exactly.
	var cursor time.Duration
	for slot := 1; slot <= 4; slot++ {
		start, end := s.SlotWindow(1, slot)
		if start != s.RoundStart(1)+cursor {
			t.Fatalf("slot %d start = %v", slot, start)
		}
		cursor += lens[slot-1]
		if end != s.RoundStart(1)+cursor {
			t.Fatalf("slot %d end = %v", slot, end)
		}
	}
}

func TestCustomScheduleAt(t *testing.T) {
	lens := []time.Duration{250 * time.Microsecond, time.Millisecond, 500 * time.Microsecond, 750 * time.Microsecond}
	s, err := NewCustomSchedule(lens)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for slot := 1; slot <= 4; slot++ {
			start, end := s.SlotWindow(round, slot)
			mid := start + (end-start)/2
			gr, gs := s.At(mid)
			if gr != round || gs != slot {
				t.Fatalf("At(mid of %d/%d) = (%d,%d)", round, slot, gr, gs)
			}
		}
	}
	if r, sl := s.At(-time.Second); r != 0 || sl != 1 {
		t.Fatalf("At(negative) = (%d,%d)", r, sl)
	}
}

func TestUniformScheduleReportsUniform(t *testing.T) {
	s := MustSchedule(4, 2500*time.Microsecond)
	if !s.Uniform() {
		t.Error("uniform schedule reported custom")
	}
	if got := s.SlotLenOf(2); got != 625*time.Microsecond {
		t.Errorf("SlotLenOf = %v", got)
	}
}
