// Package tdma models the time-triggered substrate the diagnostic protocol
// runs on: a synchronous system where N nodes share a broadcast bus using a
// TDMA access scheme. It provides the global communication schedule (rounds
// and sending slots), communication controllers with interface variables and
// per-variable validity bits, a local collision detector, and a broadcast bus
// whose deliveries can be perturbed by pluggable disturbances (see package
// fault).
//
// The package corresponds to the system model of Sec. 3 of the paper: node
// IDs follow the order of the sending slots, interface variables are updated
// at most once per round in sending order, and validity bits abstract the
// platform's local error-detection mechanisms.
package tdma

import (
	"fmt"
	"time"
)

// NodeID identifies a node. IDs are 1-based and assigned following the order
// of the sending slots in the TDMA round, as in the paper's system model.
type NodeID int

// Schedule is the global communication schedule: a periodic TDMA round of N
// sending slots, slot s being owned by node s. Slots are equally sized by
// default; platforms with heterogeneous frame lengths (e.g. ARINC 659
// tables) can declare per-slot durations with NewCustomSchedule — the
// protocol layer is agnostic, only the slot geometry changes.
type Schedule struct {
	n       int
	slotLen time.Duration // uniform slot length; 0 when offsets is set
	// offsets[s] is the start of slot s+1 within the round; offsets[n] is
	// the round length. Nil for uniform schedules.
	offsets []time.Duration
}

// NewSchedule builds a schedule for n nodes with the given round length and
// equally sized slots. The round length must divide evenly into n slots.
func NewSchedule(n int, roundLen time.Duration) (*Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("tdma: need at least 2 nodes, got %d", n)
	}
	if roundLen <= 0 {
		return nil, fmt.Errorf("tdma: round length must be positive, got %v", roundLen)
	}
	if roundLen%time.Duration(n) != 0 {
		return nil, fmt.Errorf("tdma: round length %v not divisible into %d slots", roundLen, n)
	}
	return &Schedule{n: n, slotLen: roundLen / time.Duration(n)}, nil
}

// NewCustomSchedule builds a schedule with per-slot durations; slotLens[i]
// is the length of slot i+1.
func NewCustomSchedule(slotLens []time.Duration) (*Schedule, error) {
	n := len(slotLens)
	if n < 2 {
		return nil, fmt.Errorf("tdma: need at least 2 slots, got %d", n)
	}
	offsets := make([]time.Duration, n+1)
	for i, l := range slotLens {
		if l <= 0 {
			return nil, fmt.Errorf("tdma: slot %d has non-positive length %v", i+1, l)
		}
		offsets[i+1] = offsets[i] + l
	}
	return &Schedule{n: n, offsets: offsets}, nil
}

// N returns the number of nodes (and slots per round).
func (s *Schedule) N() int { return s.n }

// Uniform reports whether all slots have the same length.
func (s *Schedule) Uniform() bool { return s.offsets == nil }

// SlotLen returns the duration of one sending slot on uniform schedules; on
// custom schedules it returns the length of the shortest slot (the relevant
// bound for burst-overlap reasoning).
func (s *Schedule) SlotLen() time.Duration {
	if s.offsets == nil {
		return s.slotLen
	}
	min := s.offsets[1] - s.offsets[0]
	for i := 2; i <= s.n; i++ {
		if l := s.offsets[i] - s.offsets[i-1]; l < min {
			min = l
		}
	}
	return min
}

// SlotLenOf returns the duration of the given slot (1-based).
func (s *Schedule) SlotLenOf(slot int) time.Duration {
	if s.offsets == nil {
		return s.slotLen
	}
	if !s.ValidSlot(slot) {
		return 0
	}
	return s.offsets[slot] - s.offsets[slot-1]
}

// RoundLen returns the duration of one TDMA round.
func (s *Schedule) RoundLen() time.Duration {
	if s.offsets == nil {
		return s.slotLen * time.Duration(s.n)
	}
	return s.offsets[s.n]
}

// RoundStart returns the simulated time at which the given round begins.
// Rounds are 0-based.
func (s *Schedule) RoundStart(round int) time.Duration {
	return time.Duration(round) * s.RoundLen()
}

// SlotWindow returns the [start, end) window of the given slot (1-based) in
// the given round (0-based).
func (s *Schedule) SlotWindow(round, slot int) (start, end time.Duration) {
	if s.offsets == nil {
		start = s.RoundStart(round) + time.Duration(slot-1)*s.slotLen
		return start, start + s.slotLen
	}
	base := s.RoundStart(round)
	return base + s.offsets[slot-1], base + s.offsets[slot]
}

// JobTime returns the simulated time at which a diagnostic job at position l
// executes in the given round: right after slot l completes, or at the
// round start for l = 0.
func (s *Schedule) JobTime(round, l int) time.Duration {
	if l <= 0 {
		return s.RoundStart(round)
	}
	_, end := s.SlotWindow(round, l)
	return end
}

// SlotOwner returns the node that owns the given slot.
func (s *Schedule) SlotOwner(slot int) NodeID { return NodeID(slot) }

// At locates simulated time t on the slot grid, returning the 0-based round
// and 1-based slot containing it. Negative times map to round 0, slot 1.
func (s *Schedule) At(t time.Duration) (round, slot int) {
	if t < 0 {
		return 0, 1
	}
	round = int(t / s.RoundLen())
	within := t - s.RoundStart(round)
	if s.offsets == nil {
		slot = int(within/s.slotLen) + 1
		if slot > s.n {
			slot = s.n
		}
		return round, slot
	}
	for slot = 1; slot < s.n; slot++ {
		if within < s.offsets[slot] {
			return round, slot
		}
	}
	return round, s.n
}

// ValidSlot reports whether slot is a valid 1-based slot index.
func (s *Schedule) ValidSlot(slot int) bool { return slot >= 1 && slot <= s.n }
