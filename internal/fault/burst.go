package fault

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// Burst is one contiguous interval of bus-wide interference on the simulated
// clock. Every transmission whose slot window overlaps the interval is
// locally detectable by all receivers (benign), and the sender's collision
// detector trips — exactly the effect of the electrical spikes, random noise
// and silence periods injected in the paper's validation (Sec. 8).
type Burst struct {
	// Start is the burst's begin time on the simulated clock.
	Start time.Duration
	// Length is the burst duration; bursts cover [Start, Start+Length).
	Length time.Duration
}

// End returns the first instant after the burst.
func (b Burst) End() time.Duration { return b.Start + b.Length }

// Overlaps reports whether the burst intersects the half-open window
// [start, end).
func (b Burst) Overlaps(start, end time.Duration) bool {
	return b.Start < end && start < b.End()
}

// Train is a set of bursts applied to the bus. It implements
// tdma.Disturbance. The zero value is an empty train (a clean bus).
type Train struct {
	bursts []Burst // kept sorted by Start
}

var (
	_ tdma.Disturbance = (*Train)(nil)
	_ tdma.Quieter     = (*Train)(nil)
)

// NewTrain builds a train from the given bursts. Bursts are sorted and
// overlapping or touching bursts are merged, so the train's intervals are
// always disjoint and in increasing order (which makes overlap queries a
// single binary search).
func NewTrain(bursts ...Burst) *Train {
	t := &Train{}
	t.Reset(bursts...)
	return t
}

// Reset makes t the train NewTrain(bursts...) builds, reusing t's storage:
// bursts already in start order are merged without sorting, so refilling a
// train of at most as many bursts allocates nothing.
func (t *Train) Reset(bursts ...Burst) {
	t.bursts = append(t.bursts[:0], bursts...)
	byStart := func(a, b Burst) int { return cmp.Compare(a.Start, b.Start) }
	if !slices.IsSortedFunc(t.bursts, byStart) {
		slices.SortFunc(t.bursts, byStart)
	}
	// Merge in place: the write index never passes the read index.
	merged := t.bursts[:0]
	for _, b := range t.bursts {
		if b.Length <= 0 {
			continue
		}
		if n := len(merged); n > 0 && b.Start <= merged[n-1].End() {
			if b.End() > merged[n-1].End() {
				merged[n-1].Length = b.End() - merged[n-1].Start
			}
			continue
		}
		merged = append(merged, b)
	}
	t.bursts = merged
}

// Bursts returns a copy of the train's bursts in start order.
func (t *Train) Bursts() []Burst { return append([]Burst(nil), t.bursts...) }

// Hits reports whether any burst overlaps [start, end).
func (t *Train) Hits(start, end time.Duration) bool {
	i := t.next(start)
	return i < len(t.bursts) && t.bursts[i].Overlaps(start, end)
}

// next returns the index of the first burst that ends after start: the
// only one that can overlap a window starting there (a binary search).
func (t *Train) next(start time.Duration) int {
	return sort.Search(len(t.bursts), func(i int) bool { return t.bursts[i].End() > start })
}

// QuietUntil implements tdma.Quieter: a transmission clear of every burst
// leaves the sender untouched until the next burst starts.
func (t *Train) QuietUntil(tx *tdma.Transmission) tdma.Wake {
	i := t.next(tx.Start)
	switch {
	case i == len(t.bursts):
		return tdma.WakeNever
	case t.bursts[i].Start < tx.End:
		return tdma.Wake{}
	}
	return tdma.Wake{Round: tdma.WakeNever.Round, At: t.bursts[i].Start}
}

// Deliver implements tdma.Disturbance: transmissions overlapping a burst are
// locally detectable by every receiver.
func (t *Train) Deliver(tx *tdma.Transmission, _ tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if t.Hits(tx.Start, tx.End) {
		return tdma.Delivery{}
	}
	return d
}

// SenderCollision implements tdma.Disturbance: bus-wide interference is
// visible to the sender's own collision detector.
func (t *Train) SenderCollision(tx *tdma.Transmission, collided bool) bool {
	if t.Hits(tx.Start, tx.End) {
		return true
	}
	return collided
}

// SlotBurst builds a burst that covers exactly `slots` consecutive sending
// slots, beginning at slot `startSlot` of round `startRound`. It reproduces
// the Sec. 8 burst experiment classes (one slot, two slots, two whole TDMA
// rounds, each starting at any of the N slots).
func SlotBurst(sched *tdma.Schedule, startRound, startSlot, slots int) Burst {
	start, _ := sched.SlotWindow(startRound, startSlot)
	return Burst{Start: start, Length: time.Duration(slots) * sched.SlotLen()}
}

// Blackout builds a burst covering `rounds` whole TDMA rounds from the start
// of `startRound`: a communication blackout in which no node can send any
// message (the Lemma 3 regime).
func Blackout(sched *tdma.Schedule, startRound, rounds int) Burst {
	return Burst{Start: sched.RoundStart(startRound), Length: time.Duration(rounds) * sched.RoundLen()}
}

// Periodic builds a train of `count` bursts of the given length, with a
// fixed time to reappearance (measured end-to-start, as in Table 3) between
// consecutive bursts, the first burst starting at `start`.
func Periodic(start, length, reappearance time.Duration, count int) *Train {
	bursts := make([]Burst, 0, count)
	at := start
	for i := 0; i < count; i++ {
		bursts = append(bursts, Burst{Start: at, Length: length})
		at += length + reappearance
	}
	return NewTrain(bursts...)
}

// PoissonTransients generates the sporadic external transient faults a
// healthy node is exposed to: bursts of the given length whose inter-arrival
// times (end-to-start) are exponentially distributed with the given rate
// (events per second), over [0, horizon). It is used to cross-check the
// Fig. 3 correlation model by Monte-Carlo simulation.
func PoissonTransients(stream *rng.Stream, rate float64, length, horizon time.Duration) *Train {
	var bursts []Burst
	if rate <= 0 {
		return NewTrain()
	}
	at := time.Duration(0)
	for {
		gap := time.Duration(stream.Exp(rate) * float64(time.Second))
		if gap < 0 || gap > horizon {
			break
		}
		at += gap
		if at >= horizon {
			break
		}
		bursts = append(bursts, Burst{Start: at, Length: length})
		at += length
	}
	return NewTrain(bursts...)
}
