// Package trace records structured simulation events: transmissions,
// diagnostic-job executions, agreed diagnoses, isolations, and membership
// view changes. Experiments and tests use the recorded stream both for
// human-readable round-by-round output and for programmatic audits of the
// protocol properties (correctness, completeness, consistency).
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind classifies a recorded event.
type Kind int

// Event kinds, in rough causal order within a round.
const (
	KindTransmit Kind = iota + 1
	KindJobRun
	KindDiagnosis
	KindPenalty
	KindIsolation
	KindReintegration
	KindViewChange
	KindNote
	// KindAccusation records a minority accusation raised by Node against
	// Subject (membership mode); Evidence classifies what the accused row
	// conflicted with.
	KindAccusation
	// KindShardHealth records a fleet shard-summary health transition
	// (Subject is the 1-based shard index).
	KindShardHealth
)

// maxKind is the highest defined Kind; keep it on the last enum entry.
const maxKind = KindShardHealth

var kindNames = map[Kind]string{
	KindTransmit:      "transmit",
	KindJobRun:        "job",
	KindDiagnosis:     "diagnosis",
	KindPenalty:       "penalty",
	KindIsolation:     "isolation",
	KindReintegration: "reintegration",
	KindViewChange:    "view",
	KindNote:          "note",
	KindAccusation:    "accusation",
	KindShardHealth:   "shard-health",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded simulation event.
type Event struct {
	// At is the simulated time of the event, measured from simulation start.
	At time.Duration
	// Round is the TDMA round in which the event happened.
	Round int
	// Kind classifies the event.
	Kind Kind
	// Node is the node the event concerns (observer for diagnoses, subject
	// for transmissions and isolations); 0 when not applicable.
	Node int
	// Subject is the node the event is about, when different from Node
	// (e.g. the diagnosed or isolated node); 0 when not applicable.
	Subject int
	// Penalty and Threshold carry the Alg. 2 counter state for causal events
	// (KindPenalty, KindIsolation, KindReintegration): Subject's penalty
	// counter after the update and the isolation threshold P it is measured
	// against. Both zero when not applicable.
	Penalty   int64
	Threshold int64
	// Evidence classifies the cause of a causal event: for KindAccusation,
	// "hmaj-verdict" when the accused row holds a definite opinion opposite
	// the H-maj verdict, "matrix-disagreement" when it is only missing
	// opinions (ε) where the vector holds a verdict. Empty when not
	// applicable.
	Evidence string
	// Detail is a short human-readable description.
	Detail string
	// Invalid, Collision and Payload carry a KindTransmit event's deviations
	// from a clean broadcast, which is what a replay needs to re-simulate
	// the run. Invalid marks the receivers whose delivery was invalid (bit
	// r-1 = receiver r, 1..64); the sender's own loop-back delivery counts
	// before the collision invalidation. Collision is the sender-side
	// collision-detector verdict. Payload holds the bytes the accepting
	// receivers observed when they differ from what the sender staged; it
	// is a string so that Event stays comparable. All three are zero for a
	// clean transmission and for every other kind.
	Invalid   uint64
	Collision bool
	Payload   string
}

// String renders the event for round-by-round traces.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s r%-5d %-13s", e.At, e.Round, e.Kind)
	if e.Node != 0 {
		fmt.Fprintf(&b, " n%d", e.Node)
	}
	if e.Subject != 0 && e.Subject != e.Node {
		fmt.Fprintf(&b, "->n%d", e.Subject)
	}
	if e.Threshold != 0 {
		fmt.Fprintf(&b, " p=%d/%d", e.Penalty, e.Threshold)
	} else if e.Penalty != 0 {
		fmt.Fprintf(&b, " p=%d", e.Penalty)
	}
	if e.Evidence != "" {
		fmt.Fprintf(&b, " [%s]", e.Evidence)
	}
	if e.Detail != "" {
		b.WriteString(" ")
		b.WriteString(e.Detail)
	}
	return b.String()
}

// Sink consumes events as they are produced.
type Sink interface {
	Record(Event)
}

// DropCounter is implemented by sinks that can lose events (a bounded
// Recorder evicting its oldest entries, a JSONLWriter after a write error).
// Callers probe it after a run to warn about truncated traces.
type DropCounter interface {
	// Dropped reports how many recorded events the sink has discarded.
	Dropped() int64
}

var _ DropCounter = (*Recorder)(nil)

// Recorder is a Sink that retains events in memory, optionally bounded.
// The zero value is unbounded and ready to use. Recorder is safe for
// concurrent use so that the goroutine-per-node runtime can share one.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	dropped int64
	// Limit bounds the number of retained events; once exceeded, the oldest
	// events are discarded. Zero means unbounded.
	Limit int
}

var _ Sink = (*Recorder)(nil)

// Record appends the event, evicting the oldest if the limit is exceeded.
// Evicted events are counted — see Dropped — so a bounded recorder is
// observable about its own truncation.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	if r.Limit > 0 && len(r.events) > r.Limit {
		excess := len(r.events) - r.Limit
		r.dropped += int64(excess)
		r.events = append(r.events[:0], r.events[excess:]...)
	}
}

// Dropped reports how many events the Limit eviction has discarded since
// the last Reset.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the retained events in record order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Filter returns the retained events matching the given kind.
func (r *Recorder) Filter(k Kind) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all retained events and clears the drop counter.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = r.events[:0]
	r.dropped = 0
}

// Discard is a Sink that drops every event. Use it when tracing overhead is
// unwanted, e.g. in benchmarks.
type Discard struct{}

var _ Sink = Discard{}

// Record implements Sink by doing nothing.
func (Discard) Record(Event) {}

// Tee duplicates events to several sinks.
type Tee []Sink

var _ Sink = Tee(nil)

// Record implements Sink by forwarding to every element.
func (t Tee) Record(e Event) {
	for _, s := range t {
		s.Record(e)
	}
}
