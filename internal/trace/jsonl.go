package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// SchemaVersion is the JSONL wire schema this package writes. Version 1 was
// the original wire form without a version field (at_ns/round/kind/
// node/subject/detail only); version 2 added the explicit "v" field and the
// typed causal fields (penalty, threshold, evidence); version 3 added the
// transmit deviations a replay re-simulates from: "invalid" (the receiver
// mask, present when some delivery was invalid), "collision" (present when
// the sender's collision detector tripped) and "payload" (base64, present
// when receivers accepted bytes other than the staged ones). Readers accept
// all three: a line without a "v" field is a legacy version-1 event.
const SchemaVersion = 3

// kindFromName maps the lowercase kind names back to their Kind values. It
// is built with an explicit loop over the closed Kind range rather than by
// ranging over kindNames, so the construction order is fixed (this package
// is lint-checked as order-sensitive).
var kindFromName = func() map[string]Kind {
	m := make(map[string]Kind, int(maxKind))
	for k := KindTransmit; k <= maxKind; k++ {
		m[k.String()] = k
	}
	return m
}()

// ParseKind inverts Kind.String. Unknown kinds rendered as "kind(N)" parse
// back to Kind(N), so the JSONL encoding is total over all Kind values.
func ParseKind(s string) (Kind, error) {
	if k, ok := kindFromName[s]; ok {
		return k, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "kind(%d)", &n); err == nil {
		return Kind(n), nil
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// eventJSON is the wire form of an Event: the simulated timestamp is encoded
// as integer nanoseconds (not a duration string) so any JSONL consumer can
// sort and diff numerically, and the kind travels by name so the stream
// stays readable and stable if the Kind enum is reordered.
type eventJSON struct {
	V         int    `json:"v,omitempty"`
	AtNS      int64  `json:"at_ns"`
	Round     int    `json:"round"`
	Kind      string `json:"kind"`
	Node      int    `json:"node,omitempty"`
	Subject   int    `json:"subject,omitempty"`
	Penalty   int64  `json:"penalty,omitempty"`
	Threshold int64  `json:"threshold,omitempty"`
	Evidence  string `json:"evidence,omitempty"`
	Detail    string `json:"detail,omitempty"`
	Invalid   uint64 `json:"invalid,omitempty"`
	Collision bool   `json:"collision,omitempty"`
	Payload   []byte `json:"payload,omitempty"`
}

// WriteJSONL encodes one event as a single JSON line on w.
func WriteJSONL(w io.Writer, e Event) error {
	b, err := json.Marshal(eventJSON{
		V:         SchemaVersion,
		AtNS:      int64(e.At),
		Round:     e.Round,
		Kind:      e.Kind.String(),
		Node:      e.Node,
		Subject:   e.Subject,
		Penalty:   e.Penalty,
		Threshold: e.Threshold,
		Evidence:  e.Evidence,
		Detail:    e.Detail,
		Invalid:   e.Invalid,
		Collision: e.Collision,
		Payload:   []byte(e.Payload),
	})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadJSONL decodes a stream of JSONL-encoded events, one per line. Blank
// lines are skipped; the first malformed line aborts with its line number,
// as does a line carrying a schema version this reader does not understand
// (version-less lines are legacy version-1 streams and stay readable).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ej eventJSON
		if err := json.Unmarshal(raw, &ej); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		// 0 is a version-less legacy line (schema 1); anything else must be
		// a version this reader knows, so that events written by a newer
		// schema fail loudly instead of decoding with fields dropped.
		if ej.V != 0 && (ej.V < 1 || ej.V > SchemaVersion) {
			return nil, fmt.Errorf("trace: line %d: unsupported schema version %d (this reader understands 1..%d)", line, ej.V, SchemaVersion)
		}
		k, err := ParseKind(ej.Kind)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, Event{
			At:        time.Duration(ej.AtNS),
			Round:     ej.Round,
			Kind:      k,
			Node:      ej.Node,
			Subject:   ej.Subject,
			Penalty:   ej.Penalty,
			Threshold: ej.Threshold,
			Evidence:  ej.Evidence,
			Detail:    ej.Detail,
			Invalid:   ej.Invalid,
			Collision: ej.Collision,
			Payload:   string(ej.Payload),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// JSONLWriter is a Sink that streams every event to an io.Writer as JSON
// lines. It is safe for concurrent use, so the goroutine-per-node runtime
// can share one. The first write error is retained and reported by Err;
// subsequent events are dropped (and counted — see Dropped) rather than
// interleaving partial lines into a broken stream.
type JSONLWriter struct {
	mu      sync.Mutex
	w       io.Writer
	err     error
	dropped int64
}

var (
	_ Sink        = (*JSONLWriter)(nil)
	_ DropCounter = (*JSONLWriter)(nil)
)

// NewJSONLWriter returns a JSONL sink writing to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: w}
}

// Record implements Sink by appending one JSON line.
func (j *JSONLWriter) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		j.dropped++
		return
	}
	j.err = WriteJSONL(j.w, e)
}

// Err reports the first write or encoding error, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Dropped reports how many events were discarded after the first write
// error (the event whose write failed is not counted — it is the error).
func (j *JSONLWriter) Dropped() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}
