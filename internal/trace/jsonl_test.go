package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRecorderDroppedCountsEvictions: the bounded recorder must account for
// every event the Limit eviction discarded, keep the newest events, and
// clear the counter on Reset.
func TestRecorderDroppedCountsEvictions(t *testing.T) {
	r := Recorder{Limit: 4}
	for i := 0; i < 11; i++ {
		r.Record(Event{Round: i, Kind: KindNote})
	}
	if got := r.Dropped(); got != 7 {
		t.Fatalf("Dropped = %d, want 7", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := 7 + i; e.Round != want {
			t.Fatalf("retained[%d].Round = %d, want %d (oldest must go first)", i, e.Round, want)
		}
	}
	r.Reset()
	if r.Dropped() != 0 || r.Len() != 0 {
		t.Fatalf("Reset left dropped=%d len=%d", r.Dropped(), r.Len())
	}
	r.Record(Event{Kind: KindNote})
	if r.Dropped() != 0 {
		t.Fatalf("recording under the limit must not drop, got %d", r.Dropped())
	}
}

// TestTeeFansOutToEverySink: every sink in a Tee sees every event, in record
// order, including a streaming JSONL sink alongside in-memory recorders.
func TestTeeFansOutToEverySink(t *testing.T) {
	var a, b Recorder
	var buf bytes.Buffer
	tee := Tee{&a, &b, NewJSONLWriter(&buf)}
	events := []Event{
		{At: 10 * time.Microsecond, Round: 0, Kind: KindTransmit, Node: 1},
		{At: 20 * time.Microsecond, Round: 0, Kind: KindDiagnosis, Node: 2, Subject: 1},
		{At: 30 * time.Microsecond, Round: 1, Kind: KindIsolation, Node: 2, Subject: 1, Detail: "penalty crossed"},
	}
	for _, e := range events {
		tee.Record(e)
	}
	for name, rec := range map[string]*Recorder{"a": &a, "b": &b} {
		got := rec.Events()
		if len(got) != len(events) {
			t.Fatalf("sink %s saw %d events, want %d", name, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("sink %s event %d = %+v, want %+v", name, i, got[i], events[i])
			}
		}
	}
	decoded, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("JSONL sink saw %d events, want %d", len(decoded), len(events))
	}
	for i := range events {
		if decoded[i] != events[i] {
			t.Fatalf("JSONL event %d = %+v, want %+v", i, decoded[i], events[i])
		}
	}
}

// TestJSONLRoundTripEveryKind encodes one event of every Kind (plus an
// out-of-range kind and transmit events carrying each schema-3 deviation)
// and decodes them back unchanged.
func TestJSONLRoundTripEveryKind(t *testing.T) {
	var events []Event
	for k := KindTransmit; k <= maxKind; k++ {
		events = append(events, Event{
			At:        time.Duration(k) * time.Millisecond,
			Round:     int(k),
			Kind:      k,
			Node:      1 + int(k)%3,
			Subject:   int(k) % 4,
			Penalty:   int64(k) % 5,
			Threshold: int64(k) % 7,
			Evidence:  map[bool]string{true: EvidenceVerdict, false: ""}[int(k)%2 == 0],
			Detail:    "detail for " + k.String(),
		})
	}
	events = append(events, Event{Kind: Kind(42), Round: 99},
		Event{Kind: KindTransmit, Node: 3, Detail: "asymmetric", Invalid: 1<<63 | 0b101},
		Event{Kind: KindTransmit, Node: 2, Detail: "benign", Invalid: 0b1111, Collision: true},
		Event{Kind: KindTransmit, Node: 4, Detail: "malicious", Payload: "\x00\xffé"})

	var buf bytes.Buffer
	for _, e := range events {
		if err := WriteJSONL(&buf, e); err != nil {
			t.Fatal(err)
		}
	}
	decoded, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i := range events {
		if decoded[i] != events[i] {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, decoded[i], events[i])
		}
	}
}

// TestReadJSONLRejectsGarbage: the first malformed line aborts decoding with
// its line number.
func TestReadJSONLRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, Event{Kind: KindNote}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("not json\n")
	if _, err := ReadJSONL(&buf); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want a line-2 decode error, got %v", err)
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"nonsense"}` + "\n")); err == nil {
		t.Fatalf("want an unknown-kind error")
	}
}

// TestJSONLWriterRetainsFirstError: a failing writer surfaces via Err and
// suppresses further writes, counting each as dropped.
func TestJSONLWriterRetainsFirstError(t *testing.T) {
	w := NewJSONLWriter(failWriter{})
	w.Record(Event{Kind: KindNote})
	if w.Err() == nil {
		t.Fatalf("want retained write error")
	}
	if got := w.Dropped(); got != 0 {
		t.Fatalf("the failing event is the error, not a drop; Dropped = %d", got)
	}
	w.Record(Event{Kind: KindNote}) // must not panic or clear the error
	w.Record(Event{Kind: KindNote})
	if w.Err() == nil {
		t.Fatalf("error was cleared by a later Record")
	}
	if got := w.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2 (events after the first error)", got)
	}
}

// TestReadJSONLSchemaVersions: version-less lines are legacy schema-1 events
// and decode fine; a line claiming a version beyond SchemaVersion aborts with
// a clear, line-numbered error instead of best-effort decoding.
func TestReadJSONLSchemaVersions(t *testing.T) {
	legacy := `{"at_ns":2500000,"round":3,"kind":"isolation","node":1,"subject":2,"detail":"old stream"}` + "\n"
	events, err := ReadJSONL(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy version-less line must decode, got %v", err)
	}
	if len(events) != 1 || events[0].Kind != KindIsolation || events[0].Subject != 2 {
		t.Fatalf("legacy line decoded to %+v", events)
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, Event{Kind: KindNote}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"v":4,"at_ns":0,"round":0,"kind":"transmit","invalid":2}` + "\n")
	_, err = ReadJSONL(&buf)
	if err == nil {
		t.Fatalf("want an unsupported-schema error")
	}
	for _, want := range []string{"line 2", "unsupported schema version 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if _, err := ReadJSONL(strings.NewReader(`{"v":-1,"kind":"note"}` + "\n")); err == nil {
		t.Fatalf("want an unsupported-schema error for a negative version")
	}

	v2 := `{"v":2,"at_ns":625000,"round":0,"kind":"transmit","node":2,"detail":"benign"}` + "\n"
	events, err = ReadJSONL(strings.NewReader(v2))
	if err != nil {
		t.Fatalf("schema-2 line must decode, got %v", err)
	}
	if want := (Event{At: 625 * time.Microsecond, Kind: KindTransmit, Node: 2, Detail: "benign"}); len(events) != 1 || events[0] != want {
		t.Fatalf("schema-2 line decoded to %+v, want %+v", events, want)
	}
	if _, err := ReadJSONL(strings.NewReader(`{"v":3,"kind":"transmit","payload":"not base64!"}` + "\n")); err == nil {
		t.Fatalf("want a decode error for a malformed payload")
	}
}

// TestWriteJSONLStampsSchemaVersion: every written line carries the current
// schema version so future readers can dispatch on it, and a clean
// transmit event carries none of the schema-3 deviation fields.
func TestWriteJSONLStampsSchemaVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, Event{Kind: KindAccusation, Evidence: EvidenceMatrix}); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, `"v":3`) {
		t.Fatalf("written line %q lacks the schema version stamp", line)
	}
	if !strings.Contains(line, `"evidence":"matrix-disagreement"`) {
		t.Fatalf("written line %q lacks the evidence field", line)
	}
	buf.Reset()
	if err := WriteJSONL(&buf, Event{Kind: KindTransmit, Node: 1, Detail: "correct"}); err != nil {
		t.Fatal(err)
	}
	if want := `{"v":3,"at_ns":0,"round":0,"kind":"transmit","node":1,"detail":"correct"}` + "\n"; buf.String() != want {
		t.Fatalf("clean transmit line %q, want %q", buf.String(), want)
	}
	buf.Reset()
	if err := WriteJSONL(&buf, Event{Kind: KindTransmit, Node: 1, Invalid: 6, Collision: true, Payload: "\x0f"}); err != nil {
		t.Fatal(err)
	}
	if want := `"invalid":6,"collision":true,"payload":"Dw=="}`; !strings.HasSuffix(strings.TrimSpace(buf.String()), want) {
		t.Fatalf("transmit line %q does not end in %q", buf.String(), want)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, errShortPipe
}

var errShortPipe = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "pipe closed" }
