package trace

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReadJSONL feeds arbitrary bytes to the trace decoder, the reader of
// the files handed to ttdiag-trace. It must never panic, and every stream it
// accepts must re-encode through WriteJSONL into a canonical stream that
// decodes back to the same events and re-encodes to the same bytes.
func FuzzReadJSONL(f *testing.F) {
	var every bytes.Buffer
	for k := KindTransmit; k <= maxKind; k++ {
		if err := WriteJSONL(&every, Event{
			At: time.Duration(k) * time.Millisecond, Round: int(k), Kind: k,
			Node: 1 + int(k)%3, Subject: int(k) % 4, Penalty: int64(k) % 5,
			Threshold: int64(k) % 7, Evidence: EvidenceVerdict, Detail: "detail <&>",
			Invalid: uint64(k) << 60, Collision: k%2 == 0, Payload: "\xff" + k.String(),
		}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(every.Bytes())
	f.Add([]byte(`{"at_ns":2500000,"round":3,"kind":"isolation","node":1,"subject":2,"detail":"old stream"}` + "\n"))
	f.Add([]byte(`{"v":1,"kind":"kind(42)","round":-1}` + "\n\n" + `{"v":2,"kind":"note","detail":"é�"}`))
	f.Add([]byte(`{"v":3,"at_ns":625000,"round":2,"kind":"transmit","node":2,"detail":"asymmetric","invalid":1}` + "\n" +
		`{"v":3,"at_ns":1250000,"round":2,"kind":"transmit","node":3,"detail":"benign","invalid":15,"collision":true}` + "\n" +
		`{"v":3,"at_ns":1875000,"round":2,"kind":"transmit","node":4,"detail":"malicious","payload":"q83v"}`))
	f.Add([]byte(`{"v":3,"kind":"transmit","invalid":18446744073709551615,"collision":false,"payload":""}`))
	f.Add([]byte(`{"v":3,"kind":"transmit","payload":"q83v="}`))
	f.Add([]byte(`{"v":3,"kind":"transmit","invalid":-1}`))
	f.Add([]byte(`{"v":4,"kind":"note"}`))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		for _, e := range events {
			if err := WriteJSONL(&enc, e); err != nil {
				t.Fatalf("re-encoding accepted event %+v: %v", e, err)
			}
		}
		first := append([]byte(nil), enc.Bytes()...)
		again, err := ReadJSONL(&enc)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, first)
		}
		if len(again) != len(events) {
			t.Fatalf("re-encoded stream decodes to %d events, want %d", len(again), len(events))
		}
		var canon bytes.Buffer
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("event %d re-decoded to %+v, want %+v", i, again[i], events[i])
			}
			if err := WriteJSONL(&canon, again[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(canon.Bytes(), first) {
			t.Fatalf("re-encoding is not canonical:\n%s\n%s", first, canon.Bytes())
		}
	})
}
