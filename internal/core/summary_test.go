package core

import (
	"bytes"
	"testing"
)

func TestShardSummaryRoundTrip(t *testing.T) {
	cases := []ShardSummary{
		{Size: 1, Isolated: 0, Faulty: 0},
		{Size: 4, Isolated: 1, Faulty: 2},
		{Size: 17, Isolated: 17, Faulty: 0},
		{Size: MaxPackedN, Isolated: 31, Faulty: MaxPackedN},
	}
	for _, want := range cases {
		buf, err := want.Encode()
		if err != nil {
			t.Fatalf("Encode(%+v): %v", want, err)
		}
		if len(buf) != SummaryWireLen {
			t.Fatalf("Encode(%+v) wrote %d bytes, want %d", want, len(buf), SummaryWireLen)
		}
		got, err := DecodeShardSummary(buf)
		if err != nil {
			t.Fatalf("Decode(%+v): %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
		var into [SummaryWireLen]byte
		if err := want.EncodeInto(into[:]); err != nil {
			t.Fatalf("EncodeInto(%+v): %v", want, err)
		}
		if !bytes.Equal(into[:], buf) {
			t.Errorf("EncodeInto(%+v) = %x, Encode = %x", want, into, buf)
		}
	}
}

func TestShardSummaryValidation(t *testing.T) {
	bad := []ShardSummary{
		{Size: 0},
		{Size: MaxPackedN + 1},
		{Size: 4, Isolated: 5},
		{Size: 4, Isolated: -1},
		{Size: 4, Faulty: 5},
		{Size: 4, Faulty: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", s)
		}
		if _, err := s.Encode(); err == nil {
			t.Errorf("Encode(%+v): want error", s)
		}
	}
	if err := (ShardSummary{Size: 4}).EncodeInto(make([]byte, 2)); err == nil {
		t.Error("EncodeInto with a short buffer: want error")
	}
	if _, err := DecodeShardSummary([]byte{1, 2}); err == nil {
		t.Error("Decode of a short payload: want error")
	}
	// An over-range field survives the 7-bit packing but fails decode-side
	// validation: Isolated = 65 > Size = 64.
	w := uint32(64) | uint32(65)<<7
	if _, err := DecodeShardSummary([]byte{byte(w), byte(w >> 8), byte(w >> 16)}); err == nil {
		t.Error("Decode of an inconsistent summary: want error")
	}
}

func TestShardSummaryHealth(t *testing.T) {
	cases := []struct {
		s    ShardSummary
		want Opinion
	}{
		{ShardSummary{}, Erased},
		{ShardSummary{Size: 8}, Healthy},
		{ShardSummary{Size: 8, Isolated: 3}, Healthy},
		{ShardSummary{Size: 8, Isolated: 4}, Faulty},
		{ShardSummary{Size: 8, Isolated: 8}, Faulty},
		{ShardSummary{Size: 1, Isolated: 0}, Healthy},
		{ShardSummary{Size: 1, Isolated: 1}, Faulty},
	}
	for _, c := range cases {
		if got := c.s.Health(); got != c.want {
			t.Errorf("Health(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
	if (ShardSummary{Size: 8, Faulty: 1}).Degraded() != true {
		t.Error("Degraded: faulty shard not flagged")
	}
	if (ShardSummary{Size: 8}).Degraded() {
		t.Error("Degraded: clean shard flagged")
	}
}

// TestShardSummaryDecodeExhaustive decodes every one of the 2^24 possible
// payloads: none may panic, and every accepted payload must re-encode to the
// bytes it came from, so a gateway cannot smuggle data through a frame that
// decodes like an honest one.
func TestShardSummaryDecodeExhaustive(t *testing.T) {
	var in, out [SummaryWireLen]byte
	accepted := 0
	for w := 0; w < 1<<(8*SummaryWireLen); w++ {
		in[0], in[1], in[2] = byte(w), byte(w>>8), byte(w>>16)
		s, err := DecodeShardSummary(in[:])
		if err != nil {
			continue
		}
		accepted++
		if err := s.EncodeInto(out[:]); err != nil {
			t.Fatalf("payload % x decoded to %+v, which does not re-encode: %v", in, s, err)
		}
		if out != in {
			t.Fatalf("payload % x decoded to %+v, which re-encodes as % x", in, s, out)
		}
	}
	// Every valid (size, isolated, faulty) triple has exactly one frame.
	want := 0
	for size := 1; size <= MaxPackedN; size++ {
		want += (size + 1) * (size + 1)
	}
	if accepted != want {
		t.Fatalf("%d payloads accepted, want one per valid summary (%d)", accepted, want)
	}
	if _, err := DecodeShardSummary([]byte{4, 0, 0xE0}); err == nil {
		t.Fatal("payload with padding bits set accepted")
	}
}
