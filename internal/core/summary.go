package core

import (
	"errors"
	"fmt"
)

// ShardSummary is the cluster-health summary a shard's gateway disseminates
// at the inter-cluster level of a hierarchical fleet: how large the shard is,
// how many of its nodes the intra-shard protocol has isolated, and how many
// the latest consistent health vector holds faulty. It is the payload the
// gateway appends to its fleet-level syndrome — the fleet analogue of the
// per-node opinion, but carrying enough detail for capacity planning (a shard
// that has burned through its 2a+2s+b+1 margin is flagged before it fails).
type ShardSummary struct {
	// Size is the shard's node count (1..MaxPackedN).
	Size int
	// Isolated is how many shard nodes the intra-shard penalty/reward
	// algorithm has isolated (0..Size).
	Isolated int
	// Faulty is how many entries of the shard's latest consistent health
	// vector are Faulty (0..Size); zero while the shard protocol warms up.
	Faulty int
}

// SummaryWireLen is the encoded size of a ShardSummary: three 7-bit fields
// (each bounded by MaxPackedN = 64 ≤ 127) bit-packed into three bytes.
const SummaryWireLen = 3

// summaryFieldBits is the width of each packed field; 7 bits hold 0..127,
// comfortably covering 0..MaxPackedN.
const summaryFieldBits = 7

// Health folds the summary into a fleet-level opinion about the shard:
// Faulty once isolations have consumed the shard's majority margin (half or
// more of its nodes isolated, so intra-shard voting can no longer outvote a
// coincident fault), Healthy otherwise, Erased for the zero value.
func (s ShardSummary) Health() Opinion {
	if s.Size <= 0 {
		return Erased
	}
	if 2*s.Isolated >= s.Size {
		return Faulty
	}
	return Healthy
}

// Degraded reports whether the shard currently carries any isolation or open
// fault verdict — the "attention" bit of fleet dashboards.
func (s ShardSummary) Degraded() bool { return s.Isolated > 0 || s.Faulty > 0 }

// Validate checks the field bounds the wire format relies on.
func (s ShardSummary) Validate() error {
	if s.Size < 1 || s.Size > MaxPackedN {
		return fmt.Errorf("core: shard summary size %d out of range 1..%d", s.Size, MaxPackedN)
	}
	if s.Isolated < 0 || s.Isolated > s.Size {
		return fmt.Errorf("core: shard summary isolated %d out of range 0..%d", s.Isolated, s.Size)
	}
	if s.Faulty < 0 || s.Faulty > s.Size {
		return fmt.Errorf("core: shard summary faulty %d out of range 0..%d", s.Faulty, s.Size)
	}
	return nil
}

// EncodeInto writes the bit-packed wire form into dst (SummaryWireLen bytes):
// Size in bits 0-6, Isolated in bits 7-13, Faulty in bits 14-20, LSB-first
// like every other wire field in this package.
func (s ShardSummary) EncodeInto(dst []byte) error {
	if len(dst) != SummaryWireLen {
		return fmt.Errorf("core: shard summary buffer is %d bytes, want %d", len(dst), SummaryWireLen)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	w := uint32(s.Size) |
		uint32(s.Isolated)<<summaryFieldBits |
		uint32(s.Faulty)<<(2*summaryFieldBits)
	dst[0] = byte(w)
	dst[1] = byte(w >> 8)
	dst[2] = byte(w >> 16)
	return nil
}

// Encode returns the wire form as a fresh buffer.
func (s ShardSummary) Encode() ([]byte, error) {
	buf := make([]byte, SummaryWireLen)
	if err := s.EncodeInto(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// errSummaryPadding rejects a summary frame with any of bits 21-23 set.
var errSummaryPadding = errors.New("core: shard summary payload has non-zero padding bits")

// DecodeShardSummary parses the wire form written by EncodeInto, validating
// the field bounds and the zero padding (a corrupted summary is locally
// detectable, like an undecodable syndrome payload). Every accepted payload
// re-encodes to the same bytes.
func DecodeShardSummary(data []byte) (ShardSummary, error) {
	if len(data) != SummaryWireLen {
		return ShardSummary{}, fmt.Errorf("core: shard summary payload is %d bytes, want %d", len(data), SummaryWireLen)
	}
	w := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16
	if w>>(3*summaryFieldBits) != 0 {
		// EncodeInto never sets the padding bits 21-23; accepting them would
		// let two different frames decode to one summary.
		return ShardSummary{}, errSummaryPadding
	}
	const fieldMask = 1<<summaryFieldBits - 1
	s := ShardSummary{
		Size:     int(w & fieldMask),
		Isolated: int(w >> summaryFieldBits & fieldMask),
		Faulty:   int(w >> (2 * summaryFieldBits) & fieldMask),
	}
	if err := s.Validate(); err != nil {
		return ShardSummary{}, err
	}
	return s, nil
}
