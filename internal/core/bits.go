package core

import (
	"errors"
	"fmt"
	"math/bits"
)

// MaxPackedN is the widest flat system the diagnostic core supports: one
// machine word holds one opinion per node. Wider systems are refused with
// ErrBeyondPackedBound; internal/fleet shards them into clusters of at most
// MaxPackedN nodes.
const MaxPackedN = 64

// ErrBeyondPackedBound is the error every flat-system constructor returns
// when asked for more than MaxPackedN nodes.
var ErrBeyondPackedBound = errors.New("core: flat systems are limited to MaxPackedN = 64 nodes; shard wider systems with internal/fleet")

// checkFlatN refuses system sizes beyond MaxPackedN.
func checkFlatN(n int) error {
	if n > MaxPackedN {
		return ErrBeyondPackedBound
	}
	return nil
}

// PlaneMask returns the word mask covering nodes 1..n (bit j-1 = node j) —
// the valid-bit region of every plane in an n-node system. n must be at most
// MaxPackedN; larger values are clamped to the full word.
func PlaneMask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= MaxPackedN {
		return ^uint64(0)
	}
	return ^uint64(0) >> (64 - uint(n))
}

// BitSyndrome is the packed form of a Syndrome: two uint64 planes with bit
// j-1 holding node j's entry. The opinion plane carries the vote (1 =
// Healthy), the known plane carries presence (0 = the paper's ε). A cleared
// known bit makes the opinion bit meaningless; every constructor in this
// package keeps the invariant Op &^ Known == 0. A BitSyndrome is a value —
// copying it copies the whole vector, so unlike Syndrome slices there is no
// aliasing to reason about.
//
// Entries outside {Faulty, Healthy, Erased} cannot be represented: packing
// normalises them to ε, which is exactly how the voting of Eqn. 1 treats
// them (any non-0/1 opinion is excluded from the tally).
type BitSyndrome struct {
	// Op is the opinion plane: bit j-1 set means node j's entry is Healthy.
	Op uint64
	// Known is the presence plane: bit j-1 clear means node j's entry is ε.
	Known uint64
}

// bitSyndromeAllHealthy returns the packed all-Healthy syndrome for n nodes.
func bitSyndromeAllHealthy(n int) BitSyndrome {
	m := PlaneMask(n)
	return BitSyndrome{Op: m, Known: m}
}

// normalized returns b restricted to nodes 1..n with the Op ⊆ Known
// invariant enforced.
func (b BitSyndrome) normalized(all uint64) BitSyndrome {
	return BitSyndrome{Op: b.Op & b.Known & all, Known: b.Known & all}
}

// Get returns node j's entry; out-of-range indices read as Erased (matching
// the Syndrome convention that index 0 is always Erased).
func (b BitSyndrome) Get(j int) Opinion {
	if j < 1 || j > MaxPackedN {
		return Erased
	}
	bit := uint64(1) << uint(j-1)
	switch {
	case b.Known&bit == 0:
		return Erased
	case b.Op&bit != 0:
		return Healthy
	default:
		return Faulty
	}
}

// Set stores node j's entry; out-of-range indices are ignored.
func (b *BitSyndrome) Set(j int, o Opinion) {
	if j < 1 || j > MaxPackedN {
		return
	}
	bit := uint64(1) << uint(j-1)
	switch o {
	case Healthy:
		b.Op |= bit
		b.Known |= bit
	case Faulty:
		b.Op &^= bit
		b.Known |= bit
	default:
		b.Op &^= bit
		b.Known &^= bit
	}
}

// CountFaulty returns how many of the first n entries are Faulty.
func (b BitSyndrome) CountFaulty(n int) int {
	all := PlaneMask(n)
	return bits.OnesCount64(b.Known & ^b.Op & all)
}

// PackSyndrome converts a byte-per-entry syndrome into its packed form. It
// fails for syndromes wider than MaxPackedN nodes.
func PackSyndrome(s Syndrome) (BitSyndrome, error) {
	if err := checkFlatN(s.N()); err != nil {
		return BitSyndrome{}, err
	}
	return packSyndrome(s), nil
}

// packSyndrome is PackSyndrome for callers that already validated N <= 64.
func packSyndrome(s Syndrome) BitSyndrome {
	var b BitSyndrome
	for j := 1; j <= s.N(); j++ {
		bit := uint64(1) << uint(j-1)
		switch s[j] {
		case Healthy:
			b.Op |= bit
			b.Known |= bit
		case Faulty:
			b.Known |= bit
		}
	}
	return b
}

// Unpack materialises the packed syndrome as a fresh scalar Syndrome for n
// nodes (entry 0 Erased, per the Syndrome convention; entries past
// MaxPackedN read Erased, like Get).
func (b BitSyndrome) Unpack(n int) Syndrome {
	s := make(Syndrome, n+1)
	s[0] = Erased
	for j := 1; j <= n; j++ {
		s[j] = b.Get(j)
	}
	return s
}

// BitSyndromeFromWire unpacks a wire-format diagnostic message (the same
// LSB-first bit layout written by Syndrome.Encode) directly into planes: a
// handful of byte loads instead of the O(N) per-entry loop of
// DecodeSyndromeInto. Every entry of a wire syndrome is known (the ε case is
// a missing or invalid frame, not a payload value), so Known covers all n
// nodes. Padding bits beyond n are ignored, exactly like the scalar decoder.
func BitSyndromeFromWire(data []byte, n int) (BitSyndrome, error) {
	if n < 0 || n > MaxPackedN {
		return BitSyndrome{}, fmt.Errorf("core: packed wire decode supports 0..%d nodes, got %d", MaxPackedN, n)
	}
	if len(data) != EncodedLen(n) {
		return BitSyndrome{}, fmt.Errorf("core: syndrome payload is %d bytes, want %d for %d nodes", len(data), EncodedLen(n), n)
	}
	var w uint64
	for i, v := range data {
		w |= uint64(v) << uint(8*i)
	}
	all := PlaneMask(n)
	return BitSyndrome{Op: w & all, Known: all}, nil
}

// EncodeInto writes the wire form of the first len(dst)*8 entries into dst
// (LSB-first, Healthy = 1, ε and Faulty = 0), byte-identical to
// Syndrome.EncodeInto on the unpacked equivalent. dst must be EncodedLen(n)
// bytes for the system in question.
func (b BitSyndrome) EncodeInto(dst []byte) {
	w := b.Op & b.Known
	for i := range dst {
		dst[i] = byte(w >> uint(8*i))
	}
}

// String renders the first n entries like Syndrome.String, e.g. "11e0".
func (b BitSyndrome) String(n int) string {
	buf := make([]byte, 0, n)
	for j := 1; j <= n; j++ {
		buf = append(buf, b.Get(j).String()[0])
	}
	return string(buf)
}
