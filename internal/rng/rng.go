// Package rng provides deterministic, named random-number streams for
// reproducible simulation campaigns.
//
// Every experiment in this repository takes an explicit master seed. Streams
// derived from the same master seed and the same name always produce the same
// sequence, independent of the order in which other streams are created or
// consumed. This is what makes fault-injection campaigns reproducible
// bit-for-bit while still letting independent subsystems (bus interference,
// malicious payloads, scenario phases) draw independent randomness.
package rng

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
)

// Source is a factory for named, independent random streams sharing one
// master seed.
type Source struct {
	seed uint64
}

// NewSource returns a stream factory rooted at the given master seed.
func NewSource(seed int64) *Source {
	return &Source{seed: uint64(seed)}
}

// Stream returns the deterministic random stream identified by name.
// Calling Stream twice with the same name returns two independent streams
// positioned at the same starting point. Streams are backed by the lazily
// seeded fastSource, draw-for-draw identical to math/rand's default source.
func (s *Source) Stream(name string) *Stream {
	return &Stream{r: rand.New(newFastSource(int64(s.mix(name))))}
}

// mix derives the stream seed for a name. The hash of the name is mixed with
// the master seed so that distinct seeds produce unrelated streams even for
// equal names.
func (s *Source) mix(name string) uint64 { return mixName(s, name) }

// mixName is mix for a name held in a string or a byte slice: the 64-bit
// FNV-1a hash of its bytes, mixed with the master seed.
func mixName[T string | []byte](s *Source, name T) uint64 {
	return s.seedOf(hashBytes(fnvOffset64, name))
}

// seedOf mixes a name's hash with the master seed.
func (s *Source) seedOf(h NameHash) uint64 { return uint64(h) ^ (s.seed * 0x9e3779b97f4a7c15) }

// NameHash is the running FNV-1a hash of a stream name, so that names
// sharing a prefix hash it once: HashName(a).Add(b) is the hash of a+b.
type NameHash uint64

// HashName starts the hash of a stream name with its first part.
func HashName(part string) NameHash { return hashBytes(fnvOffset64, part) }

// Add continues the hash with the bytes of part.
func (h NameHash) Add(part string) NameHash { return hashBytes(h, part) }

// AddInt continues the hash with the decimal digits of v, as
// strconv.AppendInt writes them.
func (h NameHash) AddInt(v int64) NameHash {
	var digits [20]byte
	return hashBytes(h, strconv.AppendInt(digits[:0], v, 10))
}

// hashBytes continues an FNV-1a hash with the bytes of b.
func hashBytes[T string | []byte](h NameHash, b T) NameHash {
	for i := 0; i < len(b); i++ {
		h ^= NameHash(b[i])
		h *= fnvPrime64
	}
	return h
}

// FirstUint64 returns the first Uint64 of the stream whose name hashes to
// h — Stream(name).Uint64() — computed from the two state words the first
// draw reads, without seeding a generator. For a stream that serves a
// single draw, such as a per-trial key.
func (s *Source) FirstUint64(h NameHash) uint64 { return firstDraw(int64(s.seedOf(h))) }

// The 64-bit FNV-1a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Pool recycles stream state across the repetitions executed by one campaign
// worker: math/rand's generator state is ~5 KB, so deriving fresh named
// streams in every repetition dominates the allocation profile of an
// otherwise allocation-free campaign. Pool.Stream is draw-for-draw identical
// to Source.Stream. A Pool must not be shared between goroutines — create
// one per campaign worker.
type Pool struct {
	src     *Source
	streams []*Stream
	next    int
}

// NewPool returns an empty stream pool backed by this source.
func (s *Source) NewPool() *Pool { return &Pool{src: s} }

// Stream returns the named stream, reusing a recycled generator state when
// one is available.
func (p *Pool) Stream(name string) *Stream { return p.stream(p.src.mix(name)) }

// StreamBytes is Stream for a name held in a byte slice, which it does not
// retain: it returns the stream Stream(string(name)) would, without
// building the string.
func (p *Pool) StreamBytes(name []byte) *Stream { return p.stream(mixName(p.src, name)) }

// stream hands out the pool's next stream, positioned at the given seed.
func (p *Pool) stream(seed uint64) *Stream {
	if p.next < len(p.streams) {
		st := p.streams[p.next]
		p.next++
		st.r.Seed(int64(seed))
		return st
	}
	st := &Stream{r: rand.New(newFastSource(int64(seed)))}
	p.streams = append(p.streams, st)
	p.next++
	return st
}

// Recycle returns every stream handed out so far to the pool. Call it at the
// start of each repetition; streams obtained before the call must no longer
// be used afterwards.
func (p *Pool) Recycle() { p.next = 0 }

// Stream is a deterministic random stream with the distribution helpers the
// simulator needs. It is not safe for concurrent use; derive one stream per
// goroutine instead.
type Stream struct {
	r *rand.Rand
}

// NewStream returns a stand-alone stream seeded directly, for tests that do
// not need named derivation.
func NewStream(seed int64) *Stream {
	return &Stream{r: rand.New(newFastSource(seed))}
}

// Int63n returns a uniform integer in [0, n). n must be > 0.
func (st *Stream) Int63n(n int64) int64 { return st.r.Int63n(n) }

// Intn returns a uniform integer in [0, n). n must be > 0.
func (st *Stream) Intn(n int) int { return st.r.Intn(n) }

// Float64 returns a uniform float in [0, 1).
func (st *Stream) Float64() float64 { return st.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (st *Stream) Uint64() uint64 { return st.r.Uint64() }

// Bool returns true with probability p.
func (st *Stream) Bool(p float64) bool { return st.r.Float64() < p }

// Exp returns an exponentially distributed value with the given rate
// (events per unit). The mean of the returned value is 1/rate.
func (st *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return st.r.ExpFloat64() / rate
}

// Bytes fills b with random bytes, consuming one Uint64 draw per eight bytes
// (little-endian) instead of one draw per byte. Note this makes the filled
// bytes — and the stream position afterwards — differ from the historical
// one-Intn-per-byte implementation, so seeded sequences that mix Bytes with
// other draws (e.g. malicious-syndrome payloads) changed once, at the switch.
func (st *Stream) Bytes(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, st.r.Uint64())
		b = b[8:]
	}
	if len(b) > 0 {
		v := st.r.Uint64()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}
