package rng

import "math/rand"

// fastSource is a rand.Source64 that is draw-for-draw identical to
// math/rand's default source (the additive lagged Fibonacci generator
// vec[feed] += vec[tap] over 607 int64 words) but seeds lazily: Seed records
// the normalised LCG start value and clears a presence bitset instead of
// running the 1841-step seeding recurrence, and each state word is
// materialised on first touch from a closed form of the seeding LCG. That
// turns Seed from ~15µs into ~10ns, which matters because campaign workers
// reseed a handful of named streams per repetition — at ~1200 repetitions per
// rendered artifact the stdlib reseed alone costs tens of milliseconds.
//
// Equivalence with the stdlib source is structural, not sampled: the seeding
// recurrence assigns vec[i] from LCG chain positions 21+3i, 22+3i, 23+3i
// XORed with a fixed per-slot constant, so vec[i] is a pure function of the
// seed computable in three multiplications from a per-slot power of the LCG
// multiplier (fastPow, tabulated at init). The per-slot constants are not
// copied from the stdlib source: they are recovered numerically at package
// init from the first 607 outputs of rand.NewSource(1) — every state word is
// read at a known cursor position before or as it is first overwritten, so
// the seeded vector (and with it each constant) is fully determined by those
// outputs. TestFastSourceMatchesStdlib pins the equivalence draw by draw.
type fastSource struct {
	vec  [fastLen]int64
	done [(fastLen + 63) / 64]uint64
	tap  int
	feed int
	x0   uint64 // normalised seed: LCG chain position 0
}

// Generator parameters of math/rand's default source and of the
// multiplicative LCG (Lehmer, Park–Miller constants) used to seed it.
const (
	fastLen  = 607       // state vector length
	fastTap  = 273       // distance of the second read cursor
	lcgA     = 48271     // seeding LCG multiplier
	lcgM     = 1<<31 - 1 // seeding LCG modulus (Mersenne prime 2³¹−1)
	seedZero = 89482311  // stdlib replacement for the forbidden zero seed
)

// fastCooked[i] is the fixed XOR constant the seeding recurrence folds into
// state word i; recovered from the reference source at init.
var fastCooked [fastLen]int64

// fastPow[i] is lcgA^(21+3i) mod lcgM, the LCG multiplier that takes the
// normalised seed to slot i's first chain position: a cold slot costs one
// modular multiplication instead of a modpow.
var fastPow [fastLen]uint64

// modmul returns a·b mod 2³¹−1 for a, b < 2³¹, using the Mersenne-prime
// folding identity x ≡ (x>>31) + (x & 2³¹−1) applied twice.
func modmul(a, b uint64) uint64 {
	p := a * b
	p = (p >> 31) + (p & lcgM)
	p = (p >> 31) + (p & lcgM)
	if p >= lcgM {
		p -= lcgM
	}
	return p
}

// modpow returns base^exp mod 2³¹−1 by square-and-multiply.
func modpow(base, exp uint64) uint64 {
	result := uint64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 != 0 {
			result = modmul(result, base)
		}
		base = modmul(base, base)
	}
	return result
}

// init recovers fastCooked from the first 607 outputs of the stdlib source
// seeded with 1. Output k (1-based) reads slots feed_k and tap_k and
// overwrites feed_k; the feed cursor visits 333..0, then 606..335, then 334,
// and the tap cursor trails it by 273 slots, so:
//
//   - k in [274,334]: the tap slot was overwritten at draw k−273 while the
//     feed slot still holds its seeded value → seeded[334−k] = out_k − out_{k−273};
//   - k in [335,606]: same shape one wrap later → seeded[941−k] = out_k − out_{k−273};
//   - k = 607: the feed slot 334 is read seeded for the first time, the tap
//     slot 0 was overwritten at draw 334 → seeded[334] = out_607 − out_334;
//   - k in [1,273]: both slots are still seeded, and slot 607−k is already
//     recovered by the cases above → seeded[334−k] = out_k − seeded[607−k].
//
// All additions wrap in two's complement, so the subtractions are exact in
// uint64. XORing out the seed-1 LCG chain then isolates the constants.
func init() {
	src := rand.NewSource(1).(rand.Source64)
	var out [fastLen + 1]uint64 // 1-based
	for k := 1; k <= fastLen; k++ {
		out[k] = src.Uint64()
	}
	var seeded [fastLen]uint64
	for k := 274; k <= 334; k++ {
		seeded[334-k] = out[k] - out[k-273]
	}
	for k := 335; k <= 606; k++ {
		seeded[941-k] = out[k] - out[k-273]
	}
	seeded[334] = out[607] - out[334]
	for k := 1; k <= 273; k++ {
		seeded[334-k] = out[k] - seeded[607-k]
	}
	a := modpow(lcgA, 21) // chain position 21 for x0 = 1
	lcgA3 := modpow(lcgA, 3)
	for i := 0; i < fastLen; i++ {
		fastPow[i] = a
		b := modmul(lcgA, a)
		c := modmul(lcgA, b)
		fastCooked[i] = int64(seeded[i]) ^ int64(a<<40^b<<20^c)
		a = modmul(a, lcgA3)
	}
}

// newFastSource returns a fast source positioned exactly like
// rand.NewSource(seed).
func newFastSource(seed int64) *fastSource {
	s := &fastSource{}
	s.Seed(seed)
	return s
}

// Seed repositions the source exactly like the stdlib Seed, in O(1): the
// seed is normalised into the LCG domain and the lazily materialised state
// is invalidated.
func (s *fastSource) Seed(seed int64) {
	s.x0 = normSeed(seed)
	s.tap = 0
	s.feed = fastLen - fastTap
	s.done = [(fastLen + 63) / 64]uint64{}
}

// normSeed normalises a seed into the LCG domain, as the stdlib Seed does.
func normSeed(seed int64) uint64 {
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = seedZero
	}
	return uint64(seed)
}

// seededWord is state word i of a source seeded at normalised seed x0:
// three modular multiplications, wherever the slot lies.
func seededWord(i int, x0 uint64) int64 {
	a := modmul(fastPow[i], x0)
	b := modmul(lcgA, a)
	c := modmul(lcgA, b)
	return int64(a<<40^b<<20^c) ^ fastCooked[i]
}

// firstDraw is newFastSource(seed).Uint64(): the first draw adds the
// seeded words under the feed cursor (slot fastLen-fastTap-1) and the tap
// cursor (slot fastLen-1).
func firstDraw(seed int64) uint64 {
	x0 := normSeed(seed)
	return uint64(seededWord(fastLen-fastTap-1, x0) + seededWord(fastLen-1, x0))
}

// ensure materialises state word i if it has not been generated or lazily
// seeded yet.
func (s *fastSource) ensure(i int) {
	w, bit := i>>6, uint(i)&63
	if s.done[w]&(1<<bit) != 0 {
		return
	}
	s.vec[i] = seededWord(i, s.x0)
	s.done[w] |= 1 << bit
}

// Uint64 implements rand.Source64, bit-identically to the stdlib source.
func (s *fastSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += fastLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += fastLen
	}
	s.ensure(s.feed)
	s.ensure(s.tap)
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *fastSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
