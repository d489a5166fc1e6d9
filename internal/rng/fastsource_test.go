package rng

import (
	"math"
	"math/rand"
	"testing"
)

var fastSeedCases = []int64{
	0, 1, -1, 42, 89482311, 1<<31 - 1, 1 << 31, -(1 << 31), 1<<63 - 1, -1 << 63,
	7, 123456789, -987654321,
}

// TestFastSourceMatchesStdlib pins the lazy source draw-for-draw against the
// stdlib source across seeds that exercise every normalisation branch, for
// enough draws to wrap the 607-word state vector several times (the wrap is
// where the lazily seeded and generated words interleave). The feed cursor
// first touches every slot within the first 607 draws, and every first
// touch seeds the slot from its fastPow entry, so each seed checks the whole
// table.
func TestFastSourceMatchesStdlib(t *testing.T) {
	const draws = 3 * fastLen
	for _, seed := range fastSeedCases {
		ref := rand.NewSource(seed).(rand.Source64)
		fast := newFastSource(seed)
		for k := 0; k < draws; k++ {
			want, got := ref.Uint64(), fast.Uint64()
			if got != want {
				t.Fatalf("seed %d draw %d: fast %#x, stdlib %#x", seed, k, got, want)
			}
		}
	}
}

// TestFastSourceReseed checks that reseeding mid-stream — the Pool.Stream hot
// path — matches a freshly seeded stdlib source, including reseeds taken at
// positions where the state vector is only partially materialised.
func TestFastSourceReseed(t *testing.T) {
	fast := newFastSource(1)
	for _, warm := range []int{0, 1, 17, fastLen - 1, fastLen, fastLen + 5, 2*fastLen + 3} {
		for _, seed := range fastSeedCases {
			for k := 0; k < warm; k++ {
				fast.Uint64()
			}
			fast.Seed(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for k := 0; k < 2*fastLen; k++ {
				want, got := ref.Uint64(), fast.Uint64()
				if got != want {
					t.Fatalf("seed %d after %d warm draws, draw %d: fast %#x, stdlib %#x",
						seed, warm, k, got, want)
				}
			}
		}
	}
}

// TestFastSourceRandDistributions checks the wrapped rand.Rand draw
// sequences — everything Stream exposes — against the stdlib source.
func TestFastSourceRandDistributions(t *testing.T) {
	ref := rand.New(rand.NewSource(99))
	fast := rand.New(newFastSource(99))
	for k := 0; k < 4000; k++ {
		if want, got := ref.Int63(), fast.Int63(); got != want {
			t.Fatalf("draw %d: Int63 %d != %d", k, got, want)
		}
		if want, got := ref.Intn(97), fast.Intn(97); got != want {
			t.Fatalf("draw %d: Intn %d != %d", k, got, want)
		}
		if want, got := ref.Float64(), fast.Float64(); got != want {
			t.Fatalf("draw %d: Float64 %v != %v", k, got, want)
		}
		if want, got := ref.ExpFloat64(), fast.ExpFloat64(); got != want {
			t.Fatalf("draw %d: ExpFloat64 %v != %v", k, got, want)
		}
		if want, got := ref.NormFloat64(), fast.NormFloat64(); got != want {
			t.Fatalf("draw %d: NormFloat64 %v != %v", k, got, want)
		}
	}
}

// TestStreamUsesFastSource pins that named streams (and pooled reseeds) stay
// draw-identical to the historical stdlib-sourced streams.
func TestStreamUsesFastSource(t *testing.T) {
	src := NewSource(12345)
	name := "equivalence/run-3"
	want := rand.New(rand.NewSource(int64(src.mix(name))))
	st := src.Stream(name)
	for k := 0; k < 2000; k++ {
		if w, g := want.Uint64(), st.Uint64(); g != w {
			t.Fatalf("draw %d: stream %#x, stdlib-seeded %#x", k, g, w)
		}
	}
	pool := src.NewPool()
	pool.Stream("other").Uint64()
	pool.Recycle()
	st = pool.Stream(name)
	want.Seed(int64(src.mix(name)))
	for k := 0; k < 2000; k++ {
		if w, g := want.Uint64(), st.Uint64(); g != w {
			t.Fatalf("pooled draw %d: stream %#x, stdlib-seeded %#x", k, g, w)
		}
	}
}

// TestFirstDrawMatchesStdlib pins firstDraw against the first draw of the
// stdlib source, across the seeds whose normalisation differs: zero and
// multiples of the modulus (the forbidden zero seed), negatives and the
// int64 extremes.
func TestFirstDrawMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, lcgM, -lcgM, 2 * lcgM, seedZero, lcgM - 1, math.MaxInt64, math.MinInt64}
	for i := int64(0); i < 200; i++ {
		seeds = append(seeds, int64(uint64(i)*0x9e3779b97f4a7c15))
	}
	for _, seed := range seeds {
		if got, want := firstDraw(seed), rand.NewSource(seed).(rand.Source64).Uint64(); got != want {
			t.Fatalf("seed %d: firstDraw %#x, stdlib %#x", seed, got, want)
		}
	}
}

func BenchmarkSourceSeed(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		s := newFastSource(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			s.Uint64()
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		s := rand.NewSource(1).(rand.Source64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			s.Uint64()
		}
	})
}
