package rng

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	s1 := NewSource(42).Stream("bus")
	s2 := NewSource(42).Stream("bus")
	for i := 0; i < 1000; i++ {
		if got, want := s1.Uint64(), s2.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestStreamIndependenceByName(t *testing.T) {
	src := NewSource(42)
	a := src.Stream("bus")
	b := src.Stream("payload")
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different names produced %d identical draws out of %d", same, n)
	}
}

func TestStreamIndependenceBySeed(t *testing.T) {
	a := NewSource(1).Stream("bus")
	b := NewSource(2).Stream("bus")
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws out of %d", same, n)
	}
}

func TestExpMean(t *testing.T) {
	st := NewStream(7)
	const (
		rate = 4.0
		n    = 200000
	)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += st.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exponential mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestExpNonPositiveRate(t *testing.T) {
	st := NewStream(7)
	if v := st.Exp(0); !math.IsInf(v, 1) {
		t.Fatalf("Exp(0) = %v, want +Inf", v)
	}
	if v := st.Exp(-1); !math.IsInf(v, 1) {
		t.Fatalf("Exp(-1) = %v, want +Inf", v)
	}
}

func TestBoolProbability(t *testing.T) {
	st := NewStream(5)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if st.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v, want ~0.25", frac)
	}
}

func TestIntnRange(t *testing.T) {
	st := NewStream(9)
	if err := quick.Check(func(raw uint16) bool {
		n := int(raw%100) + 1
		v := st.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesFills(t *testing.T) {
	st := NewStream(13)
	b := make([]byte, 256)
	st.Bytes(b)
	zero := 0
	for _, x := range b {
		if x == 0 {
			zero++
		}
	}
	if zero == len(b) {
		t.Fatal("Bytes left the whole buffer zero")
	}
}

// TestBytesDrawBudget pins the draw economy of Bytes: one Uint64 per eight
// bytes (rounded up), verified by comparing the stream position afterwards
// against a twin stream advanced by explicit Uint64 draws.
func TestBytesDrawBudget(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8, 9, 16, 37} {
		st := NewStream(99)
		st.Bytes(make([]byte, size))
		twin := NewStream(99)
		for i := 0; i < (size+7)/8; i++ {
			twin.Uint64()
		}
		if got, want := st.Uint64(), twin.Uint64(); got != want {
			t.Fatalf("Bytes(%d bytes): stream advanced to %d, want %d (one draw per 8 bytes)", size, got, want)
		}
	}
}

// TestBytesMatchesUint64 pins the byte layout: little-endian packing of the
// underlying Uint64 draws, including the short tail.
func TestBytesMatchesUint64(t *testing.T) {
	st := NewStream(7)
	b := make([]byte, 11)
	st.Bytes(b)
	twin := NewStream(7)
	v1, v2 := twin.Uint64(), twin.Uint64()
	for i := 0; i < 8; i++ {
		if b[i] != byte(v1>>(8*i)) {
			t.Fatalf("byte %d = %#x, want %#x", i, b[i], byte(v1>>(8*i)))
		}
	}
	for i := 8; i < 11; i++ {
		if b[i] != byte(v2>>(8*(i-8))) {
			t.Fatalf("tail byte %d = %#x, want %#x", i, b[i], byte(v2>>(8*(i-8))))
		}
	}
}

func TestInt63nRange(t *testing.T) {
	st := NewStream(15)
	for i := 0; i < 1000; i++ {
		if v := st.Int63n(7); v < 0 || v >= 7 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

// TestStreamBytesMatchesStream pins the byte-slice stream names to the
// string ones, fresh and recycled, and the name hash to hash/fnv's FNV-1a
// that named every stream before.
func TestStreamBytesMatchesStream(t *testing.T) {
	src := NewSource(2007)
	names := []string{"", "rare-event/L0/T0", "rare-event/L7/T139999", "scale/N64-a1-s2-b3/run-12/mal-1", "\xff\x00é"}
	for _, name := range names {
		h := fnv.New64a()
		h.Write([]byte(name))
		if got, want := src.mix(name), h.Sum64()^(src.seed*0x9e3779b97f4a7c15); got != want {
			t.Fatalf("mix(%q) = %#x, want %#x", name, got, want)
		}
	}
	bytesPool, strPool := src.NewPool(), src.NewPool()
	for round := 0; round < 3; round++ {
		bytesPool.Recycle()
		strPool.Recycle()
		for _, name := range names {
			got, want := bytesPool.StreamBytes([]byte(name)), strPool.Stream(name)
			for k := 0; k < 100; k++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("round %d, %q draw %d: StreamBytes %#x, Stream %#x", round, name, k, g, w)
				}
			}
		}
	}
}

func TestStreamBytesAllocs(t *testing.T) {
	pool := NewSource(1).NewPool()
	name := []byte("rare-event/L3/T12")
	pool.StreamBytes(name)
	if allocs := testing.AllocsPerRun(100, func() {
		pool.Recycle()
		pool.StreamBytes(name).Uint64()
	}); allocs != 0 {
		t.Fatalf("StreamBytes on a recycled pool allocates %.1f times, want 0", allocs)
	}
}
