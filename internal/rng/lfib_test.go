package rng

import (
	"math"
	"math/rand"
	"testing"
)

// equalitySeeds covers the seeding edge cases: zero (substituted by
// math/rand), ±1, the modulus 2³¹−1 and its multiples (which reduce to
// zero), the substitute value itself, the int64 extremes, and the
// SubSeed outputs the frame pipeline actually uses.
func equalitySeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, m, -m, 2 * m, -2 * m, 3 * m, m - 1, m + 1, -(m - 1),
		seedZero, -seedZero, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		1 << 31, 42, 2014,
	}
	for i := int64(0); i < 4; i++ {
		seeds = append(seeds, SubSeed(2014, i), SubSeed(-7, i))
	}
	return seeds
}

// checkMatchesMathRand draws n values of every kind the simulator
// uses from got and from math/rand seeded with seed, interleaved the
// same way, and fails on the first difference. Floats are compared by
// their bits.
func checkMatchesMathRand(t *testing.T, got *Source, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := got.r.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, g, w)
		}
		if g, w := got.r.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, g, w)
		}
		if g, w := got.Intn(1+i%97), want.Intn(1+i%97); g != w {
			t.Fatalf("seed %d draw %d: Intn %d, want %d", seed, i, g, w)
		}
		if g, w := math.Float64bits(got.Float64()), math.Float64bits(want.Float64()); g != w {
			t.Fatalf("seed %d draw %d: Float64 bits %#x, want %#x", seed, i, g, w)
		}
		if g, w := math.Float64bits(got.Norm()), math.Float64bits(want.NormFloat64()); g != w {
			t.Fatalf("seed %d draw %d: NormFloat64 bits %#x, want %#x", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins New(seed) to math/rand's stream for
// every seed class, and Reseed — after arbitrary earlier draws — to
// New(seed).
func TestSourceMatchesMathRand(t *testing.T) {
	reused := New(5)
	for _, seed := range equalitySeeds() {
		checkMatchesMathRand(t, New(seed), seed, 2000)
		reused.Bits(make([]byte, 1+int(uint64(seed)%300)))
		reused.Norm()
		reused.Reseed(seed)
		checkMatchesMathRand(t, reused, seed, 2000)
	}
}

// TestSeedState compares the seeded generator state word for word with
// math/rand's: the first 607 draws of a lagged-Fibonacci generator
// depend on every state word.
func TestSeedState(t *testing.T) {
	for _, seed := range equalitySeeds() {
		var g lfib
		g.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < rngLen; i++ {
			if got, w := g.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, got, w)
			}
		}
	}
}

// TestMulMod checks the division-free reduction against the % operator
// on the residues next to 0, 1 and the modulus, where a fold or the
// final subtraction could be off by one.
func TestMulMod(t *testing.T) {
	edge := []uint64{1, 2, 3, seedA, seedA6, seedMod / 2, seedMod/2 + 1, seedMod - 2, seedMod - 1}
	for _, a := range edge {
		for _, b := range edge {
			if got, want := mulMod(a, b), a*b%seedMod; got != want {
				t.Errorf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestReseedZeroAllocs(t *testing.T) {
	s := New(1)
	i := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		i++
		s.Reseed(SubSeed(2014, i))
		s.Norm()
	})
	if allocs > 0 {
		t.Fatalf("Reseed allocates %g objects per call, want 0", allocs)
	}
}

// FuzzSourceMatchesMathRand extends the table test to arbitrary seeds:
// New, and Reseed after a seed-dependent number of draws, must both
// reproduce math/rand's stream.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range equalitySeeds() {
		f.Add(seed, uint16(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, skip uint16) {
		checkMatchesMathRand(t, New(seed), seed, 300)
		s := New(^seed)
		for i := 0; i < int(skip%2048); i++ {
			s.Int63()
		}
		s.Reseed(seed)
		checkMatchesMathRand(t, s, seed, 300)
	})
}

// sinkSource keeps benchmarked constructions reachable.
var sinkSource *Source

func BenchmarkSubstream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = Substream(2014, int64(i))
	}
}

func BenchmarkReseed(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Reseed(SubSeed(2014, int64(i)))
	}
}
