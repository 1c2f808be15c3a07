// Package rng provides deterministic random number generation for
// reproducible Monte-Carlo simulation.
//
// All experiments in this repository are driven by explicitly seeded
// sources so that every table and figure can be regenerated bit-for-bit.
// The package wraps math/rand with the distributions the simulator
// needs: circularly-symmetric complex Gaussians (Rayleigh fading and
// AWGN), uniform bits, and uniform constellation indices. Sources are
// splittable so that parallel workers draw from independent streams
// without locking.
//
// The generator underneath is math/rand's own additive lagged-Fibonacci
// source, reimplemented here (lfib.go) so that it can be reseeded in
// place: New(seed) draws exactly the stream rand.New(rand.NewSource(seed))
// draws, value for value, and every distribution (NormFloat64, Intn,
// Float64) is still math/rand's own algorithm on top of it. Reseed
// rewinds an existing Source to New(seed)'s stream without allocating,
// and its seeding runs the Lehmer chain with division-free reduction
// modulo the Mersenne prime 2³¹−1 instead of math/rand's Schrage
// divisions, so a per-frame substream costs a few microseconds rather
// than a 4.9 KB allocation and ~14 µs.
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic stream of random values. It is not safe
// for concurrent use; use Split to derive independent streams for
// parallel workers.
type Source struct {
	r *rand.Rand
	g lfib
}

// New returns a Source seeded with seed. Two Sources constructed with
// the same seed produce identical streams, and both equal the stream of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Source {
	s := &Source{}
	s.r = rand.New(&s.g)
	s.r.Seed(seed)
	return s
}

// Reseed rewinds s to the stream New(seed) would return, reusing its
// state: whatever s drew before, its next draws equal a fresh
// New(seed)'s. It allocates nothing, so a worker can keep one Source
// per frame slot and reseed it with SubSeed(seed, frame) per frame.
//
//geolint:noalloc
func (s *Source) Reseed(seed int64) { s.r.Seed(seed) }

// SubSeed derives the seed of substream index from a root seed by
// SplitMix64-style bit mixing. Unlike Split, the derivation is a pure
// function of (seed, index) — it consumes no generator state — so any
// number of workers can construct the same substream for the same
// index without coordinating, and substream i is identical whether it
// is drawn first, last, or concurrently with the others. This is the
// keystone of the deterministic parallel frame pipeline in
// internal/link: frame i always sees Substream(seed, i) regardless of
// worker count or scheduling order.
func SubSeed(seed, index int64) int64 {
	x := uint64(seed)
	x += 0x9e3779b97f4a7c15 // golden-ratio increment decorrelates seed 0
	x ^= uint64(index) * 0xbf58476d1ce4e5b9
	// SplitMix64 finalizer: full-avalanche mixing so adjacent
	// (seed, index) pairs land on statistically unrelated streams.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Substream returns the deterministic substream of seed at index:
// New(SubSeed(seed, index)). Substreams with distinct indices are
// statistically independent; the same (seed, index) pair always yields
// the same stream. Hot loops reseed a pooled Source with
// Reseed(SubSeed(seed, index)) instead, which draws the same stream
// without allocating.
func Substream(seed, index int64) *Source {
	return New(SubSeed(seed, index))
}

// Split derives an independent child stream. The child's sequence is a
// deterministic function of the parent's state at the time of the
// call, so splitting k children in order is reproducible.
func (s *Source) Split() *Source {
	// Mix two draws so children of successive Splits differ even if
	// the underlying generator returns small values.
	seed := s.r.Int63() ^ (s.r.Int63() << 1)
	return New(seed)
}

// SplitN derives n independent child streams in one call.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform value in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Norm returns a standard (zero-mean, unit-variance) real Gaussian.
func (s *Source) Norm() float64 { return s.r.NormFloat64() }

// CN returns a circularly-symmetric complex Gaussian with total
// variance sigma2: each of the real and imaginary parts has variance
// sigma2/2. This is the standard CN(0, sigma2) used for both Rayleigh
// channel taps and complex AWGN.
func (s *Source) CN(sigma2 float64) complex128 {
	sd := math.Sqrt(sigma2 / 2)
	return complex(sd*s.r.NormFloat64(), sd*s.r.NormFloat64())
}

// CNVector fills dst with independent CN(0, sigma2) samples.
func (s *Source) CNVector(dst []complex128, sigma2 float64) {
	for i := range dst {
		dst[i] = s.CN(sigma2)
	}
}

// Bits fills dst with independent uniform bits (0 or 1).
func (s *Source) Bits(dst []byte) {
	var buf int64
	var have int
	for i := range dst {
		if have == 0 {
			buf = s.r.Int63()
			have = 63
		}
		dst[i] = byte(buf & 1)
		buf >>= 1
		have--
	}
}

// Phase returns a uniform phase in [0, 2π).
func (s *Source) Phase() float64 { return 2 * math.Pi * s.r.Float64() }

// UnitPhasor returns e^{jθ} with θ uniform in [0, 2π).
func (s *Source) UnitPhasor() complex128 {
	th := s.Phase()
	return complex(math.Cos(th), math.Sin(th))
}
