package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/rng"
)

// prepDetectors enumerates every SharedPreparer with a fresh instance
// per call, covering all three cache modes (ordered QR, plain QR, RVD).
func prepDetectors(cons *constellation.Constellation) []struct {
	name string
	det  SharedPreparer
} {
	return []struct {
		name string
		det  SharedPreparer
	}{
		{"Geosphere", NewGeosphere(cons)},
		{"ETH-SD", NewETHSD(cons)},
		{"RVD-SD", NewRVD(cons)},
		{"Geosphere-soft", NewListSphereDecoder(cons)},
	}
}

// TestPrepareCachedFastPathZeroAllocs pins the two steady-state
// Prepare regimes of the link pipeline at zero allocations per call:
// re-preparing an unchanged channel (cache hit, the common trace-replay
// case) and alternating between two same-shape channels (every call a
// refill into already-sized workspace).
func TestPrepareCachedFastPathZeroAllocs(t *testing.T) {
	src := rng.New(41)
	cons := constellation.QAM16
	h1 := channel.Rayleigh(src, 4, 4)
	h2 := channel.Rayleigh(src, 4, 4)
	for _, tc := range prepDetectors(cons) {
		// Warm both channels so every buffer has reached its final size.
		for _, h := range []*cmplxmat.Matrix{h1, h2, h1} {
			if err := tc.det.Prepare(h); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		hit := testing.AllocsPerRun(100, func() {
			if err := tc.det.Prepare(h1); err != nil {
				t.Fatal(err)
			}
		})
		if hit > 0 {
			t.Errorf("%s: %g allocs/op re-preparing an unchanged channel, want 0", tc.name, hit)
		}
		flip := h1
		refill := testing.AllocsPerRun(100, func() {
			if flip == h1 {
				flip = h2
			} else {
				flip = h1
			}
			if err := tc.det.Prepare(flip); err != nil {
				t.Fatal(err)
			}
		})
		if refill > 0 {
			t.Errorf("%s: %g allocs/op refilling with a same-shape channel, want 0", tc.name, refill)
		}
	}
}

// TestPreparedChannelHitSemantics checks the cache-identity rules: a
// hit requires the same mode and elementwise-identical contents, the
// epoch counts refills only, and the fingerprint tracks the cached
// bits.
func TestPreparedChannelHitSemantics(t *testing.T) {
	src := rng.New(43)
	cons := constellation.QAM16
	d := NewGeosphere(cons)
	h := channel.Rayleigh(src, 4, 4)

	var pc PreparedChannel
	hit, err := d.PrepareShared(&pc, h)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first preparation reported a cache hit")
	}
	if pc.Epoch() != 1 {
		t.Fatalf("epoch %d after first fill, want 1", pc.Epoch())
	}
	fp := pc.Fingerprint()
	if fp == 0 {
		t.Fatal("zero fingerprint on a filled cache")
	}

	// Same contents in a different matrix object must still hit: the
	// cache compares values, not pointers.
	hit, err = d.PrepareShared(&pc, h.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("value-identical clone missed the cache")
	}
	if pc.Epoch() != 1 || pc.Fingerprint() != fp {
		t.Errorf("hit mutated cache identity: epoch %d fp %#x, want 1 %#x", pc.Epoch(), pc.Fingerprint(), fp)
	}

	// One changed element must miss and refill.
	h2 := h.Clone()
	h2.Set(2, 1, h2.At(2, 1)+complex(1e-12, 0))
	hit, err = d.PrepareShared(&pc, h2)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("perturbed channel hit the cache")
	}
	if pc.Epoch() != 2 {
		t.Errorf("epoch %d after refill, want 2", pc.Epoch())
	}
	if pc.Fingerprint() == fp {
		t.Error("fingerprint unchanged across a refill with different contents")
	}

	// A different detector family using a different derivation must not
	// reuse this entry, even for identical channel contents.
	rvd := NewRVD(cons)
	hit, err = rvd.PrepareShared(&pc, h2)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("RVD hit a cache entry holding an ordered-QR derivation")
	}

	// The soft decoder and the unordered hard decoders share prepModeQR
	// entries.
	var shared PreparedChannel
	if _, err := NewListSphereDecoder(cons).PrepareShared(&shared, h); err != nil {
		t.Fatal(err)
	}
	hit, err = NewETHSD(cons).PrepareShared(&shared, h)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("ETH-SD missed the soft decoder's plain-QR entry")
	}
}

// TestSharedPrepareMatchesPlainPrepare proves a pool-cached
// preparation leaves the detector in bit-identical state: decisions
// after a cache hit equal those of a freshly built detector.
func TestSharedPrepareMatchesPlainPrepare(t *testing.T) {
	src := rng.New(47)
	cons := constellation.QAM16
	h, _, y := randomScenario(src, cons, 4, 4, 22)

	for _, tc := range prepDetectors(cons) {
		var pc PreparedChannel
		// Fill, then hit: the second PrepareShared must take the cached
		// path.
		if _, err := tc.det.PrepareShared(&pc, h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		hit, err := tc.det.PrepareShared(&pc, h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !hit {
			t.Fatalf("%s: second preparation missed", tc.name)
		}
		got, err := tc.det.Detect(nil, y)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		fresh := prepDetectors(cons)
		var ref Detector
		for _, f := range fresh {
			if f.name == tc.name {
				ref = f.det
			}
		}
		if err := ref.Prepare(h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := ref.Detect(nil, y)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: stream %d decision %d via cache, %d fresh", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestPrepPool covers the pool's counter bookkeeping and its fallbacks
// for detectors without shared preparation and for out-of-range slots.
func TestPrepPool(t *testing.T) {
	src := rng.New(53)
	cons := constellation.QAM16
	h1 := channel.Rayleigh(src, 4, 4)
	h2 := channel.Rayleigh(src, 4, 4)

	p := NewPrepPool(2)
	if p.Slots() != 2 {
		t.Fatalf("Slots() = %d, want 2", p.Slots())
	}
	d := NewGeosphere(cons)
	for _, step := range []struct {
		slot    int
		h       *cmplxmat.Matrix
		wantHit bool
	}{
		{0, h1, false}, // cold fill slot 0
		{1, h2, false}, // cold fill slot 1
		{0, h1, true},  // unchanged slot 0
		{1, h2, true},  // unchanged slot 1
		{0, h2, false}, // slot 0 now sees h2: copies slot 1's fill (a share)
		{1, h1, false}, // slot 1 now sees h1, which no fill holds: refill
		{7, h1, false}, // out of range: uncached fallback
	} {
		if err := p.Prepare(d, step.slot, step.h); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := p.Counters()
	if hits != 2 || misses != 4 || p.Shares() != 1 {
		t.Errorf("counters = %d hits / %d misses / %d shares, want 2/4/1", hits, misses, p.Shares())
	}

	// A detector without PrepareShared always counts a miss but still
	// prepares.
	ml := NewML(cons)
	if err := p.Prepare(ml, 0, h1); err != nil {
		t.Fatal(err)
	}
	if _, m := p.Counters(); m != 5 {
		t.Errorf("misses = %d after uncached detector, want 5", m)
	}
	if _, err := ml.Detect(nil, mustVector(src, h1, cons)); err != nil {
		t.Errorf("fallback-prepared detector cannot detect: %v", err)
	}
}

// mustVector transmits a random symbol vector over h for test inputs.
func mustVector(src *rng.Source, h *cmplxmat.Matrix, cons *constellation.Constellation) []complex128 {
	x := make([]complex128, h.Cols)
	for i := range x {
		x[i] = cons.PointIndex(src.Intn(cons.Size()))
	}
	return channel.Transmit(nil, src, h, x, channel.NoiseVarForSNRdB(25))
}

// TestPrepPoolIncremental pins the three-way counter semantics of the
// incremental re-preparation path: a cold fill is a miss, an unchanged
// channel is a hit, a small drift is absorbed by a rank-1 QR update
// (neither hit nor miss — reported via QRUpdates), and a drift beyond
// the relative-Frobenius gate falls back to a full refactorization,
// which is a miss again.
func TestPrepPoolIncremental(t *testing.T) {
	src := rng.New(61)
	det := NewETHSD(constellation.QAM16)
	p := NewPrepPool(1)
	p.SetIncremental(true)
	h := channel.Rayleigh(src, 4, 4)

	step := func(wantHits, wantMisses, wantUpd uint64, what string) {
		t.Helper()
		if err := p.Prepare(det, 0, h); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		hits, misses := p.Counters()
		if hits != wantHits || misses != wantMisses || p.QRUpdates() != wantUpd {
			t.Fatalf("%s: hits/misses/qr-updates = %d/%d/%d, want %d/%d/%d",
				what, hits, misses, p.QRUpdates(), wantHits, wantMisses, wantUpd)
		}
	}

	step(0, 1, 0, "cold fill is a miss")
	step(1, 1, 0, "unchanged channel is a hit")

	h.Set(2, 1, h.At(2, 1)+complex(0.03, -0.02))
	step(1, 1, 1, "small drift takes the update path")
	step(2, 1, 1, "updated channel is cached afterwards")

	for i := range h.Data {
		h.Data[i] += complex(0.9*src.Norm(), 0.9*src.Norm())
	}
	step(2, 2, 1, "drift beyond the gate forces a full refill")
	step(3, 2, 1, "refilled channel is cached afterwards")
}

// fnvOf is the reference fingerprint: FNV-1a (hash/fnv) over the
// little-endian bits of each element's real then imaginary part.
func fnvOf(m *cmplxmat.Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFingerprintOnDemand pins the fingerprint now that fills no longer
// compute it: zero on a never-filled cache, and after a full fill or an
// incremental rank-1 update the hash of the channel the cache now
// holds, in every cache mode.
func TestFingerprintOnDemand(t *testing.T) {
	var empty PreparedChannel
	if fp := empty.Fingerprint(); fp != 0 {
		t.Fatalf("never-filled cache fingerprint %#x, want 0", fp)
	}
	src := rng.New(64)
	for _, tc := range prepDetectors(constellation.QAM16) {
		var pc PreparedChannel
		pc.SetIncremental(true)
		h := channel.Rayleigh(src, 4, 4)
		if _, err := tc.det.PrepareShared(&pc, h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := pc.Fingerprint(), fnvOf(h); got != want {
			t.Fatalf("%s: fingerprint after fill %#x, want %#x", tc.name, got, want)
		}
		old := pc.Fingerprint()
		h2 := h.Clone()
		h2.Set(1, 2, h2.At(1, 2)+complex(0.02, -0.01))
		if _, err := tc.det.PrepareShared(&pc, h2); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pc.Updates() != 1 {
			t.Fatalf("%s: drift took %d incremental updates, want 1", tc.name, pc.Updates())
		}
		if got, want := pc.Fingerprint(), fnvOf(h2); got != want || got == old {
			t.Errorf("%s: fingerprint after update %#x, want %#x (was %#x)", tc.name, got, want, old)
		}
	}
}

// TestPrepPoolIncrementalChainCap pins the forced-refactorization
// bound: after maxUpdateChain consecutive rank-1 updates the cache
// must take one full refactorization (a miss) to shed accumulated
// roundoff, then resume updating.
func TestPrepPoolIncrementalChainCap(t *testing.T) {
	src := rng.New(62)
	det := NewGeosphere(constellation.QAM16)
	p := NewPrepPool(1)
	p.SetIncremental(true)
	h := channel.Rayleigh(src, 4, 4)
	if err := p.Prepare(det, 0, h); err != nil {
		t.Fatal(err)
	}
	drift := func(i int) {
		h.Data[i%len(h.Data)] += complex(1e-3, -1e-3)
		if err := p.Prepare(det, 0, h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxUpdateChain; i++ {
		drift(i)
	}
	if _, misses := p.Counters(); misses != 1 || p.QRUpdates() != maxUpdateChain {
		t.Fatalf("after %d drifts: misses %d qr-updates %d, want 1 %d",
			maxUpdateChain, misses, p.QRUpdates(), maxUpdateChain)
	}
	drift(0) // chain exhausted: this one must refactorize in full
	if _, misses := p.Counters(); misses != 2 || p.QRUpdates() != maxUpdateChain {
		t.Fatalf("chain cap not enforced: misses %d qr-updates %d, want 2 %d",
			misses, p.QRUpdates(), maxUpdateChain)
	}
	drift(1) // fresh factorization: updating resumes
	if p.QRUpdates() != maxUpdateChain+1 {
		t.Fatalf("updates did not resume after forced refill: qr-updates %d, want %d",
			p.QRUpdates(), maxUpdateChain+1)
	}
}

// TestPrepPoolIncrementalReorderRefills pins the ordered-QR
// invalidation rule: a drift that changes the column-energy ordering
// invalidates the cached permutation, so the update path must decline
// and a full re-preparation (with the new ordering) must run — even
// though the drift itself is well inside the Frobenius gate.
func TestPrepPoolIncrementalReorderRefills(t *testing.T) {
	det := NewGeosphere(constellation.QAM16)
	det.EnableColumnReordering(true)
	p := NewPrepPool(1)
	p.SetIncremental(true)

	// Distinct, well-separated column energies: ascending order is
	// column 0, 1, 2, 3.
	h := cmplxmat.New(4, 4)
	for c := 0; c < 4; c++ {
		h.Set(c, c, complex(1.0+0.1*float64(c), 0))
	}
	if err := p.Prepare(det, 0, h); err != nil {
		t.Fatal(err)
	}

	// A small drift that preserves the ordering is still absorbed by
	// the update path in ordered mode.
	h.Set(3, 3, h.At(3, 3)+complex(0.01, 0))
	if err := p.Prepare(det, 0, h); err != nil {
		t.Fatal(err)
	}
	if p.QRUpdates() != 1 {
		t.Fatalf("order-preserving drift: qr-updates %d, want 1", p.QRUpdates())
	}

	// Boosting column 0 past the others flips the energy order; the
	// drift (0.5 on one entry) is far below the 25%-Frobenius gate, so
	// only the permutation check can force the refill.
	h.Set(0, 0, h.At(0, 0)+complex(0.5, 0))
	if err := p.Prepare(det, 0, h); err != nil {
		t.Fatal(err)
	}
	if _, misses := p.Counters(); misses != 2 || p.QRUpdates() != 1 {
		t.Fatalf("order-changing drift: misses %d qr-updates %d, want 2 1", misses, p.QRUpdates())
	}
}

// TestPrepPoolIncrementalZeroAllocs pins the steady-state allocation
// contract of the update path for every SharedPreparer: once the
// update scratch is warm, absorbing a small in-place channel drift
// allocates nothing.
func TestPrepPoolIncrementalZeroAllocs(t *testing.T) {
	src := rng.New(63)
	cons := constellation.QAM16
	for _, tc := range prepDetectors(cons) {
		p := NewPrepPool(1)
		p.SetIncremental(true)
		h := channel.Rayleigh(src, 4, 4)
		// Warm: one fill, then one update to size the rank-1 scratch.
		for i := 0; i < 2; i++ {
			h.Data[0] += complex(1e-4, 1e-4)
			if err := p.Prepare(tc.det, 0, h); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		before := p.QRUpdates()
		allocs := testing.AllocsPerRun(50, func() {
			h.Data[0] += complex(1e-4, -1e-4)
			if err := p.Prepare(tc.det, 0, h); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: %g allocs/op on the warm update path, want 0", tc.name, allocs)
		}
		if p.QRUpdates() <= before {
			t.Errorf("%s: alloc loop never took the update path (qr-updates %d before, %d after)",
				tc.name, before, p.QRUpdates())
		}
	}
}
