package core

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/rng"
)

// sameComplexBits reports whether a and b hold the same float bits.
func sameComplexBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// samePrepared reports which cached derivation of a and b differs, or
// "" when they are bitwise identical.
func samePrepared(a, b *PreparedChannel) string {
	switch {
	case a.mode != b.mode || a.epoch != b.epoch || a.updates != b.updates || a.chain != b.chain:
		return "bookkeeping"
	case !sameComplexBits(a.hcopy.Data, b.hcopy.Data):
		return "channel copy"
	case !sameComplexBits(a.qr.Q.Data, b.qr.Q.Data) || !sameComplexBits(a.qr.R.Data, b.qr.R.Data):
		return "QR factors"
	case !sameComplexBits(a.rinv, b.rinv):
		return "1/R[l][l]"
	case math.Float64bits(a.kappa2) != math.Float64bits(b.kappa2):
		return "κ̂²"
	}
	for i := range a.rll2 {
		if math.Float64bits(a.rll2[i]) != math.Float64bits(b.rll2[i]) {
			return "|R[l][l]|²"
		}
	}
	ap, bp := a.Perm(), b.Perm()
	if len(ap) != len(bp) {
		return "permutation"
	}
	for i := range ap {
		if ap[i] != bp[i] {
			return "permutation"
		}
	}
	return ""
}

// TestPrepPoolSharedStoreMatchesStandalone drives a pool's slots, which
// share one slab and one workspace, through an interleaved sequence of
// cold fills, hits, small drifts (rank-1 updates) and large ones
// (refactorizations), with incremental re-preparation on, and checks
// every step against standalone PreparedChannels, which own their
// storage: in the plain QR, ordered QR and RVD modes, sharing must not
// change a single bit of any slot's derivation.
func TestPrepPoolSharedStoreMatchesStandalone(t *testing.T) {
	for _, tc := range shareModes() {
		src := rng.New(67)
		const slots = 6
		pool := NewPrepPool(slots)
		pool.SetIncremental(true)
		var alone [slots]PreparedChannel
		hs := make([]*cmplxmat.Matrix, slots)
		for s := range alone {
			alone[s].SetIncremental(true)
			hs[s] = channel.Rayleigh(src, 4, 3)
		}
		for step := 0; step < 240; step++ {
			s := src.Intn(slots)
			switch src.Intn(4) {
			case 0: // a fresh channel: full refactorization
				hs[s] = channel.Rayleigh(src, 4, 3)
			case 1, 2: // a small drift of one entry: rank-1 update
				h := hs[s].Clone()
				h.Data[src.Intn(len(h.Data))] += src.CN(1e-3)
				hs[s] = h
			} // case 3: unchanged, a cache hit
			if err := pool.Prepare(tc.det, s, hs[s]); err != nil {
				t.Fatalf("%s step %d: pool: %v", tc.name, step, err)
			}
			if _, err := tc.det.PrepareShared(&alone[s], hs[s]); err != nil {
				t.Fatalf("%s step %d: standalone: %v", tc.name, step, err)
			}
			if what := samePrepared(&pool.pcs[s], &alone[s]); what != "" {
				t.Fatalf("%s step %d, slot %d: pooled %s differs from the standalone cache", tc.name, step, s, what)
			}
		}
		if pool.QRUpdates() == 0 {
			t.Errorf("%s: the sequence never took the rank-1 update path", tc.name)
		}
		for s := range alone {
			if what := samePrepared(&pool.pcs[s], &alone[s]); what != "" {
				t.Errorf("%s slot %d: pooled %s differs at the end", tc.name, s, what)
			}
		}
	}
}

// TestPrepPoolFirstFillAllocs pins the pool's allocation contract: the
// first fill of every slot allocates the same number of objects for a
// 48-slot pool as for a one-slot pool (the slabs and the shared
// scratch, none per slot), and refilling the slots with same-shaped
// channels allocates nothing.
func TestPrepPoolFirstFillAllocs(t *testing.T) {
	const slots, runs = 48, 5
	src := rng.New(71)
	cons := constellation.QAM16
	hs, hs2 := make([]*cmplxmat.Matrix, slots), make([]*cmplxmat.Matrix, slots)
	for s := range hs {
		hs[s], hs2[s] = channel.Rayleigh(src, 4, 2), channel.Rayleigh(src, 4, 2)
	}
	for _, tc := range prepDetectors(cons) {
		if err := tc.det.Prepare(hs[0]); err != nil { // size the detector's own scratch
			t.Fatal(err)
		}
		firstFill := func(n int) float64 {
			pools := make([]*PrepPool, runs+1)
			for i := range pools {
				pools[i] = NewPrepPool(n)
			}
			next := 0
			return testing.AllocsPerRun(runs, func() {
				p := pools[next]
				next++
				for s := 0; s < n; s++ {
					if err := p.Prepare(tc.det, s, hs[s]); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		one, full := firstFill(1), firstFill(slots)
		if int(one) != int(full) { // AllocsPerRun reports whole objects per run
			t.Errorf("%s: first fill allocates %g objects for 1 slot but %g for %d", tc.name, one, full, slots)
		}
		p := NewPrepPool(slots)
		flip := hs
		refill := testing.AllocsPerRun(runs, func() {
			if &flip[0] == &hs[0] {
				flip = hs2
			} else {
				flip = hs
			}
			for s := 0; s < slots; s++ {
				if err := p.Prepare(tc.det, s, flip[s]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if refill > 0 {
			t.Errorf("%s: refilling %d slots allocates %g objects, want 0", tc.name, slots, refill)
		}
		t.Logf("%s: first fill %g objects for any slot count", tc.name, full)
	}
}
