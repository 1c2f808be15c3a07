package core

import (
	"testing"
	"unsafe"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/rng"
)

// shareModes is one detector per preparation mode: the plain QR, the
// ordered QR (Geosphere with column reordering on) and the real
// embedding.
func shareModes() []struct {
	name string
	det  SharedPreparer
} {
	cons := constellation.QAM16
	ordered := NewGeosphere(cons)
	ordered.EnableColumnReordering(true)
	return []struct {
		name string
		det  SharedPreparer
	}{
		{"QR", NewETHSD(cons)},
		{"ordered", ordered},
		{"RVD", NewRVD(cons)},
	}
}

// prepStep is one pool probe: slot s prepares h.
type prepStep struct {
	s int
	h *cmplxmat.Matrix
}

// shareOracle drives a pool and one standalone PreparedChannel per
// slot through the same probes and fails on the first step where a
// slot's derivation — channel copy, Q, R, |R[l][l]|², 1/R[l][l],
// permutation, κ̂² and bookkeeping — differs in a single bit from the
// standalone cache's, which never shares and so runs every fill.
type shareOracle struct {
	t     testing.TB
	det   SharedPreparer
	pool  *PrepPool
	alone []PreparedChannel
}

func newShareOracle(t testing.TB, det SharedPreparer, slots int, incremental bool) *shareOracle {
	o := &shareOracle{t: t, det: det, pool: NewPrepPool(slots), alone: make([]PreparedChannel, slots)}
	o.pool.SetIncremental(incremental)
	for i := range o.alone {
		o.alone[i].SetIncremental(incremental)
	}
	return o
}

// step runs one probe on both sides; they must agree on the error too.
func (o *shareOracle) step(what string, st prepStep) error {
	o.t.Helper()
	perr := o.pool.Prepare(o.det, st.s, st.h)
	_, aerr := o.det.PrepareShared(&o.alone[st.s], st.h)
	if (perr == nil) != (aerr == nil) {
		o.t.Fatalf("%s: pool error %v, standalone error %v", what, perr, aerr)
	}
	if diff := samePrepared(&o.pool.pcs[st.s], &o.alone[st.s]); diff != "" {
		o.t.Fatalf("%s, slot %d: pooled %s differs from the standalone fill", what, st.s, diff)
	}
	return perr
}

// counts returns the pool's hits, misses, QR updates and shares.
func (o *shareOracle) counts() [4]uint64 {
	h, m := o.pool.Counters()
	return [4]uint64{h, m, o.pool.QRUpdates(), o.pool.Shares()}
}

// TestPrepPoolShareMatchesStandalone fills a 48-slot pool with one
// channel on every slot, the flat-fading frame, in each mode with
// incremental preparation off and on: the first slot factorizes, the
// other 47 copy its fill, and every slot must equal a standalone fill
// bit for bit. A second flat frame does the same again.
func TestPrepPoolShareMatchesStandalone(t *testing.T) {
	const slots = 48
	for _, tc := range shareModes() {
		for _, incremental := range []bool{false, true} {
			src := rng.New(101)
			o := newShareOracle(t, tc.det, slots, incremental)
			for frame := 0; frame < 2; frame++ {
				h := channel.Rayleigh(src, 4, 3)
				for s := 0; s < slots; s++ {
					o.step(tc.name, prepStep{s, h})
				}
			}
			if got, want := o.counts(), [4]uint64{0, 2, 0, 2 * (slots - 1)}; got != want {
				t.Errorf("%s incremental=%v: hits, misses, QR updates, shares = %v, want %v", tc.name, incremental, got, want)
			}
		}
	}
}

// TestPrepShareInterleavings walks slot/channel interleavings that
// move, keep and invalidate the share record — A, A, B, A, B, B across
// slots; a source slot re-filled with another channel, or rank-1
// updated, after its fill was recorded — and checks every step against
// standalone fills and the counters against the path each probe must
// take.
func TestPrepShareInterleavings(t *testing.T) {
	for _, tc := range shareModes() {
		src := rng.New(103)
		a, b, c := channel.Rayleigh(src, 4, 3), channel.Rayleigh(src, 4, 3), channel.Rayleigh(src, 4, 3)
		drift := a.Clone()
		drift.Data[1] += 1e-3

		// A, A, B, A, B, B: the record holds one fill, the last, so a
		// slot shares only the channel its predecessor factorized: miss,
		// share, miss, miss, miss, share.
		o := newShareOracle(t, tc.det, 6, false)
		for s, h := range []*cmplxmat.Matrix{a, a, b, a, b, b} {
			o.step(tc.name+" A,A,B,A,B,B", prepStep{s, h})
		}
		if got, want := o.counts(), [4]uint64{0, 4, 0, 2}; got != want {
			t.Errorf("%s A,A,B,A,B,B: hits, misses, QR updates, shares = %v, want %v", tc.name, got, want)
		}

		// The recorded slot is refilled with C: a slot asking for C
		// shares, but A is gone, so a slot asking for it factorizes.
		o = newShareOracle(t, tc.det, 3, false)
		for _, st := range []prepStep{{0, a}, {0, c}, {1, c}, {2, a}} {
			o.step(tc.name+" refilled source", st)
		}
		if got, want := o.counts(), [4]uint64{0, 3, 0, 1}; got != want {
			t.Errorf("%s refilled source: hits, misses, QR updates, shares = %v, want %v", tc.name, got, want)
		}

		// The recorded slot absorbs a drift by a rank-1 update: it now
		// holds the drifted channel, but as updated factors, not as a
		// fill of it, and the moved epoch marks the record stale. A slot
		// asking for the drifted channel factorizes it (and becomes the
		// record); the next one shares that fill.
		o = newShareOracle(t, tc.det, 3, true)
		for _, st := range []prepStep{{0, a}, {0, drift}, {1, drift}, {2, drift}} {
			o.step(tc.name+" updated source", st)
		}
		if got, want := o.counts(), [4]uint64{0, 2, 1, 1}; got != want {
			t.Errorf("%s updated source: hits, misses, QR updates, shares = %v, want %v", tc.name, got, want)
		}
	}
}

// TestPrepShareRankDeficient: a failed fill never becomes a share
// source. A rank-deficient channel fails on every slot that asks for
// it, and a recorded slot whose refill failed shares nothing of either
// its old channel or the failed one.
func TestPrepShareRankDeficient(t *testing.T) {
	for _, tc := range shareModes() {
		src := rng.New(107)
		a := channel.Rayleigh(src, 4, 3)
		z := channel.Rayleigh(src, 4, 3)
		for r := 0; r < z.Rows; r++ {
			z.Set(r, 1, 0) // a zero column: R[l][l] = 0 exactly
		}
		o := newShareOracle(t, tc.det, 5, false)
		steps := []struct {
			st      prepStep
			wantErr bool
		}{
			{prepStep{0, a}, false}, // recorded
			{prepStep{1, z}, true},  // fails; the record stays with slot 0
			{prepStep{2, z}, true},  // fails again, no share
			{prepStep{0, z}, true},  // the recorded slot's refill fails
			{prepStep{3, z}, true},  // still no share of the failed fill
			{prepStep{4, a}, false}, // slot 0 no longer holds A: factorize
		}
		for i, s := range steps {
			if err := o.step(tc.name+" rank-deficient", s.st); (err != nil) != s.wantErr {
				t.Fatalf("%s step %d: error %v, want error %v", tc.name, i, err, s.wantErr)
			}
		}
		if got := o.pool.Shares(); got != 0 {
			t.Errorf("%s: %d shares after failed fills, want 0", tc.name, got)
		}
	}
}

// TestPrepShareZeroAllocs pins the share path at zero allocations: a
// warm 48-slot pool alternating between two flat channels factorizes
// once per pass and copies that fill to the other 47 slots.
func TestPrepShareZeroAllocs(t *testing.T) {
	const slots = 48
	src := rng.New(109)
	h1, h2 := channel.Rayleigh(src, 4, 4), channel.Rayleigh(src, 4, 4)
	for _, tc := range shareModes() {
		p := NewPrepPool(slots)
		h := h1
		pass := func() {
			if h == h1 {
				h = h2
			} else {
				h = h1
			}
			for s := 0; s < slots; s++ {
				if err := p.Prepare(tc.det, s, h); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass() // carve the slabs
		before := p.Shares()
		if allocs := testing.AllocsPerRun(20, pass); allocs > 0 {
			t.Errorf("%s: %g allocs per flat pass, want 0", tc.name, allocs)
		}
		if got := p.Shares() - before; got != 21*(slots-1) {
			t.Errorf("%s: %d shares over 21 passes, want %d", tc.name, got, 21*(slots-1))
		}
	}
}

// TestPreparedChannelSize pins the per-slot struct at 168 bytes on
// 64-bit platforms: the share record lives in the pool's store, and a
// larger slot would move a group's 48-slot array into a larger
// allocator size class.
func TestPreparedChannelSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(PreparedChannel{}); got != 168 {
		t.Errorf("PreparedChannel is %d bytes, want 168", got)
	}
}

// FuzzPrepShare drives a pool through fuzzer-chosen sequences of slots
// and channels — fresh draws, repeats of earlier ones, equal copies,
// small drifts and a rank-deficient channel — in a fuzzer-chosen mode
// with incremental preparation on or off, and checks every slot
// against standalone fills after every step.
func FuzzPrepShare(f *testing.F) {
	f.Add(int64(1), byte(0), []byte{0x00, 0x10, 0x20, 0x30, 0x01, 0x11})
	f.Add(int64(5), byte(4), []byte{0x02, 0x12, 0x42, 0x03, 0x13, 0x53, 0x04})
	f.Add(int64(-9), byte(3), []byte{0x05, 0x15, 0x25, 0x00, 0x16, 0x06, 0x26})
	f.Fuzz(func(t *testing.T, seed int64, sel byte, walk []byte) {
		if len(walk) > 256 {
			walk = walk[:256]
		}
		const slots = 8
		modes := shareModes()
		tc := modes[int(sel)%len(modes)]
		o := newShareOracle(t, tc.det, slots, sel&0x80 != 0)
		src := rng.New(seed)
		palette := []*cmplxmat.Matrix{channel.Rayleigh(src, 4, 3), channel.Rayleigh(src, 4, 3)}
		last := palette[0]
		probes := uint64(0)
		for i, b := range walk {
			var h *cmplxmat.Matrix
			switch b & 0x0f {
			case 0, 1: // a fresh channel, kept for later repeats
				h = channel.Rayleigh(src, 4, 3)
				palette = append(palette, h)
			case 2, 3, 4: // an earlier channel, the same matrix
				h = palette[(int(b>>4)+i)%len(palette)]
			case 5, 6: // an equal copy of an earlier channel
				h = palette[(int(b>>4)+i)%len(palette)].Clone()
			case 7: // a small drift of the last channel
				h = last.Clone()
				h.Data[int(b>>4)%len(h.Data)] += 1e-3
			case 8: // a rank-deficient channel
				h = last.Clone()
				for r := 0; r < h.Rows; r++ {
					h.Set(r, int(b>>4)%h.Cols, 0)
				}
			default: // the last channel again
				h = last
			}
			last = h
			if o.step(tc.name, prepStep{int(b>>4) % slots, h}) == nil {
				probes++
			}
			if c := o.counts(); c[0]+c[1]+c[2]+c[3] != probes {
				t.Fatalf("after %d successful probes: hits, misses, QR updates, shares = %v", probes, c)
			}
		}
	})
}
