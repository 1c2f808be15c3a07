package core

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/cmplxmat"
)

// prepMode identifies which derivation of the channel matrix a
// PreparedChannel holds. Detectors that share a derivation (the
// unordered sphere decoders and the soft decoder both consume the
// plain thin QR of H) can share one cached PreparedChannel; a mode
// mismatch simply refills the cache.
type prepMode uint8

const (
	prepModeNone      prepMode = iota // empty / invalidated
	prepModeQR                        // thin QR of H itself
	prepModeOrderedQR                 // QR of column-energy-ordered H, with perm
	prepModeRVD                       // QR of the 2na×2nc real embedding of H
)

// PreparedChannel caches everything a detector's Prepare derives from
// one channel matrix: the QR factors, the column permutation when
// ordering is on, and the diagonal tables (|R[l][l]|² and 1/R[l][l])
// the tree search consumes.
//
// A PreparedChannel is filled on the first PrepareShared against a
// channel and then revalidated by an exact elementwise comparison of
// the incoming matrix with the cached copy: a fingerprint or pointer
// check alone cannot guarantee the byte-identical results the golden
// regression suite pins (hashes collide; callers may redraw into the
// same matrix object), whereas the exact compare early-outs on the
// first differing element for genuinely new channels and costs only
// na·nc equality tests on a hit — far less than one Householder
// reflection. Epoch counts refills. Fingerprint hashes the cached
// bits (FNV-1a) for cross-checks in tests and tooling; the hash is
// computed only when asked for, since no cache decision reads it and a
// fill must not pay for it.
//
// The retained state lives in the slabs of a prepStore, and the
// factorization and mode scratch is the store's too (see prepStore):
// a PrepPool's slots share the pool's store, and a zero
// PreparedChannel — ready to use, as detectors' own caches are — makes
// a one-slot store of its own on its first fill. The struct is not
// safe for concurrent use; the link layer keeps one pool per worker.
type PreparedChannel struct {
	hcopy *cmplxmat.Matrix // private copy of the last-prepared channel

	qr   cmplxmat.QR  // factors only; the workspace is the store's
	perm []int        // QR column → original stream, ordered mode only
	rll2 []float64    // |R[l][l]|² per tree level
	rinv []complex128 // 1/R[l][l] per tree level

	// kappa2 is the diagonal condition estimate κ̂² = max|R[l][l]|² /
	// min|R[l][l]|², derived for free from the diagonal tables whenever
	// they are (re)built. It lower-bounds the true κ²(H) (the singular
	// values interlace the R diagonal), which makes it a cheap
	// per-subcarrier difficulty signal: no SVD, no Cond2, no extra
	// arithmetic on the hot path.
	kappa2 float64

	epoch   uint64 // refill count; 0 means never filled
	updates uint64 // incremental refills (see SetIncremental)

	// Zero-forcing filter side-cache: zfw is the cached pseudo-inverse
	// of zfcopy. It lives beside the QR derivations rather than in the
	// mode machinery, so a group alternating between a sphere tier and
	// the ZF tier — the serving layer's degradation ladder does exactly
	// that — thrashes neither cache.
	zfw    *cmplxmat.Matrix
	zfcopy *cmplxmat.Matrix

	st   *prepStore // owner of the slabs and scratch; nil until the first fill of a standalone cache
	slot int32      // this cache's segment in st's slabs

	// Incremental re-preparation (opt-in via SetIncremental): a miss
	// whose cached channel has the same shape and mode and has only
	// drifted slightly is absorbed by per-column rank-1 QR updates
	// instead of a full refactorization. chain counts the consecutive
	// ones since the last full factorization — capped so accumulated
	// rotation roundoff is periodically squeezed back out by a fresh
	// decomposition.
	chain       int32
	mode        prepMode
	incremental bool
}

// prepShape is the geometry a fill needs storage for: an na×nc channel
// whose QR input is m×n (the channel itself or its column permutation,
// or the 2na×2nc real embedding).
type prepShape struct{ na, nc, m, n int }

// shapeOf returns the storage geometry of preparing h in mode.
func shapeOf(h *cmplxmat.Matrix, mode prepMode) prepShape {
	if mode == prepModeRVD {
		return prepShape{h.Rows, h.Cols, 2 * h.Rows, 2 * h.Cols}
	}
	return prepShape{h.Rows, h.Cols, h.Rows, h.Cols}
}

// prepSlab is the retained state of a run of same-shaped slots, laid
// out in three pointer-free arrays plus one array of matrix headers.
// Slot k's segment holds, in order, its channel copy, Q, R and 1/R[l][l]
// (complex), its |R[l][l]|² (float) and its permutation (int).
type prepSlab struct {
	shape prepShape
	cplx  []complex128
	flt   []float64
	ints  []int
	mats  []cmplxmat.Matrix // channel copy, Q and R headers per slot
}

// carve allocates s for slots segments of shape sh: four objects
// whatever the slot count.
//
//geolint:noalloc
func (s *prepSlab) carve(slots int, sh prepShape) {
	*s = prepSlab{
		shape: sh,
		cplx:  make([]complex128, slots*sh.complexPerSlot()), //geolint:alloc-ok first fill or reshape only
		flt:   make([]float64, slots*sh.n),                   //geolint:alloc-ok first fill or reshape only
		ints:  make([]int, slots*sh.nc),                      //geolint:alloc-ok first fill or reshape only
		mats:  make([]cmplxmat.Matrix, 3*slots),              //geolint:alloc-ok first fill or reshape only
	}
}

// complexPerSlot is the complex elements one slot retains: the na×nc
// channel copy, the m×n Q, the n×n R and the n reciprocal diagonals.
func (sh prepShape) complexPerSlot() int { return sh.na*sh.nc + sh.m*sh.n + sh.n*sh.n + sh.n }

// PrepSlotBytes returns the heap bytes one PrepPool slot retains once
// it holds the plain or ordered QR derivation of an na×nc channel: the
// PreparedChannel struct and its segment of the pool's slabs (complex,
// float and int values and three matrix headers), before the allocator
// rounds the slabs up. The scratch the slots share comes once per pool
// on top.
func PrepSlotBytes(na, nc int) int {
	sh := prepShape{na, nc, na, nc}
	return int(unsafe.Sizeof(PreparedChannel{})) + 16*sh.complexPerSlot() + 8*(sh.n+sh.nc) +
		3*int(unsafe.Sizeof(cmplxmat.Matrix{}))
}

// assign points pc's retained state at segment k of s.
//
//geolint:noalloc
func (s *prepSlab) assign(pc *PreparedChannel, k int) {
	sh := s.shape
	cs := sh.complexPerSlot()
	c := s.cplx[k*cs : (k+1)*cs]
	pc.hcopy, pc.qr.Q, pc.qr.R = &s.mats[3*k], &s.mats[3*k+1], &s.mats[3*k+2]
	c = pc.hcopy.Carve(c, sh.na, sh.nc)
	c = pc.qr.Q.Carve(c, sh.m, sh.n)
	c = pc.qr.R.Carve(c, sh.n, sh.n)
	pc.rinv = c[:sh.n:sh.n]
	pc.rll2 = s.flt[k*sh.n : (k+1)*sh.n : (k+1)*sh.n]
	pc.perm = s.ints[k*sh.nc : (k+1)*sh.nc : (k+1)*sh.nc]
}

// prepStore is what the slots of one PrepPool share, or what a
// standalone PreparedChannel owns alone: the slab their retained state
// is carved from, and the scratch every fill and rank-1 update reuses —
// the QR workspace and the mode-only buffers. No scratch value outlives
// the fill or update that wrote it, so sharing changes no output bit.
// A store belongs to one goroutine, like the pool that holds it.
type prepStore struct {
	slots int      // segments the slab is carved for
	slab  prepSlab // zero until the first fill

	qr cmplxmat.QRWorkspace

	// Mode-only scratch, cut for the shape fitted last and grown only
	// past the largest shape seen.
	fitted      prepShape
	cscr        []complex128    // backs hq, ucol, ucol2 and vcol
	hq          cmplxmat.Matrix // derived QR input (permuted copy / real embedding)
	ucol        []complex128    // rank-1 update column
	ucol2       []complex128    // second embedding column, RVD mode
	vcol        []complex128    // one-hot right factor
	energy      []float64       // column energies for the ordering pass
	permScratch []int           // reordering probe, ordered mode
}

// store returns pc's store, making a one-slot store for a standalone
// cache on its first fill.
//
//geolint:noalloc
func (pc *PreparedChannel) store() *prepStore {
	if pc.st == nil {
		pc.st = &prepStore{slots: 1} //geolint:alloc-ok first fill of a standalone cache only
	}
	return pc.st
}

// fits reports whether pc's retained state is already cut for sh.
func (pc *PreparedChannel) fits(sh prepShape) bool {
	return pc.hcopy != nil && pc.hcopy.Rows == sh.na && pc.hcopy.Cols == sh.nc &&
		pc.qr.Q.Rows == sh.m && pc.qr.Q.Cols == sh.n
}

// take gives pc retained storage for sh: its own segment of the slab,
// carved for every slot at the store's first fill, when sh is the
// slab's shape; fresh storage from a one-slot slab otherwise (a
// standalone cache re-carves its own slab).
//
//geolint:noalloc
func (st *prepStore) take(pc *PreparedChannel, sh prepShape) {
	if st.slab.shape == (prepShape{}) || st.slots == 1 {
		st.slab.carve(st.slots, sh)
	}
	if st.slab.shape == sh {
		st.slab.assign(pc, int(pc.slot))
		return
	}
	var own prepSlab
	own.carve(1, sh)
	own.assign(pc, 0)
}

// fit cuts the mode-only scratch for sh.
//
//geolint:noalloc
func (st *prepStore) fit(sh prepShape) {
	if st.fitted == sh {
		return
	}
	need := sh.m*sh.n + 2*sh.m + sh.n
	if cap(st.cscr) < need {
		st.cscr = make([]complex128, need) //geolint:alloc-ok first fill or a larger shape only
	}
	b := st.hq.Carve(st.cscr[:need], sh.m, sh.n)
	st.ucol, b = b[:sh.m:sh.m], b[sh.m:]
	st.ucol2, b = b[:sh.m:sh.m], b[sh.m:]
	st.vcol = b[:sh.n:sh.n]
	if cap(st.energy) < sh.nc {
		st.energy = make([]float64, sh.nc)  //geolint:alloc-ok first fill or a larger shape only
		st.permScratch = make([]int, sh.nc) //geolint:alloc-ok first fill or a larger shape only
	}
	st.energy = st.energy[:sh.nc]
	st.permScratch = st.permScratch[:sh.nc]
	st.fitted = sh
}

// maxUpdateChain bounds consecutive rank-1 re-preparations between
// full factorizations, keeping accumulated Givens roundoff far below
// detection-relevant scales while still amortizing nearly every
// refactorization of a drifting channel.
const maxUpdateChain = 64

// qrUpdateMaxDrift is the relative Frobenius drift above which an
// incremental re-preparation falls back to a full factorization: past
// it the channel is not "slowly drifting" and the rank-1 chain loses
// both its speed and its accuracy advantage.
const qrUpdateMaxDrift = 0.25

// SetIncremental toggles the incremental re-preparation path. Off (the
// default) every miss refactorizes from scratch, preserving the
// bit-identical refill semantics the golden suite pins; on, a
// same-shape slowly-drifted miss is absorbed by rank-1 QR updates.
func (pc *PreparedChannel) SetIncremental(on bool) { pc.incremental = on }

// Updates returns the number of incremental (rank-1 QR update)
// re-preparations performed since the PreparedChannel was created.
func (pc *PreparedChannel) Updates() uint64 { return pc.updates }

// Epoch returns the number of times this cache has been (re)filled;
// zero means it has never held a channel.
func (pc *PreparedChannel) Epoch() uint64 { return pc.epoch }

// Fingerprint returns the FNV-1a hash over the cached channel's float
// bits, or zero when the cache has never been filled. Two refills with
// the same channel produce the same fingerprint; it identifies cache
// contents in logs and tests but is never used as the hit criterion,
// so it is computed on each call rather than on each fill.
func (pc *PreparedChannel) Fingerprint() uint64 {
	if pc.epoch == 0 {
		return 0
	}
	return fingerprint(pc.hcopy)
}

// Kappa2 returns the cached diagonal condition estimate κ̂² =
// max|R[l][l]|²/min|R[l][l]|² of the prepared channel, or zero when the
// cache is empty. It is computed as a byproduct of the diagonal tables
// at preparation time, so reading it costs nothing — the point of
// caching it here is that the serving layer and the adaptive scheduler
// never call the SVD-based metrics.Kappa2dB per frame. κ̂² lower-bounds
// the true κ²(H); it is a scheduling signal, not a bound certificate.
func (pc *PreparedChannel) Kappa2() float64 { return pc.kappa2 }

// Kappa2dB returns Kappa2 in decibels (the paper's Figure 9 scale), or
// NaN when the cache is empty.
func (pc *PreparedChannel) Kappa2dB() float64 {
	if pc.kappa2 <= 0 {
		return math.NaN()
	}
	return 10 * math.Log10(pc.kappa2)
}

// QRFactors returns the cached factorization, valid until the next
// refill. Callers must treat it as read-only.
func (pc *PreparedChannel) QRFactors() *cmplxmat.QR { return &pc.qr }

// Perm returns the QR-column → original-stream permutation of the
// ordered mode, nil otherwise. The slice aliases cache state.
func (pc *PreparedChannel) Perm() []int {
	if pc.mode != prepModeOrderedQR {
		return nil
	}
	return pc.perm
}

// DiagTables returns the cached per-level diagonal tables |R[l][l]|²
// and 1/R[l][l]. Both slices alias cache state and are read-only.
func (pc *PreparedChannel) DiagTables() (rll2 []float64, rinv []complex128) {
	return pc.rll2, pc.rinv
}

// matches reports whether the cache already holds the derivation of h
// for mode: same mode, same shape, elementwise-identical contents.
//
//geolint:noalloc
func (pc *PreparedChannel) matches(h *cmplxmat.Matrix, mode prepMode) bool {
	if pc.epoch == 0 || pc.mode != mode || pc.hcopy == nil {
		return false
	}
	if pc.hcopy.Rows != h.Rows || pc.hcopy.Cols != h.Cols {
		return false
	}
	for i, v := range pc.hcopy.Data {
		if v != h.Data[i] { //geolint:float-ok exact cache-identity test: a hit must guarantee bit-identical prepared state, so only exact equality qualifies
			return false
		}
	}
	return true
}

// fill (re)derives the cached state from h for mode. On error the
// cache is left invalidated so a later matches cannot report a stale
// hit.
//
//geolint:noalloc
func (pc *PreparedChannel) fill(h *cmplxmat.Matrix, mode prepMode) error {
	pc.mode = prepModeNone
	sh := shapeOf(h, mode)
	st := pc.store()
	if !pc.fits(sh) {
		st.take(pc, sh)
	}
	st.fit(sh)
	copy(pc.hcopy.Data, h.Data)

	// Build the QR input. The plain mode factorizes the cached copy
	// directly (same bits as the caller's matrix, so the factors are
	// bitwise those of QRDecompose(h)); the other modes derive it into
	// the store's scratch matrix.
	hq := pc.hcopy
	switch mode {
	case prepModeOrderedQR:
		pc.perm = pc.perm[:sh.nc]
		columnOrderInto(pc.perm, st.energy, h)
		hq = &st.hq
		permuteColumnsInto(hq, h, pc.perm)
	case prepModeRVD:
		hq = &st.hq
		embedReal(hq, h)
	default:
		pc.perm = pc.perm[:0]
	}

	st.qr.Decompose(&pc.qr, hq)

	if err := pc.rebuildDiagTables(); err != nil {
		return err
	}
	pc.mode = mode
	pc.epoch++
	pc.chain = 0
	return nil
}

// rebuildDiagTables re-derives the |R[l][l]|² and 1/R[l][l] tables the
// tree search consumes from the current factorization (one entry per
// tree level, as cut by the slab), reporting rank deficiency as an
// error.
//
//geolint:noalloc
func (pc *PreparedChannel) rebuildDiagTables() error {
	for l := range pc.rll2 {
		rll := pc.qr.R.At(l, l)
		mag2 := real(rll)*real(rll) + imag(rll)*imag(rll)
		if mag2 == 0 { //geolint:float-ok exact-zero test for rank deficiency, not a tolerance comparison
			//geolint:alloc-ok error path
			return fmt.Errorf("core: rank-deficient channel (zero R[%d][%d]): %w", l, l, cmplxmat.ErrSingular)
		}
		pc.rll2[l] = mag2
		pc.rinv[l] = 1 / rll
	}
	// κ̂² rides along for free: the extremes of the diagonal just built.
	minR2, maxR2 := pc.rll2[0], pc.rll2[0]
	for _, m2 := range pc.rll2[1:] {
		if m2 < minR2 {
			minR2 = m2
		}
		if m2 > maxR2 {
			maxR2 = m2
		}
	}
	pc.kappa2 = maxR2 / minR2
	return nil
}

// tryUpdate attempts to absorb a cache miss by rank-1 QR updates: when
// the cached channel has the same shape and mode and the incoming one
// is a small drift of it, each changed column contributes a rank-1
// correction (two for the real embedding, whose columns pair up per
// complex column) applied with cmplxmat.QRUpdateInto in O(mn+n²)
// instead of the O(mn²) full refactorization. Returns false whenever a
// full fill is required — too much drift, a changed detection order,
// an exhausted update chain, or a (near-)rank-deficient result — and
// in that case may leave the cached state partially mutated; the
// caller must follow up with fill, which rederives everything from h.
//
//geolint:noalloc
func (pc *PreparedChannel) tryUpdate(h *cmplxmat.Matrix, mode prepMode) bool {
	if pc.epoch == 0 || pc.mode != mode || pc.chain >= maxUpdateChain {
		return false
	}
	if pc.hcopy.Rows != h.Rows || pc.hcopy.Cols != h.Cols {
		return false
	}
	na, nc := h.Rows, h.Cols

	// Drift gate: rank-1 chains only beat refactorization — in time and
	// in accumulated roundoff — while the channel is slowly drifting.
	var drift2, norm2 float64
	for i, v := range pc.hcopy.Data {
		d := h.Data[i] - v
		drift2 += real(d)*real(d) + imag(d)*imag(d)
		norm2 += real(v)*real(v) + imag(v)*imag(v)
	}
	if norm2 == 0 || drift2 > qrUpdateMaxDrift*qrUpdateMaxDrift*norm2 { //geolint:float-ok drift-gate threshold, an explicit policy comparison
		return false
	}

	// The QR input itself is not kept up to date: every full fill
	// rebuilds it from h, and the update reads only the factors.
	st := pc.st
	st.fit(shapeOf(h, mode))
	ucol, ucol2, vcol := st.ucol, st.ucol2, st.vcol
	for i := range vcol {
		vcol[i] = 0
	}

	if mode == prepModeOrderedQR {
		// The update only preserves the cached derivation when the
		// column-energy ordering is unchanged; a reordering permutes the
		// QR input wholesale and needs a fresh factorization.
		columnOrderInto(st.permScratch, st.energy, h)
		for i, p := range st.permScratch {
			if pc.perm[i] != p {
				return false
			}
		}
	}

	for c := 0; c < nc; c++ {
		changed := false
		for r := 0; r < na; r++ {
			if h.At(r, c) != pc.hcopy.At(r, c) { //geolint:float-ok exact change detection: unchanged columns must contribute exactly nothing
				changed = true
				break
			}
		}
		if !changed {
			continue
		}
		switch mode {
		case prepModeRVD:
			// Complex column c spans embedding columns c (its real part
			// stacked over its imaginary part) and c+nc (−imag over
			// real): one drifted complex column is two rank-1 updates.
			for r := 0; r < na; r++ {
				d := h.At(r, c) - pc.hcopy.At(r, c)
				ucol[r] = complex(real(d), 0)
				ucol[r+na] = complex(imag(d), 0)
				ucol2[r] = complex(-imag(d), 0)
				ucol2[r+na] = complex(real(d), 0)
			}
			vcol[c] = 1
			st.qr.Update(&pc.qr, ucol, vcol)
			vcol[c] = 0
			vcol[c+nc] = 1
			st.qr.Update(&pc.qr, ucol2, vcol)
			vcol[c+nc] = 0
		case prepModeOrderedQR:
			j := 0 // QR input column holding stream c under the ordering
			for ; j < nc; j++ {
				if pc.perm[j] == c {
					break
				}
			}
			for r := 0; r < na; r++ {
				ucol[r] = h.At(r, c) - pc.hcopy.At(r, c)
			}
			vcol[j] = 1
			st.qr.Update(&pc.qr, ucol, vcol)
			vcol[j] = 0
		default: // prepModeQR: the QR input is the cached copy itself
			for r := 0; r < na; r++ {
				ucol[r] = h.At(r, c) - pc.hcopy.At(r, c)
			}
			vcol[c] = 1
			st.qr.Update(&pc.qr, ucol, vcol)
			vcol[c] = 0
		}
	}

	copy(pc.hcopy.Data, h.Data)
	if err := pc.rebuildDiagTables(); err != nil {
		// Updated factors went (numerically) rank deficient; hand the
		// channel to the full path, which overwrites everything anyway.
		pc.mode = prepModeNone
		return false
	}
	pc.epoch++
	pc.updates++
	pc.chain++
	return true
}

// prepare is the shared fast-path/refill sequence every SharedPreparer
// runs: revalidate the cache against h, absorb a slowly-drifted miss
// with rank-1 QR updates when the incremental path is enabled, and
// fall back to a full refill otherwise.
//
//geolint:noalloc
func (pc *PreparedChannel) prepare(h *cmplxmat.Matrix, mode prepMode) (bool, error) {
	if pc.matches(h, mode) {
		return true, nil
	}
	if pc.incremental && pc.tryUpdate(h, mode) {
		return false, nil
	}
	return false, pc.fill(h, mode)
}

// PrepareQR revalidates-or-fills the cache with the plain thin QR of h
// and reports whether the cached derivation was reused. It is the
// exported entry for detectors outside this package (K-best) that
// implement SharedPreparer against the same plain-QR derivation the
// unordered sphere decoders cache — sharing it means a group whose
// frames alternate between those tiers never pays a second
// factorization.
//
//geolint:noalloc
func (pc *PreparedChannel) PrepareQR(h *cmplxmat.Matrix) (bool, error) {
	return pc.prepare(h, prepModeQR)
}

// PrepareZF returns the zero-forcing (pseudo-inverse) filter of h,
// served from the side-cache when h matches the filter's source copy
// exactly and rederived — bitwise h.PseudoInverse() — otherwise. The
// returned matrix is cache-owned and read-only. hit reports reuse.
func (pc *PreparedChannel) PrepareZF(h *cmplxmat.Matrix) (w *cmplxmat.Matrix, hit bool, err error) {
	if h == nil {
		return nil, false, ErrNotPrepared
	}
	if pc.zfw != nil && pc.zfcopy.Rows == h.Rows && pc.zfcopy.Cols == h.Cols {
		same := true
		for i, v := range pc.zfcopy.Data {
			if v != h.Data[i] { //geolint:float-ok exact cache-identity test: a hit must guarantee the bitwise-identical filter, so only exact equality qualifies
				same = false
				break
			}
		}
		if same {
			return pc.zfw, true, nil
		}
	}
	w, err = h.PseudoInverse()
	if err != nil {
		return nil, false, err
	}
	if pc.zfcopy == nil || pc.zfcopy.Rows != h.Rows || pc.zfcopy.Cols != h.Cols {
		pc.zfcopy = cmplxmat.New(h.Rows, h.Cols)
	}
	copy(pc.zfcopy.Data, h.Data)
	pc.zfw = w
	return w, false, nil
}

// fingerprint hashes a matrix's float bits with FNV-1a.
//
//geolint:noalloc
func fingerprint(m *cmplxmat.Matrix) uint64 {
	const offset64 = 14695981039346656037
	h := uint64(offset64)
	for _, v := range m.Data {
		h = fnvMix(h, math.Float64bits(real(v)))
		h = fnvMix(h, math.Float64bits(imag(v)))
	}
	return h
}

// fnvMix folds one 64-bit word into an FNV-1a state byte by byte.
//
//geolint:noalloc
func fnvMix(h, bits uint64) uint64 {
	const prime64 = 1099511628211
	for s := 0; s < 64; s += 8 {
		h ^= (bits >> s) & 0xff
		h *= prime64
	}
	return h
}

// SharedPreparer is implemented by detectors whose Prepare can attach
// to an externally cached PreparedChannel instead of rederiving the
// channel state. PrepareShared behaves exactly like Prepare — same
// validation, same resulting detector state bit for bit — but consults
// pc first: on a hit (pc already holds this channel's derivation) the
// factorization, ordering and table construction are all skipped.
//
// The hit return value reports whether the cache was reused; it feeds
// the hit/miss counters the observability layer publishes and is never
// allowed to influence detection results.
type SharedPreparer interface {
	Detector
	PrepareShared(pc *PreparedChannel, h *cmplxmat.Matrix) (hit bool, err error)
}

// PrepPool holds one PreparedChannel per slot — one per OFDM data
// subcarrier in the link pipeline — so a worker's detector re-prepares
// each subcarrier only when that subcarrier's channel actually
// changes. The slots keep their state in one slab per element type,
// carved at the pool's first fill, and share one QR workspace and one
// set of mode scratch (prepStore): a pool of any slot count is a
// handful of heap objects. The pool and its workspace belong to one
// goroutine: it is not safe for concurrent use, and each pipeline
// worker and each resident serving group has its own pool, used only
// by the goroutine serving it. A pool is used through the pointer
// NewPrepPool returns; its slots point into it.
type PrepPool struct {
	pcs          []PreparedChannel
	store        prepStore // every slot's slab and the scratch they share
	hits, misses uint64
	qrUpdates    uint64
}

// NewPrepPool returns a pool with `slots` empty cache entries. Their
// retained state is carved out of one slab per element type at the
// pool's first fill (see prepStore).
func NewPrepPool(slots int) *PrepPool {
	if slots <= 0 {
		panic(fmt.Sprintf("core: PrepPool needs at least one slot, got %d", slots))
	}
	p := &PrepPool{pcs: make([]PreparedChannel, slots), store: prepStore{slots: slots}}
	for i := range p.pcs {
		p.pcs[i].st = &p.store
		p.pcs[i].slot = int32(i)
	}
	return p
}

// Slots returns the number of cache entries.
func (p *PrepPool) Slots() int { return len(p.pcs) }

// Prepare prepares det for h using slot's cache when det supports
// shared preparation, falling back to det.Prepare otherwise (linear
// detectors, K-best, the hybrid switch). Out-of-range slots also fall
// back rather than panic, so callers with odd geometries degrade to
// the uncached behavior.
//
//geolint:noalloc
func (p *PrepPool) Prepare(det Detector, slot int, h *cmplxmat.Matrix) error {
	if sp, ok := det.(SharedPreparer); ok && slot >= 0 && slot < len(p.pcs) {
		pc := &p.pcs[slot]
		before := pc.updates
		hit, err := sp.PrepareShared(pc, h)
		if err != nil {
			return err
		}
		switch {
		case hit:
			p.hits++
		case pc.updates != before:
			p.qrUpdates++
		default:
			p.misses++
		}
		return nil
	}
	p.misses++
	return det.Prepare(h)
}

// Counters returns the cumulative cache hit and miss counts. A miss
// absorbed by the incremental QR-update path counts as neither; it is
// reported separately by QRUpdates.
func (p *PrepPool) Counters() (hits, misses uint64) { return p.hits, p.misses }

// QRUpdates returns the number of cache misses that were absorbed by
// rank-1 QR updates instead of full refactorizations. Always zero
// unless SetIncremental(true) has been called.
func (p *PrepPool) QRUpdates() uint64 { return p.qrUpdates }

// SetIncremental toggles the incremental re-preparation path on every
// slot in the pool. See PreparedChannel.SetIncremental.
func (p *PrepPool) SetIncremental(on bool) {
	for i := range p.pcs {
		p.pcs[i].SetIncremental(on)
	}
}

// AppendKappa2dB appends the cached diagonal condition estimate (in
// dB) of every filled slot to dst and returns it. Empty slots (never
// prepared through a SharedPreparer) are skipped, so on the batched
// link path the result holds one value per data subcarrier. The caller
// reuses dst across frames to keep the observability path
// allocation-free.
//
//geolint:noalloc
func (p *PrepPool) AppendKappa2dB(dst []float64) []float64 {
	for i := range p.pcs {
		if p.pcs[i].epoch == 0 {
			continue
		}
		dst = append(dst, p.pcs[i].Kappa2dB()) //geolint:alloc-ok caller presizes dst; growth only on first frame
	}
	return dst
}

// MeanKappa2dB returns the mean cached condition estimate (in dB)
// across the pool's filled slots, or NaN when no slot has been filled
// yet. The serving layer uses it as a per-group conditioning summary —
// read from state the first processed frame already built, never
// recomputed.
//
//geolint:noalloc
func (p *PrepPool) MeanKappa2dB() float64 {
	var sum float64
	n := 0
	for i := range p.pcs {
		if p.pcs[i].epoch == 0 {
			continue
		}
		sum += p.pcs[i].Kappa2dB()
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// embedReal writes the real-valued decomposition of h into dst
// (2na×2nc, imaginary parts identically zero):
//
//	[Re H, −Im H; Im H, Re H]
//
//geolint:noalloc
func embedReal(dst, h *cmplxmat.Matrix) {
	na, nc := h.Rows, h.Cols
	for r := 0; r < na; r++ {
		for c := 0; c < nc; c++ {
			v := h.At(r, c)
			dst.Set(r, c, complex(real(v), 0))
			dst.Set(r, c+nc, complex(-imag(v), 0))
			dst.Set(r+na, c, complex(imag(v), 0))
			dst.Set(r+na, c+nc, complex(real(v), 0))
		}
	}
}
