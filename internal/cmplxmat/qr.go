package cmplxmat

import (
	"math"
	"math/cmplx"
)

// QR holds the thin QR factorization of an m×n matrix with m ≥ n:
// A = Q·R with Q m×n having orthonormal columns (Q*Q = I) and R n×n
// upper triangular. The sphere decoder requires the diagonal of R to
// be real and non-negative, which this implementation guarantees.
//
// A QR holds its factors and nothing else that lasts: the scratch a
// factorization or rank-1 update needs lives in a QRWorkspace. A
// caller keeping many factorizations (core.PrepPool keeps one per
// subcarrier) drives them all through one workspace with
// QRWorkspace.Decompose and QRWorkspace.Update. QRDecomposeInto and
// QRUpdateInto run those same methods on a workspace the QR makes for
// itself on first use, so a zero QR works on its own and re-filling it
// with same-shaped matrices allocates nothing after the first call.
type QR struct {
	Q *Matrix // m×n, Q*Q = I
	R *Matrix // n×n, upper triangular, real non-negative diagonal

	own *QRWorkspace // made by QRDecomposeInto/QRUpdateInto on first use
}

// QRWorkspace is the scratch of QR factorizations and updates: one
// backing array, grown to the largest shape seen, carved into the
// Householder vector and either the working copy and the accumulated
// reflector product or the update's Hessenberg factor. No call leaves
// state in it that a later call reads, so one workspace may serve any
// number of QR values in any interleaving, with results bitwise
// identical to private workspaces. It is not safe for concurrent use:
// a workspace belongs to one goroutine. The zero value is ready to
// use.
type QRWorkspace struct {
	buf   []complex128
	work  Matrix       // m×n working copy being triangularized
	qfull Matrix       // m×m accumulated product of reflections
	hess  Matrix       // (n+1)×n working factor being re-triangularized
	v     []complex128 // Householder vector (decompose) / q̃ (update), length m
	uw    []complex128 // projected update coefficients, length n+1
	m, n  int          // shape the views are cut for
}

// size cuts the workspace's views for an m×n factorization, growing
// the backing array only when a larger shape than any before arrives.
//
//geolint:noalloc
func (ws *QRWorkspace) size(m, n int) {
	if ws.m == m && ws.n == n {
		return
	}
	// A factorization and an update never run at once and leave
	// nothing behind for each other, so the update's Hessenberg factor
	// and coefficients overlay the factorization's working copy and
	// reflector product.
	need := m + max(m*n+m*m, (n+1)*(n+1))
	if cap(ws.buf) < need {
		ws.buf = make([]complex128, need) //geolint:alloc-ok first use or a larger shape only
	}
	b := ws.buf[:need]
	ws.v, b = b[:m:m], b[m:]
	ws.qfull.Carve(ws.work.Carve(b, m, n), m, m)
	ws.uw = ws.hess.Carve(b, n+1, n)[: n+1 : n+1]
	ws.m, ws.n = m, n
}

// workspace returns the QR's own workspace, making it on first use.
//
//geolint:noalloc
func (qr *QR) workspace() *QRWorkspace {
	if qr.own == nil {
		qr.own = new(QRWorkspace) //geolint:alloc-ok first use only
	}
	return qr.own
}

// QRDecompose computes the thin QR factorization of a using Householder
// reflections. It panics if a has more columns than rows.
func QRDecompose(a *Matrix) *QR {
	return QRDecomposeInto(new(QR), a)
}

// QRDecomposeInto factorizes a into dst through dst's own workspace,
// reusing dst's factors when their shapes already match a. It returns
// dst. See QRWorkspace.Decompose.
//
//geolint:noalloc
func QRDecomposeInto(dst *QR, a *Matrix) *QR {
	return dst.workspace().Decompose(dst, a)
}

// Decompose factorizes a into dst using ws as scratch, reusing dst's
// factors when their shapes already match a. It returns dst. The
// result is bitwise identical to QRDecompose(a) — both run this loop,
// and no scratch value survives from one call to the next — so callers
// may cache, re-fill and share workspaces without perturbing
// downstream arithmetic. It panics if a has more columns than rows.
//
//geolint:noalloc
func (ws *QRWorkspace) Decompose(dst *QR, a *Matrix) *QR {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(ErrShape)
	}
	ws.size(m, n)
	// Working copy that will become the triangular factor (top n rows).
	r := &ws.work
	copy(r.Data, a.Data)
	// qfull accumulates the product of reflections, starting from I.
	qfull := &ws.qfull
	for i := range qfull.Data {
		qfull.Data[i] = 0
	}
	for i := 0; i < m; i++ {
		qfull.Set(i, i, 1)
	}
	v := ws.v

	for k := 0; k < n; k++ {
		// Build the Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			x := r.At(i, k)
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		x0 := r.At(k, k)
		// alpha = -e^{jθ(x0)}·‖x‖ so that the new diagonal is real ≥ 0
		// after the sign fix below.
		var phase complex128
		if x0 == 0 {
			phase = 1
		} else {
			phase = x0 / complex(cmplx.Abs(x0), 0)
		}
		alpha := -phase * complex(norm, 0)
		var vnorm2 float64
		for i := k; i < m; i++ {
			v[i] = r.At(i, k)
		}
		v[k] -= alpha
		for i := k; i < m; i++ {
			vnorm2 += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
		}
		if vnorm2 == 0 {
			continue
		}
		beta := complex(2/vnorm2, 0)
		// Apply I − β·v·v* to the remaining columns of r.
		for j := k; j < n; j++ {
			var dot complex128
			for i := k; i < m; i++ {
				dot += cmplx.Conj(v[i]) * r.At(i, j)
			}
			dot *= beta
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-dot*v[i])
			}
		}
		// Accumulate into qfull: qfull ← qfull·(I − β·v·v*).
		for i := 0; i < m; i++ {
			var dot complex128
			for l := k; l < m; l++ {
				dot += qfull.At(i, l) * v[l]
			}
			dot *= beta
			for l := k; l < m; l++ {
				qfull.Set(i, l, qfull.At(i, l)-dot*cmplx.Conj(v[l]))
			}
		}
	}

	// Force the diagonal of R real non-negative by absorbing phases
	// into Q's columns.
	for k := 0; k < n; k++ {
		d := r.At(k, k)
		ad := cmplx.Abs(d)
		if ad == 0 {
			continue
		}
		ph := d / complex(ad, 0)
		if ph == 1 {
			continue
		}
		inv := cmplx.Conj(ph)
		for j := k; j < n; j++ {
			r.Set(k, j, inv*r.At(k, j))
		}
		r.Set(k, k, complex(ad, 0)) // exact: kill phase-fix roundoff
		for i := 0; i < m; i++ {
			qfull.Set(i, k, ph*qfull.At(i, k))
		}
	}

	// Extract the thin factors.
	q := dst.Q
	if q == nil || q.Rows != m || q.Cols != n {
		q = New(m, n)
		dst.Q = q
	}
	for i := 0; i < m; i++ {
		copy(q.Row(i), qfull.Row(i)[:n])
	}
	rt := dst.R
	if rt == nil || rt.Rows != n || rt.Cols != n {
		rt = New(n, n)
		dst.R = rt
	}
	for i := 0; i < n; i++ {
		row := rt.Row(i)
		for j := 0; j < i; j++ {
			row[j] = 0 // strictly lower part stays exactly zero
		}
		for j := i; j < n; j++ {
			row[j] = r.At(i, j)
		}
	}
	return dst
}

// QRUpdateInto applies the rank-1 update A ← A + u·v* to the
// factorization held in dst, rewriting dst.Q and dst.R in place so
// they factor the perturbed matrix: Q'·R' = Q·R + u·v*. len(u) must be
// m and len(v) must be n for an m×n factorization; dst must hold a
// completed factorization (panics otherwise).
//
// The update is the standard Givens scheme (Golub & Van Loan §12.5)
// adapted to the thin factors: project u onto range(Q), extend the
// basis with the normalized residual when it is numerically
// significant, chase the projected coefficients into the first row,
// add the rank-1 term there, and re-triangularize the resulting upper
// Hessenberg factor — O(mn + n²) work against the O(mn² + m²n) of a
// fresh factorization. Like QRDecomposeInto it leaves the diagonal of
// R real and non-negative. The factors drift from a freshly computed
// factorization only by normal floating-point roundoff; callers that
// chain many updates should refactorize periodically (see
// core.PreparedChannel) to keep the accumulated error bounded. The
// scratch is dst's own workspace; see QRWorkspace.Update.
//
//geolint:noalloc
func QRUpdateInto(dst *QR, u, v []complex128) *QR {
	return dst.workspace().Update(dst, u, v)
}

// Update is QRUpdateInto with ws as the scratch: it applies A ← A +
// u·v* to the factorization held in dst, bitwise as QRUpdateInto does.
//
//geolint:noalloc
func (ws *QRWorkspace) Update(dst *QR, u, v []complex128) *QR {
	if dst.Q == nil || dst.R == nil {
		panic(ErrShape)
	}
	m, n := dst.Q.Rows, dst.Q.Cols
	if len(u) != m || len(v) != n {
		panic(ErrShape)
	}
	ws.size(m, n)
	w := ws.uw
	qt := ws.v
	q := dst.Q
	// w = Q*·u and the in-range residual u⊥ = u − Q·w.
	var unorm2 float64
	for i := 0; i < m; i++ {
		unorm2 += real(u[i])*real(u[i]) + imag(u[i])*imag(u[i])
	}
	for j := 0; j < n; j++ {
		var s complex128
		for i := 0; i < m; i++ {
			s += cmplx.Conj(q.At(i, j)) * u[i]
		}
		w[j] = s
	}
	var rho2 float64
	for i := 0; i < m; i++ {
		s := u[i]
		row := q.Row(i)
		for j := 0; j < n; j++ {
			s -= row[j] * w[j]
		}
		qt[i] = s
		rho2 += real(s)*real(s) + imag(s)*imag(s)
	}
	rho := math.Sqrt(rho2)
	// Keep the extra basis column only when the residual is numerically
	// meaningful; below this threshold normalizing it would amplify
	// cancellation noise into a garbage direction (and for m == n no
	// residual direction exists at all).
	p := n // active rows of the augmented factor
	if rho > 1e-14*math.Sqrt(unorm2) && m > n {
		inv := complex(1/rho, 0)
		for i := 0; i < m; i++ {
			qt[i] *= inv
		}
		w[n] = complex(rho, 0)
		p = n + 1
	}
	// hs holds [R; 0] with p rows; rotations chase w into its first
	// entry, turning hs upper Hessenberg, then the rank-1 term lands in
	// row 0 and a second sweep re-triangularizes.
	hs := &ws.hess
	for i := 0; i < n; i++ {
		copy(hs.Row(i), dst.R.Row(i))
	}
	for j := 0; j < n; j++ {
		hs.Row(n)[j] = 0
	}
	for k := p - 2; k >= 0; k-- {
		updGivens(q, qt, hs, k, w[k], w[k+1], &w[k])
		w[k+1] = 0
	}
	alpha := w[0]
	row0 := hs.Row(0)
	for j := 0; j < n; j++ {
		row0[j] += alpha * cmplx.Conj(v[j])
	}
	kmax := p - 1
	if kmax > n-1 {
		kmax = n - 1
	}
	for k := 0; k <= kmax; k++ {
		if k+1 >= p {
			break
		}
		updGivens(q, qt, hs, k, hs.At(k, k), hs.At(k+1, k), nil)
		hs.Set(k+1, k, 0)
	}
	// Extract the updated thin factors and restore the real
	// non-negative diagonal.
	for i := 0; i < n; i++ {
		row := dst.R.Row(i)
		src := hs.Row(i)
		for j := 0; j < i; j++ {
			row[j] = 0
		}
		for j := i; j < n; j++ {
			row[j] = src[j]
		}
	}
	for k := 0; k < n; k++ {
		d := dst.R.At(k, k)
		ad := cmplx.Abs(d)
		if ad == 0 {
			continue
		}
		ph := d / complex(ad, 0)
		if ph == 1 {
			continue
		}
		inv := cmplx.Conj(ph)
		for j := k; j < n; j++ {
			dst.R.Set(k, j, inv*dst.R.At(k, j))
		}
		dst.R.Set(k, k, complex(ad, 0)) // exact: kill phase-fix roundoff
		for i := 0; i < m; i++ {
			q.Set(i, k, ph*q.At(i, k))
		}
	}
	return dst
}

// updGivens applies one Givens rotation on rows (k, k+1) of hs —
// chosen to map the pair (a, b) to (√(|a|²+|b|²), 0) — and the
// conjugate-transposed rotation to the corresponding basis columns:
// columns (k, k+1) of q, with qt standing in for the virtual column
// n. When rOut is non-nil the rotated pair head is stored through it
// (used while chasing the w vector). A zero b leaves everything
// untouched.
//
//geolint:noalloc
func updGivens(q *Matrix, qt []complex128, hs *Matrix, k int, a, b complex128, rOut *complex128) {
	if b == 0 {
		if rOut != nil {
			*rOut = a
		}
		return
	}
	habs := math.Hypot(cmplx.Abs(a), cmplx.Abs(b))
	r := complex(habs, 0)
	c := cmplx.Conj(a) / r
	s := cmplx.Conj(b) / r
	if rOut != nil {
		*rOut = r
	}
	n := hs.Cols
	rowk, rowk1 := hs.Row(k), hs.Row(k+1)
	// Both phases keep rows k and k+1 exactly zero left of column k
	// (upper triangular before the chase, Hessenberg during the
	// re-triangularization), so the rotation starts there.
	for j := k; j < n; j++ {
		x, y := rowk[j], rowk1[j]
		rowk[j] = c*x + s*y
		rowk1[j] = -b/r*x + a/r*y
	}
	// Basis columns: [colk, colk1] ← [colk, colk1]·G*, with G the
	// rotation above; column n is the virtual residual direction in
	// qt.
	m := q.Rows
	nq := q.Cols
	for i := 0; i < m; i++ {
		var x, y complex128
		if k < nq {
			x = q.At(i, k)
		} else {
			x = qt[i]
		}
		if k+1 < nq {
			y = q.At(i, k+1)
		} else {
			y = qt[i]
		}
		nx := x*cmplx.Conj(c) + y*cmplx.Conj(s)
		ny := x*(-cmplx.Conj(b/r)) + y*cmplx.Conj(a/r)
		if k < nq {
			q.Set(i, k, nx)
		} else {
			qt[i] = nx
		}
		if k+1 < nq {
			q.Set(i, k+1, ny)
		} else {
			qt[i] = ny
		}
	}
}

// ApplyQConjT computes ŷ = Q*·y without forming intermediates, the
// receive-side rotation of Equation 3 in the paper. dst may be nil.
func (qr *QR) ApplyQConjT(dst, y []complex128) []complex128 {
	m, n := qr.Q.Rows, qr.Q.Cols
	if len(y) != m {
		panic(ErrShape)
	}
	if dst == nil {
		dst = make([]complex128, n)
	} else if len(dst) != n {
		panic(ErrShape)
	}
	for j := 0; j < n; j++ {
		var s complex128
		for i := 0; i < m; i++ {
			s += cmplx.Conj(qr.Q.At(i, j)) * y[i]
		}
		dst[j] = s
	}
	return dst
}
