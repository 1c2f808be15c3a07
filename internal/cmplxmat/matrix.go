// Package cmplxmat implements the dense complex linear algebra used by
// the MIMO receiver: matrix products, conjugate transposes, Householder
// QR decomposition (the triangularization the sphere decoder needs),
// Gaussian-elimination inverses and solves, pseudo-inverses for
// rectangular channels, and a Hermitian Jacobi eigensolver from which
// singular values and condition numbers are derived.
//
// The matrices involved in MIMO detection are tiny (at most ~10×10),
// so the implementations favour clarity and numerical robustness over
// blocked performance, while still avoiding allocation in the solver
// hot paths where practical.
package cmplxmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// ErrSingular is returned when an inverse or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("cmplxmat: matrix is singular")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("cmplxmat: dimension mismatch")

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len Rows*Cols, row-major
}

// New returns a zero r×c matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("cmplxmat: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// Carve makes m an r×c matrix over the first r·c elements of b and
// returns the rest of b, so a caller can lay many matrices out in one
// backing array. It panics if b is shorter than r·c.
func (m *Matrix) Carve(b []complex128, r, c int) []complex128 {
	m.Rows, m.Cols, m.Data = r, c, b[:r*c:r*c]
	return b[r*c:]
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("cmplxmat: FromRows needs at least one non-empty row")
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic("cmplxmat: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "(%8.4f%+8.4fi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ConjT returns the conjugate transpose (Hermitian adjoint) m*.
func (m *Matrix) ConjT() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// Mul returns a·b. It panics if the inner dimensions differ.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(ErrShape)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MulVec returns a·x for a column vector x. It panics if len(x) !=
// a.Cols. dst may be nil, in which case a fresh slice is allocated;
// otherwise len(dst) must equal a.Rows. dst must not alias x.
func (a *Matrix) MulVec(dst, x []complex128) []complex128 {
	if len(x) != a.Cols {
		panic(ErrShape)
	}
	if dst == nil {
		dst = make([]complex128, a.Rows)
	} else if len(dst) != a.Rows {
		panic(ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a−b.
func Sub(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(s complex128, a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = s * a.Data[i]
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the largest elementwise |a−b|, a convenient
// equality tolerance for tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	var m float64
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// Inverse returns m⁻¹ via Gauss-Jordan elimination with partial
// pivoting. It returns ErrSingular for singular input.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, ErrShape
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column.
		piv, pmax := col, cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax < 1e-300 {
			return nil, ErrSingular
		}
		if piv != col {
			swapRows(a, piv, col)
			swapRows(inv, piv, col)
		}
		d := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/d)
			inv.Set(col, j, inv.At(col, j)/d)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve returns x with a·x = b for square a, using the same pivoted
// elimination as Inverse but without forming the inverse.
func Solve(a *Matrix, b []complex128) ([]complex128, error) {
	if a.Rows != a.Cols || len(b) != a.Rows {
		return nil, ErrShape
	}
	n := a.Rows
	aa := a.Clone()
	x := make([]complex128, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		piv, pmax := col, cmplx.Abs(aa.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(aa.At(r, col)); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax < 1e-300 {
			return nil, ErrSingular
		}
		if piv != col {
			swapRows(aa, piv, col)
			x[piv], x[col] = x[col], x[piv]
		}
		d := aa.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aa.At(r, col) / d
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				aa.Set(r, j, aa.At(r, j)-f*aa.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for j := r + 1; j < n; j++ {
			s -= aa.At(r, j) * x[j]
		}
		x[r] = s / aa.At(r, r)
	}
	return x, nil
}

// PseudoInverse returns the left Moore-Penrose pseudo-inverse
// (H*H)⁻¹H* for a tall or square matrix. This is the zero-forcing
// filter for na ≥ nc MIMO channels.
func (m *Matrix) PseudoInverse() (*Matrix, error) {
	if m.Rows < m.Cols {
		return nil, fmt.Errorf("cmplxmat: PseudoInverse needs rows ≥ cols, got %d×%d: %w", m.Rows, m.Cols, ErrShape)
	}
	h := m.ConjT()
	gram := Mul(h, m) // nc×nc
	gi, err := gram.Inverse()
	if err != nil {
		return nil, err
	}
	return Mul(gi, h), nil
}

// Det returns the determinant of a square matrix via pivoted LU.
func (m *Matrix) Det() complex128 {
	if m.Rows != m.Cols {
		panic(ErrShape)
	}
	n := m.Rows
	a := m.Clone()
	det := complex(1, 0)
	for col := 0; col < n; col++ {
		piv, pmax := col, cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax == 0 {
			return 0
		}
		if piv != col {
			swapRows(a, piv, col)
			det = -det
		}
		d := a.At(col, col)
		det *= d
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / d
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
		}
	}
	return det
}
