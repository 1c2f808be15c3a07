// Package constellation implements the Gray-mapped square QAM
// alphabets used throughout the paper (QPSK/4-QAM through 256-QAM),
// together with the geometric operations the Geosphere enumerators
// build on: slicing (nearest-point quantization), the PAM row/column
// decomposition of Figure 4, and bit↔symbol mapping.
//
// Internally a constellation point is addressed by its integer PAM
// coordinates (col, row) ∈ [0, side)², laid out on the lattice
// {±1, ±3, …}·d/2 with neighbouring points 2 units apart before the
// unit-energy normalization. Indexing by integer coordinates is what
// lets the sphere decoder's pruning bound be a pure table lookup.
package constellation

import (
	"fmt"
	"math"
)

// Constellation is an immutable Gray-mapped square QAM alphabet.
type Constellation struct {
	name       string
	bits       int     // bits per symbol, Q
	side       int     // points per dimension = 2^(bits/2)
	scale      float64 // lattice-unit → normalized amplitude factor
	points     []complex128
	grayToLine []int // gray code value -> line (PAM) index per axis
	lineToGray []int // line index -> gray code value per axis
}

// Standard constellations, densest used in the paper's evaluation
// (256-QAM) down to QPSK.
var (
	QPSK   = newQAM("QPSK", 2)
	QAM16  = newQAM("16-QAM", 4)
	QAM64  = newQAM("64-QAM", 6)
	QAM256 = newQAM("256-QAM", 8)
	// QAM1024 extends past the paper's densest evaluated alphabet,
	// following the trajectory its introduction describes ("the search
	// for higher throughputs is driving the use of even denser signal
	// constellations").
	QAM1024 = newQAM("1024-QAM", 10)
)

// ByBits returns the square QAM constellation with q bits per symbol
// (q ∈ {2, 4, 6, 8, 10}).
func ByBits(q int) (*Constellation, error) {
	switch q {
	case 2:
		return QPSK, nil
	case 4:
		return QAM16, nil
	case 6:
		return QAM64, nil
	case 8:
		return QAM256, nil
	case 10:
		return QAM1024, nil
	}
	return nil, fmt.Errorf("constellation: no square QAM with %d bits/symbol", q)
}

// All returns the constellations the evaluation sweeps over, in
// increasing density.
func All() []*Constellation {
	return []*Constellation{QPSK, QAM16, QAM64, QAM256}
}

func newQAM(name string, bits int) *Constellation {
	if bits%2 != 0 || bits < 2 || bits > 10 {
		panic("constellation: bits per symbol must be even, 2..10")
	}
	side := 1 << (bits / 2)
	c := &Constellation{name: name, bits: bits, side: side}
	// Average symbol energy of the unnormalized lattice
	// {±1,…,±(side−1)}² is 2·(side²−1)/3.
	c.scale = math.Sqrt(3 / (2 * float64(side*side-1)))
	c.points = make([]complex128, side*side)
	c.grayToLine = make([]int, side)
	c.lineToGray = make([]int, side)
	for line := 0; line < side; line++ {
		g := line ^ (line >> 1) // binary-reflected Gray code
		c.lineToGray[line] = g
		c.grayToLine[g] = line
	}
	for col := 0; col < side; col++ {
		for row := 0; row < side; row++ {
			c.points[col*side+row] = c.Point(col, row)
		}
	}
	return c
}

// Name returns a human-readable name such as "64-QAM".
func (c *Constellation) Name() string { return c.name }

// Bits returns the number of bits per symbol, Q.
func (c *Constellation) Bits() int { return c.bits }

// Size returns the alphabet size |O| = 2^Q.
func (c *Constellation) Size() int { return c.side * c.side }

// Side returns √|O|, the number of PAM levels per dimension.
func (c *Constellation) Side() int { return c.side }

// Scale returns the factor that maps lattice units (points 2 apart)
// to the unit-average-energy complex plane.
func (c *Constellation) Scale() float64 { return c.scale }

// MinDist returns the minimum distance between constellation points
// after normalization (2·Scale).
func (c *Constellation) MinDist() float64 { return 2 * c.scale }

// pamAmplitude returns the unnormalized PAM amplitude of line index i:
// 2i − (side−1) ∈ {−(side−1), …, side−1}.
func (c *Constellation) pamAmplitude(i int) float64 {
	return float64(2*i - (c.side - 1))
}

// Point returns the normalized complex point at integer coordinates
// (col selects the in-phase/I level, row the quadrature/Q level).
func (c *Constellation) Point(col, row int) complex128 {
	return complex(c.scale*c.pamAmplitude(col), c.scale*c.pamAmplitude(row))
}

// PointIndex returns the normalized point for a flat index
// idx = col·side + row.
func (c *Constellation) PointIndex(idx int) complex128 { return c.points[idx] }

// Index flattens integer coordinates into the canonical point index.
func (c *Constellation) Index(col, row int) int { return col*c.side + row }

// Coords splits a flat index back into (col, row).
func (c *Constellation) Coords(idx int) (col, row int) {
	return idx / c.side, idx % c.side
}

// SliceAxis quantizes one normalized real coordinate to the nearest
// PAM line index, clamped into [0, side); a tie rounds up (half away
// from zero, as math.Round). NaN and −∞ slice to 0, +∞ to side−1.
//
// The clamp comes before any float→int conversion: Go leaves that
// conversion implementation-defined when the value does not fit (amd64
// turned +∞ into index 0, the farthest point), and after the clamp
// t < side−1, so int(t) is the exact floor and t − floor(t) the exact
// fractional part — the truncate-and-compare equals rounding.
func (c *Constellation) SliceAxis(v float64) int {
	// Invert: v = scale·(2i − (side−1)) ⇒ i = (v/scale + side−1)/2.
	t := (v/c.scale + float64(c.side-1)) / 2
	if t >= float64(c.side-1) {
		return c.side - 1
	}
	if !(t >= 0) { // negative or NaN
		return 0
	}
	i := int(t)
	if t-float64(i) >= 0.5 {
		i++
	}
	return i
}

// Slice returns the integer coordinates of the constellation point
// nearest to the (possibly unconstrained) received value y. This is
// the slicing operation of §3.1.
func (c *Constellation) Slice(y complex128) (col, row int) {
	return c.SliceAxis(real(y)), c.SliceAxis(imag(y))
}

// SlicePoint returns the nearest constellation point itself.
func (c *Constellation) SlicePoint(y complex128) complex128 {
	col, row := c.Slice(y)
	return c.Point(col, row)
}

// AxisCoord returns the normalized coordinate of PAM line index i,
// the per-axis counterpart of Point.
func (c *Constellation) AxisCoord(i int) float64 { return c.scale * c.pamAmplitude(i) }

// SymbolBits writes the Q bits for the point at (col, row) into dst
// (most significant first: I bits then Q bits, Gray-coded per axis)
// and returns dst. len(dst) must be ≥ Bits().
func (c *Constellation) SymbolBits(dst []byte, col, row int) []byte {
	half := c.bits / 2
	gi := c.lineToGray[col]
	gq := c.lineToGray[row]
	for b := 0; b < half; b++ {
		dst[b] = byte((gi >> (half - 1 - b)) & 1)
		dst[half+b] = byte((gq >> (half - 1 - b)) & 1)
	}
	return dst[:c.bits]
}

// MapBits maps Q bits (layout as produced by SymbolBits) to integer
// coordinates.
func (c *Constellation) MapBits(bits []byte) (col, row int) {
	half := c.bits / 2
	var gi, gq int
	for b := 0; b < half; b++ {
		gi = gi<<1 | int(bits[b]&1)
		gq = gq<<1 | int(bits[half+b]&1)
	}
	return c.grayToLine[gi], c.grayToLine[gq]
}

// Demap hard-demodulates y to its Q bits via slicing.
func (c *Constellation) Demap(dst []byte, y complex128) []byte {
	col, row := c.Slice(y)
	return c.SymbolBits(dst, col, row)
}

// String implements fmt.Stringer.
func (c *Constellation) String() string { return c.name }
