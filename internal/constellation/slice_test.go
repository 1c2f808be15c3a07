package constellation

import (
	"math"
	"testing"
)

// sliceAxisRound is the former SliceAxis, rounding before the clamp.
// It is only meaningful where the rounded value fits an int: past that
// Go leaves the conversion implementation-defined.
func sliceAxisRound(c *Constellation, v float64) int {
	i := int(math.Round((v/c.scale + float64(c.side-1)) / 2))
	if i < 0 {
		i = 0
	} else if i >= c.side {
		i = c.side - 1
	}
	return i
}

// axisT is SliceAxis's fractional line coordinate of v.
func axisT(c *Constellation, v float64) float64 {
	return (v/c.scale + float64(c.side-1)) / 2
}

// checkSliceAxis asserts SliceAxis(v) against the rounding reference
// wherever that reference is defined (|t| < 2^62), and against the
// clamp everywhere else: side−1 at or beyond the top line (+∞
// included), 0 below the bottom line, at −∞ and for NaN.
func checkSliceAxis(t *testing.T, c *Constellation, v float64) {
	t.Helper()
	got := c.SliceAxis(v)
	tt := axisT(c, v)
	var want int
	switch {
	case math.IsNaN(tt) || tt < -(1<<62):
		want = 0
	case tt >= 1<<62:
		want = c.side - 1
	default:
		want = sliceAxisRound(c, v)
	}
	if got != want {
		t.Fatalf("%s: SliceAxis(%v) = %d (t = %v), want %d", c, v, got, tt, want)
	}
}

// TestSliceAxisTable pins the special inputs — both infinities, NaN,
// ±0, values far past the outer lines — and every half-way tie of
// every alphabet, with its two neighbouring floats, against the
// rounding reference (ties round up, away from zero).
func TestSliceAxisTable(t *testing.T) {
	for _, c := range append(All(), QAM1024) {
		top := c.side - 1
		for _, tc := range []struct {
			v    float64
			want int
		}{
			{math.Inf(1), top},
			{math.Inf(-1), 0},
			{math.NaN(), 0},
			{1e19, top},
			{1e300, top},
			{math.MaxFloat64, top},
			{-1e19, 0},
			{-math.MaxFloat64, 0},
			{c.AxisCoord(0), 0},
			{c.AxisCoord(top), top},
			{c.AxisCoord(top) + 10, top},
			{c.AxisCoord(0) - 10, 0},
		} {
			if got := c.SliceAxis(tc.v); got != tc.want {
				t.Errorf("%s: SliceAxis(%v) = %d, want %d", c, tc.v, got, tc.want)
			}
		}
		for _, v := range []float64{0, math.Copysign(0, -1)} {
			checkSliceAxis(t, c, v)
		}
		for k := 0; k < c.side; k++ {
			checkSliceAxis(t, c, c.AxisCoord(k))
			// The boundary between lines k and k+1, where t = k + ½,
			// and its neighbours on both sides.
			mid := c.AxisCoord(k) + c.scale
			for _, v := range []float64{mid, math.Nextafter(mid, math.Inf(1)), math.Nextafter(mid, math.Inf(-1))} {
				checkSliceAxis(t, c, v)
			}
		}
	}
}

// FuzzSliceAxis: for any input, SliceAxis equals the rounding
// reference where that is defined and the clamp everywhere else.
func FuzzSliceAxis(f *testing.F) {
	for _, v := range []float64{0, 0.3162, -0.9487, 1, 1e19, -1e19, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for _, c := range append(All(), QAM1024) {
			checkSliceAxis(t, c, v)
		}
	})
}

// sliceSink keeps BenchmarkSliceAxis's result alive.
var sliceSink int

// BenchmarkSliceAxis slices a spread of coordinates covering every
// line of 64-QAM, both outer clamps and the half-way ties.
func BenchmarkSliceAxis(b *testing.B) {
	c := QAM64
	vs := make([]float64, 256)
	for i := range vs {
		vs[i] = (float64(i)/float64(len(vs)-1)*2 - 1) * 1.4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sliceSink += c.SliceAxis(vs[i&255])
	}
}
