package fec

import "fmt"

// MaxLanes is the number of equal-length codewords DecodeHardLanes
// decodes in one add-compare-select pass: one 16-bit lane of a uint64
// per codeword.
const MaxLanes = 4

// Lane layout of the SWAR (SIMD within a register) recursion: every
// uint64 holds one trellis state's metric for MaxLanes codewords, lane j
// in bits 16j..16j+15.
const (
	laneOnes = 0x0001_0001_0001_0001 // 1 in every lane
	laneHigh = 0x8000_8000_8000_8000 // bit 15 of every lane
	// laneBase is every lane's state-0 metric at the start and after
	// each renormalization. Dead states start at 0 and gain at most
	// 4 per step over the first K−1 steps, so every dead compare
	// operand is ≤ 4(K−1) = 24 < laneBase ≤ every live operand.
	laneBase = 32
	// laneRenorm is the renormalization period R in trellis steps.
	// After it, every lane sits within ±4(K−1) of laneBase, and the
	// next R steps add at most 4 each, so every compare operand stays
	// below laneBase + 4(K−1) + 4R = 4152 < 2^15 (DESIGN.md §18).
	laneRenorm = 1024
)

// DecodeHardLanes is DecodeHardMetric over 1..MaxLanes equal-length
// hard-decision codewords at once, with bitwise-identical results:
// bits[j] and metrics[j] are exactly what DecodeHardMetric(vals[j])
// returns, for j < len(vals). Values must be −1, 0 or +1 (the ±1/0
// correlations the hard path produces); lengths are checked as
// DecodeHardMetric checks them, plus equality across lanes.
//
// Each lane runs runInt's integer recursion shifted by a per-lane
// constant. Branch metrics enter as bm+2 ∈ [0,4], so every lane
// operation is an addition that cannot carry into the next lane, and
// the compare reads bit 15 of (a0|H)−a1, true exactly when a0 ≥ a1:
// the odd predecessor wins only on a1 > a0, runInt's tie rule. One
// butterfly thus serves every lane with a handful of integer
// operations; with one lane it costs more than runInt, so callers keep
// DecodeHardMetric for lone codewords.
//
// The returned bits alias the workspace and are valid only until the
// next DecodeHardLanes call on w.
//
//geolint:noalloc
func (w *ViterbiWorkspace) DecodeHardLanes(vals [][]int8) (bits [MaxLanes][]byte, metrics [MaxLanes]float64, err error) {
	n := len(vals)
	if n == 0 || n > MaxLanes {
		//geolint:alloc-ok error path
		return bits, metrics, fmt.Errorf("fec: %d codewords, want 1..%d lanes", n, MaxLanes)
	}
	for j, v := range vals {
		if len(v)%2 != 0 {
			//geolint:alloc-ok error path
			return bits, metrics, fmt.Errorf("fec: coded length %d is odd", len(v))
		}
		if len(v)/2 < ConstraintLength-1 {
			//geolint:alloc-ok error path
			return bits, metrics, fmt.Errorf("fec: codeword of %d steps shorter than the tail", len(v)/2)
		}
		if len(v) != len(vals[0]) {
			//geolint:alloc-ok error path
			return bits, metrics, fmt.Errorf("fec: lane %d has %d coded values, lane 0 has %d", j, len(v), len(vals[0]))
		}
	}
	steps := len(vals[0]) / 2
	if cap(w.lmetrics) < 2*numStates {
		w.lmetrics = make([]uint64, 2*numStates) //geolint:alloc-ok first use only
	}
	if cap(w.laneSurv) < MaxLanes*steps {
		w.laneSurv = make([]uint64, MaxLanes*steps) //geolint:alloc-ok first use or longer codeword only
		w.laneBits = make([]byte, MaxLanes*steps)   //geolint:alloc-ok first use or longer codeword only
	}
	if cap(w.laneIn) < steps {
		w.laneIn = make([]uint64, steps) //geolint:alloc-ok first use or longer codeword only
	}
	if !w.packLanes(vals, steps) {
		//geolint:alloc-ok error path
		return bits, metrics, fmt.Errorf("fec: lane input outside −1, 0, +1")
	}
	final := w.runLanes(steps)
	// Trace every lane back from state 0 in one pass: the lanes' state
	// chains are independent, so their loads overlap.
	var state [MaxLanes]int
	surv, out := w.laneSurv[:MaxLanes*steps], w.laneBits[:MaxLanes*steps]
	for t := steps - 1; t >= 0; t-- {
		words := (*[MaxLanes]uint64)(surv[MaxLanes*t:])
		for j := range vals {
			s := state[j]
			out[j*steps+t] = byte(s >> (ConstraintLength - 2))
			state[j] = (s&(numStates/2-1))<<1 | int(words[s>>4&3]>>uint(16*j+s&15))&1
		}
	}
	for j := range vals {
		bits[j] = out[j*steps : j*steps+steps-(ConstraintLength-1)]
		metrics[j] = float64(final[j])
	}
	return bits, metrics, nil
}

// packLanes packs the lanes' inputs into w.laneIn, one word per trellis
// step: lane j's values plus one, each 0, 1 or 2, at bits 16j and
// 16j+8. It reports false if some value lies outside −1, 0, +1.
//
//geolint:noalloc
func (w *ViterbiWorkspace) packLanes(vals [][]int8, steps int) bool {
	in := w.laneIn[:steps]
	for t := range in {
		in[t] = 0
	}
	var bad uint
	for j, v := range vals {
		v = v[:2*steps]
		for t := range in {
			// Byte arithmetic maps −1, 0, +1 to 0, 1, 2 and every other
			// value to 3..255, so (x+1)>>2 is nonzero exactly for those.
			x, y := uint(uint8(v[2*t])+1), uint(uint8(v[2*t+1])+1)
			bad |= (x+1)>>2 | (y+1)>>2
			in[t] |= uint64(x|y<<8) << uint(16*j)
		}
	}
	return bad == 0
}

// runLanes is the lane-parallel add-compare-select recursion over the
// inputs packLanes left in w.laneIn. It leaves the survivor decisions
// in w.laneSurv — for step t, word MaxLanes·t + g holds states
// 16g..16g+15, lane j's decision for state s at bit 16j + s mod 16 —
// and returns each lane's final state-0 metric in runInt's unshifted
// units.
//
//geolint:noalloc
func (w *ViterbiWorkspace) runLanes(steps int) (final [MaxLanes]int64) {
	metrics := (*[numStates]uint64)(w.lmetrics[:numStates])
	next := (*[numStates]uint64)(w.lmetrics[numStates : 2*numStates])
	surv := w.laneSurv[:MaxLanes*steps]
	for s := range metrics {
		metrics[s] = 0
	}
	metrics[0] = laneBase * laneOnes
	var renorm [MaxLanes]int64 // Σ of each lane's renormalization shifts
	for t, in := range w.laneIn[:steps] {
		// a and b hold each lane's two values as v+1 ∈ {0,1,2}; the
		// four branch metrics bm[o]+2 = 2 ± a ± b then follow lane-wise
		// without a borrow.
		a, b := in&(3*laneOnes), in>>8&(3*laneOnes)
		e0, e1, e2, e3 := 4*laneOnes-a-b, 2*laneOnes-a+b, 2*laneOnes+a-b, a+b
		e := [8]uint64{e0, e1, e2, e3, e3, e2, e1, e0}
		laneStep(next, metrics, &e, (*[MaxLanes]uint64)(surv[MaxLanes*t:]))
		metrics, next = next, metrics
		if (t+1)%laneRenorm == 0 {
			// Every state is live (t ≥ K−1), within 4(K−1) of state 0,
			// so each lane of m + base − m0 lands in [base−24, base+24]:
			// non-negative, so the word arithmetic is exact per lane.
			r := metrics[0]
			for s := range metrics {
				metrics[s] = metrics[s] + laneBase*laneOnes - r
			}
			for j := range renorm {
				renorm[j] += int64(r>>uint(16*j)&0xffff) - laneBase
			}
		}
	}
	for j := range final {
		// Each step added 2 to every lane on top of runInt's metric.
		final[j] = int64(metrics[0]>>uint(16*j)&0xffff) + renorm[j] - laneBase - 2*int64(steps)
	}
	return final
}

// laneStep is one trellis step of the lane recursion: runInt's
// butterfly over lane-packed metrics. States 2k and 2k+1 feed k
// (input 0) and k+32 (input 1); e[o] is the lane-packed bm[o]+2 of the
// even predecessor's outputs o, and e[o+4] = e[3−o] = 4 − e[o] the odd
// predecessor's negated branch metric in the same shifted units. It is
// a separate function so the butterfly loop gets the registers to
// itself.
//
//geolint:noalloc
func laneStep(next, metrics *[numStates]uint64, e *[8]uint64, surv *[MaxLanes]uint64) {
	for h := 0; h < 2; h++ {
		m := (*[numStates / 2]uint64)(metrics[numStates/2*h:])
		out := (*[numStates / 2][2]byte)(outputs[numStates/2*h:])
		// n[i] is next state 16h+i (input 0), n[i+32] next state
		// 16h+i+32 (input 1).
		n := (*[numStates/2 + numStates/4]uint64)(next[numStates/4*h:])
		var lo, hi uint64
		for i := 0; i < numStates/4; i++ {
			m0, m1 := m[2*i], m[2*i+1]
			o := out[2*i][0] & 3
			c, nc := e[o], e[o+4]
			// g holds bit 15 in the lanes where a0 ≥ a1 (the even
			// predecessor wins); (d^g)&mask is a0−a1 there and 0
			// elsewhere, so a1 plus it is the lane-wise maximum.
			a1 := m1 + nc
			d := (m0 + c | laneHigh) - a1
			g := d & laneHigh
			n[i] = a1 + (d^g)&(g>>15*0xffff)
			lo = lo>>1 | g
			b1 := m1 + c
			d = (m0 + nc | laneHigh) - b1
			g = d & laneHigh
			n[i+numStates/2] = b1 + (d^g)&(g>>15*0xffff)
			hi = hi>>1 | g
		}
		// Each decision entered at bit 16j+15 and moved down one bit per
		// later state, so state 16h+i's sits at bit 16j+i. Sixteen states
		// fill every lane, and one complement turns "even won" into the
		// odd-predecessor bits runInt stores.
		surv[h] = ^lo
		surv[2+h] = ^hi
	}
}
