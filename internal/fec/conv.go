// Package fec implements the channel-coding chain the implementation
// section (§4) uses: the industry-standard rate-1/2, constraint-length
// 7 convolutional code (generators 133/171 octal, as in 802.11),
// hard- and soft-decision Viterbi decoding, puncturing to rates 2/3
// and 3/4, the 802.11-style block interleaver, the frame scrambler,
// and a CRC-32 frame check sequence.
package fec

import (
	"fmt"
	"math"
)

// Convolutional code parameters: K=7, generators 0o133 and 0o171.
const (
	// ConstraintLength is the code's constraint length K.
	ConstraintLength = 7
	numStates        = 1 << (ConstraintLength - 1)
	g0               = 0o133
	g1               = 0o171
)

// parity returns the parity of x.
func parity(x int) byte {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// outputs[state][input] packs the two coded bits (g0 in bit 1, g1 in
// bit 0) produced when `input` enters the shift register at `state`.
var outputs [numStates][2]byte

// hardCode classifies one hard-decision correlation value (indexed by
// its two's-complement byte) for DecodeHardBypass: bit 0 is the
// received bit, bit 1 marks an unerased value, and bit 2 a magnitude
// other than 0 or 1, which the bypass never accepts.
var hardCode [256]byte

func init() {
	for s := 0; s < numStates; s++ {
		for b := 0; b < 2; b++ {
			reg := b<<(ConstraintLength-1) | s
			outputs[s][b] = parity(reg&g0)<<1 | parity(reg&g1)
		}
	}
	for v := range hardCode {
		hardCode[v] = 4
	}
	hardCode[uint8(0)] = 0
	hardCode[uint8(1)] = 2 | 1
	hardCode[uint8(0xff)] = 2 // −1
}

// ConvEncode encodes data bits (one bit per byte) with the rate-1/2
// code, appending K−1 zero tail bits to terminate the trellis. The
// output has 2·(len(bits)+6) coded bits.
func ConvEncode(bits []byte) []byte {
	return ConvEncodeAppend(make([]byte, 0, 2*(len(bits)+ConstraintLength-1)), bits)
}

// ConvEncodeAppend is ConvEncode appending onto caller-owned dst, so
// encode loops reuse one buffer across codewords. It returns dst.
func ConvEncodeAppend(dst []byte, bits []byte) []byte {
	state := 0
	encode := func(b byte) {
		o := outputs[state][b&1]
		dst = append(dst, o>>1, o&1)
		state = state>>1 | int(b&1)<<(ConstraintLength-2)
	}
	for _, b := range bits {
		encode(b)
	}
	for i := 0; i < ConstraintLength-1; i++ {
		encode(0)
	}
	return dst
}

// ViterbiDecode performs hard-decision maximum-likelihood decoding of
// a terminated rate-1/2 codeword, returning the information bits. The
// input length must be even and cover at least the tail.
func ViterbiDecode(coded []byte) ([]byte, error) {
	vals := make([]int8, len(coded))
	for i, b := range coded {
		// Map hard bits to ±1 correlation values.
		if b&1 == 1 {
			vals[i] = 1
		} else {
			vals[i] = -1
		}
	}
	var w ViterbiWorkspace
	bits, _, err := w.DecodeHardMetric(vals)
	return bits, err
}

// ViterbiDecodeSoft decodes from per-bit log-likelihood ratios
// (positive = bit 1 more likely). Length rules match ViterbiDecode.
func ViterbiDecodeSoft(llrs []float64) ([]byte, error) {
	bits, _, err := ViterbiDecodeSoftMetric(llrs)
	return bits, err
}

// ViterbiDecodeSoftMetric is ViterbiDecodeSoft with the winning path's
// accumulated trellis metric alongside the decoded bits. The metric is
// the correlation of the survivor path's expected code bits with the
// input LLRs: larger means the received soft values agree more
// strongly with a valid codeword, so it doubles as a per-stream
// reception-quality observable (normalize by len(llrs) to compare
// across frame sizes).
func ViterbiDecodeSoftMetric(llrs []float64) ([]byte, float64, error) {
	var w ViterbiWorkspace
	return w.DecodeSoftMetric(llrs)
}

// ViterbiWorkspace owns the scratch the add-compare-select recursion
// needs (path metrics, survivor decisions, decoded bits), so a decoder
// that processes many same-length codewords — one per stream per frame
// in the link pipeline — allocates nothing after the first call. The
// zero value is ready to use. A workspace is not safe for concurrent
// use; keep one per goroutine.
type ViterbiWorkspace struct {
	metrics   []float64
	next      []float64
	imetrics  []int32 // integer twin of metrics for the hard-input path
	inext     []int32
	survivors []int16  // steps×numStates packed predecessor decisions (float path)
	survWords []uint64 // one decision bit per state per step (integer path)
	bits      []byte
}

// DecodeSoftMetric is ViterbiDecodeSoftMetric running in w's reusable
// buffers: bitwise-identical decisions and metric, no steady-state
// allocations. The returned bits alias the workspace and are valid
// only until the next call on w.
//
//geolint:noalloc
func (w *ViterbiWorkspace) DecodeSoftMetric(llrs []float64) ([]byte, float64, error) {
	if len(llrs)%2 != 0 {
		//geolint:alloc-ok error path
		return nil, 0, fmt.Errorf("fec: LLR length %d is odd", len(llrs))
	}
	steps := len(llrs) / 2
	if steps < ConstraintLength-1 {
		//geolint:alloc-ok error path
		return nil, 0, fmt.Errorf("fec: codeword of %d steps shorter than the tail", steps)
	}
	bits, err := w.run(llrs)
	if err != nil {
		return nil, 0, err
	}
	return bits[:steps-(ConstraintLength-1)], w.metrics[0], nil
}

// run is the add-compare-select recursion over soft inputs (2 per
// trellis step; a value of 0 marks a punctured/erased bit), tracing
// back from the zero state. It is the single Viterbi implementation —
// every public decode entry point funnels here.
//
//geolint:noalloc
func (w *ViterbiWorkspace) run(soft []float64) ([]byte, error) {
	steps := len(soft) / 2
	const negInf = math.MaxFloat64
	if cap(w.metrics) < numStates {
		w.metrics = make([]float64, numStates) //geolint:alloc-ok first use only
		w.next = make([]float64, numStates)    //geolint:alloc-ok first use only
	}
	metrics := w.metrics[:numStates]
	next := w.next[:numStates]
	if cap(w.survivors) < steps*numStates {
		w.survivors = make([]int16, steps*numStates) //geolint:alloc-ok first use or longer codeword only
	}
	survivors := w.survivors[:steps*numStates]
	for s := range metrics {
		metrics[s] = -negInf
	}
	metrics[0] = 0
	// Butterfly add-compare-select: states 2k and 2k+1 are the only
	// predecessors of states k and k+32, so each (k, input) pair
	// resolves one next state with a single compare. The arithmetic is
	// bit-identical to the straightforward per-state recursion: the
	// branch metric adds ±l0 then ±l1 in the same order (IEEE a−b is
	// exactly a+(−b), taken from the sign tables), the even predecessor
	// wins ties exactly as the lower state id did, and a dead
	// predecessor's −MaxFloat64 metric absorbs the branch terms, so it
	// loses every compare just as the explicit reachability skip made it.
	// Only dead states' survivor entries differ, and the traceback never
	// reads those.
	for t := 0; t < steps; t++ {
		surv := survivors[t*numStates : (t+1)*numStates]
		l0, l1 := soft[2*t], soft[2*t+1]
		sl0 := [2]float64{-l0, l0}
		sl1 := [2]float64{-l1, l1}
		for k := 0; k < numStates/2; k++ {
			s0 := 2 * k
			m0, m1 := metrics[s0], metrics[s0+1]
			for b := 0; b < 2; b++ {
				ns := k | b<<(ConstraintLength-2)
				o0 := outputs[s0][b]
				bm0 := m0 + sl0[o0>>1]
				bm0 += sl1[o0&1]
				o1 := outputs[s0+1][b]
				bm1 := m1 + sl0[o1>>1]
				bm1 += sl1[o1&1]
				if bm1 > bm0 {
					next[ns] = bm1
					surv[ns] = int16((s0+1)<<1 | b)
				} else {
					next[ns] = bm0
					surv[ns] = int16(s0<<1 | b)
				}
			}
		}
		metrics, next = next, metrics
	}
	// The swap above may leave the freshest metrics in w.next; keep the
	// fields aligned with the locals so callers read the right buffer.
	w.metrics, w.next = metrics, next
	// Terminated trellis: trace back from state 0.
	if cap(w.bits) < steps {
		w.bits = make([]byte, steps) //geolint:alloc-ok first use or longer codeword only
	}
	bits := w.bits[:steps]
	state := 0
	if metrics[0] == -negInf {
		//geolint:alloc-ok error path
		return nil, fmt.Errorf("fec: trellis did not terminate in the zero state")
	}
	for t := steps - 1; t >= 0; t-- {
		dec := survivors[t*numStates+state]
		bits[t] = byte(dec & 1)
		state = int(dec >> 1)
	}
	return bits, nil
}

// DecodeHardMetric is DecodeSoftMetric specialized to hard-decision
// inputs: vals holds one correlation value per mother-code bit, +1 for
// a received 1, −1 for a received 0 and 0 for a punctured/erased
// position. Because every branch and path metric is then a small exact
// integer, the recursion runs in int32 arithmetic — the decoded bits
// and the returned metric are bit-identical to feeding the same values
// through the float path (every float the soft recursion would form is
// an exactly-representable integer, and the compare/tie rules are the
// same), at roughly half the add-compare-select cost.
//
//geolint:noalloc
func (w *ViterbiWorkspace) DecodeHardMetric(vals []int8) ([]byte, float64, error) {
	if len(vals)%2 != 0 {
		//geolint:alloc-ok error path
		return nil, 0, fmt.Errorf("fec: coded length %d is odd", len(vals))
	}
	steps := len(vals) / 2
	if steps < ConstraintLength-1 {
		//geolint:alloc-ok error path
		return nil, 0, fmt.Errorf("fec: codeword of %d steps shorter than the tail", steps)
	}
	bits, err := w.runInt(vals)
	if err != nil {
		return nil, 0, err
	}
	return bits[:steps-(ConstraintLength-1)], float64(w.imetrics[0]), nil
}

// DecodeHardBypass is the error-free fast path of DecodeHardMetric: it
// inverts the encoder over vals instead of running the add-compare-
// select recursion. Walking the shift register, each step's input bit
// is read off its first unerased value (input = A ⊕ parity(state &
// 0o33), or B ⊕ parity(state & 0o71) when A is erased), and every
// unerased value is checked against the ±1 the encoder emits there.
// The walk accepts only if the whole sequence matches, no step has both
// values erased, and it ends in the zero state; it stops at the first
// mismatch, so a stream with errors costs almost nothing before the
// caller falls back to DecodeHardMetric.
//
// On accept it returns exactly what DecodeHardMetric would: the same
// information bits, and the metric, which is the number of unerased
// values. The codeword reaches that maximum correlation, and any other
// terminated path differs from it by a nonzero codeword whose first
// diverging step flips both coded bits — at least one of them
// unerased — so the other path scores at least 2 less. The
// maximum-likelihood path is therefore unique and is the one the full
// recursion traces back (DESIGN.md §17). The returned bits alias the
// workspace and are valid only until the next call on w; ok is false
// for every input the walk rejects, including malformed lengths, which
// DecodeHardMetric then reports.
//
//geolint:noalloc
func (w *ViterbiWorkspace) DecodeHardBypass(vals []int8) (bits []byte, metric float64, ok bool) {
	steps := len(vals) / 2
	if len(vals)%2 != 0 || steps < ConstraintLength-1 {
		return nil, 0, false
	}
	if cap(w.bits) < steps {
		w.bits = make([]byte, steps) //geolint:alloc-ok first use or longer codeword only
	}
	bits = w.bits[:steps]
	state, unerased := 0, 0
	for t := range bits {
		ca, cb := hardCode[uint8(vals[2*t])], hardCode[uint8(vals[2*t+1])]
		rx := ca&1<<1 | cb&1   // received bits, packed like outputs
		live := ca&2 | cb&2>>1 // unerased positions, same packing
		// Input 0 emits outputs[state][0]; input 1 flips both coded bits
		// (both generators tap the input). So the unerased part of
		// rx ⊕ outputs[state][0] is all clear for input 0, all set for
		// input 1, and anything else is a mismatch. Computing the input
		// this way keeps the loop free of data-dependent branches; the
		// one branch left is taken only to reject.
		x := (rx ^ outputs[state][0]) & live
		in := (x | x>>1) & 1
		if x != in*live || live == 0 || (ca|cb)&4 != 0 {
			return nil, 0, false
		}
		unerased += int(live&1 + live>>1)
		bits[t] = in
		state = state>>1 | int(in)<<(ConstraintLength-2)
	}
	if state != 0 {
		return nil, 0, false
	}
	return bits[:steps-(ConstraintLength-1)], float64(unerased), true
}

// runInt is the integer add-compare-select twin of run. The dead-state
// bookkeeping differs in one harmless way: run's −MaxFloat64 sentinel
// absorbs branch terms exactly while the integer sentinel accumulates
// them, so the two recursions can disagree on the survivor of a state
// both of whose predecessors are unreachable — and only there. Such
// states exist only in the first K−2 steps, are never on any path that
// terminates in state 0, and the traceback therefore never reads them,
// which is the same argument run itself makes for skipping explicit
// reachability tracking.
//
// Survivors are stored as one decision bit per next state packed into
// a single uint64 per trellis step (bit ns set ⇔ the odd predecessor
// won), not the float path's int16-per-state array: the butterfly
// structure makes predecessor and input recoverable from the next
// state id alone (prev = 2·(ns mod 32) + bit, input = ns div 32), so
// the bit is all the traceback needs — and the ACS loop's survivor
// traffic drops from 128 bytes per step to one word.
//
//geolint:noalloc
func (w *ViterbiWorkspace) runInt(vals []int8) ([]byte, error) {
	steps := len(vals) / 2
	// Low enough that every dead path stays far below any live metric
	// (|branch| ≤ 2 per step), high enough that int32 never wraps for
	// any codeword short of 2^28 steps.
	const deadMetric = math.MinInt32 / 4
	if cap(w.imetrics) < numStates {
		w.imetrics = make([]int32, numStates) //geolint:alloc-ok first use only
		w.inext = make([]int32, numStates)    //geolint:alloc-ok first use only
	}
	// Fixed-size array views let the compiler prove every state index
	// in the butterfly loop (2k+1 ≤ 63) and drop its bounds checks.
	metrics := (*[numStates]int32)(w.imetrics[:numStates])
	next := (*[numStates]int32)(w.inext[:numStates])
	if cap(w.survWords) < steps {
		w.survWords = make([]uint64, steps) //geolint:alloc-ok first use or longer codeword only
	}
	survWords := w.survWords[:steps]
	for s := range metrics {
		metrics[s] = deadMetric
	}
	metrics[0] = 0
	for t := 0; t < steps; t++ {
		l0, l1 := int32(vals[2*t]), int32(vals[2*t+1])
		// Branch metrics for the four output pairs, indexed by the
		// packed outputs byte: bm[o] = ±l0 ± l1.
		var bm [4]int32
		bm[0] = -l0 - l1
		bm[1] = -l0 + l1
		bm[2] = l0 - l1
		bm[3] = l0 + l1
		var word uint64
		for k := 0; k < numStates/2; k++ {
			s0 := 2 * k
			m0, m1 := metrics[s0], metrics[s0+1]
			// Both generators have their low tap set (bit 0 of 133 and
			// 171 octal), so flipping a predecessor's LSB flips both
			// coded bits: the odd predecessor's branch metric is exactly
			// −c0, one table lookup per butterfly.
			c0 := bm[outputs[s0][0]&3]
			// Input 0 → next state k. The selects below are
			// branch-free (SETcc/CMOV), which matters: the compare
			// direction is data-dependent and essentially random.
			a0, a1 := m0+c0, m1-c0
			sel := uint64(0)
			if a1 > a0 {
				sel = 1
			}
			m := a0
			if a1 > a0 {
				m = a1
			}
			next[k] = m
			word |= sel << uint(k)
			// Input 1 → next state k+numStates/2. Both generators also
			// have the input tap set (bit K−1), so flipping the input
			// flips both coded bits and the branch metric negates again
			// — still the same single lookup.
			b0, b1 := m0-c0, m1+c0
			sel = 0
			if b1 > b0 {
				sel = 1
			}
			m = b0
			if b1 > b0 {
				m = b1
			}
			next[k+numStates/2] = m
			word |= sel << uint(k+numStates/2)
		}
		survWords[t] = word
		metrics, next = next, metrics
	}
	// An odd number of swaps leaves the freshest metrics in w.inext;
	// realign the fields so callers read the right buffer.
	if &w.imetrics[0] != &metrics[0] {
		w.imetrics, w.inext = w.inext, w.imetrics
	}
	if cap(w.bits) < steps {
		w.bits = make([]byte, steps) //geolint:alloc-ok first use or longer codeword only
	}
	bits := w.bits[:steps]
	state := 0
	// A dead path's metric drifts from the sentinel by at most 2 per
	// step, so the halfway threshold cleanly separates dead from live
	// (live metrics are ≥ −2·steps).
	if metrics[0] < deadMetric/2 {
		//geolint:alloc-ok error path
		return nil, fmt.Errorf("fec: trellis did not terminate in the zero state")
	}
	for t := steps - 1; t >= 0; t-- {
		sel := int(survWords[t]>>uint(state)) & 1
		bits[t] = byte(state >> (ConstraintLength - 2))
		state = (state&(numStates/2-1))<<1 | sel
	}
	return bits, nil
}

// Rate identifies a puncturing pattern applied to the rate-1/2 mother
// code.
type Rate int

// Supported code rates.
const (
	Rate12 Rate = iota // 1/2: no puncturing
	Rate23             // 2/3: 802.11 puncturing pattern
	Rate34             // 3/4: 802.11 puncturing pattern
)

// String implements fmt.Stringer.
func (r Rate) String() string {
	switch r {
	case Rate12:
		return "1/2"
	case Rate23:
		return "2/3"
	case Rate34:
		return "3/4"
	}
	return fmt.Sprintf("Rate(%d)", int(r))
}

// Fraction returns the code rate as a float (information/coded bits).
func (r Rate) Fraction() float64 {
	switch r {
	case Rate23:
		return 2.0 / 3.0
	case Rate34:
		return 3.0 / 4.0
	default:
		return 0.5
	}
}

// puncturePattern returns the 802.11 keep-mask over mother-code bits,
// or nil for rate 1/2.
func (r Rate) puncturePattern() []bool {
	switch r {
	case Rate23:
		// Keep A1 B1 A2, drop B2 (period 4 mother bits → 3 kept).
		return []bool{true, true, true, false}
	case Rate34:
		// Keep A1 B1 A2, drop B2, drop A3, keep B3.
		return []bool{true, true, true, false, false, true}
	default:
		return nil
	}
}

// Puncture removes coded bits per the rate's pattern.
func Puncture(coded []byte, r Rate) []byte {
	if r.puncturePattern() == nil {
		return coded
	}
	return PunctureAppend(make([]byte, 0, len(coded)), coded, r)
}

// PunctureAppend is Puncture appending onto caller-owned dst (the
// unpunctured rate appends a plain copy rather than aliasing coded,
// so dst is always safe to mutate). It returns dst.
func PunctureAppend(dst, coded []byte, r Rate) []byte {
	pat := r.puncturePattern()
	if pat == nil {
		return append(dst, coded...)
	}
	for i, b := range coded {
		if pat[i%len(pat)] {
			dst = append(dst, b)
		}
	}
	return dst
}

// Depuncture re-inserts erasures (LLR 0) at punctured positions so the
// soft Viterbi decoder can run over the mother code. motherLen is the
// unpunctured codeword length.
func Depuncture(llrs []float64, r Rate, motherLen int) []float64 {
	var out []float64
	if r.puncturePattern() == nil {
		out = make([]float64, len(llrs))
	} else {
		out = make([]float64, motherLen)
	}
	return DepunctureInto(out, llrs, r, motherLen)
}

// DepunctureInto is Depuncture writing into caller-owned dst (length
// len(llrs) for the unpunctured rate, motherLen otherwise), so decode
// loops reuse one buffer across codewords. It returns dst.
//
//geolint:noalloc
func DepunctureInto(dst, llrs []float64, r Rate, motherLen int) []float64 {
	pat := r.puncturePattern()
	if pat == nil {
		copy(dst, llrs)
		return dst
	}
	j := 0
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < motherLen && j < len(llrs); i++ {
		if pat[i%len(pat)] {
			dst[i] = llrs[j]
			j++
		}
	}
	return dst
}

// PunctureSoft removes soft values at the rate's punctured positions,
// the float counterpart of Puncture used on extrinsic feedback.
func PunctureSoft(vals []float64, r Rate) []float64 {
	pat := r.puncturePattern()
	if pat == nil {
		out := make([]float64, len(vals))
		copy(out, vals)
		return out
	}
	out := make([]float64, 0, len(vals))
	for i, v := range vals {
		if pat[i%len(pat)] {
			out = append(out, v)
		}
	}
	return out
}
