package fec

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkLanesAgainstOne decodes vals through DecodeHardLanes and fails
// unless every lane's bits and metric equal DecodeHardMetric's on that
// codeword alone.
func checkLanesAgainstOne(t *testing.T, vals [][]int8) {
	t.Helper()
	var lw, ow ViterbiWorkspace
	bits, metrics, err := lw.DecodeHardLanes(vals)
	if err != nil {
		t.Fatalf("%d lanes of %d values: %v", len(vals), len(vals[0]), err)
	}
	for j, v := range vals {
		want, wantMetric, err := ow.DecodeHardMetric(v)
		if err != nil {
			t.Fatalf("lane %d: one-codeword decoder failed: %v", j, err)
		}
		if metrics[j] != wantMetric {
			t.Fatalf("%d lanes, %d steps: lane %d metric %g, one-codeword decoder %g", len(vals), len(v)/2, j, metrics[j], wantMetric)
		}
		if len(bits[j]) != len(want) {
			t.Fatalf("lane %d: %d bits, one-codeword decoder %d", j, len(bits[j]), len(want))
		}
		for i := range want {
			if bits[j][i] != want[i] {
				t.Fatalf("%d lanes, %d steps: lane %d bit %d = %d, one-codeword decoder %d", len(vals), len(v)/2, j, i, bits[j][i], want[i])
			}
		}
	}
	for j := len(vals); j < MaxLanes; j++ {
		if bits[j] != nil || metrics[j] != 0 {
			t.Fatalf("unused lane %d returned %d bits, metric %g", j, len(bits[j]), metrics[j])
		}
	}
}

// eraseSteps zeroes both values of n random trellis steps of vals.
func eraseSteps(r *rand.Rand, vals []int8, n int) {
	for i := 0; i < n; i++ {
		t := r.Intn(len(vals) / 2)
		vals[2*t], vals[2*t+1] = 0, 0
	}
}

// TestHardDecodeLanesMatchesOneCodeword: for 1–4 lanes, rates 1/2,
// 2/3 and 3/4, lengths from the bare tail to several renormalization
// periods, and flip counts from none to noise-like, every lane decodes
// to exactly DecodeHardMetric's bits and metric. Each lane carries its
// own codeword and error pattern; some cells also erase whole steps.
func TestHardDecodeLanesMatchesOneCodeword(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	steps := []int{6, 7, 13, 64, 570, laneRenorm - 1, laneRenorm, laneRenorm + 1, 3*laneRenorm + 7}
	for i := 0; i < 4; i++ {
		steps = append(steps, 6+r.Intn(2500))
	}
	for _, rate := range allRates {
		for _, n := range steps {
			for lanes := 1; lanes <= MaxLanes; lanes++ {
				for _, heavy := range []int{0, 1, 4, 8, 2} {
					vals := make([][]int8, lanes)
					for j := range vals {
						vals[j] = hardVals(ConvEncode(randBits(r, n-(ConstraintLength-1))), rate)
						// heavy picks the flip density: none, one error,
						// then up to 1/4, 1/8 and 1/2 of the unerased values.
						flips := 0
						switch heavy {
						case 1:
							flips = 1
						case 2, 4, 8:
							flips = r.Intn(1 + int(unerasedCount(vals[j]))/heavy)
						}
						flipUnerased(r, vals[j], flips)
						if heavy == 8 {
							eraseSteps(r, vals[j], r.Intn(1+n/4))
						}
					}
					checkLanesAgainstOne(t, vals)
				}
			}
		}
	}
}

// TestHardDecodeLanesEdgeInputs covers the inputs the random sweep
// rarely draws: all-erased codewords, pure noise, and lanes that mix a
// clean codeword with its complement.
func TestHardDecodeLanesEdgeInputs(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for _, n := range []int{6, 100, laneRenorm + 50} {
		erased := make([]int8, 2*n)
		noise := make([]int8, 2*n)
		for i := range noise {
			noise[i] = int8(r.Intn(3) - 1)
		}
		clean := hardVals(ConvEncode(randBits(r, n-(ConstraintLength-1))), Rate12)
		anti := make([]int8, len(clean))
		for i, v := range clean {
			anti[i] = -v
		}
		checkLanesAgainstOne(t, [][]int8{erased})
		checkLanesAgainstOne(t, [][]int8{erased, noise, clean, anti})
		checkLanesAgainstOne(t, [][]int8{noise, noise, erased})
	}
}

// TestHardDecodeLanesLongDrift pins the int16 headroom: over 120 000
// steps a clean rate-1/2 codeword gains the most metric per step (4 in
// lane units) and an all-erased one the least (2), so the lanes drift
// apart as fast as any input allows and the renormalization has to
// hold every lane inside 15 bits for over a hundred periods.
func TestHardDecodeLanesLongDrift(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const n = 120_000
	clean := hardVals(ConvEncode(randBits(r, n-(ConstraintLength-1))), Rate12)
	erased := make([]int8, 2*n)
	noisy := append([]int8(nil), clean...)
	flipUnerased(r, noisy, n/10)
	checkLanesAgainstOne(t, [][]int8{clean, erased, noisy, clean})
}

// TestHardDecodeLanesRejectsMalformed: odd and short codewords get
// DecodeHardMetric's errors verbatim, and ragged lanes, lane counts
// outside 1..MaxLanes and values other than −1, 0, +1 are errors too.
func TestHardDecodeLanesRejectsMalformed(t *testing.T) {
	clean := hardVals(ConvEncode(make([]byte, 10)), Rate12)
	var w ViterbiWorkspace
	for name, v := range map[string][]int8{
		"odd":   clean[:len(clean)-1],
		"short": clean[:2*(ConstraintLength-2)],
	} {
		_, _, want := w.DecodeHardMetric(v)
		for lanes := 1; lanes <= MaxLanes; lanes++ {
			vals := make([][]int8, lanes)
			for j := range vals {
				vals[j] = v
			}
			_, _, err := w.DecodeHardLanes(vals)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("%s, %d lanes: error %v, one-codeword decoder %v", name, lanes, err, want)
			}
		}
	}
	bad := map[string][][]int8{
		"no lanes":   nil,
		"five lanes": {clean, clean, clean, clean, clean},
		"ragged":     {clean, clean[:len(clean)-2]},
	}
	for _, v := range []int8{2, -2, 3, 127, -128} {
		big := append([]int8(nil), clean...)
		big[3] = v
		bad[fmt.Sprintf("value %d", v)] = [][]int8{clean, big}
	}
	for name, vals := range bad {
		if _, _, err := w.DecodeHardLanes(vals); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	checkLanesAgainstOne(t, [][]int8{clean, clean})
}

// TestDecodeHardLanesZeroAllocs: after the first call sizes the
// workspace, decoding four codewords at once allocates nothing.
func TestDecodeHardLanesZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	vals := make([][]int8, MaxLanes)
	for j := range vals {
		vals[j] = hardVals(ConvEncode(randBits(r, 564)), Rate34)
		flipUnerased(r, vals[j], 10)
	}
	var w ViterbiWorkspace
	if _, _, err := w.DecodeHardLanes(vals); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { w.DecodeHardLanes(vals) }); a != 0 {
		t.Fatalf("%g allocs per lane decode, want 0", a)
	}
}

// FuzzHardDecodeLanes: every lane of DecodeHardLanes equals the
// one-codeword DecodeHardMetric, bits and metric. data splits into
// 1–4 equal lanes. In codeword mode (mode bit 0 clear) each lane is a
// punctured codeword of its slice of data with flips drawn from flips;
// in raw mode the values come straight from data, −1, 0 or +1.
func FuzzHardDecodeLanes(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0}, uint8(6), []byte{})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1}, uint8(2), []byte{3, 0, 17, 0})
	f.Add(make([]byte, 120), uint8(7), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, flips []byte) {
		if len(data) > 4000 {
			data = data[:4000]
		}
		lanes := 1 + int(mode>>1)%MaxLanes
		per := len(data) / lanes
		vals := make([][]int8, lanes)
		for j := range vals {
			chunk := data[j*per : (j+1)*per]
			if mode&1 == 1 {
				// Raw values need the tail length to decode at all.
				if per < 2*(ConstraintLength-1) {
					return
				}
				vals[j] = make([]int8, per&^1)
				for i := range vals[j] {
					vals[j][i] = int8(chunk[i]%3) - 1
				}
				continue
			}
			bits := make([]byte, len(chunk))
			for i, b := range chunk {
				bits[i] = b & 1
			}
			vals[j] = hardVals(ConvEncode(bits), allRates[int(mode>>3)%len(allRates)])
			for i := 0; i+1 < len(flips); i += 2 {
				if int(flips[i])%lanes == j {
					p := int(flips[i+1]) * 7 % len(vals[j])
					vals[j][p] = -vals[j][p]
				}
			}
		}
		checkLanesAgainstOne(t, vals)
	})
}
