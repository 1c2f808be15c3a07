package fec

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

var allRates = []Rate{Rate12, Rate23, Rate34}

// hardVals maps mother-code bits to the ±1 correlation values the
// hard-decision path feeds the decoder, with 0 at the rate's punctured
// positions.
func hardVals(mother []byte, r Rate) []int8 {
	pat := r.puncturePattern()
	vals := make([]int8, len(mother))
	for i, b := range mother {
		if pat != nil && !pat[i%len(pat)] {
			continue
		}
		vals[i] = int8(2*int(b) - 1)
	}
	return vals
}

// flipUnerased negates n distinct nonzero values of vals, chosen by r.
func flipUnerased(r *rand.Rand, vals []int8, n int) {
	var live []int
	for i, v := range vals {
		if v != 0 {
			live = append(live, i)
		}
	}
	r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, i := range live[:n] {
		vals[i] = -vals[i]
	}
}

// unerasedCount is the metric the bypass reports on a clean codeword.
func unerasedCount(vals []int8) float64 {
	n := 0
	for _, v := range vals {
		if v != 0 {
			n++
		}
	}
	return float64(n)
}

// checkBypassAgainstACS runs both hard decoders over vals and fails if
// the bypass accepted with anything but the full recursion's bits and
// metric. It returns the bypass's result.
func checkBypassAgainstACS(t *testing.T, vals []int8) (bits []byte, metric float64, ok bool) {
	t.Helper()
	var bw, aw ViterbiWorkspace
	bits, metric, ok = bw.DecodeHardBypass(vals)
	if !ok {
		return bits, metric, false
	}
	want, wantMetric, err := aw.DecodeHardMetric(vals)
	if err != nil {
		t.Fatalf("bypass accepted an input the full decoder rejects: %v", err)
	}
	if metric != wantMetric {
		t.Fatalf("bypass metric %g, full decoder %g", metric, wantMetric)
	}
	if len(bits) != len(want) {
		t.Fatalf("bypass decoded %d bits, full decoder %d", len(bits), len(want))
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bypass bit %d = %d, full decoder %d", i, bits[i], want[i])
		}
	}
	return bits, metric, true
}

// TestHardDecodeBypassMatchesACS: over rates 1/2, 2/3 and 3/4, lengths
// from the bare tail to 2000 trellis steps and 0–3 flipped unerased
// values, the bypass accepts every clean terminated codeword, rejects
// every corrupted one, and whenever it accepts returns exactly the
// bits and metric of the full add-compare-select recursion.
func TestHardDecodeBypassMatchesACS(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	steps := []int{6, 7, 8, 13, 64, 250, 1001, 2000}
	for i := 0; i < 8; i++ {
		steps = append(steps, 6+r.Intn(1995))
	}
	for _, rate := range allRates {
		for _, n := range steps {
			for flips := 0; flips <= 3; flips++ {
				info := randBits(r, n-(ConstraintLength-1))
				vals := hardVals(ConvEncode(info), rate)
				flipUnerased(r, vals, flips)
				bits, metric, accepted := checkBypassAgainstACS(t, vals)
				if flips == 0 {
					if !accepted {
						t.Fatalf("rate %s, %d steps: clean codeword rejected", rate, n)
					}
					for i := range info {
						if bits[i] != info[i] {
							t.Fatalf("rate %s, %d steps: bit %d wrong", rate, n, i)
						}
					}
					if want := unerasedCount(vals); metric != want {
						t.Fatalf("rate %s, %d steps: metric %g, want %g unerased values", rate, n, metric, want)
					}
				} else if accepted {
					t.Fatalf("rate %s, %d steps: %d flipped values accepted", rate, n, flips)
				}
			}
		}
	}
}

// TestHardDecodeBypassRejectsUnterminated: a valid encoder path that
// does not return to the zero state (a 1 among the last K−1 inputs) is
// not a terminated codeword, so the bypass must hand it to the full
// decoder.
func TestHardDecodeBypassRejectsUnterminated(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, rate := range allRates {
		for tail := 0; tail < ConstraintLength-1; tail++ {
			n := 6 + r.Intn(300)
			bits := randBits(r, n)
			for i := n - (ConstraintLength - 1); i < n; i++ {
				bits[i] = 0
			}
			bits[n-(ConstraintLength-1)+tail] = 1
			// The first n steps of encoding bits: the path ends in the
			// state holding the stray tail 1.
			vals := hardVals(ConvEncode(bits)[:2*n], rate)
			var w ViterbiWorkspace
			if _, _, ok := w.DecodeHardBypass(vals); ok {
				t.Fatalf("rate %s: tail 1 at %d accepted", rate, tail)
			}
		}
	}
}

// TestHardDecodeBypassRejectsMalformed: lengths the full decoder
// reports as errors, both values of a step erased, and magnitudes other
// than ±1 all fall back.
func TestHardDecodeBypassRejectsMalformed(t *testing.T) {
	var w ViterbiWorkspace
	clean := hardVals(ConvEncode(make([]byte, 10)), Rate12)
	for name, vals := range map[string][]int8{
		"odd":   clean[:len(clean)-1],
		"short": clean[:2*(ConstraintLength-2)],
		"both erased": func() []int8 {
			v := append([]int8(nil), clean...)
			v[4], v[5] = 0, 0
			return v
		}(),
		"magnitude 2": func() []int8 {
			v := append([]int8(nil), clean...)
			v[3] *= 2
			return v
		}(),
	} {
		if _, _, ok := w.DecodeHardBypass(vals); ok {
			t.Errorf("%s input accepted", name)
		}
	}
	if _, _, ok := w.DecodeHardBypass(clean); !ok {
		t.Fatal("clean all-zero codeword rejected")
	}
}

// TestDecodeHardBypassZeroAllocs: after the first call sizes the
// workspace, neither an accepted nor a rejected walk allocates.
func TestDecodeHardBypassZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	clean := hardVals(ConvEncode(randBits(r, 500)), Rate34)
	bad := append([]int8(nil), clean...)
	flipUnerased(r, bad, 1)
	var w ViterbiWorkspace
	for name, vals := range map[string][]int8{"clean": clean, "one error": bad} {
		if a := testing.AllocsPerRun(50, func() { w.DecodeHardBypass(vals) }); a != 0 {
			t.Errorf("%s: %g allocs per call, want 0", name, a)
		}
	}
}

// TestHardMetricMatchesSoftRecursion pins the claim in runInt's doc
// comment: on ±1/0 inputs the integer recursion decodes the same bits
// with the same metric as the float recursion. Codewords with error
// patterns of growing weight (so the bypass would fall back) and pure
// noise inputs are both covered, at every rate.
func TestHardMetricMatchesSoftRecursion(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, rate := range allRates {
		for trial := 0; trial < 40; trial++ {
			n := 6 + r.Intn(400)
			var vals []int8
			if trial%4 == 3 {
				// Pure noise: every value independently −1, 0 or +1.
				vals = make([]int8, 2*n)
				for i := range vals {
					vals[i] = int8(r.Intn(3) - 1)
				}
			} else {
				vals = hardVals(ConvEncode(randBits(r, n-(ConstraintLength-1))), rate)
				flipUnerased(r, vals, r.Intn(1+len(vals)/8))
			}
			soft := make([]float64, len(vals))
			for i, v := range vals {
				soft[i] = float64(v)
			}
			var hw, sw ViterbiWorkspace
			hb, hm, herr := hw.DecodeHardMetric(vals)
			sb, sm, serr := sw.DecodeSoftMetric(soft)
			if (herr == nil) != (serr == nil) {
				t.Fatalf("rate %s trial %d: errors differ: %v vs %v", rate, trial, herr, serr)
			}
			if hm != sm {
				t.Fatalf("rate %s trial %d: metric %g (int) vs %g (float)", rate, trial, hm, sm)
			}
			for i := range sb {
				if hb[i] != sb[i] {
					t.Fatalf("rate %s trial %d: bit %d differs", rate, trial, i)
				}
			}
		}
	}
}

// FuzzHardDecodeBypass: whenever the bypass accepts, it equals the full
// hard-decision decoder bit for bit and in metric. In codeword mode
// (mode bit 0 clear) the input is a punctured codeword of data with up
// to three flipped unerased values, so acceptance must also coincide
// with "no flips"; in raw mode the values come straight from data, so
// erasures fall anywhere.
func FuzzHardDecodeBypass(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1}, uint8(0), []byte{})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1}, uint8(2), []byte{3, 0, 17, 0})
	f.Add(make([]byte, 40), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, flips []byte) {
		if len(data) > 2000 {
			data = data[:2000]
		}
		if mode&1 == 1 {
			vals := make([]int8, len(data))
			for i, b := range data {
				vals[i] = int8(b%3) - 1
			}
			checkBypassAgainstACS(t, vals)
			return
		}
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		vals := hardVals(ConvEncode(bits), allRates[int(mode>>1)%len(allRates)])
		flipped := map[int]bool{}
		for i := 0; i+1 < len(flips) && len(flipped) < 3; i += 2 {
			p := (int(flips[i]) | int(flips[i+1])<<8) % len(vals)
			for vals[p] == 0 || flipped[p] {
				p = (p + 1) % len(vals)
			}
			vals[p] = -vals[p]
			flipped[p] = true
		}
		if _, _, accepted := checkBypassAgainstACS(t, vals); accepted != (len(flipped) == 0) {
			t.Fatalf("accepted=%v with %d flipped values", accepted, len(flipped))
		}
	})
}

// TestCRC32MatchesChecksumIEEE: over every ragged length from 0 to
// 1000 bits, the packed-on-the-fly CRC equals crc32.ChecksumIEEE over
// the MSB-first zero-padded packing, whatever the high bits of the
// input bytes hold.
func TestCRC32MatchesChecksumIEEE(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for n := 0; n <= 1000; n++ {
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(r.Intn(256))
		}
		packed := make([]byte, (n+7)/8)
		for i, b := range bits {
			if b&1 == 1 {
				packed[i/8] |= 0x80 >> (i % 8)
			}
		}
		if got, want := CRC32(bits), crc32.ChecksumIEEE(packed); got != want {
			t.Fatalf("%d bits: CRC %#08x, want %#08x", n, got, want)
		}
	}
}

func TestCRC32ZeroAllocs(t *testing.T) {
	bits := randBits(rand.New(rand.NewSource(16)), 987)
	if a := testing.AllocsPerRun(100, func() { CRC32(bits) }); a != 0 {
		t.Fatalf("%g allocs per CRC32, want 0", a)
	}
}

// BenchmarkDecodeHard compares the encoder-inverse bypass with the full
// recursion on one clean 768-step codeword (a 16-QAM, 8-symbol,
// rate-1/2 stream).
func BenchmarkDecodeHard(b *testing.B) {
	vals := hardVals(ConvEncode(randBits(rand.New(rand.NewSource(17)), 762)), Rate12)
	var w ViterbiWorkspace
	b.Run("bypass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.DecodeHardBypass(vals)
		}
	})
	b.Run("acs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.DecodeHardMetric(vals)
		}
	})
}
