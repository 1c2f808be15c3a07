package phy

import (
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/linear"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/rng"
)

// decodeCapture records every DecodeSample in order.
type decodeCapture struct{ samples []obs.DecodeSample }

func (c *decodeCapture) RecordDetect(obs.DetectSample)   {}
func (c *decodeCapture) RecordDecode(s obs.DecodeSample) { c.samples = append(c.samples, s) }
func (c *decodeCapture) RecordFrame(obs.FrameSample)     {}
func (c *decodeCapture) RecordPoint(obs.PointSample)     {}

// stagewiseHard is the unfused reference front end the hardStage
// tables replace: demap each detected point, deinterleave each OFDM
// symbol's block, map bits to ±1, then depuncture over the mother code.
func stagewiseHard(t *testing.T, l *Link, detIdx [][][]int, k int) []int8 {
	t.Helper()
	cfg := l.cfg
	bitbuf := make([]byte, l.nbps)
	block := make([]byte, cfg.BitsPerSymbol())
	var coded []float64
	for sym := 0; sym < cfg.NumSymbols; sym++ {
		for s := 0; s < ofdm.NumData; s++ {
			col, row := cfg.Cons.Coords(detIdx[sym][s][k])
			cfg.Cons.SymbolBits(bitbuf, col, row)
			copy(block[s*l.nbps:], bitbuf)
		}
		deint, err := l.il.Deinterleave(nil, block)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range deint {
			coded = append(coded, float64(2*int(b)-1))
		}
	}
	motherLen := 2 * (cfg.InfoBits() + fec.ConstraintLength - 1)
	mother := fec.Depuncture(coded, cfg.Rate, motherLen)
	vals := make([]int8, len(mother))
	for i, v := range mother {
		vals[i] = int8(v)
	}
	return vals
}

// TestHardValuesMatchStagewise: for every constellation, rate and
// stream, the fused table pass produces exactly the mother-code values
// of the stage-by-stage reference, over random detector decisions and
// repeated calls on one Link (punctured slots must stay erased).
func TestHardValuesMatchStagewise(t *testing.T) {
	src := rng.New(21)
	for _, cons := range []*constellation.Constellation{constellation.QPSK, constellation.QAM16, constellation.QAM64, constellation.QAM256} {
		for _, rate := range []fec.Rate{fec.Rate12, fec.Rate23, fec.Rate34} {
			cfg := Config{Cons: cons, Rate: rate, NumSymbols: 3}
			l, err := NewLink(cfg)
			if err != nil {
				t.Fatalf("%s rate %s: %v", cons, rate, err)
			}
			const nc = 3
			detIdx, _, _ := l.sizeReceive(cfg.NumSymbols, nc, nc, false)
			for trial := 0; trial < 3; trial++ {
				for _, row := range detIdx {
					for _, pts := range row {
						for k := range pts {
							pts[k] = int(src.Int63() % int64(cons.Size()))
						}
					}
				}
				for k := 0; k < nc; k++ {
					want := stagewiseHard(t, l, detIdx, k)
					got := l.hardValues(detIdx, k)
					if len(got) != len(want) {
						t.Fatalf("%s rate %s: %d mother values, want %d", cons, rate, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s rate %s stream %d: mother value %d = %d, want %d", cons, rate, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestDecodeStreamBypassMatchesACS runs identical frames through a
// Link and through its ablated twin that runs the one-codeword Viterbi
// recursion on every stream: every result and every decode sample must
// agree, in value and stream order, apart from Bypassed and ACSLanes.
// The sweep covers 2-stream frames and 4-stream (4×4) frames, whose
// SNR range yields every count of bypass-rejected streams from 0 to 4,
// so the lane-parallel recursion runs on groups of 2, 3 and 4 and the
// one-codeword recursion on lone streams, including streams it
// corrects after the bypass rejected them.
func TestDecodeStreamBypassMatchesACS(t *testing.T) {
	if fec.MaxLanes > obs.MaxACSLanes {
		t.Fatalf("fec.MaxLanes = %d exceeds obs.MaxACSLanes = %d", fec.MaxLanes, obs.MaxACSLanes)
	}
	var bypassed, fellBack, corrected, multiLane int
	var rejectedFrames [5]int // 4-stream frames by bypass-rejected streams
	for _, nc := range []int{2, 4} {
		for _, cons := range []*constellation.Constellation{constellation.QPSK, constellation.QAM16, constellation.QAM64} {
			for _, rate := range []fec.Rate{fec.Rate12, fec.Rate23, fec.Rate34} {
				var fast, full decodeCapture
				cfg := Config{Cons: cons, Rate: rate, NumSymbols: 2, Recorder: &fast}
				l, err := NewLink(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Recorder = &full
				ref, err := NewLink(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref.forceACS = true
				det := linear.NewZF(cons)
				for i, snr := range []float64{40, 30, 24, 21, 18, 14, 10} {
					seed := int64(100*i) + int64(rate) + int64(10*nc)
					frame, err := l.Encode(rng.New(seed), nc)
					if err != nil {
						t.Fatal(err)
					}
					hs := perSCChannels(rng.New(seed+1), 4, nc)
					noise := channel.NoiseVarForSNRdB(snr)
					a, err := l.TransmitReceive(rng.New(seed+2), frame, hs, det, noise)
					if err != nil {
						t.Fatal(err)
					}
					b, err := ref.TransmitReceive(rng.New(seed+2), frame, hs, det, noise)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("%s rate %s %g dB: results differ: %+v vs %+v", cons, rate, snr, a, b)
					}
				}
				if len(fast.samples) != len(full.samples) {
					t.Fatalf("%d vs %d decode samples", len(fast.samples), len(full.samples))
				}
				for i, s := range fast.samples {
					r := full.samples[i]
					if r.Bypassed || r.ACSLanes != 1 {
						t.Fatalf("ablated link sample %+v, want the one-codeword recursion", r)
					}
					frame := fast.samples[i-i%nc : i-i%nc+nc]
					rejected := 0
					for _, fs := range frame {
						if !fs.Bypassed {
							rejected++
						}
					}
					if s.Stream == 0 && nc == 4 {
						rejectedFrames[rejected]++
					}
					if s.Bypassed {
						bypassed++
						if s.ACSLanes != 0 {
							t.Fatalf("bypassed sample %+v reports ACS lanes", s)
						}
					} else {
						fellBack++
						if s.OK {
							corrected++
						}
						// Up to fec.MaxLanes rejected streams share one pass.
						if s.ACSLanes != rejected {
							t.Fatalf("%s rate %s sample %d: %d ACS lanes in a frame with %d rejected streams", cons, rate, i, s.ACSLanes, rejected)
						}
						if s.ACSLanes > 1 {
							multiLane++
						}
					}
					s.Bypassed, s.ACSLanes = false, 1
					if s != r {
						t.Fatalf("%s rate %s sample %d: %+v, full recursion %+v", cons, rate, i, s, r)
					}
				}
			}
		}
	}
	t.Logf("%d bypassed, %d fell back (%d of them corrected by the ACS, %d in multi-lane passes); 4-stream frames by rejected streams: %v",
		bypassed, fellBack, corrected, multiLane, rejectedFrames)
	if bypassed == 0 || fellBack == 0 || corrected == 0 || multiLane == 0 {
		t.Fatal("SNR sweep did not exercise both bypass outcomes, an ACS correction and a multi-lane pass")
	}
	for r, n := range rejectedFrames {
		if n == 0 {
			t.Errorf("no 4-stream frame with %d rejected streams", r)
		}
	}
}

// decodeFixture builds a Link in the 4×4 16-QAM serving format (rate
// 1/2, 8 symbols) holding one noiseless frame's detections. In the
// first errs streams one detected point moves to its neighbour: a
// single coded-bit error the bypass rejects and the ACS corrects.
func decodeFixture(tb testing.TB, errs int) (*Link, *Frame, [][][]int, *Result) {
	tb.Helper()
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 8}
	l, err := NewLink(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	const na, nc = 4, 4
	src := rng.New(9)
	f, err := l.Encode(src, nc)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := l.TransmitReceive(src, f, perSCChannels(src, na, nc), core.NewGeosphere(cfg.Cons), 0); err != nil {
		tb.Fatal(err)
	}
	detIdx, _, _ := l.sizeReceive(cfg.NumSymbols, nc, na, false)
	for k := 0; k < errs; k++ {
		detIdx[3][17][k] ^= 1
	}
	return l, f, detIdx, &Result{StreamOK: make([]bool, nc)}
}

// TestDecodeFrameZeroAllocs pins the hard decode stage's allocation
// contract on a clean frame (every stream bypassed), a frame with one
// error-carrying stream (the one-codeword recursion) and one where
// every stream carries an error (one four-lane pass): after the first
// frame sizes the buffers, decoding a frame allocates nothing.
func TestDecodeFrameZeroAllocs(t *testing.T) {
	for _, errs := range []int{0, 1, 4} {
		l, f, detIdx, res := decodeFixture(t, errs)
		var rec decodeCapture
		l.cfg.Recorder = &rec
		if err := l.decodeFrame(f, detIdx, nil, false, res); err != nil {
			t.Fatal(err)
		}
		for k, s := range rec.samples {
			wantLanes := 0
			if k < errs {
				wantLanes = errs
			}
			if !s.OK || s.Bypassed != (k >= errs) || s.ACSLanes != wantLanes {
				t.Errorf("%d errors: stream %d sample %+v", errs, k, s)
			}
		}
		l.cfg.Recorder = nil
		allocs := testing.AllocsPerRun(20, func() {
			if err := l.decodeFrame(f, detIdx, nil, false, res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%d errors: %g allocs per frame decode, want 0", errs, allocs)
		}
	}
}

// BenchmarkDecodeFrame times one 4×4 frame's hard-decision decode
// stage in the serving format: "clean" bypasses every stream,
// "all-errors" decodes all four streams in one lane-parallel pass, and
// "all-errors-acs" forces the one-codeword recursion per stream (the
// ablation).
func BenchmarkDecodeFrame(b *testing.B) {
	for _, bc := range []struct {
		name     string
		errs     int
		forceACS bool
	}{
		{"clean", 0, false},
		{"all-errors", 4, false},
		{"all-errors-acs", 4, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			l, f, detIdx, res := decodeFixture(b, bc.errs)
			l.forceACS = bc.forceACS
			// One untimed decode sizes the buffers, so even
			// -benchtime=1x reports the steady-state allocation count.
			if err := l.decodeFrame(f, detIdx, nil, false, res); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.decodeFrame(f, detIdx, nil, false, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
