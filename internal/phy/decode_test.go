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
// Link and through its ablated twin that always runs the full Viterbi
// recursion: every result and every decode sample must agree, apart
// from Bypassed. The SNR sweep makes sure both outcomes of the bypass
// occur, including streams the ACS corrects after the bypass rejected
// them.
func TestDecodeStreamBypassMatchesACS(t *testing.T) {
	var bypassed, fellBack, corrected int
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
			for i, snr := range []float64{40, 24, 18, 14, 10} {
				seed := int64(100*i) + int64(rate)
				frame, err := l.Encode(rng.New(seed), 2)
				if err != nil {
					t.Fatal(err)
				}
				hs := perSCChannels(rng.New(seed+1), 4, 2)
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
				if r.Bypassed {
					t.Fatal("ablated link reported a bypass")
				}
				if s.Bypassed {
					bypassed++
				} else {
					fellBack++
					if s.OK {
						corrected++
					}
				}
				s.Bypassed = false
				if s != r {
					t.Fatalf("%s rate %s sample %d: %+v, full recursion %+v", cons, rate, i, s, r)
				}
			}
		}
	}
	t.Logf("%d bypassed, %d fell back (%d of them corrected by the ACS)", bypassed, fellBack, corrected)
	if bypassed == 0 || fellBack == 0 || corrected == 0 {
		t.Fatal("SNR sweep did not exercise both bypass outcomes and an ACS correction")
	}
}

// decodeFixture builds a Link in the serving format (16-QAM, rate 1/2,
// 8 symbols, 2 streams over 4 antennas) holding one noiseless frame's
// detections. With oneError set, one detected point moves to its
// neighbour, a single coded-bit error the bypass rejects and the ACS
// corrects.
func decodeFixture(tb testing.TB, oneError bool) (*Link, *Frame, [][][]int) {
	tb.Helper()
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 8}
	l, err := NewLink(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	const na, nc = 4, 2
	src := rng.New(9)
	f, err := l.Encode(src, nc)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := l.TransmitReceive(src, f, perSCChannels(src, na, nc), core.NewGeosphere(cfg.Cons), 0); err != nil {
		tb.Fatal(err)
	}
	detIdx, _, _ := l.sizeReceive(cfg.NumSymbols, nc, na, false)
	if oneError {
		detIdx[3][17][0] ^= 1
	}
	return l, f, detIdx
}

// TestDecodeStreamZeroAllocs pins the fused decode stage's allocation
// contract on both bypass outcomes: after the first frame sizes the
// Viterbi workspace, decoding a stream allocates nothing.
func TestDecodeStreamZeroAllocs(t *testing.T) {
	for _, oneError := range []bool{false, true} {
		l, f, detIdx := decodeFixture(t, oneError)
		var ds obs.DecodeSample
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if ds, err = l.decodeStream(f, detIdx, 0, 0x5d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("oneError=%v: %g allocs per stream decode, want 0", oneError, allocs)
		}
		if !ds.OK || ds.Bypassed == oneError {
			t.Errorf("oneError=%v: decode sample %+v", oneError, ds)
		}
	}
}

// BenchmarkDecodeStream times one stream's hard-decision decode stage
// in the serving format: "clean" takes the encoder-inverse bypass,
// "one-error" pays the rejected walk plus the full recursion, and the
// "-acs" variants force the full recursion (the ablation).
func BenchmarkDecodeStream(b *testing.B) {
	for _, bc := range []struct {
		name               string
		oneError, forceACS bool
	}{
		{"clean", false, false},
		{"one-error", true, false},
		{"clean-acs", false, true},
		{"one-error-acs", true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			l, f, detIdx := decodeFixture(b, bc.oneError)
			l.forceACS = bc.forceACS
			// One untimed decode sizes the recursion's workspace, so even
			// -benchtime=1x reports the steady-state allocation count.
			if _, err := l.decodeStream(f, detIdx, 0, 0x5d); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.decodeStream(f, detIdx, 0, 0x5d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
