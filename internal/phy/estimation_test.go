package phy

import (
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/rng"
)

func TestEstimateChannelsNoiseless(t *testing.T) {
	src := rng.New(51)
	hs := perSCChannels(src, 4, 2)
	est, err := EstimateChannels(src, hs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := range hs {
		for i := range hs[s].Data {
			if hs[s].Data[i] != est[s].Data[i] { //geolint:float-ok test asserts exact bitwise reproducibility
				t.Fatalf("noiseless estimate differs at subcarrier %d entry %d", s, i)
			}
		}
	}
}

func TestEstimateChannelsErrorShrinksWithReps(t *testing.T) {
	src := rng.New(52)
	hs := perSCChannels(src, 4, 2)
	nv := channel.NoiseVarForSNRdB(10)
	mse := func(reps int) float64 {
		est, err := EstimateChannels(rng.New(99), hs, nv, reps)
		if err != nil {
			t.Fatal(err)
		}
		var e float64
		var n int
		for s := range hs {
			for i := range hs[s].Data {
				d := cmplx.Abs(hs[s].Data[i] - est[s].Data[i])
				e += d * d
				n++
			}
		}
		return e / float64(n)
	}
	m1 := mse(1)
	m8 := mse(8)
	t.Logf("estimation MSE at 10 dB: reps=1 %.4f, reps=8 %.4f", m1, m8)
	if m8 > m1/3 {
		t.Fatalf("averaging 8 preambles should cut MSE ~8×: %g vs %g", m1, m8)
	}
}

func TestEstimateChannelsValidation(t *testing.T) {
	src := rng.New(53)
	if _, err := EstimateChannels(src, nil, 0, 1); err == nil {
		t.Fatal("empty channel list accepted")
	}
	hs := perSCChannels(src, 4, 2)
	if _, err := EstimateChannels(src, hs, 0, 0); err == nil {
		t.Fatal("zero repetitions accepted")
	}
}

func TestTrainingSymbols(t *testing.T) {
	if TrainingSymbols(4, 2) != 8 {
		t.Fatalf("training symbols = %d", TrainingSymbols(4, 2))
	}
}

// TestEstimatedCSIFrame: with estimated CSI the frame still decodes at
// comfortable SNR, and with genie CSI both paths agree exactly when
// the estimate is noise-free.
func TestEstimatedCSIFrame(t *testing.T) {
	cfg := Config{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 4}
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(54)
	f, err := link.Encode(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	hs := perSCChannels(src, 4, 2)
	nv := channel.NoiseVarForSNRdB(25)
	est, err := EstimateChannels(src, hs, nv, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewGeosphere(cfg.Cons)
	res, err := link.TransmitReceiveBatchCSI([]*rng.Source{src}, []*Frame{f}, hs, est, det, nv)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].FrameOK() {
		t.Fatalf("estimated-CSI frame at 25 dB failed: %+v", res[0])
	}
	// Mismatched shapes must be rejected.
	if _, err := link.TransmitReceiveBatchCSI([]*rng.Source{src}, []*Frame{f}, hs, perSCChannels(src, 4, 3), det, nv); err == nil {
		t.Fatal("CSI shape mismatch accepted")
	}
}
