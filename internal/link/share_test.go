package link

import (
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/kbest"
	"repro/internal/ofdm"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/units"
)

// shareDetectors covers every preparation a pool can share: the plain
// QR (Geosphere, ETH-SD, K-best and the adaptive scheduler), the
// ordered QR (Geosphere with column reordering) and the real embedding
// (RVD).
func shareDetectors(t *testing.T, cons *constellation.Constellation, snrdB float64) []struct {
	name string
	make func() core.Detector
} {
	t.Helper()
	return []struct {
		name string
		make func() core.Detector
	}{
		{"geosphere", func() core.Detector { return core.NewGeosphere(cons) }},
		{"geosphere-ordered", func() core.Detector {
			d := core.NewGeosphere(cons)
			d.EnableColumnReordering(true)
			return d
		}},
		{"ethsd", func() core.Detector { return core.NewETHSD(cons) }},
		{"rvd", func() core.Detector { return core.NewRVD(cons) }},
		{"kbest", func() core.Detector {
			d, err := kbest.NewKBest(cons, 4)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"adaptive", func() core.Detector {
			d, err := policy.NewDetector(cons, units.DB(snrdB), policy.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	}
}

// flatOutcome is what a frame of the flat-channel comparison must
// reproduce exactly, whichever way its subcarriers were prepared.
type flatOutcome struct {
	out   FrameOutcome
	sched [4]uint64 // SchedZF, SchedKBest, SchedSphere, GatePass
}

// TestFlatFramesShareOnePreparation runs flat Rayleigh frames — one
// matrix on all 48 data subcarriers — three ways: through a pool, with
// no pool, and through a pool with 48 distinct copies of the matrix.
// Results, detector statistics and the adaptive scheduler's counts
// must be identical, and each pooled frame must factorize once and
// copy that preparation to the 47 other subcarriers, whether they hold
// the same matrix or equal copies of it.
func TestFlatFramesShareOnePreparation(t *testing.T) {
	const frames, snr = 6, 24
	cons := constellation.QAM16
	cfg := RunConfig{Cons: cons, Rate: fec.Rate12, NumSymbols: 1, SNRdB: snr, Seed: 2015}
	for _, d := range shareDetectors(t, cons, snr) {
		t.Run(d.name, func(t *testing.T) {
			run := func(pooled, copies bool) []flatOutcome {
				var rec frameCapture
				c := cfg
				c.Recorder = &rec
				proc, err := NewProcessor(c)
				if err != nil {
					t.Fatal(err)
				}
				src, err := NewRayleighSource(rng.New(77), 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				det := d.make()
				var pool *core.PrepPool
				if pooled {
					pool = core.NewPrepPool(ofdm.NumData)
				}
				var got []flatOutcome
				for f := 0; f < frames; f++ {
					hs, err := src.Next()
					if err != nil {
						t.Fatal(err)
					}
					if copies {
						for i := range hs {
							hs[i] = hs[i].Clone()
						}
					}
					out := proc.Process(Work{Frame: int64(f), Channels: hs, Det: det, Pool: pool})
					if out.Err != nil {
						t.Fatal(out.Err)
					}
					fs := rec[len(rec)-1]
					if pooled && (fs.PrepMisses != 1 || fs.PrepShares != ofdm.NumData-1 || fs.PrepHits != 0 || fs.QRUpdates != 0) {
						t.Errorf("copies=%v frame %d: %d misses, %d shares, %d hits, %d QR updates; want 1, %d, 0, 0",
							copies, f, fs.PrepMisses, fs.PrepShares, fs.PrepHits, fs.QRUpdates, ofdm.NumData-1)
					}
					got = append(got, flatOutcome{out, [4]uint64{fs.SchedZF, fs.SchedKBest, fs.SchedSphere, fs.GatePass}})
				}
				return got
			}
			ref := run(false, false)
			for _, way := range []struct {
				name   string
				copies bool
			}{{"one matrix", false}, {"48 copies", true}} {
				if got := run(true, way.copies); !reflect.DeepEqual(got, ref) {
					t.Errorf("pooled, %s: frames differ from the unpooled run:\n  got  %+v\n  want %+v", way.name, got, ref)
				}
			}
		})
	}
}

// TestPrepProbesAddUpPerSweep checks the preparation counters a sweep
// reports: every data subcarrier is probed once per sweep, and each
// probe is exactly one of a hit, a miss, a QR update or a share. A
// static source with distinct per-subcarrier channels never shares;
// a flat one shares 47 subcarriers of every frame.
func TestPrepProbesAddUpPerSweep(t *testing.T) {
	cons := constellation.QAM16
	distinct := make([]*cmplxmat.Matrix, ofdm.NumData)
	src := rng.New(91)
	for i := range distinct {
		distinct[i] = channel.Rayleigh(src, 4, 2)
	}
	static, err := NewStaticSubcarrierSource(distinct)
	if err != nil {
		t.Fatal(err)
	}
	for _, incremental := range []bool{false, true} {
		for _, tc := range []struct {
			name       string
			source     ChannelSource
			wantShares uint64
		}{
			{"static", static, 0},
			{"flat", mustRayleigh(t, 92), ofdm.NumData - 1},
		} {
			var rec frameCapture
			proc, err := NewProcessor(RunConfig{Cons: cons, Rate: fec.Rate12, NumSymbols: 2, SNRdB: 20, Seed: 3, Recorder: &rec})
			if err != nil {
				t.Fatal(err)
			}
			pool := core.NewPrepPool(ofdm.NumData)
			pool.SetIncremental(incremental)
			det := core.NewGeosphere(cons)
			for f := int64(0); f < 4; f++ {
				hs, err := tc.source.Next()
				if err != nil {
					t.Fatal(err)
				}
				if out := proc.Process(Work{Frame: f, Channels: hs, Det: det, Pool: pool}); out.Err != nil {
					t.Fatal(out.Err)
				}
				fs := rec[len(rec)-1]
				if sum := fs.PrepHits + fs.PrepMisses + fs.QRUpdates + fs.PrepShares; sum != ofdm.NumData {
					t.Errorf("%s incremental=%v frame %d: %d hits + %d misses + %d QR updates + %d shares = %d, want %d",
						tc.name, incremental, f, fs.PrepHits, fs.PrepMisses, fs.QRUpdates, fs.PrepShares, sum, ofdm.NumData)
				}
				if fs.PrepShares != tc.wantShares {
					t.Errorf("%s incremental=%v frame %d: %d shares, want %d", tc.name, incremental, f, fs.PrepShares, tc.wantShares)
				}
			}
		}
	}
}
