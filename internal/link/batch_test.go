package link

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/phy"
	"repro/internal/rng"
)

// batchChannels builds one static per-subcarrier channel set, the
// "one user group" shape the serving layer batches over.
func batchChannels(seed int64, na, nc int) []*cmplxmat.Matrix {
	src := rng.New(seed)
	hs := make([]*cmplxmat.Matrix, ofdm.NumData)
	for i := range hs {
		hs[i] = channel.Rayleigh(src, na, nc)
	}
	return hs
}

// runFramesSingle is the reference: one persistent detector + pool,
// frames processed one at a time through Process.
func runFramesSingle(t *testing.T, cfg RunConfig, factory DetectorFactory, hs []*cmplxmat.Matrix, frames []int64) []FrameOutcome {
	t.Helper()
	proc, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := cfg.buildDetector(factory, proc.NoiseVar())
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPrepPool(ofdm.NumData)
	pool.SetIncremental(cfg.IncrementalPrep)
	outs := make([]FrameOutcome, 0, len(frames))
	for _, fi := range frames {
		outs = append(outs, proc.Process(Work{Frame: fi, Channels: hs, Det: det, Pool: pool}))
	}
	return outs
}

// runFramesBatched runs the same frames through ProcessBatch in
// batchSize-sized chunks over a fresh persistent detector + pool.
func runFramesBatched(t *testing.T, cfg RunConfig, factory DetectorFactory, hs []*cmplxmat.Matrix, frames []int64, batchSize int) []FrameOutcome {
	t.Helper()
	proc, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := cfg.buildDetector(factory, proc.NoiseVar())
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPrepPool(ofdm.NumData)
	pool.SetIncremental(cfg.IncrementalPrep)
	outs := make([]FrameOutcome, 0, len(frames))
	var scratch []FrameOutcome
	for at := 0; at < len(frames); at += batchSize {
		end := at + batchSize
		if end > len(frames) {
			end = len(frames)
		}
		scratch = proc.ProcessBatch(scratch, BatchWork{Frames: frames[at:end], Channels: hs, Det: det, Pool: pool})
		outs = append(outs, scratch...)
	}
	return outs
}

// TestProcessBatchEqualsProcess is the batching byte-identity
// conformance suite: for every detector family × constellation ×
// batch size, ProcessBatch's per-frame Res and Err must be
// byte-identical to processing each frame alone — batching may only
// change scheduling, attribution and latency, never a decision. Batch
// size 1 runs through the same sweep as every other size.
func TestProcessBatchEqualsProcess(t *testing.T) {
	conss := []*constellation.Constellation{constellation.QPSK, constellation.QAM16}
	batchSizes := []int{1, 2, 3, 7, 16}
	const frames = 16
	for _, d := range conformanceFactories {
		for _, cons := range conss {
			name := fmt.Sprintf("%s/%s", d.name, cons.Name())
			t.Run(name, func(t *testing.T) {
				cfg := RunConfig{
					Cons: cons, Rate: fec.Rate12,
					NumSymbols: 2, Frames: frames,
					SNRdB:        18, // low enough that some frames fail
					Seed:         int64(len(name)) * 257,
					SoftDecoding: d.soft,
				}
				hs := batchChannels(int64(len(name)), 4, 2)
				fis := make([]int64, frames)
				for i := range fis {
					fis[i] = int64(i)
				}
				ref := runFramesSingle(t, cfg, d.factory, hs, fis)
				for _, bs := range batchSizes {
					got := runFramesBatched(t, cfg, d.factory, hs, fis, bs)
					if len(got) != len(ref) {
						t.Fatalf("batch=%d returned %d outcomes, want %d", bs, len(got), len(ref))
					}
					for i := range ref {
						if (ref[i].Err == nil) != (got[i].Err == nil) {
							t.Fatalf("batch=%d frame %d error mismatch: single %v, batch %v", bs, i, ref[i].Err, got[i].Err)
						}
						if !reflect.DeepEqual(ref[i].Res, got[i].Res) {
							t.Fatalf("batch=%d frame %d diverged:\n  single: %+v\n  batch:  %+v", bs, i, ref[i].Res, got[i].Res)
						}
					}
				}
			})
		}
	}
}

// TestProcessBatchPerturbedModes pins that the per-frame-perturbation
// modes (SNR jitter, estimated CSI), which run every frame as its own
// batch of one on its own channels, still match processing each frame
// alone exactly.
func TestProcessBatchPerturbedModes(t *testing.T) {
	for _, mode := range []struct {
		name   string
		jitter float64
		estCSI bool
	}{{"jitter", 4, false}, {"estcsi", 0, true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := RunConfig{
				Cons: constellation.QAM16, Rate: fec.Rate12,
				NumSymbols: 2, Frames: 6,
				SNRdB: 20, Seed: 43,
				SNRJitterDB:  mode.jitter,
				EstimatedCSI: mode.estCSI,
			}
			hs := batchChannels(17, 4, 2)
			fis := []int64{0, 1, 2, 3, 4, 5}
			ref := runFramesSingle(t, cfg, GeoFactoryForTest, hs, fis)
			got := runFramesBatched(t, cfg, GeoFactoryForTest, hs, fis, 3)
			for i := range ref {
				if !reflect.DeepEqual(ref[i].Res, got[i].Res) {
					t.Fatalf("frame %d diverged:\n  single: %+v\n  batch:  %+v", i, ref[i].Res, got[i].Res)
				}
			}
		})
	}
}

// TestSourcePoolDeterminism pins the Processor's pooled substreams:
// one Processor fed frames in shuffled order, in mixed batch sizes, must
// give every frame the outcome a fresh Processor gives it alone. Between
// calls the test draws from every pooled Source, so a sweep that skipped
// a reseed — or an outcome that still read a pooled Source after its
// sweep — would diverge.
func TestSourcePoolDeterminism(t *testing.T) {
	for _, mode := range []struct {
		name   string
		jitter float64
		estCSI bool
	}{{"plain", 0, false}, {"jitter", 4, false}, {"estcsi", 0, true}, {"jitter+estcsi", 4, true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := RunConfig{
				Cons: constellation.QAM16, Rate: fec.Rate12,
				NumSymbols: 2, SNRdB: 17, Seed: 91,
				SNRJitterDB:  mode.jitter,
				EstimatedCSI: mode.estCSI,
			}
			hs := batchChannels(29, 4, 3)
			const frames = 16
			ref := make([]FrameOutcome, frames)
			for fi := range ref {
				ref[fi] = runFramesSingle(t, cfg, GeoFactoryForTest, hs, []int64{int64(fi)})[0]
			}

			order := make([]int64, frames)
			for i := range order {
				order[i] = int64(i)
			}
			shuffle := rng.New(3)
			for i := len(order) - 1; i > 0; i-- {
				j := shuffle.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			proc, err := NewProcessor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			det, err := cfg.buildDetector(GeoFactoryForTest, proc.NoiseVar())
			if err != nil {
				t.Fatal(err)
			}
			pool := core.NewPrepPool(ofdm.NumData)
			got := make([]FrameOutcome, frames)
			var outs []FrameOutcome
			sizes := []int{1, 4, 3}
			for at, call := 0, 0; at < frames; call++ {
				end := min(at+sizes[call%len(sizes)], frames)
				outs = proc.ProcessBatch(outs, BatchWork{Frames: order[at:end], Channels: hs, Det: det, Pool: pool})
				for k, o := range outs {
					got[order[at+k]] = o
				}
				for k, src := range proc.srcs {
					for d := 0; d <= k+call; d++ {
						src.Norm()
					}
				}
				at = end
			}
			if len(proc.srcs) > 4 {
				t.Errorf("source pool grew to %d, want at most the largest batch (4)", len(proc.srcs))
			}
			for fi := range ref {
				if (ref[fi].Err == nil) != (got[fi].Err == nil) {
					t.Fatalf("frame %d error mismatch: fresh %v, pooled %v", fi, ref[fi].Err, got[fi].Err)
				}
				if !reflect.DeepEqual(ref[fi].Res, got[fi].Res) {
					t.Fatalf("frame %d diverged:\n  fresh:  %+v\n  pooled: %+v", fi, ref[fi].Res, got[fi].Res)
				}
			}
		})
	}
}

// TestProcessBatchStatsAndSamples pins the attribution contract: the
// batch's detector-stats delta lands on the first outcome (so sums
// over a run stay exact), and the recorder sees one FrameSample per
// frame with the Batch field set.
func TestProcessBatchStatsAndSamples(t *testing.T) {
	rec := obs.NewStatsRecorder()
	cfg := RunConfig{
		Cons: constellation.QAM16, Rate: fec.Rate12,
		NumSymbols: 2, Frames: 4,
		SNRdB: 24, Seed: 91,
		Recorder: rec,
	}
	proc, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := cfg.buildDetector(GeoFactoryForTest, proc.NoiseVar())
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPrepPool(ofdm.NumData)
	hs := batchChannels(29, 4, 2)
	outs := proc.ProcessBatch(nil, BatchWork{Frames: []int64{0, 1, 2, 3}, Channels: hs, Det: det, Pool: pool})
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	var zero core.Stats
	if outs[0].Stats == zero {
		t.Error("batch stats delta missing from first outcome")
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Stats != zero {
			t.Errorf("outcome %d carries stats; batch attribution must fold into the first", i)
		}
	}
	snap := rec.Snapshot()
	if snap.Frames.Frames != 4 {
		t.Errorf("recorder saw %d frames, want 4", snap.Frames.Frames)
	}
	// One preparation per subcarrier for the whole batch, not one per
	// frame or per symbol: the cold pool misses exactly 48 times.
	probes := snap.Frames.PrepareHits + snap.Frames.PrepareMisses
	if snap.Frames.PrepareMisses != int64(ofdm.NumData) {
		t.Errorf("prepare misses = %d, want %d (one per subcarrier)", snap.Frames.PrepareMisses, ofdm.NumData)
	}
	if probes != int64(ofdm.NumData) {
		t.Errorf("prepare probes = %d, want %d (one per subcarrier per batch)", probes, ofdm.NumData)
	}

	// A frame processed alone is a batch of one: its 2 symbols share one
	// probe per subcarrier (48, all hits on the warm pool).
	var frames frameCapture
	cfg.Recorder = &frames
	proc, err = NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := proc.Process(Work{Frame: 4, Channels: hs, Det: det, Pool: pool}); out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(frames) != 1 {
		t.Fatalf("recorder saw %d frames, want 1", len(frames))
	}
	if fs := frames[0]; fs.PrepHits+fs.PrepMisses != ofdm.NumData || fs.Batch != 1 {
		t.Errorf("single frame: %d hits + %d misses, batch %d; want %d probes in a batch of 1",
			fs.PrepHits, fs.PrepMisses, fs.Batch, ofdm.NumData)
	}
}

// frameCapture keeps every FrameSample it is sent.
type frameCapture []obs.FrameSample

func (c *frameCapture) RecordFrame(s obs.FrameSample) { *c = append(*c, s) }
func (*frameCapture) RecordDetect(obs.DetectSample)   {}
func (*frameCapture) RecordDecode(obs.DecodeSample)   {}
func (*frameCapture) RecordPoint(obs.PointSample)     {}

// TestBadChannelsRejected pins that a missing or wrongly shaped
// subcarrier channel — in the channel the signal propagates through or
// in the one the detector is prepared on — is an error at every frame
// entry point, never a panic.
func TestBadChannelsRejected(t *testing.T) {
	const na, nc, bad = 4, 2, 17
	faults := []struct {
		name string
		h    *cmplxmat.Matrix
	}{{"nil", nil}, {"shape", cmplxmat.New(na, nc+1)}}
	broken := func(h *cmplxmat.Matrix) []*cmplxmat.Matrix {
		hs := batchChannels(5, na, nc)
		hs[bad] = h
		return hs
	}
	noPanic := func(t *testing.T, run func() error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panicked: %v", r)
			}
		}()
		if err := run(); err == nil {
			t.Fatal("bad channel accepted")
		}
	}
	pcfg := phy.Config{Cons: constellation.QPSK, Rate: fec.Rate12, NumSymbols: 2}
	encode := func(t *testing.T) (*phy.Link, *phy.Frame) {
		l, err := phy.NewLink(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := l.Encode(rng.New(1), nc)
		if err != nil {
			t.Fatal(err)
		}
		return l, f
	}
	for _, fault := range faults {
		t.Run("TransmitReceive/"+fault.name, func(t *testing.T) {
			l, f := encode(t)
			noPanic(t, func() error {
				_, err := l.TransmitReceive(rng.New(2), f, broken(fault.h), core.NewGeosphere(pcfg.Cons), 0.1)
				return err
			})
		})
		for _, set := range []string{"true", "det"} {
			t.Run("TransmitReceiveBatchCSI/"+set+"/"+fault.name, func(t *testing.T) {
				l, f := encode(t)
				hsTrue, hsDet := batchChannels(5, na, nc), batchChannels(6, na, nc)
				if set == "true" {
					hsTrue[bad] = fault.h
				} else {
					hsDet[bad] = fault.h
				}
				noPanic(t, func() error {
					_, err := l.TransmitReceiveBatchCSI([]*rng.Source{rng.New(2)}, []*phy.Frame{f}, hsTrue, hsDet, core.NewGeosphere(pcfg.Cons), 0.1)
					return err
				})
			})
		}
		for _, mode := range conformanceModes {
			for _, pooled := range []bool{false, true} {
				t.Run(fmt.Sprintf("Process/%s/pool=%v/%s", mode.name, pooled, fault.name), func(t *testing.T) {
					cfg := RunConfig{
						Cons: pcfg.Cons, Rate: pcfg.Rate, NumSymbols: pcfg.NumSymbols,
						SNRdB: 20, Seed: 3, SNRJitterDB: mode.jitter, EstimatedCSI: mode.estCSI,
					}
					proc, err := NewProcessor(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var pool *core.PrepPool
					if pooled {
						pool = core.NewPrepPool(ofdm.NumData)
					}
					noPanic(t, func() error {
						return proc.Process(Work{Frame: 1, Channels: broken(fault.h), Det: core.NewGeosphere(cfg.Cons), Pool: pool}).Err
					})
				})
			}
		}
	}
}

// processFixture is the allocation and benchmark fixture: a 4×4 64-QAM,
// 4-symbol Processor with a persistent Geosphere detector and a
// preparation pool on a static frequency-selective channel, warmed by
// one pass of its 4-frame batch.
func processFixture(tb testing.TB) (*Processor, BatchWork) {
	tb.Helper()
	cfg := RunConfig{Cons: constellation.QAM64, Rate: fec.Rate12, NumSymbols: 4, SNRdB: 30, Seed: 5}
	proc, err := NewProcessor(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w := BatchWork{
		Frames:   []int64{0, 1, 2, 3},
		Channels: batchChannels(3, 4, 4),
		Det:      core.NewGeosphere(cfg.Cons),
		Pool:     core.NewPrepPool(ofdm.NumData),
	}
	for _, o := range proc.ProcessBatch(nil, w) {
		if o.Err != nil {
			tb.Fatal(o.Err)
		}
	}
	return proc, w
}

// TestProcessAllocCeiling pins the warm allocation counts of the frame
// path: a single frame through Process, and a 4-frame ProcessBatch.
// What remains is per-frame state a caller keeps (the encoded Frame,
// the Result); the frames' substreams are the Processor's pooled
// Sources, reseeded in place, and the batch's own bookkeeping reuses
// Processor and Link scratch.
func TestProcessAllocCeiling(t *testing.T) {
	const singleMax, batchMax = 8, 32
	proc, w := processFixture(t)
	single := testing.AllocsPerRun(20, func() {
		proc.Process(Work{Frame: 9, Channels: w.Channels, Det: w.Det, Pool: w.Pool})
	})
	var outs []FrameOutcome
	batch := testing.AllocsPerRun(20, func() {
		outs = proc.ProcessBatch(outs, w)
	})
	if single > singleMax {
		t.Errorf("Process: %g allocs per frame, want <= %d", single, singleMax)
	}
	if batch > batchMax {
		t.Errorf("ProcessBatch of 4: %g allocs per batch, want <= %d", batch, batchMax)
	}
}

// BenchmarkProcess measures the frame path's per-frame cost on the
// processFixture workload: single is one frame per Process call, batch4
// one 4-frame ProcessBatch sweep, reported per frame. flat is the
// fading regime instead: 4×4 16-QAM, one symbol, a fresh flat Rayleigh
// channel every frame (one matrix on all 48 subcarriers, drawn inside
// the timed loop), through a Geosphere detector and a pool.
func BenchmarkProcess(b *testing.B) {
	b.Run("flat", func(b *testing.B) {
		cfg := RunConfig{Cons: constellation.QAM16, Rate: fec.Rate12, NumSymbols: 1, SNRdB: 24, Seed: 2015}
		proc, err := NewProcessor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		src, err := NewRayleighSource(rng.New(2015), 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		det, pool := core.NewGeosphere(cfg.Cons), core.NewPrepPool(ofdm.NumData)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hs, err := src.Next()
			if err != nil {
				b.Fatal(err)
			}
			if out := proc.Process(Work{Frame: int64(i), Channels: hs, Det: det, Pool: pool}); out.Err != nil {
				b.Fatal(out.Err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	})
	b.Run("single", func(b *testing.B) {
		proc, w := processFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if out := proc.Process(Work{Frame: int64(i), Channels: w.Channels, Det: w.Det, Pool: w.Pool}); out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	})
	b.Run("batch4", func(b *testing.B) {
		proc, w := processFixture(b)
		var outs []FrameOutcome
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			outs = proc.ProcessBatch(outs, w)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/frame")
	})
}
