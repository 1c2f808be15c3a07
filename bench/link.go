package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/link"
	"repro/internal/ofdm"
	"repro/internal/phy"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/units"
)

// Substream indices under -seed; each input draws from its own.
const (
	streamTrace = iota + 1
	streamFading
	streamKappa
	streamGroups
	streamClients
)

// replayEvery is the output checks' sampling stride: every 50th frame of
// a window is replayed through a reference.
const replayEvery = 50

// linkWorkload is one link-layer workload: a frame format, a channel
// source built from the seed, the detector under test and the exact
// reference its outputs are checked against.
type linkWorkload struct {
	name    string
	why     string
	cons    *constellation.Constellation
	na, nc  int
	symbols int
	snrDB   float64
	// frames is the window length run when -seconds is not given;
	// refFPS is the rate the window runs at on the reference machine
	// (two shared Xeon cores), which turns -seconds into a frame count.
	// A fixed count keeps every counter of a run a pure function of the
	// seed.
	frames   int
	refFPS   float64
	adaptive bool
	source   func(seed int64) (link.ChannelSource, error)
}

var linkWorkloads = []linkWorkload{
	{
		name:    "link-trace-64qam",
		why:     "paper's headline regime: 4x4 64-QAM on a static trace, sphere search and Viterbi dominate, every prepare is a cache hit",
		cons:    constellation.QAM64,
		na:      4,
		nc:      4,
		symbols: 4, snrDB: 18,
		frames: 8000, refFPS: 1100,
		source: func(seed int64) (link.ChannelSource, error) {
			return rayleighTrace(rng.Substream(seed, streamTrace))
		},
	},
	{
		name:    "link-fading-16qam",
		why:     "fresh Rayleigh channel every frame: all 48 prepares miss, so QR and the cache fingerprint show and cache hits must not",
		cons:    constellation.QAM16,
		na:      4,
		nc:      4,
		symbols: 1, snrDB: 24,
		frames: 60000, refFPS: 5500,
		source: func(seed int64) (link.ChannelSource, error) {
			return link.NewRayleighSource(rng.Substream(seed, streamFading), 4, 4)
		},
	},
	{
		name:    "link-kappa-adaptive",
		why:     "kappa^2 0-55 dB ramp through the adaptive ZF/K-best/sphere scheduler: the only workload running policy, kbest and linear",
		cons:    constellation.QAM16,
		na:      4,
		nc:      4,
		symbols: 2, snrDB: 24,
		frames: 16000, refFPS: 1700,
		adaptive: true,
		source: func(seed int64) (link.ChannelSource, error) {
			return kappaRamp(rng.Substream(seed, streamKappa))
		},
	},
}

// Both static traces are recorded as traceSegments channel sets, each
// replayed for traceDwell consecutive frames before the next, cycling.
// A frame's cost is set by its segment, so the window's p99 is the cost
// of its hardest segments: with 32 segments that swung 2.5× from seed to
// seed, with 512 it stays within 10%. The cache still hits on 3 frames
// of 4.
const (
	traceSegments = 512
	traceDwell    = 4
)

// segmentTrace is a recorded trace of static segments: each segment
// holds one channel per data subcarrier and is replayed for dwell
// frames before the next; the segments cycle.
type segmentTrace struct {
	segs  [][]*cmplxmat.Matrix
	dwell int
	n     int
}

// newSegmentTrace draws traceSegments segments with draw, which returns
// the channel of data subcarrier s.
func newSegmentTrace(draw func(s int) (*cmplxmat.Matrix, error)) (*segmentTrace, error) {
	t := &segmentTrace{segs: make([][]*cmplxmat.Matrix, traceSegments), dwell: traceDwell}
	for k := range t.segs {
		hs := make([]*cmplxmat.Matrix, ofdm.NumData)
		for s := range hs {
			h, err := draw(s)
			if err != nil {
				return nil, err
			}
			hs[s] = h
		}
		t.segs[k] = hs
	}
	return t, nil
}

func (t *segmentTrace) Next() ([]*cmplxmat.Matrix, error) {
	hs := t.segs[(t.n/t.dwell)%len(t.segs)]
	t.n++
	return hs, nil
}

func (t *segmentTrace) Shape() (int, int) { return t.segs[0][0].Rows, t.segs[0][0].Cols }

// rayleighTrace is a static frequency-selective trace: an independent
// 4×4 Rayleigh matrix per data subcarrier.
func rayleighTrace(src *rng.Source) (link.ChannelSource, error) {
	return newSegmentTrace(func(int) (*cmplxmat.Matrix, error) { return channel.Rayleigh(src, 4, 4), nil })
}

// kappaRampMaxDB tops the κ² ramp, as in cmd/geobench: well-conditioned
// subcarriers through the explosion-prone tail past the K-best cut.
const kappaRampMaxDB = 55

// kappaRamp is a static 4×4 trace whose squared condition number ramps
// linearly from 0 dB to kappaRampMaxDB across the band.
func kappaRamp(src *rng.Source) (link.ChannelSource, error) {
	return newSegmentTrace(func(s int) (*cmplxmat.Matrix, error) {
		k2 := units.DB(kappaRampMaxDB * float64(s) / float64(ofdm.NumData-1))
		return channel.Conditioned(src, 4, 4, k2)
	})
}

// config is the workload's pipeline configuration under seed.
func (w linkWorkload) config(seed int64) link.RunConfig {
	return link.RunConfig{
		Cons: w.cons, Rate: fec.Rate12, NumSymbols: w.symbols,
		SNRdB: w.snrDB, Seed: seed, AdaptiveDetect: w.adaptive,
	}
}

// detector builds the detector under test.
func (w linkWorkload) detector() (core.Detector, error) {
	if w.adaptive {
		return policy.NewDetector(w.cons, units.DB(w.snrDB), policy.Config{})
	}
	return core.NewGeosphere(w.cons), nil
}

// reference builds the exact detector the output check replays with:
// ETH-SD, a second exact search, for Geosphere; exact Geosphere for the
// adaptive scheduler, whose K-best tier may lose a little.
func (w linkWorkload) reference() core.Detector {
	if w.adaptive {
		return core.NewGeosphere(w.cons)
	}
	return core.NewETHSD(w.cons)
}

// linkPipeline is one built instance of a link workload: the inputs,
// the pipeline and the next frame index.
type linkPipeline struct {
	src  link.ChannelSource
	proc *link.Processor
	det  core.Detector
	pool *core.PrepPool
	next int64
}

// build generates the inputs, constructs the pipeline and runs its
// first frame — everything setup_s counts.
func (w linkWorkload) build(seed int64) (*linkPipeline, error) {
	src, err := w.source(seed)
	if err != nil {
		return nil, err
	}
	proc, err := link.NewProcessor(w.config(seed))
	if err != nil {
		return nil, err
	}
	det, err := w.detector()
	if err != nil {
		return nil, err
	}
	p := &linkPipeline{src: src, proc: proc, det: det, pool: core.NewPrepPool(ofdm.NumData)}
	if _, err := p.frame(p.det); err != nil {
		return nil, err
	}
	return p, nil
}

// frame runs the next frame through the pipeline with det.
func (p *linkPipeline) frame(det core.Detector) (replayFrame, error) {
	hs, err := p.src.Next()
	if err != nil {
		return replayFrame{}, err
	}
	fi := p.next
	p.next++
	out := p.proc.Process(link.Work{Frame: fi, Channels: hs, Det: det, Pool: p.pool})
	if out.Err != nil {
		return replayFrame{}, fmt.Errorf("frame %d: %w", fi, out.Err)
	}
	return replayFrame{frame: fi, hs: hs, res: out.Res}, nil
}

// replayFrame is one frame's inputs and outcome, kept for the output
// check.
type replayFrame struct {
	frame int64
	hs    []*cmplxmat.Matrix
	res   *phy.Result
}

// linkWindow is one timed window's measurements.
type linkWindow struct {
	frames, failed, frameErrs int
	elapsed                   time.Duration
	chunkSecs                 []float64 // wall time of each chunk (see chunkBounds)
	durations                 []float64 // Process call, µs
	replays                   []replayFrame
	heapMiB                   float64
	heapSamples               int
	alloc                     allocCounters

	// Traced windows only.
	prof                             *callProfile
	processUs, selfUs, prepUs, detUs float64 // window sums
	sourceUs                         float64
	statsBefore, statsAfter          core.Stats
	schedBefore, schedAfter          policy.Counters
	hasSched                         bool
}

// window runs n frames. With a tracer, the detector and the channel
// source are wrapped by the timing decorators and every frame leaves a
// root span, a channel.source span and a link.Process span with one
// aggregated core.prepare and core.detect child.
func (p *linkPipeline) window(n int, tr *tracer) (*linkWindow, error) {
	win := &linkWindow{durations: make([]float64, 0, n)}
	bounds := chunkBounds(n)
	det, src := p.det, p.src
	var tsrc *timedSource
	if tr != nil {
		win.prof = &callProfile{}
		det = wrapDetector(p.det, win.prof)
		tsrc = &timedSource{inner: p.src}
		src = tsrc
		win.statsBefore, _ = core.StatsOf(p.det)
		if s, ok := p.det.(scheduler); ok {
			win.hasSched, win.schedBefore = true, s.Sched()
		}
	}
	runtime.GC()
	allocStart := readAllocCounters()
	heap := startHeapSampler()
	start := time.Now()
	chunkStart, next := start, 1
	for i := 0; i < n; i++ {
		if i == bounds[next] {
			now := time.Now()
			win.chunkSecs = append(win.chunkSecs, now.Sub(chunkStart).Seconds())
			chunkStart, next = now, next+1
		}
		var fStart time.Time
		if tr != nil {
			win.prof.beginFrame()
			fStart = time.Now()
		}
		hs, err := src.Next()
		if err != nil {
			return nil, err
		}
		fi := p.next
		p.next++
		t0 := time.Now()
		out := p.proc.Process(link.Work{Frame: fi, Channels: hs, Det: det, Pool: p.pool})
		t1 := time.Now()
		d := t1.Sub(t0)
		win.durations = append(win.durations, float64(d)/1e3)
		win.frames++
		if out.Err != nil {
			win.failed++
			continue
		}
		if !out.Res.FrameOK() {
			win.frameErrs++
		}
		if i%replayEvery == 0 {
			win.replays = append(win.replays, replayFrame{frame: fi, hs: hs, res: out.Res})
		}
		if tr != nil {
			pr := win.prof
			root := tr.add("frame", fStart, t1, -1, fi, 1)
			tr.addDur("channel.source", tsrc.start, tsrc.last, root, fi, 1)
			ps := tr.add("link.Process", t0, t1, root, fi, 1)
			if pr.prepCalls > 0 {
				tr.addDur("core.prepare", pr.prepFirst, pr.prepSum, ps, fi, 1)
			}
			if pr.detCalls > 0 {
				tr.addDur("core.detect", pr.detFirst, pr.detSum, ps, fi, 1)
			}
			win.processUs += float64(d) / 1e3
			win.prepUs += float64(pr.prepSum) / 1e3
			win.detUs += float64(pr.detSum) / 1e3
			win.selfUs += float64(d-pr.prepSum-pr.detSum) / 1e3
			win.sourceUs += float64(tsrc.last) / 1e3
		}
	}
	win.elapsed = time.Since(start)
	win.chunkSecs = append(win.chunkSecs, time.Since(chunkStart).Seconds())
	win.heapMiB, win.heapSamples = heap.finish()
	win.alloc = readAllocCounters().sub(allocStart)
	if tr != nil {
		win.statsAfter, _ = core.StatsOf(p.det)
		if win.hasSched {
			win.schedAfter = p.det.(scheduler).Sched()
		}
	}
	return win, nil
}

// runOpts sizes one run.
type runOpts struct {
	seconds     float64 // window length; 0 = the workload's reference length
	warmSeconds float64 // untimed warm-up before the window
	setupReps   int     // set-ups whose median is setup_s
	traced      bool
	traceDir    string // where span files go; "" keeps them in memory
}

// framesFor converts a duration at the reference rate into frames.
func framesFor(seconds, refFPS float64) int {
	n := int(math.Round(seconds * refFPS))
	if n < 1 {
		n = 1
	}
	return n
}

// run executes the workload: set-up (repeated, median), warm-up, the
// untraced window, the traced window and the probes when traced, and
// the output checks.
func (w linkWorkload) run(seed int64, o runOpts) (*result, error) {
	r := newResult(w.name, seed)
	r.Traced = o.traced
	var p *linkPipeline
	setups := make([]float64, 0, o.setupReps)
	for i := 0; i < o.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		q, err := w.build(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		p = q
	}
	for i, n := 0, framesFor(o.warmSeconds, w.refFPS); i < n; i++ {
		if _, err := p.frame(p.det); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}
	n := w.frames
	if o.seconds > 0 {
		n = framesFor(o.seconds, w.refFPS)
	}
	win, err := p.window(n, nil)
	if err != nil {
		return nil, fmt.Errorf("%s window: %w", w.name, err)
	}
	r.Attempted, r.Failed = win.frames, win.failed
	w.reportEndToEnd(r, setups, win)
	w.check(r, seed, win.replays, "window")
	if o.traced {
		tr := newTracer()
		twin, err := p.window(n, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced window: %w", w.name, err)
		}
		w.check(r, seed, twin.replays, "traced window")
		w.reportLayers(r, seed, win, twin)
		if o.traceDir != "" {
			path, err := tr.write(o.traceDir, w.name)
			if err != nil {
				return nil, err
			}
			r.Extra = append(r.Extra, "spans written to "+path)
		}
	}
	return r, nil
}

// reportEndToEnd fills the gated set and its per-workload aliases.
func (w linkWorkload) reportEndToEnd(r *result, setups []float64, win *linkWindow) {
	done := win.frames - win.failed
	bounds := chunkBounds(len(win.durations))
	rates := make([]float64, len(win.chunkSecs))
	for k, secs := range win.chunkSecs {
		rates[k] = float64(bounds[k+1]-bounds[k]) / secs
	}
	p50s, _ := chunkPercentiles(win.durations, bounds)
	sorted := sortedCopy(win.durations)
	// The p99 is taken over the whole window: a chunk holds a different
	// sample of the trace's segments, and the tail is set by the hardest.
	p99 := nearestRank(sorted, 0.99)
	r.set("setup_s", median(setups), len(setups))
	r.set("frames_per_s", upperQuartile(rates), win.frames)
	r.set("latency_p50_ms", lowerQuartile(p50s)/1e3, len(sorted))
	r.set("latency_p99_ms", p99/1e3, len(sorted))
	r.set("heap_peak_mib", win.heapMiB, win.heapSamples)
	r.set("frame_p50_us", nearestRank(sorted, 0.5), len(sorted))
	r.set("frame_p99_us", p99, len(sorted))
	r.set("fer", ratio(float64(win.frameErrs), float64(done)), done)
	r.set("failed_frac", ratio(float64(win.failed), float64(win.frames)), win.frames)
	if p, beyond, ok := tailPercentile(len(sorted)); ok {
		r.Extra = append(r.Extra, fmt.Sprintf("frame_p%g_us = %.1f us (%d samples beyond, n=%d)",
			p, nearestRank(sorted, p/100), beyond, len(sorted)))
	}
}

// reportLayers fills the per-layer set from the traced window twin and
// the untraced window win (allocation and GC counts, which the span
// store itself would inflate), plus the isolated probes.
func (w linkWorkload) reportLayers(r *result, seed int64, win, twin *linkWindow) {
	f := float64(twin.frames)
	pr := twin.prof
	st := twin.statsAfter.Sub(twin.statsBefore)
	dets := float64(st.Detections)
	r.set("core.detect_us_per_frame", twin.detUs/f, twin.frames)
	r.set("core.detect_ns_p50", pr.detectHist.quantile(0.5), int(pr.detects))
	r.set("core.detect_ns_p99", pr.detectHist.quantile(0.99), int(pr.detects))
	r.set("core.ped_per_detect", ratio(float64(st.PEDCalcs), dets), int(st.Detections))
	r.set("core.nodes_per_detect", ratio(float64(st.VisitedNodes), dets), int(st.Detections))
	r.set("core.bound_checks_per_detect", ratio(float64(st.BoundChecks), dets), int(st.Detections))
	r.set("core.proj_reuse_per_detect", ratio(float64(st.ProjReuse), dets), int(st.Detections))
	preps := pr.prepHits + pr.prepMisses
	r.set("core.prepare_us_per_frame", twin.prepUs/f, twin.frames)
	r.set("core.prepare_calls_per_frame", float64(preps)/f, twin.frames)
	r.set("core.prepare_hit_ratio", ratio(float64(pr.prepHits), float64(preps)), int(preps))
	r.set("core.prepare_hit_ns", ratio(float64(pr.prepHitNs), float64(pr.prepHits)), int(pr.prepHits))
	r.set("core.prepare_miss_ns", ratio(float64(pr.prepMissNs), float64(pr.prepMisses)), int(pr.prepMisses))

	sc := twin.schedAfter.Sub(twin.schedBefore)
	resolved := float64(sc.GatePass + sc.KBestFallbacks + sc.SphereFallbacks)
	scheduled := float64(sc.SchedZF + sc.SchedKBest + sc.SchedSphere)
	r.set("policy.gate_pass_ratio", ratio(float64(sc.GatePass), resolved), int(resolved))
	r.set("policy.sched_zf_frac", ratio(float64(sc.SchedZF), scheduled), int(scheduled))
	r.set("policy.sched_kbest_frac", ratio(float64(sc.SchedKBest), scheduled), int(scheduled))
	r.set("policy.sched_sphere_frac", ratio(float64(sc.SchedSphere), scheduled), int(scheduled))
	r.set("policy.gate_ns", ratio(float64(pr.gateNs), float64(pr.gates)), int(pr.gates))
	r.set("policy.kbest_ns", ratio(float64(pr.kbestNs), float64(pr.kbests)), int(pr.kbests))
	r.set("policy.sphere_ns", ratio(float64(pr.sphereNs), float64(pr.spheres)), int(pr.spheres))

	pb := w.probe(seed)
	r.set("fec.viterbi_us_per_stream", pb.viterbiNs/1e3, probeBatches)
	r.set("phy.encode_us_per_frame", pb.encodeNs/1e3, probeBatches)
	r.set("channel.transmit_ns_per_vector", pb.transmitNs, probeBatches)
	r.set("rng.substream_ns", pb.substreamNs, probeBatches)
	r.set("channel.source_us_per_frame", twin.sourceUs/f, twin.frames)

	vectors := float64(ofdm.NumData * w.symbols)
	probeUs := (pb.encodeNs + pb.transmitNs*vectors + pb.substreamNs + pb.viterbiNs*float64(w.nc)) / 1e3
	self := twin.selfUs / f
	r.set("link.self_us_per_frame", self, twin.frames)
	r.set("link.unattributed_frac", ratio(self-probeUs, twin.processUs/f), twin.frames)
	uf := float64(win.frames)
	r.set("link.allocs_per_frame", float64(win.alloc.objects)/uf, win.frames)
	r.set("link.bytes_per_frame", float64(win.alloc.bytes)/uf, win.frames)
	r.set("link.gc_per_kframe", 1e3*float64(win.alloc.gcs)/uf, win.frames)
	r.set("bench.trace_overhead_frac",
		1-(float64(twin.frames)/twin.elapsed.Seconds())/(float64(win.frames)/win.elapsed.Seconds()), twin.frames)
	fillMissing(r)
}

// probes are isolated timings of the transmit-side and decode stages on
// the workload's own shapes, in ns per call.
type probes struct {
	encodeNs, transmitNs, substreamNs, viterbiNs float64
}

// probeBatches is how many timed batches each probe runs; the median
// batch mean is reported.
const probeBatches = 7

// timeProbe returns the median over probeBatches of the mean ns per
// call of f over iters calls.
func timeProbe(iters int, f func(i int)) float64 {
	means := make([]float64, probeBatches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f(i)
		}
		means[b] = float64(time.Since(t0)) / float64(iters)
	}
	return median(means)
}

// sinkFrame keeps probed results reachable so the calls are not
// optimized away.
var sinkFrame *phy.Frame

func (w linkWorkload) probe(seed int64) probes {
	cfg := phy.Config{Cons: w.cons, Rate: fec.Rate12, NumSymbols: w.symbols}
	l, err := phy.NewLink(cfg)
	if err != nil {
		panic(err) // the window just ran this format
	}
	src := rng.New(seed)
	var pb probes
	pb.encodeNs = timeProbe(100, func(int) {
		f, err := l.Encode(src, w.nc)
		if err != nil {
			panic(err)
		}
		sinkFrame = f
	})
	h := channel.Rayleigh(src, w.na, w.nc)
	x := sinkFrame.X[0][0]
	y := make([]complex128, w.na)
	noiseVar := channel.NoiseVarForSNRdB(w.snrDB)
	pb.transmitNs = timeProbe(5000, func(int) { channel.Transmit(y, src, h, x, noiseVar) })
	pb.substreamNs = timeProbe(500, func(i int) { _ = rng.Substream(seed, int64(i)) })

	info := make([]byte, cfg.InfoBits())
	src.Bits(info)
	mother := fec.ConvEncodeAppend(nil, info)
	vals := make([]int8, len(mother))
	for i, b := range mother {
		vals[i] = int8(2*int(b) - 1)
	}
	var ws fec.ViterbiWorkspace
	pb.viterbiNs = timeProbe(100, func(int) {
		if _, _, err := ws.DecodeHardMetric(vals); err != nil {
			panic(err)
		}
	})
	return pb
}

// fillMissing reports 0 for every per-layer metric the workload does
// not exercise, so a traced run always carries the whole set.
func fillMissing(r *result) {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0, 0)
		}
	}
}
