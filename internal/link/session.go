package link

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/phy"
	"repro/internal/policy"
	"repro/internal/rng"
)

// FrameOutcome is one frame's result from the receive pipeline: the
// per-stream reception outcome, the frame's share of the detector's
// complexity statistics (an after−before snapshot delta, so persistent
// detectors attribute work correctly), and the error, if any, that
// aborted the frame.
type FrameOutcome struct {
	Res   *phy.Result
	Stats core.Stats
	Err   error
}

// Work describes one frame for Processor.Process: the frame index
// (which fixes the deterministic RNG substream), the worker id and
// detector tier (both only label the frame's observability sample),
// the per-subcarrier channels, the detector to use, and an optional
// preparation cache.
type Work struct {
	// Frame is the frame index; all of the frame's randomness comes
	// from rng.Substream(cfg.Seed, Frame), so the outcome is a pure
	// function of (config, Frame, Channels, detector state).
	Frame int64
	// Worker labels the frame's obs.FrameSample.
	Worker int
	// Tier labels the obs.FrameSample with the degradation-ladder tier
	// that served the frame; obs.TierNone for pipelines outside the
	// ladder (the batch path).
	Tier obs.Tier
	// Channels holds one na×nc matrix per data subcarrier.
	Channels []*cmplxmat.Matrix
	// Det is the detector to prepare and detect with.
	Det core.Detector
	// Pool, when non-nil, routes per-subcarrier preparation through a
	// PreparedChannel cache. A cache hit changes where prepared state
	// comes from, never what it contains.
	Pool *core.PrepPool
}

// Processor is one worker's frame pipeline: a phy.Link with its
// receive/decode scratch plus the run configuration, turning (frame
// index, channels, detector) into a FrameOutcome. It owns mutable
// scratch, so it is not safe for concurrent use — the Session keeps
// one Processor per worker, and the serve layer one per shard.
type Processor struct {
	cfg      RunConfig
	l        *phy.Link
	noiseVar float64
	// kappa is borrowed scratch for the per-frame κ̂² observability
	// sample (reused across frames, only valid during RecordFrame).
	kappa []float64
	// frame and frames are reused batch scratch: Process's one-frame
	// index list and a sweep's encoded frames. srcs is the pool of
	// per-frame substreams: a sweep reseeds srcs[k] to frame k's
	// substream before drawing from it, so a pooled Source carries no
	// state from one sweep to the next and is never handed out beyond
	// the sweep.
	frame  [1]int64
	srcs   []*rng.Source
	frames []*phy.Frame
}

// schedCounters is the adaptive scheduler's counter surface
// (implemented by policy.Detector); Process attributes per-frame
// deltas through it without caring about the concrete detector.
type schedCounters interface {
	Sched() policy.Counters
}

// NewProcessor validates the per-frame configuration (cfg.Frames is
// ignored: a Processor has no batch horizon) and builds the pipeline.
func NewProcessor(cfg RunConfig) (*Processor, error) {
	if err := cfg.ValidateFormat(); err != nil {
		return nil, err
	}
	l, err := phy.NewLink(cfg.phyConfig())
	if err != nil {
		return nil, err
	}
	return &Processor{cfg: cfg, l: l, noiseVar: channel.NoiseVarForSNRdB(cfg.SNRdB)}, nil
}

// NoiseVar returns the total complex noise variance per receive
// antenna derived from the configured SNR.
func (p *Processor) NoiseVar() float64 { return p.noiseVar }

// Process pushes one frame through jitter → encode → (estimate) →
// transmit/detect/decode: ProcessBatch over a batch of one. All
// randomness comes from the frame's own substream, and the detector —
// whether fresh or persistent with its preparation cache — produces
// bit-identical decisions for a given (cfg, Frame, Channels), so the
// outcome never depends on which worker ran it or when. The worker id
// and tier only label the frame's observability sample, as do the
// preparation-cache counters.
func (p *Processor) Process(w Work) FrameOutcome {
	var out [1]FrameOutcome
	p.frame[0] = w.Frame
	return p.ProcessBatch(out[:0], BatchWork{
		Frames: p.frame[:], Worker: w.Worker, Tier: w.Tier,
		Channels: w.Channels, Det: w.Det, Pool: w.Pool,
	})[0]
}

// BatchWork describes a batch of frames for Processor.ProcessBatch:
// every frame in the batch shares the same channels, detector and
// preparation cache, so the per-subcarrier preparation amortizes
// across the whole batch instead of repeating per frame. Worker and
// Tier label every frame's observability sample.
type BatchWork struct {
	// Frames holds the batch's frame indices; each frame's randomness
	// still comes from its own rng.Substream(cfg.Seed, Frames[i]).
	Frames   []int64
	Worker   int
	Tier     obs.Tier
	Channels []*cmplxmat.Matrix
	Det      core.Detector
	Pool     *core.PrepPool
}

// ProcessBatch runs a batch of frames sharing one prepared channel
// set, appending one FrameOutcome per frame (in Frames order) to dst
// and returning it. Per-frame Res and Err are byte-identical however
// the frames are batched — every frame encodes and transmits from its
// own substream, and detection decisions are pure functions of
// (prepared state, observation) — only the attribution of batch-
// amortized observability (detector Stats deltas, preparation-cache
// counters, scheduler counters) changes: those are measured across the
// whole detection sweep and folded into its first outcome/sample, so
// sums over a run stay exact.
//
// Configurations that perturb channels per frame (SNR jitter,
// estimated CSI) give every frame its own channels, so each frame runs
// as its own batch of one. A multi-frame batch that fails re-runs the
// same way, so every frame reports its own error.
func (p *Processor) ProcessBatch(dst []FrameOutcome, w BatchWork) []FrameOutcome {
	dst = dst[:0]
	_, nc, err := phy.ChannelShape(w.Channels, w.Channels)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrBadShape, err)
		for range w.Frames {
			dst = append(dst, FrameOutcome{Err: err})
		}
		return dst
	}
	if len(w.Frames) > 1 && p.cfg.SNRJitterDB <= 0 && !p.cfg.EstimatedCSI {
		if out, err := p.sweep(dst, w, nc); err == nil {
			return out
		}
	}
	frames := w.Frames
	for i := range frames {
		w.Frames = frames[i : i+1]
		out, err := p.sweep(dst, w, nc)
		if err != nil {
			out = append(dst, FrameOutcome{Err: err})
		}
		dst = out
	}
	return dst
}

// sweep runs w.Frames through one detection sweep and appends their
// outcomes to dst; on error it appends nothing. The per-frame channel
// perturbations draw from the frame's substream in a fixed order —
// jitter, Encode, EstimateChannels, transmit — and ProcessBatch only
// sends frames that take them alone, so the perturbed channels belong
// to the one frame in the batch.
func (p *Processor) sweep(dst []FrameOutcome, w BatchWork, nc int) ([]FrameOutcome, error) {
	cfg := p.cfg
	start := time.Now() //geolint:nondeterminism-ok wall-clock duration only labels the observability samples
	det := w.Det
	p.l.SetPrepPool(w.Pool)
	// Persistent detectors carry counters over from earlier batches, so
	// this batch's share is the snapshot delta (zero-based for fresh
	// detectors, where the snapshot is zero).
	before, _ := core.StatsOf(det)
	var hitsBefore, missesBefore, updatesBefore, sharesBefore uint64
	if w.Pool != nil {
		hitsBefore, missesBefore = w.Pool.Counters()
		updatesBefore, sharesBefore = w.Pool.QRUpdates(), w.Pool.Shares()
	}
	var schedBefore policy.Counters
	sched, adaptive := det.(schedCounters)
	if adaptive {
		schedBefore = sched.Sched()
	}
	hsTrue, hsDet := w.Channels, w.Channels
	for len(p.srcs) < len(w.Frames) {
		p.srcs = append(p.srcs, rng.New(0))
	}
	srcs, frames := p.srcs[:len(w.Frames)], p.frames[:0]
	for k, fi := range w.Frames {
		src := srcs[k]
		src.Reseed(rng.SubSeed(cfg.Seed, fi))
		if cfg.SNRJitterDB > 0 {
			hsTrue = jitterClients(src, w.Channels, cfg.SNRJitterDB)
		}
		f, err := p.l.Encode(src, nc)
		if err != nil {
			return dst, err
		}
		hsDet = hsTrue
		if cfg.EstimatedCSI {
			if hsDet, err = phy.EstimateChannels(src, hsTrue, p.noiseVar, cfg.trainingReps()); err != nil {
				return dst, err
			}
		}
		frames = append(frames, f)
	}
	res, err := p.l.TransmitReceiveBatchCSI(srcs, frames, hsTrue, hsDet, det, p.noiseVar)
	// Keep the grown scratch, but not the batch's frames.
	clear(frames)
	p.frames = frames[:0]
	if err != nil {
		return dst, err
	}
	after, _ := core.StatsOf(det)
	batchStats := after.Sub(before)
	for i, r := range res {
		o := FrameOutcome{Res: r}
		if i == 0 {
			// The detector's complexity delta spans the whole batch;
			// attribute it to the first outcome so run-level sums over
			// outcomes stay exact.
			o.Stats = batchStats
		}
		dst = append(dst, o)
	}
	if cfg.Recorder == nil {
		return dst, nil
	}
	//geolint:nondeterminism-ok wall-clock duration only labels the observability samples
	dur := time.Since(start) / time.Duration(len(res))
	for i, r := range res {
		errs := 0
		for _, ok := range r.StreamOK {
			if !ok {
				errs++
			}
		}
		fs := obs.FrameSample{
			Frame:        int(w.Frames[i]),
			Worker:       w.Worker,
			Tier:         w.Tier,
			Duration:     dur,
			Batch:        len(res),
			OK:           r.FrameOK(),
			Streams:      len(r.StreamOK),
			StreamErrors: errs,
		}
		if i == 0 {
			// Batch-amortized counters are measured once per sweep;
			// fold them into the first sample so run-level sums stay
			// exact.
			if w.Pool != nil {
				h, m := w.Pool.Counters()
				fs.PrepHits, fs.PrepMisses = h-hitsBefore, m-missesBefore
				fs.QRUpdates = w.Pool.QRUpdates() - updatesBefore
				fs.PrepShares = w.Pool.Shares() - sharesBefore
			}
			fs.ProjReuse = batchStats.ProjReuse
			if adaptive {
				d := sched.Sched().Sub(schedBefore)
				fs.SchedZF = d.SchedZF
				fs.SchedKBest = d.SchedKBest
				fs.SchedSphere = d.SchedSphere
				fs.GatePass = d.GatePass
				fs.KBestFallbacks = d.KBestFallbacks
				fs.SphereFallbacks = d.SphereFallbacks
				fs.SeededRadius = d.SeededRadius
				if w.Pool != nil {
					p.kappa = w.Pool.AppendKappa2dB(p.kappa[:0])
					fs.Kappa2dB = p.kappa
				}
			}
		}
		cfg.Recorder.RecordFrame(fs)
	}
	return dst, nil
}

// frameWorker is one session worker's long-lived state: a Processor
// and — unless the prep cache is disabled — a persistent detector plus
// a PrepPool holding one PreparedChannel per data subcarrier, so
// frames whose channels repeat skip their QR decompositions entirely.
type frameWorker struct {
	cfg      RunConfig
	proc     *Processor
	factory  DetectorFactory
	noiseVar float64
	// det is the worker's persistent detector, nil when NoPrepCache
	// forces the pre-cache fresh-detector-per-frame behavior.
	det  core.Detector
	pool *core.PrepPool
}

// newFrameWorker builds one worker's pipeline state.
func newFrameWorker(cfg RunConfig, factory DetectorFactory) (*frameWorker, error) {
	proc, err := NewProcessor(cfg)
	if err != nil {
		return nil, err
	}
	w := &frameWorker{cfg: cfg, proc: proc, factory: factory, noiseVar: proc.noiseVar}
	if !cfg.NoPrepCache {
		det, err := cfg.buildDetector(factory, w.noiseVar)
		if err != nil {
			return nil, err
		}
		w.det = det
		w.attachRecorder(w.det)
		w.pool = core.NewPrepPool(ofdm.NumData)
		w.pool.SetIncremental(cfg.IncrementalPrep)
	}
	return w, nil
}

// attachRecorder streams det's samples to the configured recorder.
func (w *frameWorker) attachRecorder(det core.Detector) {
	if w.cfg.Recorder != nil {
		if t, ok := det.(obs.Target); ok {
			t.SetRecorder(w.cfg.Recorder)
		}
	}
}

// runFrame processes one frame with the worker's persistent detector
// and cache (or a fresh detector when NoPrepCache is set).
func (w *frameWorker) runFrame(fi int64, worker int, hs []*cmplxmat.Matrix) FrameOutcome {
	det, pool := w.det, w.pool
	if det == nil {
		fresh, err := w.cfg.buildDetector(w.factory, w.noiseVar)
		if err != nil {
			return FrameOutcome{Err: err}
		}
		det = fresh
		w.attachRecorder(det)
	}
	return w.proc.Process(Work{Frame: fi, Worker: worker, Channels: hs, Det: det, Pool: pool})
}

// sessionJob is one queued frame and its reply slot. The reply channel
// must have capacity ≥ 1 so workers never block on delivery.
type sessionJob struct {
	fi    int64
	hs    []*cmplxmat.Matrix
	reply chan<- FrameOutcome
}

// Session is a long-lived receive pipeline: a bounded frame queue
// feeding a pool of workers, each owning a persistent detector and a
// per-subcarrier preparation cache. Frames are identified by caller-
// chosen indices, and every frame's outcome is a pure function of
// (config, index, channels): byte-identical across worker counts,
// queue depths and submission interleavings. A Session is safe for
// concurrent use by any number of submitters.
//
// The batch entry point Run is a thin wrapper: one Session, all frames
// submitted in order, outcomes merged in frame order.
type Session struct {
	cfg      RunConfig
	noiseVar float64
	detName  string
	jobs     chan sessionJob
	wg       sync.WaitGroup

	mu     sync.RWMutex // guards closed against concurrent submits
	closed bool
}

// NewSession validates the per-frame configuration (cfg.Frames is
// ignored; the session has no batch horizon) and starts max(1,
// cfg.Workers) workers behind a bounded queue of cfg.QueueDepth frames
// (default 4× workers).
func NewSession(cfg RunConfig, factory DetectorFactory) (*Session, error) {
	if err := cfg.ValidateFormat(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("link: session needs a detector factory")
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	// Build every worker before starting any, so construction errors
	// surface here rather than as per-frame failures.
	fws := make([]*frameWorker, workers)
	for i := range fws {
		fw, err := newFrameWorker(cfg, factory)
		if err != nil {
			return nil, err
		}
		fws[i] = fw
	}
	noiseVar := channel.NoiseVarForSNRdB(cfg.SNRdB)
	nameDet, err := cfg.buildDetector(factory, noiseVar)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:      cfg,
		noiseVar: noiseVar,
		detName:  nameDet.Name(),
		jobs:     make(chan sessionJob, depth),
	}
	for i, fw := range fws {
		s.wg.Add(1)
		go func(worker int, fw *frameWorker) {
			defer s.wg.Done()
			for j := range s.jobs {
				j.reply <- fw.runFrame(j.fi, worker, j.hs)
			}
		}(i, fw)
	}
	return s, nil
}

// Workers returns the session's worker count.
func (s *Session) Workers() int {
	w := s.cfg.Workers
	if w < 1 {
		w = 1
	}
	return w
}

// QueueDepth returns the bounded queue's capacity.
func (s *Session) QueueDepth() int { return cap(s.jobs) }

// DetectorName returns the name of the detector the session's factory
// builds, for Measurement labeling.
func (s *Session) DetectorName() string { return s.detName }

// submit enqueues one frame. With block set it waits for queue space
// (or ctx cancellation); without, a full queue returns ErrQueueFull
// immediately — the admission-control path. The read lock spans the
// send so Close cannot close the queue under an in-flight submit.
func (s *Session) submit(ctx context.Context, j sessionJob, block bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if !block {
		select {
		case s.jobs <- j:
			return nil
		default:
			return ErrQueueFull
		}
	}
	// Cancellation wins deterministically: an already-cancelled context
	// never admits, even when the queue has space (select alone would
	// pick between the two ready cases at random).
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.jobs <- j:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Process runs one frame to completion: blocking submission (queue
// backpressure), then the frame's outcome. A frame-level pipeline
// failure is returned as the error with a zero outcome. If ctx is
// cancelled after admission the frame still completes on its worker —
// admitted work is never abandoned half-done — but Process returns
// ctx.Err() without waiting for it.
func (s *Session) Process(ctx context.Context, fi int64, hs []*cmplxmat.Matrix) (FrameOutcome, error) {
	reply := make(chan FrameOutcome, 1)
	if err := s.submit(ctx, sessionJob{fi: fi, hs: hs, reply: reply}, true); err != nil {
		return FrameOutcome{}, err
	}
	select {
	case out := <-reply:
		if out.Err != nil {
			return FrameOutcome{}, fmt.Errorf("link: frame %d: %w", fi, out.Err)
		}
		return out, nil
	case <-ctx.Done():
		return FrameOutcome{}, ctx.Err()
	}
}

// Submit enqueues one frame without blocking: a full queue returns
// ErrQueueFull (the admission-control reject), otherwise the frame's
// outcome is delivered exactly once on the returned channel.
func (s *Session) Submit(fi int64, hs []*cmplxmat.Matrix) (<-chan FrameOutcome, error) {
	reply := make(chan FrameOutcome, 1)
	if err := s.submit(context.Background(), sessionJob{fi: fi, hs: hs, reply: reply}, false); err != nil {
		return nil, err
	}
	return reply, nil
}

// SubmitWait enqueues one frame, blocking for queue space (the
// backpressure path) until admitted or ctx is cancelled. The frame's
// outcome is delivered exactly once on the returned channel; since the
// channel is buffered, callers that abandon it leak nothing and block
// no worker.
func (s *Session) SubmitWait(ctx context.Context, fi int64, hs []*cmplxmat.Matrix) (<-chan FrameOutcome, error) {
	reply := make(chan FrameOutcome, 1)
	if err := s.submit(ctx, sessionJob{fi: fi, hs: hs, reply: reply}, true); err != nil {
		return nil, err
	}
	return reply, nil
}

// Close drains the queue and stops the workers: every frame admitted
// before Close completes and delivers its outcome, then the workers
// exit. Further submissions return ErrClosed. Close is idempotent and
// safe to call concurrently with submitters.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Measure runs frames 0..frames-1 drawn from source through the
// session and aggregates them into a Measurement, exactly as the batch
// Run does: the stateful source is drained sequentially up front
// (frame i always sees the i-th draw), frames are submitted in order,
// and outcomes are merged in frame order — so the Measurement is
// byte-identical for every worker count and queue depth. Cancelling
// ctx drains deterministically: frames already admitted complete on
// their workers, no new frames are submitted, and Measure returns
// ctx.Err().
func (s *Session) Measure(ctx context.Context, source ChannelSource, frames int) (Measurement, error) {
	if frames <= 0 {
		return Measurement{}, fmt.Errorf("%w, got %d", ErrBadFrames, frames)
	}
	_, nc := source.Shape()

	// Pre-draw every frame's channel on this goroutine: TraceSource's
	// cursor and RayleighSource's RNG stay single-threaded, and the
	// frame→channel mapping cannot depend on worker scheduling.
	channels := make([][]*cmplxmat.Matrix, frames)
	for fi := range channels {
		hs, err := source.Next()
		if err != nil {
			return Measurement{}, err
		}
		channels[fi] = hs
	}

	replies := make([]chan FrameOutcome, frames)
	for fi := range replies {
		replies[fi] = make(chan FrameOutcome, 1)
	}
	go func() {
		for fi := range channels {
			j := sessionJob{fi: int64(fi), hs: channels[fi], reply: replies[fi]}
			if err := s.submit(ctx, j, true); err != nil {
				// Cancellation or closure: deliver the error as the
				// frame's outcome so the ordered collector sees it.
				replies[fi] <- FrameOutcome{Err: err}
			}
		}
	}()

	// Ordered merge: accumulate in frame order so the Measurement is
	// independent of which worker finished first.
	var m Measurement
	m.Detector = s.detName
	m.Constellation = s.cfg.Cons.Name()
	pcfg := s.cfg.phyConfig()
	var payloadBitsOK float64
	for fi := 0; fi < frames; fi++ {
		var o FrameOutcome
		select {
		case o = <-replies[fi]:
		case <-ctx.Done():
			return Measurement{}, ctx.Err()
		}
		if o.Err != nil {
			return Measurement{}, fmt.Errorf("link: frame %d: %w", fi, o.Err)
		}
		m.Frames++
		if !o.Res.FrameOK() {
			m.FrameErrors++
		}
		for _, ok := range o.Res.StreamOK {
			m.Streams++
			if ok {
				payloadBitsOK += float64(pcfg.PayloadBits())
			} else {
				m.StreamErrors++
			}
		}
		m.Stats.Add(o.Stats)
	}
	symbolsPerFrame := s.cfg.NumSymbols
	if s.cfg.EstimatedCSI {
		symbolsPerFrame += phy.TrainingSymbols(nc, s.cfg.trainingReps())
	}
	airTime := float64(frames) * float64(symbolsPerFrame) * ofdm.SymbolDuration
	if airTime > 0 {
		m.NetMbps = payloadBitsOK / airTime / 1e6
	}
	if m.Streams > 0 {
		m.PerStreamFER = float64(m.StreamErrors) / float64(m.Streams)
	}
	return m, nil
}
