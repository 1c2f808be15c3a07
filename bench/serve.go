package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/kbest"
	"repro/internal/linear"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/rng"
	"repro/internal/serve"
)

// frameServer is the entry point the load loops drive:
// serve.Server.Process, or a stub in tests.
type frameServer interface {
	Process(ctx context.Context, group uint64) (serve.Outcome, error)
}

// serveWorkload is the service workload: a resident serve.Server with a
// fixed group population, driven by a closed loop and two open loops.
type serveWorkload struct {
	name, why string
	cfg       serve.Config // Seed and Recorder are set per run
	groups    int
	clients   int // closed-loop clients, in set-up and the capacity phase
	// waiters is the open-loop pool of blocking callers: the service's
	// maximum in-flight count, Shards·(QueueDepth+BatchMax), so the pool
	// never caps what the service could accept.
	waiters int
	// Reference phase lengths in seconds; -seconds scales all three.
	capacitySec, lightSec, heavySec float64
	lightFPS, heavyFPS              float64
	overloadSec, overloadFactor     float64
	slo                             time.Duration
}

var serveOpenLoop = serveWorkload{
	name: "serve-openloop",
	why:  "the service path (ring, drain, batch, ladder, group table) under a closed loop and open loops at 600 and 1500 frames/s",
	cfg: serve.Config{
		Cons: constellation.QAM16, NA: 4, NC: 2, NumSymbols: 8, SNRdB: 25,
		Shards: 8, QueueDepth: 64, BatchMax: 16,
	},
	groups: 2000, clients: 16, waiters: 8 * (64 + 16),
	capacitySec: 12, lightSec: 15, heavySec: 20,
	lightFPS: 600, heavyFPS: 1500,
	overloadSec: 8, overloadFactor: 1.25,
	slo: 10 * time.Millisecond,
}

// request is one offered frame and what became of it.
type request struct {
	group             uint64
	due, issued, done time.Time
	out               serve.Outcome
	err               error
	waiter            int
}

// latency is the request's latency from its due time; a refused or
// failed frame never completes, so its latency is infinite.
func (r *request) latency() time.Duration {
	if r.err != nil {
		return time.Duration(math.MaxInt64)
	}
	return r.done.Sub(r.due)
}

// openLoop offers rate frames per second for dur. One pacing loop (the
// caller) hands arrival i to the waiter pool at its due time
// start + i/rate; a fixed pool of waiter goroutines makes the blocking
// Process calls. When every waiter is busy the hand-off blocks, so the
// generator runs late — which the due-time latency charges to the
// frames that waited, and which issued − due reports.
func openLoop(ctx context.Context, srv frameServer, rate float64, dur time.Duration, waiters int, pick func() uint64) []request {
	reqs := make([]request, int(rate*dur.Seconds()))
	for i := range reqs {
		reqs[i].group = pick()
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < waiters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := range jobs {
				r := &reqs[i]
				r.issued = time.Now()
				r.out, r.err = srv.Process(ctx, r.group)
				r.done = time.Now()
				r.waiter = k
			}
		}(k)
	}
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		reqs[i].due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return reqs
}

// closedLoop runs clients callers that each send their next frame when
// the previous reply arrives, until dur has passed. Due time is the send
// time.
func closedLoop(ctx context.Context, srv frameServer, clients int, dur time.Duration, pick func(client int) uint64) []request {
	per := make([][]request, clients)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := request{group: pick(c), waiter: c}
				r.due = time.Now()
				r.issued = r.due
				r.out, r.err = srv.Process(ctx, r.group)
				r.done = time.Now()
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []request
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// touchGroups serves one frame to every group in [0, groups) with
// clients concurrent callers, client c taking groups c, c+clients, ...
func touchGroups(ctx context.Context, srv frameServer, groups, clients int) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for g := c; g < groups; g += clients {
				if _, err := srv.Process(ctx, uint64(g)); err != nil {
					errs[c] = fmt.Errorf("group %d: %w", g, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// frameRecorder is the obs.Recorder the traced run passes as
// serve.Config.Recorder: it keeps each frame's service-side sample by
// frame key, to be joined with the load loop's outcomes, and counts the
// sphere searches' PED computations.
type frameRecorder struct {
	mu      sync.Mutex
	frames  map[int64]frameRecord
	detects atomic.Int64
	peds    atomic.Int64
}

// frameRecord is a frame's service-side view: when its sample was
// recorded (the end of its batch), its share of the batch's service
// time, the batch size and its preparation-cache outcomes.
type frameRecord struct {
	at           time.Time
	dur          time.Duration
	batch        int
	hits, misses uint64
}

func newFrameRecorder() *frameRecorder {
	return &frameRecorder{frames: map[int64]frameRecord{}}
}

func (f *frameRecorder) RecordDetect(s obs.DetectSample) {
	var peds int64
	for _, l := range s.Levels {
		peds += l.PEDCalcs
	}
	f.detects.Add(1)
	f.peds.Add(peds)
}

func (f *frameRecorder) RecordDecode(obs.DecodeSample) {}
func (f *frameRecorder) RecordPoint(obs.PointSample)   {}

func (f *frameRecorder) RecordFrame(s obs.FrameSample) {
	now := time.Now()
	batch := s.Batch
	if batch < 1 {
		batch = 1
	}
	f.mu.Lock()
	f.frames[int64(s.Frame)] = frameRecord{at: now, dur: s.Duration, batch: batch, hits: s.PrepHits, misses: s.PrepMisses}
	f.mu.Unlock()
}

// reset starts a new phase.
func (f *frameRecorder) reset() {
	f.mu.Lock()
	f.frames = map[int64]frameRecord{}
	f.mu.Unlock()
	f.detects.Store(0)
	f.peds.Store(0)
}

// serveInstance is one built server and, when traced, its recorder.
type serveInstance struct {
	srv *serve.Server
	rec *frameRecorder
}

// build constructs the server and serves every group's first frame —
// what setup_s counts.
func (s serveWorkload) build(ctx context.Context, seed int64, rec *frameRecorder) (*serveInstance, error) {
	cfg := s.cfg
	cfg.Seed = seed
	if rec != nil {
		cfg.Recorder = rec
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := touchGroups(ctx, srv, s.groups, s.clients); err != nil {
		srv.Close()
		return nil, err
	}
	return &serveInstance{srv: srv, rec: rec}, nil
}

// phase is one load phase's requests and the server's counter delta.
type phase struct {
	name    string
	reqs    []request
	elapsed time.Duration
	stats   serve.StatsSnapshot // delta over the phase
	recs    map[int64]frameRecord
	detects int64
	peds    int64
}

// runPhases runs capacity, light and heavy on inst.
func (s serveWorkload) runPhases(ctx context.Context, inst *serveInstance, seed int64, scale float64, tr *tracer) []*phase {
	dur := func(sec float64) time.Duration { return time.Duration(sec * scale * float64(time.Second)) }
	var phases []*phase
	measure := func(name string, f func() []request) {
		if inst.rec != nil {
			inst.rec.reset()
		}
		runtime.GC()
		before := inst.srv.Stats().Snapshot()
		t0 := time.Now()
		p := &phase{name: name, reqs: f()}
		p.elapsed = time.Since(t0)
		p.stats = statsDelta(inst.srv.Stats().Snapshot(), before)
		if inst.rec != nil {
			inst.rec.mu.Lock()
			p.recs = inst.rec.frames
			inst.rec.mu.Unlock()
			p.detects, p.peds = inst.rec.detects.Load(), inst.rec.peds.Load()
			traceRequests(tr, p)
		}
		phases = append(phases, p)
	}
	measure("capacity", func() []request {
		return closedLoop(ctx, inst.srv, s.clients, dur(s.capacitySec), s.clientPicker(seed))
	})
	measure("light", func() []request {
		return openLoop(ctx, inst.srv, s.lightFPS, dur(s.lightSec), s.waiters, s.picker(seed, 1))
	})
	measure("heavy", func() []request {
		return openLoop(ctx, inst.srv, s.heavyFPS, dur(s.heavySec), s.waiters, s.picker(seed, 2))
	})
	return phases
}

// picker draws open-loop group choices from substream k of the seed's
// group stream.
func (s serveWorkload) picker(seed int64, k int64) func() uint64 {
	src := rng.Substream(rng.SubSeed(seed, streamGroups), k)
	return func() uint64 { return uint64(src.Intn(s.groups)) }
}

// clientPicker gives each closed-loop client its own group stream.
func (s serveWorkload) clientPicker(seed int64) func(int) uint64 {
	srcs := make([]*rng.Source, s.clients)
	for c := range srcs {
		srcs[c] = rng.Substream(rng.SubSeed(seed, streamClients), int64(c))
	}
	return func(c int) uint64 { return uint64(srcs[c].Intn(s.groups)) }
}

// statsDelta returns the counters accumulated between two snapshots.
func statsDelta(a, b serve.StatsSnapshot) serve.StatsSnapshot {
	d := serve.StatsSnapshot{
		Submitted:    a.Submitted - b.Submitted,
		Rejected:     a.Rejected - b.Rejected,
		Frames:       a.Frames - b.Frames,
		FrameErrors:  a.FrameErrors - b.FrameErrors,
		StreamErrors: a.StreamErrors - b.StreamErrors,
		Tiers: obs.TierSnapshot{
			Geosphere: a.Tiers.Geosphere - b.Tiers.Geosphere,
			KBest:     a.Tiers.KBest - b.Tiers.KBest,
			ZF:        a.Tiers.ZF - b.Tiers.ZF,
		},
		Batches:       a.Batches - b.Batches,
		RingOccupancy: histDelta(a.RingOccupancy, b.RingOccupancy),
		LatencyUS:     histDelta(a.LatencyUS, b.LatencyUS),
	}
	if d.Batches > 0 {
		d.AvgBatch = float64(d.Frames) / float64(d.Batches)
	}
	return d
}

func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: make([]int64, len(a.Counts)), Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return d
}

// traceRequests records each completed request's spans: the request
// from its due time to its reply, and under it the generator's lateness,
// the wait before its batch entered service and the batch's service.
func traceRequests(tr *tracer, p *phase) {
	if tr == nil {
		return
	}
	for i := range p.reqs {
		r := &p.reqs[i]
		if r.err != nil {
			continue
		}
		id := r.out.Frame
		lane := r.waiter + 1
		root := tr.add("serve.request."+p.name, r.due, r.done, -1, id, lane)
		tr.add("serve.gen_late", r.due, r.issued, root, id, lane)
		if rec, ok := p.recs[id]; ok {
			svcStart := rec.at.Add(-rec.dur * time.Duration(rec.batch))
			tr.add("serve.queue_wait", r.issued, svcStart, root, id, lane)
			tr.add("serve.service", svcStart, rec.at, root, id, lane)
		}
	}
}

func (s serveWorkload) run(seed int64, o runOpts) (*result, error) {
	ctx := context.Background()
	r := newResult(s.name, seed)
	r.Traced = o.traced
	scale := 1.0
	if o.seconds > 0 {
		scale = o.seconds / (s.capacitySec + s.lightSec + s.heavySec)
	}
	var inst *serveInstance
	reps := min(o.setupReps, 3) // a set-up serves all groups; three repeats bound its cost
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.srv.Close()
		}
		runtime.GC()
		t0 := time.Now()
		q, err := s.build(ctx, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", s.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = q
	}
	defer inst.srv.Close() // Close is idempotent
	closedLoop(ctx, inst.srv, s.clients, time.Duration(o.warmSeconds*float64(time.Second)), s.clientPicker(seed^1))

	heap := startHeapSampler()
	phases := s.runPhases(ctx, inst, seed, scale, nil)
	heapMiB, heapN := heap.finish()
	s.reportEndToEnd(r, setups, phases, heapMiB, heapN)
	s.check(r, seed, phases, "phases")
	if !o.traced {
		return r, nil
	}

	st := inst.srv.Stats().Snapshot()
	r.set("serve.lazy_builds", float64(st.LazyBuilds), 1)
	r.set("serve.groups_evicted", float64(st.GroupsEvicted), 1)
	capacity := float64(len(phases[0].reqs)) / phases[0].elapsed.Seconds()
	s.overload(ctx, r, inst, seed, capacity, scale)
	inst.srv.Close() // one resident group table at a time

	tinst, err := s.build(ctx, seed, newFrameRecorder())
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", s.name, err)
	}
	defer tinst.srv.Close()
	tr := newTracer()
	tphases := s.runPhases(ctx, tinst, seed, scale, tr)
	s.check(r, seed, tphases, "traced phases")
	for _, p := range tphases {
		s.reportPhase(r, p)
	}
	traced := float64(len(tphases[0].reqs)) / tphases[0].elapsed.Seconds()
	r.set("bench.trace_overhead_frac", 1-traced/capacity, len(tphases[0].reqs))
	fillMissing(r)
	if o.traceDir != "" {
		path, err := tr.write(o.traceDir, s.name)
		if err != nil {
			return nil, err
		}
		r.Extra = append(r.Extra, "spans written to "+path)
	}
	return r, nil
}

// dueLatencies returns the requests' latencies from their due times in
// ms, in arrival order, with refused frames as +Inf.
func dueLatencies(reqs []request) []float64 {
	out := make([]float64, len(reqs))
	for i := range reqs {
		if reqs[i].err != nil {
			out[i] = math.Inf(1)
		} else {
			out[i] = float64(reqs[i].latency()) / 1e6
		}
	}
	return out
}

// latencies returns dueLatencies sorted.
func latencies(reqs []request) []float64 { return sortedCopy(dueLatencies(reqs)) }

// closedLoopRates returns the completion rate of each of windowChunks
// equal time slices of a closed-loop phase.
func closedLoopRates(reqs []request, elapsed time.Duration) []float64 {
	if len(reqs) == 0 {
		return []float64{0}
	}
	start := reqs[0].due
	for i := range reqs {
		if reqs[i].due.Before(start) {
			start = reqs[i].due
		}
	}
	width := elapsed / windowChunks
	counts := make([]float64, windowChunks)
	for i := range reqs {
		if k := int(reqs[i].done.Sub(start) / width); k >= 0 && k < windowChunks && reqs[i].err == nil {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= width.Seconds()
	}
	return counts
}

// sloMisses counts the latencies (ms, refused frames +Inf) beyond limit.
func sloMisses(lat []float64, limit time.Duration) int {
	n := 0
	for _, l := range lat {
		if l > float64(limit)/1e6 {
			n++
		}
	}
	return n
}

func (s serveWorkload) reportEndToEnd(r *result, setups []float64, phases []*phase, heapMiB float64, heapN int) {
	var attempted, failed, done, frameErrs int
	for _, p := range phases {
		for i := range p.reqs {
			attempted++
			switch q := &p.reqs[i]; {
			case q.err != nil:
				failed++
			case !q.out.OK:
				done++
				frameErrs++
			default:
				done++
			}
		}
	}
	r.Attempted, r.Failed = attempted, failed
	capacity, light, heavy := phases[0], phases[1], phases[2]
	lightLat, heavyLat := latencies(light.reqs), latencies(heavy.reqs)
	// Open-loop arrivals are periodic, so equal-count chunks of the light
	// phase are equal time slices; the closed loop's replies are put in
	// completion order first.
	_, lightP99s := chunkPercentiles(dueLatencies(light.reqs), chunkBounds(len(light.reqs)))
	byDone := slices.Clone(capacity.reqs)
	slices.SortFunc(byDone, func(a, b request) int { return a.done.Compare(b.done) })
	capP50s, _ := chunkPercentiles(dueLatencies(byDone), chunkBounds(len(byDone)))
	r.set("setup_s", median(setups), len(setups))
	r.set("frames_per_s", upperQuartile(closedLoopRates(capacity.reqs, capacity.elapsed)), len(capacity.reqs))
	r.set("latency_p50_ms", lowerQuartile(capP50s), len(byDone))
	r.set("latency_p99_ms", lowerQuartile(lightP99s), len(lightLat))
	r.set("heap_peak_mib", heapMiB, heapN)
	r.set("latency_p50_ms.light", nearestRank(lightLat, 0.5), len(lightLat))
	r.set("latency_p99_ms.light", nearestRank(lightLat, 0.99), len(lightLat))
	r.set("latency_p50_ms.heavy", nearestRank(heavyLat, 0.5), len(heavyLat))
	r.set("latency_p99_ms.heavy", nearestRank(heavyLat, 0.99), len(heavyLat))
	r.set("slo_miss_frac.heavy", ratio(float64(sloMisses(heavyLat, s.slo)), float64(len(heavyLat))), len(heavyLat))
	r.set("failed_frac", ratio(float64(failed), float64(attempted)), attempted)
	r.set("fer", ratio(float64(frameErrs), float64(done)), done)
	for _, p := range []*phase{light, heavy} {
		lat := latencies(p.reqs)
		if q, beyond, ok := tailPercentile(len(lat)); ok {
			r.Extra = append(r.Extra, fmt.Sprintf("latency_p%g_ms.%s = %.3f ms (%d samples beyond, n=%d)",
				q, p.name, nearestRank(lat, q/100), beyond, len(lat)))
		}
	}
}

// reportPhase fills one phase's serve.* per-layer metrics from the
// joined load-loop and service-side views.
func (s serveWorkload) reportPhase(r *result, p *phase) {
	var late, wait, svc []float64
	var hits, misses uint64
	for i := range p.reqs {
		q := &p.reqs[i]
		late = append(late, float64(q.issued.Sub(q.due))/1e6)
		if q.err != nil {
			continue
		}
		rec, ok := p.recs[q.out.Frame]
		if !ok {
			continue
		}
		svcStart := rec.at.Add(-rec.dur * time.Duration(rec.batch))
		wait = append(wait, float64(svcStart.Sub(q.issued))/1e6)
		svc = append(svc, float64(rec.dur)/1e3)
		hits += rec.hits
		misses += rec.misses
	}
	late, wait, svc = sortedCopy(late), sortedCopy(wait), sortedCopy(svc)
	name := func(m string) string { return "serve." + m + "." + p.name }
	if p.name != "capacity" {
		r.set(name("gen_late_ms_p50"), nearestRank(late, 0.5), len(late))
		r.set(name("gen_late_ms_p99"), nearestRank(late, 0.99), len(late))
	}
	r.set(name("queue_wait_ms_p50"), nearestRank(wait, 0.5), len(wait))
	r.set(name("queue_wait_ms_p99"), nearestRank(wait, 0.99), len(wait))
	r.set(name("service_us_p50"), nearestRank(svc, 0.5), len(svc))
	r.set(name("service_us_p99"), nearestRank(svc, 0.99), len(svc))
	st := p.stats
	r.set(name("batch_mean"), st.AvgBatch, int(st.Batches))
	r.set(name("ring_occupancy_mean"), st.RingOccupancy.Mean(), int(st.RingOccupancy.Count))
	r.set(name("reject_ratio"), ratio(float64(st.Rejected), float64(st.Submitted+st.Rejected)), int(st.Submitted+st.Rejected))
	frames := float64(st.Frames)
	r.set(name("tier_geosphere_frac"), ratio(float64(st.Tiers.Geosphere), frames), int(st.Frames))
	r.set(name("tier_kbest_frac"), ratio(float64(st.Tiers.KBest), frames), int(st.Frames))
	r.set(name("tier_zf_frac"), ratio(float64(st.Tiers.ZF), frames), int(st.Frames))
	r.set(name("prepare_hit_ratio"), ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	r.set(name("ped_per_detect"), ratio(float64(p.peds), float64(p.detects)), int(p.detects))
	r.set(name("server_latency_p50_ms"), st.LatencyUS.Quantile(0.5)/1e3, int(st.LatencyUS.Count))
}

// overload offers overloadFactor × the measured capacity for
// overloadSec: the regime where micro-batching and the ladder engage,
// and where shedding is intended — so it stays out of the gated set.
func (s serveWorkload) overload(ctx context.Context, r *result, inst *serveInstance, seed int64, capacity, scale float64) {
	dur := time.Duration(s.overloadSec * scale * float64(time.Second))
	before := inst.srv.Stats().Snapshot()
	t0 := time.Now()
	reqs := openLoop(ctx, inst.srv, s.overloadFactor*capacity, dur, s.waiters, s.picker(seed, 3))
	elapsed := time.Since(t0)
	st := statsDelta(inst.srv.Stats().Snapshot(), before)
	shed := 0
	for i := range reqs {
		if reqs[i].err != nil {
			shed++
		}
	}
	served := len(reqs) - shed
	r.set("serve.overload.served_fps", float64(served)/elapsed.Seconds(), served)
	r.set("serve.overload.shed_frac", ratio(float64(shed), float64(len(reqs))), len(reqs))
	r.set("serve.overload.batch_mean", st.AvgBatch, int(st.Batches))
	r.set("serve.overload.tier_zf_frac", ratio(float64(st.Tiers.ZF), float64(st.Frames)), int(st.Frames))
}

// check replays every 50th served frame of the phases offline: the
// group's channels rebuilt from substream (Seed+1, group), the outcome's
// frame key and its served tier through a fresh link.Processor. The
// replayed outcome must equal the served one.
func (s serveWorkload) check(r *result, seed int64, phases []*phase, label string) {
	proc, err := link.NewProcessor(link.RunConfig{
		Cons: s.cfg.Cons, Rate: fec.Rate12, NumSymbols: s.cfg.NumSymbols, SNRdB: s.cfg.SNRdB, Seed: seed,
	})
	if err != nil {
		r.fail(fmt.Sprintf("%s: replay pipeline: %v", label, err))
		return
	}
	kb, err := kbest.NewKBest(s.cfg.Cons, 4) // serve.Config's default KBestK
	if err != nil {
		r.fail(fmt.Sprintf("%s: replay K-best: %v", label, err))
		return
	}
	dets := map[obs.Tier]core.Detector{
		obs.TierGeosphere: core.NewGeosphere(s.cfg.Cons),
		obs.TierKBest:     kb,
		obs.TierZF:        linear.NewZF(s.cfg.Cons),
	}
	n, mismatched := 0, 0
	for _, p := range phases {
		for i := 0; i < len(p.reqs); i += replayEvery {
			q := &p.reqs[i]
			if q.err != nil {
				continue
			}
			o := q.out
			det, ok := dets[o.Tier]
			if !ok {
				r.fail(fmt.Sprintf("%s: frame %d served at unknown tier %v", label, o.Frame, o.Tier))
				return
			}
			out := proc.Process(link.Work{Frame: o.Frame, Tier: o.Tier, Channels: groupChannels(seed, o.Group, s.cfg.NA, s.cfg.NC), Det: det, Pool: core.NewPrepPool(ofdm.NumData)})
			n++
			if out.Err != nil {
				mismatched++
				continue
			}
			want := serve.Outcome{Group: o.Group, Frame: o.Frame, Tier: o.Tier, OK: out.Res.FrameOK(), StreamErrors: streamErrors(out.Res.StreamOK)}
			if want != o {
				mismatched++
			}
		}
	}
	msg := fmt.Sprintf("%s: %d served frames replayed offline at their tier, %d differ", label, n, mismatched)
	if n == 0 || mismatched > 0 {
		r.fail(msg)
	} else {
		r.pass(msg)
	}
}

// groupChannels rebuilds a group's static channel the way the service
// draws it: one Rayleigh matrix per data subcarrier from substream
// (Seed+1, group).
func groupChannels(seed int64, group uint64, na, nc int) []*cmplxmat.Matrix {
	src := rng.Substream(seed+1, int64(group))
	hs := make([]*cmplxmat.Matrix, ofdm.NumData)
	for i := range hs {
		hs[i] = channel.Rayleigh(src, na, nc)
	}
	return hs
}
