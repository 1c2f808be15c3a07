package main

import (
	"time"

	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/policy"
)

// The optional interfaces the link pipeline discovers on a detector by
// type assertion. The decorator must expose exactly the ones the
// wrapped detector has: PrepPool.Prepare only routes through the cache
// for a SharedPreparer, Processor.Process reads per-frame stats through
// core.Counter and the scheduler's counters through Sched.
type (
	sharedPreparer interface {
		PrepareShared(pc *core.PreparedChannel, h *cmplxmat.Matrix) (bool, error)
	}
	recorderTarget interface{ SetRecorder(obs.Recorder) }
	scheduler      interface {
		Sched() policy.Counters
		Tier() obs.Tier
	}
)

// callProfile accumulates, from outside the detector, the time the
// pipeline spends in its prepare and detect calls: per frame (one
// aggregated span per layer) and over the whole traced window.
type callProfile struct {
	// Per-frame aggregates, reset by beginFrame.
	prepFirst, detFirst time.Time
	prepSum, detSum     time.Duration
	prepCalls, detCalls int

	// Window totals.
	prepHits, prepMisses      int64
	prepHitNs, prepMissNs     time.Duration
	detects                   int64
	detectHist                logHist
	gateNs, kbestNs, sphereNs time.Duration
	gates, kbests, spheres    int64
}

func (p *callProfile) beginFrame() {
	p.prepSum, p.detSum, p.prepCalls, p.detCalls = 0, 0, 0, 0
}

// timedDetector times Prepare and Detect and forwards everything else.
// Its method set is only core.Detector; wrapDetector adds the optional
// interfaces the wrapped detector has.
type timedDetector struct {
	inner core.Detector
	sched scheduler // non-nil when inner is the adaptive scheduler
	prof  *callProfile
}

func (t *timedDetector) Name() string { return t.inner.Name() }

func (t *timedDetector) Constellation() *constellation.Constellation {
	return t.inner.Constellation()
}

func (t *timedDetector) Prepare(h *cmplxmat.Matrix) error {
	start := time.Now()
	err := t.inner.Prepare(h)
	t.notePrepare(start, time.Since(start), false)
	return err
}

func (t *timedDetector) prepareShared(pc *core.PreparedChannel, h *cmplxmat.Matrix) (bool, error) {
	start := time.Now()
	hit, err := t.inner.(sharedPreparer).PrepareShared(pc, h)
	t.notePrepare(start, time.Since(start), hit)
	return hit, err
}

func (t *timedDetector) notePrepare(start time.Time, d time.Duration, hit bool) {
	p := t.prof
	if p.prepCalls == 0 {
		p.prepFirst = start
	}
	p.prepCalls++
	p.prepSum += d
	if hit {
		p.prepHits++
		p.prepHitNs += d
	} else {
		p.prepMisses++
		p.prepMissNs += d
	}
}

func (t *timedDetector) Detect(dst []int, y []complex128) ([]int, error) {
	var before policy.Counters
	if t.sched != nil {
		before = t.sched.Sched()
	}
	start := time.Now()
	out, err := t.inner.Detect(dst, y)
	d := time.Since(start)
	p := t.prof
	if p.detCalls == 0 {
		p.detFirst = start
	}
	p.detCalls++
	p.detSum += d
	p.detects++
	p.detectHist.observe(d)
	if t.sched != nil {
		delta := t.sched.Sched().Sub(before)
		switch {
		case delta.GatePass > 0:
			p.gates++
			p.gateNs += d
		case delta.KBestFallbacks > 0:
			p.kbests++
			p.kbestNs += d
		case delta.SphereFallbacks > 0:
			p.spheres++
			p.sphereNs += d
		}
	}
	return out, err
}

// preparerFwd exposes the timed PrepareShared.
type preparerFwd struct{ t *timedDetector }

func (f preparerFwd) PrepareShared(pc *core.PreparedChannel, h *cmplxmat.Matrix) (bool, error) {
	return f.t.prepareShared(pc, h)
}

// wrapDetector returns a transparent decorator of inner that records
// into prof. The returned value implements exactly the optional
// interfaces inner implements — sharedPreparer, core.Counter,
// recorderTarget and scheduler — so the pipeline takes the same paths
// with and without it. Go cannot add methods to a value dynamically,
// hence one struct shape per combination.
func wrapDetector(inner core.Detector, prof *callProfile) core.Detector {
	t := &timedDetector{inner: inner, prof: prof}
	sp := preparerFwd{t}
	c, hasC := inner.(core.Counter)
	r, hasR := inner.(recorderTarget)
	s, hasS := inner.(scheduler)
	_, hasP := inner.(sharedPreparer)
	if hasS {
		t.sched = s
	}
	const P, C, R, S = 1, 2, 4, 8
	mask := 0
	if hasP {
		mask |= P
	}
	if hasC {
		mask |= C
	}
	if hasR {
		mask |= R
	}
	if hasS {
		mask |= S
	}
	switch mask {
	case 0:
		return &struct{ *timedDetector }{t}
	case P:
		return &struct {
			*timedDetector
			preparerFwd
		}{t, sp}
	case C:
		return &struct {
			*timedDetector
			core.Counter
		}{t, c}
	case P | C:
		return &struct {
			*timedDetector
			preparerFwd
			core.Counter
		}{t, sp, c}
	case R:
		return &struct {
			*timedDetector
			recorderTarget
		}{t, r}
	case P | R:
		return &struct {
			*timedDetector
			preparerFwd
			recorderTarget
		}{t, sp, r}
	case C | R:
		return &struct {
			*timedDetector
			core.Counter
			recorderTarget
		}{t, c, r}
	case P | C | R:
		return &struct {
			*timedDetector
			preparerFwd
			core.Counter
			recorderTarget
		}{t, sp, c, r}
	case S:
		return &struct {
			*timedDetector
			scheduler
		}{t, s}
	case P | S:
		return &struct {
			*timedDetector
			preparerFwd
			scheduler
		}{t, sp, s}
	case C | S:
		return &struct {
			*timedDetector
			core.Counter
			scheduler
		}{t, c, s}
	case P | C | S:
		return &struct {
			*timedDetector
			preparerFwd
			core.Counter
			scheduler
		}{t, sp, c, s}
	case R | S:
		return &struct {
			*timedDetector
			recorderTarget
			scheduler
		}{t, r, s}
	case P | R | S:
		return &struct {
			*timedDetector
			preparerFwd
			recorderTarget
			scheduler
		}{t, sp, r, s}
	case C | R | S:
		return &struct {
			*timedDetector
			core.Counter
			recorderTarget
			scheduler
		}{t, c, r, s}
	default:
		return &struct {
			*timedDetector
			preparerFwd
			core.Counter
			recorderTarget
			scheduler
		}{t, sp, c, r, s}
	}
}

// timedSource times a link.ChannelSource's Next calls.
type timedSource struct {
	inner link.ChannelSource
	last  time.Duration
	start time.Time
}

func (s *timedSource) Next() ([]*cmplxmat.Matrix, error) {
	s.start = time.Now()
	hs, err := s.inner.Next()
	s.last = time.Since(s.start)
	return hs, err
}

func (s *timedSource) Shape() (int, int) { return s.inner.Shape() }
