package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("Load() = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Bucket i counts v ≤ bounds[i]; the last slot is the overflow.
	want := []int64{2, 2, 2, 1}
	if len(s.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	if got := s.Sum; got != 0.5+1+5+10+50+100+1000 {
		t.Errorf("Sum = %g", got)
	}
}

func TestHistogramObserveN(t *testing.T) {
	h := NewHistogram(10)
	h.ObserveN(3, 5)
	s := h.Snapshot()
	if s.Count != 5 || s.Counts[0] != 5 || s.Sum != 15 {
		t.Errorf("ObserveN: count=%d counts=%v sum=%g", s.Count, s.Counts, s.Sum)
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(1) // all in the first bucket
	}
	s := h.Snapshot()
	if m := s.Mean(); m != 1 {
		t.Errorf("Mean = %g, want 1", m)
	}
	if q := s.Quantile(0.5); q > 1 {
		t.Errorf("Quantile(0.5) = %g, want ≤ bound 1", q)
	}
	if q := s.Quantile(0.999); q > 1 {
		t.Errorf("Quantile(0.999) = %g, want ≤ bound 1 (all mass there)", q)
	}
	var empty HistogramSnapshot
	if m := empty.Mean(); m != 0 {
		t.Errorf("empty Mean = %g, want 0", m)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(10, 100)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Errorf("Count = %d, want %d", got, goroutines*per)
	}
}

func TestStatsRecorderAggregation(t *testing.T) {
	r := NewStatsRecorder()
	r.RecordDetect(DetectSample{
		Detector: "test",
		Levels: []LevelSample{
			{Nodes: 2, PEDCalcs: 3, BoundChecks: 4, Prunes: 1},
			{Nodes: 1, PEDCalcs: 1, BoundChecks: 2, Prunes: 0},
		},
	})
	r.RecordDetect(DetectSample{
		Detector: "test",
		Levels:   []LevelSample{{Nodes: 5, PEDCalcs: 7, BoundChecks: 9, Prunes: 2}},
	})
	s := r.Snapshot()
	if s.Detect.Detects != 2 {
		t.Errorf("Detects = %d, want 2", s.Detect.Detects)
	}
	if s.Detect.VisitedNodes != 8 || s.Detect.PEDCalcs != 11 {
		t.Errorf("nodes=%d peds=%d, want 8/11", s.Detect.VisitedNodes, s.Detect.PEDCalcs)
	}
	if len(s.Detect.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(s.Detect.Levels))
	}
	if s.Detect.Levels[0].Nodes != 7 || s.Detect.Levels[1].Nodes != 1 {
		t.Errorf("per-level nodes = %d/%d, want 7/1",
			s.Detect.Levels[0].Nodes, s.Detect.Levels[1].Nodes)
	}
	// Per-level sums must equal the aggregate.
	var nodes int64
	for _, l := range s.Detect.Levels {
		nodes += l.Nodes
	}
	if nodes != s.Detect.VisitedNodes {
		t.Errorf("level sum %d != aggregate %d", nodes, s.Detect.VisitedNodes)
	}
}

func TestStatsRecorderFramesWorkers(t *testing.T) {
	r := NewStatsRecorder()
	r.RecordFrame(FrameSample{Frame: 0, Worker: 1, Duration: time.Millisecond, OK: true, Streams: 4})
	r.RecordFrame(FrameSample{Frame: 1, Worker: 1, Duration: time.Millisecond, OK: false, Streams: 4, StreamErrors: 2})
	s := r.Snapshot()
	if s.Frames.Frames != 2 || s.Frames.FrameErrors != 1 || s.Frames.StreamErrors != 2 {
		t.Errorf("frames: %+v", s.Frames)
	}
	if len(s.Workers) != 1 || s.Workers[0].Worker != 1 || s.Workers[0].Frames != 2 {
		t.Errorf("workers: %+v", s.Workers)
	}
}

func TestStatsRecorderPoints(t *testing.T) {
	r := NewStatsRecorder()
	r.RecordPoint(PointSample{Label: "a", SNRdB: 15})
	r.RecordPoint(PointSample{Label: "b", SNRdB: 20})
	s := r.Snapshot()
	if len(s.Points) != 2 || s.Points[0].Label != "a" {
		t.Errorf("points: %+v", s.Points)
	}
}

func TestStatsRecorderConcurrent(t *testing.T) {
	r := NewStatsRecorder()
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			levels := []LevelSample{{Nodes: 1, PEDCalcs: 2}}
			for i := 0; i < per; i++ {
				r.RecordDetect(DetectSample{Detector: "d", Levels: levels})
				r.RecordDecode(DecodeSample{Stream: i % 4, PathMetric: 1, OK: true})
				r.RecordFrame(FrameSample{Frame: i, Worker: worker, OK: true, Streams: 2})
				r.RecordPoint(PointSample{Label: "p"})
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Detect.Detects != goroutines*per {
		t.Errorf("Detects = %d, want %d", s.Detect.Detects, goroutines*per)
	}
	if s.Frames.Frames != goroutines*per {
		t.Errorf("Frames = %d, want %d", s.Frames.Frames, goroutines*per)
	}
	if len(s.Points) != goroutines*per {
		t.Errorf("Points = %d, want %d", len(s.Points), goroutines*per)
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewStatsRecorder(), NewStatsRecorder()
	m := Multi{a, b}
	m.RecordDetect(DetectSample{Detector: "d", Levels: []LevelSample{{Nodes: 1}}})
	m.RecordDecode(DecodeSample{OK: true})
	m.RecordFrame(FrameSample{OK: true})
	m.RecordPoint(PointSample{Label: "x"})
	for i, r := range []*StatsRecorder{a, b} {
		s := r.Snapshot()
		if s.Detect.Detects != 1 || s.Decode.Decodes != 1 || s.Frames.Frames != 1 || len(s.Points) != 1 {
			t.Errorf("recorder %d missed samples: %+v", i, s)
		}
	}
}

func TestFold(t *testing.T) {
	stats := NewStatsRecorder()
	cases := []struct {
		name string
		in   Recorder
		want Recorder
	}{
		{"nil", nil, nil},
		{"nop", Nop{}, nil},
		{"nop pointer", &Nop{}, nil},
		{"real recorder", stats, stats},
		{"empty multi", Multi{}, nil},
		{"multi of nops", Multi{Nop{}, Nop{}}, nil},
		{"multi folds to sole element", Multi{Nop{}, stats}, stats},
		{"nested multi of nops", Multi{Multi{Nop{}}, Nop{}}, nil},
	}
	for _, tc := range cases {
		if got := Fold(tc.in); got != tc.want {
			t.Errorf("%s: Fold(%#v) = %#v, want %#v", tc.name, tc.in, got, tc.want)
		}
	}
	// A Multi with several live recorders stays a Multi with the dead
	// entries dropped.
	b := NewStatsRecorder()
	folded := Fold(Multi{Nop{}, stats, Multi{b, Nop{}}})
	m, ok := folded.(Multi)
	if !ok || len(m) != 2 || m[0] != Recorder(stats) || m[1] != Recorder(b) {
		t.Errorf("Fold(mixed Multi) = %#v, want Multi{stats, b}", folded)
	}
}

func TestNopImplementsRecorder(t *testing.T) {
	var r Recorder = Nop{}
	r.RecordDetect(DetectSample{})
	r.RecordDecode(DecodeSample{})
	r.RecordFrame(FrameSample{})
	r.RecordPoint(PointSample{})
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewStatsRecorder()
	r.RecordDetect(DetectSample{Detector: "d", Levels: []LevelSample{{Nodes: 1, PEDCalcs: 2}}})
	r.RecordDecode(DecodeSample{PathMetric: 0.9, OK: true, Bypassed: true})
	r.RecordDecode(DecodeSample{PathMetric: 0.5, OK: true})
	r.RecordFrame(FrameSample{OK: true, Streams: 2})
	r.RecordPoint(PointSample{Label: "p", Detector: "d", Constellation: "16-QAM"})
	snap := r.Snapshot()
	if snap.Decode.Decodes != 2 || snap.Decode.Bypassed != 1 {
		t.Errorf("decode snapshot %+v, want 2 decodes with 1 bypassed", snap.Decode)
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"detect:", "decode:", "1 bypassed", "frames:", "points:"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}

func TestProgressEmit(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := &lockedWriter{w: &buf, mu: &mu}
	p := NewProgress(w, time.Hour) // ticker never fires during the test
	p.RecordFrame(FrameSample{OK: true})
	p.RecordFrame(FrameSample{OK: false})
	p.RecordDetect(DetectSample{})
	p.RecordPoint(PointSample{})
	p.Emit()
	p.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "2 frames") || !strings.Contains(out, "1 errors") {
		t.Errorf("progress line missing counts:\n%s", out)
	}
	if !strings.Contains(out, "1 points") || !strings.Contains(out, "1 detects") {
		t.Errorf("progress line missing points/detects:\n%s", out)
	}
}

type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
