package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/kbest"
	"repro/internal/linear"
	"repro/internal/link"
	"repro/internal/policy"
	"repro/internal/serve"
)

// tinyOpts runs a window of about frames frames with one set-up and no
// warm-up to speak of.
func tinyOpts(frames int, refFPS float64, traced bool) runOpts {
	return runOpts{seconds: float64(frames) / refFPS, warmSeconds: 0, setupReps: 1, traced: traced}
}

// tinyServe is serve-openloop shrunk to a fraction of a second.
func tinyServe() serveWorkload {
	s := serveOpenLoop
	s.groups, s.clients, s.waiters = 24, 4, 16
	s.capacitySec, s.lightSec, s.heavySec, s.overloadSec = 0.15, 0.15, 0.15, 0.1
	s.lightFPS, s.heavyFPS = 200, 400
	return s
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range linkWorkloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run(7, tinyOpts(30, w.refFPS, true))
			if err != nil {
				t.Fatal(err)
			}
			assertComplete(t, r)
		})
	}
	t.Run("serve-openloop", func(t *testing.T) {
		r, err := tinyServe().run(7, runOpts{setupReps: 1, traced: true})
		if err != nil {
			t.Fatal(err)
		}
		assertComplete(t, r)
	})
}

// assertComplete checks that a traced run passed its output checks and
// carries every registered metric.
func assertComplete(t *testing.T, r *result) {
	t.Helper()
	if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d checks=%v", r.Correct, r.Attempted, r.Failed, r.Checks)
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v", d.Name, v.Value)
		}
	}
}

// outcomes runs frames of the trace workload's inputs through det and
// returns every outcome.
func outcomes(t *testing.T, w linkWorkload, det core.Detector, frames int) []link.FrameOutcome {
	t.Helper()
	src, err := w.source(3)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := link.NewProcessor(w.config(3))
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPrepPool(48)
	var outs []link.FrameOutcome
	for fi := 0; fi < frames; fi++ {
		hs, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		out := proc.Process(link.Work{Frame: int64(fi), Channels: hs, Det: det, Pool: pool})
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		outs = append(outs, out)
	}
	return outs
}

func TestDecoratorTransparent(t *testing.T) {
	for _, w := range linkWorkloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := w.detector()
			if err != nil {
				t.Fatal(err)
			}
			inner, err := w.detector()
			if err != nil {
				t.Fatal(err)
			}
			var prof callProfile
			want := outcomes(t, w, plain, 12)
			got := outcomes(t, w, wrapDetector(inner, &prof), 12)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("decorated outcomes differ from the plain detector's")
			}
			if prof.detects == 0 || prof.prepHits+prof.prepMisses == 0 {
				t.Fatalf("decorator saw %d detects, %d prepares", prof.detects, prof.prepHits+prof.prepMisses)
			}
		})
	}
}

func TestDecoratorForwardsExactly(t *testing.T) {
	cons := constellation.QAM16
	kb, err := kbest.NewKBest(cons, 4)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := policy.NewDetector(cons, 24, policy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	has := func(d core.Detector) [4]bool {
		_, p := d.(sharedPreparer)
		_, c := d.(core.Counter)
		_, r := d.(recorderTarget)
		_, s := d.(scheduler)
		return [4]bool{p, c, r, s}
	}
	for _, d := range []core.Detector{core.NewGeosphere(cons), adaptive, kb, linear.NewZF(cons)} {
		w := wrapDetector(d, &callProfile{})
		if has(w) != has(d) {
			t.Errorf("%s: decorator has %v, detector has %v", d.Name(), has(w), has(d))
		}
		if _, ok := w.(core.SharedPreparer); ok != has(d)[0] {
			t.Errorf("%s: core.SharedPreparer forwarded=%v", d.Name(), ok)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 0.991: 100, 0.01: 1, 1: 100} {
		if got := nearestRank(xs, q); got != want {
			t.Errorf("nearestRank(1..100, %g) = %g, want %g", q, got, want)
		}
	}
	if got := nearestRank([]float64{3, 7}, 0.5); got != 3 {
		t.Errorf("median of {3, 7} = %g, want 3 (nearest rank)", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 90, 99, true},
		{10000, 99.9, 10, true},
		{9999, 99, 99, true},
		{19, 0, 0, false},
		{20, 50, 10, true},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %d, %v; want %g, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

// stubServer serves every frame after a fixed delay and refuses the
// refused group.
type stubServer struct {
	delay   time.Duration
	refused uint64
}

func (s stubServer) Process(_ context.Context, group uint64) (serve.Outcome, error) {
	if group == s.refused {
		return serve.Outcome{}, serve.ErrOverload
	}
	time.Sleep(s.delay)
	return serve.Outcome{Group: group, OK: true}, nil
}

func TestOpenLoopAccounting(t *testing.T) {
	srv := stubServer{delay: 4 * time.Millisecond, refused: 3}
	next := uint64(0)
	pick := func() uint64 { next++; return next % 5 }
	// One waiter and a 1 ms schedule against a 4 ms service: the
	// generator falls ever further behind its schedule.
	reqs := openLoop(context.Background(), srv, 1000, 40*time.Millisecond, 1, pick)
	if len(reqs) != 40 {
		t.Fatalf("%d requests offered, want 40", len(reqs))
	}
	for i := range reqs {
		r := &reqs[i]
		if r.group == srv.refused {
			if r.err == nil || r.latency() != time.Duration(math.MaxInt64) {
				t.Errorf("refused request %d: err=%v latency=%v, want a miss with infinite latency", i, r.err, r.latency())
			}
			continue
		}
		// Measured from the due time, latency includes the time the
		// request waited for the stalled generator, not only its service.
		if late := r.issued.Sub(r.due); r.latency() < late+srv.delay {
			t.Errorf("request %d: latency %v below lateness %v plus service %v", i, r.latency(), late, srv.delay)
		}
	}
	last := &reqs[len(reqs)-2] // group 4, served
	if late := last.issued.Sub(last.due); late < 50*time.Millisecond {
		t.Errorf("generator lateness at the end is %v; a stalled service must show as lateness", late)
	}
	lat := latencies(reqs)
	if misses := sloMisses(lat, 1000*time.Millisecond); misses != 8 {
		t.Errorf("%d misses of a 1 s limit, want the 8 refused frames", misses)
	}
}

// wrongDetector corrupts the first stream's decision of every vector.
type wrongDetector struct{ core.Detector }

func (d wrongDetector) Detect(dst []int, y []complex128) ([]int, error) {
	out, err := d.Detector.Detect(dst, y)
	if err == nil {
		out[0] = (out[0] + 1) % d.Constellation().Size()
	}
	return out, err
}

func TestWrongDetectorFailsCheck(t *testing.T) {
	w := linkWorkloads[0]
	p, err := w.build(5)
	if err != nil {
		t.Fatal(err)
	}
	wrong := wrongDetector{core.NewGeosphere(w.cons)}
	var frames []replayFrame
	for i := 0; i < 3; i++ {
		f, err := p.frame(wrong)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	r := newResult(w.name, 5)
	w.check(r, 5, frames, "wrong")
	if r.Correct {
		t.Fatalf("a corrupting detector passed the check: %v", r.Checks)
	}
}

func TestServeCheckCatchesWrongOutcome(t *testing.T) {
	s := tinyServe()
	ctx := context.Background()
	inst, err := s.build(ctx, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.srv.Close()
	out, err := inst.srv.Process(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := &phase{name: "light", reqs: []request{{group: 5, out: out}}}
	r := newResult(s.name, 9)
	s.check(r, 9, []*phase{good}, "served")
	if !r.Correct {
		t.Fatalf("a served frame failed its replay: %v", r.Checks)
	}
	out.StreamErrors++
	out.OK = false
	bad := &phase{name: "light", reqs: []request{{group: 5, out: out}}}
	s.check(r, 9, []*phase{bad}, "tampered")
	if r.Correct {
		t.Fatal("a tampered outcome passed the replay check")
	}
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d registered", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, e, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d registered", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %d: %+v, want %+v", i, e, d)
		}
	}
}
