package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/link"
	"repro/internal/obs"
)

// quickConfig is a small, fast service shape shared by the tests.
func quickConfig() Config {
	return Config{
		Cons:       constellation.QPSK,
		NA:         4,
		NC:         2,
		NumSymbols: 2,
		SNRdB:      30,
		Seed:       7,
		Shards:     2,
		QueueDepth: 8,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{NA: 2, NC: 4}); !errors.Is(err, link.ErrBadShape) {
		t.Fatalf("wide shape accepted: %v", err)
	}
	bad := quickConfig()
	bad.KBestLoad, bad.ZFLoad = 0.8, 0.3
	if _, err := New(bad); !errors.Is(err, ErrBadLadder) {
		t.Fatalf("inverted ladder accepted: %v", err)
	}
	bad = quickConfig()
	bad.KBestLoad, bad.ZFLoad = 0.5, 1.5
	if _, err := New(bad); !errors.Is(err, ErrBadLadder) {
		t.Fatalf("ZFLoad > 1 accepted: %v", err)
	}
}

func TestDefaults(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := s.Config()
	if cfg.Cons == nil || cfg.NA != 4 || cfg.NC != 2 || cfg.Shards != 8 ||
		cfg.QueueDepth != 64 || cfg.BatchMax != 16 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	// MaxGroups is sized from the per-group footprint: at least the old
	// flat 512 cap, and large enough that the recorded 10k-user load
	// (1250 groups/shard) stays resident without thrash.
	if cfg.MaxGroups < 512 {
		t.Fatalf("MaxGroups default %d below the old flat 512 cap", cfg.MaxGroups)
	}
	if cfg.MaxGroups < 1250 {
		t.Fatalf("MaxGroups default %d cannot hold 10k users across 8 shards", cfg.MaxGroups)
	}
}

// TestDeterministicOutcomes pins the serving determinism contract: two
// same-seeded servers produce identical outcomes for the same groups
// in the same per-group order, regardless of shard interleaving.
func TestDeterministicOutcomes(t *testing.T) {
	run := func() []Outcome {
		s, err := New(quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var outs []Outcome
		for _, group := range []uint64{3, 0, 11, 3, 7, 0, 3} {
			o, err := s.Process(context.Background(), group)
			if err != nil {
				t.Fatalf("group %d: %v", group, err)
			}
			outs = append(outs, o)
		}
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d diverged:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
	// Frame keys advance per group: the two frames of group 0 differ.
	if a[1].Frame == a[5].Frame {
		t.Fatalf("group 0 reused frame key %d", a[1].Frame)
	}
	if a[0].Frame == a[3].Frame || a[3].Frame == a[6].Frame {
		t.Fatal("group 3 reused a frame key")
	}
	// Sequential submission never queues, so every frame gets the top tier.
	for i, o := range a {
		if o.Tier != obs.TierGeosphere {
			t.Fatalf("outcome %d served at %v under no load", i, o.Tier)
		}
	}
}

func TestPickTierLadder(t *testing.T) {
	s, err := New(quickConfig()) // ladder defaults: 0.5, 0.85
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nan := math.NaN()
	cases := []struct {
		queued   int
		kappa2dB float64
		want     obs.Tier
	}{
		// Unknown conditioning is neutral: occupancy alone decides.
		{0, nan, obs.TierGeosphere},
		{7, nan, obs.TierGeosphere}, // 7/16 < 0.5
		{8, nan, obs.TierKBest},     // 8/16 = 0.5
		{13, nan, obs.TierKBest},    // 13/16 < 0.85
		{14, nan, obs.TierZF},       // 14/16 >= 0.85
		{16, nan, obs.TierZF},
		// Poorly-conditioned groups (κ̂² ≥ KappaHighDB = 18) behave as
		// occupancy-only: they keep the full search the longest.
		{7, 25, obs.TierGeosphere},
		{13, 25, obs.TierKBest},
		// Well-conditioned groups (κ̂² ≤ KappaLowDB = 6) carry the full
		// bias 0.25: idle shards still serve Geosphere, but the ladder
		// sheds them 0.25 occupancy earlier on both rungs.
		{0, 3, obs.TierGeosphere}, // 0 + 0.25 < 0.5
		{4, 3, obs.TierKBest},     // 4/16 + 0.25 = 0.5
		{9, 3, obs.TierKBest},     // 9/16 + 0.25 < 0.85
		{10, 3, obs.TierZF},       // 10/16 + 0.25 >= 0.85
		// Mid-band conditioning interpolates: κ̂² = 12 dB is halfway, so
		// the effective bias is 0.125 and 6/16 + 0.125 lands exactly on
		// the strict 0.5 boundary — degraded to K-best.
		{6, 12, obs.TierKBest},
		{5, 12, obs.TierGeosphere}, // 5/16 + 0.125 < 0.5
	}
	for _, c := range cases {
		if got := s.pickTier(c.queued, 16, c.kappa2dB); got != c.want {
			t.Fatalf("pickTier(%d, 16, %g) = %v, want %v", c.queued, c.kappa2dB, got, c.want)
		}
	}
}

// TestAdmissionControl verifies that overload sheds via ErrOverload
// instead of queueing unboundedly. The overload is constructed
// deterministically: the single shard's worker is wedged by
// withholding the read of an unbuffered reply channel, the ring is
// filled to capacity behind it, and only then is Process asked to
// admit.
func TestAdmissionControl(t *testing.T) {
	cfg := quickConfig()
	cfg.Shards = 1
	cfg.QueueDepth = 1 // the ring rounds this up to its minimum of 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Unbuffered: the shard goroutine blocks delivering the first job's
	// outcome until this test reads it. Wait for the shard to pop the
	// job (the ring drains the instant the shard wakes), then fill the
	// ring to capacity behind the wedged worker.
	wedge := make(chan Outcome)
	sh := s.shards[0]
	if err := sh.ring.TryPush(job{group: 0, reply: wedge}); err != nil {
		t.Fatal(err)
	}
	for sh.ring.Len() != 0 {
		runtime.Gosched()
	}
	queued := sh.ring.Cap()
	for i := 0; i < queued; i++ {
		if err := sh.ring.TryPush(job{group: 0, reply: wedge}); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := s.Process(context.Background(), 0); !errors.Is(err, ErrOverload) {
		t.Fatalf("full ring admitted a frame: %v", err)
	}
	// ErrOverload is also the link-layer queue-full signal.
	if !errors.Is(ErrOverload, link.ErrQueueFull) {
		t.Fatal("ErrOverload does not wrap link.ErrQueueFull")
	}
	if snap := s.Stats().Snapshot(); snap.Rejected != 1 {
		t.Fatalf("stats counted %d rejects, want 1", snap.Rejected)
	}

	// Unwedge, drain every withheld outcome, and confirm the service
	// recovers.
	for i := 0; i < queued+1; i++ {
		<-wedge
	}
	if _, err := s.Process(context.Background(), 0); err != nil {
		t.Fatalf("service did not recover after overload: %v", err)
	}
	snap := s.Stats().Snapshot()
	if snap.Submitted != 1 {
		t.Fatalf("stats counted %d admissions, want 1", snap.Submitted)
	}
}

// TestGroupEviction pins the LRU bound on resident group state.
func TestGroupEviction(t *testing.T) {
	cfg := quickConfig()
	cfg.Shards = 1
	cfg.MaxGroups = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, group := range []uint64{0, 1, 2, 3, 4} {
		if _, err := s.Process(context.Background(), group); err != nil {
			t.Fatalf("group %d: %v", group, err)
		}
	}
	snap := s.Stats().Snapshot()
	if snap.GroupsCreated != 5 {
		t.Fatalf("created %d groups, want 5", snap.GroupsCreated)
	}
	if snap.GroupsEvicted != 3 {
		t.Fatalf("evicted %d groups, want 3", snap.GroupsEvicted)
	}
	if n := len(s.shards[0].groups); n != 2 {
		t.Fatalf("%d resident groups, want 2", n)
	}
	// Group 4 was just served; it must still be resident, and serving it
	// again must not create a new group.
	if _, err := s.Process(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if snap := s.Stats().Snapshot(); snap.GroupsCreated != 5 {
		t.Fatalf("revisiting a resident group created state: %d", snap.GroupsCreated)
	}
	// An evicted group returning is rebuilt with its sequence restarted:
	// same first frame key as its very first visit.
	o, err := s.Process(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Frame != frameKey(0, 0) {
		t.Fatalf("rebuilt group 0 resumed at frame key %d, want %d", o.Frame, frameKey(0, 0))
	}
}

func TestServerClosed(t *testing.T) {
	s, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Process(context.Background(), 1); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("closed server accepted a frame: %v", err)
	}
}

func TestRunLoadReport(t *testing.T) {
	s, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep := RunLoad(context.Background(), s, LoadConfig{Users: 8, FramesPerUser: 2})
	if rep.Users != 8 || rep.FramesPerUser != 2 {
		t.Fatalf("config not echoed: %+v", rep)
	}
	if rep.FramesOffered != 16 {
		t.Fatalf("offered %d frames, want 16", rep.FramesOffered)
	}
	if rep.FramesServed+rep.Dropped != rep.FramesOffered {
		t.Fatalf("served %d + dropped %d != offered %d", rep.FramesServed, rep.Dropped, rep.FramesOffered)
	}
	if rep.FramesServed > 0 && rep.OfferedPerSec < rep.FramesPerSec {
		t.Fatalf("offered rate %g below served rate %g", rep.OfferedPerSec, rep.FramesPerSec)
	}
	if rep.FramesServed > 0 {
		if rep.FramesPerSec <= 0 {
			t.Fatalf("no throughput: %+v", rep)
		}
		if rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99 {
			t.Fatalf("latency quantiles out of order: %+v", rep.Latency)
		}
		total := rep.Tiers.None + rep.Tiers.Geosphere + rep.Tiers.KBest + rep.Tiers.ZF
		if total != rep.FramesServed {
			t.Fatalf("tier counts sum to %d, served %d", total, rep.FramesServed)
		}
	}
}

// TestRetryWait pins the jittered exponential backoff schedule: the
// wait doubles from Backoff, stays within the ±50% jitter envelope,
// never exceeds BackoffMax, and is deterministic per (seed, user).
func TestRetryWait(t *testing.T) {
	lc := LoadConfig{Backoff: time.Millisecond, BackoffMax: 8 * time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		base := time.Millisecond << attempt
		if base > lc.BackoffMax {
			base = lc.BackoffMax
		}
		src := newJitterStream(42, 7)
		for i := 0; i < attempt; i++ {
			// Advance the stream the way a real retry sequence would.
			lc.retryWait(src, i)
		}
		d := lc.retryWait(src, attempt)
		if d < base/2 || d > lc.BackoffMax {
			t.Fatalf("attempt %d: wait %v outside [%v, %v]", attempt, d, base/2, lc.BackoffMax)
		}
	}
	// Same seed, same schedule.
	a, b := newJitterStream(9, 3), newJitterStream(9, 3)
	for i := 0; i < 5; i++ {
		if lc.retryWait(a, i) != lc.retryWait(b, i) {
			t.Fatalf("attempt %d: jitter schedule not deterministic", i)
		}
	}
}

// TestRunLoadOpenLoop drives the arrival-rate mode: offered load is
// fixed by the clock, rejects are never retried, and the report
// separates offered from served throughput.
func TestRunLoadOpenLoop(t *testing.T) {
	s, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep := RunLoad(context.Background(), s, LoadConfig{
		Users:         4,
		FramesPerUser: 3,
		ArrivalRate:   2000, // 4 users / 2000 fps → 2ms period, fast test
	})
	if rep.FramesOffered != 12 {
		t.Fatalf("offered %d frames, want 12", rep.FramesOffered)
	}
	if rep.FramesServed+rep.Dropped != rep.FramesOffered {
		t.Fatalf("served %d + dropped %d != offered %d", rep.FramesServed, rep.Dropped, rep.FramesOffered)
	}
	// Open-loop rejects drop without retry: rejects == dropped frames.
	if rep.Rejects != rep.Dropped {
		t.Fatalf("open-loop retried: %d rejects for %d drops", rep.Rejects, rep.Dropped)
	}
	if rep.ArrivalRate != 2000 { //geolint:float-ok exact echo of the configured rate, not a computed float
		t.Fatalf("arrival rate not echoed: %+v", rep.ArrivalRate)
	}
}

func TestQuantileExact(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantileExact(sorted, 0.5); q != 5 { //geolint:float-ok nearest-rank picks an exact sample value, not a computed float
		t.Fatalf("p50 = %g", q)
	}
	if q := quantileExact(sorted, 0.99); q != 10 { //geolint:float-ok nearest-rank picks an exact sample value, not a computed float
		t.Fatalf("p99 = %g", q)
	}
	if q := quantileExact(nil, 0.5); q != 0 { //geolint:float-ok empty-sample sentinel is an exact zero
		t.Fatalf("empty sample p50 = %g", q)
	}
}

func TestHandler(t *testing.T) {
	pipeline := obs.NewStatsRecorder()
	cfg := quickConfig()
	cfg.Recorder = pipeline
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, pipeline))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = ts.Client().Post(ts.URL+"/ingest?group=5&frames=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum ingestSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	if sum.Group != 5 || sum.Served != 3 {
		t.Fatalf("ingest summary: %+v", sum)
	}

	resp, err = ts.Client().Post(ts.URL+"/ingest?group=x", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad group: %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Serve    StatsSnapshot `json:"serve"`
		Pipeline *obs.Snapshot `json:"pipeline"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Serve.Frames != 3 {
		t.Fatalf("stats served %d frames, want 3", stats.Serve.Frames)
	}
	if stats.Pipeline == nil {
		t.Fatal("pipeline snapshot missing from /stats")
	}
	// The quick format decodes cleanly, so an operator sees the streams
	// that skipped the Viterbi recursion.
	if d := stats.Pipeline.Decode; d.Decodes == 0 || d.Bypassed == 0 || d.Bypassed > d.Decodes {
		t.Fatalf("/stats decode section: %d decodes, %d bypassed", d.Decodes, d.Bypassed)
	}
}

// TestGroupIDLimit: the largest group id the frame key holds is served
// with a non-negative key of its own; one past it, and the top of the
// uint64 range, are refused with ErrBadGroup through Process and with
// 400 through /ingest, instead of aliasing a lower group's substreams.
func TestGroupIDLimit(t *testing.T) {
	s, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const last = 1<<43 - 1
	o, err := s.Process(context.Background(), last)
	if err != nil {
		t.Fatalf("group 2^43-1: %v", err)
	}
	if o.Frame < 0 || o.Frame != frameKey(last, 0) || o.Frame>>seqBits != last {
		t.Fatalf("group 2^43-1 served with frame key %d", o.Frame)
	}
	for _, g := range []uint64{1 << 43, 1<<64 - 1} {
		if _, err := s.Process(context.Background(), g); !errors.Is(err, ErrBadGroup) {
			t.Fatalf("group %d: error %v, want ErrBadGroup", g, err)
		}
	}

	ts := httptest.NewServer(NewHandler(s, nil))
	defer ts.Close()
	for _, c := range []struct {
		group  string
		status int
	}{
		{"8796093022207", http.StatusOK}, // 2^43 − 1
		{"8796093022208", http.StatusBadRequest},
		{"18446744073709551615", http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(ts.URL+"/ingest?group="+c.group, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("ingest group=%s: status %d, want %d", c.group, resp.StatusCode, c.status)
		}
	}
}

// TestSeqExhausted: a group's last frame sequence is served with the
// last key it owns; the frame after it fails with ErrSeqExhausted —
// through Process and as 409 through /ingest — instead of wrapping
// onto the group's first substreams.
func TestSeqExhausted(t *testing.T) {
	s, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	const group = 5
	first, err := s.Process(ctx, group)
	if err != nil {
		t.Fatal(err)
	}
	// The reply orders the shard's writes before this read, and the
	// ring push below orders this write before the shard's next read.
	s.shardFor(group).groups[group].seq = seqLimit - 1
	last, err := s.Process(ctx, group)
	if err != nil {
		t.Fatalf("last sequence: %v", err)
	}
	if last.Frame != frameKey(group, seqLimit-1) || last.Frame == first.Frame {
		t.Fatalf("last sequence served with key %d (first frame %d)", last.Frame, first.Frame)
	}
	before := s.Stats().Snapshot()
	o, err := s.Process(ctx, group)
	if !errors.Is(err, ErrSeqExhausted) || !errors.Is(o.Err, ErrSeqExhausted) {
		t.Fatalf("frame past the last sequence: outcome %+v, error %v, want ErrSeqExhausted", o, err)
	}
	after := s.Stats().Snapshot()
	if after.Frames != before.Frames+1 || after.FrameErrors != before.FrameErrors+1 {
		t.Errorf("exhausted frame not counted as a failed frame: %+v → %+v", before, after)
	}
	// Other groups are unaffected.
	if _, err := s.Process(ctx, group+1); err != nil {
		t.Fatalf("neighbouring group: %v", err)
	}

	ts := httptest.NewServer(NewHandler(s, nil))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/ingest?group=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("ingest of an exhausted group: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
}
