package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Recorder receives observability samples from the detection, decoding,
// link and simulation layers. Implementations must be safe for
// concurrent use (one Recorder is shared across every worker of a
// parallel run) and must not retain the slices inside a sample beyond
// the call — they alias the producer's preallocated scratch.
//
// Nop is the cheap default; StatsRecorder aggregates everything into a
// Snapshot; Progress emits periodic one-line summaries; Multi fans out.
type Recorder interface {
	// RecordDetect reports one completed Detect call.
	RecordDetect(DetectSample)
	// RecordDecode reports one Viterbi stream decode.
	RecordDecode(DecodeSample)
	// RecordFrame reports one completed link-layer frame.
	RecordFrame(FrameSample)
	// RecordPoint reports one completed sweep measurement point.
	RecordPoint(PointSample)
}

// Target is implemented by components (detectors, pipelines) that can
// stream samples to a Recorder.
type Target interface {
	SetRecorder(Recorder)
}

// LevelSample is one tree level's share of a Detect call, using the
// §5.3 accounting: expanded nodes, exact PED computations, geometric
// bound-table checks, and prune events (backtracks — the sibling
// enumeration at this level ended because every remaining child lies
// outside the sphere, or the level was exhausted).
type LevelSample struct {
	Nodes       int64 `json:"nodes"`
	PEDCalcs    int64 `json:"ped_calcs"`
	BoundChecks int64 `json:"bound_checks"`
	Prunes      int64 `json:"prunes"`
}

// DetectSample is one Detect call. Levels[0] is the bottom of the tree
// (the last-detected stream); the slice is borrowed and only valid
// during the RecordDetect call.
type DetectSample struct {
	// Detector is the detector's Name().
	Detector string
	// Levels holds the per-tree-level counter deltas for this call.
	Levels []LevelSample
}

// DecodeSample is one Viterbi stream decode.
type DecodeSample struct {
	// Stream is the spatial stream index within the frame.
	Stream int
	// PathMetric is the winning trellis path metric normalized per
	// coded bit (higher = cleaner reception).
	PathMetric float64
	// OK reports whether the stream's CRC verified.
	OK bool
	// Bypassed reports that the stream arrived as an exact codeword and
	// was decoded by inverting the encoder, skipping the Viterbi
	// add-compare-select recursion (which would have returned the same
	// bits and metric).
	Bypassed bool
	// ACSLanes is the number of streams the add-compare-select call
	// that decoded this stream served at once (1..MaxACSLanes): 0 when
	// the stream was bypassed, 1 for a one-codeword recursion.
	ACSLanes int
}

// MaxACSLanes is the largest ACSLanes a decoder reports: one lane-
// parallel add-compare-select pass serves at most four codewords.
const MaxACSLanes = 4

// Tier identifies which rung of the overload-degradation ladder served
// a frame: the full Geosphere search, the bounded K-best search, or
// plain ZF. TierNone marks pipelines outside the ladder (the batch
// measurement path).
type Tier uint8

// Degradation-ladder tiers, in decreasing complexity order.
const (
	TierNone Tier = iota
	TierGeosphere
	TierKBest
	TierZF
	numTiers
)

// String returns the tier's snapshot label.
func (t Tier) String() string {
	switch t {
	case TierGeosphere:
		return "geosphere"
	case TierKBest:
		return "kbest"
	case TierZF:
		return "zf"
	default:
		return "none"
	}
}

// FrameSample is one completed link-layer frame.
type FrameSample struct {
	// Frame is the frame index within the run.
	Frame int
	// Worker identifies the pipeline worker that detected the frame.
	Worker int
	// Tier is the degradation-ladder rung that served the frame;
	// TierNone outside the ladder.
	Tier Tier
	// Duration is the frame's wall-clock processing time. For a frame
	// served in a batch it is the batch duration divided by the batch
	// size — per-frame shares of a fused sweep are not separable.
	Duration time.Duration
	// Batch is the size of the micro-batch the frame was served in;
	// 0 or 1 both mean the frame ran through the single-frame path.
	Batch int
	// OK reports whether every stream's CRC verified.
	OK bool
	// Streams and StreamErrors count the frame's spatial streams and
	// how many of them failed.
	Streams      int
	StreamErrors int
	// PrepHits and PrepMisses count this frame's channel-preparation
	// cache outcomes (per-subcarrier PreparedChannel reuse vs refill).
	// Both are zero when the pipeline runs without a prep pool.
	PrepHits   uint64
	PrepMisses uint64
	// ProjReuse counts interference-projection terms the frame's tree
	// searches served from the incremental projection stack instead of
	// recomputing (core.Stats.ProjReuse delta).
	ProjReuse int64
	// QRUpdates counts channel preparations this frame absorbed with
	// rank-1 QR updates instead of full refactorizations. Zero unless
	// the pipeline enables incremental preparation.
	QRUpdates uint64
	// SchedZF, SchedKBest and SchedSphere count the condition-adaptive
	// scheduler's tier assignments this frame (one per detector
	// preparation call); GatePass, KBestFallbacks and SphereFallbacks
	// split the frame's Detect calls by how each vector was resolved,
	// and SeededRadius counts the sphere escalations that started from
	// the ZF-residual radius. All zero when adaptive detection is off.
	SchedZF, SchedKBest, SchedSphere uint64
	GatePass, KBestFallbacks         uint64
	SphereFallbacks, SeededRadius    uint64
	// Kappa2dB holds the per-subcarrier diagonal condition estimates
	// (dB) of the frame's prepared channels; entries may be NaN for
	// unfilled cache slots. Like Levels, the slice is borrowed producer
	// scratch, only valid during the RecordFrame call. Empty when the
	// pipeline runs without a prep pool or with adaptive detection off.
	Kappa2dB []float64
}

// PointSample is one completed sweep measurement point (one
// detector/constellation/SNR cell of an experiment).
type PointSample struct {
	Label         string  `json:"label"`
	Detector      string  `json:"detector"`
	Constellation string  `json:"constellation"`
	SNRdB         float64 `json:"snr_db"`
	Frames        int     `json:"frames"`
	FER           float64 `json:"fer"`
	NetMbps       float64 `json:"net_mbps"`
	PEDCalcs      int64   `json:"ped_calcs"`
	VisitedNodes  int64   `json:"visited_nodes"`
}

// Nop is the no-op Recorder: every method returns immediately.
type Nop struct{}

var _ Recorder = Nop{}

// RecordDetect implements Recorder.
func (Nop) RecordDetect(DetectSample) {}

// RecordDecode implements Recorder.
func (Nop) RecordDecode(DecodeSample) {}

// RecordFrame implements Recorder.
func (Nop) RecordFrame(FrameSample) {}

// RecordPoint implements Recorder.
func (Nop) RecordPoint(PointSample) {}

// Fold canonicalizes a Recorder for storage in a hot-path struct:
// nil, Nop and an empty Multi all fold to nil, so callers can gate
// every emission on a single `rec != nil` branch instead of paying an
// interface dispatch into a no-op. A Multi with exactly one element
// folds to that element (recursively). Every SetRecorder in the repo
// is expected to store Fold(r), not r — the recorderhygiene analyzer
// enforces this.
func Fold(r Recorder) Recorder {
	switch v := r.(type) {
	case nil:
		return nil
	case Nop:
		return nil
	case *Nop:
		return nil
	case Multi:
		kept := make(Multi, 0, len(v))
		for _, sub := range v {
			if f := Fold(sub); f != nil {
				kept = append(kept, f)
			}
		}
		switch len(kept) {
		case 0:
			return nil
		case 1:
			return kept[0]
		default:
			return kept
		}
	default:
		return r
	}
}

// Multi fans every sample out to each recorder in order.
type Multi []Recorder

var _ Recorder = Multi{}

// RecordDetect implements Recorder.
func (m Multi) RecordDetect(s DetectSample) {
	for _, r := range m {
		r.RecordDetect(s)
	}
}

// RecordDecode implements Recorder.
func (m Multi) RecordDecode(s DecodeSample) {
	for _, r := range m {
		r.RecordDecode(s)
	}
}

// RecordFrame implements Recorder.
func (m Multi) RecordFrame(s FrameSample) {
	for _, r := range m {
		r.RecordFrame(s)
	}
}

// RecordPoint implements Recorder.
func (m Multi) RecordPoint(s PointSample) {
	for _, r := range m {
		r.RecordPoint(s)
	}
}

// MaxLevels bounds the per-level counter arrays of StatsRecorder;
// deeper levels (beyond any shape in the evaluation — the largest is
// the 10×10 system of Figure 13) fold into the last slot.
const MaxLevels = 16

// maxWorkers bounds the per-worker timing array; higher worker ids
// fold into the last slot.
const maxWorkers = 64

// levelCounters aggregates one tree level across Detect calls.
type levelCounters struct {
	nodes, peds, bounds, prunes Counter
}

// workerCounters aggregates one pipeline worker's activity.
type workerCounters struct {
	frames    Counter
	busyNanos Counter
}

// StatsRecorder aggregates every sample into atomic counters and
// fixed-bucket histograms, safe for concurrent use and allocation-free
// on the RecordDetect/RecordDecode/RecordFrame hot paths. Snapshot
// publishes the accumulated state.
type StatsRecorder struct {
	start time.Time

	// Detection.
	detects Counter
	levels  [MaxLevels]levelCounters
	// pedPerDetect buckets the exact-PED count of each Detect call,
	// the per-subcarrier quantity of Figures 14 and 15.
	pedPerDetect *Histogram
	// pruneDepth buckets the tree level of every prune event: mass at
	// high levels means whole subtrees died early.
	pruneDepth *Histogram

	// Decoding.
	decodes     Counter
	crcFailures Counter
	bypassed    Counter
	// acsStreams[n] counts streams decoded by an n-lane ACS call. The n
	// streams of one call report the same n, so the call count is
	// Σ acsStreams[n]/n.
	acsStreams [MaxACSLanes + 1]Counter
	// pathMetric buckets the per-coded-bit winning Viterbi path metric.
	pathMetric *Histogram

	// Link.
	frames       Counter
	frameErrors  Counter
	streams      Counter
	streamErrors Counter
	prepHits     Counter
	prepMisses   Counter
	projReuse    Counter
	qrUpdates    Counter
	tiers        [numTiers]Counter
	workers      [maxWorkers]workerCounters

	// Condition-adaptive scheduling.
	schedZF         Counter
	schedKBest      Counter
	schedSphere     Counter
	gatePass        Counter
	kbestFallbacks  Counter
	sphereFallbacks Counter
	seededRadius    Counter
	// kappa2dB buckets the per-subcarrier diagonal condition estimates
	// the adaptive runs observed (NaN entries are skipped).
	kappa2dB *Histogram

	mu     sync.Mutex
	points []PointSample
}

var _ Recorder = (*StatsRecorder)(nil)

// NewStatsRecorder returns an empty aggregating recorder.
func NewStatsRecorder() *StatsRecorder {
	return &StatsRecorder{
		start:        time.Now(),
		pedPerDetect: NewHistogram(4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
		pruneDepth:   NewHistogram(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
		pathMetric:   NewHistogram(0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 3),
		kappa2dB:     NewHistogram(0, 3, 6, 9, 12, 15, 18, 21, 24, 30, 40),
	}
}

// RecordDetect implements Recorder.
//
//geolint:noalloc
func (r *StatsRecorder) RecordDetect(s DetectSample) {
	r.detects.Inc()
	var peds int64
	for l := range s.Levels {
		ls := &s.Levels[l]
		slot := l
		if slot >= MaxLevels {
			slot = MaxLevels - 1
		}
		lc := &r.levels[slot]
		lc.nodes.Add(ls.Nodes)
		lc.peds.Add(ls.PEDCalcs)
		lc.bounds.Add(ls.BoundChecks)
		lc.prunes.Add(ls.Prunes)
		peds += ls.PEDCalcs
		r.pruneDepth.ObserveN(float64(l), ls.Prunes)
	}
	r.pedPerDetect.Observe(float64(peds))
}

// RecordDecode implements Recorder.
//
//geolint:noalloc
func (r *StatsRecorder) RecordDecode(s DecodeSample) {
	r.decodes.Inc()
	if !s.OK {
		r.crcFailures.Inc()
	}
	if s.Bypassed {
		r.bypassed.Inc()
	}
	if n := s.ACSLanes; n > 0 && n <= MaxACSLanes {
		r.acsStreams[n].Inc()
	}
	r.pathMetric.Observe(s.PathMetric)
}

// RecordFrame implements Recorder.
//
//geolint:noalloc
func (r *StatsRecorder) RecordFrame(s FrameSample) {
	r.frames.Inc()
	if !s.OK {
		r.frameErrors.Inc()
	}
	r.streams.Add(int64(s.Streams))
	r.streamErrors.Add(int64(s.StreamErrors))
	r.prepHits.Add(int64(s.PrepHits))
	r.prepMisses.Add(int64(s.PrepMisses))
	r.projReuse.Add(s.ProjReuse)
	r.qrUpdates.Add(int64(s.QRUpdates))
	r.schedZF.Add(int64(s.SchedZF))
	r.schedKBest.Add(int64(s.SchedKBest))
	r.schedSphere.Add(int64(s.SchedSphere))
	r.gatePass.Add(int64(s.GatePass))
	r.kbestFallbacks.Add(int64(s.KBestFallbacks))
	r.sphereFallbacks.Add(int64(s.SphereFallbacks))
	r.seededRadius.Add(int64(s.SeededRadius))
	for _, k := range s.Kappa2dB {
		if !math.IsNaN(k) {
			r.kappa2dB.Observe(k)
		}
	}
	t := s.Tier
	if t >= numTiers {
		t = TierNone
	}
	r.tiers[t].Inc()
	w := s.Worker
	if w < 0 {
		w = 0
	}
	if w >= maxWorkers {
		w = maxWorkers - 1
	}
	r.workers[w].frames.Inc()
	r.workers[w].busyNanos.Add(int64(s.Duration))
}

// RecordPoint implements Recorder.
//
//geolint:noalloc
func (r *StatsRecorder) RecordPoint(s PointSample) {
	r.mu.Lock()
	r.points = append(r.points, s)
	r.mu.Unlock()
}

// LevelSnapshot is one tree level's aggregated counters.
type LevelSnapshot struct {
	Level       int   `json:"level"`
	Nodes       int64 `json:"nodes"`
	PEDCalcs    int64 `json:"ped_calcs"`
	BoundChecks int64 `json:"bound_checks"`
	Prunes      int64 `json:"prunes"`
}

// DetectSnapshot aggregates the detection layer.
type DetectSnapshot struct {
	Detects      int64             `json:"detects"`
	VisitedNodes int64             `json:"visited_nodes"`
	PEDCalcs     int64             `json:"ped_calcs"`
	BoundChecks  int64             `json:"bound_checks"`
	Prunes       int64             `json:"prunes"`
	Levels       []LevelSnapshot   `json:"levels"`
	PEDPerDetect HistogramSnapshot `json:"ped_per_detect"`
	PruneDepth   HistogramSnapshot `json:"prune_depth"`
}

// DecodeSnapshot aggregates the FEC layer. Bypassed counts the
// streams that arrived as exact codewords and skipped the Viterbi
// add-compare-select recursion. ACSCalls counts add-compare-select
// recursions and ACSLanes the streams they decoded, so
// ACSLanes/ACSCalls is the mean lane fill: how well the decoder
// batches its error-carrying streams.
type DecodeSnapshot struct {
	Decodes     int64             `json:"decodes"`
	CRCFailures int64             `json:"crc_failures"`
	Bypassed    int64             `json:"bypassed"`
	ACSCalls    int64             `json:"acs_calls"`
	ACSLanes    int64             `json:"acs_lanes"`
	PathMetric  HistogramSnapshot `json:"path_metric"`
}

// FrameSnapshot aggregates the link layer. PrepareHits and
// PrepareMisses total the channel-preparation cache outcomes across
// all workers; their sum is the number of detector preparations, and
// the hit fraction is the cache's effectiveness for the run.
// ProjReuse totals the interference-projection terms the tree searches
// served from their incremental projection stacks, and QRUpdates the
// preparations absorbed by rank-1 QR updates instead of full
// refactorizations. Tiers splits the frames by degradation-ladder
// rung (all mass on "none" outside the serving path).
type FrameSnapshot struct {
	Frames        int64            `json:"frames"`
	FrameErrors   int64            `json:"frame_errors"`
	Streams       int64            `json:"streams"`
	StreamErrors  int64            `json:"stream_errors"`
	PrepareHits   int64            `json:"prepare_hits"`
	PrepareMisses int64            `json:"prepare_misses"`
	ProjReuse     int64            `json:"proj_reuse"`
	QRUpdates     int64            `json:"qr_updates"`
	Tiers         TierSnapshot     `json:"tiers"`
	Adaptive      AdaptiveSnapshot `json:"adaptive"`
	BusySeconds   float64          `json:"busy_seconds"`
}

// AdaptiveSnapshot aggregates the condition-adaptive scheduler:
// per-subcarrier tier assignments (Sched*), per-vector resolutions
// (GatePass emitted the provably-ML ZF decision; the fallbacks ran the
// scheduled tree search, SeededRadius of the sphere ones starting from
// the ZF-residual radius), and the observed κ̂² distribution in dB.
// All-zero when adaptive detection is off.
type AdaptiveSnapshot struct {
	SchedZF         int64             `json:"sched_zf"`
	SchedKBest      int64             `json:"sched_kbest"`
	SchedSphere     int64             `json:"sched_sphere"`
	GatePass        int64             `json:"gate_pass"`
	KBestFallbacks  int64             `json:"kbest_fallbacks"`
	SphereFallbacks int64             `json:"sphere_fallbacks"`
	SeededRadius    int64             `json:"seeded_radius"`
	Kappa2dB        HistogramSnapshot `json:"kappa2_db"`
}

// TierSnapshot counts frames per degradation-ladder rung.
type TierSnapshot struct {
	None      int64 `json:"none"`
	Geosphere int64 `json:"geosphere"`
	KBest     int64 `json:"kbest"`
	ZF        int64 `json:"zf"`
}

// WorkerSnapshot is one pipeline worker's activity.
type WorkerSnapshot struct {
	Worker      int     `json:"worker"`
	Frames      int64   `json:"frames"`
	BusySeconds float64 `json:"busy_seconds"`
}

// Snapshot is the serializable state of a StatsRecorder; its JSON
// encoding is the `geosim -stats json` schema, pinned by a golden
// test.
type Snapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Detect        DetectSnapshot   `json:"detect"`
	Decode        DecodeSnapshot   `json:"decode"`
	Frames        FrameSnapshot    `json:"frames"`
	Workers       []WorkerSnapshot `json:"workers"`
	Points        []PointSample    `json:"points"`
}

// Snapshot returns a point-in-time copy of the accumulated state.
// Counters are individually atomic but not mutually consistent while
// producers are still running.
func (r *StatsRecorder) Snapshot() Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Detect: DetectSnapshot{
			Detects:      r.detects.Load(),
			PEDPerDetect: r.pedPerDetect.Snapshot(),
			PruneDepth:   r.pruneDepth.Snapshot(),
		},
		Decode: DecodeSnapshot{
			Decodes:     r.decodes.Load(),
			CRCFailures: r.crcFailures.Load(),
			Bypassed:    r.bypassed.Load(),
			PathMetric:  r.pathMetric.Snapshot(),
		},
		Frames: FrameSnapshot{
			Frames:        r.frames.Load(),
			FrameErrors:   r.frameErrors.Load(),
			Streams:       r.streams.Load(),
			StreamErrors:  r.streamErrors.Load(),
			PrepareHits:   r.prepHits.Load(),
			PrepareMisses: r.prepMisses.Load(),
			ProjReuse:     r.projReuse.Load(),
			QRUpdates:     r.qrUpdates.Load(),
			Tiers: TierSnapshot{
				None:      r.tiers[TierNone].Load(),
				Geosphere: r.tiers[TierGeosphere].Load(),
				KBest:     r.tiers[TierKBest].Load(),
				ZF:        r.tiers[TierZF].Load(),
			},
			Adaptive: AdaptiveSnapshot{
				SchedZF:         r.schedZF.Load(),
				SchedKBest:      r.schedKBest.Load(),
				SchedSphere:     r.schedSphere.Load(),
				GatePass:        r.gatePass.Load(),
				KBestFallbacks:  r.kbestFallbacks.Load(),
				SphereFallbacks: r.sphereFallbacks.Load(),
				SeededRadius:    r.seededRadius.Load(),
				Kappa2dB:        r.kappa2dB.Snapshot(),
			},
		},
		Workers: []WorkerSnapshot{},
		Points:  []PointSample{},
	}
	for n := 1; n <= MaxACSLanes; n++ {
		streams := r.acsStreams[n].Load()
		s.Decode.ACSLanes += streams
		s.Decode.ACSCalls += streams / int64(n)
	}
	top := -1
	for l := range r.levels {
		if r.levels[l].nodes.Load() > 0 || r.levels[l].prunes.Load() > 0 {
			top = l
		}
	}
	s.Detect.Levels = make([]LevelSnapshot, 0, top+1)
	for l := 0; l <= top; l++ {
		lc := &r.levels[l]
		ls := LevelSnapshot{
			Level:       l,
			Nodes:       lc.nodes.Load(),
			PEDCalcs:    lc.peds.Load(),
			BoundChecks: lc.bounds.Load(),
			Prunes:      lc.prunes.Load(),
		}
		s.Detect.Levels = append(s.Detect.Levels, ls)
		s.Detect.VisitedNodes += ls.Nodes
		s.Detect.PEDCalcs += ls.PEDCalcs
		s.Detect.BoundChecks += ls.BoundChecks
		s.Detect.Prunes += ls.Prunes
	}
	for w := range r.workers {
		wf := r.workers[w].frames.Load()
		if wf == 0 {
			continue
		}
		busy := float64(r.workers[w].busyNanos.Load()) / 1e9
		s.Workers = append(s.Workers, WorkerSnapshot{Worker: w, Frames: wf, BusySeconds: busy})
		s.Frames.BusySeconds += busy
	}
	r.mu.Lock()
	s.Points = append(s.Points, r.points...)
	r.mu.Unlock()
	return s
}

// WriteText renders the snapshot as a human-readable report.
func (s Snapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "observability snapshot (%.1fs)\n", s.UptimeSeconds)
	d := s.Detect
	fmt.Fprintf(w, "  detect: %d calls, %d nodes, %d PEDs (%.1f/detect), %d bound checks, %d prunes\n",
		d.Detects, d.VisitedNodes, d.PEDCalcs, d.PEDPerDetect.Mean(), d.BoundChecks, d.Prunes)
	for _, l := range d.Levels {
		fmt.Fprintf(w, "    level %2d: %10d nodes %10d PEDs %10d bounds %10d prunes\n",
			l.Level, l.Nodes, l.PEDCalcs, l.BoundChecks, l.Prunes)
	}
	laneFill := 0.0
	if s.Decode.ACSCalls > 0 {
		laneFill = float64(s.Decode.ACSLanes) / float64(s.Decode.ACSCalls)
	}
	fmt.Fprintf(w, "  decode: %d streams, %d CRC failures, %d bypassed, %d ACS calls (%.2f lanes/call), path metric mean %.3f/bit\n",
		s.Decode.Decodes, s.Decode.CRCFailures, s.Decode.Bypassed, s.Decode.ACSCalls, laneFill, s.Decode.PathMetric.Mean())
	fmt.Fprintf(w, "  frames: %d (%d errors), %d streams (%d errors), %.2fs busy\n",
		s.Frames.Frames, s.Frames.FrameErrors, s.Frames.Streams, s.Frames.StreamErrors, s.Frames.BusySeconds)
	if total := s.Frames.PrepareHits + s.Frames.PrepareMisses + s.Frames.QRUpdates; total > 0 {
		fmt.Fprintf(w, "  prepare cache: %d hits / %d preparations (%.1f%% hit rate), %d QR updates\n",
			s.Frames.PrepareHits, total, 100*float64(s.Frames.PrepareHits)/float64(total), s.Frames.QRUpdates)
	}
	if s.Frames.ProjReuse > 0 {
		fmt.Fprintf(w, "  projection stack: %d reused terms\n", s.Frames.ProjReuse)
	}
	if tt := s.Frames.Tiers; tt.Geosphere+tt.KBest+tt.ZF > 0 {
		fmt.Fprintf(w, "  tiers: %d geosphere, %d kbest, %d zf\n", tt.Geosphere, tt.KBest, tt.ZF)
	}
	if ad := s.Frames.Adaptive; ad.SchedZF+ad.SchedKBest+ad.SchedSphere > 0 {
		resolved := ad.GatePass + ad.KBestFallbacks + ad.SphereFallbacks
		rate := 0.0
		if resolved > 0 {
			rate = 100 * float64(ad.GatePass) / float64(resolved)
		}
		fmt.Fprintf(w, "  adaptive: sched %d zf / %d kbest / %d sphere, gate %.1f%% (%d kbest + %d sphere fallbacks, %d seeded), κ̂² mean %.1f dB\n",
			ad.SchedZF, ad.SchedKBest, ad.SchedSphere, rate,
			ad.KBestFallbacks, ad.SphereFallbacks, ad.SeededRadius, ad.Kappa2dB.Mean())
	}
	for _, ws := range s.Workers {
		fmt.Fprintf(w, "    worker %2d: %6d frames %8.2fs busy\n", ws.Worker, ws.Frames, ws.BusySeconds)
	}
	fmt.Fprintf(w, "  points: %d\n", len(s.Points))
	for _, p := range s.Points {
		fmt.Fprintf(w, "    %-40s %-18s %-8s %5.1fdB FER=%.3f %7.2f Mbps %10d PEDs\n",
			p.Label, p.Detector, p.Constellation, p.SNRdB, p.FER, p.NetMbps, p.PEDCalcs)
	}
}

// Progress emits one-line run summaries to w every interval, counting
// frames, points and detects as they stream in. It is safe to share
// across workers. Stop emits a final line and halts the ticker.
type Progress struct {
	w     io.Writer
	start time.Time

	frames      Counter
	frameErrors Counter
	points      Counter
	detects     Counter

	mu   sync.Mutex // serializes writes to w
	done chan struct{}
	wg   sync.WaitGroup
}

var _ Recorder = (*Progress)(nil)

// NewProgress returns a Progress writing to w every interval. An
// interval ≤ 0 disables the ticker; Emit can still be called manually.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	p := &Progress{w: w, start: time.Now(), done: make(chan struct{})}
	if interval > 0 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					p.Emit()
				case <-p.done:
					return
				}
			}
		}()
	}
	return p
}

// RecordDetect implements Recorder.
//
//geolint:noalloc
func (p *Progress) RecordDetect(DetectSample) { p.detects.Inc() }

// RecordDecode implements Recorder.
//
//geolint:noalloc
func (p *Progress) RecordDecode(DecodeSample) {}

// RecordFrame implements Recorder.
//
//geolint:noalloc
func (p *Progress) RecordFrame(s FrameSample) {
	p.frames.Inc()
	if !s.OK {
		p.frameErrors.Inc()
	}
}

// RecordPoint implements Recorder.
//
//geolint:noalloc
func (p *Progress) RecordPoint(PointSample) { p.points.Inc() }

// Emit writes one progress line immediately.
func (p *Progress) Emit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "progress: %s elapsed, %d points, %d frames (%d errors), %d detects\n",
		time.Since(p.start).Round(time.Second), p.points.Load(),
		p.frames.Load(), p.frameErrors.Load(), p.detects.Load())
}

// Stop halts the ticker goroutine and emits a final line. It is
// idempotent only in the sense that calling it twice panics on a
// closed channel; call it once.
func (p *Progress) Stop() {
	close(p.done)
	p.wg.Wait()
	p.Emit()
}
