package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef is one metric the benchmark reports: its name, unit and
// direction, and for the gated end-to-end set the share of the parent's
// median by which it may worsen before a change counts as a regression.
// BENCHMARK.json lists exactly these definitions (a test pins the two
// together).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the gated metrics every workload reports. The latency
// pair means the frame pipeline's per-call duration on the link
// workloads; on serve-openloop it is the reply latency of the closed
// loop at capacity (p50) and of the light open loop (p99). Bounds are
// 0.25, the largest BENCHMARK.json allows, for every timing: spreads on
// two shared cores reach 0.25 (README.md has the measurements).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "frames_per_s", Unit: "frames/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_peak_mib", Unit: "MiB", Better: "lower", Bound: 0.2},
}

// servePhaseMetrics are the per-phase serving-layer metrics; each is
// reported as serve.<name>.<phase>.
var servePhaseMetrics = []metricDef{
	{Name: "gen_late_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gen_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "queue_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "service_us_p50", Unit: "us", Better: "lower"},
	{Name: "service_us_p99", Unit: "us", Better: "lower"},
	{Name: "batch_mean", Unit: "frames", Better: "higher"},
	{Name: "ring_occupancy_mean", Unit: "frames", Better: "lower"},
	{Name: "reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tier_geosphere_frac", Unit: "ratio", Better: "higher"},
	{Name: "tier_kbest_frac", Unit: "ratio", Better: "lower"},
	{Name: "tier_zf_frac", Unit: "ratio", Better: "lower"},
	{Name: "prepare_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ped_per_detect", Unit: "count", Better: "lower"},
	{Name: "server_latency_p50_ms", Unit: "ms", Better: "lower"},
}

// servePhases names the serve-openloop phases in run order.
var servePhases = []string{"capacity", "light", "heavy"}

// perLayer is the ungated per-layer set the traced run reports, on
// every workload: a layer a workload does not exercise reports 0. The
// first group holds the end-to-end quantities the gated set cannot
// carry (they read 0 on a clean run, or mean a different phase), kept
// here so a traced run still prints them as numbers.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "fer", Unit: "ratio", Better: "lower"},
		{Name: "failed_frac", Unit: "ratio", Better: "lower"},
		{Name: "frame_p50_us", Unit: "us", Better: "lower"},
		{Name: "frame_p99_us", Unit: "us", Better: "lower"},
		{Name: "latency_p50_ms.light", Unit: "ms", Better: "lower"},
		{Name: "latency_p99_ms.light", Unit: "ms", Better: "lower"},
		{Name: "latency_p50_ms.heavy", Unit: "ms", Better: "lower"},
		{Name: "latency_p99_ms.heavy", Unit: "ms", Better: "lower"},
		{Name: "slo_miss_frac.heavy", Unit: "ratio", Better: "lower"},

		{Name: "core.detect_us_per_frame", Unit: "us", Better: "lower"},
		{Name: "core.detect_ns_p50", Unit: "ns", Better: "lower"},
		{Name: "core.detect_ns_p99", Unit: "ns", Better: "lower"},
		{Name: "core.ped_per_detect", Unit: "count", Better: "lower"},
		{Name: "core.nodes_per_detect", Unit: "count", Better: "lower"},
		{Name: "core.bound_checks_per_detect", Unit: "count", Better: "lower"},
		{Name: "core.proj_reuse_per_detect", Unit: "count", Better: "higher"},
		{Name: "core.prepare_us_per_frame", Unit: "us", Better: "lower"},
		{Name: "core.prepare_calls_per_frame", Unit: "count", Better: "lower"},
		{Name: "core.prepare_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.prepare_hit_ns", Unit: "ns", Better: "lower"},
		{Name: "core.prepare_miss_ns", Unit: "ns", Better: "lower"},

		{Name: "policy.gate_pass_ratio", Unit: "ratio", Better: "higher"},
		{Name: "policy.sched_zf_frac", Unit: "ratio", Better: "higher"},
		{Name: "policy.sched_kbest_frac", Unit: "ratio", Better: "lower"},
		{Name: "policy.sched_sphere_frac", Unit: "ratio", Better: "lower"},
		{Name: "policy.gate_ns", Unit: "ns", Better: "lower"},
		{Name: "policy.kbest_ns", Unit: "ns", Better: "lower"},
		{Name: "policy.sphere_ns", Unit: "ns", Better: "lower"},

		{Name: "fec.viterbi_us_per_stream", Unit: "us", Better: "lower"},
		{Name: "phy.encode_us_per_frame", Unit: "us", Better: "lower"},
		{Name: "channel.transmit_ns_per_vector", Unit: "ns", Better: "lower"},
		{Name: "rng.substream_ns", Unit: "ns", Better: "lower"},
		{Name: "channel.source_us_per_frame", Unit: "us", Better: "lower"},

		{Name: "link.self_us_per_frame", Unit: "us", Better: "lower"},
		{Name: "link.unattributed_frac", Unit: "ratio", Better: "lower"},
		{Name: "link.allocs_per_frame", Unit: "count", Better: "lower"},
		{Name: "link.bytes_per_frame", Unit: "bytes", Better: "lower"},
		{Name: "link.gc_per_kframe", Unit: "count", Better: "lower"},
	}
	for _, phase := range servePhases {
		for _, m := range servePhaseMetrics {
			if phase == "capacity" && (m.Name == "gen_late_ms_p50" || m.Name == "gen_late_ms_p99") {
				continue // a closed loop has no schedule to run late against
			}
			m.Name = "serve." + m.Name + "." + phase
			defs = append(defs, m)
		}
	}
	return append(defs,
		metricDef{Name: "serve.lazy_builds", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.groups_evicted", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.overload.served_fps", Unit: "frames/s", Better: "higher"},
		metricDef{Name: "serve.overload.shed_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "serve.overload.batch_mean", Unit: "frames", Better: "higher"},
		metricDef{Name: "serve.overload.tier_zf_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	)
}

// value is one measured metric: its number, unit and the count of
// samples behind it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one workload run.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Checks    []string         `json:"checks"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Order lists the metric names in the order they were measured, for
	// the printed report.
	Order []string `json:"-"`
	// Extra holds printed-only lines (tail percentiles with their
	// sample counts).
	Extra []string `json:"extra,omitempty"`
}

func newResult(workload string, seed int64) *result {
	return &result{Workload: workload, Seed: seed, Correct: true, Metrics: map[string]value{}}
}

// set records a metric; units come from the registry so a name cannot
// drift from its unit.
func (r *result) set(name string, v float64, samples int) {
	if math.IsInf(v, 1) {
		// A percentile that lands on a refused frame is infinite; JSON
		// has no infinity, so it reads as the largest float.
		v = math.MaxFloat64
	}
	if _, seen := r.Metrics[name]; !seen {
		r.Order = append(r.Order, name)
	}
	r.Metrics[name] = value{Value: v, Unit: unitOf(name), Samples: samples}
}

// fail records a failed output check.
func (r *result) fail(msg string) {
	r.Correct = false
	r.Checks = append(r.Checks, "FAIL "+msg)
}

// pass records a passed output check.
func (r *result) pass(msg string) { r.Checks = append(r.Checks, "ok   "+msg) }

var unitIndex = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string {
	if u, ok := unitIndex[name]; ok {
		return u
	}
	panic("bench: metric " + name + " is not registered")
}

// nearestRank returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank method: the value at 1-based rank ⌈q·n⌉.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := rank(q, n)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// rank is the 1-based nearest rank ⌈q·n⌉, with the product rounded to
// 1e-9 first so that 0.999·10000 is 9990, not 9991.
func rank(q float64, n int) int {
	return int(math.Ceil(math.Round(q*float64(n)*1e9) / 1e9))
}

// tailLadder is the percentile ladder the tail rule walks.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest percentile of the ladder that has
// at least ten of n samples beyond its nearest rank, and that count.
// ok is false when even the median has fewer than ten beyond it.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, c := range tailLadder {
		r := rank(c/100, n)
		if n-r < 10 {
			break
		}
		p, beyond, ok = c, n-r, true
	}
	return p, beyond, ok
}

// windowChunks is how many consecutive chunks a timed window is split
// into. Interference from other tenants of a shared host comes in
// episodes of a few seconds that slow every layer at once; the gated
// statistics read the window's undisturbed chunks — the upper quartile
// of the chunk frame rates, the lower quartile of the chunk latency
// percentiles — so an episode moves a chunk, not the result, while a
// change to the program moves every chunk.
const windowChunks = 10

// chunkBounds splits n samples into windowChunks consecutive chunks
// (fewer when n is small) and returns each chunk's first index followed
// by n.
func chunkBounds(n int) []int {
	k := windowChunks
	if n < k {
		k = n
	}
	b := make([]int, k+1)
	for i := range b {
		b[i] = i * n / k
	}
	return b
}

// chunkPercentiles returns each chunk's median and p99 of vals.
func chunkPercentiles(vals []float64, bounds []int) (p50s, p99s []float64) {
	for k := 0; k+1 < len(bounds); k++ {
		s := sortedCopy(vals[bounds[k]:bounds[k+1]])
		p50s = append(p50s, nearestRank(s, 0.5))
		p99s = append(p99s, nearestRank(s, 0.99))
	}
	return p50s, p99s
}

func upperQuartile(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.75) }
func lowerQuartile(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.25) }

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.5) }

// ratio returns a/b, and 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// logHist is a log-linear histogram of nanosecond durations: 32
// sub-buckets per power of two, so a quantile is exact to ~3%. It keeps
// per-call timings of ~1 µs calls without storing millions of samples.
type logHist struct {
	counts [64 * 32]int64
	n      int64
}

const subBits = 5

func histBucket(ns int64) int {
	if ns < 1<<subBits {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 - subBits
	return (e+1)<<subBits | int(uint64(ns)>>e)&(1<<subBits-1)
}

// bucketMid is the midpoint of bucket b's value range.
func bucketMid(b int) float64 {
	if b < 1<<subBits {
		return float64(b)
	}
	e := b>>subBits - 1
	lo := (1<<subBits | b&(1<<subBits-1)) << e
	return float64(lo) + float64(int64(1)<<e)/2
}

func (h *logHist) observe(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

// quantile returns the nearest-rank q-quantile in nanoseconds.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			return bucketMid(b)
		}
	}
	return bucketMid(len(h.counts) - 1)
}

// heapMetrics are the runtime/metrics classes whose sum is the heap
// memory obtained from the OS and not yet returned to it.
var heapMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
}

// heapSampler tracks the high-water mark of heap memory held from the
// OS by sampling runtime/metrics every few milliseconds.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	peak    uint64
	samples int
}

func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var sum uint64
	for _, m := range s {
		sum += m.Value.Uint64()
	}
	return sum
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := make([]metrics.Sample, len(heapMetrics))
		for i, name := range heapMetrics {
			s[i].Name = name
		}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v := heapInUse(s); v > h.peak {
				h.peak = v
			}
			h.samples++
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB and the sample
// count.
func (h *heapSampler) finish() (float64, int) {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20), h.samples
}

// allocCounters reads cumulative allocation and GC counts.
type allocCounters struct{ objects, bytes, gcs uint64 }

func readAllocCounters() allocCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return allocCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a allocCounters) sub(b allocCounters) allocCounters {
	return allocCounters{a.objects - b.objects, a.bytes - b.bytes, a.gcs - b.gcs}
}
