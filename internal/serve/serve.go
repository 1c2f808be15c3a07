// Package serve is the resident multi-user detection service behind
// cmd/geocell: a sharded pool of link.Processor pipelines serving
// uplink frames for an unbounded population of user groups, with
// bounded per-shard admission rings (backpressure and admission
// control), per-group channel state and preparation caches behind a
// second-chance residency cap, and graceful degradation under overload
// — each frame is served at the deepest affordable rung of the
// Geosphere → K-best → ZF ladder, chosen from the shard's ring
// occupancy at drain time (the complexity-budget proxy: a backlog
// means the full search is too expensive right now). Every ladder
// decision is counted in obs, so the served mix is observable, and a
// full ring rejects (ErrOverload) instead of queueing unboundedly.
//
// Ingest is built for throughput: admission is a lock-free append onto
// a bounded MPSC ring (internal/mpsc) with coalesced consumer wakeups,
// and each shard drains up to BatchMax queued frames per wakeup,
// groups them by user group, and serves each group's run as one
// micro-batch through link.Processor.ProcessBatch — amortizing the
// group-table lookup, the ladder decision, every per-subcarrier
// detector preparation and the recorder fold across the batch instead
// of paying them per frame. The same shape as request coalescing in an
// inference server: batch size adapts to load, an idle shard serves
// singles at single-frame latency, a backlogged shard serves batches
// at batch throughput.
//
// Detection itself stays deterministic: a group's channels are drawn
// from the substream (Seed+1, group), a frame's randomness from the
// substream (Seed, frameKey(group, seq)), and ProcessBatch's per-frame
// outcomes are byte-identical for every batch size — so the
// outcome of a group's n-th frame at a given tier is a pure function
// of the configuration, independent of shard scheduling, batch
// composition, interleaving with other groups, or wall-clock time.
// Only the tier choice (explicitly load-dependent) and the latency
// metrics depend on the environment.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/kbest"
	"repro/internal/linear"
	"repro/internal/link"
	"repro/internal/mpsc"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/rng"
)

// Typed sentinel errors of the serving layer.
var (
	// ErrOverload reports a frame rejected by admission control: the
	// target shard's bounded ring is full even for the cheapest tier.
	// It wraps link.ErrQueueFull, so errors.Is matches either.
	ErrOverload = fmt.Errorf("serve: shard overloaded: %w", link.ErrQueueFull)
	// ErrServerClosed reports a frame submitted to a closed Server.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrBadLadder reports degradation thresholds outside
	// 0 ≤ KBestLoad ≤ ZFLoad ≤ 1.
	ErrBadLadder = errors.New("serve: ladder thresholds must satisfy 0 <= KBestLoad <= ZFLoad <= 1")
	// ErrBadGroup reports a group id of 2^43 or more, which the frame
	// key cannot hold without sharing another group's RNG substreams.
	ErrBadGroup = fmt.Errorf("serve: group id must be below %d", uint64(groupLimit))
	// ErrSeqExhausted reports a frame of a group that has already been
	// served 2^20 frames: the frame key holds no further sequence
	// number, and wrapping it would replay the group's first substreams.
	ErrSeqExhausted = fmt.Errorf("serve: group frame sequence exhausted after %d frames", seqLimit)
)

// Config configures a Server. The zero value of every optional field
// picks a sensible default (see withDefaults).
type Config struct {
	// Cons is the uplink constellation; defaults to QAM16.
	Cons *constellation.Constellation
	// NA and NC are the AP antenna count and the clients per group
	// (one group = one spatially-multiplexed uplink transmission).
	// Defaults: 4×2.
	NA, NC int
	// NumSymbols is the OFDM symbols per frame; defaults to 8.
	NumSymbols int
	// SNRdB is the per-stream SNR; defaults to 25.
	SNRdB float64
	// Seed roots all of the service's determinism: group channels come
	// from substream (Seed+1, group), frame randomness from substream
	// (Seed, frameKey(group, seq)).
	Seed int64
	// Shards is the number of independent pipeline shards (one
	// goroutine, one link.Processor, one detector ladder and one group
	// table each). Groups map to shards by group % Shards, so a
	// group's frames always hit the same shard — and therefore the
	// same preparation caches. Defaults to 8.
	Shards int
	// QueueDepth bounds each shard's admission ring; a full ring
	// rejects with ErrOverload. The ring rounds the depth up to the
	// next power of two. Defaults to 64.
	QueueDepth int
	// BatchMax caps the frames one shard drains and serves per wakeup
	// as micro-batches (grouped by user group, so the per-subcarrier
	// detector preparations amortize across each group's run).
	// Defaults to 16.
	BatchMax int
	// MaxGroups caps each shard's resident group table; beyond it a
	// second-chance (clock) sweep evicts the first group not touched
	// since the hand last passed it (bounded memory for an unbounded
	// user population; a returning evicted group is rebuilt lazily
	// from its substreams with its frame sequence restarted). Defaults
	// to the number of groups whose measured state fits the per-shard
	// residency budget (at least 512), so the global cap is
	// Shards × MaxGroups groups.
	MaxGroups int
	// KBestK is the K-best list size of the middle ladder rung;
	// defaults to 4.
	KBestK int
	// KBestLoad and ZFLoad are the degradation thresholds on shard
	// ring occupancy (queued / QueueDepth, read once per drain): below
	// KBestLoad frames get the full Geosphere search, below ZFLoad the
	// K-best search, above it ZF. Defaults: 0.5 and 0.85.
	KBestLoad, ZFLoad float64
	// KappaLowDB, KappaHighDB and KappaBias shape the ladder by group
	// conditioning: the occupancy the ladder sees is occ +
	// KappaBias·w(κ̂²), where w falls linearly from 1 at κ̂² ≤ KappaLowDB
	// to 0 at κ̂² ≥ KappaHighDB. Well-conditioned groups are the ones ZF
	// already detects near-optimally (their sphere search is cheap and
	// its gain nil), so under overload they are shed to cheaper tiers
	// first while poorly-conditioned groups — the ones that actually
	// need the search — keep it longest. A group's κ̂² is the mean
	// diagonal condition estimate of its preparation cache, learned
	// after its first frame; unknown κ̂² is neutral (w = 0). The default
	// bias 0.25 stays below the default KBestLoad, so an idle shard
	// still serves every group the full search. Defaults: 6 dB, 18 dB,
	// 0.25; a negative KappaBias disables the shaping.
	KappaLowDB, KappaHighDB float64
	KappaBias               float64
	// Recorder, when non-nil, receives the pipeline's observability
	// stream (per-frame samples carry the serving tier). It must be
	// safe for concurrent use.
	Recorder obs.Recorder
}

// groupBudgetBytes is the per-shard residency budget the MaxGroups
// default is sized against.
const groupBudgetBytes = 64 << 20

// groupFixedBytes covers what a resident group holds once rather than
// per subcarrier: its PrepPool struct with the shared QR workspace and
// mode scratch, its groupState and its table entry.
const groupFixedBytes = 4096

// groupBytes models one resident group's live heap from its layout:
// per data subcarrier, the channel (na·nc complex values in the
// group's shared array, a matrix header and a pointer to it) and the
// prepared slot (core.PrepSlotBytes); per group, groupFixedBytes; and
// one eighth on top for the allocator rounding objects up to its size
// classes.
//
// TestGroupFootprint holds the model to the measured heap (go1.24,
// amd64, one frame served per group): a 4×2 group measures 43.2 KiB
// in 14 heap objects against a 49.2 KiB model, a 4×4 group 73.1 KiB
// in 14 objects against 83.0 KiB.
func groupBytes(na, nc int) int {
	chanSlot := 16*na*nc + int(unsafe.Sizeof(cmplxmat.Matrix{})) + 8
	perGroup := ofdm.NumData*(chanSlot+core.PrepSlotBytes(na, nc)) + groupFixedBytes
	return perGroup + perGroup/8
}

// defaultMaxGroups sizes the residency cap so the modelled state of
// its groups fits groupBudgetBytes: ≈1330 groups per shard for the
// default 4×2 shape, ≈790 for 4×4. The cap stays within 512…8192
// groups, so a shape of 6×6 or larger exceeds the budget at the 512
// floor rather than thrash its table.
func defaultMaxGroups(na, nc int) int {
	n := groupBudgetBytes / groupBytes(na, nc)
	if n < 512 {
		n = 512
	}
	if n > 8192 {
		n = 8192
	}
	return n
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Cons == nil {
		c.Cons = constellation.QAM16
	}
	if c.NA == 0 && c.NC == 0 {
		c.NA, c.NC = 4, 2
	}
	if c.NumSymbols == 0 {
		c.NumSymbols = 8
	}
	if c.SNRdB == 0 { //geolint:float-ok exact zero-value test for "field unset", not a tolerance comparison
		c.SNRdB = 25
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.MaxGroups <= 0 {
		c.MaxGroups = defaultMaxGroups(c.NA, c.NC)
	}
	if c.KBestK <= 0 {
		c.KBestK = 4
	}
	if c.KBestLoad == 0 && c.ZFLoad == 0 { //geolint:float-ok exact zero-value test for "fields unset", not a tolerance comparison
		c.KBestLoad, c.ZFLoad = 0.5, 0.85
	}
	if c.KappaLowDB == 0 && c.KappaHighDB == 0 { //geolint:float-ok exact zero-value test for "fields unset", not a tolerance comparison
		c.KappaLowDB, c.KappaHighDB = 6, 18
	}
	if c.KappaBias == 0 { //geolint:float-ok exact zero-value test for "field unset", not a tolerance comparison
		c.KappaBias = 0.25
	}
	return c
}

// kappaWeight maps a group's κ̂² (dB) onto the ladder's conditioning
// weight: 1 at or below KappaLowDB, 0 at or above KappaHighDB, linear
// between, and 0 (neutral) for an unknown NaN estimate.
func (c Config) kappaWeight(kappa2dB float64) float64 {
	if math.IsNaN(kappa2dB) {
		return 0
	}
	w := (c.KappaHighDB - kappa2dB) / (c.KappaHighDB - c.KappaLowDB)
	if w < 0 {
		return 0
	}
	if w > 1 {
		return 1
	}
	return w
}

// runConfig maps the serving configuration onto the link pipeline's.
func (c Config) runConfig() link.RunConfig {
	return link.RunConfig{
		Cons:       c.Cons,
		Rate:       fec.Rate12,
		NumSymbols: c.NumSymbols,
		SNRdB:      c.SNRdB,
		Seed:       c.Seed,
		Recorder:   c.Recorder,
	}
}

// seqBits is the width of the per-group frame sequence inside the
// 63-bit frame key; group ids get the bits above it.
const seqBits = 20

// seqLimit is the number of frames one group can be served: sequences
// 0 … seqLimit−1 fit the key.
const seqLimit = 1 << seqBits

// groupLimit bounds the group ids a Server accepts to the 63−seqBits =
// 43 bits above the sequence in the frame key. Process rejects larger
// ids with ErrBadGroup instead of aliasing them onto a lower group's
// substreams (or a negative key).
const groupLimit = 1 << (63 - seqBits)

// frameKey packs (group, seq) into the frame index that fixes the
// frame's RNG substream. Unique per (group, seq) for groups below
// groupLimit, which Process enforces, and sequences below seqLimit,
// which serveGroup enforces: a frame past a group's last sequence
// fails with ErrSeqExhausted rather than wrapping onto the group's
// first substreams.
func frameKey(group uint64, seq int64) int64 {
	return int64(group)<<seqBits | (seq & (1<<seqBits - 1))
}

// Outcome is one served frame's result.
type Outcome struct {
	// Group is the user group that transmitted the frame.
	Group uint64
	// Frame is the frame key (see frameKey) the pipeline used.
	Frame int64
	// Tier is the ladder rung that served the frame.
	Tier obs.Tier
	// OK reports whether every stream's CRC verified.
	OK bool
	// StreamErrors counts the frame's failed streams.
	StreamErrors int
	// Err is the pipeline error, nil on success.
	Err error
}

// groupState is one resident group's serving state: its (static,
// frequency-selective) per-subcarrier channels and the preparation
// cache those channels warm — both materialized lazily on the group's
// first served frame, so table residency is cheap until a group
// actually transmits — plus the frame sequence counter and the
// second-chance reference bit. The 48 channels share one backing array
// (groupChannels) and the pool keeps its slots in per-pool slabs, so a
// resident group is 14 heap objects (see groupBytes).
type groupState struct {
	hs   []*cmplxmat.Matrix
	pool *core.PrepPool
	seq  int64
	// ref is the clock algorithm's reference bit: set on every touch,
	// cleared when the eviction hand sweeps past; a group is evicted
	// only when the hand finds it unreferenced twice in a row.
	ref bool
}

// job is one admitted frame request. admitted is the admission
// timestamp; the latency histogram spans admission to completion, so
// it includes ring queueing, not just in-shard service.
type job struct {
	group    uint64
	admitted time.Time
	reply    chan<- Outcome
}

// shard is one pipeline shard: a single goroutine draining a bounded
// MPSC ring through its own link.Processor, with a persistent detector
// per ladder tier and a resident-group table. Single-goroutine
// execution is what makes the non-concurrency-safe Processor,
// PrepPools and eviction state safe without locks; the ring is the
// only producer/consumer boundary.
type shard struct {
	id   int
	srv  *Server
	proc *link.Processor
	dets [4]core.Detector // indexed by obs.Tier; TierNone unused
	ring *mpsc.Ring[job]

	groups    map[uint64]*groupState
	maxGroups int
	// order and hand are the clock sweep over resident groups:
	// insertion-ordered ids with swap-removal, so eviction is
	// deterministic (never map iteration) and O(1) amortized.
	order []uint64
	hand  int

	// Drain scratch, reused across wakeups.
	batch  []job
	taken  []bool
	gjobs  []job
	frames []int64
	outs   []link.FrameOutcome
}

// Server is the resident detection service. Safe for concurrent use
// by any number of submitters.
type Server struct {
	cfg    Config
	shards []*shard
	stats  *Stats
	wg     sync.WaitGroup
	once   sync.Once
	// replies recycles Process's buffered reply channels: under
	// overload most admissions reject, and a reject's channel never
	// sees a send, so pooling turns the retry storm's hottest
	// allocation into a pool hit. A channel is repooled only when it
	// is provably empty — after a reject (no job holds it) or after
	// its one outcome was received; an abandoned wait (ctx cancelled
	// after admission) leaks its channel to the GC instead.
	replies sync.Pool
}

// New validates the configuration, builds every shard's pipeline and
// detector ladder, and starts the shard goroutines. The caller owns
// the Server and must Close it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.NC <= 0 || cfg.NA < cfg.NC {
		return nil, fmt.Errorf("%w: %d antennas × %d clients", link.ErrBadShape, cfg.NA, cfg.NC)
	}
	if cfg.KBestLoad < 0 || cfg.ZFLoad < cfg.KBestLoad || cfg.ZFLoad > 1 {
		return nil, fmt.Errorf("%w: KBestLoad=%g ZFLoad=%g", ErrBadLadder, cfg.KBestLoad, cfg.ZFLoad)
	}
	if cfg.KappaHighDB <= cfg.KappaLowDB || cfg.KappaBias > 1 {
		return nil, fmt.Errorf("%w: KappaLowDB=%g KappaHighDB=%g KappaBias=%g", ErrBadLadder, cfg.KappaLowDB, cfg.KappaHighDB, cfg.KappaBias)
	}
	if err := cfg.runConfig().ValidateFormat(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, stats: NewStats()}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(i, s)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.run()
	}
	return s, nil
}

// newShard builds one shard's processor, detector ladder and tables.
func newShard(id int, s *Server) (*shard, error) {
	cfg := s.cfg
	proc, err := link.NewProcessor(cfg.runConfig())
	if err != nil {
		return nil, err
	}
	kb, err := kbest.NewKBest(cfg.Cons, cfg.KBestK)
	if err != nil {
		return nil, err
	}
	sh := &shard{
		id:        id,
		srv:       s,
		proc:      proc,
		ring:      mpsc.New[job](cfg.QueueDepth),
		groups:    make(map[uint64]*groupState, cfg.MaxGroups),
		maxGroups: cfg.MaxGroups,
		batch:     make([]job, 0, cfg.BatchMax),
		taken:     make([]bool, cfg.BatchMax),
		gjobs:     make([]job, 0, cfg.BatchMax),
		frames:    make([]int64, 0, cfg.BatchMax),
	}
	sh.dets[obs.TierGeosphere] = core.NewGeosphere(cfg.Cons)
	sh.dets[obs.TierKBest] = kb
	sh.dets[obs.TierZF] = linear.NewZF(cfg.Cons)
	if cfg.Recorder != nil {
		for _, det := range sh.dets {
			if t, ok := det.(obs.Target); ok {
				t.SetRecorder(cfg.Recorder)
			}
		}
	}
	return sh, nil
}

// Config returns the effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Stats returns the server's live counters.
func (s *Server) Stats() *Stats { return s.stats }

// shardFor maps a group to its home shard; the affinity keeps a
// group's frames on one preparation cache.
func (s *Server) shardFor(group uint64) *shard {
	return s.shards[group%uint64(len(s.shards))]
}

// pickTier applies the degradation ladder to a shard's ring occupancy
// shaped by the group's conditioning — the service's complexity-budget
// proxy: everything in the ring is detection work already promised,
// so a deep backlog means the full search cannot be afforded for new
// arrivals, and among the arrivals the well-conditioned (cheap,
// ZF-friendly) groups are shed to lower tiers first (see the Kappa*
// knobs). Occupancy is read once per drain; the κ̂²-biased decision is
// re-applied per group within the batch. kappa2dB is the group's
// learned κ̂², NaN when unknown.
func (s *Server) pickTier(queued, depth int, kappa2dB float64) obs.Tier {
	occ := float64(queued) / float64(depth)
	if s.cfg.KappaBias > 0 {
		occ += s.cfg.KappaBias * s.cfg.kappaWeight(kappa2dB)
	}
	switch {
	case occ < s.cfg.KBestLoad:
		return obs.TierGeosphere
	case occ < s.cfg.ZFLoad:
		return obs.TierKBest
	default:
		return obs.TierZF
	}
}

// Process serves one frame for group: admission control either appends
// the frame onto the home shard's ring or rejects with ErrOverload
// (never blocks), the shard picks the ladder tier at drain time from
// the ring's occupancy, and the outcome is awaited under ctx. A frame
// admitted before ctx is cancelled still completes on its shard;
// Process just stops waiting. A group id of 2^43 or more is rejected
// with ErrBadGroup before admission.
func (s *Server) Process(ctx context.Context, group uint64) (Outcome, error) {
	if group >= groupLimit {
		return Outcome{}, ErrBadGroup
	}
	sh := s.shardFor(group)
	reply, _ := s.replies.Get().(chan Outcome)
	if reply == nil {
		reply = make(chan Outcome, 1)
	}
	j := job{
		group:    group,
		admitted: time.Now(), //geolint:nondeterminism-ok wall-clock latency only feeds the service metrics, never detection
		reply:    reply,
	}
	switch err := sh.ring.TryPush(j); {
	case errors.Is(err, mpsc.ErrFull):
		s.stats.rejected.Inc()
		s.replies.Put(reply)
		return Outcome{}, ErrOverload
	case errors.Is(err, mpsc.ErrClosed):
		s.replies.Put(reply)
		return Outcome{}, ErrServerClosed
	}
	s.stats.submitted.Inc()

	select {
	case o := <-reply:
		s.replies.Put(reply)
		return o, o.Err
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// Close stops the service: every admitted frame completes on its
// shard's final drain, then the shard goroutines exit. Further
// submissions return ErrServerClosed. Close is idempotent.
func (s *Server) Close() error {
	s.once.Do(func() {
		for _, sh := range s.shards {
			sh.ring.Close()
		}
		s.wg.Wait()
	})
	return nil
}

// run is the shard goroutine: drain the ring dry, sleep until a
// producer wakeup, repeat; after Close, one final drain serves every
// frame admitted before it.
//
// The timer park between consecutive non-empty drains is scheduler
// fairness, not pacing. Under a sustained backlog the drain loop is
// CPU-bound, and on a saturated GOMAXPROCS the async-preempted shard
// goroutine lands in the runtime's global run queue — which is only
// polled occasionally while thousands of timer-woken submitters keep
// the local queue warm, so a preempted shard can starve for seconds
// with a full ring (measured: multi-second p99 spikes at 10k users on
// one core). Re-entering through a timer wakeup instead queues the
// shard with the same priority as the submitters it competes with,
// bounding the gap between drains at roughly one pass of the run
// queue. The park costs ~the timer resolution once per micro-batch
// only while a backlog persists; an idle shard still blocks in Wait
// and serves its next frame immediately.
func (sh *shard) run() {
	defer sh.srv.wg.Done()
	for {
		for sh.drain() {
			time.Sleep(time.Microsecond)
		}
		if !sh.ring.Wait() {
			for sh.drain() {
			}
			return
		}
	}
}

// drain pops and serves one micro-batch of up to BatchMax frames,
// reporting whether it served anything. The ring occupancy is read
// once, before popping — the batch-aware ladder's load signal — and
// the popped frames are grouped by user group (preserving arrival
// order within and across groups) so each group's run is served as one
// ProcessBatch call against its prepared channel.
func (sh *shard) drain() bool {
	occ := sh.ring.Len()
	jobs := sh.batch[:0]
	for len(jobs) < cap(jobs) {
		j, ok := sh.ring.TryPop()
		if !ok {
			break
		}
		jobs = append(jobs, j)
	}
	sh.batch = jobs
	if len(jobs) == 0 {
		return false
	}
	sh.srv.stats.observeBatch(len(jobs), occ)
	taken := sh.taken[:len(jobs)]
	for i := range taken {
		taken[i] = false
	}
	for i := range jobs {
		if taken[i] {
			continue
		}
		gid := jobs[i].group
		gjobs := sh.gjobs[:0]
		for k := i; k < len(jobs); k++ {
			if !taken[k] && jobs[k].group == gid {
				taken[k] = true
				gjobs = append(gjobs, jobs[k])
			}
		}
		sh.gjobs = gjobs
		sh.serveGroup(gid, gjobs, occ)
	}
	return true
}

// serveGroup serves one group's run of the drained batch as a single
// ProcessBatch call: one group-table touch, one ladder decision, one
// prepared-channel sweep. Frames past the group's last sequence number
// are not served: each fails with ErrSeqExhausted.
func (sh *shard) serveGroup(gid uint64, gjobs []job, occ int) {
	g := sh.group(gid)
	tier := sh.srv.pickTier(occ, sh.ring.Cap(), g.pool.MeanKappa2dB())
	frames := sh.frames[:0]
	for range gjobs {
		if g.seq >= seqLimit {
			break
		}
		frames = append(frames, frameKey(gid, g.seq))
		g.seq++
	}
	sh.frames = frames
	sh.outs = sh.proc.ProcessBatch(sh.outs, link.BatchWork{
		Frames:   frames,
		Worker:   sh.id,
		Tier:     tier,
		Channels: g.hs,
		Det:      sh.dets[tier],
		Pool:     g.pool,
	})
	for i, j := range gjobs {
		o := Outcome{Group: gid, Err: ErrSeqExhausted}
		if i < len(frames) {
			out := sh.outs[i]
			o = Outcome{Group: gid, Frame: frames[i], Tier: tier, Err: out.Err}
			if out.Err == nil {
				o.OK = out.Res.FrameOK()
				for _, ok := range out.Res.StreamOK {
					if !ok {
						o.StreamErrors++
					}
				}
			}
		}
		sh.srv.stats.observe(o, time.Since(j.admitted)) //geolint:nondeterminism-ok wall-clock latency only feeds the service metrics, never detection
		j.reply <- o
	}
}

// group returns the resident state for id, creating it (and evicting
// past the cap with the second-chance sweep) on first use. A new —
// or returning, previously evicted — group's channels and preparation
// cache are rebuilt lazily here, on its first served frame, and its
// substream-derived state is identical to what eviction dropped
// (except the frame sequence, which restarts).
func (sh *shard) group(id uint64) *groupState {
	g, ok := sh.groups[id]
	if ok {
		g.ref = true
	} else {
		if len(sh.groups) >= sh.maxGroups {
			sh.evict()
			sh.srv.stats.groupsEvicted.Inc()
		}
		g = &groupState{ref: true}
		sh.groups[id] = g
		sh.order = append(sh.order, id)
		sh.srv.stats.groupsCreated.Inc()
	}
	if g.hs == nil {
		// Lazy (re)build: the channels and the preparation cache are
		// derived from the group's substream only when a frame actually
		// needs them — a returning evicted group pays this once, on its
		// first touch, and gets byte-identical state back.
		g.hs = groupChannels(sh.srv.cfg, id)
		g.pool = core.NewPrepPool(ofdm.NumData)
		sh.srv.stats.lazyBuilds.Inc()
	}
	return g
}

// evict runs the second-chance (clock) sweep: the hand walks the
// insertion ring, granting every referenced group one more lap (its
// ref bit is cleared and counted as a second-chance hit) and evicting
// the first group found unreferenced. Unlike strict LRU this keeps a
// steadily re-touched working set resident under a scan of one-shot
// groups, and the sweep never depends on map iteration order.
func (sh *shard) evict() {
	for {
		if sh.hand >= len(sh.order) {
			sh.hand = 0
		}
		id := sh.order[sh.hand]
		g := sh.groups[id]
		if g.ref {
			g.ref = false
			sh.srv.stats.secondChanceHits.Inc()
			sh.hand++
			continue
		}
		delete(sh.groups, id)
		last := len(sh.order) - 1
		sh.order[sh.hand] = sh.order[last]
		sh.order = sh.order[:last]
		return
	}
}

// groupChannels draws a group's static frequency-selective channel:
// one Rayleigh matrix per data subcarrier from the group's own
// substream. Static-per-group is the trace-replay regime — every frame
// after the group's first hits the preparation cache on the Geosphere
// tier.
//
// The matrices share one backing array and one header array, drawn in
// subcarrier order with channel.RayleighInto — the draws
// channel.Rayleigh would make one matrix at a time — so a group's
// channels are three heap objects.
func groupChannels(cfg Config, id uint64) []*cmplxmat.Matrix {
	src := rng.Substream(cfg.Seed+1, int64(id))
	hs := make([]*cmplxmat.Matrix, ofdm.NumData)
	mats := make([]cmplxmat.Matrix, ofdm.NumData)
	data := make([]complex128, ofdm.NumData*cfg.NA*cfg.NC)
	for i := range hs {
		data = mats[i].Carve(data, cfg.NA, cfg.NC)
		channel.RayleighInto(src, &mats[i])
		hs[i] = &mats[i]
	}
	return hs
}
