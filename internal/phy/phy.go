// Package phy implements the coded MIMO-OFDM frame pipeline of §4:
// per-client scrambling, CRC framing, rate-1/2 (optionally punctured)
// convolutional coding, per-OFDM-symbol interleaving, QAM mapping onto
// 48 data subcarriers, per-subcarrier MIMO detection at the AP, and
// soft Viterbi decoding back to payload bits.
//
// Uplink multi-user MIMO means every client encodes independently —
// there is no coding across streams — so the receiver's only coupling
// between clients is the per-subcarrier MIMO detector, exactly the
// component the paper replaces.
package phy

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/cmplxmat"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/rng"
)

// Config describes one frame format.
type Config struct {
	Cons       *constellation.Constellation
	Rate       fec.Rate
	NumSymbols int // OFDM symbols per frame
	// SoftDecoding feeds per-bit LLRs from the detector into the
	// Viterbi decoder instead of hard decisions. It requires a
	// detector implementing core.SoftDetector (see
	// core.NewListSphereDecoder), the §7 future-work receiver.
	SoftDecoding bool
	// Recorder, when non-nil, receives one obs.DecodeSample per stream
	// decode (Viterbi path metric and CRC outcome). It must be safe
	// for concurrent use when Links run on multiple workers.
	Recorder obs.Recorder
}

// Validate checks the configuration and returns derived sizes.
func (c Config) Validate() error {
	if c.Cons == nil {
		return fmt.Errorf("phy: no constellation configured")
	}
	if c.NumSymbols <= 0 {
		return fmt.Errorf("phy: NumSymbols must be positive, got %d", c.NumSymbols)
	}
	if c.PayloadBits() <= 0 {
		return fmt.Errorf("phy: frame of %d symbols too short for CRC and tail", c.NumSymbols)
	}
	// Puncturing must tile the coded length exactly.
	coded := c.CodedBits()
	switch c.Rate {
	case fec.Rate23:
		if coded%3 != 0 {
			return fmt.Errorf("phy: coded length %d not divisible by 3 for rate 2/3", coded)
		}
	case fec.Rate34:
		if coded%4 != 0 {
			return fmt.Errorf("phy: coded length %d not divisible by 4 for rate 3/4", coded)
		}
	}
	return nil
}

// BitsPerSymbol returns the coded bits carried by one OFDM symbol of
// one stream (N_CBPS).
func (c Config) BitsPerSymbol() int { return ofdm.NumData * c.Cons.Bits() }

// CodedBits returns the coded bits per frame per stream.
func (c Config) CodedBits() int { return c.BitsPerSymbol() * c.NumSymbols }

// InfoBits returns the information bits per frame per stream,
// including the CRC but excluding the convolutional tail.
func (c Config) InfoBits() int {
	return int(float64(c.CodedBits())*c.Rate.Fraction()) - (fec.ConstraintLength - 1)
}

// PayloadBits returns the user payload bits per frame per stream.
func (c Config) PayloadBits() int { return c.InfoBits() - 32 }

// PHYRateMbps returns the per-stream PHY bit rate in Mbit/s for this
// format over 20 MHz (48 data subcarriers, 4 µs symbols).
func (c Config) PHYRateMbps() float64 {
	return float64(c.BitsPerSymbol()) * c.Rate.Fraction() / (ofdm.SymbolDuration * 1e6)
}

// Frame is one encoded multi-stream frame in the frequency domain.
type Frame struct {
	Config   Config
	Payloads [][]byte // [stream][payload bit]
	// X[t][s] is the transmit vector across streams at OFDM symbol t,
	// data subcarrier s.
	X [][][]complex128
}

// Link runs frames through encode → channel → detect → decode.
//
// A Link owns reusable receive/decode scratch (detector outputs,
// deinterleave and depuncture buffers, a Viterbi workspace), so it is
// not safe for concurrent use: the link pipeline builds one Link per
// worker.
type Link struct {
	cfg  Config
	il   *fec.Interleaver
	nbps int

	// prep, when set via SetPrepPool, routes per-subcarrier detector
	// preparation through a per-worker PreparedChannel cache.
	prep *core.PrepPool

	rx   receiveScratch
	dec  decodeScratch
	hard hardStage
	enc  encodeScratch

	// forceACS makes decodeStream skip the error-free-codeword bypass
	// and always run the full Viterbi recursion. It is an ablation seam
	// for tests and benchmarks only; decisions are identical either way.
	forceACS bool
}

// encodeScratch holds the per-stream encode buffers Encode reuses
// across streams and frames: the CRC-extended (then in-place
// scrambled) info block, the convolutional mother code, the punctured
// codeword, its per-symbol interleaving, and the per-subcarrier bit
// group fed to the constellation mapper. Only state the Frame retains
// — payloads and the symbol grid — is allocated per call.
type encodeScratch struct {
	info   []byte
	mother []byte
	coded  []byte
	inter  []byte
	bitbuf []byte
}

// receiveScratch holds the per-frame detector output buffers
// TransmitReceiveCSI reuses across frames of identical geometry. yb is
// the structure-of-arrays received-signal buffer: one flat slice
// holding every (symbol, subcarrier) observation contiguously in
// symbol-major order, yb[(t·NumData+s)·na : +na], so the batched
// detection pass walks one OFDM symbol's 48 subcarriers as a single
// sequential sweep.
type receiveScratch struct {
	detIdx [][][]int
	detLLR [][][]float64
	yb     []complex128
}

// decodeScratch holds the per-stream soft decode buffers, sized once on
// first use so steady-state stream decoding does not allocate, and the
// Viterbi workspace both decode paths share.
type decodeScratch struct {
	coded     []float64 // deinterleaved soft coded bits, whole frame
	blockSoft []float64 // one interleaver block, soft path
	deintSoft []float64 // deinterleaver output, soft path
	llrs      []float64 // depunctured mother-code LLRs
	vit       fec.ViterbiWorkspace
}

// hardStage is the fused hard-decision decode stage: demap,
// deinterleave and depuncture collapse into one table-driven pass that
// writes ±1 values straight into the mother-code buffer.
type hardStage struct {
	// labels[idx·nbps+b] is ±1 for bit b of constellation point idx.
	labels []int8
	// pos[t·ncbps+j] is the mother-code slot that interleaved bit j of
	// OFDM symbol t lands in after deinterleaving and depuncturing.
	pos []int32
	// vals is the mother code plus one trailing discard slot for coded
	// bits the depuncturer would drop. Punctured slots are never
	// written, so they stay 0 (erased) for the Link's lifetime.
	vals []int8
}

// NewLink validates the configuration and builds the interleaver and
// the hard-decision decode tables.
func NewLink(cfg Config) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	il, err := fec.NewInterleaver(cfg.BitsPerSymbol(), cfg.Cons.Bits())
	if err != nil {
		return nil, err
	}
	l := &Link{cfg: cfg, il: il, nbps: cfg.Cons.Bits()}
	if err := l.buildHardStage(); err != nil {
		return nil, err
	}
	return l, nil
}

// buildHardStage fills the fused stage's tables by running the
// reference stages themselves once over index ramps: DeinterleaveSoft
// traces where each interleaved position goes, and Depuncture
// where each coded position lands in the mother code (ramp value j+1,
// so 0 still marks an erasure). The tables therefore reproduce the
// stage-by-stage path exactly, including any coded bits the depuncturer
// drops, which map to the discard slot.
func (l *Link) buildHardStage() error {
	cfg := l.cfg
	q, ncbps := l.nbps, cfg.BitsPerSymbol()
	hs := &l.hard
	hs.labels = make([]int8, cfg.Cons.Size()*q)
	bitbuf := make([]byte, q)
	for idx := 0; idx < cfg.Cons.Size(); idx++ {
		col, row := cfg.Cons.Coords(idx)
		for b, bit := range cfg.Cons.SymbolBits(bitbuf, col, row) {
			hs.labels[idx*q+b] = int8(2*int(bit&1) - 1)
		}
	}
	ramp := make([]float64, ncbps)
	for j := range ramp {
		ramp[j] = float64(j)
	}
	// interPos[c] is the interleaved position of coded bit c.
	interPos, err := l.il.DeinterleaveSoft(nil, ramp)
	if err != nil {
		return err
	}
	codedRamp := make([]float64, cfg.CodedBits())
	for c := range codedRamp {
		codedRamp[c] = float64(c + 1)
	}
	motherLen := 2 * (cfg.InfoBits() + fec.ConstraintLength - 1)
	mother := fec.Depuncture(codedRamp, cfg.Rate, motherLen)
	motherOf := make([]int32, len(codedRamp))
	for c := range motherOf {
		motherOf[c] = int32(motherLen) // dropped unless placed below
	}
	for m, v := range mother {
		//geolint:float-ok ramp values are exact small integers and 0 is the depuncturer's literal erasure
		if v != 0 && m < motherLen {
			motherOf[int(v)-1] = int32(m)
		}
	}
	hs.pos = make([]int32, cfg.CodedBits())
	for t := 0; t < cfg.NumSymbols; t++ {
		for c, j := range interPos {
			hs.pos[t*ncbps+int(j)] = motherOf[t*ncbps+c]
		}
	}
	hs.vals = make([]int8, motherLen+1)
	return nil
}

// Config returns the link's frame format.
func (l *Link) Config() Config { return l.cfg }

// SetPrepPool attaches a per-subcarrier preparation cache: subsequent
// TransmitReceiveCSI calls prepare the detector through pool (slot =
// data-subcarrier index), so an unchanged channel skips its QR. A nil
// pool restores the direct det.Prepare path.
func (l *Link) SetPrepPool(pool *core.PrepPool) { l.prep = pool }

// Encode builds one frame for nc independent streams with random
// payloads drawn from src.
func (l *Link) Encode(src *rng.Source, nc int) (*Frame, error) {
	if nc <= 0 {
		return nil, fmt.Errorf("phy: need at least one stream")
	}
	cfg := l.cfg
	f := &Frame{Config: cfg}
	f.Payloads = make([][]byte, nc)
	// The symbol grid's shape is fixed by the frame format, so its
	// nested slices are views into two backing allocations (cells and
	// points) instead of NumSymbols·(NumData+1) separate ones; full
	// slice expressions keep the views from growing into each other.
	cells := make([][]complex128, cfg.NumSymbols*ofdm.NumData)
	points := make([]complex128, len(cells)*nc)
	f.X = make([][][]complex128, cfg.NumSymbols)
	for t := range f.X {
		f.X[t] = cells[t*ofdm.NumData : (t+1)*ofdm.NumData : (t+1)*ofdm.NumData]
		for s := range f.X[t] {
			off := (t*ofdm.NumData + s) * nc
			f.X[t][s] = points[off : off+nc : off+nc]
		}
	}
	payloads := make([]byte, nc*cfg.PayloadBits())
	if cap(l.enc.bitbuf) < l.nbps {
		l.enc.bitbuf = make([]byte, l.nbps)
	}
	bitbuf := l.enc.bitbuf[:l.nbps]
	for k := 0; k < nc; k++ {
		payload := payloads[k*cfg.PayloadBits() : (k+1)*cfg.PayloadBits() : (k+1)*cfg.PayloadBits()]
		src.Bits(payload)
		f.Payloads[k] = payload
		coded, err := l.encodeStream(payload, byte(0x5d+k))
		if err != nil {
			return nil, err
		}
		// Map interleaved coded bits to constellation points.
		for t := 0; t < cfg.NumSymbols; t++ {
			block := coded[t*cfg.BitsPerSymbol() : (t+1)*cfg.BitsPerSymbol()]
			for s := 0; s < ofdm.NumData; s++ {
				copy(bitbuf, block[s*l.nbps:(s+1)*l.nbps])
				col, row := cfg.Cons.MapBits(bitbuf)
				f.X[t][s][k] = cfg.Cons.Point(col, row)
			}
		}
	}
	return f, nil
}

// encodeStream runs one stream's payload through CRC, scrambling,
// convolutional coding, puncturing and per-symbol interleaving, all
// in the link's reusable encode scratch. The returned slice aliases
// that scratch: it is valid only until the next encodeStream call.
func (l *Link) encodeStream(payload []byte, scramblerSeed byte) ([]byte, error) {
	cfg := l.cfg
	es := &l.enc
	// AppendCRCTo already copies the payload into the scratch, so the
	// scrambler can run in place without a second buffer.
	es.info = fec.AppendCRCTo(es.info[:0], payload)
	if len(es.info) != cfg.InfoBits() {
		return nil, fmt.Errorf("phy: info block is %d bits, want %d", len(es.info), cfg.InfoBits())
	}
	fec.Scramble(es.info, scramblerSeed)
	es.mother = fec.ConvEncodeAppend(es.mother[:0], es.info)
	es.coded = fec.PunctureAppend(es.coded[:0], es.mother, cfg.Rate)
	if len(es.coded) != cfg.CodedBits() {
		return nil, fmt.Errorf("phy: coded block is %d bits, want %d", len(es.coded), cfg.CodedBits())
	}
	if cap(es.inter) < len(es.coded) {
		es.inter = make([]byte, len(es.coded))
	}
	es.inter = es.inter[:len(es.coded)]
	for t := 0; t < cfg.NumSymbols; t++ {
		lo, hi := t*cfg.BitsPerSymbol(), (t+1)*cfg.BitsPerSymbol()
		if _, err := l.il.Interleave(es.inter[lo:hi], es.coded[lo:hi]); err != nil {
			return nil, err
		}
	}
	return es.inter, nil
}

// Result reports one frame's reception.
type Result struct {
	// StreamOK[k] is true when stream k's CRC verified.
	StreamOK []bool
	// SymbolErrors counts wrong constellation decisions (pre-FEC).
	SymbolErrors int
	// Symbols is the total number of constellation decisions made.
	Symbols int
}

// FrameOK reports whether every stream decoded cleanly.
func (r Result) FrameOK() bool {
	for _, ok := range r.StreamOK {
		if !ok {
			return false
		}
	}
	return true
}

// TransmitReceive sends the frame over the per-subcarrier channels hs
// (one na×nc matrix per data subcarrier, constant for the frame's
// duration), with AWGN of variance noiseVar, detecting with det
// against perfect channel knowledge.
//
// The detector is Prepared once per subcarrier and reused across the
// frame's OFDM symbols, matching how a real receiver amortizes QR
// decompositions over a channel coherence time.
func (l *Link) TransmitReceive(src *rng.Source, f *Frame, hs []*cmplxmat.Matrix, det core.Detector, noiseVar float64) (*Result, error) {
	return l.TransmitReceiveCSI(src, f, hs, hs, det, noiseVar)
}

// TransmitReceiveCSI is TransmitReceive with separate channel
// knowledge: the signal propagates through hsTrue while the detector
// is prepared on hsDet (e.g. a noisy preamble-based estimate from
// EstimateChannels).
func (l *Link) TransmitReceiveCSI(src *rng.Source, f *Frame, hsTrue, hsDet []*cmplxmat.Matrix, det core.Detector, noiseVar float64) (*Result, error) {
	cfg := l.cfg
	hs := hsTrue
	if len(hs) != ofdm.NumData || len(hsDet) != ofdm.NumData {
		return nil, fmt.Errorf("phy: %d/%d subcarrier channels, want %d", len(hs), len(hsDet), ofdm.NumData)
	}
	nc := len(f.Payloads)
	na := hs[0].Rows
	if hs[0].Cols != nc {
		return nil, fmt.Errorf("phy: channel has %d streams, frame has %d", hs[0].Cols, nc)
	}
	var soft core.SoftDetector
	if cfg.SoftDecoding {
		sd, ok := det.(core.SoftDetector)
		if !ok {
			return nil, fmt.Errorf("phy: soft decoding requires a SoftDetector, %s is not one", det.Name())
		}
		if noiseVar <= 0 {
			return nil, fmt.Errorf("phy: soft decoding needs a positive noise variance")
		}
		soft = sd
	}
	// detIdx[t][s] holds the detected point indices; detLLR the
	// per-bit soft values when soft decoding is on. Both live in
	// link-owned scratch reused across frames of the same geometry.
	detIdx, detLLR, yb := l.sizeReceive(cfg.NumSymbols, nc, na, soft != nil)
	res := &Result{StreamOK: make([]bool, nc)}
	for s := 0; s < ofdm.NumData; s++ {
		if hsDet[s].Rows != na || hsDet[s].Cols != nc {
			return nil, fmt.Errorf("phy: CSI shape mismatch at subcarrier %d", s)
		}
	}
	// Transmit every (subcarrier, symbol) observation into the flat SoA
	// buffer. The loop nest is subcarrier-major so the noise draw
	// schedule — and with it every golden measurement — is independent
	// of how the detection pass below is ordered.
	for s := 0; s < ofdm.NumData; s++ {
		for t := 0; t < cfg.NumSymbols; t++ {
			at := (t*ofdm.NumData + s) * na
			channel.Transmit(yb[at:at+na], src, hs[s], f.X[t][s], noiseVar)
		}
	}
	if l.prep != nil {
		// Batched detection: walk all data subcarriers of one OFDM
		// symbol as a single sequential sweep over the SoA buffer — the
		// order the observations arrive in a real receiver. Switching
		// subcarrier per detection re-prepares through the cache, where
		// it is a pure hit after each subcarrier's first symbol.
		for t := 0; t < cfg.NumSymbols; t++ {
			row := yb[t*ofdm.NumData*na:]
			for s := 0; s < ofdm.NumData; s++ {
				if err := l.prepareDetector(det, s, hsDet[s]); err != nil {
					return nil, fmt.Errorf("phy: prepare subcarrier %d: %w", s, err)
				}
				if err := l.detectOne(det, soft, f, res, detIdx, detLLR, row[s*na:(s+1)*na], t, s, nc, noiseVar); err != nil {
					return nil, err
				}
			}
		}
	} else {
		// Without a preparation cache a subcarrier switch costs a full
		// factorization, so keep the subcarrier-major order that
		// prepares each channel exactly once.
		for s := 0; s < ofdm.NumData; s++ {
			if err := l.prepareDetector(det, s, hsDet[s]); err != nil {
				return nil, fmt.Errorf("phy: prepare subcarrier %d: %w", s, err)
			}
			for t := 0; t < cfg.NumSymbols; t++ {
				at := (t*ofdm.NumData + s) * na
				if err := l.detectOne(det, soft, f, res, detIdx, detLLR, yb[at:at+na], t, s, nc, noiseVar); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := l.decodeFrame(f, detIdx, detLLR, soft != nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// TransmitReceiveBatchCSI runs a batch of frames that share one
// per-subcarrier channel set through transmit → detect → decode,
// producing per-frame Results byte-identical to calling
// TransmitReceiveCSI once per frame. Two things change, neither of
// which can alter a decision:
//
//   - Transmission still runs frame-by-frame in the single-frame
//     subcarrier-major order, each frame drawing noise from its own
//     source, so every frame's noise schedule is exactly the
//     single-frame schedule.
//   - Detection extends the symbol-major SoA sweep across the whole
//     batch: each subcarrier's detector preparation happens once per
//     batch instead of once per (frame, symbol), and then every frame's
//     observations on that subcarrier are swept in one pass. A
//     preparation is a pure function of the subcarrier's channel (the
//     cache-hit contract: a hit changes where prepared state comes
//     from, never what it contains), and a detection is a pure function
//     of (prepared state, observation), so reordering detections across
//     frames cannot change any of them.
//
// Only the complexity accounting (pool counters, detector stats) is
// attributed batch-wide rather than per frame.
func (l *Link) TransmitReceiveBatchCSI(srcs []*rng.Source, frames []*Frame, hsTrue, hsDet []*cmplxmat.Matrix, det core.Detector, noiseVar float64) ([]*Result, error) {
	cfg := l.cfg
	b := len(frames)
	if b == 0 || len(srcs) != b {
		return nil, fmt.Errorf("phy: batch of %d frames with %d sources", b, len(srcs))
	}
	hs := hsTrue
	if len(hs) != ofdm.NumData || len(hsDet) != ofdm.NumData {
		return nil, fmt.Errorf("phy: %d/%d subcarrier channels, want %d", len(hs), len(hsDet), ofdm.NumData)
	}
	nc := len(frames[0].Payloads)
	na := hs[0].Rows
	if hs[0].Cols != nc {
		return nil, fmt.Errorf("phy: channel has %d streams, frame has %d", hs[0].Cols, nc)
	}
	for _, f := range frames {
		if len(f.Payloads) != nc {
			return nil, fmt.Errorf("phy: mixed stream counts in batch (%d vs %d)", len(f.Payloads), nc)
		}
	}
	var soft core.SoftDetector
	if cfg.SoftDecoding {
		sd, ok := det.(core.SoftDetector)
		if !ok {
			return nil, fmt.Errorf("phy: soft decoding requires a SoftDetector, %s is not one", det.Name())
		}
		if noiseVar <= 0 {
			return nil, fmt.Errorf("phy: soft decoding needs a positive noise variance")
		}
		soft = sd
	}
	for s := 0; s < ofdm.NumData; s++ {
		if hsDet[s].Rows != na || hsDet[s].Cols != nc {
			return nil, fmt.Errorf("phy: CSI shape mismatch at subcarrier %d", s)
		}
	}
	T := cfg.NumSymbols
	detIdx, detLLR, yb := l.sizeReceive(b*T, nc, na, soft != nil)
	results := make([]*Result, b)
	// Transmit frame-by-frame in the single-frame subcarrier-major
	// order: frame f's symbol t on subcarrier s lands at SoA row f·T+t.
	for f := 0; f < b; f++ {
		for s := 0; s < ofdm.NumData; s++ {
			for t := 0; t < T; t++ {
				at := ((f*T+t)*ofdm.NumData + s) * na
				channel.Transmit(yb[at:at+na], srcs[f], hs[s], frames[f].X[t][s], noiseVar)
			}
		}
		results[f] = &Result{StreamOK: make([]bool, nc)}
	}
	// Batched detection: one preparation per subcarrier per batch, then
	// a single sweep over every frame's symbols on that subcarrier.
	for s := 0; s < ofdm.NumData; s++ {
		if err := l.prepareDetector(det, s, hsDet[s]); err != nil {
			return nil, fmt.Errorf("phy: prepare subcarrier %d: %w", s, err)
		}
		for f := 0; f < b; f++ {
			fIdx := detIdx[f*T : (f+1)*T]
			var fLLR [][][]float64
			if soft != nil {
				fLLR = detLLR[f*T : (f+1)*T]
			}
			for t := 0; t < T; t++ {
				at := ((f*T+t)*ofdm.NumData + s) * na
				if err := l.detectOne(det, soft, frames[f], results[f], fIdx, fLLR, yb[at:at+na], t, s, nc, noiseVar); err != nil {
					return nil, err
				}
			}
		}
	}
	// Per-frame, per-stream decoding, in frame order.
	for f := 0; f < b; f++ {
		fIdx := detIdx[f*T : (f+1)*T]
		var fLLR [][][]float64
		if soft != nil {
			fLLR = detLLR[f*T : (f+1)*T]
		}
		if err := l.decodeFrame(frames[f], fIdx, fLLR, soft != nil, results[f]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// decodeFrame decodes every stream of frame f into res.StreamOK —
// from the detector LLRs when soft is set, from the hard decisions
// otherwise — and reports one DecodeSample per stream to the
// configured Recorder.
func (l *Link) decodeFrame(f *Frame, detIdx [][][]int, detLLR [][][]float64, soft bool, res *Result) error {
	for k := range res.StreamOK {
		var s obs.DecodeSample
		var err error
		if soft {
			s, err = l.decodeStreamSoft(f, detLLR, k, byte(0x5d+k))
		} else {
			s, err = l.decodeStream(f, detIdx, k, byte(0x5d+k))
		}
		if err != nil {
			return err
		}
		res.StreamOK[k] = s.OK
		if l.cfg.Recorder != nil {
			l.cfg.Recorder.RecordDecode(s)
		}
	}
	return nil
}

// prepareDetector prepares det for subcarrier s's channel, through the
// attached PrepPool when one is set.
func (l *Link) prepareDetector(det core.Detector, s int, h *cmplxmat.Matrix) error {
	if l.prep != nil {
		return l.prep.Prepare(det, s, h)
	}
	return det.Prepare(h)
}

// detectOne runs one (symbol, subcarrier) detection from the SoA
// receive buffer: hard decisions, soft values when requested, and the
// pre-FEC symbol-error accounting.
//
//geolint:noalloc
func (l *Link) detectOne(det core.Detector, soft core.SoftDetector, f *Frame, res *Result, detIdx [][][]int, detLLR [][][]float64, y []complex128, t, s, nc int, noiseVar float64) error {
	if _, err := det.Detect(detIdx[t][s], y); err != nil {
		//geolint:alloc-ok error path
		return fmt.Errorf("phy: detect subcarrier %d symbol %d: %w", s, t, err)
	}
	if soft != nil {
		if _, err := soft.DetectSoft(detLLR[t][s], y, noiseVar); err != nil {
			//geolint:alloc-ok error path
			return fmt.Errorf("phy: soft detect subcarrier %d symbol %d: %w", s, t, err)
		}
	}
	cons := l.cfg.Cons
	for k := 0; k < nc; k++ {
		res.Symbols++
		//geolint:float-ok both operands are verbatim entries of the same constellation table
		if cons.PointIndex(detIdx[t][s][k]) != f.X[t][s][k] {
			res.SymbolErrors++
		}
	}
	return nil
}

// sizeReceive returns the geometry-dependent detector output buffers
// and the flat SoA receive buffer for rows symbol rows (NumSymbols for
// a single frame, batch×NumSymbols for a frame batch), reusing the
// link's scratch when it is already large enough — so alternating
// batch sizes slice the same high-water-mark allocation instead of
// reallocating. Every entry is fully overwritten before use (Transmit
// writes every observation, Detect and DetectSoft write all nc entries
// of their slot), so reuse cannot leak one frame's signal or decisions
// into the next.
func (l *Link) sizeReceive(rows, nc, na int, soft bool) (detIdx [][][]int, detLLR [][][]float64, yb []complex128) {
	cfg := l.cfg
	r := &l.rx
	if len(r.detIdx) < rows || len(r.detIdx[0][0]) != nc {
		r.detIdx = make([][][]int, rows)
		flat := make([]int, rows*ofdm.NumData*nc)
		for t := range r.detIdx {
			r.detIdx[t] = make([][]int, ofdm.NumData)
			for s := range r.detIdx[t] {
				r.detIdx[t][s], flat = flat[:nc:nc], flat[nc:]
			}
		}
	}
	detIdx = r.detIdx[:rows]
	if soft {
		q := nc * cfg.Cons.Bits()
		if len(r.detLLR) < rows || len(r.detLLR[0][0]) != q {
			r.detLLR = make([][][]float64, rows)
			flat := make([]float64, rows*ofdm.NumData*q)
			for t := range r.detLLR {
				r.detLLR[t] = make([][]float64, ofdm.NumData)
				for s := range r.detLLR[t] {
					r.detLLR[t][s], flat = flat[:q:q], flat[q:]
				}
			}
		}
		detLLR = r.detLLR[:rows]
	}
	n := rows * ofdm.NumData * na
	if cap(r.yb) < n {
		r.yb = make([]complex128, n)
	}
	return detIdx, detLLR, r.yb[:n]
}

// depuncture re-inserts erasures into one stream's coded LLRs using
// the link's reusable mother-code buffer. For rate 1/2 the mother
// length equals the coded length, so one motherLen-sized buffer serves
// every rate.
func (l *Link) depuncture(coded []float64) []float64 {
	cfg := l.cfg
	sc := &l.dec
	motherLen := 2 * (cfg.InfoBits() + fec.ConstraintLength - 1)
	if cap(sc.llrs) < motherLen {
		sc.llrs = make([]float64, motherLen)
	}
	return fec.DepunctureInto(sc.llrs[:motherLen], coded, cfg.Rate, motherLen)
}

// decodeStreamSoft is decodeStream over detector LLRs: deinterleave
// the soft values, depuncture, run the full soft Viterbi recursion,
// check the CRC. The soft path never takes the error-free bypass: the
// bypass's exactness rests on integer correlations that cannot tie,
// which float sums do not guarantee.
func (l *Link) decodeStreamSoft(f *Frame, detLLR [][][]float64, k int, scramblerSeed byte) (obs.DecodeSample, error) {
	cfg := l.cfg
	sc := &l.dec
	q := cfg.Cons.Bits()
	ds := obs.DecodeSample{Stream: k}
	if cap(sc.coded) < cfg.CodedBits() {
		sc.coded = make([]float64, 0, cfg.CodedBits())
	}
	if cap(sc.blockSoft) < cfg.BitsPerSymbol() {
		sc.blockSoft = make([]float64, cfg.BitsPerSymbol())
		sc.deintSoft = make([]float64, cfg.BitsPerSymbol())
	}
	coded := sc.coded[:0]
	block := sc.blockSoft[:cfg.BitsPerSymbol()]
	for t := 0; t < cfg.NumSymbols; t++ {
		for s := 0; s < ofdm.NumData; s++ {
			copy(block[s*q:(s+1)*q], detLLR[t][s][k*q:(k+1)*q])
		}
		deint, err := l.il.DeinterleaveSoft(sc.deintSoft[:cfg.BitsPerSymbol()], block)
		if err != nil {
			return ds, err
		}
		coded = append(coded, deint...)
	}
	llrs := l.depuncture(coded)
	dec, metric, err := sc.vit.DecodeSoftMetric(llrs)
	if err != nil {
		return ds, err
	}
	ds.PathMetric = metric / float64(len(llrs))
	ds.OK = checkPayload(dec, scramblerSeed, f.Payloads[k])
	return ds, nil
}

// decodeStream decodes stream k from the detected point indices. The
// fused hardValues pass builds the mother-code input; a stream that
// arrived as an exact codeword then takes the encoder-inverse bypass,
// and only the rest run the full add-compare-select recursion. Both
// give identical bits and metric (fec.DecodeHardBypass), so the sample
// differs only in Bypassed.
//
//geolint:noalloc
func (l *Link) decodeStream(f *Frame, detIdx [][][]int, k int, scramblerSeed byte) (obs.DecodeSample, error) {
	vals := l.hardValues(detIdx, k)
	ds := obs.DecodeSample{Stream: k}
	vit := &l.dec.vit
	dec, metric, ok := []byte(nil), 0.0, false
	if !l.forceACS {
		dec, metric, ok = vit.DecodeHardBypass(vals)
	}
	ds.Bypassed = ok
	if !ok {
		var err error
		if dec, metric, err = vit.DecodeHardMetric(vals); err != nil {
			return ds, err
		}
	}
	ds.PathMetric = metric / float64(len(vals))
	ds.OK = checkPayload(dec, scramblerSeed, f.Payloads[k])
	return ds, nil
}

// hardValues is the fused hard-decision front end of stream k: one
// pass over the frame's detected points that demaps, deinterleaves and
// depunctures at once, writing each bit's ±1 straight into its
// mother-code slot through the hardStage tables. The returned slice
// aliases the Link's buffer and is valid until the next call.
//
//geolint:noalloc
func (l *Link) hardValues(detIdx [][][]int, k int) []int8 {
	hs := &l.hard
	q := l.nbps
	vals, pos := hs.vals, hs.pos
	i := 0
	for _, row := range detIdx[:l.cfg.NumSymbols] {
		for _, pts := range row {
			idx := pts[k]
			for _, v := range hs.labels[idx*q : (idx+1)*q] {
				vals[pos[i]] = v
				i++
			}
		}
	}
	return vals[:len(vals)-1] // drop the discard slot
}

// checkPayload descrambles decoded info bits in place, verifies their
// CRC and compares the payload with the transmitted one: a CRC pass
// with a wrong payload would be a miss, so the simulator never
// overcounts goodput.
//
//geolint:noalloc
func checkPayload(dec []byte, scramblerSeed byte, want []byte) bool {
	fec.Scramble(dec, scramblerSeed)
	payload, ok := fec.CheckCRC(dec)
	if !ok || len(payload) != len(want) {
		return false
	}
	for i := range want {
		if payload[i] != want[i] {
			return false
		}
	}
	return true
}
