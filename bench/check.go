package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/ofdm"
)

// adaptiveStreamSlack is the share of streams by which the adaptive
// scheduler's stream errors may exceed exact Geosphere's on the replayed
// frames. Its K-best tier on the ramp's ill-conditioned tail loses
// 0.32–0.39% of streams against exact Geosphere (measured replaying
// every frame of 10200-frame windows at seeds 1, 2, 3, 7, 99 and 2014),
// so the 0.1% its calibration test pins on one seed does not hold here.
// Errors cluster in the hard trace segments, so a sample of every 50th
// frame reads higher — 0.7% on one 680-frame sample — and the slack sits
// at about 3× that.
const adaptiveStreamSlack = 0.02

// check replays frames through the workload's exact reference on a
// fresh pipeline and records the verdict in r. Geosphere must agree with
// ETH-SD frame for frame (per-stream CRC outcome and symbol errors);
// the adaptive scheduler may lose at most adaptiveStreamSlack of the
// streams against exact Geosphere.
func (w linkWorkload) check(r *result, seed int64, frames []replayFrame, label string) {
	if len(frames) == 0 {
		r.fail(fmt.Sprintf("%s: no frames to replay", label))
		return
	}
	proc, err := link.NewProcessor(w.config(seed))
	if err != nil {
		r.fail(fmt.Sprintf("%s: replay pipeline: %v", label, err))
		return
	}
	ref := w.reference()
	pool := core.NewPrepPool(ofdm.NumData)
	var streams, gotErrs, refErrs, mismatched int
	for _, f := range frames {
		out := proc.Process(link.Work{Frame: f.frame, Channels: f.hs, Det: ref, Pool: pool})
		if out.Err != nil {
			r.fail(fmt.Sprintf("%s: replay of frame %d: %v", label, f.frame, out.Err))
			return
		}
		streams += len(f.res.StreamOK)
		gotErrs += streamErrors(f.res.StreamOK)
		refErrs += streamErrors(out.Res.StreamOK)
		if !slices.Equal(f.res.StreamOK, out.Res.StreamOK) || f.res.SymbolErrors != out.Res.SymbolErrors {
			mismatched++
		}
	}
	if w.adaptive {
		excess := gotErrs - refErrs
		msg := fmt.Sprintf("%s: %d frames replayed with %s, stream errors %d vs %d of %d streams (slack %.1f)",
			label, len(frames), ref.Name(), gotErrs, refErrs, streams, adaptiveStreamSlack*float64(streams))
		if float64(excess) > adaptiveStreamSlack*float64(streams) {
			r.fail(msg)
		} else {
			r.pass(msg)
		}
		return
	}
	msg := fmt.Sprintf("%s: %d frames replayed with %s, %d differ", label, len(frames), ref.Name(), mismatched)
	if mismatched > 0 {
		r.fail(msg)
	} else {
		r.pass(msg)
	}
}

func streamErrors(ok []bool) int {
	n := 0
	for _, s := range ok {
		if !s {
			n++
		}
	}
	return n
}
