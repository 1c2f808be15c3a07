package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// NewHandler exposes a Server over HTTP:
//
//	GET  /healthz          — liveness probe
//	GET  /stats            — JSON: serving counters, plus the pipeline
//	                         StatsRecorder snapshot when one is wired
//	POST /ingest?group=N&frames=M
//	                       — synchronously serve M frames (default 1)
//	                         for group N and return their summary; an
//	                         overloaded shard answers 503 with the
//	                         rejection count, the admission-control
//	                         contract made visible to clients; a
//	                         group of 2^43 or more answers 400, and
//	                         a group past its last frame sequence
//	                         (ErrSeqExhausted) answers 409
//
// pipeline may be nil when the service runs without a StatsRecorder.
func NewHandler(s *Server, pipeline *obs.StatsRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		resp := struct {
			Serve    StatsSnapshot `json:"serve"`
			Pipeline *obs.Snapshot `json:"pipeline,omitempty"`
		}{Serve: s.Stats().Snapshot()}
		if pipeline != nil {
			snap := pipeline.Snapshot()
			resp.Pipeline = &snap
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		group, err := strconv.ParseUint(r.URL.Query().Get("group"), 10, 64)
		if err != nil {
			http.Error(w, "ingest: group must be an unsigned integer", http.StatusBadRequest)
			return
		}
		frames := 1
		if fs := r.URL.Query().Get("frames"); fs != "" {
			frames, err = strconv.Atoi(fs)
			if err != nil || frames <= 0 || frames > 10000 {
				http.Error(w, "ingest: frames must be in 1..10000", http.StatusBadRequest)
				return
			}
		}
		var sum ingestSummary
		sum.Group = group
		for i := 0; i < frames; i++ {
			o, err := s.Process(r.Context(), group)
			switch {
			case err == nil:
				sum.Served++
				if o.OK {
					sum.OK++
				}
				sum.StreamErrors += o.StreamErrors
				sum.countTier(o.Tier)
			case isOverload(err):
				sum.Rejected++
			case errors.Is(err, ErrBadGroup):
				http.Error(w, "ingest: "+err.Error(), http.StatusBadRequest)
				return
			case errors.Is(err, ErrSeqExhausted):
				http.Error(w, "ingest: "+err.Error(), http.StatusConflict)
				return
			default:
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		status := http.StatusOK
		if sum.Served == 0 && sum.Rejected > 0 {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, sum)
	})
	return mux
}

// ingestSummary is the /ingest response body.
type ingestSummary struct {
	Group        uint64           `json:"group"`
	Served       int              `json:"served"`
	OK           int              `json:"ok"`
	StreamErrors int              `json:"stream_errors"`
	Rejected     int              `json:"rejected"`
	Tiers        obs.TierSnapshot `json:"tiers"`
}

func (s *ingestSummary) countTier(t obs.Tier) {
	switch t {
	case obs.TierGeosphere:
		s.Tiers.Geosphere++
	case obs.TierKBest:
		s.Tiers.KBest++
	case obs.TierZF:
		s.Tiers.ZF++
	default:
		s.Tiers.None++
	}
}

// isOverload reports whether err is the admission-control reject.
func isOverload(err error) bool {
	return errors.Is(err, ErrOverload)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
