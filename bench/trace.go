package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Start and End are offsets from the
// tracer's origin; Parent indexes the causing span (-1 for a root); ID
// is the request id (the frame key) every span of one frame shares.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	ID         int64
	Lane       int
}

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use: the serve workload records from many waiter goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span from absolute times and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent int, id int64, lane int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, ID: id, Lane: lane})
	return len(t.spans) - 1
}

// addDur records a span of duration d starting at start; aggregated
// child spans (all of a frame's detect calls, say) use it, so their
// length is the summed call time even though the calls interleave with
// other work.
func (t *tracer) addDur(name string, start time.Time, d time.Duration, parent int, id int64, lane int) int {
	return t.add(name, start, start.Add(d), parent, id, lane)
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto) at dir/<workload>.trace.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return "", err
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
