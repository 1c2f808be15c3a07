package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// populatedSnapshot builds a snapshot with every section non-empty so
// the schema walk below sees all fields that -stats json can emit.
func populatedSnapshot() obs.Snapshot {
	r := obs.NewStatsRecorder()
	r.RecordDetect(obs.DetectSample{
		Detector: "Geosphere",
		Levels: []obs.LevelSample{
			{Nodes: 3, PEDCalcs: 4, BoundChecks: 5, Prunes: 1},
			{Nodes: 2, PEDCalcs: 2, BoundChecks: 3, Prunes: 0},
		},
	})
	r.RecordDecode(obs.DecodeSample{Stream: 0, PathMetric: 0.93, OK: true, Bypassed: true})
	r.RecordDecode(obs.DecodeSample{Stream: 1, PathMetric: 0.12, OK: false})
	r.RecordFrame(obs.FrameSample{Frame: 0, Worker: 0, Duration: 3 * time.Millisecond, OK: true, Streams: 2, StreamErrors: 1})
	r.RecordPoint(obs.PointSample{
		Label: "fig11/2x2/15", Detector: "Geosphere", Constellation: "16-QAM",
		SNRdB: 15, Frames: 60, FER: 0.1, NetMbps: 33.6, PEDCalcs: 1234, VisitedNodes: 987,
	})
	return r.Snapshot()
}

// keyPaths returns every JSON key path in v, sorted; array elements
// collapse to "[]" so the schema is independent of counts.
func keyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(sub, p, out)
		}
	case []any:
		for _, sub := range x {
			keyPaths(sub, prefix+"[]", out)
		}
	}
}

// TestStatsJSONSchema pins the field set of `geosim -stats json`: the
// output is machine-readable and downstream scripts depend on these
// key paths, so adding fields requires -update and a changelog note,
// and removing or renaming fields should fail loudly here.
func TestStatsJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := dumpStats(&buf, populatedSnapshot(), "json"); err != nil {
		t.Fatalf("dumpStats: %v", err)
	}
	var parsed any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("-stats json output is not valid JSON: %v", err)
	}
	paths := map[string]bool{}
	keyPaths(parsed, "", paths)
	var sorted []string
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"

	golden := filepath.Join("testdata", "stats_schema.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("-stats json schema changed.\ngot:\n%s\nwant:\n%s\n(run go test ./cmd/geosim -update if intentional)", got, want)
	}
}

// TestStatsTextNonEmpty sanity-checks the human-readable dump.
func TestStatsTextNonEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := dumpStats(&buf, populatedSnapshot(), "text"); err != nil {
		t.Fatalf("dumpStats: %v", err)
	}
	for _, want := range []string{"detect:", "decode:", "frames:", "points:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		code int
		errs string
	}{
		{"no experiment", nil, 2, "-experiment is required"},
		{"bad stats mode", []string{"-experiment", "fig12", "-stats", "xml"}, 2, "-stats must be"},
		{"negative workers", []string{"-experiment", "fig12", "-workers", "-1"}, 2, "-workers must be"},
		{"unknown experiment", []string{"-experiment", "nope"}, 2, "unknown experiment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.argv, &out, &errw); code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.argv, code, tc.code, errw.String())
			}
			if !strings.Contains(errw.String(), tc.errs) {
				t.Errorf("stderr %q does not mention %q", errw.String(), tc.errs)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "fig11") {
		t.Errorf("-list output missing fig11:\n%s", out.String())
	}
}

// TestRunStatsJSON drives the command end to end on the smallest
// experiment and checks the trailing JSON object parses and carries
// the top-level sections.
func TestRunStatsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a (reduced) experiment")
	}
	var out, errw bytes.Buffer
	code := run([]string{"-experiment", "fig12", "-quick", "-frames", "2", "-stats", "json"}, &out, &errw)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	idx := strings.Index(out.String(), "\n{")
	if idx < 0 {
		t.Fatalf("no JSON object after tables:\n%s", out.String())
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(out.String()[idx:]), &snap); err != nil {
		t.Fatalf("trailing JSON: %v", err)
	}
	for _, k := range []string{"uptime_seconds", "detect", "decode", "frames", "workers", "points"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing %q section; have %v", k, fmt.Sprint(snap))
		}
	}
}
