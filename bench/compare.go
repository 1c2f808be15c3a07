package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json -compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readSpec reads BENCHMARK.json at the repository root, run from the
// root or from the bench directory.
func readSpec() (spec, error) {
	var s spec
	err := readJSON("BENCHMARK.json", &s)
	if errors.Is(err, os.ErrNotExist) {
		err = readJSON("../BENCHMARK.json", &s)
	}
	return s, err
}

// medians returns, per workload, each metric's median over the report's
// runs of that workload.
func medians(rep report) map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range rep.Runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v.Value)
		}
	}
	out := map[string]map[string]float64{}
	for w, ms := range vals {
		out[w] = map[string]float64{}
		for name, xs := range ms {
			out[w][name] = median(xs)
		}
	}
	return out
}

// worsening is how much b is worse than a, as a share of a: positive
// when the metric moved in its bad direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per workload and end-to-end metric, the change
// from a to b against the bound in BENCHMARK.json and a verdict. It
// exits 1 when any metric regressed beyond its bound.
func compareReports(aPath, bPath string, stdout, stderr io.Writer) int {
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var a, b report
	if err := readJSON(aPath, &a); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if err := readJSON(bPath, &b); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	ma, mb := medians(a), medians(b)
	var names []string
	for w := range ma {
		if _, ok := mb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the reports share no workload")
		return 2
	}
	regressed := false
	fmt.Fprintf(stdout, "%-22s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			va, okA := ma[w][m.Name]
			vb, okB := mb[w][m.Name]
			if !okA || !okB {
				continue
			}
			d := worsening(va, vb, m.Better)
			verdict := "within bound"
			if d > m.Bound {
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(stdout, "%-22s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", w, m.Name, va, vb, 100*d, 100*m.Bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
