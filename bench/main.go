// Command bench is the repository's benchmark: four workloads that drive
// the coded link pipeline (link.Processor.Process) and the resident
// detection service (serve.Server.Process) through their public entry
// points, time every layer from the boundary where the benchmark hands
// it work, and check the outputs against reference replays.
//
//	go run . [-workload name] [-seed N] [-seconds S] [-trace 0|1|dir] [-json out]
//	go run . -compare a.json b.json
//
// Run from the bench directory (it is its own module), or through
// run.sh from the repository root. See README.md for the workloads, the
// metrics and how to read a trace.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// workload is one named benchmark workload.
type workload struct {
	name, why string
	run       func(seed int64, o runOpts) (*result, error)
}

func workloads() []workload {
	var ws []workload
	for _, w := range linkWorkloads {
		ws = append(ws, workload{name: w.name, why: w.why, run: w.run})
	}
	s := serveOpenLoop
	return append(ws, workload{name: s.name, why: s.why, run: s.run})
}

// env stamps every result with what it was measured on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

// report is what -json writes.
type report struct {
	Env  env       `json:"env"`
	Runs []*result `json:"runs"`
}

// traceMode interprets -trace: "" or "0" is untraced, "1" traces and
// writes spans under .bench_build/trace, anything else is the span
// directory.
func traceMode(v string) (traced bool, dir string) {
	switch v {
	case "", "0":
		return false, ""
	case "1":
		return true, ".bench_build/trace"
	}
	return true, v
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Int64("seed", 2014, "root of every generated input")
	seconds := fs.Float64("seconds", 0, "timed window length in seconds (0: each workload's reference length)")
	trace := fs.String("trace", "0", "0: untraced; 1: traced, spans under .bench_build/trace; a directory: traced, spans there")
	jsonOut := fs.String("json", "", "write every metric with unit, sample count and environment to this file")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	traced, dir := traceMode(*trace)
	var selected []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	e := currentEnv()
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPU, e.Commit)
	rep := report{Env: e}
	o := runOpts{seconds: *seconds, warmSeconds: 2, setupReps: 15, traced: traced, traceDir: dir}
	ok := true
	for _, w := range selected {
		r, err := w.run(*seed, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		rep.Runs = append(rep.Runs, r)
		printResult(stdout, r)
		ok = ok && r.Correct
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: output check failed")
		return 1
	}
	return 0
}

// printResult prints every metric by name with unit and sample count,
// the output checks, and as its last line the run summary object: the
// gated end-to-end set untraced, the per-layer set traced.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d (%s)\n", r.Workload, r.Seed, mode)
	for _, name := range r.Order {
		v := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-9s n=%d\n", name, v.Value, v.Unit, v.Samples)
	}
	for _, x := range r.Extra {
		fmt.Fprintf(w, "  %s\n", x)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, d := range defs {
		summary.Metrics[d.Name] = metric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	buf, err := json.Marshal(summary)
	if err != nil {
		panic(err) // every value is a finite number
	}
	fmt.Fprintln(w, string(buf))
}
