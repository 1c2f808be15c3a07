# Single source of truth for the repository's check pipeline: CI jobs
# and local runs invoke the same targets, so "passes locally" and
# "passes in CI" mean the same thing.

# staticcheck is pinned by exact version here — and only here — via
# `go run pkg@version`, which resolves and verifies the module against
# go.sum-style checksums without touching go.mod. A tools.go +
# go.mod require would be the classic pin, but this module vendors
# nothing and keeps its require list empty; the pinned @version run is
# reproducible (the go command verifies the module checksum against
# the public sumdb) and needs no tool-dependency scaffolding.
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.3

.PHONY: check fmt vet lint lint-json staticcheck vulncheck test shuffle equiv bench bench-smoke serve-bench fuzz-smoke race

# Everything the merge gate requires. The detector-equivalence suite
# runs a second time in shuffled order so an accidental coupling
# between its grid cells cannot hide behind a fixed execution order.
check: fmt vet lint test equiv

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	go vet ./...

# The repository's own analyzer suite (see internal/lint). Also
# runnable under the vet driver for cached incremental runs:
#   go build -o bin/geolint ./cmd/geolint && go vet -vettool=bin/geolint ./...
lint:
	go run ./cmd/geolint ./...

# Machine-readable suite report (diagnostics + escape-hatch inventory
# with per-hatch usage); CI uploads geolint.json as an artifact. Same
# exit-code contract as lint, so the file is written even on failure.
lint-json:
	go run ./cmd/geolint -json ./... > geolint.json

staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Known-vulnerability scan; advisory (non-blocking in CI) because
# findings depend on the vulndb snapshot, not on this repo's changes.
vulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	go test ./...

# Twice, in random order: catches tests coupled through shared state.
shuffle:
	go test -shuffle=on -count=2 ./...

# The cross-detector equivalence suite (TestEquiv*), shuffled: the
# bit-identity and symbol-agreement contracts must hold regardless of
# which grid cell runs first.
equiv:
	go test -shuffle=on -run 'TestEquiv' ./internal/core

# Regenerate BENCH_geosphere.json: the performance envelope of the
# receiver pipeline (ns/frame, ns/detect, allocs/op, preparation-cache
# hit rate per scenario) against the recorded pre-cache baseline.
bench:
	go run ./cmd/geobench -o BENCH_geosphere.json

# One iteration of every detector micro-benchmark, of the hard decode
# stage (a 4×4 frame: error-free bypass, lane-parallel recursion,
# one-codeword ablation; and the fec kernels alone), and of the frame
# path's per-frame cost and allocations (link.Processor: one frame
# alone and a 4-frame batch), and of the service's resident footprint
# (live bytes and heap objects per group, 4×2 and 4×4).
bench-smoke:
	go test -run '^$$' -bench 'BenchmarkDetect|BenchmarkDecodeFrame|BenchmarkDecodeHard|BenchmarkProcess|BenchmarkGroupFootprint' -benchmem -benchtime=1x ./...

# Load-test the resident serving pipeline (cmd/geocell): tens of
# thousands of concurrent simulated user groups through the sharded
# detector service, recording admission-to-completion p50/p99 frame
# latency, offered vs served frames/sec, micro-batch size and ring
# occupancy distributions, and the Geosphere → K-best → ZF degradation
# mix under the "serve" key of BENCH_geosphere.json (cmd/geobench
# preserves that key when it regenerates the rest of the file).
# Retries back off exponentially with jitter from -backoff up to
# -backoff-max, so retry storms cannot busy-spin the admission ring;
# after the default retry budget a frame is dropped and counted, so
# served-frame latency measures the service, not the backoff ladder.
serve-bench:
	go run ./cmd/geoload -users 10000 -frames 3 -backoff 1ms -backoff-max 100ms -o BENCH_geosphere.json

# A short budget on each fuzzed property: detector agreement across
# the constellation × shape grid (Geosphere, ETH-SD, RVD and — where
# enumerable — exhaustive ML must agree on every random instance),
# projection-stack consistency (cached partial projections must equal
# from-scratch recomputation to the last ULP on any search walk), the
# hard-decision bypass (whenever the encoder-inverse walk accepts, it
# must equal the full Viterbi recursion in bits and metric), the
# lane-parallel recursion (every lane must equal the one-codeword
# recursion in bits and metric), the in-place reseedable random
# source (New and Reseed must draw math/rand's stream for any seed),
# the clamp-first axis slicer (it must equal the rounding formula
# wherever that is defined, and the clamp everywhere else), and the
# preparation pool's shares (a slot that copies another slot's fill
# must equal a standalone fill bit for bit on any slot/channel walk).
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzDetectAgreement -fuzztime 20s ./internal/core
	go test -run '^$$' -fuzz FuzzProjectionCache -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz FuzzPrepShare -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz FuzzHardDecodeBypass -fuzztime 10s ./internal/fec
	go test -run '^$$' -fuzz FuzzHardDecodeLanes -fuzztime 10s ./internal/fec
	go test -run '^$$' -fuzz FuzzSourceMatchesMathRand -fuzztime 10s ./internal/rng
	go test -run '^$$' -fuzz FuzzSliceAxis -fuzztime 10s ./internal/constellation

# The whole module, including the facade's streaming conformance and
# Receiver-hammering tests; -short skips only the long benchmark-grade
# root tests.
race:
	go test -race -short ./...
