#!/bin/sh
# Full CI gate: static checks, build, the race-enabled test suite (which
# exercises the deduplicating cache behind both the artifact store and
# the service's result cache through internal/workcache's LRU storm
# tests), the benchmark module's vet and tests, and the examples, whose
# output must equal their committed examples/<name>/testdata/output.txt.
set -e
cd "$(dirname "$0")/.."

echo "=== gofmt ==="
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "=== go vet ==="
go vet ./...

echo "=== go build ==="
go build ./...

# -timeout 30m: under the race detector the harness suite (every
# experiment, both formats) legitimately exceeds go test's default
# 10-minute per-package timeout on small CI runners.
echo "=== go test -race ==="
go test -race -timeout 30m ./...

# The full suite above runs with the machine's GOMAXPROCS; on a 1-CPU
# runner the parallel engine then degrades to sequential and its
# goroutine interactions go unexercised. Re-run the engine-heavy tests
# with explicit worker counts > 1 so the race detector always sees the
# concurrent paths.
echo "=== go test -race (parallel engine, forced workers) ==="
# LRU selects the workcache LRU's sharing, panic and counting storms;
# Jellyfish|SlimFly|HyperX pull in the new-family determinism and
# regularity regressions alongside the engine suites; Concurrent also
# replays one shared simnet Wire from several goroutines;
# Runtime|ChromeTrace|SlowRun|RunEvent|DebugRun add the telemetry
# sampler goroutine, trace exporter, and run-event/slow-run plumbing.
# internal/comm is not listed: trace accumulation is one sequential loop
# that starts no goroutines, and none of its tests match the pattern.
go test -race -timeout 30m -run 'Parallel|Determin|Budget|ForEach|Singleflight|LRU|Concurrent|Span|Registry|Job|Jellyfish|SlimFly|HyperX|Runtime|ChromeTrace|SlowRun|RunEvent|DebugRun' \
    ./internal/parallel ./internal/metrics ./internal/core ./internal/service ./internal/obs ./internal/design ./internal/workcache ./internal/congest ./internal/simnet ./internal/topology .

# Golden Chrome-trace shape gate: the exported trace must stay a valid
# JSON array with pid/tid on every event and monotonic timestamps, or
# Perfetto / chrome://tracing silently refuses the file.
echo "=== go test (chrome trace shape) ==="
go test -run 'ChromeTrace|DebugRunTrace' ./internal/obs ./internal/service

# The committed fuzz seed corpora are regression inputs: replay them
# (seeds only — no fuzzing engine) so a corpus entry that starts
# crashing fails CI before any long fuzz run would find it.
echo "=== go test (fuzz seed corpora) ==="
go test -run 'Fuzz' ./internal/topology ./internal/service ./internal/trace ./internal/dumpi ./internal/comm

# Allocation pins are built only without -race (the race runtime
# allocates on its own), so the -race runs above never reach them: run
# them here without it. They pin that a workcache hit allocates only its
# key, that trace accumulation's allocation count does not grow with the
# messages per rank pair and an allreduce's allocation grows with the
# ranks, not the rank pairs, that ending a matrix build (Builder.Matrix)
# makes as many allocations at 4,096 sparse rows as at 64, that the
# world communicator (mpi.World) costs the same at 4,096 ranks as at
# 256, that a congest tolerance probe and a lean simnet replay allocate
# nothing per message, that a netmodel run allocates no more than its
# pinned ceilings, that Greedy's allocation count does not grow with the
# rank count, and that Route into a warm buffer allocates nothing on any
# topology type.
echo "=== go test (allocation pins, no -race) ==="
go test -run 'Alloc' ./internal/workcache ./internal/comm ./internal/mpi ./internal/congest ./internal/simnet ./internal/netmodel ./internal/mapping ./internal/topology

# Every committed results/ file is an output pin: regenerate both formats
# of every experiment (the full grid, no -race) and fail on any file that
# differs from results/ or is missing there.
echo "=== results/ (regenerated, no -race) ==="
RESULTS_DIR="$(mktemp -d)"
trap 'rm -rf "$RESULTS_DIR"' EXIT
go run ./cmd/locality -all "$RESULTS_DIR"
go run ./cmd/locality -all "$RESULTS_DIR" -csv
for f in "$RESULTS_DIR"/*; do
    name="$(basename "$f")"
    if [ ! -f "results/$name" ]; then
        echo "results: $name is generated but missing from results/" >&2
        exit 1
    fi
    if ! cmp "$f" "results/$name"; then
        echo "results: $name differs from results/$name" >&2
        exit 1
    fi
done

# EXPERIMENTS.md quotes the root Ablation*/Extension* benchmarks, which
# the test runs above never execute: run each one iteration so they keep
# running and their reported numbers can be read off the log.
echo "=== ablation benchmarks (one iteration each) ==="
go test -run '^$' -bench 'Ablation|Extension' -benchtime 1x .

# bench/ is a module of its own, so the root ./... above never builds
# it: vet and test it here, or a change to the packages it drives could
# stop the benchmark from compiling unnoticed.
echo "=== bench module ==="
(cd bench && go vet ./... && go test ./...)

echo "=== examples ==="
sh scripts/run_examples.sh

echo "ci: all green"
