#!/bin/sh
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root: bash bench/run.sh [flags].
#
# The benchmark reads and writes only inside its checkout, so Go's build
# cache, its temporary files and its user configuration (which also holds
# the toolchain's telemetry counters) live under .bench_build/, and the
# toolchain never switches to a version it would have to download.
set -e
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
    echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ needed)" >&2
    exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd bench && go build -o "$out/netlocbench" .)
exec "$out/netlocbench" "$@"
