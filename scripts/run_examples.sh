#!/bin/sh
# Runs every example end to end and compares what it prints with its
# committed examples/<name>/testdata/output.txt. The examples print
# deterministic bytes, so any difference fails: the Go tests cover the
# libraries, this covers the example binaries and pins their output.
# After a change that moves an example's output on purpose, regenerate
# its pin with `go run ./examples/<name> > examples/<name>/testdata/output.txt`.
set -e
cd "$(dirname "$0")/.."
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
for d in examples/*/; do
    echo "=== $d ==="
    go run "./$d" > "$OUT"
    cat "$OUT"
    if ! cmp -s "$OUT" "${d}testdata/output.txt"; then
        echo "examples: the output of $d differs from ${d}testdata/output.txt" >&2
        diff "${d}testdata/output.txt" "$OUT" >&2 || true
        exit 1
    fi
    echo
done
