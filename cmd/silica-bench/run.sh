#!/usr/bin/env bash
# BENCHMARK.json's command: build silica-bench from source inside the
# checkout and run it with the driver's arguments.
#
#   bash cmd/silica-bench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Everything written — Go build cache, binary, persist directories, span
# dumps — stays under <checkout>/.bench_build. The benchmark is a module
# of its own (go.mod beside this file) that replaces the `silica` module
# with the checkout root, so in a directory holding only the benchmark
# the build fails and the script exits non-zero without printing a
# result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/silica-bench-data"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/silica-bench" .)

cd "$root"
exec "$build/silica-bench" -dir "$build/silica-bench-data" "$@"
