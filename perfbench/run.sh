#!/usr/bin/env bash
# Builds the benchmark from source and runs it; see README.md.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare BASE.jsonl CHANGE.jsonl
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home" "$build/gopath"

# Keep the Go toolchain's caches, temporary files and settings inside the
# checkout; never fetch a toolchain or module.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" "$@"
