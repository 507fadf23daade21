#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it. Everything the build
# and the run write — Go's build cache and temp files, the binaries, the
# fixture, the detail file — goes under .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/rnbench" .
exec "$build/rnbench" "$@"
