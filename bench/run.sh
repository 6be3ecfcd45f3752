#!/usr/bin/env bash
# Builds parserve and the benchmark into .bench_build/ at the checkout
# root, then runs the benchmark with the arguments it was given. Every
# file the Go toolchain writes (build cache, temp dirs) stays under
# .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
start=$(date +%s.%N)
(cd "$root/bench" && go build -o "$out/" . repro/cmd/parserve)
build_s=$(echo "$(date +%s.%N) $start" | awk '{printf "%.3f", $1 - $2}')
cd "$root"
exec "$out/bench" -parserve "$out/parserve" -build-s "$build_s" "$@"
