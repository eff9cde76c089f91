#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash hsisbench/run.sh --workload table1 --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, the binary) lands under .bench_build/, so the
# run touches nothing outside the checkout. Build output goes to stderr;
# the last line on stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/hsisbench" && go build -o "$out/hsisbench" .) 1>&2
exec "$out/hsisbench" "$@"
