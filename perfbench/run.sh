#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload peak-city --seed 1 --seconds 10 --trace 0
# Run from the repository root. Every build and run artefact (Go build
# cache, binary, WAL directories, span files) stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build/out" "$@"
