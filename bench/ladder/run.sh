#!/usr/bin/env bash
# Build file and entry point of the ladder benchmark (BENCHMARK.json's
# command): compiles ./bench/ladder from the checkout it is run in and
# executes it with the caller's arguments. Everything the Go toolchain writes
# (build cache, temp files, telemetry, the binary) stays under .bench_build/
# in the checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/../.."
# The benchmark is a package of the repository's module and measures its
# engine; without them there is nothing to build. Say so before any process is
# started.
if [[ ! -f go.mod ]]; then
	echo "bench/ladder: no go.mod in $PWD: the benchmark needs the must module it measures" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# With telemetry in its default "local" mode the go command detaches a
# `go ** telemetry **` child that can outlive it (and, when the build fails at
# once, this script). "off" in the mode file is what `go telemetry off` writes;
# with it no child is started, so no process is left behind on any path out.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/ladder" ./bench/ladder
exec "$build/ladder" "$@"
