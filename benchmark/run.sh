#!/usr/bin/env bash
# Builds the benchmark and the module it measures from source, then runs it
# with the caller's arguments from the root of the checkout. Everything the
# build and the run write stays under .bench_build/ and benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
# GOPATH, GOENV and XDG_CONFIG_HOME keep the module cache, the user's go
# settings and the toolchain's telemetry counters out of the home directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOENV=off XDG_CONFIG_HOME="$build/config"
export GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/slicer-benchmark" .)
cd "$root"
exec "$build/slicer-benchmark" "$@"
