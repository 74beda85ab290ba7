#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given arguments, e.g.
#
#   bash cmd/bench/run.sh --workload attack-hs1 --seed 7 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that directory: the Go build cache, the
# module and toolchain state, temporary files and the binary. The build
# never reaches the network. Without the repository's go.mod beside it the
# build fails, and so does this script.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

go build -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
