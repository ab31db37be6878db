#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root; arguments pass through to the binary:
#
#   bash perfbench/run.sh --workload month-batch --seed 7 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: Go's build cache, its home and config directories, the
# binary, the generated inputs, the ledgers and the traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

# The sources need not sit in a git work tree, so the binary carries no
# VCS stamp: an enclosing repository cannot fail the build.
go -C perfbench build -buildvcs=false -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" --work "$build/perfbench" "$@"
