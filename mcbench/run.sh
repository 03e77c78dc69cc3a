#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it.
#
#   bash mcbench/run.sh --workload conformance --seed 1 --seconds 15 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build/
# at the checkout root. Arguments are passed to the benchmark unchanged;
# the last line it prints on stdout is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOTELEMETRY=off
(cd "$root/mcbench" && go build -trimpath -o "$build/mcbench" .) 1>&2
cd "$root"
exec "$build/mcbench" "$@"
