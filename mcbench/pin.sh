#!/usr/bin/env bash
# Pins the campaign workloads' artifacts with the mcmutants CLI: builds
# the CLI from this checkout, runs the verb each workload matches for
# every seed from FIRST to LAST, and prints pins.json — workload → seed
# → SHA-256 of the artifact — on stdout.
#
#   bash mcbench/pin.sh 0 31 > mcbench/pins.json
#
# The flags here and the workload sizes in campaign.go must agree; the
# benchmark reports a wrong output when its artifact differs from a pin.
set -euo pipefail
first="${1:-0}"
last="${2:-31}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/pins"
export HOME="$build/home" TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOTELEMETRY=off
(cd "$root" && go build -trimpath -o "$build/mcmutants" ./cmd/mcmutants) 1>&2
mcm="$build/mcmutants"
out="$build/pins"

for seed in $(seq "$first" "$last"); do
	"$mcm" campaign -kind conformance -fence-bug -envs pte -iters 20 -parallel 2 -seed "$seed" -quiet \
		-out "$out/conformance-$seed.json" >/dev/null
	"$mcm" tune -envs 4 -site-iters 10 -pte-iters 2 -parallel 2 -seed "$seed" -quiet \
		-out "$out/tune-cold-$seed.json" >/dev/null
	"$mcm" tune -envs 16 -site-iters 2 -pte-iters 1 -parallel 2 -seed "$seed" -quiet \
		-out "$out/tune-warm-$seed.json" >/dev/null
	echo "pinned seed $seed" 1>&2
done

printf '{'
sep=''
for w in conformance tune-cold tune-warm; do
	printf '%s\n  "%s": {' "$sep" "$w"
	sep=','
	item=''
	for seed in $(seq "$first" "$last"); do
		sum="$(sha256sum <"$out/$w-$seed.json" | cut -d' ' -f1)"
		printf '%s\n    "%s": "%s"' "$item" "$seed" "$sum"
		item=','
	done
	printf '\n  }'
done
printf '\n}\n'
