#!/usr/bin/env bash
# Builds the surfcomm benchmark from the sources of the checkout it
# sits in, then runs it with the given arguments, e.g.
#
#   bash surfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at
# the checkout root (binary, Go build cache, scratch stores, spans).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
	go build -o "$out/surfbench" .
) >&2
cd "$root"
exec "$out/surfbench" --out "$out" "$@"
