#!/usr/bin/env bash
# Builds lamaload, lamad's end-to-end benchmark, and runs it. Run it from
# the repository root:
#
#   bash bench/run.sh --workload repeat-jobs --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory: the Go build cache, module cache, scratch files and
# binaries. The benchmark itself builds cmd/lamad from this checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/lamaload" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$out/lamaload/lamaload" ./lamaload
exec "$out/lamaload/lamaload" "$@"
