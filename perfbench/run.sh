#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload commute-spread --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and the
# benchmark's reports and spans.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench-bin" . >&2
exec "$out/perfbench-bin" "$@"
