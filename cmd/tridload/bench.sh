#!/usr/bin/env bash
# Builds tridload from source and runs it from the repository root.
#
#   bash cmd/tridload/bench.sh --workload adi-step --seed 3 --seconds 15 --trace 0
#   bash cmd/tridload/bench.sh -out .bench_build/run.json     # all four workloads
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the go command's telemetry, temporary
# files, the tridload and tridserve binaries, and span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOENV=off

start=$(date +%s%N)
go build -C cmd/tridload -o "$out/bin/tridload" .
end=$(date +%s%N)

exec "$out/bin/tridload" -build-ns "$((end - start))" -bindir "$out/bin" "$@"
