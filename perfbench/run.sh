#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload spec-ref --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's own state, the binary) stays under .bench_build/perfbench in
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS= GOWORK=off GOENV=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
