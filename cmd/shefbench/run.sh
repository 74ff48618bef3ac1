#!/usr/bin/env bash
# Builds shefbench from the source tree it sits in and runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/shefbench/run.sh -seed 1                       # every workload
#   bash cmd/shefbench/run.sh --workload kv --seed 3 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, telemetry, the binary
# and span files) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/cmd/shefbench" build -o "$out/shefbench" .
exec "$out/shefbench" "$@"
