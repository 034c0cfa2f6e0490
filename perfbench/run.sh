#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload attack --seed 1 --seconds 35 --trace 0
#
# Every build artifact (binary, Go build cache) stays under .bench_build/
# in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
