#!/usr/bin/env bash
# Builds the CQMS end-to-end benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache, fixture and
# run directory stays under .bench_build in that directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/cqms-perfbench" .)
exec "$out/cqms-perfbench" "$@"
