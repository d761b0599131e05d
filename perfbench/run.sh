#!/usr/bin/env bash
# Builds the hierdb end-to-end benchmark from the sources of the checkout
# it is run from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload olap-mem --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, table
# files, spill files and traces all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
