#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument passes through to the benchmark:
#
#   bash e2ebench/run.sh --workload serve-open --seed 1 --seconds 50 --trace 0
#
# The binary, the Go build cache and the Go config land in .bench_build/
# under the current directory, so nothing is written outside it.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
