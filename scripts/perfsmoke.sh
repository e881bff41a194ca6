#!/usr/bin/env bash
# Perf regression smoke: runs BenchmarkEpoch, the simulator
# throughput benchmarks — the 20-node run whose Options{} path exercises
# the disabled nop tracer, the 10k-node/1M-task paper-scale run, and the
# idle-sweep dispatch microbenchmark — BenchmarkDelaySWIM, the delay
# scheduler's locality-greedy slot-free path over a SWIM-400 24 h trace,
# and BenchmarkEpoch10k, the
# column-generation epoch solve at 10k machines (cold restricted master
# and warm reprice+dual-simplex re-solve), and fails when the measured ns/op
# exceeds the committed
# BENCH_lp.json baseline by more than the allowed factor (default 3×,
# absorbing CI machine noise while still catching order-of-magnitude
# regressions like losing the sparse factorization, the warm-start path,
# or an allocation leak onto the tracing-disabled hot path).
#
# Usage: scripts/perfsmoke.sh [baseline.json]
#   BENCHTIME=3x  samples per benchmark (default 3x)
#   MAXFACTOR=3   allowed slowdown over the baseline
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=${1:-BENCH_lp.json}
BENCHTIME=${BENCHTIME:-3x}
MAXFACTOR=${MAXFACTOR:-3}

if [ ! -f "$BASELINE" ]; then
	echo "perfsmoke: no baseline $BASELINE; nothing to compare" >&2
	exit 0
fi
if ! command -v jq >/dev/null 2>&1; then
	echo "perfsmoke: jq not available; skipping comparison" >&2
	exit 0
fi

RAW=$(go test ./internal/lp -run '^$' -bench 'BenchmarkEpoch$' -benchtime "$BENCHTIME" -timeout 30m
	go test ./internal/sim -run '^$' \
		-bench 'BenchmarkSimulatorThroughput$|BenchmarkSimulatorThroughput10k$|BenchmarkDispatch$' \
		-benchtime "$BENCHTIME" -timeout 30m
	go test ./internal/sched -run '^$' -bench 'BenchmarkDelaySWIM$' \
		-benchtime "$BENCHTIME" -timeout 30m
	go test ./internal/core -run '^$' -bench 'BenchmarkEpoch10k$' \
		-benchtime "$BENCHTIME" -timeout 30m)
printf '%s\n' "$RAW"

fail=0
for name in BenchmarkEpoch/cold BenchmarkEpoch/warm BenchmarkSimulatorThroughput \
	BenchmarkSimulatorThroughput10k BenchmarkDispatch BenchmarkDelaySWIM \
	BenchmarkEpoch10k/cold BenchmarkEpoch10k/warm; do
	base=$(jq -r --arg n "$name" \
		'.benchmarks[] | select(.name == $n) | .ns_per_op' "$BASELINE")
	if [ -z "$base" ] || [ "$base" = null ]; then
		echo "perfsmoke: $name missing from baseline; skipping" >&2
		continue
	fi
	now=$(printf '%s\n' "$RAW" | awk -v n="$name" \
		'$1 ~ "^"n"(-[0-9]+)?$" { print $3; exit }')
	if [ -z "$now" ]; then
		echo "perfsmoke: FAIL: $name did not run" >&2
		fail=1
		continue
	fi
	verdict=$(awk -v now="$now" -v base="$base" -v f="$MAXFACTOR" \
		'BEGIN { printf "%.2f %d", now / base, (now > base * f) }')
	ratio=${verdict% *}
	bad=${verdict#* }
	echo "perfsmoke: $name ${now} ns/op vs baseline ${base} ns/op (${ratio}x)"
	if [ "$bad" = 1 ]; then
		echo "perfsmoke: FAIL: $name regressed more than ${MAXFACTOR}x" >&2
		fail=1
	fi
done
exit "$fail"
