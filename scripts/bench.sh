#!/usr/bin/env bash
# Benchmark regression harness: runs the internal/lp benchmarks (the
# epoch-scale cold/warm pair plus the solver size sweep), the
# internal/sim simulator benchmarks (nop-tracer, traced and shared-links
# throughput, the 10k-node/1M-task paper-scale run, and the idle-sweep
# dispatch microbenchmark), the internal/sched BenchmarkDelaySWIM
# locality-greedy run (one SWIM-400 24 h trace under the delay scheduler
# on the paper's 100-node cluster), and the internal/core
# BenchmarkEpoch10k
# column-generation pair (cold restricted-master solve and warm
# reprice+dual-simplex re-solve at 10k machines) and writes
# BENCH_lp.json — including
# sim_tasks_per_sec, the paper-scale event-loop throughput, and the
# epoch10k_* fields — so future
# changes have a perf trajectory to compare against. Each run records the git SHA it measured; prior results are
# preserved in the file's "history" array (newest first, capped at 50)
# instead of being overwritten. Usage: scripts/bench.sh [output.json];
# BENCHTIME=10x to rerun with more samples.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_lp.json}
BENCHTIME=${BENCHTIME:-5x}

SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# The output file itself is excluded from the dirty check: re-running the
# harness on a clean tree must not label the new measurement "-dirty" just
# because the previous run's results are sitting uncommitted in $OUT.
if [ "$SHA" != unknown ] && ! git diff --quiet HEAD -- ":(exclude)$OUT" 2>/dev/null; then
	SHA="$SHA-dirty"
fi

RAW=$(go test ./internal/lp -run '^$' -bench 'BenchmarkSolve|BenchmarkEpoch' \
	-benchtime "$BENCHTIME" -timeout 30m
	go test ./internal/sim -run '^$' -bench 'BenchmarkSimulator|BenchmarkDispatch' \
		-benchtime "$BENCHTIME" -timeout 30m
	go test ./internal/sched -run '^$' -bench 'BenchmarkDelaySWIM' \
		-benchtime "$BENCHTIME" -timeout 30m
	go test ./internal/core -run '^$' -bench BenchmarkEpoch10k \
		-benchtime "$BENCHTIME" -timeout 30m)
printf '%s\n' "$RAW"

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

printf '%s\n' "$RAW" | awk -v date="$(date -u +%FT%TZ)" -v benchtime="$BENCHTIME" -v sha="$SHA" '
BEGIN {
	printf "{\n  \"generated\": \"%s\",\n  \"git_sha\": \"%s\",\n  \"benchtime\": \"%s\",\n", date, sha, benchtime
	printf "  \"benchmarks\": [\n"
}
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
	iters = $2; ns = $3
	extra = ""
	for (i = 5; i + 1 <= NF; i += 2) {     # trailing "value unit" pairs
		if (extra != "") extra = extra ","
		extra = extra sprintf("\"%s\": %s", $(i + 1), $i)
	}
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
	if (extra != "") printf ", \"metrics\": {%s}", extra
	printf "}"
	if (name == "BenchmarkEpoch/cold") cold = ns
	if (name == "BenchmarkEpoch/warm") warm = ns
	if (name == "BenchmarkEpoch10k/cold") cold10k = ns
	if (name == "BenchmarkEpoch10k/warm") warm10k = ns
	if (name == "BenchmarkSimulatorThroughput10k") {
		ns10k = ns
		for (i = 5; i + 1 <= NF; i += 2)
			if ($(i + 1) == "tasks/run") tasks10k = $i
	}
}
END {
	printf "\n  ],\n"
	if (ns10k > 0 && tasks10k > 0)
		printf "  \"sim_tasks_per_sec\": %.0f,\n", tasks10k / (ns10k / 1e9)
	else
		printf "  \"sim_tasks_per_sec\": null,\n"
	if (cold > 0 && warm > 0)
		printf "  \"epoch_warm_speedup\": %.2f,\n", cold / warm
	else
		printf "  \"epoch_warm_speedup\": null,\n"
	if (cold10k > 0)
		printf "  \"epoch10k_cold_ns\": %s,\n", cold10k
	else
		printf "  \"epoch10k_cold_ns\": null,\n"
	if (warm10k > 0)
		printf "  \"epoch10k_warm_ns\": %s,\n", warm10k
	else
		printf "  \"epoch10k_warm_ns\": null,\n"
	if (cold10k > 0 && warm10k > 0)
		printf "  \"epoch10k_warm_speedup\": %.2f\n", cold10k / warm10k
	else
		printf "  \"epoch10k_warm_speedup\": null\n"
	printf "}\n"
}' > "$TMP"

# Fold the previous file (and its accumulated history) into the new
# one's "history" array, newest first. When a previous file exists this
# step is mandatory: silently writing the new run alone (the old
# behaviour when jq was missing or the previous file was malformed)
# truncated the whole trajectory, which is the one thing this harness
# exists to preserve.
if [ -s "$OUT" ]; then
	if ! command -v jq >/dev/null 2>&1; then
		echo "bench.sh: jq is required to append to $OUT's history; refusing to overwrite it" >&2
		exit 1
	fi
	if ! jq empty "$OUT" 2>/dev/null; then
		echo "bench.sh: $OUT is not valid JSON; fix or remove it before re-running" >&2
		exit 1
	fi
	jq --slurpfile prev "$OUT" \
		'. + {history: ([($prev[0] | del(.history))] + ($prev[0].history // []))[:50]}' \
		"$TMP" > "$OUT.tmp"
	mv "$OUT.tmp" "$OUT"
else
	cp "$TMP" "$OUT"
fi

echo "wrote $OUT"
