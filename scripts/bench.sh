#!/usr/bin/env bash
# bench.sh — run the tier-1 benchmarks with -benchmem and emit a
# machine-readable snapshot (BENCH_<PR>.json) of the performance
# trajectory: extraction (the streaming cold build), demand generation
# (serial wire fold, serial columnar ref fold, parallel pipeline), the
# columnar segment store (write / replay / pushdown-filtered replay),
# and the serving layer. Ablations against test-only oracles (DOM
# extraction, regex matching, cookie sketches, naive set cover) live
# next to their oracles and are not recorded.
# cmd/benchdiff compares two snapshots and gates CI on >20% ns/op
# regressions; the demand rows also carry the aggregator's modelled
# bytes/click (testing.B.ReportMetric in BenchmarkGenerate), recorded
# as bytes_per_click so layout changes show their bandwidth effect
# next to their time effect.
#
# Measurement protocol: the demand-generation rows are the gated,
# drift-prone ones, so they run -count $GENCOUNT (default 5) at
# $GENBENCHTIME (default 6x) and the snapshot keeps, per row, the
# sample with the MEDIAN ns/op (the whole sample: its B/op, allocs/op,
# and bytes/click come from the same run, so each row is internally
# consistent). Medians, not minimums or means: the bench hosts drift
# by tens of percent between runs, a median-of-5 is stable against one
# slow outlier, and every BENCH_<PR>.json since BENCH_5 was recorded
# under this protocol. Even sample counts take the lower middle.
# Everything else runs once at $BENCHTIME.
#
# Usage:
#   scripts/bench.sh                 # writes BENCH_<newest+1>.json
#   BENCHTIME=5s OUT=/tmp/b.json scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2x}"
GENBENCHTIME="${GENBENCHTIME:-6x}"
GENCOUNT="${GENCOUNT:-5}"
# Default PR number: one past the newest committed BENCH_<n>.json, so
# the script never silently overwrites the previous PR's snapshot when
# nobody remembers to bump a hardcoded default.
if [ -z "${PR:-}" ]; then
  files="$(git ls-files 'BENCH_*.json' 2>/dev/null || true)"
  [ -n "$files" ] || files="$(ls BENCH_*.json 2>/dev/null || true)"
  latest="$(printf '%s\n' "$files" | sed -n 's/^BENCH_\([0-9]\+\)\.json$/\1/p' | sort -n | tail -1)"
  PR=$(( ${latest:-0} + 1 ))
fi
OUT="${OUT:-BENCH_${PR}.json}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkExtractIndexes|BenchmarkEndToEndPipeline' \
  -benchmem -benchtime "$BENCHTIME" . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkGenerate$|BenchmarkSegment' \
  -benchmem -benchtime "$GENBENCHTIME" -count "$GENCOUNT" . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkServe' -benchmem -benchtime "$BENCHTIME" \
  ./internal/serve/ | tee -a "$raw"

awk -v benchtime="$BENCHTIME (demand rows: $GENBENCHTIME, median of $GENCOUNT runs)" \
    -v goversion="$(go version | awk '{print $3}')" '
/^Benchmark/ {
  name = $1
  # go test suffixes names with -GOMAXPROCS on multi-core hosts
  # (none when GOMAXPROCS=1); strip it so BENCH files recorded on
  # different hosts pair up in cmd/benchdiff.
  sub(/-[0-9]+$/, "", name)
  ns = ""; row = ""
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "ns/op")       ns = $i
    if ($(i+1) == "B/op")        row = row sprintf(", \"bytes_per_op\": %s", $i)
    if ($(i+1) == "allocs/op")   row = row sprintf(", \"allocs_per_op\": %s", $i)
    if ($(i+1) == "MB/s")        row = row sprintf(", \"mb_per_s\": %s", $i)
    if ($(i+1) == "bytes/click") row = row sprintf(", \"bytes_per_click\": %s", $i)
    if ($(i+1) == "skippedsegs/op") row = row sprintf(", \"skipped_segs_per_op\": %s", $i)
  }
  if (ns == "") next
  if (!(name in count)) order[++names] = name
  count[name]++
  sample_ns[name, count[name]] = ns + 0
  sample_row[name, count[name]] = sprintf("{\"name\": \"%s\", \"ns_per_op\": %s%s}", name, ns, row)
}
END {
  printf "{\n  \"schema\": \"bench/v1\",\n"
  printf "  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"results\": [", goversion, benchtime
  for (j = 1; j <= names; j++) {
    name = order[j]
    n = count[name]
    # Rank the samples by ns/op (insertion sort; n is tiny) and keep
    # the median sample whole.
    for (i = 1; i <= n; i++) idx[i] = i
    for (i = 2; i <= n; i++) {
      k = idx[i]
      for (m = i - 1; m >= 1 && sample_ns[name, idx[m]] > sample_ns[name, k]; m--) idx[m+1] = idx[m]
      idx[m+1] = k
    }
    med = idx[int((n + 1) / 2)]
    printf "%s\n    %s", (j > 1 ? "," : ""), sample_row[name, med]
  }
  printf "\n  ]\n}\n"
}
' "$raw" > "$OUT"

echo "wrote $OUT"
