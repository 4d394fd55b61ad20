#!/usr/bin/env bash
# bench.sh — run the repository benchmark suite and emit a machine-readable
# BENCH_<n>.json summary via cmd/benchjson (a dependency-free stand-in for
# `benchstat -format csv`).
#
# Usage:
#   scripts/bench.sh -n 3                          # full suite -> BENCH_3.json
#   scripts/bench.sh -n 3 -p '^(BenchmarkFig3|BenchmarkTable1)' -c 6
#   scripts/bench.sh -n 3 -o baseline.txt          # compare against a saved run
#   scripts/bench.sh -n cache -p 'SetAssoc|HierarchyAccess' -t 2000000x  # per-structure micros
#
# Flags:
#   -n NUM      PR number; output file is BENCH_<NUM>.json (required)
#   -p PATTERN  -bench regexp (default: . — every benchmark)
#   -c COUNT    -count repetitions per benchmark (default: 6)
#   -t TIME     -benchtime per repetition (default: 3x)
#   -o OLD      baseline `go test -bench` output to diff against (optional);
#               produces per-benchmark speedups and a geomean in the JSON.
#
# Benchmarks come from eight packages: the end-to-end experiment suite in the
# module root, the per-structure ns/access micros in internal/cache, and the
# walk-path micros (ns/op): TLB and PWC lookups (internal/tlb, internal/pwc),
# native and nested walks (internal/walker), Generator.Next per access
# pattern (internal/workload), trace replay (internal/trace) and page-table
# build (internal/pt).
#
# The raw `go test -bench` output is kept next to the JSON as
# BENCH_<NUM>.txt so a later PR can use it as its -o baseline.
set -euo pipefail

cd "$(dirname "$0")/.."

num="" pattern="." count=6 benchtime=3x old=""
while getopts "n:p:c:t:o:" opt; do
  case "$opt" in
    n) num=$OPTARG ;;
    p) pattern=$OPTARG ;;
    c) count=$OPTARG ;;
    t) benchtime=$OPTARG ;;
    o) old=$OPTARG ;;
    *) exit 2 ;;
  esac
done
if [ -z "$num" ]; then
  echo "bench.sh: -n NUM is required (names BENCH_<NUM>.json)" >&2
  exit 2
fi

raw="BENCH_${num}.txt"
out="BENCH_${num}.json"

pkgs=(. ./internal/cache ./internal/tlb ./internal/pwc ./internal/walker ./internal/workload ./internal/trace ./internal/pt)
echo "bench.sh: go test -run '^\$' -bench '$pattern' -benchtime $benchtime -count $count -benchmem ${pkgs[*]}" >&2
go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" -benchmem "${pkgs[@]}" | tee "$raw"

if [ -n "$old" ]; then
  go run ./cmd/benchjson -old "$old" "$raw" > "$out"
else
  go run ./cmd/benchjson "$raw" > "$out"
fi
echo "bench.sh: wrote $out" >&2
