#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload colo --seed 42 --seconds 20 --trace 0
#   bash bench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Everything the build writes stays under the build directory, named by
# CARGO_TARGET_DIR (default .bench_build, relative to the repository root):
# the Go build cache, its temporary files and the binary. The module in
# bench/ resolves the simulator from the repository root, so the build fails
# outside a full checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
# The benchmark writes its span files there too; it runs from the root.
export CARGO_TARGET_DIR=$out
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's telemetry and env files in there too.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
