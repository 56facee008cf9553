#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload paper-cold --seed 0 --seconds 10 --trace 0
#
# Build output, the Go build cache and the benchmark's working files all
# go under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/accentbench" .)
exec "$out/accentbench" -workdir "$out" "$@"
