#!/bin/sh
# Checks the list of functions in accentmig/internal/... that no run
# reaches against testdata/unreached.txt.
#
# Usage: sh scripts/unreached.sh   (or make unreached)
#
# Builds migsim, migreport, the examples and the benchmark with
# coverage over every package of the module, runs them all under one
# GOCOVERDIR and lists the internal functions whose coverage is 0.0%.
# The runs are make identity's commands (among them the -bandwidth,
# -faults plan and -crash-at lines), the migsim commands identity
# leaves out (shardstress, a JSONL and a Chrome trace, a disk-cache run
# twice, CSV figures), migreport, each example, and each benchmark
# workload for one second, paper-cold also traced so the layer probes
# run. A listed function is called by tests alone, or by nothing.
#
# Every line of testdata/unreached.txt is "FILE FUNCTION | REASON",
# FILE relative to the module root. The script exits 1 when the list
# it computes differs from the file's in either direction, and prints
# the lines to add (a function no run reaches any more) and to remove
# (a function a run now reaches, or one that is gone). GOMAXPROCS is
# fixed at 2, so every run sizes its worker pools alike on any host.
set -eu
GOMAXPROCS=2
export GOMAXPROCS
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
GOCOVERDIR=$tmp/cov
export GOCOVERDIR
mkdir -p "$bin" "$GOCOVERDIR" "$tmp/work"
cd "$root"

go build -cover -coverpkg=accentmig/... -o "$bin/" ./cmd/migsim ./cmd/migreport ./examples/...
(cd bench && go build -cover -coverpkg=accentmig/... -o "$bin/accentbench" .)

run() {
	"$@" > /dev/null 2>&1 || echo "unreached: exit $? from $*" >&2
}

sh scripts/identity.sh "$bin/migsim" > /dev/null || echo "unreached: make identity's check fails; its runs still count" >&2
run "$bin/migsim" -exp shardstress -shards 2
run "$bin/migsim" -exp table4-2 -trace "$tmp/work/trace.jsonl"
run "$bin/migsim" -exp table4-2 -trace "$tmp/work/trace.json" -trace-format chrome
run "$bin/migsim" -exp summary -memo-cache-dir "$tmp/work/cache"
run "$bin/migsim" -exp summary -memo-cache-dir "$tmp/work/cache"
run "$bin/migsim" -exp figure4-1 -csv
run "$bin/migsim" -exp figure4-5 -csv
run "$bin/migreport"
# Examples may write files (examples/tracing writes its trace to the
# working directory), so they run in the scratch directory.
for ex in examples/*/; do
	(cd "$tmp/work" && run "$bin/$(basename "$ex")")
done
for w in paper-cold paper-warm cluster-32 chaos; do
	run "$bin/accentbench" -workdir "$tmp/work" -workload "$w" -seconds 1 -trace 0
done
run "$bin/accentbench" -workdir "$tmp/work" -workload paper-cold -seconds 1 -trace 1

# "accentmig/internal/vm/space.go:107:  *AddressSpace.Unmap  0.0%" keys
# as "internal/vm/space.go *AddressSpace.Unmap".
go tool covdata func -i "$GOCOVERDIR" -pkg 'accentmig/internal/...' |
	awk '$NF == "0.0%" { f = $1; sub(/^accentmig\//, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' |
	LC_ALL=C sort > "$tmp/got"
sed -e '/^#/d' -e '/^$/d' testdata/unreached.txt > "$tmp/listed"
if ! awk -F' [|] ' 'NF != 2 || $2 == "" { exit 1 }' "$tmp/listed"; then
	echo "unreached: every line of testdata/unreached.txt must read \"FILE FUNCTION | REASON\"" >&2
	exit 1
fi
sed 's/ [|] .*//' "$tmp/listed" | LC_ALL=C sort > "$tmp/want"
LC_ALL=C comm -23 "$tmp/got" "$tmp/want" > "$tmp/add"
LC_ALL=C comm -13 "$tmp/got" "$tmp/want" > "$tmp/remove"
if [ -s "$tmp/add" ] || [ -s "$tmp/remove" ]; then
	if [ -s "$tmp/add" ]; then
		echo "unreached: no run reaches these functions; add each to testdata/unreached.txt with its reason, or make a run reach it:" >&2
		sed 's/$/ | REASON/' "$tmp/add" >&2
	fi
	if [ -s "$tmp/remove" ]; then
		echo "unreached: remove these lines from testdata/unreached.txt; a run reaches them now, or they are gone:" >&2
		cat "$tmp/remove" >&2
	fi
	exit 1
fi
echo "unreached: $(wc -l < "$tmp/got") functions in accentmig/internal/... at 0.0%, as testdata/unreached.txt lists"
