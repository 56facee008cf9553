#!/bin/sh
# Lists the functions in accentmig/internal/... that no run reaches.
#
# Usage: sh scripts/unreached.sh   (or make unreached)
#
# Builds migsim, migreport, the examples and the benchmark with
# coverage over every package of the module, runs them all under one
# GOCOVERDIR and prints the internal functions whose coverage is 0.0%,
# then their count. The runs are make identity's commands, the migsim
# commands identity leaves out (shardstress, a phase crash, a Chrome
# trace, a disk-cache run twice, CSV figures), migreport, each example,
# and each benchmark workload for one second, paper-cold also traced
# so the layer probes run. A function listed here is called by tests
# alone, or by nothing. The report is informational and always exits 0
# once the builds succeed.
set -eu
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
run "$bin/migsim" -exp table4-3 -crash-at xfer.rimas
run "$bin/migsim" -exp table4-2 -trace "$tmp/work/trace.json" -trace-format chrome
run "$bin/migsim" -exp summary -memo-cache-dir "$tmp/work/cache"
run "$bin/migsim" -exp summary -memo-cache-dir "$tmp/work/cache"
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

go tool covdata func -i "$GOCOVERDIR" -pkg 'accentmig/internal/...' | awk '$NF == "0.0%"' > "$tmp/unreached"
cat "$tmp/unreached"
echo "unreached: $(wc -l < "$tmp/unreached") functions in accentmig/internal/... at 0.0%"
