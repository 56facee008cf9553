#!/bin/sh
# Checks that migsim's output has not moved.
#
# Usage: sh scripts/identity.sh MIGSIM
#
# MIGSIM is a built migsim binary. `-exp all` must reproduce
# testdata/exp_all.golden byte for byte, and every line of
# testdata/identity.txt ("ARGS | SHA256(stdout) SHA256(stderr) EXIT")
# must reproduce its three values. A golden mismatch prints the first
# 40 lines of `diff -u` of the golden against the run; a digest mismatch
# prints the line the binary would commit in its place. Exits 1 on any
# mismatch. The runs
# start in the repository root, so a line's relative paths (a -faults
# plan) resolve the same from any working directory.
set -u
bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

"$bin" -exp all > "$tmp/all.out" 2> "$tmp/all.err"
if ! cmp -s "$tmp/all.out" "$root/testdata/exp_all.golden"; then
	echo "identity: -exp all differs from testdata/exp_all.golden; the first 40 lines of diff -u:" >&2
	diff -u testdata/exp_all.golden "$tmp/all.out" | head -n 40 >&2
	fail=1
fi

n=0
while IFS= read -r line; do
	case $line in '' | '#'*) continue ;; esac
	args=${line%%|*}
	want=$(echo ${line#*|})
	code=0
	"$bin" $args > "$tmp/out" 2> "$tmp/err" || code=$?
	got="$(sha256sum < "$tmp/out" | cut -d' ' -f1) $(sha256sum < "$tmp/err" | cut -d' ' -f1) $code"
	if [ "$got" != "$want" ]; then
		echo "identity: migsim $(echo $args): digests moved; now:" >&2
		echo "$(echo $args) | $got" >&2
		fail=1
	fi
	n=$((n + 1))
done < "$root/testdata/identity.txt"

if [ $fail -ne 0 ]; then
	exit 1
fi
echo "identity: -exp all matches testdata/exp_all.golden; $n digests match testdata/identity.txt"
