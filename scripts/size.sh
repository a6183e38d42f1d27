#!/bin/sh
# The one definition of "size" that simplicity PRs quote: non-blank,
# non-comment, non-test Go lines per package outside bench/, flag
# definitions per command, and the number of cmd/ binaries. Prints to
# stdout; gates nothing and writes no file.
set -eu
cd "$(dirname "$0")/.."

echo "== non-test Go code lines per package (outside bench/)"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | while read -r f; do
	echo "$(dirname "$f") $(grep -cvE '^[[:space:]]*(//.*)?$' "$f")"
done | awk '{n[$1] += $2; t += $2} END {for (p in n) printf "%6d %s\n", n[p], p; printf "%6d total\n", t}' | sort -k2
echo "== flag definitions per command"
for d in cmd/*/; do
	echo "$(cat "$d"*.go | grep -oE 'flag\.[A-Z][A-Za-z0-9]*\(' | grep -cvE 'flag\.(Parse|Usage)\(' || true) $d"
done | awk '{printf "%6d %s\n", $1, $2; t += $1} END {printf "%6d total\n", t}'
echo "== cmd/ binaries: $(ls -d cmd/*/ | wc -l)"
