#!/bin/sh
# The one definition of "size" that simplicity PRs quote: non-blank,
# non-comment, non-test Go lines per package outside bench/, flag
# definitions per command (plus the group two commands share, once), the
# exported fields of every settings struct outside bench/ (a type named
# Config, *Config, *Options or Flags), and the number of cmd/ binaries.
# Prints to stdout; gates nothing and writes no file.
set -eu
cd "$(dirname "$0")/.."

echo "== non-test Go code lines per package (outside bench/)"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | while read -r f; do
	echo "$(dirname "$f") $(grep -cvE '^[[:space:]]*(//.*)?$' "$f")"
done | awk '{n[$1] += $2; t += $2} END {for (p in n) printf "%6d %s\n", n[p], p; printf "%6d total\n", t}' | sort -k2
# A flag definition is a call of one of the flag package's definers, on
# the package or on a FlagSet named fs. The group wsblockd and wsgate
# share is defined in internal/daemon and counted there, once.
echo "== flag definitions per command (internal/daemon: the group wsblockd and wsgate share)"
for d in cmd/*/ internal/daemon/; do
	echo "$(find "$d" -name '*.go' ! -name '*_test.go' -exec cat {} + |
		grep -cE '(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?\(' || true) $d"
done | awk '{printf "%6d %s\n", $1, $2; t += $1} END {printf "%6d total\n", t}'
# A field is a name at the struct's own depth that starts upper-case; a
# line naming several (A, B int) counts each.
echo "== exported fields of Config, *Config, *Options and Flags structs (outside bench/)"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | xargs awk '
	/^type [A-Za-z0-9_]*(Config|Options) struct \{|^type Flags struct \{/ {
		name = FILENAME; sub(/^\.\//, "", name); sub(/\/[^\/]*$/, "", name)
		name = name "." $2; depth = 1; n = 0; next
	}
	depth > 0 {
		line = $0; sub(/\/\/.*/, "", line)
		if (depth == 1 && $1 ~ /^[A-Z]/)
			for (i = 1; i <= NF; i++) {
				n++
				if ($i !~ /,$/) break
			}
		depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
		if (depth == 0) printf "%6d %s\n", n, name
	}' | awk '{print; t += $1} END {printf "%6d total\n", t}'
echo "== cmd/ binaries: $(ls -d cmd/*/ | wc -l)"
