#!/bin/sh
# The one definition of "size" that simplicity PRs quote: non-blank,
# non-comment, non-test Go lines per package outside bench/, flag
# definitions per command (plus the group two commands share, once), the
# exported fields of every settings struct outside bench/ (a type named
# Config, *Config, *Options or Flags), the number of cmd/ binaries, and
# the exported functions and methods outside bench/ that no non-test Go
# file names. Prints to stdout; gates nothing and writes no file.
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
# A name is used when it occurs, outside comments, in a non-test Go file
# (bench/ included) more often than it is declared there. The grep is by
# name, not by type: a method whose name another type also uses or calls
# counts as used, so the list is a lower bound. A name that stays on
# purpose (a test probe, the wsopt.go facade) stays on the list.
echo "== exported functions and methods outside bench/ that no non-test Go file names"
find . -name '*.go' ! -name '*_test.go' | sort | xargs awk '
	/^[[:space:]]*\/\// { next }
	{
		line = $0; sub(/[[:space:]]\/\/.*$/, "", line)
		if (match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[[(]/)) {
			d = substr(line, 1, RLENGTH - 1); sub(/.* /, "", d); sub(/^\(.*\) /, "", d)
			decls[d]++
			if (FILENAME !~ /^\.\/bench\//) {
				recv = ""
				if (match(line, /^func \([^)]*\)/)) {
					recv = substr(line, 7, RLENGTH - 7); sub(/^[A-Za-z0-9_]* /, "", recv)
					sub(/^\*/, "", recv); sub(/\[.*/, "", recv); recv = recv "."
				}
				pkg = FILENAME; sub(/^\.\//, "", pkg)
				if (pkg ~ /\//) sub(/\/[^\/]*$/, "", pkg); else pkg = "wsopt"
				where[d] = where[d] " " pkg "." recv d
			}
		}
		while (match(line, /[A-Za-z0-9_]+/)) {
			w = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
			if (w ~ /^[A-Z]/) uses[w]++
		}
	}
	END {
		for (d in where)
			if (uses[d] <= decls[d]) {
				n = split(substr(where[d], 2), ws, " ")
				for (i = 1; i <= n; i++) print ws[i]
			}
	}' | sort | awk '{printf "       %s\n", $0} END {printf "%6d total\n", NR}'
