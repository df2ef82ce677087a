#!/bin/sh
# make loc: the size of the system as numbers a PR can quote before and
# after. Per internal/* package, per cmd/* command and for benchmark/ it
# prints the Go lines that are neither in _test.go files, nor blank, nor
# comment-only (// lines and /* */ blocks), then the same count over every
# Go file in the repository; then the number of sync.Mutex/sync.RWMutex
# fields the core Database struct declares and the number of fields in
# core.Options.
set -eu
cd "$(dirname "$0")/.."

code_lines() {
	# shellcheck disable=SC2046
	cat /dev/null $(find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/.bench_build/*') | awk '
		inblock { if (index($0, "*/")) inblock = 0; next }
		/^[ \t]*$/ { next }
		/^[ \t]*\/\// { next }
		/^[ \t]*\/\*/ { if (!index($0, "*/")) inblock = 1; next }
		{ n++ }
		END { print n + 0 }'
}

# rows PREFIX prints one row per directory PREFIX/*/ and their total.
rows() {
	total=0
	for d in "$1"/*/; do
		n=$(code_lines "$d")
		total=$((total + n))
		printf '%-28s %6d\n' "${d%/}" "$n"
	done
	printf '%-28s %6d\n' "$1 (total)" "$total"
}

# struct_body FILE NAME prints the lines between "type NAME struct {" and its
# closing brace at column 0.
struct_body() {
	awk -v name="$2" '
		$0 == "type " name " struct {" { on = 1; next }
		on && /^}/ { exit }
		on { print }' "$1"
}

rows internal
rows cmd
printf '%-28s %6d\n' "benchmark" "$(code_lines benchmark)"
printf '%-28s %6d\n' "all Go (total)" "$(code_lines .)"

printf '%-28s %6d\n' "Database mutex fields" \
	"$(struct_body internal/core/db.go Database | grep -cE '^[[:space:]]+[A-Za-z]+[[:space:]]+sync\.(RW)?Mutex' || true)"
printf '%-28s %6d\n' "Options fields" \
	"$(struct_body internal/core/options.go Options | grep -cE '^[[:space:]]+[A-Z][A-Za-z]*[[:space:]]+[^[:space:]]' || true)"
