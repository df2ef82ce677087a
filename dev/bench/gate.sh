#!/usr/bin/env bash
# make bench-gate BASE=<rev>: runs the benchmark at BASE and at the working
# tree in PAIRS (default 3) alternating 5-second -aa sets per side, then
# `go run ./benchmark -compare base change`, which fails on REGRESSION.
# BASE is unpacked with git archive under .bench_build/gate, so .git is
# never touched.
set -euo pipefail
cd "$(dirname "$0")/../.."
base=${1:?usage: gate.sh BASE}
out=$PWD/.bench_build/gate
rm -rf "$out" && mkdir -p "$out/base"
git archive "$(git rev-parse --verify "$base^{commit}")" | tar -x -C "$out/base"

# aa TREE SIDE SEED appends one set to SIDE.json. -aa exits non-zero when the
# sets so far spread wider than a bound (no verdict with a few sets); any
# other failure, such as a build error or a wrong result, stops the gate.
aa() {
	bash "$1/benchmark/run.sh" -aa 1 -seed "$3" -seconds 5 -out "$out/$2.json" >"$out/$2.log" 2>&1 ||
		grep -q 'spread wider than their bound' "$out/$2.log" || { cat "$out/$2.log"; exit 1; }
}
for i in $(seq "${PAIRS:-3}"); do
	if ((i % 2)); then aa "$out/base" base "$i"; aa . change "$i"
	else aa . change "$i"; aa "$out/base" base "$i"; fi
done
go run ./benchmark -compare "$out/base.json" "$out/change.json"
