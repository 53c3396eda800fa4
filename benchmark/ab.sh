#!/usr/bin/env bash
# Compares the simulator at <ref> (A, the parent) with the working tree (B,
# the change) in alternating pairs of benchmark runs, and applies the gain
# rule.
#
#   bash benchmark/ab.sh <ref> [workload ...]
#
# Side A is exported with `git archive`. Side B is the working tree's
# tracked files, staged and unstaged changes included, exported from a
# `git stash create` snapshot; the script refuses to run while untracked Go
# files outside benchmark/ would be left out. Both sides run this
# checkout's benchmark/ and BENCHMARK.json, so only the simulator differs.
# Pair i uses seed SEED0+i-1 on both sides; odd pairs run A first, even
# pairs B first.
# Environment: PAIRS (default 10), SEED0 (default 1), RUN_SECONDS (default
# run_seconds of BENCHMARK.json). Everything is written under
# .bench_build/ab/ and the script exits 1 if any run fails its checks.
set -euo pipefail

ref=${1:?usage: bash benchmark/ab.sh <ref> [workload ...]}
shift
root=$(cd "$(dirname "$0")/.." && pwd)
pairs=${PAIRS:-10}
seed0=${SEED0:-1}
secs=${RUN_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	workloads=(nas-lu nas-is incast-64 sweep-grid)
fi

untracked=$(git -C "$root" ls-files --others --exclude-standard -- '*.go' '*go.mod' ':!benchmark')
if [[ -n $untracked ]]; then
	printf 'ab: untracked Go files would be left out of side B; add or remove them:\n%s\n' "$untracked" >&2
	exit 2
fi
# A snapshot commit of the working tree; empty when it matches HEAD.
snapshot=$(git -C "$root" stash create)

out="$root/.bench_build/ab"
rm -rf "$out"
mkdir -p "$out"
for side in A B; do
	rev=$ref
	[[ $side == B ]] && rev=${snapshot:-HEAD}
	mkdir -p "$out/$side"
	git -C "$root" archive "$rev" | tar -x -C "$out/$side"
	rm -rf "$out/$side/benchmark" "$out/$side/BENCHMARK.json"
	cp -R "$root/benchmark" "$root/BENCHMARK.json" "$out/$side/"
	echo "side $side = $(git -C "$root" rev-parse --short "$rev")" >&2
done

runone() { # side workload seed
	local log="$out/$2.$1.$3.log"
	if ! (cd "$out/$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace 0) >"$log" 2>&1; then
		echo "ab: side $1 $2 seed $3 failed; see $log" >&2
		return 1
	fi
	tail -n 1 "$log" >>"$out/$2.$1.jsonl"
	awk -v s="$3" '$1 == "sim_digest" { print s, $4 }' "$log" >>"$out/$2.$1.digest"
}

for w in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		seed=$((seed0 + i - 1))
		if ((i % 2)); then order=(A B); else order=(B A); fi
		for side in "${order[@]}"; do
			runone "$side" "$w" "$seed" || exit 1
		done
	done
done

exec python3 - "$out" "$root/BENCHMARK.json" "${workloads[@]}" <<'PY'
import json, statistics, sys

out, spec = sys.argv[1], json.load(open(sys.argv[2]))
for w in sys.argv[3:]:
    runs = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in "AB"}
    digests = {s: open(f"{out}/{w}.{s}.digest").read() for s in "AB"}
    print(f"\n{w}: {len(runs['A'])} pairs, sim_digest {'identical' if digests['A'] == digests['B'] else 'DIFFERS'} across sides")
    print(f"{'metric':14} {'A median':>11} {'A q1..q3':>23} {'B median':>11} {'B q1..q3':>23} {'B wins':>7}  verdict")
    for m in spec["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        ma, mb = statistics.median(a), statistics.median(b)
        better = lambda x, y: x < y if lower else x > y
        wins = sum(better(y, x) for x, y in zip(a, b))
        frac = wins / len(a)
        gain = len(a) >= 10 and frac >= 0.9 and better(mb, ma) and abs(mb - ma) > qa[2] - qa[0]
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        if gain:
            verdict = "GAIN (wins >= 90% of >= 10 pairs and |dmedian| > A's IQR)"
        elif worse > bound:
            verdict = f"REGRESSION ({worse:+.1%} > bound {bound:.0%})"
        elif (qa[2] - qa[0]) / ma > bound and not all(better(y, x) for x in a for y in b):
            verdict = "unresolved (A's spread exceeds the bound)"
        else:
            verdict = f"no regression ({worse:+.1%} within {bound:.0%})"
        print(f"{name:14} {ma:11.5g} {qa[0]:11.5g}..{qa[2]:<11.5g} {mb:11.5g} {qb[0]:11.5g}..{qb[2]:<11.5g} {frac:7.0%}  {verdict}")
PY
