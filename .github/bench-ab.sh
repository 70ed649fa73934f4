#!/usr/bin/env bash
# Same-runner A/B gate for the repository benchmark (perfbench).
#
#   bash .github/bench-ab.sh BASE_DIR HEAD_DIR
#
# BASE_DIR and HEAD_DIR are two checkouts: the base (a PR's base commit,
# or the commit before a push) and the change. For every workload in
# BASE_DIR/BENCHMARK.json it runs PAIRS interleaved pairs of
#
#   bash perfbench/run.sh --workload W --seed 1 --seconds 10 --trace 0
#
# one in each checkout, each building into its own .bench_build, with
# the side that goes first alternating from pair to pair. The workloads,
# end-to-end metrics, directions and bounds come from the base's
# BENCHMARK.json, so a change cannot loosen its own gate. The gate fails,
# naming the workload and the metric, when
#   - HEAD's median is worse than the base's by more than the metric's
#     bound, for any end-to-end metric on any workload;
#   - any HEAD run is not correct, or HEAD fails a larger share of its
#     operations than the base;
#   - the two sides' result stamps differ in a field other than commit
#     and digest (differing digests are printed: a change may alter
#     report bytes on purpose);
#   - either side fails to build or run.
# It prints one table: base median, HEAD median, change and bound for
# every metric on every workload.
set -euo pipefail

PAIRS=5

[ $# -eq 2 ] || { echo "usage: bash .github/bench-ab.sh BASE_DIR HEAD_DIR" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$base/BENCHMARK.json")

# run SIDE DIR WORKLOAD PAIR: one timed run. Its summary line and stamp
# land in $out; a run that does not finish leaves neither.
run() {
	local side=$1 dir=$2 w=$3 i=$4
	local res="$dir/.bench_build/results/$w-seed1-trace0.json"
	rm -f "$res"
	echo "bench-ab: $w pair $i: $side" >&2
	if ! (cd "$dir" && bash perfbench/run.sh --workload "$w" --seed 1 --seconds 10 --trace 0) \
		>"$out/run.out" 2>"$out/run.err"; then
		tail -n 20 "$out/run.err" >&2
	fi
	if [ -s "$out/run.out" ] && [ -f "$res" ]; then
		tail -n 1 "$out/run.out" >"$out/$side-$w-$i.result"
		cp "$res" "$out/$side-$w-$i.stamp"
	fi
}

for w in $workloads; do
	for i in $(seq 1 $PAIRS); do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$base" "$w" "$i"
			run head "$head" "$w" "$i"
		else
			run head "$head" "$w" "$i"
			run base "$base" "$w" "$i"
		fi
	done
done

python3 - "$out" "$base/BENCHMARK.json" "$PAIRS" <<'EOF'
import json, statistics, sys

out, bench, pairs = sys.argv[1], json.load(open(sys.argv[2])), int(sys.argv[3])
fails = []
print(f"{'workload':<14} {'metric':<16} {'base median':>12} {'HEAD median':>12} {'change':>8} {'bound':>6}")
for w in [x["name"] for x in bench["workloads"]]:
    runs = {"base": [], "head": []}
    for side in runs:
        for i in range(1, pairs + 1):
            try:
                res = json.loads(open(f"{out}/{side}-{w}-{i}.result").read())
                stamp = json.load(open(f"{out}/{side}-{w}-{i}.stamp"))["stamp"]
                runs[side].append((res, stamp))
            except (OSError, ValueError, KeyError) as e:
                fails.append(f"{w}: {side} run {i} did not finish ({e})")
    if len(runs["base"]) < pairs or len(runs["head"]) < pairs:
        continue
    for (b, bs), (h, hs) in zip(runs["base"], runs["head"]):
        for k in sorted(set(bs) | set(hs)):
            if k not in ("commit", "digest") and bs.get(k) != hs.get(k):
                fails.append(f"{w}: stamp field {k} differs: base {bs.get(k)!r}, HEAD {hs.get(k)!r}")
    digests = {side: sorted({s["digest"] for _, s in runs[side]}) for side in runs}
    if digests["base"] != digests["head"]:
        print(f"{w}: output digest differs: base {digests['base']}, HEAD {digests['head']}")
    if not all(r["correct"] for r, _ in runs["head"]):
        fails.append(f"{w}: a HEAD run is not correct")
    share = {side: sum(r["failed"] for r, _ in rs) / max(1, sum(r["attempted"] for r, _ in rs)) for side, rs in runs.items()}
    if share["head"] > share["base"]:
        fails.append(f"{w}: HEAD failed {share['head']:.2%} of its operations, base {share['base']:.2%}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        if name not in runs["base"][0][0]["metrics"]:
            continue
        try:
            bmed = statistics.median(r["metrics"][name]["value"] for r, _ in runs["base"])
            hmed = statistics.median(r["metrics"][name]["value"] for r, _ in runs["head"])
        except KeyError:
            fails.append(f"{w}: {name} is missing from a run")
            continue
        change = hmed / bmed - 1 if bmed else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict = "FAIL" if worse > bound else "ok"
        print(f"{w:<14} {name:<16} {bmed:>12.6g} {hmed:>12.6g} {change:>+8.1%} {bound:>6.0%}  {verdict}")
        if worse > bound:
            fails.append(f"{w}: {name} is {abs(change):.1%} worse than the base (bound {bound:.0%})")
for f in fails:
    print(f"bench-ab: FAIL: {f}")
sys.exit(1 if fails else 0)
EOF
