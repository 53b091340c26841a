#!/usr/bin/env bash
# benchmark/aa.sh [--seconds S] [--seed N]
#
# A/A check: runs the full end-to-end set twice on the same build — the second
# set in reverse workload order, so neither set always runs a workload on a
# warmer machine — and prints, per workload x metric, the relative difference
# of the second set against the first next to the metric's bound from
# BENCHMARK.json. Exits non-zero when a difference exceeds its bound or an op
# failed. The README's A/A table is this script's output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
first="$here/out/aa-first.txt"
second="$here/out/aa-second.txt"
: >"$first"; : >"$second"

for w in plan_single plan_ensemble serve_zipf run_storm; do
  bash "$here/run.sh" --workload "$w" "$@" | tail -n 1 | sed "s/^/$w /" >>"$first"
done
for w in run_storm serve_zipf plan_ensemble plan_single; do
  bash "$here/run.sh" --workload "$w" "$@" | tail -n 1 | sed "s/^/$w /" >>"$second"
done

python3 - "$here/../BENCHMARK.json" "$first" "$second" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
def load(path):
    runs = {}
    for line in open(path):
        workload, result = line.split(" ", 1)
        runs[workload] = json.loads(result)
    return runs
a, b = load(sys.argv[2]), load(sys.argv[3])
bad = False
print(f"{'workload':14} {'metric':12} {'first':>12} {'second':>12} {'diff':>8} {'bound':>6}")
for w in (x["name"] for x in spec["workloads"]):
    for r in (a[w], b[w]):
        if not r["correct"] or r["failed"]:
            print(f"{w}: {r['failed']} of {r['attempted']} ops failed")
            bad = True
    for m in spec["end_to_end"]:
        x, y = a[w]["metrics"][m["name"]]["value"], b[w]["metrics"][m["name"]]["value"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        flag = "" if worse <= m["bound"] else "  EXCEEDS"
        bad |= bool(flag)
        print(f"{w:14} {m['name']:12} {x:12.4f} {y:12.4f} {100 * worse:+7.2f}% {100 * m['bound']:5.0f}%{flag}")
sys.exit(1 if bad else 0)
EOF
