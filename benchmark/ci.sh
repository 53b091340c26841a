#!/usr/bin/env bash
# benchmark/ci.sh --smoke
#
# Every workload for one second with one set-up, end-to-end and traced,
# correctness checks on; then compares the set of printed metric names with
# BENCHMARK.json in both directions. Not wired into .github/workflows/ci.yml
# yet: the change that added the benchmark could not touch that file.
set -euo pipefail
[ "${1:-}" = "--smoke" ] || { echo "usage: benchmark/ci.sh --smoke" >&2; exit 2; }
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
printed="$here/out/ci-printed.txt"

bash "$here/run.sh" --seconds 1 --setups 1 | tee "$printed"
bash "$here/run.sh" --seconds 1 --setups 1 --traced | tee -a "$printed"

python3 - "$here/../BENCHMARK.json" "$printed" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
workloads = {w["name"] for w in spec["workloads"]}
declared = {(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]}
seen = {}
for line in open(sys.argv[2]):
    parts = line.split()
    if len(parts) == 4 and parts[0] in workloads:
        seen.setdefault(parts[0], set()).add((parts[1], parts[3]))
bad = False
for w in sorted(workloads):
    got = seen.get(w, set())
    for name, unit in sorted(declared - got):
        print(f"ci.sh: {w}: BENCHMARK.json declares {name} [{unit}] but the harness did not print it")
        bad = True
    for name, unit in sorted(got - declared):
        print(f"ci.sh: {w}: the harness printed {name} [{unit}] but BENCHMARK.json does not declare it")
        bad = True
if bad:
    sys.exit(1)
print(f"ci.sh: {len(declared)} metrics x {len(workloads)} workloads match BENCHMARK.json")
EOF
