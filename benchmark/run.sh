#!/usr/bin/env bash
# Builds the harness and runs it. Every argument goes to the harness:
#
#   benchmark/run.sh                          every workload, end-to-end metrics
#   benchmark/run.sh --traced                 every workload, per-layer metrics
#   benchmark/run.sh --workload serve_zipf    one workload (add --traced, --seed N, --seconds S)
#   benchmark/run.sh --bless                  rewrite golden/*.json (default seed only)
#
# Metric lines are `workload metric value unit`; with --workload the last line
# of stdout is the result object BENCHMARK.json's driver reads. Exits non-zero
# on any correctness failure.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/klotski-benchmark" "$@"
