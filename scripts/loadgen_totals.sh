#!/usr/bin/env bash
# Runs the release `loadgen` with the given arguments and prints its
# report's `outcome_totals`, sorted, one `key value` per line: the part of
# the report that must repeat under a fixed seed. Two runs are compared
# with
#
#   diff <(scripts/loadgen_totals.sh --smoke) <(scripts/loadgen_totals.sh --smoke --net)
set -euo pipefail
cd "$(dirname "$0")/.."

# `diff <(…) <(…)` drops a failing run's exit status, so a failure prints
# a line that no other run prints.
trap 'echo "loadgen failed (pid $$)"' ERR

cargo run --quiet --release -p safetx-bench --bin loadgen -- "$@" |
    python3 -c 'import json, sys
totals = json.load(sys.stdin)["outcome_totals"]
for key in sorted(totals):
    print(key, totals[key])'
