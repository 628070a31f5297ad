#!/usr/bin/env bash
# Runs the smoke set twice under one seed and fails unless both runs pass
# their output checks and every exact-count field is identical. Ready to be
# wired into CI by a later change.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-42}"
out=benchmark/out
for pass in 1 2; do
    benchmark/run.sh --smoke --seed "$seed"
    cp "$out/result.json" "$out/check_$pass.json"
done

python3 - "$out/check_1.json" "$out/check_2.json" <<'PY'
import json, sys

EXACT = [
    "core.messages_per_txn",
    "core.proofs_per_txn",
    "core.rounds_per_txn",
    "core.forced_logs_per_txn",
    "net.wire_bytes_per_txn",
]
first, second = (json.load(open(path)) for path in sys.argv[1:3])
differ = 0
for name, run in first["workloads"].items():
    for metric in EXACT:
        a = run["metrics"][metric]["value"]
        b = second["workloads"][name]["metrics"][metric]["value"]
        verdict = "same" if a == b else "DIFFERS"
        differ += a != b
        print(f"{name:15} {metric:26} {a:>12} {b:>12}  {verdict}")
sys.exit(1 if differ else 0)
PY
