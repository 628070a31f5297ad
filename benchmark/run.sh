#!/usr/bin/env bash
# The safetx benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--smoke]
#       builds in release, runs every workload three times (once under
#       --smoke), round-robin, each run in a child process of its own,
#       checks the outputs, prints every metric by name with its unit and
#       writes benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result as one JSON object (the form BENCHMARK.json declares)
#   benchmark/run.sh compare A.json B.json
#       two result files, workload by workload and metric by metric
set -euo pipefail
cd "$(dirname "$0")/.."

if env | grep -q '^SAFETX_'; then
    echo "refusing to run with SAFETX_* set: the benchmark measures the defaults" >&2
    env | grep '^SAFETX_' >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-benchmark/target}"
# The build's own output goes to standard error: a run's standard output
# ends with its result line.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/benchmark"

case " $* " in
    *" --workload "*) exec "$bin" run "$@" ;;
esac
if [ "${1:-}" = compare ]; then
    shift
    exec "$bin" compare "$@"
fi
exec "$bin" suite "$@" \
    --rustc "$(rustc --version)" \
    --commit "$(git rev-parse HEAD 2>/dev/null || echo unknown)"
