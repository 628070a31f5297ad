#!/usr/bin/env bash
# One server host, one control plane, one fault plan: the acceptance greps
# and the non-test line budget of that consolidation. Fails on regression.
#
# "Non-test" means the lines of a file before its first `#[cfg(test)]` —
# the count CHANGES.md uses (24 167 under crates/*/src at 5e6d18f).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
bad() { echo "FAIL: $*"; fail=1; }

# Non-test text of the given files, one "path:line" prefix per line.
nontest() {
    for f in "$@"; do
        awk -v f="$f" '/#\[cfg\(test\)\]/{exit} {print f ":" $0}' "$f"
    done
}
lines() { nontest "$@" | wc -l; }
# Occurrences of a pattern in the non-test text of the given files.
hits() { local pattern=$1; shift; nontest "$@" | grep -cE "$pattern" || true; }

mapfile -t all < <(find crates/*/src examples src -name '*.rs' | sort)
mapfile -t crates_src < <(find crates/*/src -name '*.rs' | sort)
mapfile -t hosting < <(find crates/runtime crates/net -name '*.rs' -path '*/src/*' | sort)
mapfile -t outside_core < <(printf '%s\n' "${all[@]}" | grep -v '^crates/core/')

total=$(lines "${crates_src[@]}")
[ "$total" -le 23467 ] || bad "non-test Rust under crates/*/src is $total lines (budget 23467 = 24167 - 700)"

budget_files=(crates/runtime/src/cluster.rs crates/net/src/runtime.rs crates/runtime/src/fault.rs
    crates/net/src/fault.rs crates/runtime/src/shard.rs crates/service/src/service.rs
    crates/runtime/src/host.rs crates/runtime/src/deployment.rs)
hosting_total=$(lines "${budget_files[@]}")
[ "$hosting_total" -le 3750 ] || bad "hosts, links, control plane and fault plan total $hosting_total lines (budget 3750; 4452 at 5e6d18f)"

n=$(hits 'recover_from_wal\(' "${outside_core[@]}")
[ "$n" -eq 1 ] || bad "recover_from_wal( is called from $n places outside safetx-core (want 1)"

# One body for the single-cluster deployments, at most one more for the
# sharded aggregation (a trait's declaration has no body).
for name in publish_policy install_everywhere resolve_in_doubt wal_stats crashed_servers decision_log_records run_tm; do
    n=$(($(hits "fn $name\\(" "${outside_core[@]}") - $(hits "fn $name\\(.*;\$" "${outside_core[@]}")))
    # `Host::wal_stats` is the per-host primitive the one body sums.
    [ "$name" = wal_stats ] && n=$((n - 1))
    [ "$n" -le 2 ] || bad "fn $name has $n bodies (one control plane + the sharded aggregation = 2)"
done

n=$(hits '0x7331' "${hosting[@]}")
[ "$n" -eq 1 ] || bad "0x7331 appears $n times under crates/runtime crates/net (want 1)"
for name in splitmix64 now_since; do
    n=$(hits "fn $name" "${hosting[@]}")
    [ "$n" -eq 1 ] || bad "fn $name is defined $n times under crates/runtime crates/net (want 1)"
done

gone='NetFaultPlan|NetEdgeRule|ArmedNetPlan|NetFaultStats|NetVerdict|Input::Configure|Input::Crash|ConfigureFn|spawn_resolver|yield_now'
n=$(hits "$gone" "${all[@]}")
[ "$n" -eq 0 ] || { bad "retired names are back:"; nontest "${all[@]}" | grep -E "$gone"; }
if grep -rnE 'NetFaultPlan|NetEdgeRule' tests; then bad "tests/ still names the retired plan types"; fi
if grep -n 'enum AnyCluster' tests/chaos.rs; then bad "tests/chaos.rs hand-dispatches again"; fi

n=$(hits 'RuntimeKind::Threaded\(' crates/service/src/service.rs)
[ "$n" -le 3 ] || bad "RuntimeKind::Threaded( appears $n times in service.rs (want <= 3: one dispatch point)"

[ "$fail" -eq 0 ] && echo "one host, one control plane, one fault plan: ok ($total non-test lines under crates/*/src, $hosting_total in the hosting files)"
exit "$fail"
