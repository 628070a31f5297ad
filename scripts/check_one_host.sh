#!/usr/bin/env bash
# One server host, one control plane, one fault plan, one participant
# path, one benchmark, one coordinator log, one byte schema, shards as a
# topology, one message per server round, a log device that waits off the
# processor, one TM driver, no TM-side reader thread and a server round of
# one message with no envelope, deferred half or group commit: the
# acceptance greps and the non-test line budgets of the consolidations.
# Fails on regression.
#
# "Non-test" means the lines of a file before its first `#[cfg(test)]`,
# and none of a file its parent declares under `#[cfg(test)]`
# (`#[cfg(test)] mod tests;`) — the count CHANGES.md uses (24 167 under
# crates/*/src at 5e6d18f, 23 456 at 06d72e5, 22 960 at 3ad6782, 21 734 at c5aca8d, 21 730 at 96bffe7; the
# bounded server state added 63, 22 of them in the hosting files, to
# 21 793 at 8e3d757; the bounded coordinator log added 40 — `CoordinatorLog`
# less `answer_inquiry`, the coordinator record's `Display` and the
# runtime's linear scan — and took 2 from the hosting files; the one byte
# schema took 814, 6 of them from the hosting files' fault.rs; folding the
# shard router into the control plane's decision-log groups took 340, all
# of them from the hosting files; from 20 679 at 3e18a2b, not counting the
# 551 lines of the two test modules kept in files of their own gives
# 20 128, and deleting the server-round drain limit took 75 of those —
# 79 from the hosting files and 1 from the runtime's lib.rs, while
# safetx-core gained 5; making the modelled log device's sync a sleep
# with a spun last stretch (its margin the timer slack read once plus a
# fixed wake-up allowance, its nap slept in slices of at most 100 µs)
# added 48, all of them in safetx-store's wal.rs, to 20 101; one TM
# driver for the simulator and every runtime — a sans-io `TmDriver` and two
# small sinks in place of two effect interpreters, the single-implementor
# `TmAuthority` trait and the runtime's `Authority` struct folded into
# `drive_tm`'s logs and master closure — took 2, to 20 099, and 49 from
# the hosting files, to 3 255; the socket link's waiting workers reading
# their own replies in place of a reader thread per connection took 8, to
# 20 091, and 10 from the hosting files, to 3 245 — the workers' reads, an
# inbox per transaction and the counters' settling of late frames cost
# what deleting the reader threads, their routes and the test-only
# reconnect methods saved, and fault and edge counters kept as the
# metrics crate's structs behind a lock paid for the rest; a server round
# of one message — `ServerCore::handle` evaluating a message's proofs in
# place, each force its own sync, each reply its own send — deleted reply
# coalescing, the deferred half of a round and the WAL's group-commit
# window, taking 429, to 19 662, and 83 from the hosting files, to
# 3 162; a sender that waits out a brief holder — `Host::deliver` spinning
# on `try_lock` for up to `HAND_OFF_SPIN` and serving its own message, and
# `Host::try_state` shared with `drain` — added 28, all of them in the
# hosting files, to 19 690 and 3 190).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
bad() { echo "FAIL: $*"; fail=1; }

# Files a parent module declares under `#[cfg(test)]` (`mod m;` right
# after the attribute): `m.rs` or `m/mod.rs` beside a `lib.rs`/`main.rs`/
# `mod.rs` parent, under `p/` for any other parent `p.rs`.
mapfile -t test_modules < <(find crates/*/src src examples -name '*.rs' -exec awk '
    FNR == 1 { prev = "" }
    prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && /^[ \t]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
        m = $0; sub(/^.*mod /, "", m); sub(/;.*$/, "", m)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
        if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
        print dir "/" m ".rs"; print dir "/" m "/mod.rs"
    }
    { prev = $0 }' {} +)
is_test_module() {
    local m
    for m in "${test_modules[@]}"; do [ "$m" = "$1" ] && return 0; done
    return 1
}

# Non-test text of the given files, one "path:line" prefix per line.
nontest() {
    for f in "$@"; do
        is_test_module "$f" && continue
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
[ "$total" -le 19690 ] || bad "non-test Rust under crates/*/src is $total lines (budget 19690; 19662 at e93794f)"

budget_files=(crates/runtime/src/cluster.rs crates/net/src/runtime.rs crates/runtime/src/fault.rs
    crates/net/src/fault.rs crates/service/src/service.rs crates/runtime/src/host.rs
    crates/runtime/src/deployment.rs)
hosting_total=$(lines "${budget_files[@]}")
[ "$hosting_total" -le 3190 ] || bad "hosts, links, control plane and fault plan total $hosting_total lines (budget 3190; 3162 at e93794f)"

# One byte schema: each wire type's layout is one `Wire` impl, each stats
# struct one `counters!` entry, and the frame format is written in one place.
n=$(hits 'fn (put|get)_' crates/net/src/wire.rs)
[ "$n" -eq 0 ] || bad "wire.rs has $n hand-written put_/get_ functions again (one Wire impl per type)"
n=$(hits 'fn (from|to)_json' crates/metrics/src/counters.rs)
[ "$n" -eq 0 ] || bad "counters.rs has $n to_json/from_json methods again (ServiceStats flattens fields())"
n=$(hits 'Vec::with_capacity\([a-z_]+\)' crates/net/src/wire.rs)
[ "$n" -eq 0 ] || bad "wire.rs reserves a decoded count uncapped in $n places (Vec<T>::get caps it)"
n=$(hits 'write_raw_frame' "${all[@]}")
[ "$n" -eq 0 ] || bad "write_raw_frame is back ($n hits): wire.rs frames every payload"

# Bounded coordinator log: one `CoordinatorLog` answers every inquiry; no
# coordinator record list or scan of one is left in the crates.
stale=$(grep -rnE 'Wal<CoordinatorRecord>|answer_inquiry\(' crates/*/src || true)
[ -z "$stale" ] || { bad "a coordinator record scan is back:"; echo "$stale"; }

n=$(hits 'recover_from_wal\(' "${outside_core[@]}")
[ "$n" -eq 1 ] || bad "recover_from_wal( is called from $n places outside safetx-core (want 1)"

# One body per control-plane method: every deployment, partitioned or
# not, is the one control plane (a trait's declaration has no body).
for name in publish_policy install_everywhere resolve_in_doubt wal_stats crashed_servers logged_decision run_tm; do
    n=$(($(hits "fn $name\\(" "${outside_core[@]}") - $(hits "fn $name\\(.*;\$" "${outside_core[@]}")))
    # `Host::wal_stats` is the per-host primitive the one body sums.
    [ "$name" = wal_stats ] && n=$((n - 1))
    [ "$n" -le 1 ] || bad "fn $name has $n bodies (one control plane = 1)"
done

# Shards are a topology: decision-log groups of the one control plane, not
# a deployment of several clusters over several fabrics.
mapfile -t every_rust < <(find crates/*/src src tests examples -name '*.rs' | sort)
gone='ShardedCluster|ShardedConfig|open_over|cross_stats|first_server|with_topology'
stale=$(grep -nE "$gone" "${every_rust[@]}" || true)
[ -z "$stale" ] || { bad "the shard router's names are back:"; echo "$stale"; }

# One message per server round: the drain limit, its environment variable
# and the struct that resolved it stay deleted, from code, scripts, CI and
# the docs alike.
round_gone='server_batch|SAFETX_SERVER_BATCH|ResolvedKnobs|resolve_with|frame_buffered'
stale=$(grep -rnE "$round_gone" crates/*/src src tests examples scripts .github README.md DESIGN.md |
    grep -v "^scripts/check_one_host.sh:[0-9]*:round_gone=" || true)
[ -z "$stale" ] || { bad "the server-round drain limit is back:"; echo "$stale"; }

# The modelled log device waits off the processor: the spins left in
# non-test code are the last stretch of `Wal`'s device wait and a sender
# trying for a briefly held host lock (`Host::try_state`).
n=$(hits 'spin_loop' "${all[@]}")
tail_spin=$(nontest crates/store/src/wal.rs |
    awk '/^[^:]*:fn device_wait\(/ { w = 1 } /^[^:]*:}/ { w = 0 } w && /spin_loop/' | wc -l)
lock_spin=$(nontest crates/runtime/src/host.rs |
    awk '/^[^:]*:    fn try_state\(/ { w = 1 } /^[^:]*:    }$/ { w = 0 } w && /spin_loop/' | wc -l)
[ "$n" -eq 2 ] && [ "$tail_spin" -eq 1 ] && [ "$lock_spin" -eq 1 ] ||
    bad "spin_loop appears $n times in non-test code, $tail_spin in wal.rs's device_wait and $lock_spin in host.rs's try_state (want 2, 1 and 1)"

# A brief hold is waited for: the spin bound is one stated constant. No
# `SAFETX_` variable and no `ClusterConfig` field sets it.
n=$(hits '^[^:]*:pub\(crate\) const HAND_OFF_SPIN: Duration = Duration::from_micros\([0-9]+\);$' crates/runtime/src/host.rs)
[ "$n" -eq 1 ] || bad "HAND_OFF_SPIN is not one literal constant in host.rs ($n definitions)"
stale=$(grep -rnE 'SAFETX_[A-Z_]*(SPIN|HAND)|HAND_OFF_SPIN *=' crates/*/src src tests examples benchmark/src scripts .github |
    grep -vE '^crates/runtime/src/host\.rs:[0-9]+:pub\(crate\) const HAND_OFF_SPIN|^scripts/check_one_host\.sh:' || true)
[ -z "$stale" ] || { bad "the hand-off spin bound is set from outside host.rs:"; echo "$stale"; }
stale=$(awk '/^pub struct ClusterConfig \{/ { c = 1 } c && /^}/ { c = 0 } c' crates/runtime/src/deployment.rs |
    grep -inE 'spin|hand_?off' || true)
[ -z "$stale" ] || { bad "a ClusterConfig field sets the hand-off spin:"; echo "$stale"; }

# One TM driver: `TmDriver::perform` in tm_loop.rs is the only code that
# matches a `TmEffect`. tm_core.rs only emits them (its round-trip count
# asks whether a batch already holds a send); comments do not count.
effect_uses=$(nontest "${crates_src[@]}" | grep -E 'TmEffect::' | grep -vE '^[^:]*:[[:space:]]*//' || true)
stale=$(printf '%s\n' "$effect_uses" | grep -vE '^(crates/core/src/tm_loop\.rs:|$)' |
    grep -vE '^crates/core/src/tm_core\.rs:.*(push\(TmEffect::|matches!\(e, TmEffect::Send\(\.\.\)\))' || true)
[ -z "$stale" ] || { bad "TmEffect is matched outside the TM driver:"; echo "$stale"; }
stray=$(nontest crates/core/src/tm_loop.rs | awk '/fn perform\(/ { p = 1 } p && /^[^:]*:    }$/ { p = 0 }
    !p && /TmEffect::/ && !/^[^:]*:[ \t]*\/\//' | wc -l)
[ "$stray" -eq 0 ] || bad "tm_loop.rs matches TmEffect outside TmDriver::perform ($stray lines)"

# Whoever waits reads: the socket link's TM side has no reader thread, so
# the one `thread::spawn` left in non-test runtime.rs is the host reader's.
stale=$(grep -rn 'tm_reader_loop' crates/*/src src tests examples || true)
[ -z "$stale" ] || { bad "the TM-side reader thread is back:"; echo "$stale"; }
n=$(hits 'thread::spawn' crates/net/src/runtime.rs)
[ "$n" -le 1 ] || bad "non-test crates/net/src/runtime.rs spawns threads in $n places (want 1: the host reader)"

# A server round is one message: no reply envelope is formed, no round
# has a deferred half, the WAL has no group-commit window and the TM
# driver feeds one reply at a time. Their names stay out of crates/*/src,
# comments and tests included; `PeerAddr` has no coalescing key.
round_of_many='coalesce_replies|DeferredEval|EvalTask|run_round|begin_(wal_)?group|end_(wal_)?group|stale_replies\(|roll_kind'
stale=$(grep -rnE "$round_of_many" crates/*/src || true)
[ -z "$stale" ] || { bad "machinery for rounds of many messages is back:"; echo "$stale"; }
stale=$(grep -nE 'fn key\(' crates/runtime/src/host.rs crates/runtime/src/cluster.rs crates/net/src/runtime.rs || true)
[ -z "$stale" ] || { bad "PeerAddr has a reply-coalescing key again:"; echo "$stale"; }
# No peer forms an envelope: the only `Msg::Batch` built outside tests is
# the decoder's, wire.rs's `15 => Batch(` codec entry (comments aside).
stale=$(nontest "${crates_src[@]}" src/*.rs examples/*.rs | grep -E 'Msg::Batch\(' |
    grep -vE '^[^:]*:[[:space:]]*//' || true)
[ -z "$stale" ] || { bad "a Msg::Batch envelope is built outside the codec:"; echo "$stale"; }

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

# Caller runs the round: a free-sync channel host has no thread, no inbox
# and nothing to fence.
gone='server_thread|LiveGuard|live_servers|Input::Fence|Input::Shutdown'
n=$(hits "$gone" "${all[@]}")
[ "$n" -eq 0 ] || { bad "the channel link's server threads are back:"; nontest "${all[@]}" | grep -E "$gone"; }

# Bounded state: the decided memo is emptied in one method, which a host
# calls after a round once nothing can overtake a decision.
n=$(hits 'decided\.clear\(\)' "${all[@]}")
forget=$(nontest crates/core/src/server.rs | grep -A1 'fn forget_decisions' | grep -c 'decided\.clear()' || true)
[ "$n" -eq 1 ] && [ "$forget" -eq 1 ] || bad "decided.clear() appears $n times, $forget of them in ServerCore::forget_decisions (want 1 and 1)"

n=$(hits 'RuntimeKind::Threaded\(' crates/service/src/service.rs)
[ "$n" -le 3 ] || bad "RuntimeKind::Threaded( appears $n times in service.rs (want <= 3: one dispatch point)"

# One participant path: `handle` is the only entry point, `BatchEval` the only
# evaluator, `recover_from_wal` the only recovery, `TwoPvc` the only 2PC
# coordinator.
participant_files=(crates/core/src/server.rs crates/core/src/round.rs crates/core/src/data_plane.rs
    crates/core/src/sim_actor.rs crates/core/src/two_pvc.rs crates/txn/src/recovery.rs crates/txn/src/lib.rs)
participant_total=$(lines "${participant_files[@]}")
[ "$participant_total" -le 2337 ] || bad "the participant files total $participant_total lines (budget 2337; 2533 at beed4d6)"

n=$(hits 'Msg::(ExecQuery|PrepareToValidate) \{' crates/core/src/server.rs)
[ "$n" -eq 0 ] || bad "server.rs handles queries or 2PV contacts outside round.rs's handle again ($n arms)"
mapfile -t core_src < <(find crates/core/src -name '*.rs' | sort)
n=$(hits 'evaluate_proof\(' "${core_src[@]}")
[ "$n" -eq 0 ] || bad "evaluate_proof( is called $n times under crates/core/src (BatchEval is the only evaluator)"
mapfile -t everywhere < <(find crates/*/src src tests examples -name '*.rs' | sort)
gone='self\.unsafe_baseline\(\)|fn unsafe_baseline\(|recover_coordinator|CoordinatorOutput|CoordinatorState|struct Coordinator \{'
n=$(hits "$gone" "${everywhere[@]}")
[ "$n" -eq 0 ] || { bad "the second participant path or coordinator is back:"; nontest "${everywhere[@]}" | grep -E "$gone"; }

# One benchmark: every wall-clock number comes from `benchmark/`; the
# burst-regime bench binaries, their JSON files and the library code only
# they used stay deleted.
tracked=$(git ls-files 'BENCH_?*')
[ -z "$tracked" ] || bad "tracked BENCH_ files are back: $tracked"
bench_gone='runtime_compare|scale_sweep|route_latency_ms|ZipfLarge|WalletDirectory|struct Population|BENCH_[a-z*]'
mapfile -t rust < <(find crates/*/src src tests examples -name '*.rs' | sort)
stale=$({ nontest "${rust[@]}"; grep -H '' scripts/*.sh .github/workflows/ci.yml README.md DESIGN.md; } |
    grep -v '^scripts/check_one_host.sh:bench_gone=' | grep -E "$bench_gone" || true)
[ -z "$stale" ] || { bad "the second bench system is cited again:"; echo "$stale"; }

[ "$fail" -eq 0 ] && echo "one host, one control plane, one fault plan, one participant path, one benchmark, one coordinator log, one byte schema, shards as a topology, one message per round, one TM driver, no TM-side reader thread, no envelope, deferred half or group commit: ok ($total non-test lines under crates/*/src, $hosting_total in the hosting files, $participant_total in the participant files)"
exit "$fail"
