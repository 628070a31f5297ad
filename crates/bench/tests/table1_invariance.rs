//! Table I invariance: the paper-model message and proof counts are part
//! of the repo's contract, and runtime refactors (Arc-based message
//! payloads, the protocol/data-plane split, sharded locks) must not move
//! them. Every cell is pinned to the exact measured value the `table1`
//! binary reports at n = 5, not just the paper's `<=` bound — a count
//! that drifts by even one message fails here before it reaches the
//! rendered table.

use safetx_bench::{run_single, run_single_threaded, Staleness};
use safetx_core::{complexity, ConsistencyLevel, ProofScheme};

const N: u64 = 5;

/// The worst-case adversary per cell, mirroring the `table1` binary.
fn adversary(scheme: ProofScheme, level: ConsistencyLevel) -> Staleness {
    match (scheme, level) {
        (ProofScheme::Deferred | ProofScheme::Punctual, ConsistencyLevel::View) => {
            Staleness::OneAhead
        }
        (ProofScheme::Deferred | ProofScheme::Punctual, ConsistencyLevel::Global) => {
            Staleness::AllStale
        }
        _ => Staleness::None,
    }
}

/// Exact measured (messages, proofs, rounds) per cell at n = u = 5.
/// The view-consistency Deferred/Punctual cells measure 28 messages —
/// below the paper's 30 — because some replica always defines the largest
/// version, so at most n − 1 participants re-validate.
fn expected(scheme: ProofScheme, level: ConsistencyLevel) -> (u64, u64, u64) {
    match (scheme, level) {
        (ProofScheme::Deferred, ConsistencyLevel::View) => (28, 9, 2),
        (ProofScheme::Deferred, ConsistencyLevel::Global) => (32, 10, 2),
        (ProofScheme::Punctual, ConsistencyLevel::View) => (28, 14, 2),
        (ProofScheme::Punctual, ConsistencyLevel::Global) => (32, 15, 2),
        (ProofScheme::IncrementalPunctual, ConsistencyLevel::View) => (20, 5, 1),
        (ProofScheme::IncrementalPunctual, ConsistencyLevel::Global) => (25, 5, 1),
        (ProofScheme::Continuous, ConsistencyLevel::View) => (50, 15, 1),
        (ProofScheme::Continuous, ConsistencyLevel::Global) => (56, 20, 1),
    }
}

#[test]
fn table1_counts_are_pinned() {
    for scheme in ProofScheme::ALL {
        for level in ConsistencyLevel::ALL {
            let run = run_single(scheme, level, N as usize, adversary(scheme, level));
            let (msgs, proofs, rounds) = expected(scheme, level);
            assert!(
                run.committed,
                "{scheme}/{level}: worst-case run must commit"
            );
            assert_eq!(
                run.metrics.rounds.max(1),
                rounds,
                "{scheme}/{level}: round count drifted"
            );
            assert_eq!(
                run.metrics.messages, msgs,
                "{scheme}/{level}: message count drifted"
            );
            assert_eq!(
                run.metrics.proofs, proofs,
                "{scheme}/{level}: proof count drifted"
            );
            // The pinned values must also stay within the paper's bounds —
            // this keeps the fixture honest if the formulas change.
            let r = run.metrics.rounds.max(1);
            assert!(run.metrics.messages <= complexity::max_messages(scheme, level, N, N, r));
            assert!(run.metrics.proofs <= complexity::max_proofs(scheme, level, N, r));
        }
    }
}

/// The threaded runtime drives the same sans-io `TmCore` as the
/// simulator, so its Table I counters must land on the exact same pinned
/// values — same worst-case adversary, same `n = u = 5` layout. A drift
/// here means one driver grew accounting of its own.
#[test]
fn threaded_runtime_counts_match_table1() {
    for scheme in ProofScheme::ALL {
        for level in ConsistencyLevel::ALL {
            let run = run_single_threaded(scheme, level, N as usize, adversary(scheme, level));
            let (msgs, proofs, rounds) = expected(scheme, level);
            assert!(
                run.committed,
                "{scheme}/{level}: threaded worst-case run must commit"
            );
            assert_eq!(
                run.metrics.rounds.max(1),
                rounds,
                "{scheme}/{level}: threaded round count drifted"
            );
            assert_eq!(
                run.metrics.messages, msgs,
                "{scheme}/{level}: threaded message count drifted"
            );
            assert_eq!(
                run.metrics.proofs, proofs,
                "{scheme}/{level}: threaded proof count drifted"
            );
            let r = run.metrics.rounds.max(1);
            assert!(run.metrics.messages <= complexity::max_messages(scheme, level, N, N, r));
            assert!(run.metrics.proofs <= complexity::max_proofs(scheme, level, N, r));
        }
    }
}

/// The chain next to the totals: sequential TM → server round trips of one
/// clean commit (no stale replica, Standard variant) at n = u = 3, on both
/// drivers. Every scheme waits through one round trip per query, the vote
/// and the decision. Continuous was 8 while its 2PV round for query i was
/// followed by a separate `ExecQuery` round trip to server i; the 2PV
/// contact executes the query now.
#[test]
fn clean_commit_round_trips_are_pinned() {
    for scheme in ProofScheme::ALL {
        for level in ConsistencyLevel::ALL {
            let sim = run_single(scheme, level, 3, Staleness::None);
            let threaded = run_single_threaded(scheme, level, 3, Staleness::None);
            assert!(sim.committed && threaded.committed, "{scheme}/{level}");
            assert_eq!(sim.metrics.round_trips, 5, "{scheme}/{level}: sim");
            assert_eq!(sim.metrics, threaded.metrics, "{scheme}/{level}");
        }
    }
}

#[test]
fn log_complexity_is_pinned() {
    let clean = run_single(
        ProofScheme::Deferred,
        ConsistencyLevel::View,
        N as usize,
        Staleness::None,
    );
    assert!(clean.committed);
    assert_eq!(
        clean.forced_logs,
        2 * N + 1,
        "clean commit must force exactly 2n + 1 log writes"
    );
}
