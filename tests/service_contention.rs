//! Stress: the transaction service under hot-key contention with the
//! paper's strictest configuration (Continuous proofs, Global
//! consistency). Every commit must survive a post-hoc Definition 4 audit,
//! policy-denied submissions must end terminally at their denial (retry
//! must never resubmit one: every extra attempt, theirs included, is a
//! concurrency casualty) and leave neither lock nor write behind,
//! accounting must conserve, and admission control must observably shed
//! when the service is saturated. On channels and on sockets alike, a lock
//! conflict met by a 2PV contact surfaces as `LockConflict`, is retried to
//! a commit and leaves no reply unconsumed.

use safetx::core::{trusted, AbortReason, ConcurrencyMode, ConsistencyLevel, ProofScheme};
use safetx::net::NetCluster;
use safetx::policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx::runtime::{Cluster, ClusterConfig};
use safetx::service::{
    run_closed_loop, AdmissionError, RetryPolicy, RuntimeKind, ServiceConfig, ServiceOutcome,
    TxnService,
};
use safetx::store::Value;
use safetx::txn::{Operation, QuerySpec, TransactionSpec};
use safetx::types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, TxnId, UserId};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;

const SERVERS: usize = 3;
/// All clients hammer this many keys per server — guaranteed conflicts.
const HOT_SLOTS: u64 = 4;
const CLIENTS: usize = 8;
const PER_CLIENT: usize = 12;
/// Every DENY_EVERY-th submission carries no credential (policy-denied).
const DENY_EVERY: u64 = 6;

fn hot_config() -> ClusterConfig {
    ClusterConfig {
        servers: SERVERS,
        scheme: ProofScheme::Continuous,
        consistency: ConsistencyLevel::Global,
        ..Default::default()
    }
}

/// Publishes the member policy and seeds the hot keys; a macro because the
/// two runtimes' `configure_server` closures name different address types.
macro_rules! seeded {
    ($cluster:expr) => {{
        let cluster = $cluster;
        let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text(
                "grant(read, records) :- role(U, member).\n\
                 grant(write, records) :- role(U, member).",
            )
            .expect("rules parse")
            .build();
        cluster.publish_policy(policy);
        for s in 0..SERVERS as u64 {
            cluster.configure_server(ServerId::new(s), move |core| {
                for j in 0..HOT_SLOTS {
                    core.store_mut().write(
                        DataItemId::new(s * 100 + j),
                        Value::Int(0),
                        Timestamp::ZERO,
                    );
                }
            });
        }
        Arc::new(cluster)
    }};
}

fn hot_cluster() -> Arc<Cluster> {
    seeded!(Cluster::new(hot_config()))
}

fn member_credential(cluster: &Cluster) -> Credential {
    member_credential_of(cluster.cas())
}

fn member_credential_of(cas: &safetx::core::SharedCas) -> Credential {
    cas.with_mut(|registry| {
        registry.ca_mut(CaId::new(0)).unwrap().issue(
            UserId::new(1),
            Atom::fact(
                "role",
                vec![Constant::symbol("u1"), Constant::symbol("member")],
            ),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    })
}

/// Runs `shut` on a helper thread and returns once `shut` reports,
/// through the sender it is given, that it holds its gate shut: nothing
/// submitted afterwards can slip past the gate.
fn hold(shut: impl FnOnce(Sender<()>) + Send + 'static) -> JoinHandle<()> {
    let (held, is_held) = std::sync::mpsc::channel();
    let stall = std::thread::spawn(move || shut(held));
    is_held.recv().expect("the gate is shut");
    stall
}

fn denied(global_index: u64) -> bool {
    global_index % DENY_EVERY == DENY_EVERY - 1
}

/// A multi-server write confined to the hot key set, credential-less
/// submissions included: the 2PV contact that proves a query executes it
/// first, so a denied transaction contends for the hot locks like any
/// other until its proof comes back FALSE.
fn hot_spec(cluster: &Cluster, global_index: u64) -> TransactionSpec {
    hot_spec_with_id(cluster.next_txn_id(), global_index)
}

fn hot_spec_with_id(id: TxnId, global_index: u64) -> TransactionSpec {
    let slot = global_index % HOT_SLOTS;
    let queries = (0..SERVERS as u64)
        .map(|s| {
            QuerySpec::new(
                ServerId::new(s),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(s * 100 + slot), 1)],
            )
        })
        .collect();
    TransactionSpec::new(id, UserId::new(1), queries)
}

#[test]
fn hot_key_contention_stays_safe_and_never_retries_denials() {
    let cluster = hot_cluster();
    let service = TxnService::new(
        cluster.clone(),
        ServiceConfig {
            workers: CLIENTS,
            queue_depth: 2 * CLIENTS,
            retry: RetryPolicy {
                max_retries: 100,
                ..Default::default()
            },
            seed: 2011,
        },
    );
    let cred = member_credential(&cluster);
    let report = run_closed_loop(&service, CLIENTS, PER_CLIENT, |client, index| {
        let g = (client * PER_CLIENT + index) as u64;
        let creds = if denied(g) {
            vec![]
        } else {
            vec![cred.clone()]
        };
        (hot_spec(&cluster, g), creds)
    });

    let total = (CLIENTS * PER_CLIENT) as u64;
    let denials = (0..total).filter(|&g| denied(g)).count();
    assert_eq!(report.completions.len() as u64, total);

    // Definition 4 audit on every commit: the recorded proof view must be
    // trusted under Global consistency against the catalog's latest
    // policy versions.
    let authority = cluster.catalog().latest_versions();
    let mut commits = 0usize;
    let mut terminal = 0usize;
    for done in &report.completions {
        match done.outcome {
            ServiceOutcome::Committed => {
                commits += 1;
                assert!(
                    !done.view.is_empty(),
                    "a commit under Continuous must have recorded proofs"
                );
                assert!(
                    trusted::is_trusted(&done.view, ConsistencyLevel::Global, &authority),
                    "committed view failed the Definition 4 audit"
                );
            }
            ServiceOutcome::TerminalAbort(reason) => {
                terminal += 1;
                assert_eq!(reason, AbortReason::ProofFalse);
            }
            ServiceOutcome::RetriesExhausted(reason) => {
                panic!("retry budget of 100 exhausted on {reason:?}")
            }
        }
    }
    assert_eq!(
        terminal, denials,
        "exactly the credential-less submissions deny"
    );
    assert_eq!(commits as u64, total - denials as u64);

    // A denied transaction's contact takes the hot lock before its proof
    // is evaluated, so it can lose a lock race and be retried like anyone
    // else — but a denial itself is never resubmitted: every extra attempt
    // of every submission was recorded as a concurrency casualty.
    let extra_attempts: u64 = report
        .completions
        .iter()
        .map(|done| u64::from(done.attempts - 1))
        .sum();

    // Nothing of a denial survives it. No lock: with the service idle, one
    // more write per hot slot commits first time. No buffered write: every
    // hot item counts exactly the commits on its slot.
    for slot in 0..HOT_SLOTS {
        let done = service
            .try_submit(hot_spec(&cluster, slot), vec![cred.clone()])
            .expect("idle service admits")
            .wait();
        assert!(done.outcome.is_commit(), "{done:?}");
        assert_eq!(done.attempts, 1, "a lock outlived its transaction");
    }
    for s in 0..SERVERS as u64 {
        let (tx, rx) = std::sync::mpsc::channel();
        cluster.configure_server(ServerId::new(s), move |core| {
            let values: Vec<_> = (0..HOT_SLOTS)
                .map(|slot| core.store().read_int(DataItemId::new(s * 100 + slot)))
                .collect();
            let _ = tx.send((core.active_txns(), values));
        });
        let (active, values) = rx.recv().expect("probe ran");
        assert_eq!(active, 0, "server {s} still holds transaction state");
        for slot in 0..HOT_SLOTS {
            let committed = (0..total)
                .filter(|&g| !denied(g) && g % HOT_SLOTS == slot)
                .count() as i64;
            assert_eq!(values[slot as usize], Some(committed + 1));
        }
    }

    let stats = service.shutdown();
    assert!(stats.conserves(), "outcome accounting leaked: {stats:?}");
    assert_eq!(stats.commits as usize, commits + HOT_SLOTS as usize);
    assert_eq!(stats.terminal_aborts as usize, terminal);
    assert_eq!(stats.retry_attempts, extra_attempts);
    assert_eq!(
        stats.retry_attempts,
        stats.retry_lock_conflicts + stats.retry_validation_conflicts,
        "a retry that was no concurrency casualty: {stats:?}"
    );
}

#[test]
fn saturated_service_sheds_with_observable_overload_rejections() {
    let depth = 3usize;
    let burst = 7usize;
    let cluster = hot_cluster();
    let service = TxnService::new(
        cluster.clone(),
        ServiceConfig {
            workers: 1,
            queue_depth: depth,
            retry: RetryPolicy::default(),
            seed: 7,
        },
    );
    let cred = member_credential(&cluster);

    // Deterministic saturation: a configuration closure holds server 0's
    // host, so this recv gates it shut and parks the only worker inside
    // execute. configure_server blocks its caller, hence the helper
    // thread; nothing is submitted before the gate is shut.
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let gated = cluster.clone();
    let stall = hold(move |held| {
        gated.configure_server(ServerId::new(0), move |_core| {
            held.send(()).expect("the test waits");
            let _ = gate_rx.recv();
        });
    });

    let mut handles = vec![service
        .try_submit(hot_spec(&cluster, 0), vec![cred.clone()])
        .expect("empty queue admits")];
    while service.queue_len() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut rejected = 0u64;
    for g in 0..(depth + burst) as u64 {
        match service.try_submit(hot_spec(&cluster, g + 1), vec![cred.clone()]) {
            Ok(handle) => handles.push(handle),
            Err(AdmissionError::Overloaded) => rejected += 1,
            Err(AdmissionError::Closed) => unreachable!("service is open"),
        }
    }
    assert_eq!(rejected, burst as u64, "exact shed count past queue depth");

    gate_tx.send(()).expect("gate listener alive");
    stall.join().expect("stall helper");
    for handle in handles {
        assert!(handle.wait().outcome.is_commit(), "admitted work commits");
    }
    let stats = service.shutdown();
    assert_eq!(stats.overload_rejections, rejected);
    assert!(stats.conserves(), "{stats:?}");
}

/// Two clients on one hot item, the interleaving forced: server 1 is gated
/// shut, so whichever transaction takes the item's lock at server 0 parks
/// in its second 2PV round holding it, and the other's contact at server 0
/// must conflict. Once server 0 has applied that transaction's abort the
/// gate opens. (Server 0's counters are asked, not `service.stats()`: the
/// statistics probe every server's WAL and would park on the gate too; nor
/// its decided memo, which it may forget after any round.) Locking mode
/// is pinned: optimistic execution takes no lock at the contact.
macro_rules! two_clients_on_one_item {
    ($cluster:path, $kind:path) => {{
        let cluster = seeded!($cluster(ClusterConfig {
            concurrency: Some(ConcurrencyMode::Locking),
            ..hot_config()
        }));
        let service = TxnService::with_runtime(
            $kind(cluster.clone()),
            ServiceConfig {
                workers: 2,
                queue_depth: 2,
                retry: RetryPolicy {
                    max_retries: 1_000,
                    ..Default::default()
                },
                seed: 16,
            },
        );
        let cred = member_credential_of(cluster.cas());
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let gated = cluster.clone();
        let stall = hold(move |held| {
            gated.configure_server(ServerId::new(1), move |_core| {
                held.send(()).expect("the test waits");
                let _ = gate_rx.recv();
            });
        });
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let spec = hot_spec_with_id(TxnId::new(0), 0);
                service
                    .try_submit(spec, vec![cred.clone()])
                    .expect("admitted")
            })
            .collect();
        while cluster.configure_server(ServerId::new(0), |core| core.counters().aborts_applied) == 0
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        gate_tx.send(()).expect("gate listener alive");
        stall.join().expect("stall helper");

        let done: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
        assert!(done.iter().all(|d| d.outcome.is_commit()), "{done:?}");
        let mut attempts: Vec<u32> = done.iter().map(|d| d.attempts).collect();
        attempts.sort_unstable();
        assert_eq!(attempts[0], 1, "the lock holder commits first time");
        assert!(attempts[1] > 1, "the other was turned away and retried");
        let stats = service.shutdown();
        assert!(stats.conserves(), "{stats:?}");
        assert_eq!(stats.commits, 2);
        assert_eq!(u64::from(attempts[1] - 1), stats.retry_lock_conflicts);
        assert_eq!(stats.retry_attempts, stats.retry_lock_conflicts);
        assert_eq!(stats.dropped_replies, 0, "every 2PV reply was consumed");
        let (tx, rx) = std::sync::mpsc::channel();
        cluster.configure_server(ServerId::new(0), move |core| {
            let _ = tx.send(core.store().read_int(DataItemId::new(0)));
        });
        assert_eq!(
            rx.recv().expect("probe ran"),
            Some(2),
            "both increments landed"
        );
    }};
}

#[test]
fn a_contacts_lock_conflict_is_retried_to_commit_on_channels() {
    two_clients_on_one_item!(Cluster::new, RuntimeKind::Threaded);
}

#[test]
fn a_contacts_lock_conflict_is_retried_to_commit_on_sockets() {
    two_clients_on_one_item!(NetCluster::new, RuntimeKind::Net);
}
