//! Set-up: a deployment built through the public surface only (`Cluster`,
//! `NetCluster`, `TxnService::with_runtime`), seeded and armed for one
//! workload.

use crate::workloads::{Draw, Load, Transport, Workload, ITEM_STRIDE, SEED_VALUE, SERVERS};
use safetx_core::{SharedCas, SharedCatalog};
use safetx_net::NetCluster;
use safetx_policy::{
    Atom, CaRegistry, CertificateAuthority, Constant, Credential, Policy, PolicyBuilder,
};
use safetx_runtime::{Cluster, ClusterConfig};
use safetx_service::{RetryPolicy, RuntimeKind, ServiceConfig, TxnService};
use safetx_store::Value;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, TxnId, UserId};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Runs a closure on one server's event loop, whichever transport hosts it.
macro_rules! on_server {
    ($runtime:expr, $server:expr, $f:expr) => {
        match $runtime {
            safetx_service::RuntimeKind::Threaded(c) => c.configure_server($server, $f),
            safetx_service::RuntimeKind::Net(c) => c.configure_server($server, $f),
            safetx_service::RuntimeKind::Sharded(_) => {
                unreachable!("the benchmark never builds a sharded backend")
            }
        }
    };
}
pub(crate) use on_server;

pub const POLICY: PolicyId = PolicyId::new(0);

/// The two-literal `write` rule of `runtime_compare`: granting needs two of
/// the wallet's four credentials.
const RULES: &str = "grant(read, records) :- role(U, member).\n\
                     grant(write, records) :- role(U, member), region(U, east).";

pub fn initial_policy() -> Policy {
    PolicyBuilder::new(POLICY, AdminDomain::new(0))
        .rules_text(RULES)
        .expect("benchmark rules parse")
        .build()
}

/// The successor version with the same (still-granting) rules.
pub fn next_policy(current: &Policy) -> Policy {
    current.updated(current.rules().clone())
}

/// A catalog holding the initial policy and the one CA every deployment
/// registers, for harness-owned `ServerCore`s (the traced replay, the
/// single-call loops) — what `Cluster::new` builds for its own.
pub fn bare_authority() -> (SharedCatalog, SharedCas, Policy) {
    let catalog = SharedCatalog::new();
    let mut registry = CaRegistry::new();
    registry.register(CertificateAuthority::new(CaId::new(0), 0x7331));
    let policy = initial_policy();
    catalog.publish(policy.clone());
    (catalog, SharedCas::new(registry), policy)
}

pub fn user_id(user: usize) -> UserId {
    UserId::new(user as u64 + 1)
}

/// The four-credential wallet of one user: the two the policy needs plus
/// two bystanders every proof context still carries.
pub fn issue_wallet(cas: &SharedCas, user: usize) -> Vec<Credential> {
    let subject = Constant::symbol(format!("u{}", user + 1));
    cas.with_mut(|registry| {
        let ca = registry.ca_mut(CaId::new(0)).expect("default CA");
        [
            ("role", "member"),
            ("role", "auditor"),
            ("role", "oncall"),
            ("region", "east"),
        ]
        .into_iter()
        .map(|(predicate, tag)| {
            ca.issue(
                user_id(user),
                Atom::fact(predicate, vec![subject.clone(), Constant::symbol(tag)]),
                Timestamp::ZERO,
                Timestamp::MAX,
            )
        })
        .collect()
    })
}

/// The 3-query read-modify-write at the drawn items.
pub fn spec_for(id: TxnId, draw: &Draw) -> TransactionSpec {
    let queries = draw
        .items
        .iter()
        .enumerate()
        .map(|(s, &item)| {
            QuerySpec::new(
                ServerId::new(s as u64),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(item), 1)],
            )
        })
        .collect();
    TransactionSpec::new(id, user_id(draw.user), queries)
}

pub fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        // Every transaction is authorised, so every transient abort is
        // retried until it commits.
        max_retries: 64,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(2),
        jitter_percent: 50,
        ..RetryPolicy::default()
    }
}

pub fn cluster_config(w: &Workload) -> ClusterConfig {
    ClusterConfig {
        servers: SERVERS as usize,
        scheme: w.scheme,
        consistency: w.consistency,
        wal_sync_cost: w.wal_sync_cost,
        ..ClusterConfig::default()
    }
}

/// A running deployment and everything the load needs to address it.
pub struct Deployment {
    pub service: TxnService,
    pub wallets: Vec<Vec<Credential>>,
    /// The newest published policy; held while a churn step publishes the
    /// next one so versions appear in order.
    pub latest_policy: Mutex<Policy>,
}

impl Deployment {
    pub fn runtime(&self) -> &RuntimeKind {
        self.service.runtime()
    }

    /// Publishes the next policy version to the catalog and installs it at
    /// one replica only (the `Staleness::OneAhead` shape).
    pub fn churn(&self, replica: u64) {
        let mut latest = self.latest_policy.lock().expect("policy lock");
        let next = next_policy(&latest);
        let version = next.version();
        self.runtime().catalog().publish(next.clone());
        on_server!(self.runtime(), ServerId::new(replica), move |core| core
            .install_policy(POLICY, version));
        *latest = next;
    }
}

/// Value every store should sum to before any commit.
pub fn seeded_sum(w: &Workload) -> i64 {
    SEED_VALUE * (SERVERS * w.items_per_server) as i64
}

/// Builds the deployment for `w`: cluster, policy, seeded items, wallets,
/// service. `queue_depth` must cover every arrival of an open-loop run.
pub fn set_up(w: &Workload, seed: u64, queue_depth: usize) -> Deployment {
    let config = cluster_config(w);
    let runtime = match w.transport {
        Transport::Threaded => RuntimeKind::Threaded(Arc::new(Cluster::new(config))),
        Transport::Net => RuntimeKind::Net(Arc::new(NetCluster::new(config))),
    };
    let policy = initial_policy();
    runtime.publish_policy(policy.clone());
    let items = w.items_per_server;
    for s in 0..SERVERS {
        on_server!(&runtime, ServerId::new(s), move |core| {
            for j in 0..items {
                core.store_mut().write(
                    DataItemId::new(s * ITEM_STRIDE + j),
                    Value::Int(SEED_VALUE),
                    Timestamp::ZERO,
                );
            }
        });
    }
    let wallets = (0..w.users)
        .map(|user| issue_wallet(runtime.cas(), user))
        .collect();
    let clients = match w.load {
        Load::Closed { clients } => clients,
        Load::Open { .. } => 0,
    };
    let service = TxnService::with_runtime(
        runtime,
        ServiceConfig {
            workers: w.service_workers,
            queue_depth: queue_depth.max(2 * clients),
            retry: retry_policy(),
            seed,
        },
    );
    Deployment {
        service,
        wallets,
        latest_policy: Mutex::new(policy),
    }
}
