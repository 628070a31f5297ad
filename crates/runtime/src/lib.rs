//! Threaded in-process deployment of the safetx protocols.
//!
//! The protocol logic in `safetx-core` is sans-io: [`ServerCore`] consumes
//! messages and returns messages, and `safetx_core::TmCore` owns the whole
//! coordinator lifecycle — scheme pipelines, version pinning, 2PV, 2PVC,
//! forced logging, Table I accounting and both timeout paths — as a pure
//! `step(now, TmEvent) -> Vec<TmEffect>` machine. The loops that drive
//! them live in the core too — `ServerCore::run_round` for a server,
//! `safetx_core::drive_tm` for a TM — so this crate is a transport: one
//! thread per cloud server draining a crossbeam channel into rounds, and
//! [`Cluster::execute`] lending the calling thread and a fresh reply
//! channel to the TM loop, carrying its sends through the fault fabric,
//! its decision records to the log and its master consults to the
//! catalog. The failure detector is the loop's per-reply deadline
//! (`ClusterConfig::reply_timeout`), whose firing the core maps to
//! `AbortReason::ServerUnavailable`.
//!
//! The discrete-event simulator remains the *measurement* harness (it
//! counts messages deterministically); this runtime demonstrates that the
//! protocol cores are runtime-agnostic and exercises them under true
//! concurrency, including lock contention between parallel callers. Because
//! both runtimes drive the same core, `tests/differential.rs` holds them to
//! identical outcomes, counters and proof views on identical inputs.
//!
//! # Examples
//!
//! ```
//! use safetx_runtime::{Cluster, ClusterConfig};
//! use safetx_core::{ConsistencyLevel, ProofScheme};
//!
//! let cluster = Cluster::new(ClusterConfig {
//!     servers: 2,
//!     scheme: ProofScheme::Deferred,
//!     consistency: ConsistencyLevel::View,
//!     ..Default::default()
//! });
//! // … publish a policy, issue credentials, call cluster.execute(...) …
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod fault;
mod shard;

pub use cluster::{Addr, Cluster, ClusterConfig, ExecutionResult, ResolvedKnobs};
pub use fault::{CrashPoint, CrashRule, EdgeRule, FaultPlan, Peer, PeerMatch};
pub use shard::{ShardedCluster, ShardedConfig, TxnRoute};

// `MsgKind` and `TmCrashPoint` moved into the core with the shared TM loop;
// re-exported so `safetx_runtime::` paths keep resolving, like the core
// types the doc example above names.
pub use safetx_core::{MsgKind, ServerCore, TmCrashPoint, TwoPvc, ValidationRound};
