//! Hosting for the safetx protocols — one server host, one deployment
//! control plane, one fault plan — and the threaded deployment built from
//! them.
//!
//! The protocol logic in `safetx-core` is sans-io: [`ServerCore`] consumes
//! messages and returns messages, `safetx_core::TmCore` owns the whole
//! coordinator lifecycle as a pure `step(now, TmEvent) -> Vec<TmEffect>`
//! machine, and the loops that drive them live in the core too
//! (`ServerCore::handle`, `safetx_core::drive_tm`). This crate runs
//! them for real, and every deployment shares what it runs them on:
//!
//! * [`Host`] — one cloud server behind a lock, and the queue whoever
//!   holds the lock serves. Whoever received or sent a message serves it
//!   on it; crash, restart (the one `recover_from_wal`
//!   call site), WAL accounting and leftover termination are plain
//!   methods under the same lock.
//! * [`LinkedCluster`] and [`Deployment`] — the control plane (bootstrap,
//!   `execute`, `configure_server`, `publish_policy`, crash/restart,
//!   `resolve_in_doubt`, the decision logs, every counter), generic over
//!   the [`Link`] that carries messages between TMs and hosts, and that
//!   surface as an object-safe trait.
//! * [`FaultPlan`] / [`Fabric`] — the one seeded fault schedule. Crash
//!   points fire in a host's round; edge rules are applied where a link
//!   sends — per message here, per frame in `safetx-net`.
//!
//! [`Cluster`] is the control plane over the [`ChannelLink`]: `execute`
//! lends the calling thread and a fresh reply channel to the TM loop,
//! whose per-reply deadline (`ClusterConfig::reply_timeout`) is the
//! failure detector, and a TM's send runs the server's round on the
//! calling thread unless the host is busy — then its lock holder runs it.
//! Only a host whose WAL sync models a device has a thread of its own.
//! `safetx_net::NetCluster` is the same control plane over Unix-socket
//! byte streams. Either partitions with `ClusterConfig::groups`: one
//! fabric and one host per server as ever, one decision log per group.
//! Because every runtime drives the same cores, `tests/differential.rs`
//! holds them — and the simulator, which remains the *measurement*
//! harness — to identical outcomes, counters and proof views on identical
//! inputs.
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
mod deployment;
mod fault;
mod host;

pub use cluster::{Addr, ChannelLink, ChannelTm, Cluster};
pub use deployment::{
    ClusterConfig, DecisionLog, Deployment, ExecutionResult, Link, LinkedCluster, TxnRoute,
};
pub use fault::{
    splitmix64, CrashPoint, CrashRule, EdgeRule, Fabric, FaultPlan, Layer, Peer, PeerMatch, Verdict,
};
pub use host::{now_since, Host, PeerAddr};

// `MsgKind` and `TmCrashPoint` moved into the core with the shared TM loop;
// re-exported so `safetx_runtime::` paths keep resolving, like the core
// types the doc example above names.
pub use safetx_core::{MsgKind, ServerCore, TmCrashPoint, TwoPvc, ValidationRound};
