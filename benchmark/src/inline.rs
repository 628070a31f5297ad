//! The traced run: the first transactions of a workload's stream replayed
//! through an inline, single-threaded deployment owned by the benchmark —
//! three `ServerCore`s, a shared catalog and CAs, one `TmCore` per
//! transaction, effects routed by this file — with a span around every call
//! into a layer. No thread hop, channel, socket or wake-up happens here, and
//! the inline servers' WAL syncs are free, so what the spans add up to is
//! processor time in the layers' own code. The device wait a workload models
//! (`wal_sync_cost`) is reported beside it, as physical syncs × cost: the
//! real cluster's servers pay it in parallel, a single thread would pay it
//! three times over and book it as `ServerCore::handle` time.

use crate::deploy::{bare_authority, cluster_config, issue_wallet, next_policy, spec_for, POLICY};
use crate::span::{Recorder, Span};
use crate::workloads::{Stream, Transport, Workload, ITEM_STRIDE, SEED_VALUE, SERVERS};
use safetx_core::{
    Msg, ResourcePolicyMap, ServerCore, SharedCatalog, TmConfig, TmCore, TmEffect, TmEvent,
};
use safetx_net::{decode_msg, encode_msg};
use safetx_policy::{Credential, Policy};
use safetx_store::{Value, Wal};
use safetx_txn::CoordinatorRecord;
use safetx_types::{DataItemId, ServerId, Timestamp, TxnId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The coordinator's address as the inline servers see it.
type Coordinator = u8;
const TM: Coordinator = 0;

/// What one replay observed, counted by the harness itself.
pub struct Replay {
    pub wall: Duration,
    pub txns: u64,
    pub commits: u64,
    pub spans: Vec<Span>,
    /// Table-I protocol messages: every routed message except query
    /// execution traffic, plus one per master version retrieval.
    pub messages: u64,
    /// `ServerCore::counters().proofs` summed over the servers.
    pub proofs: u64,
    pub rounds: u64,
    /// Coordinator `ForceLog` effects plus the servers' forced log writes.
    pub forced_logs: u64,
    /// `ServerCore::counters().physical_syncs` summed over the servers: each
    /// one costs the workload's `wal_sync_cost` in the real deployment.
    pub physical_syncs: u64,
    /// Every message routed between TM and servers, query execution
    /// traffic included: each is one thread hop in the real deployments.
    pub routed: u64,
    /// Frame bytes (length prefix included) of every routed message; zero
    /// unless the workload's transport is the wire.
    pub wire_bytes: u64,
    /// The same two counts as `TmCore`'s own accounting reports them.
    pub core_messages: u64,
    pub core_proofs: u64,
    pub store_sum: i64,
}

struct Inline {
    servers: Vec<ServerCore<Coordinator>>,
    catalog: SharedCatalog,
    decision_log: Wal<CoordinatorRecord>,
    wallets: Vec<Vec<Credential>>,
    latest_policy: Policy,
    config: TmConfig,
    wire: bool,
    epoch: Instant,
    messages: u64,
    routed: u64,
    wire_bytes: u64,
    coordinator_forces: u64,
}

fn build(w: &Workload) -> Inline {
    let config = cluster_config(w);
    let (catalog, cas, policy) = bare_authority();
    let servers = (0..SERVERS)
        .map(|s| {
            let mut core = ServerCore::new(
                ServerId::new(s),
                catalog.clone(),
                ResourcePolicyMap::single(POLICY),
                cas.clone(),
                config.variant,
            );
            core.install_policy(POLICY, policy.version());
            for j in 0..w.items_per_server {
                core.store_mut().write(
                    DataItemId::new(s * ITEM_STRIDE + j),
                    Value::Int(SEED_VALUE),
                    Timestamp::ZERO,
                );
            }
            core
        })
        .collect();
    Inline {
        servers,
        catalog,
        decision_log: Wal::new(),
        wallets: (0..w.users).map(|u| issue_wallet(&cas, u)).collect(),
        latest_policy: policy,
        config: TmConfig::new(config.scheme, config.consistency, config.variant),
        wire: w.transport == Transport::Net,
        epoch: Instant::now(),
        messages: 0,
        routed: 0,
        wire_bytes: 0,
        coordinator_forces: 0,
    }
}

fn server_span(msg: &Msg) -> &'static str {
    match msg {
        Msg::ExecQuery { .. } => "server.exec_query",
        Msg::PrepareToValidate { .. }
        | Msg::Update {
            in_commit: false, ..
        } => "server.validate",
        Msg::PrepareToCommit { .. }
        | Msg::Update {
            in_commit: true, ..
        } => "server.prepare_commit",
        Msg::Decision { .. } => "server.decision",
        _ => "server.other",
    }
}

impl Inline {
    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// One message crossing between TM and server: counted, and on the wire
    /// transport encoded and decoded as `NetCluster` would.
    fn cross(&mut self, rec: &mut Recorder, txn: u64, msg: Msg) -> Msg {
        self.routed += 1;
        if !matches!(msg, Msg::ExecQuery { .. } | Msg::QueryDone { .. }) {
            self.messages += 1;
        }
        if !self.wire {
            return msg;
        }
        let payload = rec.span("net.encode", txn, |_| encode_msg(&msg));
        self.wire_bytes += 4 + payload.len() as u64;
        rec.span("net.decode", txn, |_| decode_msg(&payload))
            .expect("own encoding decodes")
    }

    fn run_txn(
        &mut self,
        rec: &mut Recorder,
        id: u64,
        spec: safetx_txn::TransactionSpec,
        wallet: Vec<Credential>,
    ) -> safetx_core::TxnTermination {
        let mut core = TmCore::new(self.config, spec, wallet, self.now());
        let mut inbox: VecDeque<TmEvent> = VecDeque::new();
        let now = self.now();
        let mut effects = rec.span("tm.start", id, |_| core.start(now));
        loop {
            let mut consult_master = false;
            for effect in effects {
                match effect {
                    TmEffect::Send(server, msg) => {
                        let msg = self.cross(rec, id, msg);
                        let now = self.now();
                        let index = server.index() as usize;
                        let replies = rec.span(server_span(&msg), id, |_| {
                            self.servers[index].handle(now, TM, msg)
                        });
                        for (_, reply) in replies {
                            let reply = self.cross(rec, id, reply);
                            let replies = match reply {
                                Msg::Batch(inner) => inner,
                                one => vec![one],
                            };
                            inbox.extend(replies.into_iter().map(|m| event_of(server, m)));
                        }
                    }
                    TmEffect::QueryMaster => consult_master = true,
                    TmEffect::ForceLog { record, .. } => {
                        self.coordinator_forces += 1;
                        rec.span("decision.force", id, |_| self.decision_log.force(record));
                    }
                    TmEffect::Log(record) => self.decision_log.append(record),
                    TmEffect::ArmTimer(_) | TmEffect::Decided(_) => {}
                    TmEffect::Finished(termination) => return *termination,
                }
            }
            // As in the runtimes' driver: the master answers once the whole
            // effect batch has left, before any reply is read.
            let event = if consult_master {
                self.messages += 1;
                let versions = rec.span("master.lookup", id, |_| self.catalog.latest_snapshot().1);
                TmEvent::MasterVersions { versions }
            } else {
                inbox
                    .pop_front()
                    .expect("an unfinished transaction awaits a reply")
            };
            let now = self.now();
            effects = rec.span("tm.step", id, |_| core.step(now, event));
        }
    }
}

fn event_of(from: ServerId, msg: Msg) -> TmEvent {
    match msg {
        Msg::QueryDone {
            query_index,
            ok,
            proof,
            capability,
            ..
        } => TmEvent::QueryDone {
            query_index,
            ok,
            proof,
            capability,
        },
        Msg::ValidateReply { reply, .. } => TmEvent::ValidateReply { from, reply },
        Msg::CommitReply { reply, .. } => TmEvent::CommitReply { from, reply },
        Msg::Ack { .. } => TmEvent::Ack { from },
        other => panic!("a server sent the coordinator {other:?}"),
    }
}

/// Replays positions `0..txns` of `stream` with spans on or off.
pub fn replay(w: &Workload, stream: &Stream, txns: u64, spans_on: bool) -> Replay {
    let mut inline = build(w);
    let mut rec = Recorder::new(spans_on);
    let mut commits = 0;
    let (mut rounds, mut core_messages, mut core_proofs) = (0, 0, 0);
    let started = Instant::now();
    for g in 0..txns {
        let draw = stream.draw(g);
        if let Some(step) = draw.churn {
            let next = next_policy(&inline.latest_policy);
            inline.catalog.publish(next.clone());
            inline.servers[step.replica as usize].install_policy(POLICY, next.version());
            inline.latest_policy = next;
        }
        let spec = spec_for(TxnId::new(g), &draw);
        let wallet = inline.wallets[draw.user].clone();
        let termination = rec.span("txn", g, |rec| inline.run_txn(rec, g, spec, wallet));
        commits += u64::from(termination.outcome.is_commit());
        rounds += termination.metrics.rounds;
        core_messages += termination.metrics.messages;
        core_proofs += termination.metrics.proofs;
    }
    let wall = started.elapsed();
    let counters: Vec<_> = inline.servers.iter().map(ServerCore::counters).collect();
    Replay {
        wall,
        txns,
        commits,
        spans: rec.into_spans(),
        messages: inline.messages,
        proofs: counters.iter().map(|c| c.proofs).sum(),
        rounds,
        forced_logs: inline.coordinator_forces
            + counters.iter().map(|c| c.forced_logs).sum::<u64>(),
        physical_syncs: counters.iter().map(|c| c.physical_syncs).sum(),
        routed: inline.routed,
        wire_bytes: inline.wire_bytes,
        core_messages,
        core_proofs,
        store_sum: inline
            .servers
            .iter()
            .flat_map(|core| core.store().iter())
            .filter_map(|(_, item)| item.value.as_int())
            .sum(),
    }
}
