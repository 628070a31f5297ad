//! Wire messages of the simulated deployment and the address book.
//!
//! Message-count accounting follows the paper's model (Table I): the TM
//! counts Prepare-to-Validate/-Commit requests and their replies, Update
//! rounds, decisions and acknowledgments, plus one message per master
//! version retrieval. Query execution traffic (`ExecQuery`/`QueryDone`),
//! policy gossip and OCSP checks are infrastructure, not protocol cost —
//! exactly as the paper excludes them.

use crate::validation::{ValidationReply, VersionMap};
pub use safetx_policy::Credential;
use safetx_sim::NodeId;
use safetx_txn::{Decision, InquiryAnswer, QuerySpec};
use safetx_types::{PolicyId, PolicyVersion, ServerId, TxnId, UserId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything exchanged between the client harness, TMs, cloud servers and
/// the master version server.
///
/// `Clone` exists for the fault-injection layer (duplicate delivery); the
/// hot paths move messages and never clone them.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client → TM: start a transaction.
    Begin {
        /// The transaction to run.
        spec: safetx_txn::TransactionSpec,
        /// The credentials the user presents for its proofs.
        credentials: Vec<Credential>,
    },

    /// TM → server: execute one query (data operations; proof evaluation
    /// per scheme).
    ///
    /// The query and credential payloads are `Arc`-shared: the TM builds
    /// them once per transaction, and every per-query × per-server message
    /// bumps a refcount instead of deep-cloning (under Continuous the TM
    /// would otherwise re-clone the credentials `u(u+1)/2` times per
    /// transaction).
    ExecQuery {
        /// Transaction id.
        txn: TxnId,
        /// Index of the query within the transaction.
        query_index: usize,
        /// The query.
        query: Arc<QuerySpec>,
        /// The requesting user.
        user: UserId,
        /// Credentials for the proof (cached at the server for later
        /// rounds).
        credentials: Arc<[Credential]>,
        /// Evaluate the proof of authorization now (Punctual, Incremental,
        /// and — for the ops-only pass — false under Continuous/Deferred).
        evaluate_proof: bool,
        /// Versions the replica must fast-forward to before evaluating
        /// (Incremental Punctual's "consistent view with the first
        /// server").
        pin_versions: VersionMap,
        /// Capabilities previously issued within this transaction (the
        /// "read credential" of the paper's Figure 1). Only the unsafe
        /// baseline servers honor them in lieu of a fresh proof.
        capabilities: Vec<safetx_policy::AccessCapability>,
    },
    /// Server → TM: the query finished (or failed locally).
    QueryDone {
        /// Transaction id.
        txn: TxnId,
        /// Index of the finished query.
        query_index: usize,
        /// False on lock conflict or execution failure.
        ok: bool,
        /// The proof evaluated at query time, when requested.
        proof: Option<safetx_policy::ProofOfAuthorization>,
        /// A capability issued on a granted proof (baseline deployments).
        capability: Option<safetx_policy::AccessCapability>,
    },

    /// TM → server: 2PV collection request (Continuous, during execution).
    ///
    /// Payloads are `Arc`-shared like [`Msg::ExecQuery`]'s.
    PrepareToValidate {
        /// Transaction id.
        txn: TxnId,
        /// The query this round submits, when this is its server: execute
        /// it, then evaluate its proof with the rest of the round's.
        new_query: Option<(usize, Arc<QuerySpec>)>,
        /// The requesting user (needed when `new_query` introduces the
        /// transaction to this server).
        user: UserId,
        /// Credentials (same caveat).
        credentials: Arc<[Credential]>,
    },
    /// Server → TM: 2PV reply.
    ValidateReply {
        /// Transaction id.
        txn: TxnId,
        /// Truth value, versions and fresh proofs of this round.
        reply: ValidationReply,
    },

    /// TM → server: 2PVC voting-phase request.
    PrepareToCommit {
        /// Transaction id.
        txn: TxnId,
        /// Evaluate proofs (2PVC) or integrity only ("2PVC without
        /// validations" = plain 2PC).
        validate: bool,
        /// The indexes of the transaction's queries this server executed —
        /// the TM's manifest. A participant that does not hold exactly
        /// these queries (e.g. it lost volatile state in a crash after
        /// executing them) must vote NO.
        expected_queries: Vec<usize>,
    },
    /// Server → TM: 2PVC vote (YES/NO, TRUE/FALSE, versions).
    CommitReply {
        /// Transaction id.
        txn: TxnId,
        /// The three-part reply.
        reply: ValidationReply,
    },
    /// TM → server: update to the target policy versions and re-evaluate.
    Update {
        /// Transaction id.
        txn: TxnId,
        /// Policy → version the participant must reach.
        targets: VersionMap,
        /// Whether the re-reply is a [`Msg::CommitReply`] (2PVC) or a
        /// [`Msg::ValidateReply`] (standalone 2PV).
        in_commit: bool,
    },
    /// TM → server: the global decision.
    Decision {
        /// Transaction id.
        txn: TxnId,
        /// COMMIT or ABORT.
        decision: Decision,
    },
    /// Server → TM: decision acknowledged.
    Ack {
        /// Transaction id.
        txn: TxnId,
    },

    /// TM → master: what are the latest versions of all policies?
    VersionRequest {
        /// Transaction on whose behalf the TM asks.
        txn: TxnId,
    },
    /// Master → TM: the latest versions.
    VersionReply {
        /// Transaction id echoed back.
        txn: TxnId,
        /// Latest version per policy.
        versions: VersionMap,
    },

    /// Master → server: eventual-consistency propagation of one policy
    /// update notification (the policy body travels via the catalog).
    PolicyGossip {
        /// The updated policy.
        policy_id: PolicyId,
        /// Its new version.
        version: PolicyVersion,
    },
    /// Harness/administrator → master: a new policy version was published
    /// to the catalog; gossip it to the replicas.
    AdminPublish {
        /// The updated policy.
        policy_id: PolicyId,
        /// The published version.
        version: PolicyVersion,
    },
    /// Administrator → master: publish this policy *now* (simulated time):
    /// the master installs it in the catalog on receipt and gossips the
    /// update notification. Used for scheduled mid-run policy updates.
    AdminPublishPolicy {
        /// The full policy body.
        policy: safetx_policy::Policy,
    },

    /// A coalesced envelope: several protocol messages for the same
    /// destination delivered in one send (a server round's replies to one
    /// coordinator, [`coalesce_replies`]). Semantically
    /// identical to sending the inner messages in order; receivers flatten
    /// it before normal processing. Never nested.
    Batch(Vec<Msg>),

    /// Recovering participant → TM: what happened to this transaction?
    Inquiry {
        /// The in-doubt transaction.
        txn: TxnId,
        /// The inquiring server.
        from_server: ServerId,
    },
    /// TM → recovering participant: the decision (or presumption).
    InquiryReply {
        /// The transaction.
        txn: TxnId,
        /// The answer.
        answer: InquiryAnswer,
    },
}

/// Protocol message kinds: the protocol moments fault rules and crash
/// points are pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// TM → server query execution request.
    ExecQuery,
    /// Server → TM query completion.
    QueryDone,
    /// TM → server 2PV collection request.
    PrepareToValidate,
    /// Server → TM 2PV reply.
    ValidateReply,
    /// TM → server 2PVC voting request.
    PrepareToCommit,
    /// Server → TM 2PVC vote.
    CommitReply,
    /// TM → server policy-version update round.
    Update,
    /// TM → server global decision.
    Decision,
    /// Server → TM decision acknowledgment.
    Ack,
    /// Anything else (policy gossip, inquiries, …).
    Other,
}

impl MsgKind {
    /// Classifies a wire message.
    #[must_use]
    pub fn of(msg: &Msg) -> MsgKind {
        match msg {
            Msg::ExecQuery { .. } => MsgKind::ExecQuery,
            Msg::QueryDone { .. } => MsgKind::QueryDone,
            Msg::PrepareToValidate { .. } => MsgKind::PrepareToValidate,
            Msg::ValidateReply { .. } => MsgKind::ValidateReply,
            Msg::PrepareToCommit { .. } => MsgKind::PrepareToCommit,
            Msg::CommitReply { .. } => MsgKind::CommitReply,
            Msg::Update { .. } => MsgKind::Update,
            Msg::Decision { .. } => MsgKind::Decision,
            Msg::Ack { .. } => MsgKind::Ack,
            _ => MsgKind::Other,
        }
    }

    /// Stable per-kind salt folded into every seeded fault roll, so
    /// identical edges hash identically across runtimes.
    #[must_use]
    pub fn salt(self) -> u64 {
        match self {
            MsgKind::ExecQuery => 1,
            MsgKind::QueryDone => 2,
            MsgKind::PrepareToValidate => 3,
            MsgKind::ValidateReply => 4,
            MsgKind::PrepareToCommit => 5,
            MsgKind::CommitReply => 6,
            MsgKind::Update => 7,
            MsgKind::Decision => 8,
            MsgKind::Ack => 9,
            MsgKind::Other => 10,
        }
    }
}

/// Groups a round's outputs by destination, coalescing multiple messages
/// to the same destination into one [`Msg::Batch`] envelope — one send
/// (and one fabric or socket crossing) per destination per round.
/// Destinations keep first-appearance order; inside an envelope, messages
/// keep their round order. A destination owed a single message gets it
/// bare, never wrapped.
///
/// # The coalescing-key invariant
///
/// `key` must map each live destination to a value that is **unique within
/// the sending process** and **stable for the destination's logical
/// lifetime**. Both runtimes uphold this differently:
///
/// * the threaded runtime keys by `Addr::id`, a process-unique counter
///   minted per reply *channel* — correct there because a channel is never
///   reused across logical peers;
/// * the net runtime keys by the peer's logical id, **not** per-connection
///   state — a reconnected peer keeps its id, so replies computed across a
///   reconnect still coalesce to (and only to) that peer. Keying by a
///   per-connection token would silently split or misroute a round's
///   envelope when a connection is replaced mid-round.
///
/// Key collisions between two live destinations would merge their replies
/// into one envelope and deliver both to whichever address appeared first
/// — which is why "unique among live destinations" is a hard requirement,
/// not an optimization hint.
#[must_use]
pub fn coalesce_replies<A: Clone>(
    outputs: Vec<(A, Msg)>,
    key: impl Fn(&A) -> u64,
) -> Vec<(A, Msg)> {
    // At most one output: nothing to group (the common round).
    if outputs.len() <= 1 {
        return outputs;
    }
    let mut order: Vec<A> = Vec::new();
    let mut groups: std::collections::HashMap<u64, Vec<Msg>> = std::collections::HashMap::new();
    for (to, msg) in outputs {
        match groups.entry(key(&to)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut().push(msg),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(vec![msg]);
                order.push(to);
            }
        }
    }
    order
        .into_iter()
        .map(|to| {
            let mut msgs = groups.remove(&key(&to)).expect("grouped above");
            let msg = if msgs.len() == 1 {
                msgs.pop().expect("one message")
            } else {
                Msg::Batch(msgs)
            };
            (to, msg)
        })
        .collect()
}

/// Where everyone lives in the simulation world.
///
/// The harness adds nodes in a fixed order (master, TMs, then servers), so
/// the book can be computed before the actors are constructed.
#[derive(Debug, Clone, Default)]
pub struct AddressBook {
    /// The master version server.
    pub master: NodeId,
    /// Transaction managers (at least one).
    pub tms: Vec<NodeId>,
    /// Cloud servers by id.
    pub servers: BTreeMap<ServerId, NodeId>,
}

impl AddressBook {
    /// Lays out a deployment: node 0 = master, nodes 1..=tms = TMs, then
    /// `servers` cloud servers whose `ServerId` equals their ordinal.
    #[must_use]
    pub fn layout(tms: usize, servers: usize) -> Self {
        let master = NodeId::new(0);
        let tm_nodes = (0..tms as u64).map(|i| NodeId::new(1 + i)).collect();
        let server_nodes = (0..servers as u64)
            .map(|i| (ServerId::new(i), NodeId::new(1 + tms as u64 + i)))
            .collect();
        AddressBook {
            master,
            tms: tm_nodes,
            servers: server_nodes,
        }
    }

    /// The node hosting a server.
    ///
    /// # Panics
    ///
    /// Panics on an unknown server id (deployment configuration bug).
    #[must_use]
    pub fn server_node(&self, id: ServerId) -> NodeId {
        *self
            .servers
            .get(&id)
            .unwrap_or_else(|| panic!("unknown server {id}"))
    }

    /// The reverse lookup: which server lives at `node`?
    #[must_use]
    pub fn server_at(&self, node: NodeId) -> Option<ServerId> {
        self.servers
            .iter()
            .find_map(|(&s, &n)| (n == node).then_some(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_deterministic() {
        let book = AddressBook::layout(2, 3);
        assert_eq!(book.master, NodeId::new(0));
        assert_eq!(book.tms, vec![NodeId::new(1), NodeId::new(2)]);
        assert_eq!(book.server_node(ServerId::new(0)), NodeId::new(3));
        assert_eq!(book.server_node(ServerId::new(2)), NodeId::new(5));
        assert_eq!(book.server_at(NodeId::new(4)), Some(ServerId::new(1)));
        assert_eq!(book.server_at(NodeId::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "unknown server")]
    fn unknown_server_panics() {
        let _ = AddressBook::layout(1, 1).server_node(ServerId::new(9));
    }

    fn ack(txn: u64) -> Msg {
        Msg::Ack {
            txn: TxnId::new(txn),
        }
    }

    #[test]
    fn coalesce_groups_by_key_keeping_first_appearance_order() {
        let outputs = vec![(7u64, ack(0)), (3, ack(1)), (7, ack(2))];
        let sent = coalesce_replies(outputs, |k| *k);
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0].0, 7);
        match &sent[0].1 {
            Msg::Batch(inner) => assert_eq!(inner.len(), 2),
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(sent[1].0, 3);
        assert!(matches!(sent[1].1, Msg::Ack { .. }), "single stays bare");
    }

    #[test]
    fn coalesce_keeps_round_order_inside_an_envelope() {
        let outputs = vec![(1u64, ack(10)), (1, ack(11)), (1, ack(12))];
        let sent = coalesce_replies(outputs, |k| *k);
        let Msg::Batch(inner) = &sent[0].1 else {
            panic!("expected batch");
        };
        let txns: Vec<u64> = inner
            .iter()
            .map(|m| match m {
                Msg::Ack { txn } => txn.index(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(txns, vec![10, 11, 12]);
    }
}
