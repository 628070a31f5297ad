//! Trusted and safe cloud transactions: the paper's contribution.
//!
//! This crate implements Sections III–VI of *Enforcing Policy and Data
//! Consistency of Cloud Transactions* (ICDCS 2011) on top of the workspace
//! substrates:
//!
//! * **Consistency levels** (Definitions 2–3): [`ConsistencyLevel::View`]
//!   (φ — all participants used the same version of each policy) and
//!   [`ConsistencyLevel::Global`] (ψ — they used the latest version known
//!   to the master).
//! * **Transaction views** (Definitions 1 and 7): [`TransactionView`] and
//!   its instances collect the proofs of authorization observed during
//!   `[α(T), ω(T)]`.
//! * **Trusted/safe predicates** (Definitions 4–9): post-hoc checkers in
//!   [`trusted`] that audit a finished execution against the formal
//!   definitions.
//! * **The four schemes** (Section IV): [`ProofScheme::Deferred`],
//!   [`ProofScheme::Punctual`], [`ProofScheme::IncrementalPunctual`] and
//!   [`ProofScheme::Continuous`].
//! * **2PV and 2PVC** (Section V, Algorithms 1–2): [`ValidationRound`] is
//!   the collection/validation engine; [`TwoPvc`] fuses it with the 2PC
//!   voting/decision phases and forced logging.
//! * **Complexity model** (Table I): [`complexity`] holds the paper's
//!   worst-case message/proof formulas, which the bench binaries compare
//!   against measured counts.
//! * **The sans-io TM core**: [`TmCore`] is the complete coordinator
//!   lifecycle — scheme pipelines, version pinning, 2PV, 2PVC, timeouts —
//!   as a pure `step(Event) -> Vec<Effect>` state machine shared by every
//!   runtime.
//! * **The drivers of both cores**: one TM driver performs every effect
//!   of [`TmCore`], for [`TmActor`] and for [`drive_tm`], the blocking loop
//!   over a [`TmIo`] transport; [`ServerCore::run_round`] is the server
//!   round (protocol plane inline under one WAL group, proof evaluation
//!   handed back as a [`DeferredEval`]). Runtimes are transports around them.
//! * **Simulation actors**: [`TmActor`], [`CloudServerActor`] and
//!   [`MasterActor`] run the protocols on the
//!   [`safetx_sim`] discrete-event world; [`Experiment`] wires complete
//!   deployments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
pub mod complexity;
mod concurrency;
mod consistency;
mod data_plane;
mod harness;
mod master;
mod messages;
mod outcome;
mod round;
mod scheme;
mod server;
mod sim_actor;
mod tm;
pub mod tm_core;
mod tm_loop;
pub mod trusted;
mod two_pvc;
mod validation;
mod view;

pub use catalog::{ResourcePolicyMap, SharedCatalog};
pub use concurrency::ConcurrencyMode;
pub use consistency::{
    consistent_at, phi_consistent, phi_consistent_by_admin, psi_consistent, ConsistencyLevel,
    VersionAuthority,
};
pub use data_plane::{BatchEval, DataPlane, EvalSnapshot, SharedCas};
pub use harness::{Experiment, ExperimentConfig, ExperimentReport};
pub use master::MasterActor;
pub use messages::coalesce_replies;
pub use messages::AddressBook;
pub use messages::{Msg, MsgKind};
pub use outcome::{AbortReason, TxnOutcome};
pub use round::{DeferredEval, Round};
pub use scheme::ProofScheme;
pub use server::{ServerCore, ServerCounters};
pub use sim_actor::CloudServerActor;
pub use tm::{TmActor, TxnRecord};
pub use tm_core::{reply_counts_as_dropped, TmConfig, TmCore, TmEffect, TmEvent, TxnTermination};
pub use tm_loop::{drive_tm, terminate_leftover, TmCrashPoint, TmIo, TmRun};
pub use two_pvc::{TwoPvc, TwoPvcAction, TwoPvcState};
pub use validation::{
    ValidationAction, ValidationConfig, ValidationOutcome, ValidationReply, ValidationRound,
    VersionMap,
};
pub use view::TransactionView;
