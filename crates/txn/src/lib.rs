//! Classic Two-Phase Commit (2PC) as sans-io state machines, with
//! Presumed-Abort / Presumed-Commit variants and crash recovery.
//!
//! The paper's Section V-B builds Two-Phase Validation Commit on top of the
//! basic atomic 2PC of Figure 7: a voting phase (participants force a
//! *prepared* record and vote YES/NO) and a decision phase (the coordinator
//! forces the decision, participants force it too and acknowledge). This
//! crate implements that substrate exactly:
//!
//! * [`Participant`] is a pure state machine — every transition consumes
//!   one event and returns the actions to perform (send, force-log, apply
//!   the decision). The coordinator side is `safetx_core::TwoPvc`: 2PVC
//!   with validation switched off *is* 2PC, so it is written once, there,
//!   over this crate's [`CoordinatorRecord`]s and [`CommitVariant`] rules.
//! * [`CommitVariant`] selects Standard, Presumed-Abort (PrA) or
//!   Presumed-Commit (PrC) logging/acknowledgment rules, "any log-based
//!   optimizations of 2PC also apply to 2PVC".
//! * [`recover_participant`] rebuilds a participant from a
//!   [`Wal`](safetx_store::Wal) after a crash; in-doubt participants
//!   inquire and [`CoordinatorLog::answer`] answers from the coordinator's
//!   log, by record or by presumption. The log keeps an unfinished
//!   transaction's facts live and folds a finished one into a byte.
//!
//! Transactions themselves ([`TransactionSpec`]) are a sequence of queries,
//! each a set of read/write operations bound to one server, matching the
//! paper's model `T = q1, …, qn` with sequential query execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod log;
mod messages;
mod participant;
mod recovery;
mod transaction;

pub use log::{CoordinatorLog, CoordinatorRecord, ParticipantRecord};
pub use messages::{CommitVariant, Decision, InquiryAnswer, Vote};
pub use participant::{Participant, ParticipantOutput, ParticipantState};
pub use recovery::{recover_participant, RecoveredParticipant};
pub use transaction::{Operation, QuerySpec, TransactionSpec};
