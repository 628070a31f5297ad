//! Counters, histograms and ASCII table rendering for safetx experiments.
//!
//! The paper's evaluation (Section VI) measures protocols in **messages**,
//! **proof evaluations**, **voting rounds** and **forced log writes**;
//! [`ProtocolMetrics`] aggregates exactly those. [`Histogram`] summarizes
//! latency samples for the trade-off study, and [`AsciiTable`] renders the
//! reproduction tables printed by the bench binaries. [`Json`] is a small
//! in-tree JSON tree + parser (the vendored `serde` facade is derive-only)
//! so the benchmark and `loadgen` can emit and validate machine-readable
//! reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod histogram;
mod json;
mod table;

pub use counters::{
    FaultCounters, ProofCacheStats, ProtocolMetrics, RouteCounters, TransportCounters, WalStats,
};
pub use histogram::Histogram;
pub use json::{Json, ParseError};
pub use table::AsciiTable;
