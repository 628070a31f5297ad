//! Workload generation for the evaluation (Section VI-B).
//!
//! The paper's trade-off discussion varies two knobs: **transaction
//! length** and **time between policy updates**. This crate generates
//! reproducible workloads over those knobs — transactions with configurable
//! query counts and read/write mixes, Zipf-distributed item selection,
//! Poisson arrivals, and Poisson policy-update / credential-revocation
//! background processes — and runs them on a
//! [`safetx_core::Experiment`], collecting latency histograms and abort
//! statistics per scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod gen;
mod scenario;

pub use dist::{PoissonArrivals, QueryCount, Zipf};
pub use gen::{TxnGenerator, WorkloadConfig};
pub use scenario::{run_scenario, PolicyChurn, ScenarioConfig, ScenarioResult};
