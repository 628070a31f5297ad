//! The four proof-of-authorization enforcement schemes (Section IV).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// When and how proofs of authorization are evaluated during a transaction.
///
/// Ordered from most permissive to least permissive, as the paper presents
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProofScheme {
    /// Definition 5: evaluate all proofs only at commit time `ω(T)`
    /// (optimistic; cheapest, but risks late rollback).
    Deferred,
    /// Definition 6: evaluate each proof when its query executes *and*
    /// re-evaluate everything at commit time.
    Punctual,
    /// Definition 8: like Punctual, but every view instance must already be
    /// consistent — version divergence mid-transaction aborts immediately,
    /// and commit needs no re-validation.
    IncrementalPunctual,
    /// Definition 9: run 2PV at every query, re-evaluating all previous
    /// proofs; strongest guarantees, quadratic messages.
    Continuous,
}

impl ProofScheme {
    /// All schemes, in the paper's presentation order.
    pub const ALL: [ProofScheme; 4] = [
        ProofScheme::Deferred,
        ProofScheme::Punctual,
        ProofScheme::IncrementalPunctual,
        ProofScheme::Continuous,
    ];

    /// Does a server evaluate the proof when it executes a query?
    /// (Everything except Deferred.)
    #[must_use]
    pub fn evaluates_at_query(self) -> bool {
        self != ProofScheme::Deferred
    }

    /// Does commit run 2PVC *with* policy validation?
    ///
    /// Incremental Punctual maintained consistency throughout, and
    /// Continuous under view consistency did the equivalent work at the
    /// last query, so both commit with plain 2PC ("2PVC without
    /// validations"). Continuous under global consistency still validates
    /// at commit (Table I adds `ur` proofs for it).
    #[must_use]
    pub fn validates_at_commit(self, level: crate::ConsistencyLevel) -> bool {
        match self {
            ProofScheme::Deferred | ProofScheme::Punctual => true,
            ProofScheme::IncrementalPunctual => false,
            ProofScheme::Continuous => level == crate::ConsistencyLevel::Global,
        }
    }

    /// Does the TM submit each query as a 2PV round over its server and
    /// all prior ones? (Continuous only.)
    #[must_use]
    pub fn validates_before_each_query(self) -> bool {
        self == ProofScheme::Continuous
    }

    /// Does the TM enforce version agreement incrementally as query replies
    /// arrive? (Incremental Punctual only.)
    #[must_use]
    pub fn checks_versions_incrementally(self) -> bool {
        self == ProofScheme::IncrementalPunctual
    }
}

impl fmt::Display for ProofScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProofScheme::Deferred => "Deferred",
            ProofScheme::Punctual => "Punctual",
            ProofScheme::IncrementalPunctual => "Incremental Punctual",
            ProofScheme::Continuous => "Continuous",
        };
        write!(f, "{name}")
    }
}

impl FromStr for ProofScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace(['-', '_', ' '], "").as_str() {
            "deferred" => Ok(ProofScheme::Deferred),
            "punctual" => Ok(ProofScheme::Punctual),
            "incremental" | "incrementalpunctual" => Ok(ProofScheme::IncrementalPunctual),
            "continuous" => Ok(ProofScheme::Continuous),
            other => Err(format!(
                "unknown scheme `{other}`; expected deferred, punctual, incremental or continuous"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConsistencyLevel;

    #[test]
    fn query_time_evaluation_matches_definitions() {
        assert!(!ProofScheme::Deferred.evaluates_at_query());
        assert!(ProofScheme::Punctual.evaluates_at_query());
        assert!(ProofScheme::IncrementalPunctual.evaluates_at_query());
        assert!(ProofScheme::Continuous.evaluates_at_query());
    }

    #[test]
    fn commit_validation_matches_section_v_c() {
        for level in [ConsistencyLevel::View, ConsistencyLevel::Global] {
            assert!(ProofScheme::Deferred.validates_at_commit(level));
            assert!(ProofScheme::Punctual.validates_at_commit(level));
            assert!(!ProofScheme::IncrementalPunctual.validates_at_commit(level));
        }
        assert!(!ProofScheme::Continuous.validates_at_commit(ConsistencyLevel::View));
        assert!(ProofScheme::Continuous.validates_at_commit(ConsistencyLevel::Global));
    }

    #[test]
    fn parsing_accepts_paper_spellings() {
        assert_eq!(
            "deferred".parse::<ProofScheme>().unwrap(),
            ProofScheme::Deferred
        );
        assert_eq!(
            "Incremental Punctual".parse::<ProofScheme>().unwrap(),
            ProofScheme::IncrementalPunctual
        );
        assert_eq!(
            "incremental-punctual".parse::<ProofScheme>().unwrap(),
            ProofScheme::IncrementalPunctual
        );
        assert!("2pc".parse::<ProofScheme>().is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for scheme in ProofScheme::ALL {
            assert_eq!(scheme.to_string().parse::<ProofScheme>().unwrap(), scheme);
        }
    }
}
