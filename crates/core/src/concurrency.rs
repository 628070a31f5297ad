//! The concurrency-mode seam: pessimistic locking vs optimistic
//! validation.
//!
//! Every runtime plumbs one [`ConcurrencyMode`] down to its
//! [`ServerCore`]s. Under [`ConcurrencyMode::Locking`] (the default, and
//! byte-identical to the pre-seam behavior) queries take strict no-wait
//! 2PL locks at execution and hold them to the decision. Under
//! [`ConcurrencyMode::Occ`] queries read a begin-time snapshot without
//! locking, stamp their read set, and validate at the 2PVC vote — a stale
//! stamp or pin conflict becomes the transient
//! [`AbortReason::ValidationConflict`].
//!
//! [`ServerCore`]: crate::ServerCore
//! [`AbortReason::ValidationConflict`]: crate::AbortReason::ValidationConflict

use std::fmt;

/// How a server orders concurrent transactions over its data items.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ConcurrencyMode {
    /// Strict no-wait two-phase locking: shared/exclusive locks at query
    /// execution, held through the decision. Conflicts surface early as
    /// `QueryDone { ok: false }` → `AbortReason::LockConflict`.
    #[default]
    Locking,
    /// Optimistic execution: snapshot reads at execution (no locks, so
    /// non-conflicting transactions never block each other), read/write
    /// sets validated on the 2PVC vote with short commit-scope pins.
    /// Conflicts surface late as `AbortReason::ValidationConflict`.
    Occ,
}

impl ConcurrencyMode {
    /// The environment knob: `SAFETX_CONCURRENCY_MODE=occ` (or `locking`,
    /// the default when unset or unrecognized). Lets CI drive the whole
    /// differential/chaos battery through either mode without threading a
    /// flag through every harness.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_var(std::env::var("SAFETX_CONCURRENCY_MODE").ok().as_deref())
    }

    /// [`ConcurrencyMode::from_env`] over the variable's value.
    fn from_var(value: Option<&str>) -> Self {
        value.and_then(Self::parse).unwrap_or_default()
    }

    /// Parses a CLI flag value; `None` on unknown text.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        if text.eq_ignore_ascii_case("occ") {
            Some(ConcurrencyMode::Occ)
        } else if text.eq_ignore_ascii_case("locking") {
            Some(ConcurrencyMode::Locking)
        } else {
            None
        }
    }
}

impl fmt::Display for ConcurrencyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcurrencyMode::Locking => write!(f, "locking"),
            ConcurrencyMode::Occ => write!(f, "occ"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        for mode in [ConcurrencyMode::Locking, ConcurrencyMode::Occ] {
            assert_eq!(ConcurrencyMode::parse(&mode.to_string()), Some(mode));
        }
        assert_eq!(ConcurrencyMode::parse("OCC"), Some(ConcurrencyMode::Occ));
        assert_eq!(ConcurrencyMode::parse("2pl"), None);
        assert_eq!(ConcurrencyMode::default(), ConcurrencyMode::Locking);
    }

    /// The variable, then `Locking`: an unset or unparsable value is the
    /// default. (An explicit `ClusterConfig::concurrency` comes before
    /// both; the runtime crate pins that.)
    #[test]
    fn the_variable_then_locking() {
        use ConcurrencyMode::{Locking, Occ};
        assert_eq!(ConcurrencyMode::from_var(Some("occ")), Occ);
        assert_eq!(ConcurrencyMode::from_var(Some("Locking")), Locking);
        assert_eq!(ConcurrencyMode::from_var(None), Locking);
        assert_eq!(ConcurrencyMode::from_var(Some("many")), Locking);
    }
}
