//! Error types.

use core::fmt;

use sops_lattice::Node;

/// Errors constructing or validating a particle-system configuration.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Two particles were placed on the same lattice node.
    DuplicateNode(Node),
    /// A configuration must contain at least one particle.
    Empty,
    /// The configuration is not connected (required by the chain: a
    /// disconnected particle cannot communicate with the rest of the system).
    Disconnected,
    /// A bias parameter was not strictly positive.
    InvalidBias {
        /// The parameter name (`"lambda"` or `"gamma"`).
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A requested color count exceeded the total particle count.
    BadColorCounts {
        /// Total particles requested.
        n: usize,
        /// Sum of the per-color counts.
        sum: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DuplicateNode(n) => {
                write!(f, "two particles occupy the same node {n}")
            }
            ConfigError::Empty => write!(f, "configuration has no particles"),
            ConfigError::Disconnected => write!(f, "configuration is not connected"),
            ConfigError::InvalidBias { name, value } => {
                write!(
                    f,
                    "bias parameter {name} must be strictly positive, got {value}"
                )
            }
            ConfigError::BadColorCounts { n, sum } => {
                write!(
                    f,
                    "color counts sum to {sum} but {n} particles were requested"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A chain transition was queried against a state that cannot support it —
/// e.g. an acceptance ratio for a move whose source node holds no particle.
///
/// These conditions indicate a logic error in the *caller* (or corrupted
/// state), but they are surfaced as typed errors rather than panics so
/// long-running experiment drivers can degrade gracefully: skip the
/// transition, audit the state, and continue or abort deliberately.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum ChainStateError {
    /// A transition's source node holds no particle.
    UnoccupiedSource(Node),
    /// A swap's partner node holds no particle.
    UnoccupiedTarget(Node),
    /// Applying a transition's local delta to an incrementally-maintained
    /// counter would underflow or overflow — the tracked value cannot be
    /// right, since a consistent configuration always has room for any
    /// legal local change. Earlier code silently wrapped here, converting
    /// counter corruption into plausible-looking values the auditor could
    /// only catch much later.
    CounterCorruption {
        /// Which counter (`"edges"` or `"hetero"`).
        counter: &'static str,
        /// The corrupted tracked value the delta was applied to.
        tracked: u64,
        /// The local delta the transition computed.
        delta: i64,
    },
}

impl fmt::Display for ChainStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainStateError::UnoccupiedSource(n) => {
                write!(f, "transition source {n} holds no particle")
            }
            ChainStateError::UnoccupiedTarget(n) => {
                write!(f, "swap target {n} holds no particle")
            }
            ChainStateError::CounterCorruption {
                counter,
                tracked,
                delta,
            } => write!(
                f,
                "{counter} counter corrupt: tracked value {tracked} cannot absorb delta {delta}"
            ),
        }
    }
}

impl std::error::Error for ChainStateError {}

/// One invariant violation found by [`crate::Configuration::audit`].
///
/// Each variant carries both the incrementally-tracked value and the value
/// recomputed from scratch, so a report pinpoints *which* bookkeeping
/// drifted, not merely that something did.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// The incrementally-maintained edge count `e(σ)` disagrees with a
    /// from-scratch recount.
    EdgeCountDrift {
        /// The incrementally-tracked value.
        tracked: u64,
        /// The value recomputed from scratch.
        recomputed: u64,
    },
    /// The incrementally-maintained heterogeneous-edge count `h(σ)`
    /// disagrees with a from-scratch recount.
    HeteroCountDrift {
        /// The incrementally-tracked value.
        tracked: u64,
        /// The value recomputed from scratch.
        recomputed: u64,
    },
    /// The node index (the raster's two planes, or the map) and the
    /// particle position/color tables disagree.
    OccupancyDesync {
        /// The node where the disagreement was found.
        node: Node,
        /// What disagreed (index mapping, color, or a missing entry).
        detail: String,
    },
    /// The configuration is disconnected. The chain preserves connectivity
    /// (Lemma 5), so a disconnected state mid-run means a corrupted
    /// transition.
    Disconnected,
    /// The perimeter identity `p(σ) = 3n − e(σ) − 3` disagrees with the
    /// independently computed boundary walk. Only checked for connected
    /// hole-free configurations, where the identity is exact.
    PerimeterMismatch {
        /// `3n − e(σ) − 3` from the tracked edge count.
        identity: u64,
        /// The boundary-walk length computed by contour traversal.
        walk: u64,
    },
    /// The *tracked* edge count is so large that the perimeter identity
    /// `p(σ) = 3n − e(σ) − 3` underflows — impossible for any real
    /// configuration (`e ≤ 3n − 3` always), so the counter is corrupt.
    /// Reported separately from [`AuditViolation::EdgeCountDrift`] because
    /// `Configuration::perimeter()` clamps this case to 0 and would
    /// otherwise mask it.
    PerimeterUnderflow {
        /// Number of particles `n`.
        particles: usize,
        /// The corrupt tracked edge count.
        tracked_edges: u64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::EdgeCountDrift {
                tracked,
                recomputed,
            } => write!(
                f,
                "edge count drift: tracked {tracked}, recomputed {recomputed}"
            ),
            AuditViolation::HeteroCountDrift {
                tracked,
                recomputed,
            } => write!(
                f,
                "heterogeneous edge count drift: tracked {tracked}, recomputed {recomputed}"
            ),
            AuditViolation::OccupancyDesync { node, detail } => {
                write!(f, "occupancy desync at {node}: {detail}")
            }
            AuditViolation::Disconnected => write!(f, "configuration is disconnected"),
            AuditViolation::PerimeterMismatch { identity, walk } => write!(
                f,
                "perimeter identity gives {identity} but boundary walk measures {walk}"
            ),
            AuditViolation::PerimeterUnderflow {
                particles,
                tracked_edges,
            } => write!(
                f,
                "perimeter identity underflows: tracked edge count {tracked_edges} exceeds \
                 the 3n − 3 = {} maximum for n = {particles}",
                (3 * particles).saturating_sub(3)
            ),
        }
    }
}

/// The result of a from-scratch invariant audit of a configuration
/// (see [`crate::Configuration::audit`]).
///
/// Captures the recomputed observables alongside any violations, so a
/// clean report doubles as an independently-derived summary of the state.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditReport {
    /// Number of particles `n`.
    pub particles: usize,
    /// Edge count `e(σ)` recomputed from scratch.
    pub edges: u64,
    /// Heterogeneous edge count `h(σ)` recomputed from scratch.
    pub hetero_edges: u64,
    /// Whether the configuration is connected.
    pub connected: bool,
    /// Number of holes.
    pub holes: usize,
    /// Every violation found; empty means the state is consistent.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether the audit found no violations.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations rendered as human-readable strings (the format the
    /// checkpoint layer's audit hook consumes).
    #[must_use]
    pub(crate) fn violation_messages(&self) -> Vec<String> {
        self.violations.iter().map(ToString::to_string).collect()
    }
}

/// The result of [`crate::Configuration::repair`]: what an in-place
/// repair pass fixed and what it could not.
///
/// Repairable violations are exactly the counter-cache class —
/// [`AuditViolation::EdgeCountDrift`], [`AuditViolation::HeteroCountDrift`],
/// and [`AuditViolation::PerimeterUnderflow`] — since those caches are
/// fully derivable from the particle table. Structural violations
/// (occupancy desync, disconnection, perimeter/walk mismatch) mean the
/// primary representation itself is damaged; no in-place fix is sound, and
/// the caller must escalate to a rollback.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairOutcome {
    /// Human-readable descriptions of the repairs performed.
    pub repaired: Vec<String>,
    /// Violations that cannot be repaired in place.
    pub unrepaired: Vec<AuditViolation>,
}

impl RepairOutcome {
    /// Whether every reported violation was repaired.
    #[must_use]
    pub fn fully_repaired(&self) -> bool {
        self.unrepaired.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: n={}, e={}, h={}, connected={}, holes={}",
            self.particles, self.edges, self.hetero_edges, self.connected, self.holes
        )?;
        if self.violations.is_empty() {
            write!(f, ", consistent")
        } else {
            write!(f, ", {} violation(s): ", self.violations.len())?;
            for (i, v) in self.violations.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{v}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = ConfigError::DuplicateNode(Node::new(1, 2));
        assert!(e.to_string().contains("(1, 2)"));
        assert!(ConfigError::Empty.to_string().contains("no particles"));
        let e = ConfigError::InvalidBias {
            name: "gamma",
            value: -1.0,
        };
        assert!(e.to_string().contains("gamma"));
        let e = ConfigError::BadColorCounts { n: 5, sum: 7 };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::Disconnected);
        assert!(e.to_string().contains("not connected"));
    }
}
