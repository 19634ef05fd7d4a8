//! Typed per-step outcomes of chain `M` (Algorithm 1).
//!
//! The paper analyzes the chain through *why* proposals succeed or fail —
//! the `|N(ℓ)| = 5` guard, Properties 4/5, and the Metropolis filter each
//! reject for different structural reasons — so the sampler reports a
//! [`StepOutcome`] per step instead of a bare accept bit. The boolean
//! [`SeparationChain::step`](crate::SeparationChain::step) remains a thin
//! wrapper over the classified step, so classification costs nothing extra
//! and can never drift from the real transition logic.

use std::fmt;

/// What one activation of chain `M` did, and if it held, why.
///
/// Move proposals (target location unoccupied) fall into the first four
/// variants, in the order Algorithm 1 checks them; swap proposals (target
/// occupied by the opposite color) into the next two; the remaining
/// occupied-target cases hold without drawing from the Metropolis filter.
///
/// The enum is `#[non_exhaustive]`: future chain variants may classify
/// additional hold reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u8)]
pub enum StepOutcome {
    /// A move proposal passed every guard and the Metropolis filter.
    MoveAccepted,
    /// A move proposal was rejected by condition (i): the activated
    /// particle has `|N(ℓ)| = 5` occupied neighbors.
    MoveRejectedFiveNeighbors,
    /// A move proposal was rejected by condition (ii): neither Property 4
    /// nor Property 5 holds for the pair `(ℓ, ℓ′)`.
    MoveRejectedProperty,
    /// A valid move proposal was rejected by the Metropolis filter
    /// `min(1, λ^{e′−e} · γ^{e′_i−e_i})`.
    MoveRejectedMetropolis,
    /// A swap proposal passed the Metropolis filter
    /// `min(1, γ^{gain_i + gain_j})`.
    SwapAccepted,
    /// A swap proposal was rejected by the Metropolis filter.
    SwapRejectedMetropolis,
    /// The target location holds a particle of the activated particle's own
    /// color: no transition exists (swaps only exchange unlike colors).
    SameColorHold,
    /// The target location is occupied and swap moves are disabled
    /// ([`SeparationChain::without_swaps`](crate::SeparationChain::without_swaps)),
    /// so the proposal holds unconditionally.
    TargetOccupiedHold,
    /// The configuration failed an internal consistency check while
    /// evaluating the proposal (counter corruption or a vanished particle);
    /// the step held and left the state untouched so the auditor can
    /// diagnose it ([`Configuration::audit`](crate::Configuration::audit)).
    InvalidStateHold,
}

impl StepOutcome {
    /// All outcome classes, each at its own index (`outcome as usize`):
    /// the order of [`SeparationChain::run_counted`](crate::SeparationChain::run_counted)'s
    /// counts.
    pub const ALL: [StepOutcome; 9] = [
        StepOutcome::MoveAccepted,
        StepOutcome::MoveRejectedFiveNeighbors,
        StepOutcome::MoveRejectedProperty,
        StepOutcome::MoveRejectedMetropolis,
        StepOutcome::SwapAccepted,
        StepOutcome::SwapRejectedMetropolis,
        StepOutcome::SameColorHold,
        StepOutcome::TargetOccupiedHold,
        StepOutcome::InvalidStateHold,
    ];

    /// Stable snake_case labels, indexed as [`StepOutcome::ALL`]; used as
    /// JSON keys in telemetry records.
    pub(crate) const LABELS: [&'static str; 9] = [
        "move_accepted",
        "move_rejected_five_neighbors",
        "move_rejected_property",
        "move_rejected_metropolis",
        "swap_accepted",
        "swap_rejected_metropolis",
        "same_color_hold",
        "target_occupied_hold",
        "invalid_state_hold",
    ];

    /// Whether this outcome changed the configuration.
    #[must_use]
    pub fn accepted(self) -> bool {
        matches!(self, StepOutcome::MoveAccepted | StepOutcome::SwapAccepted)
    }

    /// The stable snake_case label of this outcome.
    #[must_use]
    pub fn label_of(self) -> &'static str {
        Self::LABELS[self as usize]
    }
}

impl fmt::Display for StepOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label_of())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_labels_stable() {
        for (i, outcome) in StepOutcome::ALL.iter().enumerate() {
            assert_eq!(*outcome as usize, i);
            assert_eq!(outcome.label_of(), StepOutcome::LABELS[i]);
            assert_eq!(format!("{outcome}"), outcome.label_of());
        }
    }

    #[test]
    fn accepted_iff_move_or_swap_accepted() {
        for outcome in StepOutcome::ALL {
            let expect = matches!(
                outcome,
                StepOutcome::MoveAccepted | StepOutcome::SwapAccepted
            );
            assert_eq!(outcome.accepted(), expect);
        }
    }
}
