//! Phase classification for the paper's Figure 3.
//!
//! §3.2 observes four distinct phases as (λ, γ) vary: compressed-separated,
//! compressed-integrated, expanded-separated, and expanded-integrated. We
//! classify a configuration by combining the α-compression test with the
//! (β, δ)-separation certificate.

use core::fmt;

use sops_core::Configuration;

use crate::{compression, separation};

/// One of the four phases observed in Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Tight blob, colors in large monochromatic regions (large λ, large γ).
    CompressedSeparated,
    /// Tight blob, colors mixed (large λ, γ near 1).
    CompressedIntegrated,
    /// Sprawling configuration with monochromatic regions (small λ, large γ).
    ExpandedSeparated,
    /// Sprawling and mixed (small λ, small γ).
    ExpandedIntegrated,
}

impl Phase {}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::CompressedSeparated => "compressed-separated",
            Phase::CompressedIntegrated => "compressed-integrated",
            Phase::ExpandedSeparated => "expanded-separated",
            Phase::ExpandedIntegrated => "expanded-integrated",
        };
        f.write_str(s)
    }
}

/// Thresholds for phase classification.
///
/// The defaults (`α = 2`, `β = 4`, `δ = 0.2`) were calibrated on the
/// Figure 3 reproduction: stationary configurations at `λ = 4` sit well
/// below `p = 2·p_min` while `λ ≤ 1` configurations sit well above, and the
/// separation certificate at `(β, δ) = (4, 0.2)` flips exactly across the
/// γ-axis of the phase diagram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseThresholds {
    /// Compression threshold: compressed iff `p(σ) ≤ α · p_min(n)`.
    pub alpha: f64,
    /// Boundary coefficient of Definition 3.
    pub beta: f64,
    /// Impurity tolerance of Definition 3.
    pub delta: f64,
}

impl Default for PhaseThresholds {
    fn default() -> Self {
        PhaseThresholds {
            alpha: 2.0,
            beta: 4.0,
            delta: 0.2,
        }
    }
}

/// Classifies a configuration into one of the four Figure-3 phases.
///
/// # Example
///
/// ```
/// use sops_analysis::{classify, Phase, PhaseThresholds};
/// use sops_core::{construct, Configuration};
///
/// // A hexagon split by a half-plane: compact, straight color interface.
/// let config = Configuration::new(construct::bicolor_halfplane(
///     construct::hexagonal_spiral(50),
/// ))?;
/// let phase = classify(&config, PhaseThresholds::default());
/// assert_eq!(phase, Phase::CompressedSeparated);
/// # Ok::<(), sops_core::ConfigError>(())
/// ```
#[must_use]
pub fn classify(config: &Configuration, thresholds: PhaseThresholds) -> Phase {
    let compressed = compression::is_alpha_compressed(config, thresholds.alpha);
    let separated = separation::is_separated(config, thresholds.beta, thresholds.delta).is_some();
    match (compressed, separated) {
        (true, true) => Phase::CompressedSeparated,
        (true, false) => Phase::CompressedIntegrated,
        (false, true) => Phase::ExpandedSeparated,
        (false, false) => Phase::ExpandedIntegrated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_core::{construct, Color, Configuration};
    use sops_lattice::Node;

    #[test]
    fn halfplane_hexagon_is_compressed_separated() {
        let config = Configuration::new(construct::bicolor_halfplane(construct::hexagonal_spiral(
            50,
        )))
        .unwrap();
        let phase = classify(&config, PhaseThresholds::default());
        assert_eq!(phase, Phase::CompressedSeparated);
    }

    #[test]
    fn annulus_coloring_is_not_separated_at_default_thresholds() {
        // The spiral-halves coloring puts c1 in a central blob surrounded by
        // c2; its interface is ~2× the blob perimeter and exceeds β√n.
        let config = construct::hexagonal_bicolored(50, 25).unwrap();
        assert_eq!(
            classify(&config, PhaseThresholds::default()),
            Phase::CompressedIntegrated
        );
    }

    #[test]
    fn alternating_hexagon_is_compressed_integrated() {
        let config = Configuration::new(construct::bicolor_alternating(
            construct::hexagonal_spiral(50),
        ))
        .unwrap();
        assert_eq!(
            classify(&config, PhaseThresholds::default()),
            Phase::CompressedIntegrated
        );
    }

    #[test]
    fn split_line_is_expanded_separated() {
        let particles: Vec<(Node, Color)> = (0..40)
            .map(|x| {
                let c = if x < 20 { Color::C1 } else { Color::C2 };
                (Node::new(x, 0), c)
            })
            .collect();
        let config = Configuration::new(particles).unwrap();
        let phase = classify(&config, PhaseThresholds::default());
        assert_eq!(phase, Phase::ExpandedSeparated);
    }

    #[test]
    fn alternating_line_is_expanded_integrated() {
        let config =
            Configuration::new(construct::bicolor_alternating(construct::line_nodes(40))).unwrap();
        assert_eq!(
            classify(&config, PhaseThresholds::default()),
            Phase::ExpandedIntegrated
        );
    }

    #[test]
    fn phase_display_names() {
        assert_eq!(
            Phase::CompressedSeparated.to_string(),
            "compressed-separated"
        );
        assert_eq!(Phase::ExpandedIntegrated.to_string(), "expanded-integrated");
    }
}
