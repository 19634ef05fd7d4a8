//! Reusable (λ, γ) phase-diagram sweeps — the workload generator behind
//! the Figure 3 reproduction and the `phase_explorer` example.

use rand::Rng;
use sops_chains::MarkovChain;
use sops_core::{Bias, ConfigError, Configuration, SeparationChain};

use crate::{classify, Phase, PhaseThresholds};

/// One cell of a phase diagram ([`PhaseDiagram::cells`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseCell {
    /// Compression bias of this cell.
    pub lambda: f64,
    /// Same-color bias of this cell.
    pub gamma: f64,
    /// The classified phase after the run.
    pub phase: Phase,
    /// Final compression ratio `p/p_min`.
    pub alpha_ratio: f64,
    /// Final heterogeneous-edge fraction.
    pub hetero_fraction: f64,
}

/// A completed phase-diagram sweep over a (λ, γ) grid, as [`phase_diagram`]
/// returns it to the adoption-scenario integration test.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseDiagram {
    /// The λ axis values, in row order.
    pub lambdas: Vec<f64>,
    /// The γ axis values, in column order.
    pub gammas: Vec<f64>,
    /// Cells in row-major order (`lambdas.len() × gammas.len()`).
    pub cells: Vec<PhaseCell>,
}

impl PhaseDiagram {
    /// The cell at the given λ-row and γ-column.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[must_use]
    pub fn cell(&self, lambda_idx: usize, gamma_idx: usize) -> &PhaseCell {
        &self.cells[lambda_idx * self.gammas.len() + gamma_idx]
    }
}

/// Runs the sweep: each cell starts from a fresh clone of `seed`, runs
/// `iterations` steps of the separation chain at its (λ, γ), and is
/// classified with `thresholds`.
///
/// # Errors
///
/// Returns [`ConfigError::InvalidBias`] if any grid value is not a valid
/// bias parameter.
pub fn phase_diagram<R: Rng + ?Sized>(
    seed: &Configuration,
    lambdas: &[f64],
    gammas: &[f64],
    iterations: u64,
    thresholds: PhaseThresholds,
    rng: &mut R,
) -> Result<PhaseDiagram, ConfigError> {
    let mut cells = Vec::with_capacity(lambdas.len() * gammas.len());
    for &lambda in lambdas {
        for &gamma in gammas {
            let chain = SeparationChain::new(Bias::new(lambda, gamma)?);
            let mut config = seed.clone();
            chain.run(&mut config, iterations, rng);
            cells.push(PhaseCell {
                lambda,
                gamma,
                phase: classify(&config, thresholds),
                alpha_ratio: crate::alpha_ratio(&config),
                hetero_fraction: crate::metrics::hetero_fraction(&config),
            });
        }
    }
    Ok(PhaseDiagram {
        lambdas: lambdas.to_vec(),
        gammas: gammas.to_vec(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sops_core::construct;

    #[test]
    fn tiny_sweep_reproduces_the_corner_phases() {
        let mut rng = StdRng::seed_from_u64(0);
        let nodes = construct::hexagonal_spiral(40);
        let seed = Configuration::new(construct::bicolor_random(nodes, 20, &mut rng)).unwrap();
        let diagram = phase_diagram(
            &seed,
            &[0.7, 4.0],
            &[1.0, 4.0],
            400_000,
            PhaseThresholds::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(diagram.cells.len(), 4);
        // Strong corner: λ = γ = 4 compresses and separates.
        assert_eq!(diagram.cell(1, 1).phase, Phase::CompressedSeparated);
        assert!(diagram.cell(1, 1).alpha_ratio < 2.0);
        // λ = 4, γ = 1 compresses (markedly more than λ = 0.7) but stays
        // mixed. At n = 40 the certificate's β√n budget is generous (the
        // paper notes Definition 3 is an asymptotic notion), so assert
        // mixedness through the heterogeneous-edge fraction directly.
        assert!(diagram.cell(1, 0).alpha_ratio < 0.7 * diagram.cell(0, 0).alpha_ratio);
        assert!(diagram.cell(1, 0).hetero_fraction > 0.3);
        assert!(diagram.cell(1, 1).hetero_fraction < 0.2);
        // λ = 0.7 stays expanded.
        assert!(matches!(
            diagram.cell(0, 0).phase,
            Phase::ExpandedSeparated | Phase::ExpandedIntegrated
        ));
    }

    #[test]
    fn invalid_grid_value_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let seed = construct::hexagonal_bicolored(10, 5).unwrap();
        let err = phase_diagram(
            &seed,
            &[-1.0],
            &[1.0],
            10,
            PhaseThresholds::default(),
            &mut rng,
        );
        assert!(err.is_err());
    }
}
