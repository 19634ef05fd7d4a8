//! Ising Glauber (heat-bath) dynamics on a fixed triangular region.
//!
//! The paper interprets its two colors as Ising spins "on a graph that
//! evolves as particles move". Freezing the graph recovers the textbook
//! model: spins `σ_v ∈ {±1}` on the nodes of a finite region of `G_Δ` with
//! ferromagnetic coupling `β`, updated by heat-bath: the chosen spin is set
//! to `+1` with probability `e^{βS} / (e^{βS} + e^{−βS})` where `S` is the
//! neighbor spin sum. The correspondence to the paper's bias is
//! `β = ln(γ)/2` (a heterogeneous edge costs a factor `γ⁻¹` exactly as an
//! unaligned Ising pair costs `e^{−2β}`).

use rand::{Rng, RngExt as _};
use sops_chains::MarkovChain;
use sops_lattice::{region::Region, Node, NodeMap};

/// Spin assignment on a fixed region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpinState {
    nodes: Vec<Node>,
    /// spins[i] ∈ {−1, +1} for nodes[i].
    spins: Vec<i8>,
    index: NodeMap<u32>,
    /// Adjacency lists by node index.
    adj: Vec<Vec<u32>>,
}

impl SpinState {
    /// Uniformly random spins on the region's nodes.
    pub fn random<R: Rng + ?Sized>(region: &Region, rng: &mut R) -> Self {
        let nodes: Vec<Node> = region.nodes().to_vec();
        let index: NodeMap<u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let adj: Vec<Vec<u32>> = nodes
            .iter()
            .map(|n| {
                n.neighbors()
                    .into_iter()
                    .filter_map(|m| index.get(m).copied())
                    .collect()
            })
            .collect();
        let spins = (0..nodes.len())
            .map(|_| if rng.random::<bool>() { 1 } else { -1 })
            .collect();
        SpinState {
            nodes,
            spins,
            index,
            adj,
        }
    }

    /// Net magnetization `Σ σ_v / n ∈ [−1, 1]`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn magnetization(&self) -> f64 {
        self.spins.iter().map(|&s| f64::from(s)).sum::<f64>() / self.spins.len() as f64
    }

    /// Number of unaligned (heterogeneous) edges.
    #[must_use]
    pub fn unaligned_edges(&self) -> u64 {
        let mut count = 0;
        for (i, nbrs) in self.adj.iter().enumerate() {
            for &j in nbrs {
                if (j as usize) > i && self.spins[i] != self.spins[j as usize] {
                    count += 1;
                }
            }
        }
        count
    }

    /// Total number of edges in the region graph.
    #[must_use]
    pub fn edge_count(&self) -> u64 {
        self.adj.iter().map(|a| a.len() as u64).sum::<u64>() / 2
    }
}

/// Heat-bath Glauber dynamics at inverse temperature `β`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlauberDynamics {
    beta: f64,
}

impl GlauberDynamics {
    /// Creates the dynamics at inverse temperature `β ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics for negative or non-finite `β`.
    #[must_use]
    pub fn new(beta: f64) -> Self {
        assert!(beta.is_finite() && beta >= 0.0, "β must be finite and ≥ 0");
        GlauberDynamics { beta }
    }

    /// The dynamics matching the paper's same-color bias: `β = ln(γ)/2`.
    ///
    /// # Panics
    ///
    /// Panics unless `γ ≥ 1`.
    #[must_use]
    pub fn for_gamma(gamma: f64) -> Self {
        assert!(gamma >= 1.0, "γ must be ≥ 1 for a ferromagnetic coupling");
        GlauberDynamics::new(gamma.ln() / 2.0)
    }
}

impl MarkovChain for GlauberDynamics {
    type State = SpinState;

    fn step<R: Rng + ?Sized>(&self, state: &mut SpinState, rng: &mut R) -> bool {
        let i = rng.random_range(0..state.spins.len());
        let s: i32 = state.adj[i]
            .iter()
            .map(|&j| i32::from(state.spins[j as usize]))
            .sum();
        let field = self.beta * f64::from(s);
        let p_up = 1.0 / (1.0 + (-2.0 * field).exp());
        let new = if rng.random::<f64>() < p_up { 1 } else { -1 };
        let changed = new != state.spins[i];
        state.spins[i] = new;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_state_structure() {
        let mut rng = StdRng::seed_from_u64(0);
        let region = Region::hexagon(2);
        let state = SpinState::random(&region, &mut rng);
        assert_eq!(state.edge_count(), 42);
    }

    #[test]
    fn infinite_temperature_stays_disordered() {
        let mut rng = StdRng::seed_from_u64(1);
        let region = Region::hexagon(3);
        let mut state = SpinState::random(&region, &mut rng);
        let dyn0 = GlauberDynamics::new(0.0);
        dyn0.run(&mut state, 50_000, &mut rng);
        // At β = 0, unaligned fraction stays near 1/2.
        let frac = state.unaligned_edges() as f64 / state.edge_count() as f64;
        assert!((frac - 0.5).abs() < 0.15, "fraction {frac}");
    }

    #[test]
    fn low_temperature_orders() {
        let mut rng = StdRng::seed_from_u64(2);
        let region = Region::hexagon(3);
        let mut state = SpinState::random(&region, &mut rng);
        let cold = GlauberDynamics::new(1.5);
        cold.run(&mut state, 200_000, &mut rng);
        assert!(
            state.magnetization().abs() > 0.8,
            "m = {}",
            state.magnetization()
        );
        let frac = state.unaligned_edges() as f64 / state.edge_count() as f64;
        assert!(frac < 0.1, "unaligned fraction {frac}");
    }

    #[test]
    fn gamma_mapping_matches_beta() {
        let d = GlauberDynamics::for_gamma(4.0);
        assert!((d.beta - 4.0f64.ln() / 2.0).abs() < 1e-15);
        assert!((GlauberDynamics::for_gamma(1.0).beta).abs() < 1e-15);
    }

    #[test]
    fn heat_bath_preserves_all_up_at_huge_beta() {
        let mut rng = StdRng::seed_from_u64(3);
        let region = Region::hexagon(2);
        let mut state = SpinState::random(&region, &mut rng);
        state.spins.iter_mut().for_each(|s| *s = 1);
        let frozen = GlauberDynamics::new(20.0);
        frozen.run(&mut state, 20_000, &mut rng);
        assert_eq!(state.magnetization(), 1.0);
        assert_eq!(state.unaligned_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "finite and ≥ 0")]
    fn negative_beta_rejected() {
        let _ = GlauberDynamics::new(-1.0);
    }
}
