//! The Ising model on finite triangular regions and its high-temperature
//! expansion — the machinery behind Theorem 15.
//!
//! For a fixed particle shape, the paper's color weight `γ^{−h(σ)}` is an
//! Ising model on the occupied subgraph: same-colored neighbors interact
//! with factor 1, differently colored with factor `γ^{−1}`. The
//! **high-temperature expansion** rewrites the sum over colorings as a sum
//! over *even* edge subsets,
//!
//! `Σ_colorings γ^{−h} = ((1 + γ^{−1})/2)^{|E|} · 2^{|V|} · Σ_{even ξ} x^{|ξ|}`
//!
//! with activity `x = (γ − 1)/(γ + 1)` — exactly the polymer partition
//! function of [`crate::EvenSubgraphModel`]. This module verifies that
//! identity (and the classical `tanh` form for the standard Ising model)
//! by brute force on small regions.

use sops_lattice::{region::Region, Node};

use crate::model::even_subgraphs;

/// Brute-force Ising partition function `Z(β) = Σ_σ exp(β Σ_{uv∈E} σ_u σ_v)`
/// over ±1 spins on the region's nodes.
///
/// # Panics
///
/// Panics for regions of more than 24 nodes.
#[cfg(test)]
#[must_use]
pub(crate) fn ising_partition_brute(region: &Region, beta: f64) -> f64 {
    let nodes = region.nodes();
    let n = nodes.len();
    assert!(n <= 24, "brute-force Ising limited to 24 spins, got {n}");
    let edges = region.interior_edges();
    let index = |v: Node| {
        nodes
            .iter()
            .position(|&u| u == v)
            .expect("endpoint in region")
    };
    let pairs: Vec<(usize, usize)> = edges.iter().map(|e| (index(e.u()), index(e.v()))).collect();

    let mut z = 0.0;
    for mask in 0u32..(1 << n) {
        let spin = |i: usize| if mask & (1 << i) != 0 { 1.0 } else { -1.0 };
        let energy: f64 = pairs.iter().map(|&(a, b)| spin(a) * spin(b)).sum();
        z += (beta * energy).exp();
    }
    z
}

/// High-temperature expansion of the Ising partition function:
/// `Z(β) = 2^{|V|} (cosh β)^{|E|} Σ_{even ξ} (tanh β)^{|ξ|}`.
///
/// # Panics
///
/// Panics if the region's cycle space is too large to enumerate (see
/// [`crate::model::even_subgraphs`]).
#[cfg(test)]
#[must_use]
pub(crate) fn ising_partition_ht(region: &Region, beta: f64) -> f64 {
    let e = region.interior_edges().len() as i32;
    let v = region.len() as u32;
    let t = beta.tanh();
    let even_sum: f64 = even_subgraphs(region)
        .iter()
        .map(|s| t.powi(s.len() as i32))
        .sum();
    2.0f64.powi(v as i32) * beta.cosh().powi(e) * even_sum
}

/// The paper's colored-shape partition function by direct enumeration:
/// `Σ over 2-colorings of the region's nodes of γ^{−h}` where `h` counts
/// bichromatic interior edges.
///
/// # Panics
///
/// Panics for regions of more than 24 nodes.
#[must_use]
pub fn color_partition_function_direct(region: &Region, gamma: f64) -> f64 {
    let nodes = region.nodes();
    let n = nodes.len();
    assert!(n <= 24, "direct enumeration limited to 24 nodes, got {n}");
    let edges = region.interior_edges();
    let index = |v: Node| {
        nodes
            .iter()
            .position(|&u| u == v)
            .expect("endpoint in region")
    };
    let pairs: Vec<(usize, usize)> = edges.iter().map(|e| (index(e.u()), index(e.v()))).collect();

    let mut z = 0.0;
    for mask in 0u32..(1 << n) {
        let h = pairs
            .iter()
            .filter(|&&(a, b)| (mask >> a) & 1 != (mask >> b) & 1)
            .count();
        z += gamma.powi(-(h as i32));
    }
    z
}

/// The same partition function via the high-temperature (even-subgraph)
/// expansion with activity `x = (γ − 1)/(γ + 1)`.
#[must_use]
pub fn color_partition_function_ht(region: &Region, gamma: f64) -> f64 {
    let e = region.interior_edges().len() as i32;
    let v = region.len() as i32;
    let x = (gamma - 1.0) / (gamma + 1.0);
    let even_sum: f64 = even_subgraphs(region)
        .iter()
        .map(|s| x.powi(s.len() as i32))
        .sum();
    ((1.0 + 1.0 / gamma) / 2.0).powi(e) * 2.0f64.powi(v) * even_sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ht_expansion_matches_brute_force_ising() {
        for beta in [0.05, 0.2, 0.5] {
            for region in [Region::parallelogram(3, 2), Region::hexagon(1)] {
                let brute = ising_partition_brute(&region, beta);
                let ht = ising_partition_ht(&region, beta);
                assert!(
                    (brute - ht).abs() / brute < 1e-12,
                    "β = {beta}: {brute} vs {ht}"
                );
            }
        }
    }

    #[test]
    fn color_ht_identity_across_gamma() {
        // Including γ < 1 (negative activity) and the integration window.
        for gamma in [0.8, 79.0 / 81.0, 1.0, 81.0 / 79.0, 4.0] {
            let region = Region::hexagon(1);
            let direct = color_partition_function_direct(&region, gamma);
            let ht = color_partition_function_ht(&region, gamma);
            assert!(
                (direct - ht).abs() / direct < 1e-12,
                "γ = {gamma}: {direct} vs {ht}"
            );
        }
    }

    #[test]
    fn gamma_one_counts_all_colorings() {
        // At γ = 1 every coloring has weight 1: Z = 2^|V|.
        let region = Region::parallelogram(2, 2);
        let z = color_partition_function_direct(&region, 1.0);
        assert!((z - 16.0).abs() < 1e-12);
        let ht = color_partition_function_ht(&region, 1.0);
        assert!((ht - 16.0).abs() < 1e-12);
    }

    #[test]
    fn large_gamma_suppresses_bichromatic_edges() {
        // As γ → ∞ only the 2 monochromatic colorings survive.
        let region = Region::parallelogram(2, 2);
        let z = color_partition_function_direct(&region, 1e6);
        assert!((z - 2.0).abs() < 1e-3);
    }

    #[test]
    fn beta_zero_ising_is_free_spins() {
        let region = Region::parallelogram(3, 2);
        let z = ising_partition_brute(&region, 0.0);
        assert!((z - 64.0).abs() < 1e-9);
    }
}
