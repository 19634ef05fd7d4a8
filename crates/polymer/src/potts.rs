//! The q-state Potts model on finite triangular regions.
//!
//! §5 of the paper: for `k > 2` colors the proofs "generalize … using
//! insights that generalize cluster expansion polymers from the Ising model
//! to the Potts model (see the notion of a *contour* in Pirogov–Sinai
//! theory)". This module provides the Potts-side ground truth: the exact
//! fixed-shape color partition function `Σ_colorings γ^{−h(σ)}` for `q`
//! colors, its contour (domain-wall) representation, and the reduction to
//! the Ising/high-temperature machinery at `q = 2`.

use sops_lattice::{region::Region, Node};

/// The q-state color partition function of a fixed shape by direct
/// enumeration: `Σ over q-colorings of γ^{−h}` with `h` the number of
/// bichromatic interior edges.
///
/// # Panics
///
/// Panics if `q = 0` or `q^|V|` exceeds ~16 million states.
#[must_use]
pub fn potts_partition_function_direct(region: &Region, gamma: f64, q: u32) -> f64 {
    assert!(q >= 1, "need at least one color");
    let nodes = region.nodes();
    let n = nodes.len();
    let states = (q as u64)
        .checked_pow(n as u32)
        .expect("state space overflows");
    assert!(states <= 16_000_000, "state space too large: {states}");
    let edges = region.interior_edges();
    let index = |v: Node| {
        nodes
            .iter()
            .position(|&u| u == v)
            .expect("endpoint in region")
    };
    let pairs: Vec<(usize, usize)> = edges.iter().map(|e| (index(e.u()), index(e.v()))).collect();

    let mut z = 0.0;
    let mut coloring = vec![0u32; n];
    for _ in 0..states {
        let h = pairs
            .iter()
            .filter(|&&(a, b)| coloring[a] != coloring[b])
            .count();
        z += gamma.powi(-(h as i32));
        // Odometer advance in base q.
        for slot in coloring.iter_mut() {
            *slot += 1;
            if *slot < q {
                break;
            }
            *slot = 0;
        }
    }
    z
}

/// The same partition function via the Fortuin–Kasteleyn (random-cluster)
/// representation:
/// `Z = Σ_{A ⊆ E} p^{|A|} (1−p)^{|E|−|A|} q^{c(A)} / (1−p)^{|E|} …`
/// — concretely, with edge weight `v = γ − 1 ≥ 0` per same-color
/// constraint, `Z_Potts(γ) = γ^{−|E|} Σ_{A ⊆ E} v^{|A|} q^{c(A)}`, where
/// `c(A)` counts connected components of `(V, A)` (isolated vertices
/// included).
///
/// This is the standard bridge from Potts colorings to geometric objects
/// (FK clusters ↔ Pirogov–Sinai contours), verified exactly against the
/// direct sum in tests.
///
/// # Panics
///
/// Panics if the region has more than 20 interior edges (2^|E| subsets) or
/// `γ < 1` (the FK measure needs `v ≥ 0`).
#[cfg(test)]
#[must_use]
pub(crate) fn potts_partition_function_fk(region: &Region, gamma: f64, q: u32) -> f64 {
    assert!(gamma >= 1.0, "FK representation needs γ ≥ 1");
    let nodes = region.nodes();
    let n = nodes.len();
    let edges = region.interior_edges();
    let m = edges.len();
    assert!(m <= 20, "FK enumeration limited to 20 edges, got {m}");
    let index = |v: Node| {
        nodes
            .iter()
            .position(|&u| u == v)
            .expect("endpoint in region")
    };
    let pairs: Vec<(usize, usize)> = edges.iter().map(|e| (index(e.u()), index(e.v()))).collect();
    let v = gamma - 1.0;

    let mut total = 0.0;
    for mask in 0u32..(1 << m) {
        // Count components of the subgraph (V, A).
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        let mut components = n;
        let mut edge_count = 0;
        for (k, &(a, b)) in pairs.iter().enumerate() {
            if mask & (1 << k) != 0 {
                edge_count += 1;
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra] = rb;
                    components -= 1;
                }
            }
        }
        total += v.powi(edge_count) * f64::from(q).powi(components as i32);
    }
    total * gamma.powi(-(m as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ising;

    #[test]
    fn q2_reduces_to_the_ising_color_sum() {
        for gamma in [1.0, 81.0 / 79.0, 2.0, 4.0] {
            for region in [Region::hexagon(1), Region::parallelogram(3, 2)] {
                let potts = potts_partition_function_direct(&region, gamma, 2);
                let ising = ising::color_partition_function_direct(&region, gamma);
                assert!(
                    (potts - ising).abs() / ising < 1e-12,
                    "γ = {gamma}: {potts} vs {ising}"
                );
            }
        }
    }

    #[test]
    fn fk_representation_matches_direct_sum() {
        let region = Region::parallelogram(3, 2); // 9 edges
        for q in [1u32, 2, 3, 4] {
            for gamma in [1.0, 1.5, 3.0] {
                let direct = potts_partition_function_direct(&region, gamma, q);
                let fk = potts_partition_function_fk(&region, gamma, q);
                assert!(
                    (direct - fk).abs() / direct < 1e-12,
                    "q = {q}, γ = {gamma}: {direct} vs {fk}"
                );
            }
        }
    }

    #[test]
    fn gamma_one_counts_colorings() {
        let region = Region::parallelogram(2, 2);
        for q in [2u32, 3, 5] {
            let z = potts_partition_function_direct(&region, 1.0, q);
            assert!((z - f64::from(q).powi(4)).abs() < 1e-9, "q = {q}");
        }
    }

    #[test]
    fn large_gamma_keeps_only_monochromatic_colorings() {
        let region = Region::parallelogram(2, 2);
        for q in [2u32, 3] {
            let z = potts_partition_function_direct(&region, 1e9, q);
            assert!((z - f64::from(q)).abs() < 1e-3, "q = {q}");
        }
    }

    #[test]
    fn q1_is_trivially_one_state() {
        let region = Region::hexagon(1);
        let z = potts_partition_function_direct(&region, 3.0, 1);
        assert!((z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_function_decreases_in_gamma() {
        // Raising γ only suppresses bichromatic colorings.
        let region = Region::parallelogram(3, 2);
        let z2 = potts_partition_function_direct(&region, 2.0, 3);
        let z4 = potts_partition_function_direct(&region, 4.0, 3);
        assert!(z4 < z2);
        assert!(z4 >= 3.0); // the monochromatic floor
    }
}
