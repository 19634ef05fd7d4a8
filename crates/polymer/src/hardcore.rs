//! The hard-core lattice gas on finite triangular regions.
//!
//! The paper cites the hard-core model twice as a benchmark for the
//! cluster expansion (§1: the textbook treatment "derives several
//! properties of statistical physics models including the Ising and
//! hard-core models"; Helmuth–Perkins–Regts develop algorithms "for …
//! the Potts and hard-core models"). It is also the *simplest possible
//! polymer model: polymers are single occupied vertices with weight `λ`
//! (the fugacity), compatible exactly when non-adjacent — so the
//! partition function is the independence polynomial of the region graph.
//! This module provides it as ground truth for that correspondence.

use sops_lattice::{region::Region, Node};

/// The hard-core partition function
/// `Z(λ) = Σ_{I independent} λ^{|I|}` — the independence polynomial of
/// the region's interior-edge graph evaluated at the fugacity `λ`.
///
/// Computed by backtracking over vertices (include/exclude with
/// neighbor masking), exact for regions up to 64 nodes of treelike or
/// moderate width; a hexagon of radius 3 (37 nodes) takes milliseconds.
///
/// # Panics
///
/// Panics for regions of more than 64 nodes.
#[must_use]
pub(crate) fn hardcore_partition_function(region: &Region, fugacity: f64) -> f64 {
    let nodes = region.nodes();
    let n = nodes.len();
    assert!(
        n <= 64,
        "hard-core enumeration limited to 64 nodes, got {n}"
    );
    let index = |v: Node| -> Option<usize> { nodes.iter().position(|&u| u == v) };
    // Neighbor masks.
    let masks: Vec<u64> = nodes
        .iter()
        .map(|&v| {
            let mut m = 0u64;
            for w in v.neighbors() {
                if let Some(j) = index(w) {
                    m |= 1 << j;
                }
            }
            m
        })
        .collect();

    fn recurse(i: usize, blocked: u64, fugacity: f64, masks: &[u64]) -> f64 {
        if i == masks.len() {
            return 1.0;
        }
        // Exclude vertex i.
        let mut total = recurse(i + 1, blocked, fugacity, masks);
        // Include vertex i when no included neighbor blocks it.
        if blocked & (1 << i) == 0 {
            total += fugacity * recurse(i + 1, blocked | masks[i], fugacity, masks);
        }
        total
    }
    recurse(0, 0, fugacity, &masks)
}

/// The number of independent sets of the region graph (`Z(1)`), exact.
#[must_use]
pub fn independent_set_count(region: &Region) -> u64 {
    hardcore_partition_function(region, 1.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vertex_and_edge() {
        // One node: Z = 1 + λ.
        let single = Region::from_nodes([Node::ORIGIN]);
        assert!((hardcore_partition_function(&single, 2.0) - 3.0).abs() < 1e-12);
        // Two adjacent nodes: Z = 1 + 2λ (both singletons, no pair).
        let pair = Region::parallelogram(2, 1);
        assert!((hardcore_partition_function(&pair, 2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_excludes_all_pairs() {
        // The 3-node triangle {(0,0), (1,0), (0,1)}: Z = 1 + 3λ.
        let tri = Region::from_nodes([Node::new(0, 0), Node::new(1, 0), Node::new(0, 1)]);
        assert!((hardcore_partition_function(&tri, 3.0) - 10.0).abs() < 1e-12);
        assert_eq!(independent_set_count(&tri), 4);
    }

    #[test]
    fn matches_brute_force_on_small_regions() {
        // Oracle: enumerate all subsets and test independence directly.
        for region in [Region::parallelogram(3, 2), Region::hexagon(1)] {
            let nodes = region.nodes();
            let n = nodes.len();
            for fugacity in [0.5f64, 1.0, 2.5] {
                let mut z = 0.0;
                for mask in 0u32..(1 << n) {
                    let chosen: Vec<Node> = (0..n)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| nodes[i])
                        .collect();
                    let independent = chosen
                        .iter()
                        .all(|a| chosen.iter().all(|b| a == b || !a.is_adjacent(*b)));
                    if independent {
                        z += fugacity.powi(chosen.len() as i32);
                    }
                }
                let fast = hardcore_partition_function(&region, fugacity);
                assert!((z - fast).abs() < 1e-9 * z, "λ = {fugacity}: {z} vs {fast}");
            }
        }
    }

    #[test]
    fn zero_fugacity_counts_only_the_empty_set() {
        let region = Region::hexagon(2);
        assert!((hardcore_partition_function(&region, 0.0) - 1.0).abs() < 1e-12);
    }
}
