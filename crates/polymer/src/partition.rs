//! Exact polymer partition functions.

use crate::{EdgeSet, PolymerModel};

/// The exact polymer partition function
/// `Ξ = Σ_{compatible Γ′ ⊆ Γ} Π_{ξ∈Γ′} w(ξ)`
/// over an explicit polymer list, by backtracking.
///
/// The empty collection contributes 1, so `Ξ ≥ 1` for nonnegative weights.
///
/// # Panics
///
/// Panics if more than 26 polymers are given (the 2^N enumeration would be
/// too slow; all exact validations in this repository use small regions).
///
/// # Example
///
/// ```
/// use sops_lattice::{region::Region};
/// use sops_polymer::{partition, EvenSubgraphModel};
///
/// let region = Region::parallelogram(3, 2);
/// let model = EvenSubgraphModel::new(0.05);
/// let polymers = model.polymers_in(&region);
/// let xi = partition::exact_partition_function(&polymers, &model);
/// assert!(xi > 1.0); // positive activities only add weight
/// ```
#[must_use]
pub fn exact_partition_function<M: PolymerModel>(polymers: &[EdgeSet], model: &M) -> f64 {
    assert!(
        polymers.len() <= 26,
        "exact Ξ limited to 26 polymers, got {}",
        polymers.len()
    );
    // Precompute pairwise compatibility as bitmasks.
    let n = polymers.len();
    let mut compat = vec![0u32; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && model.compatible(&polymers[i], &polymers[j]) {
                compat[i] |= 1 << j;
            }
        }
    }
    let weights: Vec<f64> = polymers.iter().map(|p| model.weight(p)).collect();

    // DFS over polymers in order; `allowed` tracks which later polymers
    // remain compatible with everything chosen so far.
    fn recurse(i: usize, allowed: u32, weights: &[f64], compat: &[u32]) -> f64 {
        if i == weights.len() {
            return 1.0;
        }
        // Exclude polymer i.
        let mut total = recurse(i + 1, allowed, weights, compat);
        // Include polymer i if still allowed.
        if allowed & (1 << i) != 0 {
            total += weights[i] * recurse(i + 1, allowed & compat[i], weights, compat);
        }
        total
    }
    recurse(0, (1u64 << n).wrapping_sub(1) as u32, &weights, &compat)
}

/// The exact partition function of the even-subgraph model over a region,
/// computed directly: compatible collections of connected even polymers are
/// in bijection with even subgraphs (components of an even subgraph are
/// vertex-disjoint connected even subgraphs), so
/// `Ξ_Λ = Σ_{even ξ ⊆ Λ} x^{|ξ|}` — no backtracking needed, and regions far
/// beyond the 26-polymer cap of [`exact_partition_function`] stay exact.
///
/// # Panics
///
/// Panics if the region's cycle space has dimension above 20.
#[must_use]
pub fn even_partition_function(region: &sops_lattice::region::Region, x: f64) -> f64 {
    crate::model::even_subgraphs(region)
        .iter()
        .map(|s| x.powi(s.len() as i32))
        .sum()
}

/// The number of compatible collections (including the empty one): the
/// partition function at all weights 1. Useful as a combinatorial
/// cross-check.
#[cfg(test)]
#[must_use]
pub(crate) fn compatible_collection_count<M: PolymerModel>(polymers: &[EdgeSet], model: &M) -> u64 {
    struct UnitWeights<'a, M>(&'a M);
    impl<M: PolymerModel> PolymerModel for UnitWeights<'_, M> {
        fn weight(&self, _: &EdgeSet) -> f64 {
            1.0
        }
        fn compatible(&self, a: &EdgeSet, b: &EdgeSet) -> bool {
            self.0.compatible(a, b)
        }
        fn closure_size(&self, p: &EdgeSet) -> usize {
            self.0.closure_size(p)
        }
    }
    exact_partition_function(polymers, &UnitWeights(model)).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CutLoopModel, EvenSubgraphModel};
    use sops_lattice::region::Region;

    #[test]
    fn empty_polymer_list_gives_one() {
        let model = EvenSubgraphModel::new(0.1);
        assert_eq!(exact_partition_function(&[], &model), 1.0);
    }

    #[test]
    fn two_incompatible_polymers() {
        // Ξ = 1 + w1 + w2 when the two polymers are incompatible.
        let model = EvenSubgraphModel::new(0.5);
        let e1 =
            sops_lattice::Edge::new(sops_lattice::Node::new(0, 0), sops_lattice::Node::new(1, 0));
        let cycles = model.cycles_through(e1, 3); // two triangles sharing e1
        assert_eq!(cycles.len(), 2);
        let xi = exact_partition_function(&cycles, &model);
        let w = 0.5f64.powi(3);
        assert!((xi - (1.0 + 2.0 * w)).abs() < 1e-12);
    }

    #[test]
    fn two_compatible_polymers_multiply() {
        // Ξ = (1 + w1)(1 + w2) for two compatible polymers.
        let model = EvenSubgraphModel::new(0.3);
        let near =
            sops_lattice::Edge::new(sops_lattice::Node::new(0, 0), sops_lattice::Node::new(1, 0));
        let far = sops_lattice::Edge::new(
            sops_lattice::Node::new(30, 0),
            sops_lattice::Node::new(31, 0),
        );
        let polymers = vec![
            model.cycles_through(near, 3)[0].clone(),
            model.cycles_through(far, 3)[0].clone(),
        ];
        let xi = exact_partition_function(&polymers, &model);
        let w = 0.3f64.powi(3);
        assert!((xi - (1.0 + w) * (1.0 + w)).abs() < 1e-12);
    }

    #[test]
    fn even_partition_function_matches_backtracking() {
        // The bijection between compatible polymer collections and even
        // subgraphs: backtracking over connected even polymers must equal
        // the direct even-subgraph sum. (Small region to respect the
        // backtracking cap.)
        let region = Region::parallelogram(3, 2);
        for x in [0.1, 0.01, -0.0125] {
            let model = EvenSubgraphModel::new(x);
            let polymers = model.polymers_in(&region);
            let xi = exact_partition_function(&polymers, &model);
            let direct = even_partition_function(&region, x);
            assert!(
                (xi - direct).abs() < 1e-12 * direct.abs().max(1.0),
                "x = {x}: {xi} vs {direct}"
            );
        }
    }

    #[test]
    fn unit_count_for_cut_loops_in_tiny_region() {
        // Loops from single-vertex sources in a 2-node region: two hexagon
        // cuts sharing the connecting edge → collections: {}, {a}, {b}.
        let region = Region::parallelogram(2, 1);
        let model = CutLoopModel::new(6.0);
        let polymers = model.polymers_in(&region, 1);
        assert_eq!(polymers.len(), 2);
        assert_eq!(compatible_collection_count(&polymers, &model), 3);
    }
}
