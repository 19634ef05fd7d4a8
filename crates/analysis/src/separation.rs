//! Certification of (β, δ)-separation (Definition 3 of the paper).
//!
//! A configuration `σ` of `n` particles is (β, δ)-separated if some subset
//! `R` of particles satisfies:
//!
//! 1. at most `β√n` edges of `σ` have exactly one endpoint in `R`;
//! 2. the density of `c₁` particles in `R` is at least `1 − δ`;
//! 3. the density of `c₁` particles outside `R` is at most `δ`.
//!
//! `R` need not be connected. We search for witnesses by Lagrangian
//! relaxation: for a multiplier `m`, the minimizer of
//! `boundary(R) + m · misplaced(R)` (misplaced = `c₁` outside `R` plus
//! non-`c₁` inside `R`) is an s-t minimum cut. Sweeping `m` traces the lower
//! convex hull of the (boundary, misplaced) trade-off; every candidate `R`
//! is then *literally* checked against Definition 3, so a positive answer is
//! always sound.

use sops_core::{Color, Configuration};
use sops_lattice::{Node, NodeSet, DIRECTIONS};

use crate::flow::FlowNetwork;

/// A concrete witness region `R` together with its literally counted
/// boundary and composition — everything Definition 3 talks about.
#[derive(Clone, Debug, PartialEq)]
pub struct SeparationCertificate {
    /// The witness subset `R` (particle nodes).
    pub region: Vec<Node>,
    /// Number of configuration edges with exactly one endpoint in `R`.
    pub boundary_edges: u64,
    /// Number of `c₁` particles in `R`.
    pub c1_in_region: usize,
    /// Number of `c₁` particles outside `R`.
    pub c1_outside: usize,
    /// Total particles in `R`.
    pub region_size: usize,
    /// Total particles outside `R`.
    pub outside_size: usize,
}

impl SeparationCertificate {
    /// Density of `c₁` particles inside `R` (1.0 for an empty region, the
    /// vacuous optimum of condition 2).
    #[must_use]
    pub fn density_inside(&self) -> f64 {
        if self.region_size == 0 {
            1.0
        } else {
            self.c1_in_region as f64 / self.region_size as f64
        }
    }

    /// Density of `c₁` particles outside `R` (0.0 when nothing is outside).
    #[must_use]
    pub fn density_outside(&self) -> f64 {
        if self.outside_size == 0 {
            0.0
        } else {
            self.c1_outside as f64 / self.outside_size as f64
        }
    }

    /// Whether this region witnesses (β, δ)-separation for a system of
    /// `n = region_size + outside_size` particles.
    #[must_use]
    pub(crate) fn satisfies(&self, beta: f64, delta: f64) -> bool {
        let n = (self.region_size + self.outside_size) as f64;
        (self.boundary_edges as f64) <= beta * n.sqrt()
            && self.density_inside() >= 1.0 - delta
            && self.density_outside() <= delta
    }
}

/// Builds the certificate for an explicit region `R` by literal counting.
///
/// The `reference` color plays the role of `c₁` in Definition 3.
#[must_use]
pub(crate) fn region_certificate(
    config: &Configuration,
    region: &NodeSet,
    reference: Color,
) -> SeparationCertificate {
    let mut cert = SeparationCertificate {
        region: Vec::new(),
        boundary_edges: 0,
        c1_in_region: 0,
        c1_outside: 0,
        region_size: 0,
        outside_size: 0,
    };
    for (node, color) in config.particles() {
        let inside = region.contains(node);
        if inside {
            cert.region.push(node);
            cert.region_size += 1;
            cert.c1_in_region += usize::from(color == reference);
            // Count boundary edges once, from the inside endpoint.
            for d in DIRECTIONS {
                let m = node.neighbor(d);
                if config.is_occupied(m) && !region.contains(m) {
                    cert.boundary_edges += 1;
                }
            }
        } else {
            cert.outside_size += 1;
            cert.c1_outside += usize::from(color == reference);
        }
    }
    cert.region.sort_unstable_by_key(|n| (n.x, n.y));
    cert
}

/// The region minimizing `den · boundary(R) + num · misplaced(R)` via a
/// minimum cut, where misplaced counts `c₁` particles outside `R` plus
/// non-`c₁` particles inside `R` (with the `reference` color as `c₁`).
#[must_use]
pub(crate) fn min_cut_region(
    config: &Configuration,
    reference: Color,
    num: u64,
    den: u64,
) -> SeparationCertificate {
    let n = config.len();
    let source = n;
    let sink = n + 1;
    let mut net = FlowNetwork::new(n + 2);
    for i in 0..n {
        if config.color_of(i) == reference {
            net.add_edge(source, i, num);
        } else {
            net.add_edge(i, sink, num);
        }
    }
    // Each configuration edge once, with scaled unit capacity.
    for i in 0..n {
        let node = config.position_of(i);
        for d in DIRECTIONS {
            let m = node.neighbor(d);
            if let Some(j) = config.index_at(m) {
                if i < j {
                    net.add_undirected_edge(i, j, den);
                }
            }
        }
    }
    let (_, side) = net.min_cut(source, sink);
    let region: NodeSet = (0..n)
        .filter(|&i| side[i])
        .map(|i| config.position_of(i))
        .collect();
    region_certificate(config, &region, reference)
}

/// The Pareto profile of candidate regions from a multiplier sweep, for the
/// `reference` color as `c₁`. Deduplicated; sorted by boundary size.
#[must_use]
pub fn separation_profile(config: &Configuration, reference: Color) -> Vec<SeparationCertificate> {
    // Multipliers m = num/den spanning "boundary is everything" (m → 0,
    // giving R = ∅ or all) to "purity is everything" (m ≥ 3n ≥ any boundary,
    // giving R = exactly the c₁ particles).
    const SWEEP: [(u64, u64); 12] = [
        (1, 8),
        (1, 4),
        (1, 2),
        (3, 4),
        (1, 1),
        (3, 2),
        (2, 1),
        (3, 1),
        (4, 1),
        (6, 1),
        (12, 1),
        (1_000_000, 1),
    ];
    let mut out: Vec<SeparationCertificate> = Vec::new();
    for (num, den) in SWEEP {
        let cert = min_cut_region(config, reference, num, den);
        if !out.contains(&cert) {
            out.push(cert);
        }
    }
    // Direct candidates that need no relaxation: the exact c₁ set and each
    // monochromatic c₁ component joined greedily largest-first. These cover
    // witnesses that sit above the Lagrangian hull.
    let mut components: Vec<Vec<Node>> = Vec::new();
    let mut seen = NodeSet::new();
    for (node, color) in config.particles() {
        if color != reference || seen.contains(node) {
            continue;
        }
        let mut comp = vec![node];
        seen.insert(node);
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            for m in u.neighbors() {
                if config.color_at(m) == Some(reference) && seen.insert(m) {
                    comp.push(m);
                    stack.push(m);
                }
            }
        }
        components.push(comp);
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut region = NodeSet::new();
    for comp in &components {
        for &n in comp {
            region.insert(n);
        }
        let cert = region_certificate(config, &region, reference);
        if !out.contains(&cert) {
            out.push(cert);
        }
    }
    out.sort_by_key(|c| (c.boundary_edges, c.region_size));
    out
}

/// Searches for a (β, δ)-separation witness, trying both colors in the role
/// of `c₁`; returns the first certificate found.
///
/// A `Some` answer is always sound (the certificate is literally checked);
/// a `None` answer means no witness appeared on the Lagrangian frontier of
/// either color.
///
/// # Example
///
/// ```
/// use sops_analysis::is_separated;
/// use sops_core::{Color, Configuration};
/// use sops_lattice::Node;
///
/// // Two monochromatic lumps sharing one edge: perfectly separated.
/// let config = Configuration::new([
///     (Node::new(0, 0), Color::C1),
///     (Node::new(0, 1), Color::C1),
///     (Node::new(1, 0), Color::C2),
///     (Node::new(1, 1), Color::C2),
/// ])?;
/// let cert = is_separated(&config, 4.0, 0.1).expect("clearly separated");
/// assert_eq!(cert.density_inside(), 1.0);
/// # Ok::<(), sops_core::ConfigError>(())
/// ```
#[must_use]
pub fn is_separated(
    config: &Configuration,
    beta: f64,
    delta: f64,
) -> Option<SeparationCertificate> {
    for reference in [Color::C1, Color::C2] {
        for cert in separation_profile(config, reference) {
            if cert.satisfies(beta, delta) {
                return Some(cert);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_core::construct;

    /// Brute-force Definition 3 over all subsets (for n ≤ ~16).
    fn brute_force_separated(config: &Configuration, beta: f64, delta: f64) -> bool {
        let n = config.len();
        assert!(n <= 16, "brute force limited to small systems");
        for reference in [Color::C1, Color::C2] {
            for mask in 0u32..(1 << n) {
                let region: NodeSet = (0..n)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| config.position_of(i))
                    .collect();
                if region_certificate(config, &region, reference).satisfies(beta, delta) {
                    return true;
                }
            }
        }
        false
    }

    fn two_lumps() -> Configuration {
        // 3×2 parallelogram, left column c1, right c2... build a 6-particle
        // bar: (0..2)×(0..2)... use rows of 3.
        Configuration::new([
            (Node::new(0, 0), Color::C1),
            (Node::new(0, 1), Color::C1),
            (Node::new(1, 0), Color::C1),
            (Node::new(2, 0), Color::C2),
            (Node::new(1, 1), Color::C2),
            (Node::new(2, 1), Color::C2),
        ])
        .unwrap()
    }

    fn alternating_bar() -> Configuration {
        Configuration::new((0..8).map(|x| {
            let c = if x % 2 == 0 { Color::C1 } else { Color::C2 };
            (Node::new(x, 0), c)
        }))
        .unwrap()
    }

    #[test]
    fn explicit_region_certificate_counts_literally() {
        let config = two_lumps();
        let region: NodeSet = [Node::new(0, 0), Node::new(0, 1), Node::new(1, 0)]
            .into_iter()
            .collect();
        let cert = region_certificate(&config, &region, Color::C1);
        assert_eq!(cert.region_size, 3);
        assert_eq!(cert.c1_in_region, 3);
        assert_eq!(cert.c1_outside, 0);
        assert_eq!(cert.outside_size, 3);
        // Boundary edges: (0,1)-(1,1)? (0,1)+E=(1,1) ✓ occupied outside;
        // (1,0)-(2,0) ✓; (1,0)-(1,1)? +NE ✓; (0,1)-(1,0)? inside-inside skip.
        // (1,0)-(2,-1)? unoccupied. Count: (0,1)-(1,1), (1,0)-(2,0), (1,0)-(1,1) = 3.
        assert_eq!(cert.boundary_edges, 3);
        assert!((cert.density_inside() - 1.0).abs() < 1e-12);
        assert_eq!(cert.density_outside(), 0.0);
    }

    #[test]
    fn separated_configuration_is_certified() {
        let config = two_lumps();
        let cert = is_separated(&config, 2.0, 0.1).expect("two lumps are separated");
        assert!(cert.satisfies(2.0, 0.1));
        assert!(brute_force_separated(&config, 2.0, 0.1));
    }

    #[test]
    fn alternating_configuration_is_not_separated() {
        let config = alternating_bar();
        // Any pure split of an alternating bar needs ≥ n/2 boundary edges;
        // β√n with β = 1 allows at most √8 ≈ 2.8.
        assert!(is_separated(&config, 1.0, 0.1).is_none());
        assert!(!brute_force_separated(&config, 1.0, 0.1));
    }

    #[test]
    fn certificates_are_always_sound() {
        // Every certificate returned by the sweep, satisfied or not, must
        // literally re-verify from its own region.
        let mut rng_state = 7u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for _ in 0..20 {
            let nodes = construct::hexagonal_spiral(12);
            let particles: Vec<(Node, Color)> = nodes
                .into_iter()
                .map(|n| {
                    let c = if next() % 2 == 0 {
                        Color::C1
                    } else {
                        Color::C2
                    };
                    (n, c)
                })
                .collect();
            let config = Configuration::new(particles).unwrap();
            for cert in separation_profile(&config, Color::C1) {
                let region: NodeSet = cert.region.iter().copied().collect();
                let recheck = region_certificate(&config, &region, Color::C1);
                assert_eq!(cert, recheck);
                assert_eq!(cert.region_size + cert.outside_size, config.len());
            }
        }
    }

    #[test]
    fn sweep_is_sound_against_brute_force() {
        // Soundness on a full parameter grid: the sweep never claims
        // separation that exhaustive subset search denies. (Completeness is
        // inherently limited to the Lagrangian hull plus the direct
        // component candidates; the next test pins the clear-cut verdicts.)
        let configs = [two_lumps(), alternating_bar()];
        for config in &configs {
            for beta in [0.5, 1.0, 2.0, 4.0] {
                for delta in [0.05, 0.2, 0.4] {
                    let ours = is_separated(config, beta, delta).is_some();
                    let truth = brute_force_separated(config, beta, delta);
                    assert!(!ours || truth, "false positive at β={beta}, δ={delta}");
                }
            }
        }
    }

    #[test]
    fn sweep_is_complete_on_clear_cut_instances() {
        // Far from the feasibility boundary the sweep and brute force agree.
        let lumps = two_lumps();
        for (beta, delta) in [(2.0, 0.05), (4.0, 0.2), (2.0, 0.4)] {
            assert!(
                is_separated(&lumps, beta, delta).is_some(),
                "β={beta}, δ={delta}"
            );
            assert!(brute_force_separated(&lumps, beta, delta));
        }
        let alt = alternating_bar();
        for (beta, delta) in [(0.5, 0.05), (1.0, 0.1), (0.5, 0.2)] {
            assert!(
                is_separated(&alt, beta, delta).is_none(),
                "β={beta}, δ={delta}"
            );
            assert!(!brute_force_separated(&alt, beta, delta));
        }
    }

    #[test]
    fn extreme_multipliers_give_trivial_regions() {
        let config = two_lumps();
        // m → large: R = exactly the c1 particles.
        let pure = min_cut_region(&config, Color::C1, 1_000_000, 1);
        assert_eq!(pure.c1_in_region, 3);
        assert_eq!(pure.region_size, 3);
        // m → 0: boundary dominates; R collapses to ∅ or everything.
        let trivial = min_cut_region(&config, Color::C1, 1, 1_000_000);
        assert!(trivial.boundary_edges == 0);
    }
}
