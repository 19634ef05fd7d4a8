//! Interface structure between color classes.
//!
//! Theorem 14's proof adapts the *bridging* technique of Miracle, Pascoe,
//! and Randall, which controls the structure of interfaces between the two
//! color classes. This module extracts that structure from configurations:
//! the heterogeneous edge set, its connected components (distinct
//! interfaces), and the boundary walk of the whole system — giving direct
//! observables for how "bridged" a configuration is.

use sops_core::Configuration;
use sops_lattice::{Direction, Edge, Node};

/// All heterogeneous edges of the configuration (each once).
#[must_use]
pub(crate) fn hetero_edges(config: &Configuration) -> Vec<Edge> {
    let mut out = Vec::new();
    for (node, color) in config.particles() {
        for d in [Direction::E, Direction::NE, Direction::NW] {
            let m = node.neighbor(d);
            if let Some(c) = config.color_at(m) {
                if c != color {
                    out.push(Edge::new(node, m));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Connected components of the heterogeneous edge set, where two interface
/// edges are adjacent when they share an endpoint. Returns component sizes
/// in decreasing order.
///
/// A well-separated configuration has **one** dominant interface; an
/// integrated one shatters into many short ones.
#[must_use]
pub(crate) fn interface_components(config: &Configuration) -> Vec<usize> {
    let edges = hetero_edges(config);
    let n = edges.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    // Index edges by endpoint for union.
    let mut by_node: std::collections::HashMap<Node, Vec<usize>> = std::collections::HashMap::new();
    for (i, e) in edges.iter().enumerate() {
        for v in e.endpoints() {
            by_node.entry(v).or_default().push(i);
        }
    }
    for group in by_node.values() {
        for w in group.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if a != b {
                parent[a] = b;
            }
        }
    }
    let mut sizes: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for i in 0..n {
        *sizes.entry(find(&mut parent, i)).or_insert(0) += 1;
    }
    let mut out: Vec<usize> = sizes.into_values().collect();
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

/// Fraction of the interface carried by its largest component (1.0 for a
/// single clean interface; → 0 for shattered interfaces; 1.0 by convention
/// when there is no heterogeneous edge at all).
#[must_use]
pub(crate) fn interface_coherence(config: &Configuration) -> f64 {
    let comps = interface_components(config);
    let total: usize = comps.iter().sum();
    if total == 0 {
        1.0
    } else {
        comps[0] as f64 / total as f64
    }
}

/// The outer boundary walk of a connected configuration as an explicit node
/// sequence (the closed walk `P` of §2.2; its length is the perimeter for
/// hole-free configurations).
///
/// # Panics
///
/// Panics if the configuration is disconnected.
#[must_use]
pub(crate) fn boundary_walk(config: &Configuration) -> Vec<Node> {
    assert!(config.is_connected(), "boundary walk requires connectivity");
    if config.len() == 1 {
        let (node, _) = config.particles().next().expect("nonempty");
        return vec![node];
    }
    let start = config
        .particles()
        .map(|(n, _)| n)
        .min_by_key(|n| (n.x, n.y))
        .expect("nonempty");
    let next_from = |cur: Node, back: Direction| -> Direction {
        for k in 1..=6 {
            let d = back.rotated_by(k);
            if config.is_occupied(cur.neighbor(d)) {
                return d;
            }
        }
        unreachable!("connected configuration with n ≥ 2")
    };
    let first = next_from(start, Direction::W);
    let mut walk = vec![start];
    let mut cur = start.neighbor(first);
    let mut back = first.opposite();
    loop {
        let d = next_from(cur, back);
        if cur == start && d == first {
            break;
        }
        walk.push(cur);
        cur = cur.neighbor(d);
        back = d.opposite();
    }
    walk
}

/// Number of color changes encountered along the outer boundary walk — the
/// number of interface endpoints on the boundary, a direct bridging
/// statistic (a `(β, δ)`-separated configuration crosses colors O(1) times
/// on its boundary; an integrated one Θ(boundary length) times).
#[must_use]
pub(crate) fn boundary_color_changes(config: &Configuration) -> usize {
    let walk = boundary_walk(config);
    if walk.len() < 2 {
        return 0;
    }
    let color = |n: Node| config.color_at(n).expect("walk visits occupied nodes");
    let mut changes = 0;
    for i in 0..walk.len() {
        let a = color(walk[i]);
        let b = color(walk[(i + 1) % walk.len()]);
        changes += usize::from(a != b);
    }
    changes
}

/// Summary of the interface structure of a configuration, as [`summarize`]
/// returns it to the `interface` bin.
#[derive(Clone, Debug, PartialEq)]
pub struct InterfaceSummary {
    /// Total heterogeneous edges `h(σ)`.
    pub total_length: usize,
    /// Number of connected interface components.
    pub components: usize,
    /// Fraction of the interface in the largest component.
    pub coherence: f64,
    /// Color changes along the outer boundary walk.
    pub boundary_crossings: usize,
}

/// Computes the full interface summary.
#[must_use]
pub fn summarize(config: &Configuration) -> InterfaceSummary {
    let comps = interface_components(config);
    InterfaceSummary {
        total_length: comps.iter().sum(),
        components: comps.len(),
        coherence: interface_coherence(config),
        boundary_crossings: boundary_color_changes(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_core::{construct, Color, Configuration};

    fn halfplane_hexagon(n: usize) -> Configuration {
        Configuration::new(construct::bicolor_halfplane(construct::hexagonal_spiral(n))).unwrap()
    }

    fn alternating_hexagon(n: usize) -> Configuration {
        Configuration::new(construct::bicolor_alternating(construct::hexagonal_spiral(
            n,
        )))
        .unwrap()
    }

    #[test]
    fn hetero_edges_match_incremental_count() {
        for config in [halfplane_hexagon(40), alternating_hexagon(40)] {
            assert_eq!(
                hetero_edges(&config).len() as u64,
                config.hetero_edge_count()
            );
        }
    }

    #[test]
    fn halfplane_interface_is_coherent() {
        let config = halfplane_hexagon(50);
        let s = summarize(&config);
        assert_eq!(s.components, 1, "straight interface is one component");
        assert!((s.coherence - 1.0).abs() < 1e-12);
        // The boundary crosses colors exactly twice (once per side).
        assert_eq!(s.boundary_crossings, 2);
    }

    #[test]
    fn alternating_interface_is_shattered() {
        let config = alternating_hexagon(50);
        let s = summarize(&config);
        // Nearly every edge is heterogeneous, and it is all one giant
        // tangled component — but boundary crossings are numerous.
        assert!(s.total_length as u64 == config.hetero_edge_count());
        assert!(s.boundary_crossings > 10);
    }

    #[test]
    fn two_lump_bar_has_single_short_interface() {
        let config = Configuration::new([
            (sops_lattice::Node::new(0, 0), Color::C1),
            (sops_lattice::Node::new(1, 0), Color::C1),
            (sops_lattice::Node::new(2, 0), Color::C2),
            (sops_lattice::Node::new(3, 0), Color::C2),
        ])
        .unwrap();
        let s = summarize(&config);
        assert_eq!(s.total_length, 1);
        assert_eq!(s.components, 1);
        assert_eq!(s.boundary_crossings, 2);
    }

    #[test]
    fn monochromatic_interface_is_empty() {
        let config = Configuration::new(
            construct::hexagonal_spiral(20)
                .into_iter()
                .map(|n| (n, Color::C1)),
        )
        .unwrap();
        let s = summarize(&config);
        assert_eq!(s.total_length, 0);
        assert_eq!(s.components, 0);
        assert_eq!(s.coherence, 1.0);
        assert_eq!(s.boundary_crossings, 0);
    }

    #[test]
    fn boundary_walk_length_matches_configuration() {
        for n in [7usize, 19, 37] {
            let config = halfplane_hexagon(n);
            let walk = boundary_walk(&config);
            assert_eq!(walk.len() as u64, config.boundary_walk_length());
            // Every consecutive pair is adjacent, including the wraparound.
            for i in 0..walk.len() {
                assert!(walk[i].is_adjacent(walk[(i + 1) % walk.len()]));
            }
        }
    }

    #[test]
    fn single_particle_walk() {
        let config = Configuration::new([(sops_lattice::Node::new(2, 2), Color::C1)]).unwrap();
        assert_eq!(boundary_walk(&config).len(), 1);
        assert_eq!(boundary_color_changes(&config), 0);
    }
}
