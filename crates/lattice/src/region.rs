//! Finite lattice regions.
//!
//! The cluster-expansion machinery of the paper (Theorem 11) works with a
//! finite edge region `Λ ⊆ E(G_Δ)` and its boundary `∂Λ`; the experiment
//! harness needs node regions to seed initial configurations. This module
//! provides both: node regions (hexagons, parallelograms, lines) and the
//! derived edge sets.

use crate::{Edge, Node, NodeSet, DIRECTIONS};

/// A finite set of lattice nodes with convenience constructors for the shapes
/// used throughout the paper: hexagons (Lemma 2's minimal-perimeter shapes),
/// parallelograms (polymer regions Λ), and lines (the irreducibility proof's
/// canonical configuration).
///
/// # Example
///
/// ```
/// use sops_lattice::region::Region;
///
/// let hex = Region::hexagon(2);
/// assert_eq!(hex.len(), 19); // 3·2² + 3·2 + 1
/// let para = Region::parallelogram(3, 2);
/// assert_eq!(para.len(), 6);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Region {
    nodes: Vec<Node>,
    set: NodeSet,
}

impl Region {
    /// Creates a region from any iterator of nodes, deduplicating.
    pub fn from_nodes<I: IntoIterator<Item = Node>>(nodes: I) -> Self {
        let mut set = NodeSet::new();
        let mut list = Vec::new();
        for n in nodes {
            if set.insert(n) {
                list.push(n);
            }
        }
        Region { nodes: list, set }
    }

    /// The regular hexagon of side length `radius` centered at the origin:
    /// all nodes at hex distance ≤ `radius`. Contains `3r² + 3r + 1` nodes —
    /// the minimal-perimeter shape of Lemma 2 / Figure 4 of the paper.
    #[must_use]
    pub fn hexagon(radius: u32) -> Self {
        let r = radius as i32;
        let mut nodes = Vec::new();
        for x in -r..=r {
            for y in (-r).max(-x - r)..=r.min(-x + r) {
                nodes.push(Node::new(x, y));
            }
        }
        Region::from_nodes(nodes)
    }

    /// The `width × height` parallelogram with corner at the origin, spanned
    /// by the `E` and `NE` axes.
    #[must_use]
    pub fn parallelogram(width: u32, height: u32) -> Self {
        let mut nodes = Vec::new();
        for y in 0..height as i32 {
            for x in 0..width as i32 {
                nodes.push(Node::new(x, y));
            }
        }
        Region::from_nodes(nodes)
    }

    /// Number of nodes in the region.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the region is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the region contains `node`.
    #[inline]
    #[must_use]
    pub fn contains(&self, node: Node) -> bool {
        self.set.contains(node)
    }

    /// The nodes of the region in insertion order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates over the nodes of the region.
    pub fn iter(&self) -> impl Iterator<Item = Node> + '_ {
        self.nodes.iter().copied()
    }

    /// All lattice edges with **both** endpoints in the region.
    ///
    /// This is the edge set `E_P` ("all edges on or inside `P`") used for the
    /// even-polymer region of the high-temperature expansion.
    #[must_use]
    pub fn interior_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for &n in &self.nodes {
            // Take each edge once from its lexicographically smaller endpoint.
            for d in DIRECTIONS {
                let m = n.neighbor(d);
                if self.set.contains(m) && n < m {
                    edges.push(Edge::new(n, m));
                }
            }
        }
        edges
    }

    /// All lattice edges with exactly one endpoint in the region — the edge
    /// boundary `∂Λ` of Theorem 11.
    #[must_use]
    pub fn boundary_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for &n in &self.nodes {
            for d in DIRECTIONS {
                let m = n.neighbor(d);
                if !self.set.contains(m) {
                    edges.push(Edge::new(n, m));
                }
            }
        }
        edges
    }

    /// Whether the region is connected in `G_Δ`.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = NodeSet::with_capacity(self.nodes.len());
        let mut stack = vec![self.nodes[0]];
        seen.insert(self.nodes[0]);
        while let Some(n) = stack.pop() {
            for m in n.neighbors() {
                if self.set.contains(m) && seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        seen.len() == self.nodes.len()
    }

    /// This region translated by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: i32, dy: i32) -> Self {
        Region::from_nodes(self.nodes.iter().map(|n| n.translated(dx, dy)))
    }
}

impl FromIterator<Node> for Region {
    fn from_iter<T: IntoIterator<Item = Node>>(iter: T) -> Self {
        Region::from_nodes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hexagon_sizes_match_centered_hexagonal_numbers() {
        for r in 0..6u32 {
            let expect = (3 * r * r + 3 * r + 1) as usize;
            assert_eq!(Region::hexagon(r).len(), expect, "radius {r}");
        }
    }

    #[test]
    fn hexagon_is_connected_and_distance_bounded() {
        let hex = Region::hexagon(3);
        assert!(hex.is_connected());
        assert!(hex.iter().all(|n| n.distance(Node::ORIGIN) <= 3));
        // Nothing at distance 4 sneaks in, nothing at distance 3 is missing.
        assert_eq!(
            hex.iter().filter(|n| n.distance(Node::ORIGIN) == 3).count(),
            18
        );
    }

    #[test]
    fn parallelogram_edges() {
        // 2×2 rhombus: nodes (0,0),(1,0),(0,1),(1,1).
        // Interior edges: 2 horizontal + 2 vertical + 1 diagonal (1,0)-(0,1).
        let p = Region::parallelogram(2, 2);
        assert_eq!(p.interior_edges().len(), 5);
        assert!(p.is_connected());
    }

    #[test]
    fn boundary_edges_count_for_single_node() {
        let r = Region::from_nodes([Node::ORIGIN]);
        assert_eq!(r.boundary_edges().len(), 6);
        assert_eq!(r.interior_edges().len(), 0);
    }

    #[test]
    fn interior_plus_boundary_partition_incident_edges() {
        // Every (node, direction) pair is either an interior edge (counted
        // once from each side) or a boundary edge: 6·|V| = 2·|E_int| + |∂Λ|.
        let hex = Region::hexagon(2);
        let e_int = hex.interior_edges().len();
        let e_bd = hex.boundary_edges().len();
        assert_eq!(6 * hex.len(), 2 * e_int + e_bd);
    }

    #[test]
    fn disconnected_region_detected() {
        let r = Region::from_nodes([Node::new(0, 0), Node::new(5, 5)]);
        assert!(!r.is_connected());
    }

    #[test]
    fn translation_preserves_structure() {
        let hex = Region::hexagon(2);
        let t = hex.translated(10, -4);
        assert_eq!(t.len(), hex.len());
        assert_eq!(t.interior_edges().len(), hex.interior_edges().len());
        assert!(t.contains(Node::new(10, -4)));
    }

    #[test]
    fn dedup_on_construction() {
        let r = Region::from_nodes([Node::ORIGIN, Node::ORIGIN, Node::new(1, 0)]);
        assert_eq!(r.len(), 2);
    }
}
