//! Undirected lattice edges in canonical orientation.

use core::fmt;

use crate::{Direction, Node};

/// An undirected edge of `G_Δ` between two adjacent nodes.
///
/// The endpoints are stored in canonical order (the lexicographically smaller
/// node first), so two `Edge` values compare equal exactly when they denote
/// the same lattice edge regardless of construction order. This is what lets
/// polymer edge-sets and configuration edge counts use plain equality.
///
/// # Example
///
/// ```
/// use sops_lattice::{Edge, Node};
///
/// let a = Node::new(0, 0);
/// let b = Node::new(1, 0);
/// assert_eq!(Edge::new(a, b), Edge::new(b, a));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    u: Node,
    v: Node,
}

impl Edge {
    /// Creates the edge between two adjacent nodes.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not adjacent in `G_Δ`.
    #[must_use]
    pub fn new(a: Node, b: Node) -> Self {
        assert!(
            a.is_adjacent(b),
            "nodes {a} and {b} are not adjacent in the triangular lattice"
        );
        if a <= b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The edge leaving `node` in direction `dir`.
    #[inline]
    #[must_use]
    pub fn from_node_dir(node: Node, dir: Direction) -> Self {
        Edge::new(node, node.neighbor(dir))
    }

    /// The canonically smaller endpoint.
    #[inline]
    #[must_use]
    pub const fn u(self) -> Node {
        self.u
    }

    /// The canonically larger endpoint.
    #[inline]
    #[must_use]
    pub const fn v(self) -> Node {
        self.v
    }

    /// Both endpoints as an array.
    #[inline]
    #[must_use]
    pub const fn endpoints(self) -> [Node; 2] {
        [self.u, self.v]
    }

    /// The endpoint that is not `node`, or `None` if `node` is not an endpoint.
    #[must_use]
    pub fn other(self, node: Node) -> Option<Node> {
        if node == self.u {
            Some(self.v)
        } else if node == self.v {
            Some(self.u)
        } else {
            None
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}—{}", self.u, self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DIRECTIONS;

    #[test]
    fn construction_is_order_independent() {
        let a = Node::new(3, 4);
        for d in DIRECTIONS {
            let b = a.neighbor(d);
            assert_eq!(Edge::new(a, b), Edge::new(b, a));
        }
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn non_adjacent_nodes_panic() {
        let _ = Edge::new(Node::new(0, 0), Node::new(2, 0));
    }

    #[test]
    fn other_endpoint() {
        let a = Node::new(0, 0);
        let b = Node::new(0, 1);
        let e = Edge::new(a, b);
        assert_eq!(e.other(a), Some(b));
        assert_eq!(e.other(b), Some(a));
        assert_eq!(e.other(Node::new(5, 5)), None);
    }

    #[test]
    fn each_node_has_six_distinct_incident_edges() {
        let n = Node::new(-2, 5);
        let mut set = std::collections::HashSet::new();
        for d in DIRECTIONS {
            set.insert(Edge::from_node_dir(n, d));
        }
        assert_eq!(set.len(), 6);
        assert!(set.iter().all(|e| e.other(n).is_some()));
    }
}
