//! Canonical finite edge sets, the carrier type for polymers.

use sops_lattice::{Edge, Node};

/// A finite set of lattice edges in canonical sorted order.
///
/// Polymers in both of the paper's models are connected edge sets; keeping
/// them sorted makes equality, hashing, and disjointness checks cheap and
/// deterministic.
///
/// # Example
///
/// ```
/// use sops_lattice::{Edge, Node};
/// use sops_polymer::EdgeSet;
///
/// let a = Node::new(0, 0);
/// let tri = EdgeSet::new(vec![
///     Edge::new(a, Node::new(1, 0)),
///     Edge::new(Node::new(1, 0), Node::new(0, 1)),
///     Edge::new(Node::new(0, 1), a),
/// ]);
/// assert_eq!(tri.len(), 3);
/// assert!(tri.is_connected());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeSet {
    edges: Vec<Edge>,
}

impl EdgeSet {
    /// Creates an edge set, sorting and deduplicating.
    #[must_use]
    pub fn new(mut edges: Vec<Edge>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        EdgeSet { edges }
    }

    /// Number of edges `|ξ|`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the set is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges in sorted order.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Whether `edge` is in the set (binary search).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn contains(&self, edge: Edge) -> bool {
        self.edges.binary_search(&edge).is_ok()
    }

    /// The distinct endpoints of the edges.
    #[must_use]
    pub(crate) fn vertices(&self) -> Vec<Node> {
        let mut vs: Vec<Node> = self.edges.iter().flat_map(|e| e.endpoints()).collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Whether the two sets share an edge.
    #[must_use]
    pub(crate) fn shares_edge_with(&self, other: &EdgeSet) -> bool {
        // Merge-scan over the sorted edge lists.
        let (mut i, mut j) = (0, 0);
        while i < self.edges.len() && j < other.edges.len() {
            match self.edges[i].cmp(&other.edges[j]) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        false
    }

    /// Whether the two sets share a vertex.
    #[must_use]
    pub(crate) fn shares_vertex_with(&self, other: &EdgeSet) -> bool {
        let vs = self.vertices();
        other
            .edges
            .iter()
            .flat_map(|e| e.endpoints())
            .any(|v| vs.binary_search(&v).is_ok())
    }

    /// Whether the edge set is connected (as a subgraph).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.edges.is_empty() {
            return true;
        }
        let vs = self.vertices();
        let index = |n: Node| vs.binary_search(&n).expect("endpoint is a vertex");
        let mut adj = vec![Vec::new(); vs.len()];
        for e in &self.edges {
            let (u, v) = (index(e.u()), index(e.v()));
            adj[u].push(v);
            adj[v].push(u);
        }
        let mut seen = vec![false; vs.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == vs.len()
    }

    /// Whether every vertex has even degree — the defining property of the
    /// high-temperature polymers.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn is_even(&self) -> bool {
        let vs = self.vertices();
        let mut deg = vec![0u32; vs.len()];
        for e in &self.edges {
            for n in e.endpoints() {
                deg[vs.binary_search(&n).expect("endpoint is a vertex")] += 1;
            }
        }
        deg.iter().all(|d| d % 2 == 0)
    }

    /// The set of edges sharing at least one endpoint with this set — the
    /// closure `[ξ]` of the even-polymer model.
    #[must_use]
    pub(crate) fn vertex_closure(&self) -> EdgeSet {
        let mut out = Vec::new();
        for v in self.vertices() {
            for d in sops_lattice::DIRECTIONS {
                out.push(Edge::new(v, v.neighbor(d)));
            }
        }
        EdgeSet::new(out)
    }
}

impl FromIterator<Edge> for EdgeSet {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        EdgeSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_lattice::Direction;

    fn path(len: usize) -> EdgeSet {
        (0..len)
            .map(|x| Edge::new(Node::new(x as i32, 0), Node::new(x as i32 + 1, 0)))
            .collect()
    }

    #[test]
    fn construction_dedups_and_sorts() {
        let e = Edge::from_node_dir(Node::new(0, 0), Direction::E);
        let set = EdgeSet::new(vec![e, e]);
        assert_eq!(set.len(), 1);
        assert!(set.contains(e));
    }

    #[test]
    fn vertices_of_path() {
        let p = path(3);
        assert_eq!(p.vertices().len(), 4);
        assert!(p.is_connected());
        assert!(!p.is_even()); // endpoints have degree 1
    }

    #[test]
    fn sharing_predicates() {
        let p1 = path(2); // edges on x = 0..2
        let far: EdgeSet = vec![Edge::new(Node::new(10, 0), Node::new(11, 0))]
            .into_iter()
            .collect();
        assert!(!p1.shares_edge_with(&far));
        assert!(!p1.shares_vertex_with(&far));

        let touching: EdgeSet = vec![Edge::new(Node::new(2, 0), Node::new(3, 0))]
            .into_iter()
            .collect();
        assert!(!p1.shares_edge_with(&touching));
        assert!(p1.shares_vertex_with(&touching));

        let overlapping = path(1);
        assert!(p1.shares_edge_with(&overlapping));
    }

    #[test]
    fn disconnected_edge_set_detected() {
        let set: EdgeSet = vec![
            Edge::new(Node::new(0, 0), Node::new(1, 0)),
            Edge::new(Node::new(5, 5), Node::new(6, 5)),
        ]
        .into_iter()
        .collect();
        assert!(!set.is_connected());
    }

    #[test]
    fn triangle_is_even_and_closure_is_larger() {
        let a = Node::new(0, 0);
        let b = Node::new(1, 0);
        let c = Node::new(0, 1);
        let tri: EdgeSet = vec![Edge::new(a, b), Edge::new(b, c), Edge::new(c, a)]
            .into_iter()
            .collect();
        assert!(tri.is_even());
        let closure = tri.vertex_closure();
        // 3 vertices × 6 incident edges, triangle edges counted once each:
        // 18 − 3 duplicates = 15 distinct edges.
        assert_eq!(closure.len(), 15);
        for e in tri.edges() {
            assert!(closure.contains(*e));
        }
    }

    #[test]
    fn empty_set_is_connected_and_even() {
        let empty = EdgeSet::new(Vec::new());
        assert!(empty.is_connected());
        assert!(empty.is_even());
        assert!(empty.is_empty());
    }
}
