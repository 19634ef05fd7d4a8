//! The abstract polymer model and the paper's two instantiations.

use sops_lattice::{region::Region, Edge, Node, NodeSet, DIRECTIONS};

use crate::EdgeSet;

/// An abstract polymer model: weights and pairwise compatibility over
/// connected edge sets `ξ ⊆ E(G_Δ)` (§4 of the paper).
pub trait PolymerModel {
    /// The real weight `w(ξ)` (may be negative, per the paper's footnote 3).
    fn weight(&self, polymer: &EdgeSet) -> f64;

    /// Whether two polymers are compatible (may appear together in a
    /// collection contributing to `Ξ`).
    fn compatible(&self, a: &EdgeSet, b: &EdgeSet) -> bool;

    /// Size of the closure `[ξ]`: the minimal edge set any polymer
    /// incompatible with `ξ` must intersect.
    fn closure_size(&self, polymer: &EdgeSet) -> usize;
}

/// The large-`γ` polymers of Theorem 13: **cut loops** — minimal edge cut
/// sets `∂S` around finite, connected, simply connected vertex sets `S`,
/// with weight `γ^{−|∂S|}`. Two loops are compatible when they share no
/// edges, so `[ξ] = ξ`.
///
/// These are the "loops" separating color domains: dual cycles of the
/// triangular lattice (the dual is hexagonal, so every loop has ≥ 6 edges,
/// which is what makes the Kotecký–Preiss condition hold with `c = 10⁻⁴`
/// once `γ > 4^{5/4}`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutLoopModel {
    gamma: f64,
}

impl CutLoopModel {
    /// Creates the model with same-color bias `γ`.
    ///
    /// # Panics
    ///
    /// Panics unless `γ > 1` (the regime where loop weights decay).
    #[must_use]
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 1.0, "cut-loop weights require γ > 1, got {gamma}");
        CutLoopModel { gamma }
    }

    /// The boundary `∂S` of a vertex set: edges with exactly one endpoint
    /// in `S`.
    #[must_use]
    pub(crate) fn boundary_of(source: &[Node]) -> EdgeSet {
        let set: NodeSet = source.iter().copied().collect();
        let mut edges = Vec::new();
        for &v in source {
            for d in DIRECTIONS {
                let u = v.neighbor(d);
                if !set.contains(u) {
                    edges.push(Edge::new(v, u));
                }
            }
        }
        EdgeSet::new(edges)
    }

    /// All loop polymers `∂S` for connected, simply connected `S` with
    /// `|S| ≤ max_source` and `S` contained in `region`. Deduplicated.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn polymers_in(&self, region: &Region, max_source: usize) -> Vec<EdgeSet> {
        let sources = connected_subsets(region, max_source);
        let mut out: Vec<EdgeSet> = sources
            .into_iter()
            .filter(|s| is_simply_connected(s))
            .map(|s| Self::boundary_of(&s))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All loop polymers containing `edge` with source size ≤ `max_source`
    /// — the polymers whose weights enter the Kotecký–Preiss sum at `edge`.
    ///
    /// `∂S ∋ (u, v)` iff `S` contains exactly one endpoint; we enumerate
    /// connected simply connected `S ∋ u, S ∌ v` and symmetrically.
    #[must_use]
    pub fn polymers_cutting(&self, edge: Edge, max_source: usize) -> Vec<EdgeSet> {
        let mut out = Vec::new();
        for (inside, outside) in [(edge.u(), edge.v()), (edge.v(), edge.u())] {
            for s in connected_sets_containing(inside, outside, max_source) {
                if is_simply_connected(&s) {
                    out.push(Self::boundary_of(&s));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl PolymerModel for CutLoopModel {
    fn weight(&self, polymer: &EdgeSet) -> f64 {
        self.gamma.powi(-(polymer.len() as i32))
    }

    fn compatible(&self, a: &EdgeSet, b: &EdgeSet) -> bool {
        !a.shares_edge_with(b)
    }

    fn closure_size(&self, polymer: &EdgeSet) -> usize {
        polymer.len() // [ξ] = ξ for edge-disjoint compatibility
    }
}

/// The high-temperature polymers of Theorem 15: **connected even
/// subgraphs** with weight `x^{|ξ|}`, compatible when vertex-disjoint, so
/// `[ξ]` is every edge touching a vertex of `ξ`.
///
/// For the paper's colored-configuration partition function the activity is
/// `x = (γ − 1)/(γ + 1)`; for `γ ∈ (79/81, 81/79)` we get `|x| < 1/80`,
/// which is what makes the condition hold with `a = 10⁻⁵`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvenSubgraphModel {
    x: f64,
}

impl EvenSubgraphModel {
    /// Creates the model with per-edge activity `x` (may be negative).
    #[must_use]
    pub fn new(x: f64) -> Self {
        EvenSubgraphModel { x }
    }

    /// The model at the paper's activity `x = (γ − 1)/(γ + 1)`.
    #[must_use]
    pub fn for_gamma(gamma: f64) -> Self {
        EvenSubgraphModel::new((gamma - 1.0) / (gamma + 1.0))
    }

    /// The per-edge activity.
    #[must_use]
    pub fn activity(&self) -> f64 {
        self.x
    }

    /// All polymers inside `region`: nonempty connected even subgraphs of
    /// the region's interior edge graph, enumerated through the cycle space.
    ///
    /// # Panics
    ///
    /// Panics if the region's cycle space has dimension > 20 (2^dim
    /// enumeration).
    #[must_use]
    pub fn polymers_in(&self, region: &Region) -> Vec<EdgeSet> {
        even_subgraphs(region)
            .into_iter()
            .filter(|s| !s.is_empty() && s.is_connected())
            .collect()
    }

    /// All simple cycles through `edge` of length ≤ `max_len` — the
    /// dominant polymers in the Kotecký–Preiss sum at `edge`. (Non-cycle
    /// even connected subgraphs have ≥ 6 edges and are covered by the
    /// geometric tail bound in [`crate::cluster::kp_tail_bound`].)
    #[must_use]
    pub fn cycles_through(&self, edge: Edge, max_len: usize) -> Vec<EdgeSet> {
        // DFS for simple paths v → u of length ≤ max_len − 1; closing the
        // path with `edge` forms the cycle.
        let (u, v) = (edge.u(), edge.v());
        let mut out = Vec::new();
        let mut path = vec![v];
        dfs_paths(v, u, max_len - 1, &mut path, &mut out);
        let mut cycles: Vec<EdgeSet> = out
            .into_iter()
            .map(|nodes| {
                let mut edges: Vec<Edge> =
                    nodes.windows(2).map(|w| Edge::new(w[0], w[1])).collect();
                edges.push(edge);
                EdgeSet::new(edges)
            })
            .collect();
        cycles.sort_unstable();
        cycles.dedup();
        cycles
    }
}

fn dfs_paths(
    cur: Node,
    target: Node,
    budget: usize,
    path: &mut Vec<Node>,
    out: &mut Vec<Vec<Node>>,
) {
    if budget == 0 {
        return;
    }
    for d in DIRECTIONS {
        let next = cur.neighbor(d);
        if next == target {
            if path.len() >= 2 {
                // ≥ 3 total edges once closed (no doubled edge).
                let mut full = path.clone();
                full.push(target);
                out.push(full);
            }
            continue;
        }
        if path.contains(&next) {
            continue;
        }
        path.push(next);
        dfs_paths(next, target, budget - 1, path, out);
        path.pop();
    }
}

impl PolymerModel for EvenSubgraphModel {
    fn weight(&self, polymer: &EdgeSet) -> f64 {
        self.x.powi(polymer.len() as i32)
    }

    fn compatible(&self, a: &EdgeSet, b: &EdgeSet) -> bool {
        !a.shares_vertex_with(b)
    }

    fn closure_size(&self, polymer: &EdgeSet) -> usize {
        polymer.vertex_closure().len()
    }
}

/// All even subgraphs (including empty and disconnected) of the region's
/// interior edge graph, via the cycle space.
///
/// # Panics
///
/// Panics if the cycle-space dimension exceeds 20.
#[must_use]
pub(crate) fn even_subgraphs(region: &Region) -> Vec<EdgeSet> {
    let edges = region.interior_edges();
    let vertices = region.nodes();
    let vindex = |n: Node| -> usize {
        vertices
            .iter()
            .position(|&v| v == n)
            .expect("edge endpoint is a region node")
    };

    // Spanning forest via union-find; non-tree edges seed fundamental cycles.
    let mut parent: Vec<usize> = (0..vertices.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut tree_adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); vertices.len()]; // (nbr, edge idx)
    let mut chords = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        let (a, b) = (vindex(e.u()), vindex(e.v()));
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra == rb {
            chords.push(i);
        } else {
            parent[ra] = rb;
            tree_adj[a].push((b, i));
            tree_adj[b].push((a, i));
        }
    }
    assert!(
        chords.len() <= 20,
        "cycle space dimension {} too large for exact enumeration",
        chords.len()
    );

    // Fundamental cycle of each chord as an edge bitmask.
    let tree_path = |from: usize, to: usize| -> u128 {
        // BFS in the spanning forest.
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; vertices.len()];
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = vec![false; vertices.len()];
        seen[from] = true;
        while let Some(u) = queue.pop_front() {
            if u == to {
                break;
            }
            for &(w, ei) in &tree_adj[u] {
                if !seen[w] {
                    seen[w] = true;
                    prev[w] = Some((u, ei));
                    queue.push_back(w);
                }
            }
        }
        let mut mask = 0u128;
        let mut cur = to;
        while let Some((p, ei)) = prev[cur] {
            mask |= 1 << ei;
            cur = p;
        }
        mask
    };
    assert!(edges.len() <= 128, "edge bitmask limited to 128 edges");
    let basis: Vec<u128> = chords
        .iter()
        .map(|&ci| {
            let e = edges[ci];
            (1u128 << ci) | tree_path(vindex(e.u()), vindex(e.v()))
        })
        .collect();

    // Enumerate the span of the basis.
    let mut out = Vec::with_capacity(1 << basis.len());
    for combo in 0u32..(1 << basis.len()) {
        let mut mask = 0u128;
        for (k, b) in basis.iter().enumerate() {
            if combo & (1 << k) != 0 {
                mask ^= b;
            }
        }
        let set: EdgeSet = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        out.push(set);
    }
    out
}

/// All connected subsets of the region's nodes with size ≤ `max_size`.
#[cfg(test)]
fn connected_subsets(region: &Region, max_size: usize) -> Vec<Vec<Node>> {
    let mut out: std::collections::HashSet<Vec<Node>> = std::collections::HashSet::new();
    let mut level: std::collections::HashSet<Vec<Node>> = region.iter().map(|n| vec![n]).collect();
    out.extend(level.iter().cloned());
    for _ in 1..max_size {
        let mut next = std::collections::HashSet::new();
        for s in &level {
            let set: NodeSet = s.iter().copied().collect();
            for &n in s {
                for d in DIRECTIONS {
                    let cand = n.neighbor(d);
                    if region.contains(cand) && !set.contains(cand) {
                        let mut grown = s.clone();
                        grown.push(cand);
                        grown.sort_unstable();
                        next.insert(grown);
                    }
                }
            }
        }
        out.extend(next.iter().cloned());
        level = next;
    }
    out.into_iter().collect()
}

/// All connected vertex sets containing `inside`, excluding `outside`,
/// with size ≤ `max_size`.
fn connected_sets_containing(inside: Node, outside: Node, max_size: usize) -> Vec<Vec<Node>> {
    let mut out: std::collections::HashSet<Vec<Node>> = std::collections::HashSet::new();
    let mut level: std::collections::HashSet<Vec<Node>> =
        std::collections::HashSet::from([vec![inside]]);
    out.extend(level.iter().cloned());
    for _ in 1..max_size {
        let mut next = std::collections::HashSet::new();
        for s in &level {
            let set: NodeSet = s.iter().copied().collect();
            for &n in s {
                for d in DIRECTIONS {
                    let cand = n.neighbor(d);
                    if cand != outside && !set.contains(cand) {
                        let mut grown = s.clone();
                        grown.push(cand);
                        grown.sort_unstable();
                        next.insert(grown);
                    }
                }
            }
        }
        out.extend(next.iter().cloned());
        level = next;
    }
    out.into_iter().collect()
}

/// Whether a connected vertex set is simply connected (its complement in
/// the infinite lattice is connected, i.e. it encloses no holes).
fn is_simply_connected(nodes: &[Node]) -> bool {
    let set: NodeSet = nodes.iter().copied().collect();
    let (min_x, max_x) = nodes.iter().fold((i32::MAX, i32::MIN), |(lo, hi), n| {
        (lo.min(n.x), hi.max(n.x))
    });
    let (min_y, max_y) = nodes.iter().fold((i32::MAX, i32::MIN), |(lo, hi), n| {
        (lo.min(n.y), hi.max(n.y))
    });
    let (lo_x, hi_x, lo_y, hi_y) = (min_x - 1, max_x + 1, min_y - 1, max_y + 1);

    // Flood the complement from the margin; count reached complement nodes.
    let mut outside = NodeSet::new();
    let mut stack = Vec::new();
    let start = Node::new(lo_x, lo_y);
    outside.insert(start);
    stack.push(start);
    let in_box = |n: Node| n.x >= lo_x && n.x <= hi_x && n.y >= lo_y && n.y <= hi_y;
    while let Some(n) = stack.pop() {
        for m in n.neighbors() {
            if in_box(m) && !set.contains(m) && outside.insert(m) {
                stack.push(m);
            }
        }
    }
    let box_nodes = ((hi_x - lo_x + 1) * (hi_y - lo_y + 1)) as usize;
    outside.len() == box_nodes - nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_of_single_vertex_is_a_hexagon_cut() {
        let b = CutLoopModel::boundary_of(&[Node::ORIGIN]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn boundary_of_domino_has_ten_edges() {
        let b = CutLoopModel::boundary_of(&[Node::ORIGIN, Node::new(1, 0)]);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn cut_loops_through_an_edge() {
        let model = CutLoopModel::new(6.0);
        let edge = Edge::new(Node::ORIGIN, Node::new(1, 0));
        let loops = model.polymers_cutting(edge, 2);
        // Sources: {u}, {v}, and {u, w} / {v, w} for each of the 5 valid
        // neighbors w ≠ other endpoint: 2 + 2·5 = 12 sources, but ∂S values
        // may coincide only if sources coincide (they don't here).
        assert_eq!(loops.len(), 12);
        for l in &loops {
            assert!(l.contains(edge));
            assert!(l.len() == 6 || l.len() == 10);
            assert!((model.weight(l) - 6.0f64.powi(-(l.len() as i32))).abs() < 1e-15);
        }
    }

    #[test]
    fn cut_loop_compatibility_is_edge_disjointness() {
        let model = CutLoopModel::new(6.0);
        let a = CutLoopModel::boundary_of(&[Node::ORIGIN]);
        let b = CutLoopModel::boundary_of(&[Node::new(1, 0)]);
        let far = CutLoopModel::boundary_of(&[Node::new(10, 10)]);
        assert!(!model.compatible(&a, &b)); // share the edge between them? They share edge (0,0)-(1,0) ✓
        assert!(model.compatible(&a, &far));
        assert_eq!(model.closure_size(&a), 6);
    }

    #[test]
    fn simply_connected_detection() {
        assert!(is_simply_connected(&[Node::ORIGIN]));
        let ring: Vec<Node> = Node::ORIGIN.neighbors().to_vec();
        assert!(!is_simply_connected(&ring));
    }

    #[test]
    fn even_subgraphs_of_small_hexagon() {
        // Hexagon radius 1: 7 vertices, 12 interior edges, cycle dimension 6.
        let region = Region::hexagon(1);
        let all = even_subgraphs(&region);
        assert_eq!(all.len(), 64);
        assert!(all.iter().all(EdgeSet::is_even));
        // The empty subgraph is included once.
        assert_eq!(all.iter().filter(|s| s.is_empty()).count(), 1);
        // Exactly 6 triangles exist (the 6 faces touching the center).
        assert_eq!(all.iter().filter(|s| s.len() == 3).count(), 6);
    }

    #[test]
    fn even_polymers_are_connected_even_subgraphs() {
        let region = Region::hexagon(1);
        let model = EvenSubgraphModel::for_gamma(81.0 / 79.0);
        let polymers = model.polymers_in(&region);
        assert!(!polymers.is_empty());
        for p in &polymers {
            assert!(p.is_even() && p.is_connected() && !p.is_empty());
        }
        // Weight of a triangle is x³ with x = 1/80.
        let tri = polymers.iter().find(|p| p.len() == 3).unwrap();
        assert!((model.weight(tri) - (1.0f64 / 80.0).powi(3)).abs() < 1e-18);
        assert!((model.activity() - 1.0 / 80.0).abs() < 1e-15);
    }

    #[test]
    fn cycles_through_edge_by_length() {
        let model = EvenSubgraphModel::new(0.1);
        let edge = Edge::new(Node::ORIGIN, Node::new(1, 0));
        let triangles = model.cycles_through(edge, 3);
        assert_eq!(triangles.len(), 2); // one face above, one below
        let up_to_4 = model.cycles_through(edge, 4);
        assert!(up_to_4.len() > triangles.len());
        for c in &up_to_4 {
            assert!(c.contains(edge));
            assert!(c.is_even() && c.is_connected());
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn even_compatibility_is_vertex_disjointness() {
        let model = EvenSubgraphModel::new(0.1);
        let e1 = Edge::new(Node::ORIGIN, Node::new(1, 0));
        let e2 = Edge::new(Node::new(1, 0), Node::new(2, 0));
        let c1 = model.cycles_through(e1, 3)[0].clone();
        let c2 = model.cycles_through(e2, 3)[0].clone();
        // Both touch (1,0): incompatible.
        assert!(!model.compatible(&c1, &c2));
        let far = Edge::new(Node::new(20, 0), Node::new(21, 0));
        let c3 = model.cycles_through(far, 3)[0].clone();
        assert!(model.compatible(&c1, &c3));
        // Closure of a triangle: 15 edges (3 vertices × 6 − 3 shared).
        assert_eq!(model.closure_size(&c1), 15);
    }

    #[test]
    #[should_panic(expected = "γ > 1")]
    fn cut_loop_model_rejects_small_gamma() {
        let _ = CutLoopModel::new(0.9);
    }
}
