//! A from-scratch maximum-flow / minimum-cut solver (Dinic's algorithm).
//!
//! Used by [`crate::separation`] to minimize `boundary + m · misplaced`
//! over all particle subsets, which is an s-t minimum cut in a graph with
//! unit arcs between adjacent particles and multiplier-weighted terminal
//! arcs. Capacities are integers (`u64`); the separation module scales its
//! multipliers accordingly.

/// A directed flow network with integer capacities.
#[derive(Clone, Debug)]
pub(crate) struct FlowNetwork {
    // Edge arrays (forward and reverse arcs interleaved: arc i's reverse is i ^ 1).
    to: Vec<usize>,
    cap: Vec<u64>,
    head: Vec<Vec<usize>>, // per-node arc indices
    n: usize,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no arcs.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        FlowNetwork {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
            n,
        }
    }

    /// Adds a directed arc `u → v` with capacity `capacity` (and a zero-
    /// capacity residual reverse arc).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub(crate) fn add_edge(&mut self, u: usize, v: usize, capacity: u64) {
        assert!(u < self.n && v < self.n, "arc endpoints out of range");
        let idx = self.to.len();
        self.to.push(v);
        self.cap.push(capacity);
        self.head[u].push(idx);
        self.to.push(u);
        self.cap.push(0);
        self.head[v].push(idx + 1);
    }

    /// Adds an undirected edge (capacity in both directions).
    pub(crate) fn add_undirected_edge(&mut self, u: usize, v: usize, capacity: u64) {
        assert!(u < self.n && v < self.n, "edge endpoints out of range");
        let idx = self.to.len();
        self.to.push(v);
        self.cap.push(capacity);
        self.head[u].push(idx);
        self.to.push(u);
        self.cap.push(capacity);
        self.head[v].push(idx + 1);
    }

    /// Computes the maximum `s → t` flow, mutating residual capacities.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub(crate) fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0;
        loop {
            // BFS level graph on residual arcs.
            let mut level = vec![usize::MAX; self.n];
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &a in &self.head[u] {
                    let v = self.to[a];
                    if self.cap[a] > 0 && level[v] == usize::MAX {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if level[t] == usize::MAX {
                return flow;
            }
            // DFS blocking flow with per-node arc cursors.
            let mut iter = vec![0usize; self.n];
            loop {
                let pushed = self.dfs(s, t, u64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: u64, level: &[usize], iter: &mut [usize]) -> u64 {
        if u == t {
            return limit;
        }
        while iter[u] < self.head[u].len() {
            let a = self.head[u][iter[u]];
            let v = self.to[a];
            if self.cap[a] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[a]), level, iter);
                if pushed > 0 {
                    self.cap[a] -= pushed;
                    self.cap[a ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Computes the minimum `s`/`t` cut: returns `(cut value, source side)`
    /// where `source_side[v]` is `true` for nodes reachable from `s` in the
    /// final residual graph.
    ///
    /// Call this on a fresh network: it saturates residual capacities, and
    /// the reported value is the flow pushed *by this call*.
    pub(crate) fn min_cut(&mut self, s: usize, t: usize) -> (u64, Vec<bool>) {
        let value = self.max_flow(s, t);
        let mut side = vec![false; self.n];
        side[s] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for &a in &self.head[u] {
                let v = self.to[a];
                if self.cap[a] > 0 && !side[v] {
                    side[v] = true;
                    stack.push(v);
                }
            }
        }
        (value, side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two paths of capacity 2 and 3 sharing no edges, plus a
        // cross edge that enables augmenting paths through both.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn min_cut_separates_terminals_and_matches_capacity() {
        let mut net = FlowNetwork::new(6);
        // Bipartite-ish gadget.
        net.add_edge(0, 1, 10);
        net.add_edge(0, 2, 10);
        net.add_edge(1, 3, 4);
        net.add_edge(2, 3, 1);
        net.add_edge(1, 4, 2);
        net.add_edge(2, 4, 6);
        net.add_edge(3, 5, 9);
        net.add_edge(4, 5, 5);
        let (value, side) = net.min_cut(0, 5);
        assert!(side[0] && !side[5]);
        // Cut value equals total capacity of arcs from source side to sink side.
        // Recompute by brute force over all 2^4 partitions of middle nodes.
        let caps = [
            (0, 1, 10),
            (0, 2, 10),
            (1, 3, 4),
            (2, 3, 1),
            (1, 4, 2),
            (2, 4, 6),
            (3, 5, 9),
            (4, 5, 5),
        ];
        let mut best = u64::MAX;
        for mask in 0u32..16 {
            let in_source =
                |v: usize| v == 0 || ((1..=4).contains(&v) && mask & (1 << (v - 1)) != 0);
            let cut: u64 = caps
                .iter()
                .filter(|&&(u, v, _)| in_source(u) && !in_source(v))
                .map(|&(_, _, c)| c)
                .sum();
            best = best.min(cut);
        }
        assert_eq!(value, best);
    }

    #[test]
    fn undirected_edges_carry_flow_both_ways() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 4);
        net.add_undirected_edge(1, 2, 3);
        net.add_edge(2, 3, 4);
        assert_eq!(net.max_flow(0, 3), 3);
    }

    #[test]
    fn randomized_against_brute_force() {
        // Small random graphs: compare max-flow against brute-force min-cut.
        let mut state = 0xdead_beef_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..50 {
            let n = 5;
            let mut net = FlowNetwork::new(n);
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && next() % 3 == 0 {
                        let c = next() % 8;
                        net.add_edge(u, v, c);
                        arcs.push((u, v, c));
                    }
                }
            }
            let flow = net.max_flow(0, n - 1);
            let mut best = u64::MAX;
            for mask in 0u32..(1 << (n - 2)) {
                let in_source =
                    |v: usize| v == 0 || (v < n - 1 && v >= 1 && mask & (1 << (v - 1)) != 0);
                let cut: u64 = arcs
                    .iter()
                    .filter(|&&(u, v, _)| in_source(u) && !in_source(v))
                    .map(|&(_, _, c)| c)
                    .sum();
                best = best.min(cut);
            }
            assert_eq!(flow, best, "trial {trial}");
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_source_sink_panics() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1);
        let _ = net.max_flow(1, 1);
    }
}
