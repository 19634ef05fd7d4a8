//! A constructive witness for Lemma 8 (irreducibility).
//!
//! The paper's ergodicity proof sketch argues any connected hole-free
//! configuration can be reconfigured into a straight line, the line can be
//! sorted by color, and reversibility closes the argument. This module makes
//! the first two steps *executable*: [`line_witness`] produces an explicit
//! sequence of chain-valid moves (checked against the same Properties 4/5
//! and `e ≠ 5` conditions the chain itself uses, each with positive
//! probability under `M`) that transforms a configuration into the
//! color-sorted straight line. Exhaustive tests run it over every
//! enumerated configuration of small systems.
//!
//! # Strategy
//!
//! Fix the *root* `R`, the lexicographically largest particle (max `x`,
//! then max `y`); every other particle has `x ≤ R.x`, so the row east of
//! `R` is free. Repeatedly pick a *safely removable* particle (one whose
//! removal keeps the remainder connected), and walk it — by BFS over
//! single-particle moves, each validated by the chain's own
//! [`crate::SeparationChain::move_valid`] logic — to the east end of the
//! growing line at `(R.x + k, R.y)`. When only the root remains, the
//! system is a straight line; adjacent swap moves then sort the colors
//! (every swap of differently colored neighbors has positive probability).

use core::fmt;

use sops_lattice::{Node, NodeMap, NodeSet, DIRECTIONS};

use crate::{properties, Color, Configuration};

/// One step of a reconfiguration plan; each has positive probability under
/// chain `M`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A particle moves from `from` to the adjacent unoccupied `to`.
    Move {
        /// Source node.
        from: Node,
        /// Destination node (adjacent, unoccupied at execution time).
        to: Node,
    },
    /// The particles at `a` and `b` (different colors) swap.
    Swap {
        /// First node.
        a: Node,
        /// Second node.
        b: Node,
    },
}

/// Errors from witness construction ([`line_witness`], which the `lemma8`
/// bin and the `irreducibility` example call).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReconfigureError {
    /// The input configuration must be connected.
    Disconnected,
    /// The input configuration must be hole-free (the chain eliminates
    /// holes before the ergodicity argument applies).
    HasHoles,
    /// No safely removable particle could be walked to the line end —
    /// would indicate a gap in the constructive argument (never observed;
    /// exhaustive tests cover all small configurations).
    Stuck {
        /// Number of particles already placed on the line.
        placed: usize,
    },
}

impl fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigureError::Disconnected => write!(f, "configuration is not connected"),
            ReconfigureError::HasHoles => write!(f, "configuration has holes"),
            ReconfigureError::Stuck { placed } => {
                write!(
                    f,
                    "no movable particle found after placing {placed} on the line"
                )
            }
        }
    }
}

impl std::error::Error for ReconfigureError {}

/// Whether a single hypothetical particle at `from` could move one step in
/// `dir`, with every *other* particle given by `rest` — the same condition
/// chain `M` checks, evaluated without materializing a `Configuration`.
fn hypothetical_move_valid(rest: &NodeSet, from: Node, dir: sops_lattice::Direction) -> bool {
    let to = from.neighbor(dir);
    if rest.contains(to) {
        return false;
    }
    let neighbors = DIRECTIONS
        .iter()
        .filter(|d| rest.contains(from.neighbor(**d)))
        .count();
    if neighbors == 5 {
        return false;
    }
    let ring = properties::ring(from, dir);
    let mut occ = [false; 8];
    for (o, node) in occ.iter_mut().zip(ring) {
        *o = rest.contains(node);
    }
    properties::property4(occ) || properties::property5(occ)
}

/// BFS a single particle from `start` to `target` over chain-valid moves,
/// with all other particles fixed at `rest`. Returns the node path
/// (including both endpoints), or `None` if unreachable.
fn walk_path(rest: &NodeSet, start: Node, target: Node) -> Option<Vec<Node>> {
    if start == target {
        return Some(vec![start]);
    }
    let mut prev: NodeMap<Node> = NodeMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    prev.insert(start, start);
    while let Some(u) = queue.pop_front() {
        for d in DIRECTIONS {
            if !hypothetical_move_valid(rest, u, d) {
                continue;
            }
            let v = u.neighbor(d);
            if prev.contains(v) {
                continue;
            }
            prev.insert(v, u);
            if v == target {
                // Reconstruct.
                let mut path = vec![v];
                let mut cur = v;
                while cur != start {
                    cur = *prev.get(cur).expect("BFS predecessor exists");
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(v);
        }
    }
    None
}

/// Whether removing `node` keeps the remaining occupied set connected.
fn safely_removable(occupied: &NodeSet, node: Node, n: usize) -> bool {
    if n <= 1 {
        return false;
    }
    let seed = node
        .neighbors()
        .into_iter()
        .find(|m| occupied.contains(*m))
        .expect("connected configuration: every particle has a neighbor");
    let mut seen = NodeSet::with_capacity(n);
    seen.insert(seed);
    let mut stack = vec![seed];
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for m in u.neighbors() {
            if m != node && occupied.contains(m) && seen.insert(m) {
                count += 1;
                stack.push(m);
            }
        }
    }
    count == n - 1
}

/// Builds an explicit sequence of chain-valid steps transforming `config`
/// into the straight east-facing line sorted by color index (smallest color
/// id westmost), rooted at the lexicographically largest particle.
///
/// # Errors
///
/// * [`ReconfigureError::Disconnected`] / [`ReconfigureError::HasHoles`]
///   on invalid inputs;
/// * [`ReconfigureError::Stuck`] if the constructive search fails (not
///   observed on any enumerated or randomized test input).
pub fn line_witness(config: &Configuration) -> Result<Vec<Step>, ReconfigureError> {
    if !config.is_connected() {
        return Err(ReconfigureError::Disconnected);
    }
    if config.has_holes() {
        return Err(ReconfigureError::HasHoles);
    }
    let n = config.len();
    let root = config
        .particles()
        .map(|(node, _)| node)
        .max_by_key(|node| (node.x, node.y))
        .expect("configuration is nonempty");

    let mut occupied: NodeSet = config.particles().map(|(node, _)| node).collect();
    let mut steps = Vec::new();

    // Phase 1: move every non-root particle onto the line east of root.
    for k in 1..n {
        let target = Node::new(root.x + k as i32, root.y);
        // Candidates: occupied nodes that are neither the root nor already
        // line nodes, whose removal keeps the rest connected.
        let is_line_node = |node: Node| node.y == root.y && node.x > root.x;
        let mut candidates: Vec<Node> = occupied
            .iter()
            .filter(|&node| node != root && !is_line_node(node))
            .collect();
        // Deterministic order: prefer far-from-root particles (blob tips).
        candidates.sort_by_key(|node| std::cmp::Reverse((node.distance(root), node.x, node.y)));

        let mut placed = false;
        for cand in candidates {
            if !safely_removable(&occupied, cand, n) {
                continue;
            }
            let mut rest = occupied.clone();
            rest.remove(cand);
            if let Some(path) = walk_path(&rest, cand, target) {
                for pair in path.windows(2) {
                    steps.push(Step::Move {
                        from: pair[0],
                        to: pair[1],
                    });
                }
                occupied.remove(cand);
                occupied.insert(target);
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(ReconfigureError::Stuck { placed: k - 1 });
        }
    }

    // Phase 2: sort the line by color via adjacent swaps. Simulate the
    // colors along the line to generate a bubble-sort swap schedule.
    let mut sim = config.clone();
    for step in &steps {
        if let Step::Move { from, to } = step {
            let idx = sim.index_at(*from).expect("witness step source occupied");
            sim.move_particle(idx, *to);
        }
    }
    let line_nodes: Vec<Node> = (0..n as i32)
        .map(|i| Node::new(root.x + i, root.y))
        .collect();
    let mut colors: Vec<Color> = line_nodes
        .iter()
        .map(|&node| sim.color_at(node).expect("line node occupied"))
        .collect();
    // Bubble sort by color index, emitting swaps (equal colors never swap:
    // the chain's swap move requires distinct colors).
    for i in 0..n {
        for j in 0..n.saturating_sub(i + 1) {
            if colors[j].index() > colors[j + 1].index() {
                colors.swap(j, j + 1);
                steps.push(Step::Swap {
                    a: line_nodes[j],
                    b: line_nodes[j + 1],
                });
            }
        }
    }
    Ok(steps)
}

/// Applies a witness plan to a configuration, validating every step against
/// the chain's own movement conditions.
///
/// # Panics
///
/// Panics if any step is invalid for the configuration it is applied to —
/// which would falsify the witness.
pub fn apply(config: &mut Configuration, steps: &[Step]) {
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Move { from, to } => {
                let dir = from
                    .direction_to(to)
                    .unwrap_or_else(|| panic!("step {i}: nodes not adjacent"));
                let idx = config
                    .index_at(from)
                    .unwrap_or_else(|| panic!("step {i}: source {from} unoccupied"));
                // Re-verify with the real chain conditions.
                assert!(!config.is_occupied(to), "step {i}: target {to} occupied");
                assert_ne!(
                    config.occupied_neighbors(from),
                    5,
                    "step {i}: e = 5 forbids the move"
                );
                assert!(
                    properties::movement_allowed(config, from, dir),
                    "step {i}: Properties 4/5 fail for {from} → {to}"
                );
                config.move_particle(idx, to);
            }
            Step::Swap { a, b } => {
                let ca = config
                    .color_at(a)
                    .unwrap_or_else(|| panic!("step {i}: {a} empty"));
                let cb = config
                    .color_at(b)
                    .unwrap_or_else(|| panic!("step {i}: {b} empty"));
                assert_ne!(ca, cb, "step {i}: same-color swap has no effect");
                config.swap(a, b);
            }
        }
    }
}

/// The canonical form of the color-sorted line every witness ends at, for
/// the given color multiset.
#[must_use]
pub fn sorted_line_form(colors: &[Color]) -> crate::CanonicalForm {
    let mut sorted: Vec<Color> = colors.to_vec();
    sorted.sort_by_key(|c| c.index());
    Configuration::new(
        sorted
            .into_iter()
            .enumerate()
            .map(|(i, c)| (Node::new(i as i32, 0), c)),
    )
    .expect("line nodes are distinct")
    .canonical_form()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{construct, enumerate};
    use rand::SeedableRng;

    fn check_witness(config: &Configuration) {
        let steps = line_witness(config).expect("witness must exist");
        let mut work = config.clone();
        apply(&mut work, &steps);
        let colors: Vec<Color> = config.particles().map(|(_, c)| c).collect();
        assert_eq!(
            work.canonical_form(),
            sorted_line_form(&colors),
            "witness did not end at the sorted line"
        );
        assert!(work.is_connected());
    }

    #[test]
    fn witness_for_every_enumerated_shape_up_to_n6() {
        for n in 1..=6usize {
            for shape in enumerate::hole_free_shapes(n) {
                let config =
                    Configuration::new(shape.into_iter().map(|nd| (nd, Color::C1))).unwrap();
                check_witness(&config);
            }
        }
    }

    #[test]
    fn witness_sorts_colors_on_enumerated_bicolored_systems() {
        for shape in enumerate::hole_free_shapes(4) {
            for coloring in enumerate::bicolorings(&shape, 2) {
                let config = Configuration::new(coloring).unwrap();
                check_witness(&config);
            }
        }
    }

    #[test]
    fn witness_for_random_blobs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for trial in 0..15 {
            let n = 10 + trial;
            let nodes = loop {
                // random_blob may contain holes; retry until hole-free.
                let nodes = construct::random_blob(n, &mut rng);
                let mono = Configuration::new(nodes.iter().map(|&nd| (nd, Color::C1))).unwrap();
                if !mono.has_holes() {
                    break nodes;
                }
            };
            let config =
                Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap();
            check_witness(&config);
        }
    }

    #[test]
    fn witness_for_three_colors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let nodes = construct::hexagonal_spiral(12);
        let config =
            Configuration::new(construct::multicolor_random(nodes, &[4, 4, 4], &mut rng).unwrap())
                .unwrap();
        check_witness(&config);
    }

    #[test]
    fn witness_rejects_invalid_inputs() {
        let disconnected =
            Configuration::new([(Node::new(0, 0), Color::C1), (Node::new(5, 5), Color::C1)])
                .unwrap();
        assert_eq!(
            line_witness(&disconnected),
            Err(ReconfigureError::Disconnected)
        );

        let ring = Configuration::new(
            Node::ORIGIN
                .neighbors()
                .into_iter()
                .map(|nd| (nd, Color::C1)),
        )
        .unwrap();
        assert_eq!(line_witness(&ring), Err(ReconfigureError::HasHoles));
    }

    #[test]
    fn witness_of_a_line_still_ends_sorted() {
        // An already-straight (but unsorted) line: the witness re-roots the
        // line east of its lexicographically largest particle and sorts.
        let config = Configuration::new([
            (Node::new(0, 0), Color::C2),
            (Node::new(1, 0), Color::C1),
            (Node::new(2, 0), Color::C1),
        ])
        .unwrap();
        check_witness(&config);
        // A monochromatic line needs no swaps at all.
        let mono = Configuration::new((0..4).map(|x| (Node::new(x, 0), Color::C1))).unwrap();
        let steps = line_witness(&mono).unwrap();
        assert!(steps.iter().all(|s| matches!(s, Step::Move { .. })));
        check_witness(&mono);
    }

    #[test]
    fn single_particle_witness_is_empty() {
        let config = Configuration::new([(Node::new(3, -2), Color::C2)]).unwrap();
        assert_eq!(line_witness(&config).unwrap(), Vec::new());
    }
}
