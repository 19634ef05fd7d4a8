//! The locally checkable movement conditions of the separation algorithm.
//!
//! A particle may move from location `ℓ` to an adjacent unoccupied location
//! `ℓ′` only when one of two properties holds (Properties 4 and 5 of the
//! paper). Both are functions of the eight lattice nodes surrounding the pair
//! `{ℓ, ℓ′}` — a strictly local check — and together they guarantee the move
//! neither disconnects the system nor creates a hole (Lemma 6, inherited
//! from the compression paper).
//!
//! # Geometry of the combined neighborhood
//!
//! For adjacent `ℓ` and `ℓ′ = ℓ + d`, the nodes adjacent to `ℓ` or `ℓ′`
//! (excluding the pair itself) form an 8-cycle in `G_Δ`. We index it
//! counterclockwise:
//!
//! ```text
//! index  node
//!   0    ℓ′ + d¹        (d¹ = d rotated 60° ccw, …)
//!   1    ℓ  + d¹   ← common neighbor (S)
//!   2    ℓ  + d²
//!   3    ℓ  + d³
//!   4    ℓ  + d⁴
//!   5    ℓ  + d⁵   ← common neighbor (S)
//!   6    ℓ′ + d⁵
//!   7    ℓ′ + d⁰  (= ℓ′ + d)
//! ```
//!
//! Consecutive ring nodes are lattice-adjacent and no chords exist, so paths
//! "through `N(ℓ ∪ ℓ′)`" are exactly runs of consecutive occupied positions.

use sops_lattice::{ring_offsets, Direction, Node};

use crate::Configuration;

/// Ring positions of the two common neighbors `S = N(ℓ) ∩ N(ℓ′)`.
pub const S_POSITIONS: [usize; 2] = [1, 5];

/// The eight nodes of the combined neighborhood of `ℓ` and `ℓ′ = ℓ + d`, in
/// the cyclic order documented at the module level.
///
/// The per-direction offsets are precomputed at compile time in
/// `sops-lattice` ([`sops_lattice::ring`]); this is eight vector additions,
/// not eight rotations.
#[inline]
#[must_use]
pub fn ring(from: Node, dir: Direction) -> [Node; 8] {
    let offsets = ring_offsets(dir);
    core::array::from_fn(|k| from + offsets[k])
}

/// Occupancy of the combined neighborhood ring in a configuration.
#[must_use]
pub fn ring_occupancy(config: &Configuration, from: Node, dir: Direction) -> [bool; 8] {
    let ring = ring(from, dir);
    let mut occ = [false; 8];
    for (o, node) in occ.iter_mut().zip(ring) {
        *o = config.is_occupied(node);
    }
    occ
}

/// Property 4 on a ring-occupancy pattern: `|S| ∈ {1, 2}` and every particle
/// in `N(ℓ ∪ ℓ′)` is connected to **exactly one** particle of `S` by a path
/// through `N(ℓ ∪ ℓ′)`.
#[must_use]
pub fn property4(occ: [bool; 8]) -> bool {
    let s_count = usize::from(occ[S_POSITIONS[0]]) + usize::from(occ[S_POSITIONS[1]]);
    if s_count == 0 {
        return false;
    }
    // Occupied positions decompose into maximal runs of consecutive ring
    // indices; each run must contain exactly one occupied S position.
    for component in occupied_components(occ) {
        let s_in_component = component
            .iter()
            .filter(|&&i| S_POSITIONS.contains(&i) && occ[i])
            .count();
        if s_in_component != 1 {
            return false;
        }
    }
    true
}

/// Property 5 on a ring-occupancy pattern: `|S| = 0`, and both
/// `N(ℓ) ∖ {ℓ′}` and `N(ℓ′) ∖ {ℓ}` are nonempty and connected.
///
/// With the common neighbors unoccupied, `N(ℓ) ∖ {ℓ′}` is the occupied
/// subset of ring positions `{2, 3, 4}` and `N(ℓ′) ∖ {ℓ}` of `{6, 7, 0}`;
/// "connected" means the occupied positions form one consecutive run.
#[must_use]
pub fn property5(occ: [bool; 8]) -> bool {
    if occ[S_POSITIONS[0]] || occ[S_POSITIONS[1]] {
        return false;
    }
    side_nonempty_and_connected(occ[2], occ[3], occ[4])
        && side_nonempty_and_connected(occ[6], occ[7], occ[0])
}

fn side_nonempty_and_connected(a: bool, b: bool, c: bool) -> bool {
    match (a, b, c) {
        (false, false, false) => false, // empty
        (true, false, true) => false,   // disconnected
        _ => true,
    }
}

/// Whether a particle at `from` may move to the adjacent unoccupied node in
/// direction `dir`: Property 4 or Property 5 holds.
///
/// This is condition (ii) of Step 6 in Algorithm 1; the caller separately
/// enforces condition (i), `|N(ℓ)| ≠ 5`. Evaluated through
/// [`MOVEMENT_ALLOWED`], so the check is one gather plus one table load —
/// no allocation, no component scan.
#[must_use]
pub fn movement_allowed(config: &Configuration, from: Node, dir: Direction) -> bool {
    let mut bits = 0u8;
    for (k, &off) in ring_offsets(dir).iter().enumerate() {
        bits |= u8::from(config.is_occupied(from + off)) << k;
    }
    MOVEMENT_ALLOWED[bits as usize]
}

/// Packs a ring-occupancy pattern into the bit layout [`MOVEMENT_ALLOWED`]
/// is indexed by: bit `k` set iff ring position `k` is occupied.
#[inline]
#[must_use]
pub fn pack_ring(occ: [bool; 8]) -> u8 {
    let mut bits = 0u8;
    for (k, &o) in occ.iter().enumerate() {
        bits |= u8::from(o) << k;
    }
    bits
}

/// Property 4 on a packed ring pattern, evaluable at compile time.
///
/// Occupied positions decompose into maximal cyclic runs; each run must
/// contain exactly one occupied S position (and at least one S position must
/// be occupied). Equality with [`property4`] over all 256 patterns is proven
/// by the exhaustive oracle tests below.
const fn property4_bits(occ: u8) -> bool {
    if occ & (1 << S_POSITIONS[0]) == 0 && occ & (1 << S_POSITIONS[1]) == 0 {
        return false;
    }
    if occ == 0xFF {
        // A single run containing both common neighbors.
        return false;
    }
    // Start scanning just after an unoccupied position so runs do not wrap;
    // every run is then flushed inside the loop (the scan ends back at the
    // unoccupied start position).
    let mut start = 0;
    while (occ >> start) & 1 != 0 {
        start += 1;
    }
    let mut s_in_run = 0u8;
    let mut in_run = false;
    let mut k = 1;
    while k <= 8 {
        let i = (start + k) % 8;
        if (occ >> i) & 1 != 0 {
            in_run = true;
            if i == S_POSITIONS[0] || i == S_POSITIONS[1] {
                s_in_run += 1;
            }
        } else {
            if in_run && s_in_run != 1 {
                return false;
            }
            in_run = false;
            s_in_run = 0;
        }
        k += 1;
    }
    true
}

/// Property 5 on a packed ring pattern, evaluable at compile time.
const fn property5_bits(occ: u8) -> bool {
    if occ & (1 << S_POSITIONS[0]) != 0 || occ & (1 << S_POSITIONS[1]) != 0 {
        return false;
    }
    // Each side is a 3-node path; "nonempty and connected" excludes the
    // empty pattern and the two-endpoints-only pattern, which simplifies to:
    // the middle is occupied, or exactly one endpoint is.
    const fn side_ok(a: bool, b: bool, c: bool) -> bool {
        b || (a ^ c)
    }
    side_ok(
        occ & (1 << 2) != 0,
        occ & (1 << 3) != 0,
        occ & (1 << 4) != 0,
    ) && side_ok(occ & (1 << 6) != 0, occ & (1 << 7) != 0, occ & 1 != 0)
}

const fn build_movement_lut() -> [bool; 256] {
    let mut lut = [false; 256];
    let mut bits = 0usize;
    while bits < 256 {
        lut[bits] = property4_bits(bits as u8) || property5_bits(bits as u8);
        bits += 1;
    }
    lut
}

/// `MOVEMENT_ALLOWED[bits]` ⇔ `property4(occ) || property5(occ)` where
/// `bits = pack_ring(occ)` — condition (ii) of Algorithm 1 as a single
/// 256-entry compile-time table.
///
/// This is the proposal kernel's hot-path form of the movement conditions:
/// the run-decomposition of [`property4`] (which allocates per call) runs
/// once per pattern inside a `const fn` instead of once per proposal. The
/// exhaustive 256-pattern tests pin the table to the predicate pair.
pub static MOVEMENT_ALLOWED: [bool; 256] = build_movement_lut();

/// Maximal runs of consecutive occupied ring positions (cyclically).
fn occupied_components(occ: [bool; 8]) -> Vec<Vec<usize>> {
    let occupied_count = occ.iter().filter(|&&b| b).count();
    if occupied_count == 0 {
        return Vec::new();
    }
    if occupied_count == 8 {
        return vec![(0..8).collect()];
    }
    // Start scanning just after an unoccupied position so runs do not wrap.
    let start = (0..8)
        .find(|&i| !occ[i])
        .expect("some position is unoccupied");
    let mut components = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for k in 1..=8 {
        let i = (start + k) % 8;
        if occ[i] {
            current.push(i);
        } else if !current.is_empty() {
            components.push(core::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        components.push(current);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Color;
    use sops_lattice::DIRECTIONS;

    /// Literal reference implementation of Property 4: build the induced
    /// graph on occupied ring nodes (adjacency = cyclic neighbors) and check
    /// each occupied node reaches exactly one occupied S node.
    fn property4_reference(occ: [bool; 8]) -> bool {
        let s: Vec<usize> = S_POSITIONS.iter().copied().filter(|&i| occ[i]).collect();
        if s.is_empty() {
            return false;
        }
        for v in 0..8 {
            if !occ[v] {
                continue;
            }
            // BFS over occupied ring positions.
            let mut seen = [false; 8];
            seen[v] = true;
            let mut stack = vec![v];
            while let Some(u) = stack.pop() {
                for w in [(u + 1) % 8, (u + 7) % 8] {
                    if occ[w] && !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            let reachable_s = s.iter().filter(|&&i| seen[i]).count();
            if reachable_s != 1 {
                return false;
            }
        }
        true
    }

    /// Literal reference implementation of Property 5.
    fn property5_reference(occ: [bool; 8]) -> bool {
        if occ[1] || occ[5] {
            return false;
        }
        // N(ℓ)\{ℓ'} = occupied among {1,2,3,4,5}; with 1 and 5 empty: {2,3,4}.
        let check_side = |positions: [usize; 3]| -> bool {
            let occupied: Vec<usize> = positions.iter().copied().filter(|&i| occ[i]).collect();
            if occupied.is_empty() {
                return false;
            }
            // Connected within the ring path positions[0]-positions[1]-positions[2].
            if occupied.len() == 2 {
                // Must be adjacent in the path order.
                let idx: Vec<usize> = occupied
                    .iter()
                    .map(|&p| positions.iter().position(|&q| q == p).unwrap())
                    .collect();
                (idx[0] as i32 - idx[1] as i32).abs() == 1
            } else {
                true // 1 or 3 occupied on a path of 3 is always connected
            }
        };
        check_side([2, 3, 4]) && check_side([6, 7, 0])
    }

    #[test]
    fn property4_matches_reference_on_all_256_patterns() {
        for bits in 0u16..256 {
            let occ = core::array::from_fn(|i| bits & (1 << i) != 0);
            assert_eq!(
                property4(occ),
                property4_reference(occ),
                "pattern {bits:#010b}"
            );
        }
    }

    #[test]
    fn property5_matches_reference_on_all_256_patterns() {
        for bits in 0u16..256 {
            let occ = core::array::from_fn(|i| bits & (1 << i) != 0);
            assert_eq!(
                property5(occ),
                property5_reference(occ),
                "pattern {bits:#010b}"
            );
        }
    }

    #[test]
    fn ring_nodes_form_a_chordless_8_cycle() {
        for d in DIRECTIONS {
            let from = Node::new(3, -2);
            let r = ring(from, d);
            let to = from.neighbor(d);
            for (i, node) in r.iter().enumerate() {
                // Consecutive ring nodes adjacent; skipping one is not.
                assert!(node.is_adjacent(r[(i + 1) % 8]), "dir {d} at {i}");
                assert!(!node.is_adjacent(r[(i + 2) % 8]), "chord at {i}, dir {d}");
                // Ring excludes the pair.
                assert_ne!(*node, from);
                assert_ne!(*node, to);
            }
            // S positions are adjacent to both ℓ and ℓ'.
            for &s in &S_POSITIONS {
                assert!(r[s].is_adjacent(from) && r[s].is_adjacent(to));
            }
            // Non-S positions are adjacent to exactly one of the pair.
            for (i, node) in r.iter().enumerate() {
                if !S_POSITIONS.contains(&i) {
                    assert!(node.is_adjacent(from) ^ node.is_adjacent(to), "pos {i}");
                }
            }
        }
    }

    #[test]
    fn isolated_pair_satisfies_neither_property() {
        // A 2-particle configuration moving one particle away from the other:
        // the ring is empty, so no property holds (the move would disconnect).
        let config =
            Configuration::new([(Node::new(0, 0), Color::C1), (Node::new(1, 0), Color::C1)])
                .unwrap();
        // Particle at (0,0) moving W to (-1,0): ring around ((0,0),W) contains
        // (1,0)? (1,0) is adjacent to (0,0) but not to (-1,0): ring position
        // on the ℓ side. The single S... just check the official API:
        assert!(!movement_allowed(&config, Node::new(0, 0), Direction::W));
        // Sliding around the partner is allowed: move NE keeps contact via S.
        assert!(movement_allowed(&config, Node::new(0, 0), Direction::NE));
    }

    #[test]
    fn movement_allowed_uses_configuration_occupancy() {
        // Triangle with an extra tail; moving the tail tip is fine, moving a
        // cut vertex is not.
        let config = Configuration::new([
            (Node::new(0, 0), Color::C1),
            (Node::new(1, 0), Color::C1),
            (Node::new(0, 1), Color::C1),
            (Node::new(-1, 0), Color::C1), // tail attached to (0,0)
        ])
        .unwrap();
        // Tail tip can slide to (-1, 1) (Property 4 via common neighbor (0,0)... )
        assert!(movement_allowed(&config, Node::new(-1, 0), Direction::NE));
    }

    #[test]
    fn movement_lut_equals_predicates_on_all_256_patterns() {
        // The oracle: the LUT must agree with the run-decomposition
        // predicates (themselves pinned to the literal BFS references above)
        // on every possible ring pattern. Together with those tests this
        // proves MOVEMENT_ALLOWED ≡ property4 ∨ property5 exhaustively.
        for bits in 0u16..256 {
            let occ = core::array::from_fn(|i| bits & (1 << i) != 0);
            assert_eq!(pack_ring(occ), bits as u8);
            assert_eq!(
                MOVEMENT_ALLOWED[bits as usize],
                property4(occ) || property5(occ),
                "pattern {bits:#010b}"
            );
        }
    }

    #[test]
    fn movement_allowed_agrees_with_unfused_ring_scan() {
        // The LUT-backed movement_allowed must match re-deriving the ring
        // occupancy and evaluating the predicates directly, on real
        // configurations (not just abstract patterns).
        let mut rng_state = 0x2545_f491_4f6c_dd1d_u64;
        let mut nodes = vec![Node::new(0, 0)];
        for _ in 0..60 {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            let base = nodes[(rng_state >> 8) as usize % nodes.len()];
            let n = base.neighbor(DIRECTIONS[(rng_state % 6) as usize]);
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        let config = Configuration::new(nodes.iter().map(|&n| (n, Color::C1))).unwrap();
        for &n in &nodes {
            for d in DIRECTIONS {
                if config.is_occupied(n.neighbor(d)) {
                    continue;
                }
                let occ = ring_occupancy(&config, n, d);
                assert_eq!(
                    movement_allowed(&config, n, d),
                    property4(occ) || property5(occ),
                    "at {n} dir {d}"
                );
            }
        }
    }

    #[test]
    fn property4_blocks_two_sided_contact() {
        // Both S occupied but in separate components each with its own S:
        // occ[1] and occ[5] only → components {1}, {5}: each contains exactly
        // one S → allowed (this is the classic "tunnel" move).
        let mut occ = [false; 8];
        occ[1] = true;
        occ[5] = true;
        assert!(property4(occ));
        // A run connecting both S positions (1..=5): one component with two
        // S particles → forbidden (would create a hole or disconnect).
        let occ = core::array::from_fn(|i| (1..=5).contains(&i));
        assert!(!property4(occ));
    }
}
