//! Precomputed combined-neighborhood ring offsets.
//!
//! The separation chain's movement conditions (Properties 4/5) and its
//! Metropolis exponents are all functions of the eight lattice nodes
//! surrounding an adjacent pair `{ℓ, ℓ′ = ℓ + d}` — the *combined
//! neighborhood ring*. Materializing that ring used to cost eight
//! `rotated_by` index computations per proposal; since there are only six
//! directions, the offsets are precomputed here once, at compile time, and
//! the hot path reduces to eight vector additions off a 6 × 8 table.
//!
//! # Ring layout
//!
//! For a pair `ℓ, ℓ′ = ℓ + d` the ring is indexed counterclockwise, with
//! `d^k` denoting `d` rotated `k` times 60° counterclockwise:
//!
//! ```text
//! index  node                            offset from ℓ
//!   0    ℓ′ + d¹                         d⁰ + d¹
//!   1    ℓ  + d¹   ← common neighbor     d¹
//!   2    ℓ  + d²                         d²
//!   3    ℓ  + d³                         d³
//!   4    ℓ  + d⁴                         d⁴
//!   5    ℓ  + d⁵   ← common neighbor     d⁵
//!   6    ℓ′ + d⁵                         d⁰ + d⁵
//!   7    ℓ′ + d⁰                         d⁰ + d⁰
//! ```
//!
//! Consecutive ring nodes are lattice-adjacent and the cycle is chordless,
//! so "connected through `N(ℓ ∪ ℓ′)`" means "a run of consecutive occupied
//! ring indices" — the structure `sops-core`'s Property-4/5 lookup table is
//! built on.

use crate::{Direction, Node};

/// Ring positions adjacent to `ℓ` (the move source): indices 1–5.
pub const RING_FROM_SIDE: u8 = 0b0011_1110;

/// Ring positions adjacent to `ℓ′` (the move target): indices 0, 1, 5, 6, 7.
pub const RING_TO_SIDE: u8 = 0b1110_0011;

/// Ring positions of the two common neighbors `S = N(ℓ) ∩ N(ℓ′)`: 1 and 5.
pub const RING_COMMON: u8 = RING_FROM_SIDE & RING_TO_SIDE;

const fn ring_for(dir: Direction) -> [Node; 8] {
    let origin = Node::ORIGIN;
    let to = origin.neighbor(dir);
    [
        to.neighbor(dir.rotated_by(1)),
        origin.neighbor(dir.rotated_by(1)),
        origin.neighbor(dir.rotated_by(2)),
        origin.neighbor(dir.rotated_by(3)),
        origin.neighbor(dir.rotated_by(4)),
        origin.neighbor(dir.rotated_by(5)),
        to.neighbor(dir.rotated_by(5)),
        to.neighbor(dir),
    ]
}

const fn build_ring_offsets() -> [[Node; 8]; 6] {
    let mut table = [[Node::ORIGIN; 8]; 6];
    let mut d = 0;
    while d < 6 {
        table[d] = ring_for(Direction::from_index(d));
        d += 1;
    }
    table
}

/// Offsets (from `ℓ`) of the eight combined-neighborhood ring nodes of the
/// pair `{ℓ, ℓ + d}`, indexed by `d.index()`, in the module-level cyclic
/// order.
pub static RING_OFFSETS: [[Node; 8]; 6] = build_ring_offsets();

/// The ring offsets for pairs oriented along `dir`.
///
/// Adding `ℓ` to each entry yields the eight ring nodes of `{ℓ, ℓ + dir}`
/// without recomputing any rotations.
///
/// # Example
///
/// ```
/// use sops_lattice::{ring_offsets, Direction, Node};
///
/// let from = Node::new(3, -2);
/// let ring: Vec<Node> = ring_offsets(Direction::E)
///     .iter()
///     .map(|&off| from + off)
///     .collect();
/// // Consecutive ring nodes are lattice-adjacent.
/// for i in 0..8 {
///     assert!(ring[i].is_adjacent(ring[(i + 1) % 8]));
/// }
/// ```
#[inline]
#[must_use]
pub fn ring_offsets(dir: Direction) -> &'static [Node; 8] {
    &RING_OFFSETS[dir.index()]
}

/// Maximum half-extent, in either axis, of a proposal's *footprint*: the
/// eight ring nodes plus the pair `ℓ, ℓ′` themselves, which hold every
/// lattice node whose occupancy or color any part of the proposal
/// `(ℓ, d)` (guards, Metropolis exponents, counter updates) can read, and
/// every node an accepted move or swap can change. Every footprint offset
/// satisfies `|dx| ≤ 2` and `|dy| ≤ 2`.
pub const FOOTPRINT_REACH: i32 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DIRECTIONS;

    #[test]
    fn offsets_match_direct_rotation_arithmetic() {
        for dir in DIRECTIONS {
            let from = Node::new(-7, 4);
            let to = from.neighbor(dir);
            let expect = [
                to.neighbor(dir.rotated_by(1)),
                from.neighbor(dir.rotated_by(1)),
                from.neighbor(dir.rotated_by(2)),
                from.neighbor(dir.rotated_by(3)),
                from.neighbor(dir.rotated_by(4)),
                from.neighbor(dir.rotated_by(5)),
                to.neighbor(dir.rotated_by(5)),
                to.neighbor(dir),
            ];
            let got: Vec<Node> = ring_offsets(dir).iter().map(|&off| from + off).collect();
            assert_eq!(got, expect, "direction {dir}");
        }
    }

    #[test]
    fn ring_is_a_chordless_8_cycle_excluding_the_pair() {
        for dir in DIRECTIONS {
            let ring = ring_offsets(dir);
            let to = Node::ORIGIN.neighbor(dir);
            for (i, &node) in ring.iter().enumerate() {
                assert!(node.is_adjacent(ring[(i + 1) % 8]), "{dir} at {i}");
                assert!(!node.is_adjacent(ring[(i + 2) % 8]), "chord {dir} at {i}");
                assert_ne!(node, Node::ORIGIN);
                assert_ne!(node, to);
            }
        }
    }

    #[test]
    fn ring_plus_pair_covers_both_neighborhoods_within_reach() {
        let (mut lo, mut hi) = (Node::ORIGIN, Node::ORIGIN);
        for dir in DIRECTIONS {
            let to = Node::ORIGIN.neighbor(dir);
            let mut footprint = ring_offsets(dir).to_vec();
            footprint.extend([Node::ORIGIN, to]);
            // All ten nodes distinct.
            for i in 0..10 {
                for j in (i + 1)..10 {
                    assert_ne!(footprint[i], footprint[j], "{dir}: duplicate at {i},{j}");
                }
            }
            // Every lattice neighbor of ℓ and of ℓ′ is on the ring or the
            // pair — nothing a proposal can probe lies outside them.
            for d in DIRECTIONS {
                assert!(
                    footprint.contains(&Node::ORIGIN.neighbor(d)),
                    "{dir}: N(ℓ) via {d}"
                );
                assert!(footprint.contains(&to.neighbor(d)), "{dir}: N(ℓ′) via {d}");
            }
            for n in footprint {
                assert!(
                    n.x.abs() <= FOOTPRINT_REACH && n.y.abs() <= FOOTPRINT_REACH,
                    "{dir}: {n:?} beyond reach"
                );
                lo = Node::new(lo.x.min(n.x), lo.y.min(n.y));
                hi = Node::new(hi.x.max(n.x), hi.y.max(n.y));
            }
        }
        // Across all orientations the reach is attained on both sides of
        // both axes, so it is the least clearance around ℓ that admits
        // proposals in every direction.
        let reach = FOOTPRINT_REACH;
        assert_eq!(
            (lo, hi),
            (Node::new(-reach, -reach), Node::new(reach, reach))
        );
    }

    #[test]
    fn side_masks_partition_by_adjacency() {
        // FROM_SIDE bits are exactly the ring nodes adjacent to ℓ, TO_SIDE
        // those adjacent to ℓ′, and their intersection the common neighbors.
        for dir in DIRECTIONS {
            let to = Node::ORIGIN.neighbor(dir);
            for (i, &node) in ring_offsets(dir).iter().enumerate() {
                let from_bit = (RING_FROM_SIDE >> i) & 1 != 0;
                let to_bit = (RING_TO_SIDE >> i) & 1 != 0;
                assert_eq!(from_bit, node.is_adjacent(Node::ORIGIN), "{dir} at {i}");
                assert_eq!(to_bit, node.is_adjacent(to), "{dir} at {i}");
            }
        }
        assert_eq!(RING_COMMON, 0b0010_0010);
        assert_eq!(RING_FROM_SIDE.count_ones(), 5);
        assert_eq!(RING_TO_SIDE.count_ones(), 5);
    }
}
