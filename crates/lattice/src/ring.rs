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

const fn build_pair_footprints() -> [[Node; 10]; 6] {
    let mut table = [[Node::ORIGIN; 10]; 6];
    let mut d = 0;
    while d < 6 {
        let ring = RING_OFFSETS[d];
        let mut k = 0;
        while k < 8 {
            table[d][k] = ring[k];
            k += 1;
        }
        table[d][8] = Node::ORIGIN;
        table[d][9] = Node::ORIGIN.neighbor(Direction::from_index(d));
        d += 1;
    }
    table
}

/// Offsets (from `ℓ`) of the full *footprint* of a proposal `(ℓ, d)`: the
/// eight ring nodes plus the pair `ℓ, ℓ′` themselves — every lattice node
/// whose occupancy or color any part of the proposal (guards, Metropolis
/// exponents, counter updates) can read, and every node an accepted move or
/// swap can change.
///
/// The sharded engine's deferral test is built on this, through its
/// bounding box ([`pair_footprint_bounds`]): a proposal whose footprint
/// stays inside its stripe cannot observe another stripe's proposals.
pub static PAIR_FOOTPRINT_OFFSETS: [[Node; 10]; 6] = build_pair_footprints();

/// The footprint offsets for pairs oriented along `dir` (ring nodes at
/// indices 0–7, then `ℓ` itself, then `ℓ′`).
#[inline]
#[must_use]
pub fn pair_footprint_offsets(dir: Direction) -> &'static [Node; 10] {
    &PAIR_FOOTPRINT_OFFSETS[dir.index()]
}

/// Axis-aligned bounding box of a proposal footprint, as offsets from `ℓ`.
///
/// A sharded scheduler can test "does the whole footprint of `(ℓ, d)` lie
/// inside my region?" with four comparisons instead of ten point lookups:
/// the footprint of `(ℓ, d)` is contained in `x ∈ [x0, x1], y ∈ [y0, y1]`
/// iff `ℓ.x + min_dx ≥ x0 && ℓ.x + max_dx ≤ x1` and likewise in `y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintBounds {
    /// Smallest `dx` over the ten footprint offsets.
    pub min_dx: i32,
    /// Largest `dx` over the ten footprint offsets.
    pub max_dx: i32,
    /// Smallest `dy` over the ten footprint offsets.
    pub min_dy: i32,
    /// Largest `dy` over the ten footprint offsets.
    pub max_dy: i32,
}

/// Maximum half-extent of any footprint in either axis: every offset in
/// [`PAIR_FOOTPRINT_OFFSETS`] satisfies `|dx| ≤ 2` and `|dy| ≤ 2`, so a
/// region must be at least `2 · FOOTPRINT_REACH + 1 = 5` rows (or columns)
/// tall for its interior to be non-empty.
pub const FOOTPRINT_REACH: i32 = 2;

const fn build_footprint_bounds() -> [FootprintBounds; 6] {
    let mut table = [FootprintBounds {
        min_dx: 0,
        max_dx: 0,
        min_dy: 0,
        max_dy: 0,
    }; 6];
    let mut d = 0;
    while d < 6 {
        let fp = PAIR_FOOTPRINT_OFFSETS[d];
        let mut b = FootprintBounds {
            min_dx: 0,
            max_dx: 0,
            min_dy: 0,
            max_dy: 0,
        };
        let mut k = 0;
        while k < 10 {
            let n = fp[k];
            if n.x < b.min_dx {
                b.min_dx = n.x;
            }
            if n.x > b.max_dx {
                b.max_dx = n.x;
            }
            if n.y < b.min_dy {
                b.min_dy = n.y;
            }
            if n.y > b.max_dy {
                b.max_dy = n.y;
            }
            k += 1;
        }
        table[d] = b;
        d += 1;
    }
    table
}

/// Per-direction bounding boxes of the proposal footprints, indexed by
/// `dir.index()`.
pub static PAIR_FOOTPRINT_BOUNDS: [FootprintBounds; 6] = build_footprint_bounds();

/// The footprint bounding box for pairs oriented along `dir`.
#[inline]
#[must_use]
pub fn pair_footprint_bounds(dir: Direction) -> FootprintBounds {
    PAIR_FOOTPRINT_BOUNDS[dir.index()]
}

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
    fn pair_footprint_is_ring_plus_pair_and_covers_both_neighborhoods() {
        for dir in DIRECTIONS {
            let fp = pair_footprint_offsets(dir);
            let to = Node::ORIGIN.neighbor(dir);
            assert_eq!(&fp[..8], ring_offsets(dir).as_slice());
            assert_eq!(fp[8], Node::ORIGIN);
            assert_eq!(fp[9], to);
            // All ten nodes distinct.
            for i in 0..10 {
                for j in (i + 1)..10 {
                    assert_ne!(fp[i], fp[j], "{dir}: duplicate at {i},{j}");
                }
            }
            // Every lattice neighbor of ℓ and of ℓ′ is in the footprint —
            // nothing a proposal can probe escapes the conflict check.
            for d in DIRECTIONS {
                assert!(
                    fp.contains(&Node::ORIGIN.neighbor(d)),
                    "{dir}: N(ℓ) via {d}"
                );
                assert!(fp.contains(&to.neighbor(d)), "{dir}: N(ℓ′) via {d}");
            }
        }
    }

    #[test]
    fn footprint_bounds_are_tight_and_within_reach() {
        for dir in DIRECTIONS {
            let fp = pair_footprint_offsets(dir);
            let b = pair_footprint_bounds(dir);
            assert_eq!(b.min_dx, fp.iter().map(|n| n.x).min().unwrap(), "{dir}");
            assert_eq!(b.max_dx, fp.iter().map(|n| n.x).max().unwrap(), "{dir}");
            assert_eq!(b.min_dy, fp.iter().map(|n| n.y).min().unwrap(), "{dir}");
            assert_eq!(b.max_dy, fp.iter().map(|n| n.y).max().unwrap(), "{dir}");
            for v in [b.min_dx, b.max_dx, b.min_dy, b.max_dy] {
                assert!(v.abs() <= FOOTPRINT_REACH, "{dir}: {v} beyond reach");
            }
        }
        // Across all orientations the reach is attained on both sides, so a
        // row admitting proposals in *every* direction needs FOOTPRINT_REACH
        // clearance above and below — 5-row stripes are the true minimum.
        let min_dy = DIRECTIONS
            .iter()
            .map(|&d| pair_footprint_bounds(d).min_dy)
            .min()
            .unwrap();
        let max_dy = DIRECTIONS
            .iter()
            .map(|&d| pair_footprint_bounds(d).max_dy)
            .max()
            .unwrap();
        assert_eq!((min_dy, max_dy), (-FOOTPRINT_REACH, FOOTPRINT_REACH));
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
