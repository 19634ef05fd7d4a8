//! Lattice vertices in axial coordinates.

use core::fmt;
use core::ops::{Add, Neg, Sub};

use crate::{Direction, DIRECTIONS};

/// A vertex of the triangular lattice `G_Δ` in axial coordinates.
///
/// Each node has exactly six neighbors, one per [`Direction`]. The lattice is
/// conceptually infinite; coordinates are `i32`, which is unbounded for every
/// workload in this repository (runs of ≤ 10⁸ steps move particles ≤ 10⁸
/// unit steps from the origin in the worst case — far beyond what connected
/// configurations of ≤ 10⁵ particles actually reach, and still within `i32`
/// after the harness re-centers configurations).
///
/// # Example
///
/// ```
/// use sops_lattice::{Node, Direction};
///
/// let n = Node::new(2, -1);
/// assert_eq!(n.neighbor(Direction::NE), Node::new(2, 0));
/// assert_eq!(n.distance(Node::new(0, 0)), 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node {
    /// Axial x-coordinate.
    pub x: i32,
    /// Axial y-coordinate.
    pub y: i32,
}

impl Node {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Node = Node { x: 0, y: 0 };

    /// Creates a node at axial coordinates `(x, y)`.
    #[inline]
    #[must_use]
    pub const fn new(x: i32, y: i32) -> Self {
        Node { x, y }
    }

    /// The neighbor of this node in direction `dir`.
    #[inline]
    #[must_use]
    pub const fn neighbor(self, dir: Direction) -> Self {
        let (dx, dy) = dir.offset();
        Node {
            x: self.x + dx,
            y: self.y + dy,
        }
    }

    /// All six neighbors of this node, in counterclockwise order from `E`.
    #[inline]
    #[must_use]
    pub fn neighbors(self) -> [Node; 6] {
        let mut out = [self; 6];
        let mut i = 0;
        while i < 6 {
            out[i] = self.neighbor(DIRECTIONS[i]);
            i += 1;
        }
        out
    }

    /// Whether `other` is one of this node's six neighbors.
    #[inline]
    #[must_use]
    pub fn is_adjacent(self, other: Node) -> bool {
        self != other && self.distance(other) == 1
    }

    /// The direction from this node to an adjacent node, or `None` when the
    /// nodes are not adjacent.
    ///
    /// ```
    /// use sops_lattice::{Node, Direction};
    /// let n = Node::new(0, 0);
    /// assert_eq!(n.direction_to(Node::new(1, -1)), Some(Direction::SE));
    /// assert_eq!(n.direction_to(Node::new(2, 0)), None);
    /// ```
    #[must_use]
    pub fn direction_to(self, other: Node) -> Option<Direction> {
        let d = (other.x - self.x, other.y - self.y);
        DIRECTIONS.into_iter().find(|dir| dir.offset() == d)
    }

    /// The cube z-coordinate `−x − y`, useful for distance and rotation math.
    #[inline]
    #[must_use]
    pub const fn z(self) -> i32 {
        -self.x - self.y
    }

    /// Graph (hex) distance between two nodes of `G_Δ`.
    ///
    /// ```
    /// use sops_lattice::Node;
    /// assert_eq!(Node::new(0, 0).distance(Node::new(3, -1)), 3);
    /// ```
    #[inline]
    #[must_use]
    pub fn distance(self, other: Node) -> u32 {
        let dx = (self.x - other.x).unsigned_abs();
        let dy = (self.y - other.y).unsigned_abs();
        let dz = (self.z() - other.z()).unsigned_abs();
        (dx + dy + dz) / 2
    }

    /// This node rotated 60° counterclockwise about the origin.
    ///
    /// Repeated six times this is the identity; combined with translations it
    /// generates the orientation-preserving symmetries of `G_Δ` used for the
    /// rotation-invariance requirements of the polymer machinery.
    #[inline]
    #[must_use]
    pub(crate) const fn rotated_ccw(self) -> Self {
        Node {
            x: -self.y,
            y: self.x + self.y,
        }
    }

    /// This node rotated `k` times 60° counterclockwise about the origin.
    #[must_use]
    pub const fn rotated_by(self, k: usize) -> Self {
        let mut n = self;
        let mut i = 0;
        while i < k % 6 {
            n = n.rotated_ccw();
            i += 1;
        }
        n
    }

    /// This node translated by the vector `(dx, dy)`.
    #[inline]
    #[must_use]
    pub const fn translated(self, dx: i32, dy: i32) -> Self {
        Node {
            x: self.x + dx,
            y: self.y + dy,
        }
    }

    /// Cartesian (ℝ²) embedding of this node with unit edge lengths, used by
    /// the renderers: `(x + y/2, y·√3/2)`.
    #[must_use]
    pub fn to_cartesian(self) -> (f64, f64) {
        let x = f64::from(self.x) + f64::from(self.y) / 2.0;
        let y = f64::from(self.y) * (3.0_f64).sqrt() / 2.0;
        (x, y)
    }

    /// Packs the coordinates into a single `u64` key (for hashing).
    #[inline]
    #[must_use]
    pub const fn pack(self) -> u64 {
        ((self.x as u32 as u64) << 32) | (self.y as u32 as u64)
    }

    /// Inverse of [`Node::pack`].
    #[inline]
    #[must_use]
    pub const fn unpack(key: u64) -> Self {
        Node {
            x: (key >> 32) as u32 as i32,
            y: key as u32 as i32,
        }
    }
}

impl Add for Node {
    type Output = Node;

    #[inline]
    fn add(self, rhs: Node) -> Node {
        Node::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Node {
    type Output = Node;

    #[inline]
    fn sub(self, rhs: Node) -> Node {
        Node::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Node {
    type Output = Node;

    #[inline]
    fn neg(self) -> Node {
        Node::new(-self.x, -self.y)
    }
}

impl From<(i32, i32)> for Node {
    #[inline]
    fn from((x, y): (i32, i32)) -> Self {
        Node::new(x, y)
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_are_distinct_and_adjacent() {
        let n = Node::new(7, -3);
        let nbrs = n.neighbors();
        for (i, a) in nbrs.iter().enumerate() {
            assert!(n.is_adjacent(*a));
            assert_eq!(n.distance(*a), 1);
            for b in &nbrs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn adjacent_neighbors_in_ring_are_adjacent_to_each_other() {
        // Consecutive directions differ by 60°, so consecutive ring nodes are
        // themselves lattice neighbors — the property that makes the ring a
        // 6-cycle, which the hole/connectivity checks in sops-core rely on.
        let n = Node::new(0, 0);
        let nbrs = n.neighbors();
        for i in 0..6 {
            assert!(nbrs[i].is_adjacent(nbrs[(i + 1) % 6]));
            assert!(!nbrs[i].is_adjacent(nbrs[(i + 2) % 6]));
        }
    }

    #[test]
    fn direction_to_round_trips() {
        let n = Node::new(-4, 9);
        for d in crate::DIRECTIONS {
            assert_eq!(n.direction_to(n.neighbor(d)), Some(d));
        }
        assert_eq!(n.direction_to(n), None);
    }

    #[test]
    fn distance_is_a_metric_on_samples() {
        let pts = [
            Node::new(0, 0),
            Node::new(3, -2),
            Node::new(-1, -1),
            Node::new(5, 5),
        ];
        for a in pts {
            assert_eq!(a.distance(a), 0);
            for b in pts {
                assert_eq!(a.distance(b), b.distance(a));
                for c in pts {
                    assert!(a.distance(c) <= a.distance(b) + b.distance(c));
                }
            }
        }
    }

    #[test]
    fn rotation_preserves_distance_to_origin() {
        let n = Node::new(4, -7);
        let mut r = n;
        for _ in 0..6 {
            r = r.rotated_ccw();
            assert_eq!(r.distance(Node::ORIGIN), n.distance(Node::ORIGIN));
        }
        assert_eq!(r, n);
    }

    #[test]
    fn pack_unpack_round_trips_negative_coordinates() {
        for n in [
            Node::new(0, 0),
            Node::new(-1, -1),
            Node::new(i32::MIN, i32::MAX),
            Node::new(12345, -54321),
        ] {
            assert_eq!(Node::unpack(n.pack()), n);
        }
    }

    #[test]
    fn packed_keys_are_injective_on_samples() {
        let mut seen = std::collections::HashSet::new();
        for x in -10..10 {
            for y in -10..10 {
                assert!(seen.insert(Node::new(x, y).pack()));
            }
        }
    }

    #[test]
    fn cartesian_embedding_has_unit_edges() {
        let n = Node::new(3, -5);
        let (px, py) = n.to_cartesian();
        for nb in n.neighbors() {
            let (qx, qy) = nb.to_cartesian();
            let d2 = (px - qx).powi(2) + (py - qy).powi(2);
            assert!((d2 - 1.0).abs() < 1e-9, "edge length² = {d2}");
        }
    }

    #[test]
    fn vector_arithmetic() {
        let a = Node::new(2, 3);
        let b = Node::new(-1, 4);
        assert_eq!(a + b, Node::new(1, 7));
        assert_eq!(a - b, Node::new(3, -1));
        assert_eq!(-a, Node::new(-2, -3));
        assert_eq!(Node::from((5, 6)), Node::new(5, 6));
    }
}
