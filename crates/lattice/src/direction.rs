//! The six directions of the triangular lattice.

use core::fmt;

/// One of the six unit directions of the triangular lattice `G_Δ`.
///
/// Directions are numbered counterclockwise starting from [`Direction::E`],
/// matching the axial coordinate convention of [`crate::Node`]:
///
/// | Direction | Unit vector |
/// |-----------|-------------|
/// | `E`       | `( 1,  0)`  |
/// | `NE`      | `( 0,  1)`  |
/// | `NW`      | `(−1,  1)`  |
/// | `W`       | `(−1,  0)`  |
/// | `SW`      | `( 0, −1)`  |
/// | `SE`      | `( 1, −1)`  |
///
/// # Example
///
/// ```
/// use sops_lattice::Direction;
///
/// assert_eq!(Direction::E.opposite(), Direction::W);
/// assert_eq!(Direction::E.rotated_by(1), Direction::NE);
/// assert_eq!(Direction::from_index(4), Direction::SW);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Direction {
    /// East, `(1, 0)`.
    E = 0,
    /// North-east, `(0, 1)`.
    NE = 1,
    /// North-west, `(−1, 1)`.
    NW = 2,
    /// West, `(−1, 0)`.
    W = 3,
    /// South-west, `(0, −1)`.
    SW = 4,
    /// South-east, `(1, −1)`.
    SE = 5,
}

impl Direction {
    /// Returns the direction with the given index in counterclockwise order
    /// from `E`; indices are taken modulo 6.
    ///
    /// ```
    /// use sops_lattice::Direction;
    /// assert_eq!(Direction::from_index(7), Direction::NE);
    /// ```
    #[inline]
    #[must_use]
    pub const fn from_index(index: usize) -> Self {
        match index % 6 {
            0 => Direction::E,
            1 => Direction::NE,
            2 => Direction::NW,
            3 => Direction::W,
            4 => Direction::SW,
            _ => Direction::SE,
        }
    }

    /// The index of this direction in counterclockwise order from `E`.
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The axial-coordinate unit vector `(dx, dy)` of this direction.
    #[inline]
    #[must_use]
    pub const fn offset(self) -> (i32, i32) {
        match self {
            Direction::E => (1, 0),
            Direction::NE => (0, 1),
            Direction::NW => (-1, 1),
            Direction::W => (-1, 0),
            Direction::SW => (0, -1),
            Direction::SE => (1, -1),
        }
    }

    /// The direction pointing the opposite way.
    #[inline]
    #[must_use]
    pub const fn opposite(self) -> Self {
        Self::from_index(self.index() + 3)
    }

    /// This direction rotated `k` times 60° counterclockwise.
    #[inline]
    #[must_use]
    pub const fn rotated_by(self, k: usize) -> Self {
        Self::from_index(self.index() + k)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::E => "E",
            Direction::NE => "NE",
            Direction::NW => "NW",
            Direction::W => "W",
            Direction::SW => "SW",
            Direction::SE => "SE",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DIRECTIONS;

    #[test]
    fn indices_round_trip() {
        for (i, d) in DIRECTIONS.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Direction::from_index(i), *d);
        }
    }

    #[test]
    fn opposite_is_involution() {
        for d in DIRECTIONS {
            assert_eq!(d.opposite().opposite(), d);
            let (dx, dy) = d.offset();
            let (ox, oy) = d.opposite().offset();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
    }

    #[test]
    fn rotation_matches_linear_map() {
        // Rotating the unit vector by the axial 60° CCW map (x, y) -> (-y, x + y)
        // must agree with rotated_by(1).
        for d in DIRECTIONS {
            let (x, y) = d.offset();
            let rotated = (-y, x + y);
            assert_eq!(d.rotated_by(1).offset(), rotated);
        }
    }

    #[test]
    fn offsets_are_distinct_units() {
        let mut seen = std::collections::HashSet::new();
        for d in DIRECTIONS {
            assert!(seen.insert(d.offset()));
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn display_names() {
        assert_eq!(Direction::NW.to_string(), "NW");
        assert_eq!(Direction::SE.to_string(), "SE");
    }

    #[test]
    fn rotated_by_composes() {
        for d in DIRECTIONS {
            assert_eq!(d.rotated_by(2), d.rotated_by(1).rotated_by(1));
            assert_eq!(d.rotated_by(6), d);
        }
    }
}
