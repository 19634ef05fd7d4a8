//! Dense occupancy/color raster backing the proposal hot path.
//!
//! The chain's inner loop is dominated by *"what, if anything, occupies
//! node `ℓ`?"* probes: one per activation for the hold outcomes, eight more
//! for every proposal that gathers its ring. Against the open-addressing
//! [`sops_lattice::NodeMap`] each probe is a hash, a masked index, and a
//! tag-plus-key compare with a data-dependent branch; against this raster
//! it is two subtractions, two unsigned range checks, and a byte load from
//! a few-KiB array that lives in L1 for realistic system sizes. For a
//! particle at least two cells inside every edge (nearly all of them, with
//! the default margin) even that is hoisted: [`ColorGrid::interior_index`]
//! range-checks the source once, and the target and ring probes become
//! loads at flat offsets `dy·width + dx` the raster precomputes per
//! direction whenever it is built.
//!
//! The raster is a pure cache of the occupancy map: cell `0` means
//! unoccupied, cell `c > 0` means a particle of color index `c − 1`. It
//! covers the configuration's bounding box plus a [`MARGIN`]-cell border,
//! so a drifting configuration only forces a rebuild after `MARGIN` net
//! outward steps; a configuration too spread out to rasterize under
//! [`MAX_CELLS`] simply runs without a grid (every read path keeps its
//! map-probing fallback, and [`crate::Configuration::audit`] cross-checks
//! the raster against the map whenever one is present).

use sops_lattice::{ring_offsets, Direction, Node};

use crate::Color;

/// Hard cap on raster cells (4 MiB of `u8`): beyond this the cache costs
/// more in memory traffic and clone time than its probes save.
const MAX_CELLS: u64 = 1 << 22;

/// Unoccupied border kept around the bounding box so boundary moves stay
/// in-raster; a rebuild is needed only every `MARGIN` net outward steps.
const MARGIN: i64 = 32;

/// Ceiling for the adaptive margin (see [`ColorGrid::rebuild_grown`]): a
/// drifting configuration doubles its margin on every outgrow-rebuild, so
/// rebuild count grows logarithmically in drift distance, but the border
/// never exceeds this many cells per side (a 2·512-cell border alone stays
/// comfortably under [`MAX_CELLS`] for compact systems).
const MAX_GROWN_MARGIN: i64 = 512;

/// The dense raster. See the module docs for the cell encoding.
#[derive(Clone, Debug)]
pub(crate) struct ColorGrid {
    min_x: i32,
    min_y: i32,
    width: u32,
    height: u32,
    /// Border width this raster was built with; rebuilds after an outgrow
    /// double it (up to [`MAX_GROWN_MARGIN`]) so oscillation across the
    /// bounding-box edge cannot thrash rebuilds.
    margin: i64,
    /// The flat offsets `dy·width + dx` of the six neighbors, in
    /// `Direction` order and written twice over, so the six rotations of
    /// direction `d` are `neighbor_offsets[d..d + 6]`. Every probe of an
    /// interior proposal is one of them or the sum of two (see
    /// [`ColorGrid::ring_codes_at`]). Every configuration carries a
    /// raster, so this stays at 48 bytes rather than tabulating all nine
    /// probes of each direction (216).
    neighbor_offsets: [i32; 12],
    cells: Vec<u8>,
}

/// The cell encoding of an occupying color.
#[inline]
pub(crate) fn encode(color: Color) -> u8 {
    // Index u8::MAX (unencodable: code would wrap to "empty") is rejected
    // at build time, so the increment cannot overflow here.
    color.index() + 1
}

/// The color encoded by a non-zero cell. For cell `0` this returns
/// `Color::C1`, matching the placeholder the map-probing paths leave in
/// never-read color lanes — callers must gate on occupancy, not color.
#[inline]
pub(crate) fn decode(code: u8) -> Color {
    Color::new(code.saturating_sub(1))
}

/// The low seven bits of every byte.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Bit 7 of each byte of `x` set iff that byte is non-zero: adding `0x7f`
/// to a byte's low seven bits carries into bit 7 iff they are non-zero,
/// and no byte's sum carries into the next.
#[inline]
pub(crate) fn nonzero_bytes(x: u64) -> u64 {
    (((x & LOW7) + LOW7) | x) & !LOW7
}

impl ColorGrid {
    /// Rasterizes `particles`, or returns `None` when the system cannot be
    /// cached: an empty list, a color index of `u8::MAX` (unencodable), a
    /// bounding box beyond [`MAX_CELLS`], or margins that would leave
    /// `i32` coordinate range.
    pub(crate) fn build(particles: &[(Node, Color)]) -> Option<Self> {
        Self::build_with(particles, MARGIN, None)
    }

    /// [`ColorGrid::build`] with an explicit margin and an optional prior
    /// raster extent (inclusive `(min_x, min_y, max_x, max_y)`) that the
    /// new raster must keep covering. The union is the hysteresis half of
    /// the rebuild policy: a raster never shrinks on rebuild, so a
    /// configuration oscillating across its old bounding-box edge cannot
    /// re-trigger the rebuild it just paid for.
    fn build_with(
        particles: &[(Node, Color)],
        margin: i64,
        keep_covering: Option<(i64, i64, i64, i64)>,
    ) -> Option<Self> {
        let (&(first, _), rest) = particles.split_first()?;
        let mut min_x = i64::from(first.x);
        let mut max_x = min_x;
        let mut min_y = i64::from(first.y);
        let mut max_y = min_y;
        for &(node, color) in particles {
            if color.index() == u8::MAX {
                return None;
            }
            min_x = min_x.min(i64::from(node.x));
            max_x = max_x.max(i64::from(node.x));
            min_y = min_y.min(i64::from(node.y));
            max_y = max_y.max(i64::from(node.y));
        }
        let _ = rest;
        let mut min_x = min_x - margin;
        let mut min_y = min_y - margin;
        let mut max_x = max_x + margin;
        let mut max_y = max_y + margin;
        if let Some((kx0, ky0, kx1, ky1)) = keep_covering {
            min_x = min_x.min(kx0);
            min_y = min_y.min(ky0);
            max_x = max_x.max(kx1);
            max_y = max_y.max(ky1);
        }
        let width = max_x + 1 - min_x;
        let height = max_y + 1 - min_y;
        if width as u64 * height as u64 > MAX_CELLS {
            return None;
        }
        if min_x < i64::from(i32::MIN)
            || min_y < i64::from(i32::MIN)
            || max_x > i64::from(i32::MAX)
            || max_y > i64::from(i32::MAX)
        {
            return None;
        }
        let mut grid = ColorGrid {
            min_x: min_x as i32,
            min_y: min_y as i32,
            width: width as u32,
            height: height as u32,
            margin,
            neighbor_offsets: neighbor_offsets(width as u32),
            cells: vec![0; (width * height) as usize],
        };
        for &(node, color) in particles {
            let ok = grid.set(node, encode(color));
            debug_assert!(ok, "bounding-box cell {node} out of its own raster");
        }
        Some(grid)
    }

    /// [`ColorGrid::build`] with a `margin`-cell border instead of
    /// [`MARGIN`], so tests can put particles in the raster's edge band.
    #[cfg(test)]
    pub(crate) fn build_with_margin(particles: &[(Node, Color)], margin: i64) -> Option<Self> {
        Self::build_with(particles, margin, None)
    }

    /// Rebuilds after a particle stepped outside this raster, applying the
    /// anti-thrash policy: double the margin (capped at
    /// [`MAX_GROWN_MARGIN`]) and keep covering the old raster's extent. If
    /// the grown raster would exceed [`MAX_CELLS`], the margin is halved
    /// back down (never below [`MARGIN`]); as a last resort the old extent
    /// is dropped; and if even a fresh default-margin raster cannot fit,
    /// the system runs without a grid, exactly as before.
    pub(crate) fn rebuild_grown(&self, particles: &[(Node, Color)]) -> Option<Self> {
        let old_extent = (
            i64::from(self.min_x),
            i64::from(self.min_y),
            i64::from(self.min_x) + i64::from(self.width) - 1,
            i64::from(self.min_y) + i64::from(self.height) - 1,
        );
        let mut margin = self
            .margin
            .saturating_mul(2)
            .clamp(MARGIN, MAX_GROWN_MARGIN);
        loop {
            if let Some(grid) = Self::build_with(particles, margin, Some(old_extent)) {
                return Some(grid);
            }
            if margin > MARGIN {
                margin = (margin / 2).max(MARGIN);
            } else {
                return Self::build_with(particles, MARGIN, None);
            }
        }
    }

    /// The cell index of `node`, when it lies inside the raster.
    ///
    /// The `wrapping_sub` + unsigned compare folds both range checks into
    /// one per axis: any `i32` pair's true difference fits `u32` exactly,
    /// and negative differences wrap far above any admissible width.
    #[inline]
    fn index(&self, node: Node) -> Option<usize> {
        let dx = node.x.wrapping_sub(self.min_x) as u32;
        let dy = node.y.wrapping_sub(self.min_y) as u32;
        if dx < self.width && dy < self.height {
            Some(dy as usize * self.width as usize + dx as usize)
        } else {
            None
        }
    }

    /// The cell at `node`: `0` for unoccupied *or out-of-raster* nodes
    /// (everything outside the raster is unoccupied by construction).
    #[inline]
    pub(crate) fn code(&self, node: Node) -> u8 {
        match self.index(node) {
            Some(i) => self.cells[i],
            None => 0,
        }
    }

    /// Writes `code` at `node`; `false` means the node lies outside the
    /// raster and the caller must rebuild.
    #[inline]
    pub(crate) fn set(&mut self, node: Node, code: u8) -> bool {
        match self.index(node) {
            Some(i) => {
                self.cells[i] = code;
                true
            }
            None => false,
        }
    }

    /// Clears the cell at `node` (a no-op outside the raster, where every
    /// node is already unoccupied).
    #[inline]
    pub(crate) fn clear(&mut self, node: Node) {
        if let Some(i) = self.index(node) {
            self.cells[i] = 0;
        }
    }

    /// Number of occupied cells — the audit's cheap "no stale particle
    /// left behind" cross-check against the occupancy map's length —
    /// counted eight cells at a time.
    pub(crate) fn occupied_cells(&self) -> usize {
        let words = self.cells.chunks_exact(8);
        let tail = words.remainder().iter().filter(|&&c| c != 0).count();
        words
            .map(|w| {
                let word = u64::from_le_bytes(w.try_into().expect("chunks are 8 bytes"));
                nonzero_bytes(word).count_ones() as usize
            })
            .sum::<usize>()
            + tail
    }

    /// Smallest in-raster x coordinate.
    #[inline]
    pub(crate) fn min_x(&self) -> i32 {
        self.min_x
    }

    /// Smallest in-raster y coordinate.
    #[inline]
    pub(crate) fn min_y(&self) -> i32 {
        self.min_y
    }

    /// Raster width in cells (row stride of [`ColorGrid::cells_mut`]).
    #[inline]
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Raster height in cells (number of rows).
    #[inline]
    pub(crate) fn height(&self) -> u32 {
        self.height
    }

    /// Border width this raster was built with.
    #[cfg(test)]
    pub(crate) fn margin(&self) -> i64 {
        self.margin
    }

    /// The raw y-major cell array. Row `r` (lattice row `min_y + r`)
    /// occupies `cells[r * width .. (r + 1) * width]`; rows being
    /// contiguous is what lets the sharded engine hand disjoint row bands
    /// to worker threads via `split_at_mut`.
    #[inline]
    pub(crate) fn cells_mut(&mut self) -> &mut [u8] {
        &mut self.cells
    }

    /// The eight ring cell codes of the pair `{from, from + dir}`, in ring
    /// order, as eight independent [`ColorGrid::code`] probes — the
    /// raster-native gather behind [`crate::Configuration::ring_gather`]
    /// for rings that may reach past the raster's edge (see
    /// [`ColorGrid::interior_index`] for the flat-offset path).
    #[inline]
    pub(crate) fn ring_codes(&self, from: Node, dir: Direction) -> [u8; 8] {
        let offsets = ring_offsets(dir);
        core::array::from_fn(|k| self.code(from + offsets[k]))
    }

    /// The cell index of `node` when it lies at least [`FLAT_REACH`] cells
    /// inside every raster edge, so that the target and all eight ring
    /// nodes of any proposal from it are in-raster at the fixed flat
    /// offsets of [`ColorGrid::target_code`] and [`ColorGrid::ring_codes_at`].
    /// `None` for nodes in the edge band or outside the raster, which take
    /// the per-node probes of [`ColorGrid::code`] instead.
    ///
    /// As in [`ColorGrid::index`], wrapping subtraction folds both bounds
    /// of each axis into one unsigned compare.
    #[inline]
    pub(crate) fn interior_index(&self, node: Node) -> Option<usize> {
        let reach = FLAT_REACH as i32;
        let dx = node.x.wrapping_sub(self.min_x).wrapping_sub(reach) as u32;
        let dy = node.y.wrapping_sub(self.min_y).wrapping_sub(reach) as u32;
        let span = 2 * FLAT_REACH;
        if dx < self.width.saturating_sub(span) && dy < self.height.saturating_sub(span) {
            Some((dy + FLAT_REACH) as usize * self.width as usize + (dx + FLAT_REACH) as usize)
        } else {
            None
        }
    }

    /// The cell of `from + dir`, where `i` is [`ColorGrid::interior_index`]
    /// of `from`.
    #[inline]
    pub(crate) fn target_code(&self, i: usize, dir: Direction) -> u8 {
        self.cells[i.wrapping_add_signed(self.neighbor_offsets[dir.index()] as isize)]
    }

    /// [`ColorGrid::ring_codes`] for an interior `from` with cell index
    /// `i` (see [`ColorGrid::interior_index`]): eight byte loads at flat
    /// offsets, with no coordinate arithmetic and no range check beyond
    /// the slice's own.
    #[inline]
    pub(crate) fn ring_codes_at(&self, i: usize, dir: Direction) -> [u8; 8] {
        let d = dir.index();
        // `n[k]` is the offset of `ℓ + dᵏ`, `d` rotated k times.
        let n: &[i32; 6] = self.neighbor_offsets[d..d + 6]
            .try_into()
            .expect("a range of six");
        // The ring layout of `sops_lattice::ring`: `d⁰ + d¹`, then
        // `d¹ … d⁵`, then `d⁰ + d⁵` and `d⁰ + d⁰`.
        let offsets = [
            n[0] + n[1],
            n[1],
            n[2],
            n[3],
            n[4],
            n[5],
            n[0] + n[5],
            2 * n[0],
        ];
        offsets.map(|offset| self.cells[i.wrapping_add_signed(offset as isize)])
    }
}

/// How far any probe of a proposal `(ℓ, d)` reaches from `ℓ` along either
/// axis: the target and ring offsets all have `|dx|, |dy| ≤ 2`
/// (`sops_lattice::FOOTPRINT_REACH`).
const FLAT_REACH: u32 = sops_lattice::FOOTPRINT_REACH as u32;

/// [`ColorGrid`]'s `neighbor_offsets` for a raster of row stride `width`.
fn neighbor_offsets(width: u32) -> [i32; 12] {
    // `width ≤ MAX_CELLS`, so even `2·width + 2` fits an `i32`.
    let stride = width as i32;
    core::array::from_fn(|k| {
        let neighbor = Node::ORIGIN.neighbor(Direction::from_index(k));
        neighbor.y * stride + neighbor.x
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_probes_and_mutation_roundtrip() {
        let particles = vec![
            (Node::new(0, 0), Color::C1),
            (Node::new(3, -2), Color::C2),
            (Node::new(-1, 4), Color::C3),
        ];
        let mut grid = ColorGrid::build(&particles).expect("small system rasterizes");
        for &(node, color) in &particles {
            assert_eq!(grid.code(node), encode(color));
            assert_eq!(decode(grid.code(node)), color);
        }
        assert_eq!(grid.code(Node::new(1, 1)), 0);
        // Far outside the raster: unoccupied, no panic.
        assert_eq!(grid.code(Node::new(1_000_000, -1_000_000)), 0);
        assert_eq!(grid.occupied_cells(), 3);

        grid.clear(Node::new(0, 0));
        assert!(grid.set(Node::new(1, 0), encode(Color::C1)));
        assert_eq!(grid.code(Node::new(0, 0)), 0);
        assert_eq!(grid.code(Node::new(1, 0)), encode(Color::C1));
        assert_eq!(grid.occupied_cells(), 3);

        // Within the margin: settable; far past it: rejected.
        assert!(grid.set(Node::new(3 + 10, 0), 1));
        assert!(!grid.set(Node::new(3 + 1000, 0), 1));
    }

    #[test]
    fn build_rejects_uncacheable_systems() {
        assert!(ColorGrid::build(&[]).is_none());
        // Unencodable color index.
        assert!(ColorGrid::build(&[(Node::new(0, 0), Color::new(u8::MAX))]).is_none());
        // Bounding box past the cell cap.
        let sparse = vec![
            (Node::new(0, 0), Color::C1),
            (Node::new(1 << 20, 1 << 20), Color::C2),
        ];
        assert!(ColorGrid::build(&sparse).is_none());
        // Margin would leave i32 range.
        let edge = vec![(Node::new(i32::MAX, 0), Color::C1)];
        assert!(ColorGrid::build(&edge).is_none());
        // Compact systems anywhere in range still rasterize.
        let shifted = vec![
            (Node::new(500_000_000, -500_000_000), Color::C1),
            (Node::new(500_000_001, -500_000_000), Color::C2),
        ];
        assert!(ColorGrid::build(&shifted).is_some());
    }

    #[test]
    fn margin_absorbs_drift_up_to_its_width() {
        let mut grid = ColorGrid::build(&[(Node::new(0, 0), Color::C1)]).unwrap();
        // All nodes within MARGIN of the box are in-raster.
        let m = MARGIN as i32;
        assert!(grid.set(Node::new(m, 0), 1));
        assert!(grid.set(Node::new(0, -m), 1));
        assert!(!grid.set(Node::new(m + 1, 0), 1));
    }

    #[test]
    fn rebuild_grown_doubles_margin_and_keeps_old_extent() {
        let grid = ColorGrid::build(&[(Node::new(0, 0), Color::C1)]).unwrap();
        assert_eq!(grid.margin(), MARGIN);
        let old_min_x = grid.min_x();
        // Particle drifted just past the border.
        let drifted = vec![(Node::new(MARGIN as i32 + 1, 0), Color::C1)];
        let mut grown = grid.rebuild_grown(&drifted).expect("still rasterizable");
        assert_eq!(grown.margin(), 2 * MARGIN);
        // Hysteresis: the new raster still covers the old one entirely.
        assert!(grown.min_x() <= old_min_x);
        assert!(grown.set(Node::new(0, -(MARGIN as i32)), 1));
        // And the grown margin extends past the new bounding box.
        assert!(grown.set(Node::new(MARGIN as i32 + 1 + 2 * MARGIN as i32, 0), 1));
        // Margin growth saturates at the cap.
        let mut g = grid;
        for _ in 0..20 {
            g = g.rebuild_grown(&drifted).unwrap();
        }
        assert_eq!(g.margin(), MAX_GROWN_MARGIN);
    }

    #[test]
    fn rebuild_grown_backs_off_when_grown_raster_would_not_fit() {
        // A wide strip whose raster stops fitting once the margin ladder
        // reaches 512 (4524 × 1026 cells > MAX_CELLS): the policy must
        // retreat to a smaller margin, not give up.
        let side = 3500i32;
        let wide: Vec<(Node, Color)> = (0..side)
            .flat_map(|x| (0..2).map(move |y| (Node::new(x, y), Color::C1)))
            .collect();
        let mut grid = ColorGrid::build(&wide).unwrap();
        for _ in 0..12 {
            match grid.rebuild_grown(&wide) {
                Some(g) => grid = g,
                None => panic!("policy must back off margin rather than drop the raster"),
            }
        }
        assert!(grid.width() as u64 * grid.height() as u64 <= MAX_CELLS);
    }

    #[test]
    fn ring_codes_match_per_node_probes_everywhere() {
        use sops_lattice::DIRECTIONS;
        // A dense random-ish pattern rasterized with borders from none at
        // all (particles on the raster's edge) to the default, probed at
        // every node in and 3 cells around the raster: `interior_index` is
        // `Some` exactly at least 2 cells inside every edge, and there the
        // flat target and ring probes equal per-node `code` probes; the
        // per-node `ring_codes` agree everywhere.
        let mut particles = Vec::new();
        for x in 0..9i32 {
            for y in 0..7i32 {
                if (x * 31 + y * 17) % 3 != 0 {
                    let color = if (x + y) % 2 == 0 {
                        Color::C1
                    } else {
                        Color::C2
                    };
                    particles.push((Node::new(x, y), color));
                }
            }
        }
        for margin in [0, 1, 2, 3, MARGIN] {
            let grid = ColorGrid::build_with(&particles, margin, None).expect("rasterizes");
            let (w, h) = (grid.width() as i32, grid.height() as i32);
            let mut interior = 0;
            for y in grid.min_y() - 3..grid.min_y() + h + 3 {
                for x in grid.min_x() - 3..grid.min_x() + w + 3 {
                    let from = Node::new(x, y);
                    let (dx, dy) = (x - grid.min_x(), y - grid.min_y());
                    let inside = (2..w - 2).contains(&dx) && (2..h - 2).contains(&dy);
                    let index = grid.interior_index(from);
                    assert_eq!(
                        index.is_some(),
                        inside,
                        "interior_index at {from}, margin {margin}"
                    );
                    if let Some(i) = index {
                        interior += 1;
                        assert_eq!(i, grid.index(from).unwrap(), "flat index at {from}");
                    }
                    for dir in DIRECTIONS {
                        let expect: [u8; 8] =
                            core::array::from_fn(|k| grid.code(from + ring_offsets(dir)[k]));
                        assert_eq!(grid.ring_codes(from, dir), expect, "ring at {from} {dir}");
                        if let Some(i) = index {
                            assert_eq!(
                                grid.target_code(i, dir),
                                grid.code(from.neighbor(dir)),
                                "flat target at {from} {dir}, margin {margin}"
                            );
                            assert_eq!(
                                grid.ring_codes_at(i, dir),
                                expect,
                                "flat ring at {from} {dir}, margin {margin}"
                            );
                        }
                    }
                }
            }
            assert_eq!(interior, (w - 4).max(0) * (h - 4).max(0), "margin {margin}");
        }
    }

    #[test]
    fn narrow_rasters_have_no_interior() {
        // A single particle with no border: a 1×1 raster, nothing 2 cells
        // inside its edges, and no flat offset may be taken from it.
        let lone = [(Node::new(5, -5), Color::C2)];
        let grid = ColorGrid::build_with(&lone, 0, None).unwrap();
        assert_eq!((grid.width(), grid.height()), (1, 1));
        assert_eq!(grid.interior_index(Node::new(5, -5)), None);
        // A 5×5 raster has exactly one interior cell, its center.
        let grid = ColorGrid::build_with(&lone, 2, None).unwrap();
        assert_eq!(grid.interior_index(Node::new(5, -5)), Some(12));
        assert_eq!(grid.interior_index(Node::new(6, -5)), None);
        assert_eq!(grid.interior_index(Node::new(5, -4)), None);
    }
}
