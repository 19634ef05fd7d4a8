//! Dense occupancy/color raster backing the proposal hot path.
//!
//! The chain's inner loop is dominated by *"what, if anything, occupies
//! node `ℓ`?"* probes: one per activation for the hold outcomes, eight per
//! [`crate::Configuration::ring_gather`]. Against the open-addressing
//! [`sops_lattice::NodeMap`] each probe is a hash, a masked index, and a
//! tag-plus-key compare with a data-dependent branch; against this raster
//! it is two subtractions, two unsigned range checks, and a byte load from
//! a few-KiB array that lives in L1 for realistic system sizes.
//!
//! The raster is a pure cache of the occupancy map: cell `0` means
//! unoccupied, cell `c > 0` means a particle of color index `c − 1`. It
//! covers the configuration's bounding box plus a [`MARGIN`]-cell border,
//! so a drifting configuration only forces a rebuild after `MARGIN` net
//! outward steps; a configuration too spread out to rasterize under
//! [`MAX_CELLS`] simply runs without a grid (every read path keeps its
//! map-probing fallback, and [`crate::Configuration::audit`] cross-checks
//! the raster against the map whenever one is present).

use sops_lattice::{ring_offsets, Direction, Node, RING_OFFSETS};

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
            cells: vec![0; (width * height) as usize],
        };
        for &(node, color) in particles {
            let ok = grid.set(node, encode(color));
            debug_assert!(ok, "bounding-box cell {node} out of its own raster");
        }
        Some(grid)
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
    /// order — the raster-native gather behind
    /// [`crate::Configuration::ring_gather`].
    ///
    /// Dispatches between two bit-for-bit identical implementations:
    /// per-node probes (the default) and the row-window gather behind the
    /// off-by-default `ring-windows` feature (see
    /// [`ColorGrid::ring_codes_windowed`] for why it lost the benchmark).
    /// Both are always compiled and cross-tested.
    #[inline]
    pub(crate) fn ring_codes(&self, from: Node, dir: Direction) -> [u8; 8] {
        if cfg!(feature = "ring-windows") {
            self.ring_codes_windowed(from, dir)
        } else {
            self.ring_codes_probed(from, dir)
        }
    }

    /// [`ColorGrid::ring_codes`] as eight independent [`ColorGrid::code`]
    /// probes (each a multiply, two range checks, and a byte load). The
    /// measured-faster default: the probes hit 3–4 adjacent raster rows
    /// already in cache, and each is branch-predictable straight-line
    /// code.
    #[inline]
    pub(crate) fn ring_codes_probed(&self, from: Node, dir: Direction) -> [u8; 8] {
        let offsets = ring_offsets(dir);
        core::array::from_fn(|k| self.code(from + offsets[k]))
    }

    /// [`ColorGrid::ring_codes`] as 3–4 short row windows: one 4-byte load
    /// per raster row the ring touches, with each ring lane extracted by a
    /// constant shift from its row's window (see [`RING_ROW_WINDOWS`]).
    /// Rings too close to the raster edge for whole-window loads fall back
    /// to per-node probes, so the result is bit-for-bit identical to the
    /// probe path everywhere.
    ///
    /// Kept behind the off-by-default `ring-windows` feature: paired
    /// benchmarks (see EXPERIMENTS.md) measured it *slower* than the probe
    /// path on the bench host — the per-row bounds checks, window
    /// assembly, and lane-extraction table reads cost more than the five
    /// byte probes they replace. Retained compiled and cross-tested in
    /// case wider-vector hosts tip the balance.
    #[inline]
    pub(crate) fn ring_codes_windowed(&self, from: Node, dir: Direction) -> [u8; 8] {
        let rw = &RING_ROW_WINDOWS[dir.index()];
        let mut windows = [0u32; 4];
        let stride = self.width as usize;
        for (r, window) in windows.iter_mut().enumerate().take(rw.nrows as usize) {
            let dy = from.y.wrapping_add(rw.row_dy[r]).wrapping_sub(self.min_y) as u32;
            let dx = from
                .x
                .wrapping_add(rw.row_min_dx[r])
                .wrapping_sub(self.min_x) as u32;
            if dy < self.height && dx < self.width && self.width - dx >= WINDOW_BYTES {
                let base = dy as usize * stride + dx as usize;
                let win: [u8; WINDOW_BYTES as usize] = self.cells
                    [base..base + WINDOW_BYTES as usize]
                    .try_into()
                    .expect("window length is fixed");
                *window = u32::from_le_bytes(win);
            } else {
                // Raster-edge ring: per-node probes handle out-of-raster
                // nodes (unoccupied by construction) exactly.
                return self.ring_codes_probed(from, dir);
            }
        }
        core::array::from_fn(|k| (windows[rw.lane_row[k] as usize] >> rw.lane_shift[k]) as u8)
    }
}

/// Bytes loaded per ring row window. Every ring row spans at most 4
/// consecutive cells (asserted by the table builder), and the raster's
/// ≥ [`MARGIN`]-cell border means a whole window around any in-raster
/// particle is almost always in-raster too.
const WINDOW_BYTES: u32 = 4;

/// Row-window descriptor for one pair orientation: which raster rows the
/// ring touches, where each row's 4-byte load starts, and which (row,
/// shift) extracts each of the eight ring lanes.
struct RowWindows {
    nrows: u8,
    row_dy: [i32; 4],
    row_min_dx: [i32; 4],
    lane_row: [u8; 8],
    /// Bit shift of the lane's byte within its row window: `8 · (dx − row_min_dx)`.
    lane_shift: [u8; 8],
}

const fn build_row_windows() -> [RowWindows; 6] {
    let mut table = [const {
        RowWindows {
            nrows: 0,
            row_dy: [0; 4],
            row_min_dx: [0; 4],
            lane_row: [0; 8],
            lane_shift: [0; 8],
        }
    }; 6];
    let mut d = 0;
    while d < 6 {
        let ring = RING_OFFSETS[d];
        let mut rw = RowWindows {
            nrows: 0,
            row_dy: [0; 4],
            row_min_dx: [0; 4],
            lane_row: [0; 8],
            lane_shift: [0; 8],
        };
        let mut k = 0;
        while k < 8 {
            let node = ring[k];
            // Find or append the row for this dy.
            let mut r = 0;
            while r < rw.nrows as usize {
                if rw.row_dy[r] == node.y {
                    break;
                }
                r += 1;
            }
            if r == rw.nrows as usize {
                assert!(r < 4, "a ring spans at most 4 rows");
                rw.row_dy[r] = node.y;
                rw.row_min_dx[r] = node.x;
                rw.nrows += 1;
            } else if node.x < rw.row_min_dx[r] {
                rw.row_min_dx[r] = node.x;
            }
            k += 1;
        }
        k = 0;
        while k < 8 {
            let node = ring[k];
            let mut r = 0;
            while rw.row_dy[r] != node.y {
                r += 1;
            }
            let off = node.x - rw.row_min_dx[r];
            assert!(
                off >= 0 && (off as u32) < WINDOW_BYTES,
                "ring row wider than its window"
            );
            rw.lane_row[k] = r as u8;
            rw.lane_shift[k] = (off * 8) as u8;
            k += 1;
        }
        table[d] = rw;
        d += 1;
    }
    table
}

/// Per-direction ring row windows, indexed by `Direction::index()`.
static RING_ROW_WINDOWS: [RowWindows; 6] = build_row_windows();

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
        // A raster with a dense random-ish pattern, probed at interior
        // nodes, near every edge, and fully outside: the row-window path,
        // the per-node probe path, and the dispatching `ring_codes` must
        // all agree bit-for-bit, regardless of which one the
        // `ring-windows` feature selects.
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
        let grid = ColorGrid::build(&particles).expect("rasterizes");
        let m = MARGIN as i32;
        for y in -(m + 3)..(7 + m + 3) {
            for x in -(m + 3)..(9 + m + 3) {
                let from = Node::new(x, y);
                for dir in DIRECTIONS {
                    let expect: Vec<u8> = ring_offsets(dir)
                        .iter()
                        .map(|&off| grid.code(from + off))
                        .collect();
                    assert_eq!(
                        grid.ring_codes_windowed(from, dir).as_slice(),
                        expect,
                        "windowed at {from} dir {dir}"
                    );
                    assert_eq!(
                        grid.ring_codes_probed(from, dir).as_slice(),
                        expect,
                        "probed at {from} dir {dir}"
                    );
                    assert_eq!(
                        grid.ring_codes(from, dir).as_slice(),
                        expect,
                        "dispatch at {from} dir {dir}"
                    );
                }
            }
        }
    }
}
