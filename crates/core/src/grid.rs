//! The dense two-plane raster: the node index of every configuration that
//! rasterizes.
//!
//! The chain's inner loop is dominated by *"what, if anything, occupies
//! node `ℓ`?"* probes: one per activation for the hold outcomes, eight more
//! for every proposal that gathers its ring. Against the open-addressing
//! [`sops_lattice::NodeMap`] each probe is a hash, a masked index, and a
//! tag-plus-key compare with a data-dependent branch; against this raster
//! it is two subtractions, two unsigned range checks, and a byte load from
//! a few-KiB array that lives in L1 for realistic system sizes. For a
//! particle at least two cells inside every edge (nearly all of them, with
//! the default border) even that is hoisted: [`ColorGrid::interior_index`]
//! range-checks the source once, and the target and ring probes become
//! loads at flat offsets `dy·width + dx` the raster precomputes per
//! direction whenever it is built.
//!
//! The raster has two planes over the same cells. The *color plane*
//! (`u8`) is all the proposal kernel reads: cell `0` means unoccupied,
//! cell `c > 0` a particle of color index `c − 1`. The *index plane*
//! (`u32`) names the particle: `0` for unoccupied, `i + 1` for particle
//! `i`. A cell is empty in both planes or occupied in both, and the
//! occupied cells are in one-to-one correspondence with the particle table
//! — the bijection [`crate::Configuration::audit`] checks. Colors get their
//! own plane so that the probes keep one byte per cell: an expanded
//! n = 1000 raster of packed `u32` cells would outgrow L1.
//!
//! A new raster covers the configuration's bounding box plus a
//! [`MARGIN`]-cell border, so a particle must step `MARGIN + 1` cells
//! outside the box it was built around before the raster is rebuilt. A
//! rebuild (see [`ColorGrid::rebuild_grown`]) widens the border to at
//! least [`MIN_GROWN_MARGIN`] and doubles it on every later one, so a
//! drifting configuration pays a logarithmic number of them. A system whose
//! raster would exceed [`MAX_CELLS`] is indexed by a `NodeMap` instead;
//! a configuration holds exactly one of the two.

use sops_lattice::{ring_offsets, Direction, Node};

use crate::config::bounding_box;
use crate::Color;

/// Hard cap on raster cells (five bytes each across the two planes):
/// beyond this the raster costs more in memory traffic and clone time than
/// its probes save, and the configuration is indexed by a map.
/// [`crate::construct::random_blob`]'s membership window (one bit a cell)
/// is capped by it too.
pub(crate) const MAX_CELLS: u64 = 1 << 22;

/// Unoccupied border a new raster keeps around the bounding box. With
/// four cells, a particle takes the flat-offset path of
/// [`ColorGrid::interior_index`] until it drifts three cells outward, and
/// an n = 100 blob's raster stays at about 480 cells.
const MARGIN: i64 = 4;

/// The border an outgrown raster jumps to on its first rebuild, and the
/// floor the rebuild policy backs off to (see [`ColorGrid::rebuild_grown`]).
const MIN_GROWN_MARGIN: i64 = 32;

/// Ceiling for the grown border: every outgrow-rebuild doubles it, so
/// rebuild count grows logarithmically in drift distance, but the border
/// never exceeds this many cells per side (a 2·512-cell border alone stays
/// comfortably under [`MAX_CELLS`] for compact systems).
const MAX_GROWN_MARGIN: i64 = 512;

/// The dense raster. See the module docs for the two planes.
#[derive(Clone, Debug)]
pub(crate) struct ColorGrid {
    min_x: i32,
    min_y: i32,
    width: u32,
    height: u32,
    /// Border width this raster was built with; rebuilds after an outgrow
    /// double it (from [`MIN_GROWN_MARGIN`] up to [`MAX_GROWN_MARGIN`]) so
    /// oscillation across the bounding-box edge cannot thrash rebuilds.
    margin: i64,
    /// The flat offsets `dy·width + dx` of the six neighbors, in
    /// `Direction` order and written twice over, so the six rotations of
    /// direction `d` are `neighbor_offsets[d..d + 6]`. Every probe of an
    /// interior proposal is one of them or the sum of two (see
    /// [`ColorGrid::ring_codes_at`]). Every configuration carries a
    /// raster, so this stays at 48 bytes rather than tabulating all nine
    /// probes of each direction (216).
    neighbor_offsets: [i32; 12],
    /// The color plane: `0` or `color index + 1` per cell.
    cells: Vec<u8>,
    /// The index plane: `0` or `particle index + 1` per cell.
    owners: Vec<u32>,
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

/// An inclusive raster extent `(min_x, min_y, max_x, max_y)`.
pub(crate) type Extent = (i64, i64, i64, i64);

impl ColorGrid {
    /// Rasterizes the particle table, filling both planes in table order.
    ///
    /// `Ok(None)` when the system cannot be rasterized: an empty table, a
    /// color index of `u8::MAX` (unencodable), a bounding box beyond
    /// [`MAX_CELLS`], or a border that would leave `i32` coordinate range.
    /// `Err(node)` names the first node in table order that an earlier
    /// particle already owns.
    pub(crate) fn build(positions: &[Node], colors: &[Color]) -> Result<Option<Self>, Node> {
        match Self::covering(positions, colors, MARGIN, None) {
            Some(mut grid) => grid.fill(positions, colors).map(|()| Some(grid)),
            None => Ok(None),
        }
    }

    /// An empty raster over the bounding box of `positions` plus a
    /// `margin`-cell border, extended to keep covering `keep_covering` (a
    /// prior raster's extent): the hysteresis half of the rebuild policy,
    /// under which a raster never shrinks on rebuild, so a configuration
    /// oscillating across its old bounding-box edge cannot re-trigger the
    /// rebuild it just paid for. `None` when the system cannot be
    /// rasterized (see [`ColorGrid::build`]).
    fn covering(
        positions: &[Node],
        colors: &[Color],
        margin: i64,
        keep_covering: Option<Extent>,
    ) -> Option<Self> {
        if positions.is_empty() || colors.iter().any(|c| c.index() == u8::MAX) {
            return None;
        }
        let (min_x, max_x, min_y, max_y) = bounding_box(positions.iter().copied());
        let mut min_x = i64::from(min_x) - margin;
        let mut min_y = i64::from(min_y) - margin;
        let mut max_x = i64::from(max_x) + margin;
        let mut max_y = i64::from(max_y) + margin;
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
        let cells = (width * height) as usize;
        Some(ColorGrid {
            min_x: min_x as i32,
            min_y: min_y as i32,
            width: width as u32,
            height: height as u32,
            margin,
            neighbor_offsets: neighbor_offsets(width as u32),
            cells: vec![0; cells],
            owners: vec![0; cells],
        })
    }

    /// Writes every particle of the table into both planes, in table
    /// order. Every particle is written; the result names the first node
    /// that was already owned when its particle came to it.
    fn fill(&mut self, positions: &[Node], colors: &[Color]) -> Result<(), Node> {
        let mut duplicate = None;
        for (i, (&node, &color)) in positions.iter().zip(colors).enumerate() {
            let cell = self
                .index(node)
                .expect("the raster covers its particles' bounding box");
            if self.owners[cell] != 0 {
                duplicate.get_or_insert(node);
            }
            self.cells[cell] = encode(color);
            self.owners[cell] = owner_entry(i as u32);
        }
        duplicate.map_or(Ok(()), Err)
    }

    /// [`ColorGrid::build`] with a `margin`-cell border instead of
    /// [`MARGIN`], so tests can put particles in the raster's edge band.
    #[cfg(test)]
    pub(crate) fn build_with_margin(
        positions: &[Node],
        colors: &[Color],
        margin: i64,
    ) -> Option<Self> {
        let mut grid = Self::covering(positions, colors, margin, None)?;
        grid.fill(positions, colors).ok()?;
        Some(grid)
    }

    /// Rebuilds from the particle table after a particle stepped outside
    /// this raster, applying the anti-thrash policy: double the border,
    /// from at least [`MIN_GROWN_MARGIN`] up to [`MAX_GROWN_MARGIN`], and
    /// keep covering the old raster's extent. If the grown raster would
    /// exceed [`MAX_CELLS`], the border is halved back down (never below
    /// [`MIN_GROWN_MARGIN`]); as a last resort the old extent is dropped;
    /// and if even that raster cannot fit, `None` tells the configuration
    /// to index itself by a map.
    pub(crate) fn rebuild_grown(&self, positions: &[Node], colors: &[Color]) -> Option<Self> {
        let old_extent = self.extent();
        let mut margin = self
            .margin
            .saturating_mul(2)
            .clamp(MIN_GROWN_MARGIN, MAX_GROWN_MARGIN);
        let mut grid = loop {
            if let Some(grid) = Self::covering(positions, colors, margin, Some(old_extent)) {
                break grid;
            }
            if margin > MIN_GROWN_MARGIN {
                margin = (margin / 2).max(MIN_GROWN_MARGIN);
            } else {
                break Self::covering(positions, colors, MIN_GROWN_MARGIN, None)?;
            }
        };
        // Duplicate nodes exist only in a corrupt table, which the audit
        // reports; the rebuild indexes whatever the table holds.
        let _ = grid.fill(positions, colors);
        Some(grid)
    }

    /// The raster's inclusive extent.
    pub(crate) fn extent(&self) -> Extent {
        (
            i64::from(self.min_x),
            i64::from(self.min_y),
            i64::from(self.min_x) + i64::from(self.width) - 1,
            i64::from(self.min_y) + i64::from(self.height) - 1,
        )
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

    /// The particle at `node` and its color code, when both planes hold
    /// one there.
    #[inline]
    pub(crate) fn particle(&self, node: Node) -> Option<(u32, u8)> {
        let i = self.index(node)?;
        let (owner, code) = (self.owners[i], self.cells[i]);
        (owner != 0 && code != 0).then(|| (owner - 1, code))
    }

    /// The index plane at `node`: the particle there, if any.
    #[inline]
    pub(crate) fn owner(&self, node: Node) -> Option<u32> {
        self.index(node).and_then(|i| self.owners[i].checked_sub(1))
    }

    /// Both planes at `node` — the color plane's raw code and the index
    /// plane's particle — or `None` outside the raster.
    #[inline]
    pub(crate) fn planes(&self, node: Node) -> Option<(u8, Option<u32>)> {
        self.index(node)
            .map(|i| (self.cells[i], self.owners[i].checked_sub(1)))
    }

    /// Places `particle`, of color code `code`, at `node` in both planes;
    /// `false` means the node lies outside the raster and the caller must
    /// rebuild.
    #[inline]
    pub(crate) fn put(&mut self, node: Node, particle: u32, code: u8) -> bool {
        match self.index(node) {
            Some(i) => {
                self.cells[i] = code;
                self.owners[i] = owner_entry(particle);
                true
            }
            None => false,
        }
    }

    /// Empties the cell at `node` in both planes (a no-op outside the
    /// raster, where every node is already unoccupied).
    #[inline]
    pub(crate) fn vacate(&mut self, node: Node) {
        if let Some(i) = self.index(node) {
            self.cells[i] = 0;
            self.owners[i] = 0;
        }
    }

    /// Number of occupied cells in the color plane, counted eight cells at
    /// a time.
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

    /// Number of occupied cells in the index plane.
    pub(crate) fn owned_cells(&self) -> usize {
        self.owners.iter().filter(|&&o| o != 0).count()
    }

    /// `(e(σ), h(σ))` of the color plane, enumerated from the particles at
    /// `positions` and counting each edge from its E / NE / NW end. A
    /// particle at least two cells inside every edge probes those three
    /// neighbours at flat offsets; one in the edge band probes them node by
    /// node. A position whose cell is empty contributes nothing.
    pub(crate) fn recount(&self, positions: &[Node]) -> (u64, u64) {
        const FORWARD: [Direction; 3] = [Direction::E, Direction::NE, Direction::NW];
        let (mut edges, mut hetero) = (0u64, 0u64);
        for &node in positions {
            let (own, forward) = match self.interior_index(node) {
                Some(i) => (self.cells[i], FORWARD.map(|d| self.target_code(i, d))),
                None => (
                    self.code(node),
                    FORWARD.map(|d| self.code(node.neighbor(d))),
                ),
            };
            if own == 0 {
                continue;
            }
            for code in forward {
                let edge = u64::from(code != 0);
                edges += edge;
                hetero += edge & u64::from(code != own);
            }
        }
        (edges, hetero)
    }

    /// Smallest in-raster x coordinate.
    #[cfg(test)]
    pub(crate) fn min_x(&self) -> i32 {
        self.min_x
    }

    /// Smallest in-raster y coordinate.
    #[cfg(test)]
    pub(crate) fn min_y(&self) -> i32 {
        self.min_y
    }

    /// Raster width in cells (the row stride).
    #[cfg(test)]
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Raster height in cells (number of rows).
    #[cfg(test)]
    pub(crate) fn height(&self) -> u32 {
        self.height
    }

    /// Border width this raster was built with.
    #[cfg(test)]
    pub(crate) fn margin(&self) -> i64 {
        self.margin
    }

    /// The raw color-plane cell at `node`, so tests can corrupt one plane.
    ///
    /// # Panics
    ///
    /// Panics if `node` lies outside the raster.
    #[cfg(test)]
    pub(crate) fn code_mut(&mut self, node: Node) -> &mut u8 {
        let i = self.index(node).expect("node inside the raster");
        &mut self.cells[i]
    }

    /// The raw index-plane cell at `node` (`particle + 1`, or `0`).
    ///
    /// # Panics
    ///
    /// Panics if `node` lies outside the raster.
    #[cfg(test)]
    pub(crate) fn owner_mut(&mut self, node: Node) -> &mut u32 {
        let i = self.index(node).expect("node inside the raster");
        &mut self.owners[i]
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

    /// The cell at flat index `i` (an [`ColorGrid::interior_index`] result).
    #[inline]
    pub(crate) fn code_at(&self, i: usize) -> u8 {
        self.cells[i]
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
    /// the slice's own. Written as eight explicit loads, and always
    /// inlined, so the gather compiles into the caller's loop.
    #[inline(always)]
    pub(crate) fn ring_codes_at(&self, i: usize, dir: Direction) -> [u8; 8] {
        let d = dir.index();
        // `n[k]` is the offset of `ℓ + dᵏ`, `d` rotated k times.
        let n: &[i32; 6] = self.neighbor_offsets[d..d + 6]
            .try_into()
            .expect("a range of six");
        let cell = |offset: i32| self.cells[i.wrapping_add_signed(offset as isize)];
        // The ring layout of `sops_lattice::ring`: `d⁰ + d¹`, then
        // `d¹ … d⁵`, then `d⁰ + d⁵` and `d⁰ + d⁰`.
        [
            cell(n[0] + n[1]),
            cell(n[1]),
            cell(n[2]),
            cell(n[3]),
            cell(n[4]),
            cell(n[5]),
            cell(n[0] + n[5]),
            cell(2 * n[0]),
        ]
    }
}

/// How far any probe of a proposal `(ℓ, d)` reaches from `ℓ` along either
/// axis: the target and ring offsets all have `|dx|, |dy| ≤ 2`
/// (`sops_lattice::FOOTPRINT_REACH`).
const FLAT_REACH: u32 = sops_lattice::FOOTPRINT_REACH as u32;

/// The index plane's entry for `particle`.
#[inline]
fn owner_entry(particle: u32) -> u32 {
    particle + 1
}

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

    /// The particle table of `particles`.
    fn table(particles: &[(Node, Color)]) -> (Vec<Node>, Vec<Color>) {
        particles.iter().copied().unzip()
    }

    fn build(particles: &[(Node, Color)]) -> Option<ColorGrid> {
        let (positions, colors) = table(particles);
        ColorGrid::build(&positions, &colors).expect("distinct nodes")
    }

    #[test]
    fn build_probes_and_mutation_roundtrip() {
        let particles = vec![
            (Node::new(0, 0), Color::C1),
            (Node::new(3, -2), Color::C2),
            (Node::new(-1, 4), Color::C3),
        ];
        let mut grid = build(&particles).expect("small system rasterizes");
        for (i, &(node, color)) in particles.iter().enumerate() {
            assert_eq!(grid.code(node), encode(color));
            assert_eq!(decode(grid.code(node)), color);
            assert_eq!(grid.owner(node), Some(i as u32));
            assert_eq!(grid.particle(node), Some((i as u32, encode(color))));
        }
        assert_eq!(grid.code(Node::new(1, 1)), 0);
        assert_eq!(grid.owner(Node::new(1, 1)), None);
        assert_eq!(grid.planes(Node::new(1, 1)), Some((0, None)));
        // Far outside the raster: unoccupied, no panic.
        assert_eq!(grid.code(Node::new(1_000_000, -1_000_000)), 0);
        assert_eq!(grid.owner(Node::new(1_000_000, -1_000_000)), None);
        assert_eq!(grid.planes(Node::new(1_000_000, -1_000_000)), None);
        assert_eq!((grid.occupied_cells(), grid.owned_cells()), (3, 3));

        grid.vacate(Node::new(0, 0));
        assert!(grid.put(Node::new(1, 0), 0, encode(Color::C1)));
        assert_eq!(grid.planes(Node::new(0, 0)), Some((0, None)));
        assert_eq!(grid.particle(Node::new(1, 0)), Some((0, encode(Color::C1))));
        assert_eq!((grid.occupied_cells(), grid.owned_cells()), (3, 3));

        // Within the border: writable; far past it: rejected.
        let m = MARGIN as i32;
        assert!(grid.put(Node::new(3 + m, 0), 0, 1));
        assert!(!grid.put(Node::new(3 + 1000, 0), 0, 1));
    }

    #[test]
    fn build_reports_the_first_duplicate_in_table_order() {
        let particles = [
            (Node::new(0, 0), Color::C1),
            (Node::new(1, 0), Color::C2),
            (Node::new(1, 0), Color::C1),
            (Node::new(0, 0), Color::C2),
        ];
        let (positions, colors) = table(&particles);
        assert_eq!(
            ColorGrid::build(&positions, &colors).unwrap_err(),
            Node::new(1, 0)
        );
    }

    #[test]
    fn build_rejects_uncacheable_systems() {
        assert!(build(&[]).is_none());
        // Unencodable color index.
        assert!(build(&[(Node::new(0, 0), Color::new(u8::MAX))]).is_none());
        // Bounding box past the cell cap.
        let sparse = vec![
            (Node::new(0, 0), Color::C1),
            (Node::new(1 << 20, 1 << 20), Color::C2),
        ];
        assert!(build(&sparse).is_none());
        // Margin would leave i32 range.
        let edge = vec![(Node::new(i32::MAX, 0), Color::C1)];
        assert!(build(&edge).is_none());
        // Compact systems anywhere in range still rasterize.
        let shifted = vec![
            (Node::new(500_000_000, -500_000_000), Color::C1),
            (Node::new(500_000_001, -500_000_000), Color::C2),
        ];
        assert!(build(&shifted).is_some());
        // A box of exactly MAX_CELLS cells with its border still fits.
        let side = (1 << 11) - 2 * MARGIN as i32;
        let diagonal = [
            (Node::new(0, 0), Color::C1),
            (Node::new(side - 1, side - 1), Color::C2),
        ];
        let grid = build(&diagonal).expect("a box of exactly MAX_CELLS rasterizes");
        assert_eq!(
            u64::from(grid.width()) * u64::from(grid.height()),
            MAX_CELLS
        );
        let past = [diagonal[0], (Node::new(side, side - 1), Color::C2)];
        assert!(build(&past).is_none());
    }

    #[test]
    fn margin_absorbs_drift_up_to_its_width() {
        let mut grid = build(&[(Node::new(0, 0), Color::C1)]).unwrap();
        assert_eq!(grid.margin(), MARGIN);
        // All nodes within MARGIN of the box are in-raster.
        let m = MARGIN as i32;
        assert!(grid.put(Node::new(m, 0), 0, 1));
        assert!(grid.put(Node::new(0, -m), 0, 1));
        assert!(!grid.put(Node::new(m + 1, 0), 0, 1));
    }

    #[test]
    fn rebuild_grown_doubles_margin_and_keeps_old_extent() {
        let grid = build(&[(Node::new(0, 0), Color::C1)]).unwrap();
        assert_eq!(grid.margin(), MARGIN);
        let old_min_x = grid.min_x();
        // Particle drifted just past the border.
        let (positions, colors) = table(&[(Node::new(MARGIN as i32 + 1, 0), Color::C1)]);
        let mut grown = grid
            .rebuild_grown(&positions, &colors)
            .expect("still rasterizable");
        assert_eq!(grown.margin(), MIN_GROWN_MARGIN);
        assert_eq!(grown.owner(positions[0]), Some(0));
        assert_eq!(grown.code(positions[0]), encode(Color::C1));
        // Hysteresis: the new raster still covers the old one entirely.
        assert!(grown.min_x() <= old_min_x);
        assert!(grown.put(Node::new(0, -(MARGIN as i32)), 0, 1));
        // And the grown margin extends past the new bounding box.
        let reach = MARGIN as i32 + 1 + MIN_GROWN_MARGIN as i32;
        assert!(grown.put(Node::new(reach, 0), 0, 1));
        assert!(!grown.put(Node::new(reach + 1, 0), 0, 1));
        // The next rebuild doubles the border.
        let again = grown.rebuild_grown(&positions, &colors).unwrap();
        assert_eq!(again.margin(), 2 * MIN_GROWN_MARGIN);
        // Margin growth saturates at the cap.
        let mut g = grid;
        for _ in 0..20 {
            g = g.rebuild_grown(&positions, &colors).unwrap();
        }
        assert_eq!(g.margin(), MAX_GROWN_MARGIN);
    }

    #[test]
    fn rebuild_grown_gives_up_only_when_the_floor_border_cannot_fit() {
        // A diagonal whose border-4 raster is exactly MAX_CELLS: no grown
        // raster fits, with or without the old extent.
        let side = (1 << 11) - 2 * MARGIN as i32;
        let particles = [
            (Node::new(0, 0), Color::C1),
            (Node::new(side - 1, side - 1), Color::C2),
        ];
        let grid = build(&particles).unwrap();
        let (positions, colors) = table(&particles);
        assert!(grid.rebuild_grown(&positions, &colors).is_none());
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
        let mut grid = build(&wide).unwrap();
        let (positions, colors) = table(&wide);
        for _ in 0..12 {
            match grid.rebuild_grown(&positions, &colors) {
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
        let (positions, colors) = table(&particles);
        for margin in [0, 1, 2, 3, MARGIN, MIN_GROWN_MARGIN] {
            let grid =
                ColorGrid::build_with_margin(&positions, &colors, margin).expect("rasterizes");
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
    fn recount_is_the_same_at_flat_offsets_and_in_the_edge_band() {
        // Edges counted pair by pair over the particle list, against the
        // raster's recount with borders that put the bounding box's
        // particles in the edge band (per-node probes) or inside it (flat
        // offsets).
        let mut particles = Vec::new();
        for x in 0..8i32 {
            for y in 0..6i32 {
                if (x * 13 + y * 7) % 4 != 1 {
                    particles.push((Node::new(x, y), Color::new(((x + 2 * y) % 3) as u8)));
                }
            }
        }
        let (mut edges, mut hetero) = (0, 0);
        for (i, &(a, ca)) in particles.iter().enumerate() {
            for &(b, cb) in &particles[i + 1..] {
                if a.is_adjacent(b) {
                    edges += 1;
                    hetero += u64::from(ca != cb);
                }
            }
        }
        let (positions, colors) = table(&particles);
        for margin in [0, 1, 2, 3, MARGIN] {
            let grid = ColorGrid::build_with_margin(&positions, &colors, margin).unwrap();
            assert_eq!(grid.recount(&positions), (edges, hetero), "margin {margin}");
        }
    }

    #[test]
    fn narrow_rasters_have_no_interior() {
        // A single particle with no border: a 1×1 raster, nothing 2 cells
        // inside its edges, and no flat offset may be taken from it.
        let (positions, colors) = table(&[(Node::new(5, -5), Color::C2)]);
        let grid = ColorGrid::build_with_margin(&positions, &colors, 0).unwrap();
        assert_eq!((grid.width(), grid.height()), (1, 1));
        assert_eq!(grid.interior_index(Node::new(5, -5)), None);
        // A 5×5 raster has exactly one interior cell, its center.
        let grid = ColorGrid::build_with_margin(&positions, &colors, 2).unwrap();
        assert_eq!(grid.interior_index(Node::new(5, -5)), Some(12));
        assert_eq!(grid.interior_index(Node::new(6, -5)), None);
        assert_eq!(grid.interior_index(Node::new(5, -4)), None);
    }
}
