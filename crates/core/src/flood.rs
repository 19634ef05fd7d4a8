//! The dense, one-byte-per-cell scratch behind [`crate::Configuration::audit`],
//! [`crate::Configuration::hole_count`] and
//! [`crate::Configuration::rebuild_counters`].
//!
//! The audit re-derives the edge counts, connectivity, the hole count and
//! the outer boundary walk from the particle table alone, not from the
//! configuration's node index it is checking. Here every one of those is a
//! byte load at a flat index, and each of the six lattice neighbours is a
//! constant index delta.
//!
//! The grid covers the table's bounding box plus a one-node *margin* — the
//! box the hole flood has always used — inside one more ring of *fence*
//! cells. The hole flood marks the fence [`OUTSIDE`] before it starts, so
//! no flood or walk ever steps off the array and none needs a bounds
//! check. Visit marks are written in place:
//!
//! 1. [`FloodGrid::of`] writes each particle's color code (index + 1);
//! 2. [`FloodGrid::recount`] counts edges from the codes and turns every
//!    code into [`OCCUPIED`] — only it reads colors;
//! 3. [`FloodGrid::linked_count`] marks one connected component
//!    [`LINKED`];
//! 4. [`FloodGrid::hole_count`] marks empty cells [`OUTSIDE`] or [`HOLE`];
//! 5. [`FloodGrid::boundary_walk`] reads occupancy only.
//!
//! The audit runs all five in this order. Step 4 tells only empty from
//! non-empty cells, so [`crate::Configuration::hole_count`] runs it
//! straight after step 1.

use sops_lattice::Node;

use crate::config::bounding_box;
use crate::Color;

/// An unoccupied cell no flood has reached.
const EMPTY: u8 = 0;
/// An empty cell reachable from the margin, or a fence cell.
const OUTSIDE: u8 = 1;
/// An empty cell in a counted hole.
const HOLE: u8 = 2;
/// An occupied cell, once [`FloodGrid::recount`] has read its color.
const OCCUPIED: u8 = 3;
/// An occupied cell reached by [`FloodGrid::linked_count`].
const LINKED: u8 = 4;

/// Cells between the bounding box and the array edge: the margin ring plus
/// the fence ring.
const BORDER: i64 = 2;

pub(crate) struct FloodGrid {
    /// Lattice coordinates of cell 0.
    origin_x: i64,
    origin_y: i64,
    width: usize,
    height: usize,
    /// Row-major cells: `(x, y)` lives at `(y − origin_y)·width + (x − origin_x)`.
    cells: Vec<u8>,
    /// Flat index deltas of the six neighbours, in `Direction` order
    /// (E, NE, NW, W, SW, SE).
    deltas: [isize; 6],
    /// Whether a particle of color index `u8::MAX` was put: its code
    /// saturates onto index 254's, so colors no longer tell apart.
    saturated: bool,
    stack: Vec<usize>,
}

impl FloodGrid {
    /// The grid of a particle table: its bounding box, with each
    /// particle's color code put at its node.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, or if its box has more cells than the
    /// address space can index (a box that large could not be scanned
    /// anyway).
    pub(crate) fn of(positions: &[Node], colors: &[Color]) -> Self {
        assert!(!positions.is_empty(), "a particle table is nonempty");
        let mut grid = Self::new(bounding_box(positions.iter().copied()));
        for (&node, &color) in positions.iter().zip(colors) {
            grid.put(node, color);
        }
        grid
    }

    /// An empty grid over the inclusive box `(min_x, max_x, min_y, max_y)`
    /// (the format of [`crate::Configuration::bounding_box`]).
    fn new((min_x, max_x, min_y, max_y): (i32, i32, i32, i32)) -> Self {
        let span = |lo: i32, hi: i32| {
            usize::try_from(i64::from(hi) - i64::from(lo) + 1 + 2 * BORDER)
                .expect("box extent fits usize")
        };
        let (width, height) = (span(min_x, max_x), span(min_y, max_y));
        let cells = vec![
            EMPTY;
            width
                .checked_mul(height)
                .expect("bounding box too large for a dense scan")
        ];
        // The allocation succeeded, so the row stride fits `isize`.
        let w = width as isize;
        FloodGrid {
            origin_x: i64::from(min_x) - BORDER,
            origin_y: i64::from(min_y) - BORDER,
            width,
            height,
            cells,
            deltas: [1, w, w - 1, -1, -w, 1 - w],
            saturated: false,
            stack: Vec::new(),
        }
    }

    /// The flat index of `node`, when it lies in the box or its margin.
    #[inline]
    fn index(&self, node: Node) -> Option<usize> {
        let dx = usize::try_from(i64::from(node.x) - self.origin_x).ok()?;
        let dy = usize::try_from(i64::from(node.y) - self.origin_y).ok()?;
        let inside = |d: usize, extent: usize| (1..extent - 1).contains(&d);
        (inside(dx, self.width) && inside(dy, self.height)).then(|| dy * self.width + dx)
    }

    /// The flat indices of ring `r` (0 = fence, 1 = margin).
    fn ring(&self, r: usize) -> impl Iterator<Item = usize> {
        let (w, h) = (self.width, self.height);
        let rows = [r, h - 1 - r]
            .into_iter()
            .flat_map(move |y| (r..w - r).map(move |x| y * w + x));
        let columns = (r + 1..h - 1 - r).flat_map(move |y| [y * w + r, y * w + w - 1 - r]);
        rows.chain(columns)
    }

    /// Places a particle of `color` at `node`. Nodes outside the box and
    /// its margin are ignored; [`FloodGrid::of`] puts none there.
    #[inline]
    fn put(&mut self, node: Node, color: Color) {
        if let Some(i) = self.index(node) {
            self.saturated |= color.index() == u8::MAX;
            self.cells[i] = color.index().saturating_add(1);
        }
    }

    /// `(e(σ), h(σ))` over the cells put so far, counting each edge from
    /// its E / NE / NW end — or `None` when a `u8::MAX` color made two
    /// colors share a code. Either way every color code becomes
    /// [`OCCUPIED`].
    ///
    /// Cells are visited in index order and the E / NE / NW neighbours all
    /// lie at higher indices, so every neighbour still holds its code when
    /// read, and a cell is overwritten only after its last read.
    pub(crate) fn recount(&mut self) -> Option<(u64, u64)> {
        let w = self.width;
        let (mut edges, mut hetero) = (0u64, 0u64);
        // Rows 1..height − 1: the fence rows hold no particles, and the
        // forward reads of every other row stay in the array.
        for i in w..self.cells.len() - w {
            let code = self.cells[i];
            let occupied = u64::from(code != EMPTY);
            for other in [self.cells[i + 1], self.cells[i + w], self.cells[i + w - 1]] {
                let edge = occupied & u64::from(other != EMPTY);
                edges += edge;
                hetero += edge & u64::from(other != code);
            }
            if code != EMPTY {
                self.cells[i] = OCCUPIED;
            }
        }
        (!self.saturated).then_some((edges, hetero))
    }

    /// The number of nodes a flood from `start` through occupied cells
    /// reaches, counting `start` itself whether or not it is occupied —
    /// `is_connected`'s count, which the configuration compares with `n`.
    ///
    /// # Panics
    ///
    /// Panics if `start` lies outside the box.
    pub(crate) fn linked_count(&mut self, start: Node) -> usize {
        let start = self.index(start).expect("the box covers every particle");
        if self.cells[start] == OCCUPIED {
            self.cells[start] = LINKED;
        }
        self.stack.push(start);
        1 + self.flood(OCCUPIED, LINKED)
    }

    /// Number of holes: components of empty cells the flood from the
    /// margin's empty cells cannot reach.
    pub(crate) fn hole_count(&mut self) -> usize {
        for i in self.ring(0) {
            self.cells[i] = OUTSIDE;
        }
        for i in self.ring(1) {
            if self.cells[i] == EMPTY {
                self.cells[i] = OUTSIDE;
                self.stack.push(i);
            }
        }
        self.flood(EMPTY, OUTSIDE);
        let mut holes = 0;
        for i in 0..self.cells.len() {
            if self.cells[i] == EMPTY {
                holes += 1;
                self.cells[i] = HOLE;
                self.stack.push(i);
                self.flood(EMPTY, HOLE);
            }
        }
        holes
    }

    /// Pops the stack until it is empty, turning each `target` neighbour of
    /// a popped cell into `mark` and pushing it. Returns the cells marked.
    fn flood(&mut self, target: u8, mark: u8) -> usize {
        let mut marked = 0;
        while let Some(i) = self.stack.pop() {
            for d in self.deltas {
                let m = i.wrapping_add_signed(d);
                if self.cells[m] == target {
                    self.cells[m] = mark;
                    self.stack.push(m);
                    marked += 1;
                }
            }
        }
        marked
    }

    #[inline]
    fn occupied(&self, i: usize) -> bool {
        matches!(self.cells[i], OCCUPIED | LINKED)
    }

    /// The first occupied neighbour of `i` counterclockwise after direction
    /// `back` (the last candidate is `back` itself).
    fn next_from(&self, i: usize, back: usize) -> Option<usize> {
        (1..=6)
            .map(|k| (back + k) % 6)
            .find(|&d| self.occupied(i.wrapping_add_signed(self.deltas[d])))
    }

    /// Length of the counterclockwise contour walk around the occupied
    /// cells from `start`, exactly as
    /// [`crate::Configuration::boundary_walk_length`] walks it: `start` is
    /// the lexicographically smallest particle, so the exterior lies to its
    /// west.
    ///
    /// `None` when `start` is unoccupied or has no occupied neighbour. On
    /// the grid of a consistent configuration neither can happen; on a
    /// corrupt one the audit has already reported the desync, and the walk
    /// would never return to `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` lies outside the box.
    pub(crate) fn boundary_walk(&self, start: Node) -> Option<u64> {
        const WEST: usize = 3;
        let start = self.index(start).expect("the box covers every particle");
        if !self.occupied(start) {
            return None;
        }
        let first = self.next_from(start, WEST)?;
        let mut cur = start.wrapping_add_signed(self.deltas[first]);
        let mut back = (first + 3) % 6;
        let mut steps = 1;
        loop {
            // `cur` is occupied and so is its `back` neighbour, so a
            // successor always exists.
            let d = self.next_from(cur, back)?;
            if cur == start && d == first {
                return Some(steps);
            }
            cur = cur.wrapping_add_signed(self.deltas[d]);
            back = (d + 3) % 6;
            steps += 1;
        }
    }
}
