//! Particle-system configurations on the triangular lattice.
//!
//! A configuration is its particle table — each particle's node and color,
//! in particle-index order — plus two tracked counters and one node index
//! over the table. The index is the two-plane raster of [`crate::grid`]
//! for every system whose bounding box fits it, and a [`NodeMap`] only for
//! systems too spread out to rasterize; a configuration never holds both.

use core::fmt;

use sops_lattice::{
    ring_offsets, Direction, Node, NodeMap, NodeSet, DIRECTIONS, RING_FROM_SIDE, RING_TO_SIDE,
};

use crate::error::{AuditReport, AuditViolation, ChainStateError, RepairOutcome};
use crate::flood::FloodGrid;
use crate::grid::{self, ColorGrid};
use crate::{Color, ConfigError};

/// Which particle sits on a node, and its color: a map entry, or the two
/// raster planes' cells at the node.
///
/// The map duplicates the color (it also lives in `Configuration::colors`)
/// so *color at node* is a single probe, as it is in the raster.
#[derive(Clone, Copy, Debug)]
struct Slot {
    index: u32,
    color: Color,
}

/// A configuration's node index: exactly one of the raster and the map.
#[derive(Clone)]
enum NodeIndex {
    /// The two-plane raster of [`crate::grid`].
    Raster(ColorGrid),
    /// The index of a system whose raster would exceed the cell cap, or
    /// that holds the unencodable color index `u8::MAX`.
    Map(NodeMap<Slot>),
}

impl NodeIndex {
    /// The raster of the particle table, or its map when it cannot be
    /// rasterized; `Err` names the first node in table order that an
    /// earlier particle already occupies.
    fn build(positions: &[Node], colors: &[Color]) -> Result<Self, Node> {
        match ColorGrid::build(positions, colors)? {
            Some(grid) => Ok(NodeIndex::Raster(grid)),
            None => {
                let (map, duplicate) = map_index(positions, colors);
                duplicate.map_or(Ok(NodeIndex::Map(map)), Err)
            }
        }
    }

    /// The particle at `node`.
    #[inline]
    fn slot(&self, node: Node) -> Option<Slot> {
        match self {
            NodeIndex::Raster(g) => g.particle(node).map(|(index, code)| Slot {
                index,
                color: grid::decode(code),
            }),
            NodeIndex::Map(map) => map.get(node).copied(),
        }
    }

    /// Writes `slot` at `node`; `false` means the node lies outside the
    /// raster.
    #[inline]
    fn put(&mut self, node: Node, slot: Slot) -> bool {
        match self {
            NodeIndex::Raster(g) => g.put(node, slot.index, grid::encode(slot.color)),
            NodeIndex::Map(map) => {
                map.insert(node, slot);
                true
            }
        }
    }

    /// Empties `node`.
    #[inline]
    fn vacate(&mut self, node: Node) {
        match self {
            NodeIndex::Raster(g) => g.vacate(node),
            NodeIndex::Map(map) => {
                map.remove(node);
            }
        }
    }

    /// Exchanges the particles `sa` at `a` and `sb` at `b`. Both nodes were
    /// occupied, so both lie in the raster.
    #[inline]
    fn exchange(&mut self, a: Node, sa: Slot, b: Node, sb: Slot) {
        let placed = self.put(a, sb) & self.put(b, sa);
        debug_assert!(placed, "occupied nodes lie in the raster");
    }
}

/// The map index of the particle table, and the first node in table order
/// that an earlier particle already occupies. A duplicate exists only in a
/// corrupt table; the map then holds the later particle.
fn map_index(positions: &[Node], colors: &[Color]) -> (NodeMap<Slot>, Option<Node>) {
    let mut map = NodeMap::with_capacity(positions.len());
    let mut duplicate = None;
    for (i, (&node, &color)) in positions.iter().zip(colors).enumerate() {
        let slot = Slot {
            index: i as u32,
            color,
        };
        if map.insert(node, slot).is_some() {
            duplicate.get_or_insert(node);
        }
    }
    (map, duplicate)
}

/// A 2-heterogeneous (or k-heterogeneous) particle-system configuration: a
/// set of colored particles occupying distinct nodes of `G_Δ`.
///
/// The configuration incrementally maintains its total edge count `e(σ)` and
/// heterogeneous edge count `h(σ)` across [`Configuration::move_particle`]
/// and [`Configuration::swap`] — the two elementary transitions of chain `M`
/// — so the chain never rescans the system. For connected hole-free
/// configurations the perimeter follows from the identity
/// `p(σ) = 3n − e(σ) − 3` ([`Configuration::perimeter`]); an independent
/// boundary-walk computation ([`Configuration::boundary_walk_length`]) is
/// provided for cross-validation and for configurations that still have
/// holes.
///
/// # Example
///
/// ```
/// use sops_core::{Color, Configuration};
/// use sops_lattice::Node;
///
/// // A triangle: two c1 particles and one c2 particle.
/// let config = Configuration::new([
///     (Node::new(0, 0), Color::C1),
///     (Node::new(1, 0), Color::C1),
///     (Node::new(0, 1), Color::C2),
/// ])?;
/// assert_eq!(config.len(), 3);
/// assert_eq!(config.edge_count(), 3);
/// assert_eq!(config.hetero_edge_count(), 2);
/// assert_eq!(config.perimeter(), 3); // 3·3 − 3 − 3
/// assert!(config.is_connected() && !config.has_holes());
/// # Ok::<(), sops_core::ConfigError>(())
/// ```
#[derive(Clone)]
pub struct Configuration {
    positions: Vec<Node>,
    colors: Vec<Color>,
    edges: u64,
    hetero: u64,
    /// Number of raster rebuilds forced by a particle crossing the border
    /// (see [`crate::grid`]'s anti-thrash policy); cheap drift telemetry
    /// and the regression hook for the rebuild-hysteresis tests.
    raster_rebuilds: u64,
    /// The one node index over `positions` and `colors`.
    index: NodeIndex,
}

impl Configuration {
    /// Creates a configuration from `(node, color)` pairs.
    ///
    /// Connectivity is **not** required here — initial configurations with
    /// holes are legal chain inputs and some analyses need disconnected
    /// states — but [`crate::SeparationChain`] requires
    /// [`Configuration::is_connected`] to hold for its invariants.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Empty`] if no particles are given;
    /// * [`ConfigError::DuplicateNode`] if two particles share a node (the
    ///   first node, in input order, that an earlier particle holds).
    pub fn new<I>(particles: I) -> Result<Self, ConfigError>
    where
        I: IntoIterator<Item = (Node, Color)>,
    {
        let (positions, colors): (Vec<Node>, Vec<Color>) = particles.into_iter().unzip();
        if positions.is_empty() {
            return Err(ConfigError::Empty);
        }
        let index = NodeIndex::build(&positions, &colors).map_err(ConfigError::DuplicateNode)?;
        let mut config = Configuration {
            positions,
            colors,
            edges: 0,
            hetero: 0,
            raster_rebuilds: 0,
            index,
        };
        let (e, h) = config.recount();
        config.edges = e;
        config.hetero = h;
        Ok(config)
    }

    /// Number of particles `n`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the configuration is empty (never true: construction rejects
    /// empty systems).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterates over `(node, color)` of every particle, in particle-index
    /// order.
    pub fn particles(&self) -> impl Iterator<Item = (Node, Color)> + '_ {
        self.positions
            .iter()
            .zip(&self.colors)
            .map(|(&n, &c)| (n, c))
    }

    /// The location of particle `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ n`.
    #[inline]
    #[must_use]
    pub fn position_of(&self, index: usize) -> Node {
        self.positions[index]
    }

    /// The color of particle `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ n`.
    #[inline]
    #[must_use]
    pub fn color_of(&self, index: usize) -> Color {
        self.colors[index]
    }

    /// The color of the particle at `node`, or `None` if unoccupied.
    #[inline]
    #[must_use]
    pub fn color_at(&self, node: Node) -> Option<Color> {
        match &self.index {
            NodeIndex::Raster(g) => {
                let code = g.code(node);
                (code != 0).then(|| grid::decode(code))
            }
            NodeIndex::Map(map) => map.get(node).map(|s| s.color),
        }
    }

    /// The index of the particle at `node`, or `None` if unoccupied.
    #[inline]
    #[must_use]
    pub fn index_at(&self, node: Node) -> Option<usize> {
        match &self.index {
            NodeIndex::Raster(g) => g.owner(node).map(|i| i as usize),
            NodeIndex::Map(map) => map.get(node).map(|s| s.index as usize),
        }
    }

    /// Whether `node` is occupied.
    #[inline]
    #[must_use]
    pub fn is_occupied(&self, node: Node) -> bool {
        match &self.index {
            NodeIndex::Raster(g) => g.code(node) != 0,
            NodeIndex::Map(map) => map.contains(node),
        }
    }

    /// Number of particles of each color class present, indexed by color id.
    #[must_use]
    pub fn color_counts(&self) -> Vec<usize> {
        let k = self
            .colors
            .iter()
            .map(|c| c.index() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut counts = vec![0usize; k];
        for c in &self.colors {
            counts[c.index() as usize] += 1;
        }
        counts
    }

    /// Total number of configuration edges `e(σ)` (lattice edges with both
    /// endpoints occupied). Maintained incrementally.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> u64 {
        self.edges
    }

    /// Number of heterogeneous edges `h(σ)` (endpoints of different colors).
    /// Maintained incrementally.
    #[inline]
    #[must_use]
    pub fn hetero_edge_count(&self) -> u64 {
        self.hetero
    }

    /// The perimeter `p(σ) = 3n − e(σ) − 3` of the configuration.
    ///
    /// The identity holds exactly for connected hole-free configurations
    /// (Lemma 9's proof, citing the compression paper); for configurations
    /// with holes it exceeds the boundary-walk length by the hole boundaries.
    /// The degenerate 1-particle case (where `3n − 3 = 0 = e`) yields 0.
    ///
    /// Every consistent configuration satisfies `e(σ) ≤ 3n − 3`, so the
    /// subtraction cannot underflow unless the tracked edge counter is
    /// corrupt. That case trips a `debug_assert` and returns 0 in release
    /// builds; [`Configuration::audit`] reports it as
    /// [`crate::AuditViolation::PerimeterUnderflow`] rather than letting a
    /// silently clamped 0 masquerade as a fully-compressed configuration.
    #[inline]
    #[must_use]
    pub fn perimeter(&self) -> u64 {
        let bound = 3 * self.positions.len() as u64;
        match self
            .edges
            .checked_add(3)
            .and_then(|held| bound.checked_sub(held))
        {
            Some(p) => p,
            None => {
                debug_assert!(
                    false,
                    "perimeter identity underflow: e = {} exceeds 3n − 3 = {}",
                    self.edges,
                    bound.saturating_sub(3)
                );
                0
            }
        }
    }

    /// Number of occupied neighbors of `node` (whether or not `node` itself
    /// is occupied).
    #[inline]
    #[must_use]
    pub fn occupied_neighbors(&self, node: Node) -> i32 {
        let mut count = 0;
        for d in DIRECTIONS {
            count += i32::from(self.is_occupied(node.neighbor(d)));
        }
        count
    }

    /// Number of occupied neighbors of `node`, not counting `exclude`.
    #[inline]
    #[must_use]
    pub fn occupied_neighbors_excluding(&self, node: Node, exclude: Node) -> i32 {
        let mut count = 0;
        for d in DIRECTIONS {
            let m = node.neighbor(d);
            if m != exclude && self.is_occupied(m) {
                count += 1;
            }
        }
        count
    }

    /// Number of neighbors of `node` occupied by particles of `color`
    /// (`|N_i(ℓ)|` in the paper's notation).
    #[inline]
    #[must_use]
    pub fn colored_neighbors(&self, node: Node, color: Color) -> i32 {
        let mut count = 0;
        for d in DIRECTIONS {
            count += i32::from(self.color_at(node.neighbor(d)) == Some(color));
        }
        count
    }

    /// Like [`Configuration::colored_neighbors`] but not counting the
    /// particle at `exclude` (`|N_i(ℓ′) ∖ {P}|` in the paper's notation).
    #[inline]
    #[must_use]
    pub fn colored_neighbors_excluding(&self, node: Node, color: Color, exclude: Node) -> i32 {
        let mut count = 0;
        for d in DIRECTIONS {
            let m = node.neighbor(d);
            if m != exclude && self.color_at(m) == Some(color) {
                count += 1;
            }
        }
        count
    }

    /// Gathers, in one pass, everything a chain proposal `(from, dir)`'s
    /// filters need to know about its combined neighborhood:
    /// `(occupied, color)` for each of the eight ring nodes around the pair
    /// `(from, from + dir)` — the target itself is *not* probed, so callers
    /// can branch on it first and skip the gather entirely for the 1-probe
    /// hold outcomes.
    ///
    /// This is the fused alternative to probing
    /// [`Configuration::occupied_neighbors`],
    /// [`Configuration::colored_neighbors`], their `_excluding` variants and
    /// [`crate::properties::ring_occupancy`] independently — eight occupancy
    /// probes total instead of ~39, and no heap allocation.
    #[inline]
    #[must_use]
    pub fn ring_gather(&self, from: Node, dir: Direction) -> RingGather {
        match &self.index {
            // Raster path: eight per-node byte probes. `decode(0)` is
            // `C1`, exactly the placeholder the map path leaves in
            // unoccupied lanes, so both paths return identical values bit
            // for bit.
            NodeIndex::Raster(g) => RingGather::from_codes(g.ring_codes(from, dir)),
            NodeIndex::Map(map) => {
                let mut occupancy = 0u8;
                let mut lanes = [0u8; 8];
                for (k, &off) in ring_offsets(dir).iter().enumerate() {
                    if let Some(s) = map.get(from + off) {
                        occupancy |= 1 << k;
                        lanes[k] = s.color.index();
                    }
                }
                RingGather {
                    occupancy,
                    lanes: u64::from_le_bytes(lanes),
                }
            }
        }
    }

    /// Applies a transition's local `delta` to a tracked counter with
    /// checked arithmetic. On a consistent configuration no legal local
    /// change can take a counter out of `u64` range, so an overflow or
    /// underflow here proves the tracked value was already corrupt — it is
    /// surfaced as a typed error instead of wrapping into a plausible value
    /// the auditor could only catch much later.
    fn checked_counter(
        counter: &'static str,
        tracked: u64,
        delta: i64,
    ) -> Result<u64, ChainStateError> {
        let updated = if delta >= 0 {
            tracked.checked_add(delta as u64)
        } else {
            tracked.checked_sub(delta.unsigned_abs())
        };
        updated.ok_or(ChainStateError::CounterCorruption {
            counter,
            tracked,
            delta,
        })
    }

    /// Moves particle `index` to the adjacent unoccupied node `to`,
    /// maintaining the edge and heterogeneous-edge counts.
    ///
    /// # Panics
    ///
    /// Panics if `to` is occupied, equals the particle's current node, is
    /// not adjacent to it, or the tracked counters are corrupt — see
    /// [`Configuration::try_move_particle`] for the non-panicking form.
    pub fn move_particle(&mut self, index: usize, to: Node) {
        self.try_move_particle(index, to)
            .unwrap_or_else(|e| panic!("move_particle({index}, {to}): {e}"));
    }

    /// Moves particle `index` to the adjacent unoccupied node `to`,
    /// maintaining the edge and heterogeneous-edge counts, with corrupt
    /// tracked counters surfaced as typed errors (matching the
    /// `move_ratio`/`swap_ratio` convention). On error the configuration is
    /// left untouched.
    ///
    /// # Errors
    ///
    /// * [`ChainStateError::UnoccupiedSource`] — the particle table points
    ///   at a node the index holds empty (corrupt state);
    /// * [`ChainStateError::CounterCorruption`] — applying the move's local
    ///   edge/hetero delta would wrap a tracked counter.
    ///
    /// # Panics
    ///
    /// Panics if `to` is occupied, equals the particle's current node, or
    /// is not adjacent to it — those are caller API misuse, not state
    /// corruption.
    pub fn try_move_particle(&mut self, index: usize, to: Node) -> Result<(), ChainStateError> {
        let from = self.positions[index];
        assert!(
            from.is_adjacent(to),
            "move target {to} is not adjacent to {from}"
        );
        assert!(!self.is_occupied(to), "move target {to} is occupied");
        let slot = self
            .index
            .slot(from)
            .ok_or(ChainStateError::UnoccupiedSource(from))?;
        debug_assert_eq!(slot.index as usize, index);
        let color = slot.color;
        // Lift the particle: the neighbor counts below read the index.
        self.index.vacate(from);

        // With the particle lifted off the board, plain neighbor counts at
        // `from` and `to` are exactly the edges removed and added.
        let old_deg = i64::from(self.occupied_neighbors(from));
        let old_het =
            i64::from(self.occupied_neighbors(from) - self.colored_neighbors(from, color));
        let new_deg = i64::from(self.occupied_neighbors(to));
        let new_het = i64::from(self.occupied_neighbors(to) - self.colored_neighbors(to, color));

        let outcome =
            Self::checked_counter("edges", self.edges, new_deg - old_deg).and_then(|edges| {
                Self::checked_counter("hetero", self.hetero, new_het - old_het)
                    .map(|hetero| (edges, hetero))
            });
        match outcome {
            Ok((edges, hetero)) => {
                self.edges = edges;
                self.hetero = hetero;
                self.positions[index] = to;
                self.place(to, slot);
                Ok(())
            }
            Err(e) => {
                // Put the lifted particle back so the failed transition
                // leaves the (already corrupt, but unchanged) state intact
                // for the auditor. Its node was indexed, so this cannot
                // rebuild.
                self.place(from, slot);
                Err(e)
            }
        }
    }

    /// Swaps the particles at adjacent nodes `a` and `b` (a *swap move*).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not adjacent, either is unoccupied, or the
    /// tracked hetero counter is corrupt — see [`Configuration::try_swap`]
    /// for the non-panicking form.
    pub fn swap(&mut self, a: Node, b: Node) {
        self.try_swap(a, b)
            .unwrap_or_else(|e| panic!("swap({a}, {b}): {e}"));
    }

    /// Swaps the particles at adjacent nodes `a` and `b` (a *swap move*),
    /// with corrupt tracked counters surfaced as typed errors. On error the
    /// configuration is left untouched.
    ///
    /// A same-color swap is a no-op on the configuration but is still
    /// performed (positions exchange); the edge counts are unaffected either
    /// way, and `h(σ)` is updated from the local neighborhoods.
    ///
    /// # Errors
    ///
    /// * [`ChainStateError::UnoccupiedSource`] — `a` holds no particle;
    /// * [`ChainStateError::UnoccupiedTarget`] — `b` holds no particle;
    /// * [`ChainStateError::CounterCorruption`] — applying the swap's local
    ///   hetero delta would wrap the tracked counter (previously this
    ///   silently wrapped through an `as u64` cast).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not adjacent (caller API misuse).
    pub fn try_swap(&mut self, a: Node, b: Node) -> Result<(), ChainStateError> {
        assert!(a.is_adjacent(b), "swap nodes {a} and {b} are not adjacent");
        let sa = self
            .index
            .slot(a)
            .ok_or(ChainStateError::UnoccupiedSource(a))?;
        let sb = self
            .index
            .slot(b)
            .ok_or(ChainStateError::UnoccupiedTarget(b))?;
        if sa.color != sb.color {
            // Recount heterogeneous edges in the two neighborhoods. The edge
            // (a, b) itself stays heterogeneous; edges to third parties flip
            // when the third party's color separates the two swapped colors.
            let mut delta: i64 = 0;
            for d in DIRECTIONS {
                let u = a.neighbor(d);
                if u != b {
                    if let Some(cu) = self.color_at(u) {
                        delta -= i64::from(cu != sa.color);
                        delta += i64::from(cu != sb.color);
                    }
                }
                let v = b.neighbor(d);
                if v != a {
                    if let Some(cv) = self.color_at(v) {
                        delta -= i64::from(cv != sb.color);
                        delta += i64::from(cv != sa.color);
                    }
                }
            }
            self.hetero = Self::checked_counter("hetero", self.hetero, delta)?;
        }
        // Physically exchange the particles.
        self.index.exchange(a, sa, b, sb);
        self.positions[sa.index as usize] = b;
        self.positions[sb.index as usize] = a;
        Ok(())
    }

    /// Commits a move the proposal kernel has already decided, applying the
    /// counter deltas its ring gather yielded instead of re-deriving them:
    /// `d_edges = Δe` and `d_hetero = Δe − Δe_i`, exactly what
    /// [`Configuration::try_move_particle`] recounts from `from` and `to`.
    ///
    /// Every check `try_move_particle` makes stays, in the same order,
    /// against the same index: the occupied-target assertion,
    /// [`ChainStateError::UnoccupiedSource`], checked counters that leave
    /// the state untouched on [`ChainStateError::CounterCorruption`], and
    /// the raster rebuild when `to` crosses the border.
    ///
    /// # Panics
    ///
    /// Panics if `to` is occupied.
    #[inline(never)]
    pub(crate) fn commit_move(
        &mut self,
        index: usize,
        to: Node,
        d_edges: i32,
        d_hetero: i32,
    ) -> Result<(), ChainStateError> {
        let from = self.positions[index];
        debug_assert!(
            from.is_adjacent(to),
            "move target {to} is not adjacent to {from}"
        );
        assert!(!self.is_occupied(to), "move target {to} is occupied");
        let slot = self
            .index
            .slot(from)
            .ok_or(ChainStateError::UnoccupiedSource(from))?;
        debug_assert_eq!(slot.index as usize, index);
        let edges = Self::checked_counter("edges", self.edges, d_edges.into())?;
        self.hetero = Self::checked_counter("hetero", self.hetero, d_hetero.into())?;
        self.edges = edges;
        self.index.vacate(from);
        self.positions[index] = to;
        self.place(to, slot);
        Ok(())
    }

    /// Commits a swap the proposal kernel has already decided, applying
    /// `d_hetero = −gain` from its ring gather where
    /// [`Configuration::try_swap`] recounts it with ten more probes. Every
    /// check `try_swap` makes stays: [`ChainStateError::UnoccupiedSource`],
    /// [`ChainStateError::UnoccupiedTarget`], and a checked hetero counter
    /// (applied only when the index's two colors differ) that leaves the
    /// state untouched on [`ChainStateError::CounterCorruption`].
    #[inline(never)]
    pub(crate) fn commit_swap(
        &mut self,
        a: Node,
        b: Node,
        d_hetero: i32,
    ) -> Result<(), ChainStateError> {
        debug_assert!(a.is_adjacent(b), "swap nodes {a} and {b} are not adjacent");
        let sa = self
            .index
            .slot(a)
            .ok_or(ChainStateError::UnoccupiedSource(a))?;
        let sb = self
            .index
            .slot(b)
            .ok_or(ChainStateError::UnoccupiedTarget(b))?;
        if sa.color != sb.color {
            self.hetero = Self::checked_counter("hetero", self.hetero, d_hetero.into())?;
        }
        self.index.exchange(a, sa, b, sb);
        self.positions[sa.index as usize] = b;
        self.positions[sb.index as usize] = a;
        Ok(())
    }

    /// The raster, if the system is rasterized.
    #[inline]
    pub(crate) fn raster(&self) -> Option<&ColorGrid> {
        match &self.index {
            NodeIndex::Raster(g) => Some(g),
            NodeIndex::Map(_) => None,
        }
    }

    /// Mutable access to the raster, so tests can corrupt one plane.
    #[cfg(test)]
    pub(crate) fn raster_mut(&mut self) -> Option<&mut ColorGrid> {
        match &mut self.index {
            NodeIndex::Raster(g) => Some(g),
            NodeIndex::Map(_) => None,
        }
    }

    /// Whether the configuration is indexed by the raster rather than by a
    /// map. A probe for tests that run across the raster-to-map switch.
    #[doc(hidden)]
    #[must_use]
    pub fn is_rasterized(&self) -> bool {
        self.raster().is_some()
    }

    /// Writes `slot` at `node` in the index. A node outside the raster (a
    /// particle crossed the border) rebuilds the raster from the particle
    /// table, which must already hold the particle at `node`; when the
    /// grown system no longer rasterizes, the configuration converts to a
    /// map.
    fn place(&mut self, node: Node, slot: Slot) {
        if self.index.put(node, slot) {
            return;
        }
        let rebuilt = match &self.index {
            NodeIndex::Raster(g) => g.rebuild_grown(&self.positions, &self.colors),
            NodeIndex::Map(_) => unreachable!("a map indexes every node"),
        };
        self.index = match rebuilt {
            Some(grid) => NodeIndex::Raster(grid),
            None => NodeIndex::Map(map_index(&self.positions, &self.colors).0),
        };
        self.raster_rebuilds += 1;
    }

    /// Number of raster rebuilds forced by border crossings over this
    /// configuration's lifetime. The rebuild policy doubles the border each
    /// time (with hysteresis — see [`crate::grid`]), so under steady drift
    /// this grows logarithmically with distance, not linearly.
    #[inline]
    #[must_use]
    pub fn raster_rebuild_count(&self) -> u64 {
        self.raster_rebuilds
    }

    /// Recomputes `(e(σ), h(σ))` from scratch through the node index: the
    /// raster's color plane probed from each particle's cell at flat
    /// offsets, or every map entry's neighbours probed in the map. O(n);
    /// construction's count, and the oracle tests validate the incremental
    /// bookkeeping against.
    #[must_use]
    pub fn recount(&self) -> (u64, u64) {
        let map = match &self.index {
            NodeIndex::Raster(g) => return g.recount(&self.positions),
            NodeIndex::Map(map) => map,
        };
        let mut edges = 0;
        let mut hetero = 0;
        // Count each edge from its E / NE / NW side only.
        const HALF: [Direction; 3] = [Direction::E, Direction::NE, Direction::NW];
        for (node, slot) in map.iter() {
            for d in HALF {
                if let Some(other) = map.get(node.neighbor(d)) {
                    edges += 1;
                    if other.color != slot.color {
                        hetero += 1;
                    }
                }
            }
        }
        (edges, hetero)
    }

    /// Rebuilds the incrementally-maintained counter caches (`e(σ)`,
    /// `h(σ)`) from the particle table alone, returning the previous
    /// `(edges, hetero)` values they replaced.
    ///
    /// The counters are pure summaries of the table, so this is always
    /// sound: after a rebuild the counter-class audit checks
    /// ([`AuditViolation::EdgeCountDrift`],
    /// [`AuditViolation::HeteroCountDrift`],
    /// [`AuditViolation::PerimeterUnderflow`]) are guaranteed clean, and
    /// on an already-consistent configuration the call is a no-op
    /// (round-trips bit for bit). O(n + area of the bounding box), like the
    /// audit; intended for the recovery ladder, not the proposal hot path.
    pub fn rebuild_counters(&mut self) -> (u64, u64) {
        let old = (self.edges, self.hetero);
        // Counted exactly as the audit counts them.
        let (edges, hetero) = FloodGrid::of(&self.positions, &self.colors)
            .recount()
            .unwrap_or_else(|| self.recount());
        self.edges = edges;
        self.hetero = hetero;
        old
    }

    /// Attempts to reconcile an [`AuditReport`]'s violations in place.
    ///
    /// Counter-class violations are fixed by [`Configuration::rebuild_counters`];
    /// structural violations (occupancy desync, disconnection,
    /// perimeter/boundary-walk mismatch) are returned in
    /// [`RepairOutcome::unrepaired`] — the primary representation itself
    /// is damaged and the only sound recovery is restoring an earlier
    /// trusted state.
    pub fn repair(&mut self, report: &AuditReport) -> RepairOutcome {
        let mut repaired = Vec::new();
        let mut unrepaired = Vec::new();
        let mut rebuild = false;
        for v in &report.violations {
            match v {
                AuditViolation::EdgeCountDrift { .. }
                | AuditViolation::HeteroCountDrift { .. }
                | AuditViolation::PerimeterUnderflow { .. } => rebuild = true,
                other => unrepaired.push(other.clone()),
            }
        }
        if rebuild {
            let (old_edges, old_hetero) = self.rebuild_counters();
            repaired.push(format!(
                "rebuilt counter caches from occupancy: edges {old_edges} → {}, \
                 hetero {old_hetero} → {}",
                self.edges, self.hetero
            ));
        }
        RepairOutcome {
            repaired,
            unrepaired,
        }
    }

    /// Overwrites the tracked counter caches with arbitrary values.
    ///
    /// A fault-injection hook for cross-crate recovery tests (it is the
    /// only way to manufacture counter corruption without unsafe code);
    /// hidden from docs because no real caller should ever use it.
    #[doc(hidden)]
    pub fn inject_counter_fault(&mut self, edges: u64, hetero: u64) {
        self.edges = edges;
        self.hetero = hetero;
    }

    /// Whether the configuration is connected in `G_Δ`.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let mut seen = NodeSet::with_capacity(self.len());
        let mut stack = vec![self.positions[0]];
        seen.insert(self.positions[0]);
        while let Some(n) = stack.pop() {
            for m in n.neighbors() {
                if self.is_occupied(m) && seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        seen.len() == self.len()
    }

    /// Number of holes: maximal finite connected components of unoccupied
    /// nodes.
    ///
    /// Computed by flood-filling the complement from the one-node margin
    /// around the bounding box, on a dense byte grid of the box (O(box
    /// area)); unoccupied in-box nodes not reached belong to holes.
    #[must_use]
    pub fn hole_count(&self) -> usize {
        FloodGrid::of(&self.positions, &self.colors).hole_count()
    }

    /// Whether the configuration has at least one hole.
    #[must_use]
    pub fn has_holes(&self) -> bool {
        self.hole_count() > 0
    }

    /// Axial bounding box `(min_x, max_x, min_y, max_y)` of the particles.
    #[must_use]
    pub fn bounding_box(&self) -> (i32, i32, i32, i32) {
        bounding_box(self.positions.iter().copied())
    }

    /// Length of the outer boundary walk `P`: the closed walk on
    /// configuration edges enclosing all particles.
    ///
    /// This is an independent O(p) computation of the perimeter used to
    /// cross-validate the `p = 3n − e − 3` identity; for configurations with
    /// holes it returns only the *outer* boundary length (the identity then
    /// differs by the hole boundaries).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is disconnected (the walk is undefined).
    #[must_use]
    pub fn boundary_walk_length(&self) -> u64 {
        assert!(
            self.is_connected(),
            "boundary walk requires a connected configuration"
        );
        if self.len() == 1 {
            return 0;
        }
        // Start at the lexicographically smallest occupied node (min x, then
        // min y): its W / NW / SW neighbors are all unoccupied, so the
        // exterior lies to its west and a counterclockwise contour walk can
        // start with a virtual predecessor in direction W.
        let start = self
            .positions
            .iter()
            .copied()
            .min_by_key(|n| (n.x, n.y))
            .expect("configuration is nonempty");

        let next_from = |cur: Node, back: Direction| -> Direction {
            // Scan counterclockwise from just past the direction we came
            // from; the last candidate is `back` itself (retreat from a leaf).
            for k in 1..=6 {
                let d = back.rotated_by(k);
                if self.is_occupied(cur.neighbor(d)) {
                    return d;
                }
            }
            unreachable!("connected configuration with n ≥ 2 has an occupied neighbor")
        };

        let first_dir = next_from(start, Direction::W);
        let mut cur = start.neighbor(first_dir);
        let mut back = first_dir.opposite();
        let mut steps: u64 = 1;
        loop {
            let d = next_from(cur, back);
            if cur == start && d == first_dir {
                break;
            }
            cur = cur.neighbor(d);
            back = d.opposite();
            steps += 1;
        }
        steps
    }

    /// Recomputes every tracked invariant from scratch and diffs the results
    /// against the incrementally-maintained bookkeeping.
    ///
    /// The audit independently re-derives, without consulting the tracked
    /// counters:
    ///
    /// * the node index ↔ particle table correspondence (see below);
    /// * the edge count `e(σ)` and heterogeneous edge count `h(σ)`;
    /// * connectivity (which the chain provably preserves);
    /// * the hole count;
    /// * for connected hole-free states, the perimeter identity
    ///   `p(σ) = 3n − e(σ) − 3` against the contour boundary walk.
    ///
    /// Any disagreement becomes an [`AuditViolation`] in the returned
    /// [`AuditReport`]; the report never panics regardless of how corrupt
    /// the state is. Holes alone are *not* a violation — configurations
    /// with holes are legal chain states (Lemma 6 only guarantees holes
    /// eventually close) — but disconnection is, since every transition
    /// preserves connectivity.
    ///
    /// For a rasterized configuration the index check is a bijection
    /// check: each particle's cell holds its color code in the color plane
    /// and its index in the index plane, and each plane holds exactly `n`
    /// occupied cells — so a stale, cleared or wrong cell in either plane
    /// is an [`AuditViolation::OccupancyDesync`]. A map-indexed
    /// configuration checks every map entry against the table and every
    /// particle against the map.
    ///
    /// The recount, one connectivity flood, the hole flood and the
    /// boundary walk run on one dense byte grid of the particle table's
    /// bounding box, with no index probe, each giving exactly what
    /// [`Configuration::recount`], [`Configuration::is_connected`],
    /// [`Configuration::hole_count`] and
    /// [`Configuration::boundary_walk_length`] give on a consistent state.
    /// Cost is O(n + area of the bounding box); intended for checkpoint
    /// boundaries and debugging, not the chain's hot path.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let mut violations = match &self.index {
            NodeIndex::Raster(grid) => self.raster_desyncs(grid),
            NodeIndex::Map(map) => self.map_desyncs(map),
        };
        let mut scan = FloodGrid::of(&self.positions, &self.colors);
        let (edges, hetero) = scan.recount().unwrap_or_else(|| self.recount());
        if edges != self.edges {
            violations.push(AuditViolation::EdgeCountDrift {
                tracked: self.edges,
                recomputed: edges,
            });
        }
        // `perimeter()` clamps an underflowing identity to 0 in release
        // builds; surface the corruption the clamp would hide. Checked on
        // the *tracked* counter — the recomputed count can never violate
        // the e ≤ 3n − 3 bound.
        let underflows = self
            .edges
            .checked_add(3)
            .is_none_or(|held| held > 3 * self.positions.len() as u64);
        if underflows {
            violations.push(AuditViolation::PerimeterUnderflow {
                particles: self.positions.len(),
                tracked_edges: self.edges,
            });
        }
        if hetero != self.hetero {
            violations.push(AuditViolation::HeteroCountDrift {
                tracked: self.hetero,
                recomputed: hetero,
            });
        }

        let connected = scan.linked_count(self.positions[0]) == self.len();
        if !connected {
            violations.push(AuditViolation::Disconnected);
        }
        let holes = scan.hole_count();
        if connected && holes == 0 && self.len() > 1 {
            // Derive the identity from the *recomputed* edge count so this
            // check stays meaningful even when the tracked count drifted
            // (drift is already reported separately).
            let identity = (3 * self.positions.len() as u64).saturating_sub(edges + 3);
            let start = self
                .positions
                .iter()
                .copied()
                .min_by_key(|n| (n.x, n.y))
                .expect("configuration is nonempty");
            // `None` only when `start` has no occupied neighbour, which a
            // connected table of n ≥ 2 particles rules out.
            if let Some(walk) = scan.boundary_walk(start) {
                if identity != walk {
                    violations.push(AuditViolation::PerimeterMismatch { identity, walk });
                }
            }
        }

        AuditReport {
            particles: self.len(),
            edges,
            hetero_edges: hetero,
            connected,
            holes,
            violations,
        }
    }

    /// The raster half of [`Configuration::audit`]: every particle's cell
    /// in table order, then the two planes' occupied-cell counts.
    fn raster_desyncs(&self, grid: &ColorGrid) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        let n = self.len();
        for (i, (&node, &color)) in self.positions.iter().zip(&self.colors).enumerate() {
            let detail = match grid.planes(node) {
                None => vec![format!("particle {i} lies outside the raster")],
                Some((code, owner)) => {
                    let mut found = Vec::new();
                    if code != grid::encode(color) {
                        found.push(format!(
                            "color plane holds {code} for particle {i} of color {color:?}"
                        ));
                    }
                    if owner != Some(i as u32) {
                        found.push(match owner {
                            Some(other) => {
                                format!("index plane holds particle {other}, not particle {i}")
                            }
                            None => format!("index plane is empty under particle {i}"),
                        });
                    }
                    found
                }
            };
            violations.extend(
                detail
                    .into_iter()
                    .map(|detail| AuditViolation::OccupancyDesync { node, detail }),
            );
        }
        for (plane, cells) in [
            ("color", grid.occupied_cells()),
            ("index", grid.owned_cells()),
        ] {
            if cells != n {
                violations.push(AuditViolation::OccupancyDesync {
                    node: self.positions[0],
                    detail: format!("{plane} plane holds {cells} occupied cells for {n} particles"),
                });
            }
        }
        violations
    }

    /// The map half of [`Configuration::audit`]: every map entry against
    /// the table, in map order, then — when the counts differ — every
    /// particle against the map.
    fn map_desyncs(&self, map: &NodeMap<Slot>) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        let mut entries = 0usize;
        for (node, slot) in map.iter() {
            entries += 1;
            let idx = slot.index as usize;
            if idx >= self.positions.len() {
                violations.push(AuditViolation::OccupancyDesync {
                    node,
                    detail: format!(
                        "slot index {idx} out of range for {} particles",
                        self.positions.len()
                    ),
                });
                continue;
            }
            if self.positions[idx] != node {
                violations.push(AuditViolation::OccupancyDesync {
                    node,
                    detail: format!(
                        "slot index {idx} maps back to {}, not this node",
                        self.positions[idx]
                    ),
                });
            }
            if self.colors[idx] != slot.color {
                violations.push(AuditViolation::OccupancyDesync {
                    node,
                    detail: format!(
                        "slot color {:?} disagrees with color table {:?}",
                        slot.color, self.colors[idx]
                    ),
                });
            }
        }
        if entries != self.positions.len() {
            for (i, &n) in self.positions.iter().enumerate() {
                if map.get(n).is_none() {
                    violations.push(AuditViolation::OccupancyDesync {
                        node: n,
                        detail: format!("particle {i} is missing from the occupancy map"),
                    });
                }
            }
        }
        violations
    }

    /// The canonical form of this configuration: particle set translated so
    /// its lexicographically smallest node is the origin, sorted. Two
    /// configurations are the same *configuration* in the paper's sense
    /// (equivalence class of arrangements under translation) iff their
    /// canonical forms are equal.
    #[must_use]
    pub fn canonical_form(&self) -> CanonicalForm {
        let base = self
            .positions
            .iter()
            .copied()
            .min_by_key(|n| (n.x, n.y))
            .expect("configuration is nonempty");
        let mut cells: Vec<(i32, i32, u8)> = self
            .particles()
            .map(|(n, c)| (n.x - base.x, n.y - base.y, c.index()))
            .collect();
        cells.sort_unstable();
        CanonicalForm { cells }
    }
}

/// Axial bounding box `(min_x, max_x, min_y, max_y)` of `nodes`.
pub(crate) fn bounding_box(nodes: impl Iterator<Item = Node>) -> (i32, i32, i32, i32) {
    nodes.fold(
        (i32::MAX, i32::MIN, i32::MAX, i32::MIN),
        |(min_x, max_x, min_y, max_y), n| {
            (
                min_x.min(n.x),
                max_x.max(n.x),
                min_y.min(n.y),
                max_y.max(n.y),
            )
        },
    )
}

/// The result of [`Configuration::ring_gather`]: one proposal's combined
/// neighborhood, gathered in a single pass.
///
/// Ring positions follow the cyclic layout of [`sops_lattice::ring`]; the
/// side masks [`sops_lattice::RING_FROM_SIDE`] / [`sops_lattice::RING_TO_SIDE`]
/// select the positions adjacent to the source and target respectively, so
/// every neighbor count the Metropolis exponents need is a masked popcount
/// over this gather.
#[derive(Clone, Copy, Debug)]
pub struct RingGather {
    /// Bit `k` set iff ring position `k` is occupied — the index into
    /// [`crate::properties::MOVEMENT_ALLOWED`].
    pub occupancy: u8,
    /// The color index at ring position `k` in byte `k` (`0` where
    /// unoccupied), so one SWAR compare tests all eight lanes.
    lanes: u64,
}

/// `SIDE_GAIN[m] = popcount(m & RING_TO_SIDE) − popcount(m & RING_FROM_SIDE)`:
/// for a ring mask `m`, how many more of its positions neighbor the target
/// `ℓ′` than the source `ℓ`. Every Metropolis exponent of a proposal is one
/// lookup: a move's `Δe` is `SIDE_GAIN[occupancy]` and its `Δe_i` is
/// `SIDE_GAIN[color_mask(c_i)]`; a swap's gain is
/// `SIDE_GAIN[color_mask(c_i)] − SIDE_GAIN[color_mask(c_j)]`. The table
/// replaces four popcounts per proposal, each a multiply sequence on
/// baseline x86-64, which has no `popcnt`.
pub(crate) const SIDE_GAIN: [i8; 256] = {
    let mut table = [0i8; 256];
    let mut m = 0;
    while m < 256 {
        let mask = m as u8;
        table[m] =
            (mask & RING_TO_SIDE).count_ones() as i8 - (mask & RING_FROM_SIDE).count_ones() as i8;
        m += 1;
    }
    table
};

/// Packs bit 7 of byte `k` into bit `k`: each byte's bit lands at
/// `56 + k` of the product, with no two partial products overlapping.
#[inline]
fn pack_high_bits(high: u64) -> u8 {
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

impl RingGather {
    /// Builds a gather from eight raster cell codes in ring order — the
    /// shared decode step of [`Configuration::ring_gather`]'s raster path
    /// and the fused kernel, so both stay bit-for-bit interchangeable.
    #[inline]
    pub(crate) fn from_codes(codes: [u8; 8]) -> Self {
        let codes = u64::from_le_bytes(codes);
        let occupied = grid::nonzero_bytes(codes);
        // Occupied codes are ≥ 1, so subtracting 1 from exactly those
        // bytes (`grid::decode`) borrows across no byte boundary.
        RingGather {
            occupancy: pack_high_bits(occupied),
            lanes: codes - (occupied >> 7),
        }
    }

    /// The color at ring position `k`, if occupied.
    #[inline]
    #[must_use]
    pub fn color_at(&self, k: usize) -> Option<Color> {
        (self.occupancy & (1 << k) != 0).then(|| Color::new((self.lanes >> (8 * k)) as u8))
    }

    /// Bitmask of the occupied ring positions holding `color`, so every
    /// colored-neighbor count is a masked popcount
    /// (`(color_mask(c) & mask).count_ones()`) and every colored
    /// Metropolis exponent one [`SIDE_GAIN`] load.
    ///
    /// One XOR against `color` broadcast to every byte zeroes exactly the
    /// matching lanes; unoccupied lanes also hold 0, so the occupancy mask
    /// drops them when `color` is `C1`.
    #[inline]
    #[must_use]
    pub fn color_mask(&self, color: Color) -> u8 {
        let differs =
            grid::nonzero_bytes(self.lanes ^ (u64::from(color.index()) * 0x0101_0101_0101_0101));
        !pack_high_bits(differs) & self.occupancy
    }
}

#[cfg(test)]
impl Configuration {
    /// Test-only: overwrites the tracked edge counter to simulate state
    /// corruption (exercises the `InvalidStateHold` classification).
    pub(crate) fn corrupt_edges_for_test(&mut self, edges: u64) {
        self.edges = edges;
    }

    /// Test-only: overwrites the tracked heterogeneous-edge counter.
    pub(crate) fn corrupt_hetero_for_test(&mut self, hetero: u64) {
        self.hetero = hetero;
    }

    /// Test-only: re-rasterizes with a `margin`-cell border (particles on
    /// the bounding box then sit in the raster's edge band), or indexes the
    /// configuration by a map for `None`, so the kernel's per-node and map
    /// fallbacks run.
    pub(crate) fn reraster_for_test(&mut self, margin: Option<i64>) {
        let grid =
            margin.and_then(|m| ColorGrid::build_with_margin(&self.positions, &self.colors, m));
        self.index = match grid {
            Some(grid) => NodeIndex::Raster(grid),
            None => NodeIndex::Map(map_index(&self.positions, &self.colors).0),
        };
    }
}

impl fmt::Debug for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Configuration")
            .field("n", &self.len())
            .field("edges", &self.edges)
            .field("hetero", &self.hetero)
            .field("perimeter", &self.perimeter())
            .finish()
    }
}

/// A translation-canonical snapshot of a configuration, usable as a hash key
/// (for state-space enumeration and empirical distributions).
///
/// # Example
///
/// ```
/// use sops_core::{Color, Configuration};
/// use sops_lattice::Node;
///
/// let a = Configuration::new([(Node::new(0, 0), Color::C1), (Node::new(1, 0), Color::C2)])?;
/// let b = Configuration::new([(Node::new(5, -3), Color::C1), (Node::new(6, -3), Color::C2)])?;
/// assert_eq!(a.canonical_form(), b.canonical_form());
/// # Ok::<(), sops_core::ConfigError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalForm {
    cells: Vec<(i32, i32, u8)>,
}

impl CanonicalForm {
    /// The `(x, y, color-index)` cells in sorted order.
    #[must_use]
    pub fn cells(&self) -> &[(i32, i32, u8)] {
        &self.cells
    }

    /// Number of particles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the form is empty (never true for forms produced by
    /// [`Configuration::canonical_form`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reconstructs a configuration from this form.
    #[must_use]
    pub fn to_configuration(&self) -> Configuration {
        Configuration::new(
            self.cells
                .iter()
                .map(|&(x, y, c)| (Node::new(x, y), Color::new(c))),
        )
        .expect("canonical forms hold distinct nodes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tri() -> Configuration {
        Configuration::new([
            (Node::new(0, 0), Color::C1),
            (Node::new(1, 0), Color::C1),
            (Node::new(0, 1), Color::C2),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            Configuration::new(std::iter::empty()),
            Err(ConfigError::Empty)
        ));
        let dup = Configuration::new([(Node::new(0, 0), Color::C1), (Node::new(0, 0), Color::C2)]);
        assert!(matches!(dup, Err(ConfigError::DuplicateNode(_))));
    }

    #[test]
    fn counts_on_triangle() {
        let c = tri();
        assert_eq!(c.edge_count(), 3);
        assert_eq!(c.hetero_edge_count(), 2);
        assert_eq!(c.perimeter(), 3);
        assert_eq!(c.recount(), (3, 2));
        assert_eq!(c.color_counts(), vec![2, 1]);
    }

    #[test]
    fn neighbor_counting_with_exclusion() {
        let c = tri();
        let origin = Node::new(0, 0);
        assert_eq!(c.occupied_neighbors(origin), 2);
        assert_eq!(c.occupied_neighbors_excluding(origin, Node::new(1, 0)), 1);
        assert_eq!(c.colored_neighbors(origin, Color::C1), 1);
        assert_eq!(c.colored_neighbors(origin, Color::C2), 1);
        assert_eq!(
            c.colored_neighbors_excluding(origin, Color::C2, Node::new(0, 1)),
            0
        );
        // Unoccupied node adjacent to all three particles.
        let hub = Node::new(1, -1); // neighbors: (0,0)? dist((1,-1),(0,0)) = 1 ✓, (1,0) ✓, (0,1)? dist = 2 ✗
        assert_eq!(c.occupied_neighbors(hub), 2);
    }

    #[test]
    fn move_particle_updates_counts_incrementally() {
        let mut c = tri();
        // Move the c2 particle from (0,1) to (1,-1)? not adjacent; use (-1,1)→ no.
        // (0,1) neighbors: (1,1),(0,2),(-1,2)?? Use a legal adjacent target: (1,1)? wait
        // we move particle 2 at (0,1) to (1,1), adjacent to both others? (1,1)-(0,0): dist 2.
        c.move_particle(2, Node::new(1, 1));
        assert_eq!(c.position_of(2), Node::new(1, 1));
        let (e, h) = c.recount();
        assert_eq!((c.edge_count(), c.hetero_edge_count()), (e, h));
        // (1,1) is adjacent to (1,0) and (0,1)(now empty): one edge, heterogeneous.
        assert_eq!(c.edge_count(), 2);
        assert_eq!(c.hetero_edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn move_to_occupied_panics() {
        let mut c = tri();
        c.move_particle(0, Node::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn move_to_non_adjacent_panics() {
        let mut c = tri();
        c.move_particle(0, Node::new(3, 3));
    }

    #[test]
    fn try_move_surfaces_counter_corruption_and_leaves_state_untouched() {
        let mut c = tri();
        // Moving the c2 particle off the triangle removes one net edge; a
        // (deliberately) corrupted zero edge counter cannot absorb that.
        c.edges = 0;
        let before_positions: Vec<Node> = c.positions.clone();
        let err = c.try_move_particle(2, Node::new(1, 1)).unwrap_err();
        assert_eq!(
            err,
            ChainStateError::CounterCorruption {
                counter: "edges",
                tracked: 0,
                delta: -1,
            }
        );
        assert!(err.to_string().contains("edges counter corrupt"));
        // The failed transition restored the lifted particle: positions and
        // occupancy are exactly as before.
        assert_eq!(c.positions, before_positions);
        assert_eq!(c.color_at(Node::new(0, 1)), Some(Color::C2));
        assert!(!c.is_occupied(Node::new(1, 1)));
    }

    #[test]
    #[should_panic(expected = "counter corrupt")]
    fn move_panics_loudly_on_corrupt_counters() {
        // Regression: this previously wrapped `edges` to u64::MAX (release)
        // or panicked with a bare overflow message (debug) instead of
        // naming the corrupted counter.
        let mut c = tri();
        c.edges = 0;
        c.move_particle(2, Node::new(1, 1));
    }

    #[test]
    fn try_swap_surfaces_hetero_corruption_and_leaves_state_untouched() {
        // Line c1, c2, c1: swapping the last two particles drops one
        // heterogeneous edge, which a corrupted zero counter cannot absorb.
        let mut c = Configuration::new([
            (Node::new(0, 0), Color::C1),
            (Node::new(1, 0), Color::C2),
            (Node::new(2, 0), Color::C1),
        ])
        .unwrap();
        assert_eq!(c.hetero_edge_count(), 2);
        c.hetero = 0;
        let err = c.try_swap(Node::new(1, 0), Node::new(2, 0)).unwrap_err();
        assert_eq!(
            err,
            ChainStateError::CounterCorruption {
                counter: "hetero",
                tracked: 0,
                delta: -1,
            }
        );
        // The particles did not exchange.
        assert_eq!(c.color_at(Node::new(1, 0)), Some(Color::C2));
        assert_eq!(c.color_at(Node::new(2, 0)), Some(Color::C1));
    }

    #[test]
    fn try_swap_reports_unoccupied_endpoints() {
        let mut c = tri();
        let empty = Node::new(1, 1);
        assert_eq!(
            c.try_swap(empty, Node::new(1, 0)).unwrap_err(),
            ChainStateError::UnoccupiedSource(empty)
        );
        assert_eq!(
            c.try_swap(Node::new(1, 0), empty).unwrap_err(),
            ChainStateError::UnoccupiedTarget(empty)
        );
    }

    #[test]
    fn audit_flags_perimeter_underflow_from_corrupt_edge_counter() {
        let mut c = tri();
        // 3n − 3 = 6 is the true maximum; a tracked count beyond it makes
        // the perimeter identity underflow. `perimeter()` clamps to 0, so
        // the audit must report the corruption explicitly.
        c.edges = 100;
        let report = c.audit();
        assert!(!report.is_consistent());
        assert!(report.violations.iter().any(|v| matches!(
            v,
            AuditViolation::PerimeterUnderflow {
                particles: 3,
                tracked_edges: 100,
            }
        )));
        assert!(report
            .violation_messages()
            .iter()
            .any(|m| m.contains("underflow")));
        // The drift itself is still reported separately.
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, AuditViolation::EdgeCountDrift { .. })));
        // A consistent configuration reports neither.
        assert!(tri().audit().is_consistent());
    }

    #[test]
    fn swap_updates_hetero_count() {
        // Line: c1 at (0,0), c1 at (1,0), c2 at (2,0).
        let mut c = Configuration::new([
            (Node::new(0, 0), Color::C1),
            (Node::new(1, 0), Color::C1),
            (Node::new(2, 0), Color::C2),
        ])
        .unwrap();
        assert_eq!(c.hetero_edge_count(), 1);
        c.swap(Node::new(1, 0), Node::new(2, 0));
        // Now colors along the line are c1, c2, c1: two heterogeneous edges.
        assert_eq!(c.hetero_edge_count(), 2);
        assert_eq!(c.recount().1, 2);
        assert_eq!(c.color_at(Node::new(1, 0)), Some(Color::C2));
        // Particle identities moved: particle 1 (c1) now sits at (2,0).
        assert_eq!(c.position_of(1), Node::new(2, 0));
        assert_eq!(c.color_of(1), Color::C1);
        // Swapping back restores the count.
        c.swap(Node::new(1, 0), Node::new(2, 0));
        assert_eq!(c.hetero_edge_count(), 1);
    }

    #[test]
    fn connectivity_and_holes() {
        let c = tri();
        assert!(c.is_connected());
        assert_eq!(c.hole_count(), 0);

        let disconnected =
            Configuration::new([(Node::new(0, 0), Color::C1), (Node::new(5, 5), Color::C1)])
                .unwrap();
        assert!(!disconnected.is_connected());

        // A 6-ring around an empty center: exactly one hole.
        let ring = Configuration::new(Node::ORIGIN.neighbors().into_iter().map(|n| (n, Color::C1)))
            .unwrap();
        assert!(ring.is_connected());
        assert_eq!(ring.hole_count(), 1);
        assert!(ring.has_holes());
    }

    #[test]
    fn perimeter_identity_matches_boundary_walk() {
        let c = tri();
        assert_eq!(c.boundary_walk_length(), c.perimeter());

        // Hexagon of 7 particles: e = 12, p = 3·7 − 3 − 12 = 6.
        let mut nodes = vec![Node::ORIGIN];
        nodes.extend(Node::ORIGIN.neighbors());
        let hex = Configuration::new(nodes.into_iter().map(|n| (n, Color::C1))).unwrap();
        assert_eq!(hex.perimeter(), 6);
        assert_eq!(hex.boundary_walk_length(), 6);

        // A line of 4: e = 3, p = 12 − 3 − 3 = 6 (walk goes out and back).
        let line = Configuration::new((0..4).map(|x| (Node::new(x, 0), Color::C1))).unwrap();
        assert_eq!(line.perimeter(), 6);
        assert_eq!(line.boundary_walk_length(), 6);
    }

    #[test]
    fn single_particle_has_zero_perimeter() {
        let c = Configuration::new([(Node::ORIGIN, Color::C1)]).unwrap();
        assert_eq!(c.perimeter(), 0);
        assert_eq!(c.boundary_walk_length(), 0);
        assert_eq!(c.edge_count(), 0);
    }

    #[test]
    fn holey_configuration_walk_counts_outer_boundary_only() {
        // 6-ring: outer walk length 6·... ring of 6 particles: e = 6,
        // identity p = 18 − 3 − 6 = 9 = outer (6) + hole boundary (... 3)? No:
        // just verify outer walk < identity for a holey configuration.
        let ring = Configuration::new(Node::ORIGIN.neighbors().into_iter().map(|n| (n, Color::C1)))
            .unwrap();
        assert!(ring.has_holes());
        assert!(ring.boundary_walk_length() < ring.perimeter());
    }

    #[test]
    fn canonical_form_is_translation_invariant_and_color_sensitive() {
        let a = tri();
        let b = Configuration::new([
            (Node::new(10, -7), Color::C1),
            (Node::new(11, -7), Color::C1),
            (Node::new(10, -6), Color::C2),
        ])
        .unwrap();
        assert_eq!(a.canonical_form(), b.canonical_form());

        let recolored = Configuration::new([
            (Node::new(0, 0), Color::C2),
            (Node::new(1, 0), Color::C1),
            (Node::new(0, 1), Color::C2),
        ])
        .unwrap();
        assert_ne!(a.canonical_form(), recolored.canonical_form());

        // Round trip.
        let rt = a.canonical_form().to_configuration();
        assert_eq!(rt.canonical_form(), a.canonical_form());
        assert_eq!(rt.edge_count(), a.edge_count());
    }

    #[test]
    fn audit_of_clean_configuration_is_consistent() {
        let c = tri();
        let report = c.audit();
        assert!(report.is_consistent(), "{report}");
        assert_eq!(report.particles, 3);
        assert_eq!(report.edges, 3);
        assert_eq!(report.hetero_edges, 2);
        assert!(report.connected);
        assert_eq!(report.holes, 0);
        assert!(report.violation_messages().is_empty());
    }

    #[test]
    fn audit_detects_counter_drift() {
        let mut c = tri();
        c.edges += 1;
        c.hetero += 2;
        let report = c.audit();
        assert!(!report.is_consistent());
        assert!(report.violations.contains(&AuditViolation::EdgeCountDrift {
            tracked: 4,
            recomputed: 3,
        }));
        assert!(report
            .violations
            .contains(&AuditViolation::HeteroCountDrift {
                tracked: 4,
                recomputed: 2,
            }));
    }

    /// The configuration re-indexed by a map.
    fn mapped(mut c: Configuration) -> Configuration {
        c.reraster_for_test(None);
        assert!(!c.is_rasterized());
        c
    }

    fn raster(c: &mut Configuration) -> &mut ColorGrid {
        c.raster_mut().expect("rasterized")
    }

    fn map(c: &mut Configuration) -> &mut NodeMap<Slot> {
        match &mut c.index {
            NodeIndex::Map(map) => map,
            NodeIndex::Raster(_) => panic!("map-indexed"),
        }
    }

    #[test]
    fn duplicate_nodes_are_rejected_on_both_index_paths() {
        // The first node, in input order, that an earlier particle holds.
        let compact = [
            (Node::new(0, 0), Color::C1),
            (Node::new(1, 0), Color::C2),
            (Node::new(0, 1), Color::C1),
            (Node::new(0, 1), Color::C2),
            (Node::new(1, 0), Color::C1),
        ];
        // Spread past the raster cap, and an unencodable color: both map.
        let far = Node::new(1 << 20, 1 << 20);
        let spread: Vec<_> = compact.iter().copied().chain([(far, Color::C1)]).collect();
        let unencodable: Vec<_> = compact
            .iter()
            .copied()
            .chain([(Node::new(2, 0), Color::new(u8::MAX))])
            .collect();
        for particles in [&compact[..], &spread, &unencodable] {
            assert!(matches!(
                Configuration::new(particles.iter().copied()),
                Err(ConfigError::DuplicateNode(n)) if n == Node::new(0, 1)
            ));
            // Without the duplicates, the same systems build, on the index
            // the first two and the last two have in common.
            let distinct: Vec<_> = particles
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| i != 3 && i != 4)
                .map(|(_, p)| p)
                .collect();
            let config = Configuration::new(distinct).unwrap();
            assert_eq!(config.is_rasterized(), particles.len() == compact.len());
        }
    }

    #[test]
    fn recount_is_the_same_on_raster_and_map() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1, 2, 7, 40, 300] {
            let nodes = construct::random_blob(n, &mut rng);
            let rasterized =
                Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap();
            let probed = mapped(rasterized.clone());
            assert!(rasterized.is_rasterized());
            assert_eq!(rasterized.recount(), probed.recount(), "n = {n}");
            assert_eq!(
                rasterized.recount(),
                (rasterized.edge_count(), rasterized.hetero_edge_count())
            );
            for (i, (node, color)) in rasterized.particles().enumerate() {
                assert_eq!(rasterized.index_at(node), Some(i));
                assert_eq!(probed.index_at(node), Some(i));
                assert_eq!(probed.color_at(node), Some(color));
            }
            assert!(rasterized.audit().is_consistent());
            assert!(probed.audit().is_consistent());
        }
    }

    #[test]
    fn audit_detects_occupancy_desync() {
        for mut c in [tri(), mapped(tri())] {
            // Corrupt the position table behind the index's back.
            c.positions.swap(0, 1);
            let report = c.audit();
            assert!(!report.is_consistent());
            assert!(report
                .violations
                .iter()
                .any(|v| matches!(v, AuditViolation::OccupancyDesync { .. })));
            assert_eq!(assert_desync_audit(&c, &[]).violations.len(), 2);
        }
    }

    /// The index checks of the audit, re-derived independently: for the
    /// raster, every particle's two cells, then each plane's occupied cells
    /// counted node by node over the whole raster; for the map, every entry
    /// against the table, in map order, then every particle against the
    /// map.
    fn desync_reference(c: &Configuration) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        let desync = |node, detail| AuditViolation::OccupancyDesync { node, detail };
        let n = c.len();
        match &c.index {
            NodeIndex::Raster(g) => {
                for (i, (node, color)) in c.particles().enumerate() {
                    let Some((code, owner)) = g.planes(node) else {
                        violations.push(desync(
                            node,
                            format!("particle {i} lies outside the raster"),
                        ));
                        continue;
                    };
                    if code != grid::encode(color) {
                        violations.push(desync(
                            node,
                            format!("color plane holds {code} for particle {i} of color {color:?}"),
                        ));
                    }
                    match owner {
                        Some(o) if o as usize == i => {}
                        Some(o) => violations.push(desync(
                            node,
                            format!("index plane holds particle {o}, not particle {i}"),
                        )),
                        None => violations.push(desync(
                            node,
                            format!("index plane is empty under particle {i}"),
                        )),
                    }
                }
                let (mut codes, mut owners) = (0, 0);
                for y in g.min_y()..g.min_y() + g.height() as i32 {
                    for x in g.min_x()..g.min_x() + g.width() as i32 {
                        let (code, owner) = g.planes(Node::new(x, y)).expect("in the raster");
                        codes += usize::from(code != 0);
                        owners += usize::from(owner.is_some());
                    }
                }
                for (plane, cells) in [("color", codes), ("index", owners)] {
                    if cells != n {
                        violations.push(desync(
                            c.positions[0],
                            format!("{plane} plane holds {cells} occupied cells for {n} particles"),
                        ));
                    }
                }
            }
            NodeIndex::Map(map) => {
                for (node, slot) in map.iter() {
                    let idx = slot.index as usize;
                    if idx >= n {
                        violations.push(desync(
                            node,
                            format!("slot index {idx} out of range for {n} particles"),
                        ));
                        continue;
                    }
                    if c.positions[idx] != node {
                        violations.push(desync(
                            node,
                            format!(
                                "slot index {idx} maps back to {}, not this node",
                                c.positions[idx]
                            ),
                        ));
                    }
                    if c.colors[idx] != slot.color {
                        violations.push(desync(
                            node,
                            format!(
                                "slot color {:?} disagrees with color table {:?}",
                                slot.color, c.colors[idx]
                            ),
                        ));
                    }
                }
                if map.iter().count() != n {
                    for (i, &node) in c.positions.iter().enumerate() {
                        if map.get(node).is_none() {
                            violations.push(desync(
                                node,
                                format!("particle {i} is missing from the occupancy map"),
                            ));
                        }
                    }
                }
            }
        }
        violations
    }

    /// A corrupt state's audit: the reference's desync findings, then
    /// `rest`, with the counts of the particle table — what a fresh
    /// configuration of the table counts.
    fn assert_desync_audit(c: &Configuration, rest: &[AuditViolation]) -> AuditReport {
        let report = c.audit();
        let mut expected = desync_reference(c);
        assert!(!expected.is_empty(), "the state is not corrupt");
        expected.extend_from_slice(rest);
        assert_eq!(report.violations, expected);
        let table = Configuration::new(c.particles()).expect("the table's nodes are distinct");
        assert_eq!((report.edges, report.hetero_edges), table.recount());
        assert_eq!(report.connected, table.is_connected());
        assert_eq!(report.holes, table.hole_count());
        report
    }

    #[test]
    fn audit_reports_raster_desyncs_after_table_desyncs() {
        // (particles on tri: (0,0) C1, (1,0) C1, (0,1) C2.)
        type Corruption = fn(&mut ColorGrid);
        let cases: [(&str, Corruption, usize); 8] = [
            // Stale: one occupied cell more than there are particles.
            (
                "stale color",
                |g| *g.code_mut(Node::new(1, 1)) = grid::encode(Color::C2),
                1,
            ),
            ("stale index", |g| *g.owner_mut(Node::new(1, 1)) = 3, 1),
            // Cleared: a particle's cell, and so the plane's count.
            ("cleared color", |g| *g.code_mut(Node::new(0, 1)) = 0, 2),
            ("cleared index", |g| *g.owner_mut(Node::new(0, 1)) = 0, 2),
            // Wrong: another color, another particle.
            (
                "wrong color",
                |g| *g.code_mut(Node::new(1, 0)) = grid::encode(Color::C3),
                1,
            ),
            ("wrong index", |g| *g.owner_mut(Node::new(1, 0)) = 3, 1),
            // Stale cells in the border, outside the particles' box: a
            // whole phantom particle, in both planes.
            (
                "stale cell outside the box",
                |g| assert!(g.put(Node::new(1 + MARGIN_CELLS, -MARGIN_CELLS), 0, 1)),
                2,
            ),
            // A whole cell cleared: the particle drops out of both planes.
            ("vacated cell", |g| g.vacate(Node::new(1, 0)), 4),
        ];
        for (what, corrupt, findings) in cases {
            let mut c = tri();
            corrupt(raster(&mut c));
            let report = assert_desync_audit(&c, &[]);
            assert_eq!(report.violations.len(), findings, "{what}");
            assert_eq!(report.holes, 0, "{what}");
        }

        // Table findings and plane findings at once: the swapped table puts
        // particles 0 and 1 on each other's index cells, and particle 2's
        // cleared color cell adds its own two.
        let mut c = tri();
        c.positions.swap(0, 1);
        *raster(&mut c).code_mut(Node::new(0, 1)) = 0;
        assert_eq!(assert_desync_audit(&c, &[]).violations.len(), 4);

        // A table entry outside the raster, with the counts that follow.
        let mut c = tri();
        c.positions[2] = Node::new(40, 40);
        assert_desync_audit(
            &c,
            &[
                AuditViolation::EdgeCountDrift {
                    tracked: 3,
                    recomputed: 1,
                },
                AuditViolation::HeteroCountDrift {
                    tracked: 2,
                    recomputed: 0,
                },
                AuditViolation::Disconnected,
            ],
        );
    }

    /// Cells a new raster keeps around the bounding box.
    const MARGIN_CELLS: i32 = 4;

    #[test]
    fn a_new_raster_has_a_four_cell_border() {
        let c = tri();
        let g = c.raster().unwrap();
        assert_eq!((g.min_x(), g.min_y()), (-MARGIN_CELLS, -MARGIN_CELLS));
        assert_eq!((g.width(), g.height()), (10, 10));
    }

    #[test]
    fn audit_of_a_particle_missing_from_the_map() {
        let mut c = mapped(tri());
        map(&mut c).remove(Node::new(0, 1));
        // The recount and the floods run on the table, which still holds
        // the particle: the missing entry is the only finding.
        let report = assert_desync_audit(&c, &[]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!((report.edges, report.holes), (3, 0));

        // The walk's start node missing from the map: the walk still runs
        // on the table.
        let mut line =
            mapped(Configuration::new((-1..=1).map(|x| (Node::new(x, 0), Color::C1))).unwrap());
        map(&mut line).remove(Node::new(-1, 0));
        assert!(line.is_connected());
        let report = assert_desync_audit(&line, &[]);
        assert!(report.connected);
    }

    #[test]
    fn audit_counts_holes_in_the_particles_box_only() {
        // Index entries no particle owns, ringed around the corners (1, 1)
        // and (−1, −1): the rings would enclose both in the entries' box,
        // but the floods run on the particles' box alone.
        let base = Configuration::new([(Node::ORIGIN, Color::C1)]).unwrap();
        let phantom = Slot {
            index: 0,
            color: Color::C1,
        };
        for mut c in [base.clone(), mapped(base)] {
            for corner in [Node::new(1, 1), Node::new(-1, -1)] {
                for m in corner.neighbors() {
                    assert!(c.index.put(m, phantom));
                }
            }
            let report = assert_desync_audit(&c, &[]);
            assert_eq!(report.holes, 0);
            assert_eq!(c.hole_count(), 0);
            assert!(report.connected);
        }
    }

    /// The loop `color_mask` ran over eight decoded lane colors.
    fn color_mask_loop(occupancy: u8, colors: &[Color; 8], color: Color) -> u8 {
        let mut out = 0u8;
        let mut bits = occupancy;
        while bits != 0 {
            let k = bits.trailing_zeros();
            out |= u8::from(colors[k as usize] == color) << k;
            bits &= bits - 1;
        }
        out
    }

    #[test]
    fn ring_gather_masks_match_the_lane_loops_exhaustively() {
        let palette = [Color::C1, Color::C2, Color::C3];
        for occupancy in 0..=u8::MAX {
            for assignment in 0..3usize.pow(8) {
                let colors: [Color; 8] =
                    core::array::from_fn(|k| palette[assignment / 3usize.pow(k as u32) % 3]);
                let occupied = |k: usize| occupancy & (1 << k) != 0;
                let codes = core::array::from_fn(|k| {
                    if occupied(k) {
                        grid::encode(colors[k])
                    } else {
                        0
                    }
                });
                let ring = RingGather::from_codes(codes);
                assert_eq!(ring.occupancy, occupancy);
                for (k, &color) in colors.iter().enumerate() {
                    assert_eq!(ring.color_at(k), occupied(k).then_some(color));
                }
                for color in [Color::C1, Color::C2, Color::C3, Color::C4] {
                    assert_eq!(
                        ring.color_mask(color),
                        color_mask_loop(occupancy, &colors, color)
                    );
                }
            }
        }
    }

    #[test]
    fn side_gain_is_the_to_side_minus_the_from_side_popcount() {
        for m in 0..=u8::MAX {
            let count = |side: u8| (0..8).filter(|k| m & side & (1 << k) != 0).count() as i32;
            assert_eq!(
                i32::from(SIDE_GAIN[m as usize]),
                count(RING_TO_SIDE) - count(RING_FROM_SIDE),
                "mask {m:#010b}"
            );
        }
    }

    #[test]
    fn ring_gather_is_the_same_with_and_without_the_raster() {
        let particles: Vec<(Node, Color)> = sops_lattice::region::Region::hexagon(3)
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 5 != 0)
            .map(|(i, n)| (n, Color::new((i % 4) as u8)))
            .collect();
        let rasterized = Configuration::new(particles).unwrap();
        let probed = mapped(rasterized.clone());
        for x in -5..=5 {
            for y in -5..=5 {
                for dir in DIRECTIONS {
                    let (a, b) = (
                        rasterized.ring_gather(Node::new(x, y), dir),
                        probed.ring_gather(Node::new(x, y), dir),
                    );
                    assert_eq!(a.occupancy, b.occupancy);
                    for k in 0..8 {
                        assert_eq!(a.color_at(k), b.color_at(k));
                    }
                    for c in 0..5 {
                        assert_eq!(a.color_mask(Color::new(c)), b.color_mask(Color::new(c)));
                    }
                }
            }
        }
    }

    #[test]
    fn audit_flags_disconnection_but_tolerates_holes() {
        // A ring has a hole but is a perfectly legal chain state.
        let ring = Configuration::new(Node::ORIGIN.neighbors().into_iter().map(|n| (n, Color::C1)))
            .unwrap();
        let report = ring.audit();
        assert_eq!(report.holes, 1);
        assert!(report.is_consistent(), "{report}");

        let split =
            Configuration::new([(Node::new(0, 0), Color::C1), (Node::new(9, 9), Color::C1)])
                .unwrap();
        let report = split.audit();
        assert!(report.violations.contains(&AuditViolation::Disconnected));
        // The audit must not panic on a disconnected state even though
        // `boundary_walk_length` would.
        assert!(!report.connected);
    }

    #[test]
    fn drifting_configuration_rebuilds_logarithmically_not_linearly() {
        // A two-particle pair marching 600 columns east, one column per two
        // moves. Under the old fixed-32 margin this forced a rebuild every
        // 32 columns (~18 total); the doubling policy pays 32, 64, 128,
        // 256, 512 → at most 5.
        let mut c =
            Configuration::new([(Node::new(0, 0), Color::C1), (Node::new(0, 1), Color::C2)])
                .unwrap();
        for x in 0..600 {
            c.move_particle(0, Node::new(x + 1, 0));
            c.move_particle(1, Node::new(x + 1, 1));
        }
        assert!(
            c.raster_rebuild_count() <= 6,
            "rebuild thrash: {} rebuilds over 600 columns of drift",
            c.raster_rebuild_count()
        );
        assert!(
            c.raster_rebuild_count() >= 1,
            "drift this far must rebuild at least once"
        );
        // The raster survived the march and still mirrors the map.
        assert!(c.audit().is_consistent());
        // Oscillating across the rebuild edge afterwards is absorbed by
        // the hysteresis (old extent stays covered): zero further rebuilds.
        let settled = c.raster_rebuild_count();
        for _ in 0..40 {
            c.move_particle(0, Node::new(601, 0));
            c.move_particle(0, Node::new(600, 0));
        }
        assert_eq!(c.raster_rebuild_count(), settled);
    }

    #[test]
    fn bounding_box() {
        let c = Configuration::new([
            (Node::new(-2, 3), Color::C1),
            (Node::new(-1, 3), Color::C1),
            (Node::new(-1, 4), Color::C1),
        ])
        .unwrap();
        assert_eq!(c.bounding_box(), (-2, -1, 3, 4));
    }
}
