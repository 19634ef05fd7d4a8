//! Initial configurations and color assignments.
//!
//! The experiments need three families of starting states: near-minimal
//! hexagons (Lemma 2's construction, also the reference for α-compression),
//! maximal-perimeter lines (the irreducibility proof's canonical state), and
//! random connected blobs ("arbitrary initial configuration", Figure 2).

use rand::seq::SliceRandom;
use rand::{Rng, RngExt as _};
use sops_lattice::{Direction, Node, NodeSet, DIRECTIONS};

use crate::grid::MAX_CELLS;
use crate::{Color, ConfigError, Configuration};

/// The first `n` nodes of the hexagonal spiral: a full hexagon of the
/// largest radius that fits, plus the remaining particles added around the
/// outside one side at a time — exactly the construction in the proof of
/// Lemma 2, achieving perimeter ≤ 2√3·√n.
///
/// # Example
///
/// ```
/// let nodes = sops_core::construct::hexagonal_spiral(7);
/// assert_eq!(nodes.len(), 7); // center + first ring
/// ```
#[must_use]
pub fn hexagonal_spiral(n: usize) -> Vec<Node> {
    let mut nodes = Vec::with_capacity(n);
    if n == 0 {
        return nodes;
    }
    nodes.push(Node::ORIGIN);
    let mut radius: i32 = 1;
    while nodes.len() < n {
        // Walk ring `radius`: start at (radius, 0), take `radius` steps in
        // each of the six directions NW, W, SW, SE, E, NE — then rotate the
        // ring so it begins one node past the corner. Starting mid-side makes
        // every added particle adjacent to two already-placed particles,
        // which is what keeps each prefix perimeter-minimal (Lemma 2's
        // "complete one side before beginning the next").
        let mut cur = Node::new(radius, 0);
        const RING_WALK: [Direction; 6] = [
            Direction::NW,
            Direction::W,
            Direction::SW,
            Direction::SE,
            Direction::E,
            Direction::NE,
        ];
        let mut ring = Vec::with_capacity(6 * radius as usize);
        for dir in RING_WALK {
            for _ in 0..radius {
                ring.push(cur);
                cur = cur.neighbor(dir);
            }
        }
        ring.rotate_left(1);
        for node in ring {
            nodes.push(node);
            if nodes.len() == n {
                break;
            }
        }
        radius += 1;
    }
    nodes
}

/// The minimum possible perimeter `p_min(n)` of a connected hole-free
/// configuration of `n` particles: `⌈√(12n − 3)⌉ − 3` (Harborth's formula
/// for maximal edge counts on the triangular lattice, via `p = 3n − 3 − e`).
///
/// Lemma 2's bound `p_min(n) ≤ 2√3·√n` follows; the exactness of this
/// closed form is cross-checked against exhaustive enumeration in tests.
///
/// # Example
///
/// ```
/// assert_eq!(sops_core::construct::min_perimeter(1), 0);
/// assert_eq!(sops_core::construct::min_perimeter(7), 6); // the hexagon
/// ```
#[must_use]
pub fn min_perimeter(n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let target = 12 * n as u64 - 3;
    // ⌈√target⌉ without floating point.
    let mut r = (target as f64).sqrt() as u64;
    while r * r < target {
        r += 1;
    }
    while r > 0 && (r - 1) * (r - 1) >= target {
        r -= 1;
    }
    r.saturating_sub(3)
}

/// A straight line of `n` nodes heading east from the origin — the
/// maximal-perimeter configuration used as the canonical intermediate state
/// in the irreducibility proof (Lemma 8).
#[must_use]
pub fn line_nodes(n: usize) -> Vec<Node> {
    (0..n as i32).map(|x| Node::new(x, 0)).collect()
}

/// A random connected configuration of `n` nodes grown from the origin
/// (no nodes for `n = 0`). May contain holes (legal chain input).
///
/// Each attempt draws a placed node uniformly (`random_range(0..len)`),
/// then one of its six directions (`random_range(0..6)`), and places a
/// node where that direction points if no node is there yet. So each new
/// node comes from a uniformly random (placed node, direction) pair among
/// the pairs that point at an empty node: an empty node with more placed
/// neighbors is the likelier to be filled.
///
/// Membership is one bit a node in an origin-centred square window, which
/// doubles and is refilled from the node list when a candidate falls
/// outside it. A blob whose window would pass the raster's cell cap is
/// finished with a hashed node set, so memory stays O(n) whatever the RNG
/// does. Neither choice moves a draw or a node.
pub fn random_blob<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Node> {
    let mut nodes = Vec::with_capacity(n);
    if n == 0 {
        return nodes;
    }
    nodes.push(Node::ORIGIN);
    // Window radius ⌊√n⌋ + 1: of 2,000 seeded blobs, 42 outgrew it at
    // n = 100 and 1 at n = 1000.
    let Some(mut window) = Window::covering(&nodes, n.isqrt() + 1) else {
        grow_hashed(&mut nodes, n, rng);
        return nodes;
    };
    while nodes.len() < n {
        let from = nodes[rng.random_range(0..nodes.len())];
        let cand = from.neighbor(DIRECTIONS[rng.random_range(0..6usize)]);
        if let Some(cell) = window.cell(cand) {
            if window.insert(cell) {
                nodes.push(cand);
            }
            continue;
        }
        // Every placed node lies inside the window, so `cand` is new.
        nodes.push(cand);
        match Window::covering(&nodes, 2 * window.radius as usize) {
            Some(wider) => window = wider,
            None => {
                grow_hashed(&mut nodes, n, rng);
                break;
            }
        }
    }
    nodes
}

/// The nodes [`random_blob`] has placed, one bit a node of the
/// origin-centred square `|x|, |y| ≤ radius`.
struct Window {
    radius: i32,
    side: u32,
    bits: Vec<u64>,
}

impl Window {
    /// A window of `radius` holding `nodes`, every one of which it must
    /// cover; `None` when its square would pass [`MAX_CELLS`].
    fn covering(nodes: &[Node], radius: usize) -> Option<Self> {
        let side = radius.checked_mul(2)?.checked_add(1)?;
        let cells = side.checked_mul(side)?;
        if cells as u64 > MAX_CELLS {
            return None;
        }
        let mut window = Window {
            radius: radius as i32,
            side: side as u32,
            bits: vec![0; cells.div_ceil(64)],
        };
        for &node in nodes {
            let cell = window
                .cell(node)
                .expect("a window is built around nodes it covers");
            window.insert(cell);
        }
        Some(window)
    }

    /// The bit of `node`, if the window covers it.
    #[inline]
    fn cell(&self, node: Node) -> Option<usize> {
        let x = node.x.wrapping_add(self.radius) as u32;
        let y = node.y.wrapping_add(self.radius) as u32;
        (x < self.side && y < self.side).then(|| y as usize * self.side as usize + x as usize)
    }

    /// Sets the bit of `cell`, returning whether it was clear.
    #[inline]
    fn insert(&mut self, cell: usize) -> bool {
        let word = &mut self.bits[cell / 64];
        let bit = 1u64 << (cell % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// Finishes a blob whose window would pass [`MAX_CELLS`] with a hashed
/// node set: [`random_blob`]'s loop as it was before the window, drawing
/// exactly what the window loop would.
fn grow_hashed<R: Rng + ?Sized>(nodes: &mut Vec<Node>, n: usize, rng: &mut R) {
    let mut set: NodeSet = nodes.iter().copied().collect();
    while nodes.len() < n {
        let anchor = nodes[rng.random_range(0..nodes.len())];
        let cand = anchor.neighbor(DIRECTIONS[rng.random_range(0..6usize)]);
        if set.insert(cand) {
            nodes.push(cand);
        }
    }
}

/// Colors the nodes in order: the first `n1` get `c₁`, the rest `c₂`.
/// On spiral or line orders this produces a coarsely pre-separated start.
#[must_use]
pub fn bicolor_halves(nodes: Vec<Node>, n1: usize) -> Vec<(Node, Color)> {
    nodes
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, if i < n1 { Color::C1 } else { Color::C2 }))
        .collect()
}

/// Colors nodes by a half-plane cut: the `⌈n/2⌉` nodes with smallest
/// Cartesian x-coordinate get `c₁`, the rest `c₂`. On compact node sets this
/// produces a straight `Θ(√n)` interface — the canonical *separated*
/// configuration of Definition 3.
#[must_use]
pub fn bicolor_halfplane(nodes: Vec<Node>) -> Vec<(Node, Color)> {
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by(|&a, &b| {
        let xa = nodes[a].to_cartesian().0;
        let xb = nodes[b].to_cartesian().0;
        xa.partial_cmp(&xb)
            .expect("cartesian coordinates are finite")
            .then(nodes[a].y.cmp(&nodes[b].y))
    });
    let n1 = nodes.len().div_ceil(2);
    let mut colors = vec![Color::C2; nodes.len()];
    for &i in order.iter().take(n1) {
        colors[i] = Color::C1;
    }
    nodes.into_iter().zip(colors).collect()
}

/// Colors the nodes alternately `c₁, c₂, c₁, …` — a maximally mixed start.
#[must_use]
pub fn bicolor_alternating(nodes: Vec<Node>) -> Vec<(Node, Color)> {
    nodes
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, if i % 2 == 0 { Color::C1 } else { Color::C2 }))
        .collect()
}

/// Assigns exactly `n1` particles color `c₁` and the rest `c₂`, uniformly at
/// random.
pub fn bicolor_random<R: Rng + ?Sized>(
    nodes: Vec<Node>,
    n1: usize,
    rng: &mut R,
) -> Vec<(Node, Color)> {
    let mut colors: Vec<Color> = (0..nodes.len())
        .map(|i| if i < n1 { Color::C1 } else { Color::C2 })
        .collect();
    colors.shuffle(rng);
    nodes.into_iter().zip(colors).collect()
}

/// Assigns colors with the given per-class counts (class `i` gets
/// `counts[i]` particles), uniformly at random — for the `k > 2` experiments
/// of §5.
///
/// # Errors
///
/// Returns [`ConfigError::BadColorCounts`] if the counts do not sum to the
/// number of nodes.
pub fn multicolor_random<R: Rng + ?Sized>(
    nodes: Vec<Node>,
    counts: &[usize],
    rng: &mut R,
) -> Result<Vec<(Node, Color)>, ConfigError> {
    let sum: usize = counts.iter().sum();
    if sum != nodes.len() {
        return Err(ConfigError::BadColorCounts {
            n: nodes.len(),
            sum,
        });
    }
    let mut colors = Vec::with_capacity(sum);
    for (i, &c) in counts.iter().enumerate() {
        colors.extend(std::iter::repeat_n(Color::new(i as u8), c));
    }
    colors.shuffle(rng);
    Ok(nodes.into_iter().zip(colors).collect())
}

/// A hexagonal configuration of `n` particles with the first `n1` (in spiral
/// order) colored `c₁` — the standard compact bicolored seed.
///
/// # Errors
///
/// Returns [`ConfigError::BadColorCounts`] if `n1 > n` and
/// [`ConfigError::Empty`] if `n = 0`.
pub fn hexagonal_bicolored(n: usize, n1: usize) -> Result<Configuration, ConfigError> {
    if n1 > n {
        return Err(ConfigError::BadColorCounts { n, sum: n1 });
    }
    Configuration::new(bicolor_halves(hexagonal_spiral(n), n1))
}

/// A monochromatic straight line of `n` particles — the standard
/// maximal-perimeter seed for compression experiments.
///
/// # Errors
///
/// Returns [`ConfigError::Empty`] if `n = 0`.
pub fn line_monochromatic(n: usize) -> Result<Configuration, ConfigError> {
    Configuration::new(line_nodes(n).into_iter().map(|nd| (nd, Color::C1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spiral_prefix_sizes_are_hexagons() {
        // Spiral of 3ℓ²+3ℓ+1 nodes is exactly the hexagon of radius ℓ.
        for l in 0..5u32 {
            let n = (3 * l * l + 3 * l + 1) as usize;
            let nodes = hexagonal_spiral(n);
            assert_eq!(nodes.len(), n);
            assert!(
                nodes.iter().all(|nd| nd.distance(Node::ORIGIN) <= l),
                "radius {l}"
            );
        }
    }

    #[test]
    fn spiral_nodes_are_distinct_and_connected() {
        for n in [1, 2, 5, 12, 40, 100] {
            let nodes = hexagonal_spiral(n);
            let set: NodeSet = nodes.iter().copied().collect();
            assert_eq!(set.len(), n, "duplicates at n = {n}");
            let config = Configuration::new(nodes.into_iter().map(|nd| (nd, Color::C1))).unwrap();
            assert!(config.is_connected(), "disconnected at n = {n}");
            assert!(!config.has_holes(), "holes at n = {n}");
        }
    }

    #[test]
    fn spiral_meets_lemma2_bound() {
        // p(σ_spiral) ≤ 2√3·√n for every n (Lemma 2).
        for n in 1..=300usize {
            let config =
                Configuration::new(hexagonal_spiral(n).into_iter().map(|nd| (nd, Color::C1)))
                    .unwrap();
            let bound = 2.0 * 3.0_f64.sqrt() * (n as f64).sqrt();
            assert!(
                config.perimeter() as f64 <= bound + 1e-9,
                "n = {n}: p = {} > {bound}",
                config.perimeter()
            );
        }
    }

    #[test]
    fn spiral_achieves_min_perimeter() {
        // The spiral construction is perimeter-optimal for every prefix size.
        for n in 1..=300usize {
            let config =
                Configuration::new(hexagonal_spiral(n).into_iter().map(|nd| (nd, Color::C1)))
                    .unwrap();
            assert_eq!(config.perimeter(), min_perimeter(n), "n = {n}");
        }
    }

    #[test]
    fn min_perimeter_small_values() {
        // Hand-checked values (see DESIGN.md): p_min for n = 1..8.
        let expect = [0u64, 2, 3, 4, 5, 6, 6, 7];
        for (i, &p) in expect.iter().enumerate() {
            assert_eq!(min_perimeter(i + 1), p, "n = {}", i + 1);
        }
    }

    #[test]
    fn line_has_maximal_perimeter() {
        let config = line_monochromatic(10).unwrap();
        // Line: e = n − 1 ⇒ p = 3n − 3 − (n − 1) = 2n − 2.
        assert_eq!(config.perimeter(), 18);
        assert!(config.is_connected());
    }

    #[test]
    fn random_blob_is_connected_with_exact_size() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [1, 2, 10, 60] {
            let nodes = random_blob(n, &mut rng);
            assert_eq!(nodes.len(), n);
            let config = Configuration::new(nodes.into_iter().map(|nd| (nd, Color::C1))).unwrap();
            assert!(config.is_connected());
        }
    }

    #[test]
    fn random_blob_of_zero_or_one_node_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(8);
        let untouched = rng.clone();
        assert!(random_blob(0, &mut rng).is_empty());
        assert!(matches!(
            Configuration::new(
                random_blob(0, &mut rng)
                    .into_iter()
                    .map(|nd| (nd, Color::C1))
            ),
            Err(ConfigError::Empty)
        ));
        assert_eq!(random_blob(1, &mut rng), vec![Node::ORIGIN]);
        assert_eq!(rng, untouched);
    }

    #[test]
    fn coloring_helpers_count_correctly() {
        let nodes = hexagonal_spiral(10);
        let halves = bicolor_halves(nodes.clone(), 4);
        assert_eq!(halves.iter().filter(|(_, c)| *c == Color::C1).count(), 4);

        let alt = bicolor_alternating(nodes.clone());
        assert_eq!(alt.iter().filter(|(_, c)| *c == Color::C1).count(), 5);

        let mut rng = StdRng::seed_from_u64(1);
        let rnd = bicolor_random(nodes.clone(), 7, &mut rng);
        assert_eq!(rnd.iter().filter(|(_, c)| *c == Color::C1).count(), 7);

        let multi = multicolor_random(nodes.clone(), &[3, 3, 4], &mut rng).unwrap();
        for (i, expect) in [3usize, 3, 4].into_iter().enumerate() {
            assert_eq!(
                multi
                    .iter()
                    .filter(|(_, c)| c.index() as usize == i)
                    .count(),
                expect
            );
        }
        assert!(multicolor_random(nodes, &[1, 1], &mut rng).is_err());
    }

    #[test]
    fn hexagonal_bicolored_validates() {
        assert!(hexagonal_bicolored(5, 9).is_err());
        assert!(hexagonal_bicolored(0, 0).is_err());
        let c = hexagonal_bicolored(20, 8).unwrap();
        assert_eq!(c.color_counts(), vec![8, 12]);
    }
}
