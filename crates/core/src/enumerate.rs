//! Exhaustive enumeration of particle-system configurations.
//!
//! Configurations are equivalence classes of arrangements under translation
//! (§2.2), so "all configurations of `n` particles" is a finite set we can
//! enumerate for small `n`. This machine-checks several of the paper's
//! claims exactly:
//!
//! * Lemma 1's configuration counting by perimeter
//!   ([`perimeter_counts`]);
//! * Lemma 8 (ergodicity) and Lemma 9 (the stationary distribution), by
//!   exposing chain `M` as an [`sops_chains::EnumerableChain`]
//!   ([`ExactSeparationChain`]) and checking irreducibility, aperiodicity,
//!   and detailed balance on the exact transition matrix;
//! * Lemma 6's "no new holes" invariant — a transition out of the hole-free
//!   state space would panic the matrix construction;
//! * the exactness of [`crate::construct::min_perimeter`].

use std::collections::HashSet;

use sops_chains::EnumerableChain;
use sops_lattice::{Node, NodeSet, DIRECTIONS};

use crate::{Bias, CanonicalForm, Color, Configuration, SeparationChain};

/// Canonicalizes a node set under translation: shift so the lexicographically
/// smallest node is the origin, then sort.
fn canonical_shape(mut nodes: Vec<Node>) -> Vec<Node> {
    let base = nodes
        .iter()
        .copied()
        .min_by_key(|n| (n.x, n.y))
        .expect("shape is nonempty");
    for n in &mut nodes {
        *n = *n - base;
    }
    nodes.sort_unstable_by_key(|n| (n.x, n.y));
    nodes
}

/// All connected configurations of `n` particles up to translation
/// (including those with holes), as canonical sorted node lists.
///
/// The counts match the fixed polyhex numbers (OEIS A001207): 1, 3, 11, 44,
/// 186, 814, 3652, 16689, … — enumeration beyond `n ≈ 10` gets large.
///
/// # Example
///
/// ```
/// assert_eq!(sops_core::enumerate::shapes(3).len(), 11);
/// ```
#[must_use]
pub fn shapes(n: usize) -> Vec<Vec<Node>> {
    assert!(n >= 1, "shape enumeration needs n ≥ 1");
    let mut level: HashSet<Vec<Node>> = HashSet::new();
    level.insert(vec![Node::ORIGIN]);
    for _ in 1..n {
        let mut next: HashSet<Vec<Node>> = HashSet::new();
        for shape in &level {
            let set: NodeSet = shape.iter().copied().collect();
            for node in shape {
                for d in DIRECTIONS {
                    let cand = node.neighbor(d);
                    if set.contains(cand) {
                        continue;
                    }
                    let mut grown = shape.clone();
                    grown.push(cand);
                    next.insert(canonical_shape(grown));
                }
            }
        }
        level = next;
    }
    let mut out: Vec<Vec<Node>> = level.into_iter().collect();
    out.sort_unstable();
    out
}

/// All connected configurations of `n` particles up to **all lattice
/// isometries** (translations, rotations, reflections) — "free" shapes.
///
/// The counts match the free polyhex numbers (OEIS A000228):
/// 1, 1, 3, 7, 22, 82, 333, 1448, … — a strong cross-check of both the
/// enumeration and the symmetry-group implementation.
#[cfg(test)]
#[must_use]
pub(crate) fn free_shapes(n: usize) -> Vec<Vec<Node>> {
    let mut seen: HashSet<Vec<Node>> = HashSet::new();
    let mut out = Vec::new();
    for shape in shapes(n) {
        let canon = sops_lattice::symmetry::canonical_isometry(&shape);
        if seen.insert(canon.clone()) {
            out.push(canon);
        }
    }
    out.sort_unstable();
    out
}

/// All connected **hole-free** configurations of `n` particles up to
/// translation.
#[must_use]
pub fn hole_free_shapes(n: usize) -> Vec<Vec<Node>> {
    shapes(n)
        .into_iter()
        .filter(|shape| {
            let config = Configuration::new(shape.iter().map(|&nd| (nd, Color::C1)))
                .expect("enumerated shapes have distinct nodes");
            !config.has_holes()
        })
        .collect()
}

/// Histogram `perimeter → count` over all connected hole-free configurations
/// of `n` particles — the quantity bounded by Lemma 1 (`≤ ν^k` configurations
/// of perimeter `k` for any `ν > 2 + √2` and large `n`).
#[must_use]
pub fn perimeter_counts(n: usize) -> std::collections::BTreeMap<u64, u64> {
    let mut hist = std::collections::BTreeMap::new();
    for shape in hole_free_shapes(n) {
        let config = Configuration::new(shape.into_iter().map(|nd| (nd, Color::C1)))
            .expect("enumerated shapes have distinct nodes");
        *hist.entry(config.perimeter()).or_insert(0) += 1;
    }
    hist
}

/// All ways to color a shape with exactly `n1` particles of `c₁` (the rest
/// `c₂`), as particle lists ready for [`Configuration::new`].
#[must_use]
pub fn bicolorings(shape: &[Node], n1: usize) -> Vec<Vec<(Node, Color)>> {
    combinations(shape.len(), n1)
        .into_iter()
        .map(|chosen| {
            let chosen: HashSet<usize> = chosen.into_iter().collect();
            shape
                .iter()
                .enumerate()
                .map(|(i, &nd)| {
                    let color = if chosen.contains(&i) {
                        Color::C1
                    } else {
                        Color::C2
                    };
                    (nd, color)
                })
                .collect()
        })
        .collect()
}

/// All colorings of a shape with the given per-class counts (`counts[i]`
/// particles of color `i`) — the `k > 2` generalization of
/// [`bicolorings`] used for the §5 multicolor verification.
///
/// # Panics
///
/// Panics if the counts do not sum to the shape size.
#[must_use]
pub(crate) fn multicolorings(shape: &[Node], counts: &[usize]) -> Vec<Vec<(Node, Color)>> {
    assert_eq!(
        counts.iter().sum::<usize>(),
        shape.len(),
        "color counts must sum to the shape size"
    );
    let mut out = Vec::new();
    let mut remaining = counts.to_vec();
    let mut assignment: Vec<u8> = Vec::with_capacity(shape.len());
    fn recurse(
        shape: &[Node],
        remaining: &mut Vec<usize>,
        assignment: &mut Vec<u8>,
        out: &mut Vec<Vec<(Node, Color)>>,
    ) {
        if assignment.len() == shape.len() {
            out.push(
                shape
                    .iter()
                    .zip(assignment.iter())
                    .map(|(&nd, &c)| (nd, Color::new(c)))
                    .collect(),
            );
            return;
        }
        for c in 0..remaining.len() {
            if remaining[c] > 0 {
                remaining[c] -= 1;
                assignment.push(c as u8);
                recurse(shape, remaining, assignment, out);
                assignment.pop();
                remaining[c] += 1;
            }
        }
    }
    recurse(shape, &mut remaining, &mut assignment, &mut out);
    out
}

/// All `k`-subsets of `{0, …, n−1}` in lexicographic order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k > n {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
        }
        if idx[i] == i + n - k {
            return out;
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// The natural logarithm of the unnormalized stationary weight of Lemma 9:
/// `ln[(λγ)^{−p(σ)} · γ^{−h(σ)}] = −p(σ)·ln(λγ) − h(σ)·ln(γ)`.
///
/// This is the numerically safe form: the exponents stay in `f64` (where
/// every reachable perimeter and hetero-count is exactly representable —
/// no `as i32` wrap), and nothing is exponentiated, so the result is
/// finite wherever the linear-space weight would underflow to `0` or
/// overflow to `∞`. Use it whenever weights are compared or normalized
/// across configurations (see [`ExactSeparationChain::lemma9_distribution`]).
#[must_use]
pub(crate) fn stationary_log_weight(config: &Configuration, bias: Bias) -> f64 {
    let lg = bias.lambda() * bias.gamma();
    -(config.perimeter() as f64) * lg.ln() - (config.hetero_edge_count() as f64) * bias.gamma().ln()
}

/// The unnormalized stationary weight of Lemma 9:
/// `(λγ)^{−p(σ)} · γ^{−h(σ)}`, computed as
/// `exp(`[`stationary_log_weight`]`)`.
///
/// On systems large enough (or biases extreme enough) that the true weight
/// leaves `f64` range, this saturates cleanly to `0` or `∞` — it no longer
/// wraps the exponent through `i32` (which could flip its sign for
/// astronomically large systems) and it never produces `NaN`. Prefer
/// [`stationary_log_weight`] for ratio or normalization arithmetic, where
/// saturation would still lose the answer.
#[cfg(test)]
#[must_use]
pub(crate) fn stationary_weight(config: &Configuration, bias: Bias) -> f64 {
    stationary_log_weight(config, bias).exp()
}

/// Chain `M` on the exact state space of all connected hole-free bicolored
/// configurations of `n` particles (`n1` of color `c₁`), for use with
/// [`sops_chains::TransitionMatrix`].
///
/// # Example
///
/// ```
/// use sops_chains::TransitionMatrix;
/// use sops_core::enumerate::ExactSeparationChain;
/// use sops_core::{Bias, SeparationChain};
///
/// let chain = SeparationChain::new(Bias::new(2.0, 3.0)?);
/// let exact = ExactSeparationChain::new(chain, 3, 1);
/// let matrix = TransitionMatrix::build(&exact);
/// assert!(matrix.is_irreducible()); // Lemma 8
/// # Ok::<(), sops_core::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ExactSeparationChain {
    chain: SeparationChain,
    counts: Vec<usize>,
}

impl ExactSeparationChain {
    /// Creates the exact chain over `n` particles with `n1` of color `c₁`
    /// (and `n − n1` of `c₂`).
    ///
    /// # Panics
    ///
    /// Panics if `n1 > n` or `n = 0`.
    #[must_use]
    pub fn new(chain: SeparationChain, n: usize, n1: usize) -> Self {
        assert!(n1 <= n, "n1 = {n1} exceeds n = {n}");
        Self::with_counts(chain, &[n1, n - n1])
    }

    /// Creates the exact chain with arbitrary per-color counts — the §5
    /// multicolor generalization (`counts[i]` particles of color `i`).
    ///
    /// # Panics
    ///
    /// Panics if the counts sum to 0.
    #[must_use]
    pub(crate) fn with_counts(chain: SeparationChain, counts: &[usize]) -> Self {
        assert!(
            counts.iter().sum::<usize>() >= 1,
            "need at least one particle"
        );
        ExactSeparationChain {
            chain,
            counts: counts.to_vec(),
        }
    }

    /// The underlying sampling chain.
    #[must_use]
    pub fn chain(&self) -> &SeparationChain {
        &self.chain
    }

    /// The exact stationary distribution of Lemma 9 over `matrix_states`,
    /// normalized.
    ///
    /// Normalization happens in log space (max-shifted exponentials —
    /// "log-sum-exp"): the largest weight is scaled to `exp(0) = 1` before
    /// anything is exponentiated, so the distribution stays finite and
    /// sums to 1 even where every raw weight `(λγ)^{−p} γ^{−h}` underflows
    /// `f64` — a regime where the naive `w / Σw` form returns `0/0 = NaN`
    /// across the board.
    #[must_use]
    pub fn lemma9_distribution(&self, states: &[CanonicalForm]) -> Vec<f64> {
        let logs: Vec<f64> = states
            .iter()
            .map(|s| stationary_log_weight(&s.to_configuration(), self.chain.bias()))
            .collect();
        let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = logs.into_iter().map(|l| (l - max).exp()).collect();
        let z: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / z).collect()
    }
}

impl EnumerableChain for ExactSeparationChain {
    type State = CanonicalForm;

    fn states(&self) -> Vec<CanonicalForm> {
        let n: usize = self.counts.iter().sum();
        let mut out = Vec::new();
        for shape in hole_free_shapes(n) {
            for coloring in multicolorings(&shape, &self.counts) {
                let config =
                    Configuration::new(coloring).expect("enumerated shapes have distinct nodes");
                out.push(config.canonical_form());
            }
        }
        out.sort_unstable();
        out
    }

    fn transitions(&self, state: &CanonicalForm) -> Vec<(CanonicalForm, f64)> {
        let config = state.to_configuration();
        let n = config.len();
        let per_proposal = 1.0 / (6.0 * n as f64);
        let mut out = Vec::new();
        for p in 0..n {
            let from = config.position_of(p);
            for dir in DIRECTIONS {
                let to = from.neighbor(dir);
                match config.color_at(to) {
                    None => {
                        if !self.chain.move_valid(&config, from, dir) {
                            continue;
                        }
                        // `from` is always occupied here (it is a particle's
                        // position), so the ratio cannot fail; skip defensively
                        // rather than panic if it ever does.
                        let Ok(ratio) = self.chain.move_ratio(&config, from, to) else {
                            continue;
                        };
                        let ratio = ratio.value().min(1.0);
                        let mut next = config.clone();
                        next.move_particle(p, to);
                        out.push((next.canonical_form(), per_proposal * ratio));
                    }
                    Some(qcolor) => {
                        if !self.chain.swaps_enabled() || qcolor == config.color_of(p) {
                            continue;
                        }
                        let Ok(ratio) = self.chain.swap_ratio(&config, from, to) else {
                            continue;
                        };
                        let ratio = ratio.value().min(1.0);
                        let mut next = config.clone();
                        next.swap(from, to);
                        out.push((next.canonical_form(), per_proposal * ratio));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_chains::TransitionMatrix;

    #[test]
    fn shape_counts_match_fixed_polyhex_numbers() {
        // OEIS A001207.
        let expect = [1usize, 3, 11, 44, 186, 814];
        for (i, &count) in expect.iter().enumerate() {
            assert_eq!(shapes(i + 1).len(), count, "n = {}", i + 1);
        }
    }

    #[test]
    fn free_shape_counts_match_free_polyhex_numbers() {
        // OEIS A000228.
        let expect = [1usize, 1, 3, 7, 22, 82];
        for (i, &count) in expect.iter().enumerate() {
            assert_eq!(free_shapes(i + 1).len(), count, "n = {}", i + 1);
        }
    }

    #[test]
    fn hole_free_counts() {
        // Holes first appear at n = 6 (the ring); at n = 7 the twelve
        // ring-plus-pendant shapes are holey.
        assert_eq!(hole_free_shapes(5).len(), 186);
        assert_eq!(hole_free_shapes(6).len(), 813);
        assert_eq!(hole_free_shapes(7).len(), 3652 - 12);
    }

    #[test]
    fn min_perimeter_formula_is_exact_up_to_n8() {
        for n in 1..=8usize {
            let min_enumerated = perimeter_counts(n)
                .keys()
                .next()
                .copied()
                .expect("nonempty histogram");
            assert_eq!(
                min_enumerated,
                crate::construct::min_perimeter(n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn perimeter_histogram_total_matches_shape_count() {
        for n in 1..=7usize {
            let hist = perimeter_counts(n);
            let total: u64 = hist.values().sum();
            assert_eq!(total as usize, hole_free_shapes(n).len(), "n = {n}");
        }
    }

    #[test]
    fn combinations_basic() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(5, 0), vec![Vec::<usize>::new()]);
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
        assert!(combinations(2, 3).is_empty());
        // Lexicographic and distinct.
        let c = combinations(5, 3);
        let mut sorted = c.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(c, sorted);
    }

    #[test]
    fn bicolorings_count() {
        let shape = shapes(4).into_iter().next().unwrap();
        assert_eq!(bicolorings(&shape, 2).len(), 6);
        for coloring in bicolorings(&shape, 2) {
            let c1 = coloring.iter().filter(|(_, c)| *c == Color::C1).count();
            assert_eq!(c1, 2);
        }
    }

    #[test]
    fn exact_chain_state_count() {
        // n = 3, n1 = 1: 11 shapes × C(3,1) colorings.
        let exact =
            ExactSeparationChain::new(SeparationChain::new(Bias::new(2.0, 2.0).unwrap()), 3, 1);
        assert_eq!(exact.states().len(), 33);
    }

    #[test]
    fn lemma8_ergodicity_and_lemma9_stationary_distribution_exact() {
        // The centerpiece verification: on the full 3-particle bicolored
        // space, M is ergodic and its transition matrix is in detailed
        // balance with π(σ) ∝ (λγ)^{−p(σ)} γ^{−h(σ)}.
        for (lambda, gamma) in [(2.0, 3.0), (4.0, 0.9), (1.5, 1.0)] {
            let chain = SeparationChain::new(Bias::new(lambda, gamma).unwrap());
            let exact = ExactSeparationChain::new(chain, 3, 1);
            let matrix = TransitionMatrix::build(&exact); // panics if a move left the space (Lemma 6)
            assert!(matrix.is_irreducible(), "λ={lambda}, γ={gamma}");
            assert!(matrix.is_aperiodic());
            let pi = exact.lemma9_distribution(matrix.states());
            assert!(
                matrix.detailed_balance_violation(&pi) < 1e-12,
                "detailed balance fails at λ={lambda}, γ={gamma}"
            );
            assert!(matrix.stationarity_violation(&pi) < 1e-12);
            // Cross-check against power iteration.
            let pi_power = matrix.stationary(1e-13, 2_000_000).unwrap();
            for (a, b) in pi.iter().zip(&pi_power) {
                assert!((a - b).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn lemma9_also_holds_without_swaps() {
        let chain = SeparationChain::without_swaps(Bias::new(3.0, 2.0).unwrap());
        let exact = ExactSeparationChain::new(chain, 3, 1);
        let matrix = TransitionMatrix::build(&exact);
        // Without swaps the 3-particle bicolored space is still irreducible
        // (moves alone suffice; Lemma 8 does not use swaps).
        assert!(matrix.is_irreducible());
        let pi = exact.lemma9_distribution(matrix.states());
        assert!(matrix.detailed_balance_violation(&pi) < 1e-12);
    }

    #[test]
    fn multicolorings_count_is_multinomial() {
        let shape = shapes(4).into_iter().next().unwrap();
        // 4! / (2!·1!·1!) = 12.
        assert_eq!(multicolorings(&shape, &[2, 1, 1]).len(), 12);
        // Multinomial with a zero class degenerates to binomial.
        assert_eq!(multicolorings(&shape, &[2, 2, 0]).len(), 6);
        for coloring in multicolorings(&shape, &[1, 2, 1]) {
            let counts: Vec<usize> = (0..3)
                .map(|c| coloring.iter().filter(|(_, col)| col.index() == c).count())
                .collect();
            assert_eq!(counts, vec![1, 2, 1]);
        }
    }

    #[test]
    fn three_color_exact_chain_satisfies_lemma9() {
        // §5: the proofs are expected to generalize to k > 2; the exact
        // detailed-balance verification does so already at n = 3 with one
        // particle of each color.
        let chain = SeparationChain::new(Bias::new(2.0, 2.5).unwrap());
        let exact = ExactSeparationChain::with_counts(chain, &[1, 1, 1]);
        let matrix = TransitionMatrix::build(&exact);
        // 11 shapes × 3! colorings.
        assert_eq!(matrix.len(), 66);
        assert!(matrix.is_irreducible());
        assert!(matrix.is_aperiodic());
        let pi = exact.lemma9_distribution(matrix.states());
        assert!(matrix.detailed_balance_violation(&pi) < 1e-12);
        assert!(matrix.stationarity_violation(&pi) < 1e-12);
    }

    #[test]
    fn monochromatic_exact_chain_matches_compression_measure() {
        // n1 = 0: single color; stationary distribution reduces to λ^{−p}.
        let chain = SeparationChain::new(Bias::new(2.5, 1.0).unwrap());
        let exact = ExactSeparationChain::new(chain, 4, 0);
        let matrix = TransitionMatrix::build(&exact);
        assert!(matrix.is_irreducible());
        let pi = exact.lemma9_distribution(matrix.states());
        assert!(matrix.detailed_balance_violation(&pi) < 1e-12);
    }

    #[test]
    fn stationary_log_weight_agrees_with_direct_powi_on_small_systems() {
        // Where powi stays in range, exp(log weight) must reproduce it to
        // rounding — the log form is a pure numeric hardening, not a
        // different quantity.
        for (lambda, gamma) in [(2.0, 3.0), (4.0, 0.9), (0.5, 0.6)] {
            let bias = Bias::new(lambda, gamma).unwrap();
            for shape in shapes(4) {
                for coloring in bicolorings(&shape, 2) {
                    let config = Configuration::new(coloring).unwrap();
                    let lg = lambda * gamma;
                    let direct = lg.powi(-(config.perimeter() as i32))
                        * gamma.powi(-(config.hetero_edge_count() as i32));
                    let via_log = stationary_weight(&config, bias);
                    assert!(
                        (via_log - direct).abs() <= 1e-12 * direct.abs(),
                        "λ={lambda} γ={gamma}: {via_log} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma9_distribution_is_finite_where_linear_weights_underflow() {
        // A 200-particle line has perimeter 2n − 2 = 398, so
        // (λγ)^{−p} = 16^{−398} underflows f64 entirely: the naive
        // weight/Σweight normalization returns 0/0 = NaN for every state.
        // The log-space form must still rank the two colorings correctly.
        let bias = Bias::new(4.0, 4.0).unwrap();
        let nodes = crate::construct::line_nodes(200);
        let halves =
            Configuration::new(crate::construct::bicolor_halves(nodes.clone(), 100)).unwrap();
        let stripes = Configuration::new(crate::construct::bicolor_alternating(nodes)).unwrap();
        assert!(stripes.hetero_edge_count() > halves.hetero_edge_count());

        // The linear-space weights saturate (documented behavior)...
        assert_eq!(stationary_weight(&halves, bias), 0.0);
        assert_eq!(stationary_weight(&stripes, bias), 0.0);
        // ...but the log weights stay finite and ordered,
        let lw_halves = stationary_log_weight(&halves, bias);
        let lw_stripes = stationary_log_weight(&stripes, bias);
        assert!(lw_halves.is_finite() && lw_stripes.is_finite());
        assert!(lw_halves > lw_stripes);
        // ...and the normalized distribution is a real distribution that
        // puts almost all mass on the separated coloring.
        let chain = SeparationChain::new(bias);
        let exact = ExactSeparationChain::new(chain, 200, 100);
        let states = [halves.canonical_form(), stripes.canonical_form()];
        let pi = exact.lemma9_distribution(&states);
        assert!(pi.iter().all(|p| p.is_finite()), "NaN regression: {pi:?}");
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(pi[0] > 0.999_999);
    }
}
