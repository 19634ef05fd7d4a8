//! Exact transition matrices for chains with enumerable state spaces.
//!
//! On small particle systems the full state space of chain `M` can be
//! enumerated, which turns the paper's structural lemmas into machine-checked
//! facts: Lemma 8 (ergodicity) becomes an irreducibility + aperiodicity check
//! on the matrix, and Lemma 9 (the stationary distribution) becomes a
//! detailed-balance residual that must vanish.

use std::collections::HashMap;
use std::hash::Hash;

/// A Markov chain whose state space and per-state transitions can be listed
/// explicitly.
///
/// `transitions` returns pairs `(target, probability)` for every *non-hold*
/// transition out of a state; the hold (self-loop) probability is implied as
/// `1 − Σ p` and must be nonnegative. Duplicate targets are allowed and are
/// summed.
pub trait EnumerableChain {
    /// The chain's state type.
    type State: Clone + Eq + Hash;

    /// Every state of the chain, in a stable order.
    fn states(&self) -> Vec<Self::State>;

    /// Outgoing non-hold transitions of `state` as `(target, probability)`.
    fn transitions(&self, state: &Self::State) -> Vec<(Self::State, f64)>;
}

/// A dense row-stochastic transition matrix over an indexed state space.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Clone, Debug)]
pub struct TransitionMatrix<S> {
    states: Vec<S>,
    /// Row-major `n × n` matrix; `rows[i * n + j] = P(i → j)`.
    rows: Vec<f64>,
}

impl<S: Clone + Eq + Hash> TransitionMatrix<S> {
    /// Builds the exact matrix of an enumerable chain.
    ///
    /// # Panics
    ///
    /// Panics if a transition targets a state not returned by
    /// [`EnumerableChain::states`], if any probability is negative, or if a
    /// row's non-hold mass exceeds 1 by more than 1e-9.
    #[must_use]
    pub fn build<C: EnumerableChain<State = S>>(chain: &C) -> Self {
        let states = chain.states();
        let n = states.len();
        assert!(n > 0, "state space must be nonempty");
        let index: HashMap<S, usize> = states
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        assert_eq!(index.len(), n, "states() returned duplicates");

        let mut rows = vec![0.0; n * n];
        for (i, s) in states.iter().enumerate() {
            let mut mass = 0.0;
            for (t, p) in chain.transitions(s) {
                assert!(p >= 0.0, "negative transition probability {p}");
                let j = *index
                    .get(&t)
                    .expect("transition target missing from states()");
                rows[i * n + j] += p;
                mass += p;
            }
            assert!(
                mass <= 1.0 + 1e-9,
                "row {i} has non-hold probability mass {mass} > 1"
            );
            rows[i * n + i] += (1.0 - mass).max(0.0);
        }
        TransitionMatrix { states, rows }
    }

    /// Number of states.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the state space is empty (never true for built matrices).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states in index order.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The one-step probability `P(i → j)`.
    #[inline]
    #[must_use]
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.rows[i * self.states.len() + j]
    }

    /// Applies one step to a distribution: returns `dist · P`.
    #[must_use]
    pub(crate) fn step_distribution(&self, dist: &[f64]) -> Vec<f64> {
        let n = self.states.len();
        assert_eq!(dist.len(), n, "distribution has wrong dimension");
        let mut out = vec![0.0; n];
        for (i, &d) in dist.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            let row = &self.rows[i * n..(i + 1) * n];
            for (o, &p) in out.iter_mut().zip(row) {
                *o += d * p;
            }
        }
        out
    }

    /// The distribution after `t` steps from a point mass at `start`.
    #[must_use]
    pub fn t_step_distribution(&self, start: usize, t: u64) -> Vec<f64> {
        let mut dist = vec![0.0; self.states.len()];
        dist[start] = 1.0;
        for _ in 0..t {
            dist = self.step_distribution(&dist);
        }
        dist
    }

    /// The stationary distribution by power iteration, or `None` if the
    /// iteration fails to converge below `tol` (in L1) within `max_iters`.
    ///
    /// For periodic chains power iteration need not converge; this averages
    /// consecutive iterates (equivalent to iterating the lazy chain
    /// `(P + I)/2`), which converges for every irreducible chain.
    #[must_use]
    pub fn stationary(&self, tol: f64, max_iters: u64) -> Option<Vec<f64>> {
        let n = self.states.len();
        let mut dist = vec![1.0 / n as f64; n];
        for _ in 0..max_iters {
            let next = self.step_distribution(&dist);
            let lazy: Vec<f64> = next.iter().zip(&dist).map(|(a, b)| (a + b) / 2.0).collect();
            let diff: f64 = lazy.iter().zip(&dist).map(|(a, b)| (a - b).abs()).sum();
            dist = lazy;
            if diff < tol {
                // Polish: one exact step and renormalize.
                let sum: f64 = dist.iter().sum();
                for d in &mut dist {
                    *d /= sum;
                }
                return Some(dist);
            }
        }
        None
    }

    /// The largest detailed-balance residual
    /// `max_{i,j} |π(i)·P(i→j) − π(j)·P(j→i)|`.
    ///
    /// Zero (up to floating point) certifies the chain is reversible with
    /// respect to `pi` — the verification used by the paper's Lemma 9.
    #[must_use]
    pub fn detailed_balance_violation(&self, pi: &[f64]) -> f64 {
        let n = self.states.len();
        assert_eq!(pi.len(), n, "distribution has wrong dimension");
        let mut worst = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let flow_ij = pi[i] * self.prob(i, j);
                let flow_ji = pi[j] * self.prob(j, i);
                worst = worst.max((flow_ij - flow_ji).abs());
            }
        }
        worst
    }

    /// The largest stationarity residual `max_j |(π·P)(j) − π(j)|`.
    #[must_use]
    pub fn stationarity_violation(&self, pi: &[f64]) -> f64 {
        self.step_distribution(pi)
            .iter()
            .zip(pi)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether every state is reachable from every other (with any number of
    /// steps) — irreducibility, checked on the directed support graph.
    #[must_use]
    pub fn is_irreducible(&self) -> bool {
        let n = self.states.len();
        if n <= 1 {
            return true;
        }
        // Forward reachability from 0 and reachability *to* 0 (via the
        // transposed support graph) together give strong connectivity.
        self.reachable_from(0, false).len() == n && self.reachable_from(0, true).len() == n
    }

    fn reachable_from(&self, start: usize, transpose: bool) -> Vec<usize> {
        let n = self.states.len();
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        let mut out = Vec::new();
        seen[start] = true;
        while let Some(i) = stack.pop() {
            out.push(i);
            for (j, seen_j) in seen.iter_mut().enumerate() {
                let p = if transpose {
                    self.prob(j, i)
                } else {
                    self.prob(i, j)
                };
                if p > 0.0 && !*seen_j {
                    *seen_j = true;
                    stack.push(j);
                }
            }
        }
        out
    }

    /// Whether the chain is aperiodic.
    ///
    /// For an irreducible chain a single state with a positive self-loop makes
    /// the whole chain aperiodic; otherwise we fall back to computing the gcd
    /// of cycle lengths through state 0 via BFS levels.
    #[must_use]
    pub fn is_aperiodic(&self) -> bool {
        let n = self.states.len();
        if (0..n).any(|i| self.prob(i, i) > 0.0) {
            return true;
        }
        // gcd of (level(i) + 1 - level(j)) over edges i→j, starting BFS at 0.
        let mut level = vec![usize::MAX; n];
        level[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        let mut g: u64 = 0;
        while let Some(i) = queue.pop_front() {
            for j in 0..n {
                if self.prob(i, j) <= 0.0 {
                    continue;
                }
                if level[j] == usize::MAX {
                    level[j] = level[i] + 1;
                    queue.push_back(j);
                } else {
                    let diff = (level[i] as i64 + 1 - level[j] as i64).unsigned_abs();
                    g = gcd(g, diff);
                }
            }
        }
        g == 1
    }

    /// Total-variation distance between two distributions over this space.
    #[must_use]
    pub fn total_variation(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "distributions have different dimensions");
        0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
    }

    /// Smallest `t` such that the worst-case start's t-step distribution is
    /// within `eps` of `pi` in total variation, searching up to `max_t`.
    ///
    /// This is the mixing time `t_mix(eps)` computed exactly (the paper notes
    /// no nontrivial mixing-time bounds are known for `M`; on enumerable toy
    /// spaces we can still measure it).
    #[must_use]
    pub fn mixing_time(&self, pi: &[f64], eps: f64, max_t: u64) -> Option<u64> {
        let n = self.states.len();
        let mut dists: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut d = vec![0.0; n];
                d[i] = 1.0;
                d
            })
            .collect();
        for t in 0..=max_t {
            let worst = dists
                .iter()
                .map(|d| Self::total_variation(d, pi))
                .fold(0.0, f64::max);
            if worst <= eps {
                return Some(t);
            }
            for d in &mut dists {
                *d = self.step_distribution(d);
            }
        }
        None
    }
}

impl<S: Clone + Eq + Hash> TransitionMatrix<S> {
    /// The modulus of the second-largest eigenvalue `|λ₂|` of a
    /// **reversible** chain, via power iteration on the symmetrized kernel
    /// `D^{1/2} P D^{−1/2}` with the top eigenvector (`√π`) projected out.
    /// The relaxation time is `1/(1 − |λ₂|)`, a standard lower-bound proxy
    /// for the mixing time.
    ///
    /// Returns `None` if the iteration fails to converge within
    /// `max_iters`, or an eigenvalue estimate otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `pi` is not strictly positive everywhere or fails
    /// detailed balance by more than 1e-8 (the symmetrization is only
    /// valid for reversible chains).
    #[must_use]
    pub(crate) fn second_eigenvalue_modulus(
        &self,
        pi: &[f64],
        tol: f64,
        max_iters: u64,
    ) -> Option<f64> {
        let n = self.states.len();
        assert_eq!(pi.len(), n, "distribution has wrong dimension");
        assert!(
            pi.iter().all(|&p| p > 0.0),
            "π must be strictly positive for symmetrization"
        );
        assert!(
            self.detailed_balance_violation(pi) < 1e-8,
            "chain is not reversible w.r.t. the supplied π"
        );
        if n == 1 {
            return Some(0.0);
        }
        let sqrt_pi: Vec<f64> = pi.iter().map(|p| p.sqrt()).collect();
        // Symmetrized kernel application: (Sv)_j = Σ_i v_i √(π_i/π_j) P(i,j).
        let apply = |v: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; n];
            for i in 0..n {
                if v[i] == 0.0 {
                    continue;
                }
                let row = &self.rows[i * n..(i + 1) * n];
                for j in 0..n {
                    if row[j] > 0.0 {
                        out[j] += v[i] * sqrt_pi[i] / sqrt_pi[j] * row[j];
                    }
                }
            }
            out
        };
        let project_out_top = |v: &mut [f64]| {
            let dot: f64 = v.iter().zip(&sqrt_pi).map(|(a, b)| a * b).sum();
            for (x, s) in v.iter_mut().zip(&sqrt_pi) {
                *x -= dot * s;
            }
        };
        // Deterministic full-spectrum start vector.
        let mut v: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 + 0.1)
            .collect();
        project_out_top(&mut v);
        let mut prev = 0.0;
        for _ in 0..max_iters {
            // Iterate S² so negative eigenvalues converge too; |λ₂| = √ρ(S² on π⊥).
            let mut w = apply(&apply(&v));
            project_out_top(&mut w);
            let norm_w: f64 = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            let norm_v: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm_w == 0.0 || norm_v == 0.0 {
                return Some(0.0); // kernel annihilates the complement: λ₂ = 0
            }
            let estimate = (norm_w / norm_v).sqrt();
            for x in &mut w {
                *x /= norm_w;
            }
            v = w;
            if (estimate - prev).abs() < tol {
                return Some(estimate.min(1.0));
            }
            prev = estimate;
        }
        None
    }

    /// The relaxation time `1/(1 − |λ₂|)` of a reversible chain (see
    /// `TransitionMatrix::second_eigenvalue_modulus`); `None` when the
    /// eigenvalue estimate does not converge or equals 1.
    #[must_use]
    pub fn relaxation_time(&self, pi: &[f64], tol: f64, max_iters: u64) -> Option<f64> {
        let l2 = self.second_eigenvalue_modulus(pi, tol, max_iters)?;
        if l2 >= 1.0 {
            None
        } else {
            Some(1.0 / (1.0 - l2))
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Biased walk on a path 0..n with Metropolis weights w(i) = λ^i.
    struct BiasedPath {
        n: usize,
        lambda: f64,
    }

    impl EnumerableChain for BiasedPath {
        type State = usize;

        fn states(&self) -> Vec<usize> {
            (0..self.n).collect()
        }

        fn transitions(&self, s: &usize) -> Vec<(usize, f64)> {
            // Propose left/right each with prob 1/2, accept with min(1, ratio).
            let mut out = Vec::new();
            if *s + 1 < self.n {
                out.push((*s + 1, 0.5 * self.lambda.min(1.0)));
            }
            if *s > 0 {
                out.push((*s - 1, 0.5 * (1.0 / self.lambda).min(1.0)));
            }
            out
        }
    }

    #[test]
    fn biased_path_stationary_is_geometric() {
        let chain = BiasedPath { n: 6, lambda: 2.0 };
        let m = TransitionMatrix::build(&chain);
        assert!(m.is_irreducible());
        assert!(m.is_aperiodic());
        let pi = m.stationary(1e-14, 1_000_000).unwrap();
        // π(i) ∝ 2^i.
        let z: f64 = (0..6).map(|i| 2.0_f64.powi(i)).sum();
        for (i, p) in pi.iter().enumerate() {
            assert!((p - 2.0_f64.powi(i as i32) / z).abs() < 1e-9, "state {i}");
        }
        assert!(m.detailed_balance_violation(&pi) < 1e-12);
        assert!(m.stationarity_violation(&pi) < 1e-12);
    }

    /// Deterministic 3-cycle: periodic and irreversible.
    struct Cycle3;

    impl EnumerableChain for Cycle3 {
        type State = usize;
        fn states(&self) -> Vec<usize> {
            vec![0, 1, 2]
        }
        fn transitions(&self, s: &usize) -> Vec<(usize, f64)> {
            vec![((s + 1) % 3, 1.0)]
        }
    }

    #[test]
    fn cycle_is_periodic_but_irreducible() {
        let m = TransitionMatrix::build(&Cycle3);
        assert!(m.is_irreducible());
        assert!(!m.is_aperiodic());
        // Lazy power iteration still finds the uniform stationary distribution.
        let pi = m.stationary(1e-13, 1_000_000).unwrap();
        for p in &pi {
            assert!((p - 1.0 / 3.0).abs() < 1e-9);
        }
        // The cycle is NOT reversible: uniform π fails detailed balance.
        assert!(m.detailed_balance_violation(&pi) > 0.1);
        assert!(m.stationarity_violation(&pi) < 1e-9);
    }

    /// Two states with no interaction: reducible.
    struct TwoIslands;

    impl EnumerableChain for TwoIslands {
        type State = usize;
        fn states(&self) -> Vec<usize> {
            vec![0, 1]
        }
        fn transitions(&self, _: &usize) -> Vec<(usize, f64)> {
            Vec::new()
        }
    }

    #[test]
    fn reducible_chain_detected() {
        let m = TransitionMatrix::build(&TwoIslands);
        assert!(!m.is_irreducible());
    }

    #[test]
    fn t_step_distribution_rows_are_stochastic() {
        let m = TransitionMatrix::build(&BiasedPath { n: 5, lambda: 3.0 });
        for t in [0, 1, 5, 50] {
            let d = m.t_step_distribution(2, t);
            let sum: f64 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn mixing_time_monotone_in_eps() {
        let m = TransitionMatrix::build(&BiasedPath { n: 5, lambda: 1.5 });
        let pi = m.stationary(1e-14, 1_000_000).unwrap();
        let loose = m.mixing_time(&pi, 0.25, 10_000).unwrap();
        let tight = m.mixing_time(&pi, 0.01, 10_000).unwrap();
        assert!(loose <= tight);
        assert!(tight > 0);
    }

    #[test]
    fn second_eigenvalue_of_two_state_flip_is_zero() {
        // P = [[1/2, 1/2], [1/2, 1/2]]: eigenvalues 1 and 0.
        struct Flip;
        impl EnumerableChain for Flip {
            type State = bool;
            fn states(&self) -> Vec<bool> {
                vec![false, true]
            }
            fn transitions(&self, s: &bool) -> Vec<(bool, f64)> {
                vec![(!s, 0.5)]
            }
        }
        let m = TransitionMatrix::build(&Flip);
        let pi = vec![0.5, 0.5];
        let l2 = m.second_eigenvalue_modulus(&pi, 1e-12, 100_000).unwrap();
        assert!(l2 < 1e-6, "λ₂ = {l2}");
    }

    #[test]
    fn second_eigenvalue_of_lazy_walk_matches_closed_form() {
        // Lazy walk on the 2-cycle {0,1}: move w.p. q, stay w.p. 1−q.
        // Eigenvalues: 1 and 1 − 2q.
        struct Lazy(f64);
        impl EnumerableChain for Lazy {
            type State = usize;
            fn states(&self) -> Vec<usize> {
                vec![0, 1]
            }
            fn transitions(&self, s: &usize) -> Vec<(usize, f64)> {
                vec![(1 - s, self.0)]
            }
        }
        for q in [0.1, 0.3, 0.45] {
            let m = TransitionMatrix::build(&Lazy(q));
            let pi = vec![0.5, 0.5];
            let l2 = m.second_eigenvalue_modulus(&pi, 1e-12, 200_000).unwrap();
            assert!((l2 - (1.0 - 2.0 * q)).abs() < 1e-6, "q = {q}: λ₂ = {l2}");
            let t_rel = m.relaxation_time(&pi, 1e-12, 200_000).unwrap();
            assert!((t_rel - 1.0 / (2.0 * q)).abs() < 1e-4);
        }
    }

    #[test]
    fn relaxation_time_lower_bounds_mixing_behavior() {
        // On the biased path, t_mix(1/4) ≥ (t_rel − 1)·ln 2 (standard
        // spectral bound) — check it numerically.
        let chain = BiasedPath { n: 6, lambda: 2.0 };
        let m = TransitionMatrix::build(&chain);
        let pi = m.stationary(1e-14, 1_000_000).unwrap();
        let t_rel = m.relaxation_time(&pi, 1e-12, 500_000).unwrap();
        let t_mix = m.mixing_time(&pi, 0.25, 100_000).unwrap();
        assert!(
            t_mix as f64 >= (t_rel - 1.0) * (2.0f64).ln() - 1.0,
            "t_mix = {t_mix}, t_rel = {t_rel}"
        );
    }

    #[test]
    #[should_panic(expected = "not reversible")]
    fn second_eigenvalue_rejects_irreversible_chains() {
        let m = TransitionMatrix::build(&Cycle3);
        let pi = vec![1.0 / 3.0; 3];
        let _ = m.second_eigenvalue_modulus(&pi, 1e-10, 1000);
    }

    #[test]
    fn total_variation_extremes() {
        assert_eq!(
            TransitionMatrix::<usize>::total_variation(&[1.0, 0.0], &[1.0, 0.0]),
            0.0
        );
        assert_eq!(
            TransitionMatrix::<usize>::total_variation(&[1.0, 0.0], &[0.0, 1.0]),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "non-hold probability mass")]
    fn overfull_row_panics() {
        struct Bad;
        impl EnumerableChain for Bad {
            type State = usize;
            fn states(&self) -> Vec<usize> {
                vec![0, 1]
            }
            fn transitions(&self, _: &usize) -> Vec<(usize, f64)> {
                vec![(0, 0.7), (1, 0.7)]
            }
        }
        let _ = TransitionMatrix::build(&Bad);
    }

    #[test]
    fn duplicate_transition_targets_are_summed() {
        struct Dup;
        impl EnumerableChain for Dup {
            type State = usize;
            fn states(&self) -> Vec<usize> {
                vec![0, 1]
            }
            fn transitions(&self, s: &usize) -> Vec<(usize, f64)> {
                vec![(1 - s, 0.25), (1 - s, 0.25)]
            }
        }
        let m = TransitionMatrix::build(&Dup);
        assert!((m.prob(0, 1) - 0.5).abs() < 1e-15);
        assert!((m.prob(0, 0) - 0.5).abs() < 1e-15);
    }
}
