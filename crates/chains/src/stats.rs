//! Empirical distributions and time-series statistics for simulation output.

use std::collections::HashMap;
use std::hash::Hash;

/// Typed failure modes of the time-series estimators.
///
/// The strict `try_*` estimator variants return these instead of panicking,
/// so supervised sweep cells can classify a degenerate series (a frozen or
/// fully-converged chain emits a *constant* observable) instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StatsError {
    /// The series holds fewer samples than the estimator needs.
    TooShort {
        /// Minimum sample count the estimator requires.
        needed: usize,
        /// Sample count actually provided.
        got: usize,
    },
    /// The series is constant, so variance-normalized quantities
    /// (autocorrelations and everything built on them) are undefined.
    ConstantSeries,
}

/// An empirical distribution over observed states.
///
/// Used to compare long simulation runs of chain `M` against the exact
/// stationary distribution of Lemma 9 in total-variation distance.
///
/// # Example
///
/// ```
/// use sops_chains::stats::EmpiricalDistribution;
///
/// let mut emp = EmpiricalDistribution::new();
/// for s in ["a", "a", "b", "a"] {
///     emp.record(s);
/// }
/// assert_eq!(emp.count(&"a"), 3);
/// assert!((emp.frequency(&"a") - 0.75).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EmpiricalDistribution<S> {
    counts: HashMap<S, u64>,
    total: u64,
}

impl<S: Eq + Hash + Clone> EmpiricalDistribution<S> {
    /// Creates an empty distribution.
    #[must_use]
    pub fn new() -> Self {
        EmpiricalDistribution {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Records one observation of `state`.
    pub fn record(&mut self, state: S) {
        *self.counts.entry(state).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of distinct states observed.
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }

    /// Raw count of a state.
    #[must_use]
    pub fn count(&self, state: &S) -> u64 {
        self.counts.get(state).copied().unwrap_or(0)
    }

    /// Empirical frequency of a state (0 when nothing was recorded).
    #[must_use]
    pub fn frequency(&self, state: &S) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(state) as f64 / self.total as f64
        }
    }

    /// Total-variation distance to an exact distribution given as
    /// `(state, probability)` pairs covering the whole space.
    ///
    /// States observed empirically but absent from `exact` contribute their
    /// full empirical mass (they have probability 0 under `exact`).
    ///
    /// # Edge cases
    ///
    /// * Repeated states in `exact` are aggregated: their probabilities are
    ///   summed before comparison, so a duplicated entry never counts the
    ///   empirical frequency twice.
    /// * An *empty* empirical distribution (nothing recorded) represents no
    ///   distribution at all; by convention the distance is `1.0` (maximal)
    ///   against a non-empty `exact`, and `0.0` when `exact` is also empty.
    #[must_use]
    pub fn total_variation_to<'a, I>(&self, exact: I) -> f64
    where
        I: IntoIterator<Item = (&'a S, f64)>,
        S: 'a,
    {
        // Aggregate per state first: duplicated `exact` entries must sum
        // their probability mass, not each re-count the empirical frequency.
        let mut exact_mass: HashMap<&'a S, f64> = HashMap::new();
        for (state, p) in exact {
            *exact_mass.entry(state).or_insert(0.0) += p;
        }
        if self.total == 0 {
            return if exact_mass.is_empty() { 0.0 } else { 1.0 };
        }
        let mut tv = 0.0;
        let mut seen = 0.0;
        for (state, p) in &exact_mass {
            let f = self.frequency(state);
            tv += (f - p).abs();
            seen += f;
        }
        // Empirical mass on states not covered by `exact`; clamp so float
        // round-off in `seen` can never drive the distance negative.
        tv += (1.0 - seen).max(0.0);
        tv / 2.0
    }
}

/// Summary statistics of a numeric time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty series");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Half-width of a ~95% normal confidence interval for the mean,
    /// adjusted for autocorrelation: divides by `√ESS` instead of `√n`.
    ///
    /// `ess` is clamped to `[0, n]` — the effective sample count can never
    /// exceed the raw count. Returns `INFINITY` when the (clamped)
    /// effective sample size is below 2, mirroring the i.i.d. variant's
    /// behavior for `n < 2`.
    #[must_use]
    pub fn ci95_half_width_ess(&self, ess: f64) -> f64 {
        // The NaN/degenerate check must precede the clamp: `NaN.min(n)`
        // evaluates to `n`, which would silently treat garbage as i.i.d.
        if ess.is_nan() || ess < 2.0 {
            return f64::INFINITY;
        }
        let ess = ess.min(self.n as f64);
        1.96 * self.std_dev / ess.sqrt()
    }
}

/// Integrated autocorrelation time
/// `τ_int = 1 + 2 Σ_{k≥1} ρ(k)`, with the sum truncated at the first
/// non-positive autocorrelation (the standard initial-positive-sequence
/// estimator of Geyer). Chain observables decorrelate after ~τ_int steps,
/// so the *effective* sample count of a series is `n / τ_int`
/// ([`effective_sample_size`]). The experiment harness uses this to choose
/// subsampling gaps, and the convergence engine
/// ([`crate::convergence`]) uses it to decide when a cell has mixed.
///
/// The centered series and its variance are computed once, and each lag
/// adds a single dot product over the overlap — `O(n · k_stop)` total,
/// where `k_stop` is the truncation lag — instead of the naive
/// recompute-per-lag `O(n²)` loop.
///
/// # Errors
///
/// Returns [`StatsError::TooShort`] for fewer than 2 samples and
/// [`StatsError::ConstantSeries`] for a zero-variance series.
pub(crate) fn try_integrated_autocorrelation_time(series: &[f64]) -> Result<f64, StatsError> {
    let n = series.len();
    if n < 2 {
        return Err(StatsError::TooShort { needed: 2, got: n });
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let centered: Vec<f64> = series.iter().map(|x| x - mean).collect();
    let var: f64 = centered.iter().map(|c| c * c).sum();
    if var <= 0.0 {
        return Err(StatsError::ConstantSeries);
    }
    let mut tau = 1.0;
    for k in 1..n - 1 {
        let cov: f64 = centered[..n - k]
            .iter()
            .zip(&centered[k..])
            .map(|(a, b)| a * b)
            .sum();
        let rho = cov / var;
        if rho <= 0.0 {
            break;
        }
        tau += 2.0 * rho;
    }
    Ok(tau)
}

/// Total-function form of `try_integrated_autocorrelation_time`, with
/// the degenerate cases given their natural limits: a series shorter than
/// 2 samples has `τ_int = 1` (nothing to correlate), and a *constant*
/// series of `n` samples is fully correlated — `τ_int = n`, so its
/// effective sample size is exactly 1.
#[must_use]
pub fn integrated_autocorrelation_time(series: &[f64]) -> f64 {
    match try_integrated_autocorrelation_time(series) {
        Ok(tau) => tau,
        Err(StatsError::TooShort { .. }) => 1.0,
        Err(StatsError::ConstantSeries) => series.len() as f64,
    }
}

/// Effective number of independent samples in an autocorrelated series:
/// `n / τ_int`.
///
/// Total on degenerate input: an empty series has 0 effective samples, a
/// single sample counts as 1, and a constant series of any length counts
/// as exactly 1 (its `τ_int` is `n`).
#[must_use]
pub fn effective_sample_size(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.len() as f64 / integrated_autocorrelation_time(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iid_series_has_tau_near_one() {
        // Deterministic pseudo-random walk-free series.
        let mut state = 88172645463325252u64;
        let series: Vec<f64> = (0..4000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64
            })
            .collect();
        let tau = integrated_autocorrelation_time(&series);
        assert!(tau < 1.5, "τ = {tau}");
        assert!(effective_sample_size(&series) > series.len() as f64 / 1.5);
    }

    #[test]
    fn sticky_series_has_large_tau() {
        // A series that changes every 50 steps is ~50× autocorrelated.
        let series: Vec<f64> = (0..5000)
            .map(|i| f64::from(u32::from((i / 50) % 2 == 0)))
            .collect();
        let tau = integrated_autocorrelation_time(&series);
        assert!(tau > 10.0, "τ = {tau}");
        assert!(effective_sample_size(&series) < 500.0);
    }

    #[test]
    fn empirical_counts_and_frequencies() {
        let mut e = EmpiricalDistribution::new();
        for x in [1, 1, 2, 3, 1] {
            e.record(x);
        }
        assert_eq!(e.total, 5);
        assert_eq!(e.support_size(), 3);
        assert_eq!(e.count(&1), 3);
        assert_eq!(e.count(&9), 0);
        assert!((e.frequency(&2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tv_to_exact_distribution() {
        let mut e = EmpiricalDistribution::new();
        for x in [0, 0, 1, 1] {
            e.record(x);
        }
        let exact = [(0, 0.5), (1, 0.5)];
        let tv = e.total_variation_to(exact.iter().map(|(s, p)| (s, *p)));
        assert!(tv.abs() < 1e-12);

        let exact_skewed = [(0, 1.0), (1, 0.0)];
        let tv = e.total_variation_to(exact_skewed.iter().map(|(s, p)| (s, *p)));
        assert!((tv - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tv_aggregates_repeated_exact_states() {
        let mut e = EmpiricalDistribution::new();
        for x in [0, 1] {
            e.record(x);
        }
        // Exact mass all on 0, split across duplicate entries. The old
        // implementation compared f(0) = 0.5 against each half separately
        // and reported distance 0; the true distance is 0.5.
        let exact = [(0, 0.5), (0, 0.5)];
        let tv = e.total_variation_to(exact.iter().map(|(s, p)| (s, *p)));
        assert!((tv - 0.5).abs() < 1e-12, "tv = {tv}");

        // Duplicates that agree with the empirical mass give distance 0.
        let exact = [(0, 0.25), (0, 0.25), (1, 0.5)];
        let tv = e.total_variation_to(exact.iter().map(|(s, p)| (s, *p)));
        assert!(tv.abs() < 1e-12, "tv = {tv}");
    }

    #[test]
    fn tv_of_empty_distribution_is_defined() {
        let e: EmpiricalDistribution<i32> = EmpiricalDistribution::new();
        // Nothing recorded vs a real distribution: maximal distance.
        let exact = [(0, 0.5), (1, 0.5)];
        let tv = e.total_variation_to(exact.iter().map(|(s, p)| (s, *p)));
        assert_eq!(tv, 1.0);
        // Nothing recorded vs nothing expected: zero distance.
        assert_eq!(e.total_variation_to(std::iter::empty()), 0.0);
    }

    #[test]
    fn tv_charges_unseen_empirical_mass() {
        let mut e = EmpiricalDistribution::new();
        e.record("only");
        // Exact distribution that doesn't include "only" at all.
        let exact = [("other", 1.0)];
        let tv = e.total_variation_to(exact.iter().map(|(s, p)| (s, *p)));
        assert!((tv - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn summary_of_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn constant_series_never_panics_and_has_defined_values() {
        // A frozen (fully converged) chain emits exactly this.
        let series = vec![42.0; 100];
        assert_eq!(integrated_autocorrelation_time(&series), 100.0);
        assert_eq!(effective_sample_size(&series), 1.0);
        // The strict variants classify the degeneracy instead.
        assert_eq!(
            try_integrated_autocorrelation_time(&series),
            Err(StatsError::ConstantSeries)
        );
    }

    #[test]
    fn short_series_never_panics_and_has_defined_values() {
        assert_eq!(integrated_autocorrelation_time(&[]), 1.0);
        assert_eq!(integrated_autocorrelation_time(&[3.0]), 1.0);
        assert_eq!(effective_sample_size(&[]), 0.0);
        assert_eq!(effective_sample_size(&[3.0]), 1.0);
        assert_eq!(
            try_integrated_autocorrelation_time(&[1.0]),
            Err(StatsError::TooShort { needed: 2, got: 1 })
        );
    }

    /// The single-pass estimator must agree with the textbook
    /// recompute-per-lag formula on non-degenerate series.
    #[test]
    fn single_pass_tau_matches_reference_estimator() {
        fn reference_tau(series: &[f64]) -> f64 {
            // The pre-optimization O(n²) loop, verbatim minus the asserts.
            let n = series.len();
            let mut tau = 1.0;
            for k in 1..n - 1 {
                let mean = series.iter().sum::<f64>() / n as f64;
                let var: f64 = series.iter().map(|x| (x - mean).powi(2)).sum();
                let cov: f64 = (0..n - k)
                    .map(|i| (series[i] - mean) * (series[i + k] - mean))
                    .sum();
                let rho = cov / var;
                if rho <= 0.0 {
                    break;
                }
                tau += 2.0 * rho;
            }
            tau
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 10.0
        };
        // Mix of i.i.d.-like and sticky (block-repeated) series.
        for block in [1usize, 3, 17, 50] {
            let raw: Vec<f64> = (0..600).map(|_| next()).collect();
            let series: Vec<f64> = (0..600).map(|i| raw[i / block * block]).collect();
            let fast = integrated_autocorrelation_time(&series);
            let slow = reference_tau(&series);
            assert!(
                (fast - slow).abs() <= 1e-9 * slow.max(1.0),
                "block {block}: fast {fast} vs reference {slow}"
            );
        }
    }

    #[test]
    fn ess_adjusted_ci_widens_with_autocorrelation() {
        let series: Vec<f64> = (0..1000)
            .map(|i| f64::from(u32::from((i / 50) % 2 == 0)))
            .collect();
        let s = Summary::of(&series);
        let ess = effective_sample_size(&series);
        let iid = s.ci95_half_width_ess(s.n as f64);
        let adjusted = s.ci95_half_width_ess(ess);
        assert!(adjusted > iid, "adjusted {adjusted} <= iid {iid}");
        // ESS above n is clamped back to the i.i.d. width, never narrower.
        assert!((s.ci95_half_width_ess(1e9) - iid).abs() < 1e-12);
        // Degenerate ESS yields an unbounded interval, not a panic.
        assert_eq!(s.ci95_half_width_ess(0.0), f64::INFINITY);
        assert_eq!(s.ci95_half_width_ess(f64::NAN), f64::INFINITY);
    }
}
