//! The Metropolis filter (Metropolis–Hastings acceptance rule).
//!
//! Algorithm 1 of the paper accepts a proposed particle move with probability
//! `min(1, λ^{e′−e} · γ^{e′_i−e_i})` — a Metropolis filter for the stationary
//! distribution `π(σ) ∝ λ^{e(σ)} γ^{a(σ)}`. This module implements the filter
//! in the numerically robust exponent form used by `sops-core`: acceptance
//! ratios are products of small integer powers of the bias parameters, so we
//! carry `(Δe, Δa, …)` exponents and evaluate lazily.

use rand::{Rng, RngExt as _};

/// Accepts with probability `min(1, ratio)`.
///
/// This is the textbook Metropolis filter: drawing `q ~ U(0,1)` and accepting
/// when `q < ratio` (the comparison in Step 6(iii) / Step 10 of Algorithm 1).
#[inline]
pub(crate) fn accept<R: Rng + ?Sized>(ratio: f64, rng: &mut R) -> bool {
    ratio >= 1.0 || rng.random::<f64>() < ratio
}

/// Whether the single factor `base^exponent` is ≥ 1 by sign inspection
/// alone — the per-component test `PowerRatio::certainly_accepts` folds
/// over, exposed so kernels that precompute their filters share the exact
/// same certainty rule.
#[inline]
#[must_use]
pub fn factor_certainly_ge_one(base: f64, exponent: i32) -> bool {
    exponent == 0 || (base >= 1.0 && exponent > 0) || (base <= 1.0 && exponent < 0)
}

/// An acceptance ratio expressed as `Π bases[k]^{exponents[k]}`.
///
/// Keeping the exponents symbolic avoids useless `powi` calls on the hot
/// path: a ratio with all exponents ≥ 0 and all bases ≥ 1 is accepted without
/// touching the RNG or computing any power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerRatio<const K: usize> {
    /// The bias bases, e.g. `[λ, γ]`. Must be positive.
    pub bases: [f64; K],
    /// The integer exponents, e.g. `[e′−e, e′_i−e_i]`.
    pub exponents: [i32; K],
}

impl<const K: usize> PowerRatio<K> {
    /// Creates a ratio from bases and exponents.
    ///
    /// # Panics
    ///
    /// Panics if any base is not strictly positive (the paper requires
    /// `λ, γ > 0`; the interesting regimes are `λ, γ > 1`).
    #[inline]
    #[must_use]
    pub fn new(bases: [f64; K], exponents: [i32; K]) -> Self {
        assert!(
            bases.iter().all(|b| *b > 0.0),
            "bias parameters must be positive, got {bases:?}"
        );
        PowerRatio { bases, exponents }
    }

    /// Evaluates the ratio as an `f64`.
    #[inline]
    #[must_use]
    pub fn value(&self) -> f64 {
        let mut v = 1.0;
        for k in 0..K {
            v *= self.bases[k].powi(self.exponents[k]);
        }
        v
    }

    /// Whether the ratio is trivially ≥ 1 (every factor ≥ 1), so the filter
    /// accepts without sampling.
    #[inline]
    #[must_use]
    pub(crate) fn certainly_accepts(&self) -> bool {
        (0..K).all(|k| factor_certainly_ge_one(self.bases[k], self.exponents[k]))
    }

    /// Runs the Metropolis filter on this ratio.
    #[inline]
    pub fn accept<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        if self.certainly_accepts() {
            return true;
        }
        accept(self.value(), rng)
    }
}

/// Largest exponent magnitude a [`PowerTable`] stores exactly.
///
/// The separation chain's per-proposal exponents are masked popcount
/// differences over the 8-node combined neighborhood ring: a move changes
/// each of `(e, e_i)` by at most 5 in either direction, and a swap's
/// combined `γ` exponent is at most ±10. `12` covers every exponent any
/// `audit()`-consistent configuration can produce, with margin for chain
/// variants that widen the neighborhood by a node or two.
pub const POWER_TABLE_EXPONENT_MAX: i32 = 12;

const POWER_TABLE_LEN: usize = (2 * POWER_TABLE_EXPONENT_MAX + 1) as usize;

/// Precomputed integer powers `base^e` for `e ∈ [−12, 12]` — the proposal
/// kernels' replacement for per-accept `powi` calls.
///
/// # Range and clamping semantics
///
/// Two clamps apply, both documented contract rather than accident:
///
/// * **Exponent clamp** — [`PowerTable::pow`] clamps its argument into
///   `[−POWER_TABLE_EXPONENT_MAX, POWER_TABLE_EXPONENT_MAX]`. Chain
///   proposals cannot exceed that range (see
///   [`POWER_TABLE_EXPONENT_MAX`]); an out-of-range exponent is a caller
///   bug, and saturating keeps the lookup total rather than UB or a panic
///   on the hot path. [`PowerTable::covers`] lets callers assert the
///   in-range case explicitly.
/// * **Value clamp** — each stored entry is `base.powi(e)` clamped into
///   `[f64::MIN_POSITIVE, f64::MAX]`. For extreme bases `powi` can
///   underflow to `0.0` (or denormalize) or overflow to `+∞`; a Metropolis
///   ratio of exactly `0` or `∞` would make an acceptance decision on a
///   value the symbolic form says is merely *very small* or *very large*.
///   Clamping keeps every entry a positive, finite, normal number. The
///   acceptance probability this perturbs is below `2^{−53}` per draw
///   (only a uniform draw of exactly `0.0` distinguishes ratio
///   `MIN_POSITIVE` from ratio `0`).
///
/// Whenever `base.powi(e)` is itself positive, finite, and normal — every
/// bias any experiment in this repository uses — the entry equals `powi`
/// **bit for bit**, so kernels switching from `powi` to table lookups stay
/// bit-identical to the [`PowerRatio`] oracle. The property tests pin this
/// across the full exponent range for audit-valid configurations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerTable {
    base: f64,
    pow: [f64; POWER_TABLE_LEN],
}

impl PowerTable {
    /// Precomputes the power table for `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not strictly positive and finite (the same
    /// contract as [`PowerRatio::new`]; the paper requires `λ, γ > 0`).
    #[must_use]
    pub fn new(base: f64) -> Self {
        assert!(
            base > 0.0 && base.is_finite(),
            "bias parameter must be positive and finite, got {base}"
        );
        let mut pow = [1.0; POWER_TABLE_LEN];
        let mut e = -POWER_TABLE_EXPONENT_MAX;
        while e <= POWER_TABLE_EXPONENT_MAX {
            let raw = base.powi(e);
            pow[(e + POWER_TABLE_EXPONENT_MAX) as usize] = raw.clamp(f64::MIN_POSITIVE, f64::MAX);
            e += 1;
        }
        PowerTable { base, pow }
    }

    /// `base^e`, with the exponent saturated into the covered range and the
    /// value clamped positive-finite (see the type-level docs).
    #[inline]
    #[must_use]
    pub fn pow(&self, e: i32) -> f64 {
        let i =
            e.clamp(-POWER_TABLE_EXPONENT_MAX, POWER_TABLE_EXPONENT_MAX) + POWER_TABLE_EXPONENT_MAX;
        self.pow[i as usize]
    }

    /// Whether `e` lies inside the exactly-tabulated exponent range (no
    /// exponent saturation applies).
    #[inline]
    #[must_use]
    pub fn covers(&self, e: i32) -> bool {
        (-POWER_TABLE_EXPONENT_MAX..=POWER_TABLE_EXPONENT_MAX).contains(&e)
    }

    /// Whether the entry for `e` equals `base.powi(e)` bit for bit — false
    /// exactly when the value clamp engaged (or `e` is outside the range).
    #[must_use]
    pub fn is_exact_at(&self, e: i32) -> bool {
        self.covers(e) && self.pow(e).to_bits() == self.base.powi(e).to_bits()
    }

    /// Audits the table: every entry must be positive, finite, and the
    /// entry at exponent 0 must be exactly 1. A violation can only mean
    /// memory corruption (construction establishes all three), so this is
    /// the power-table analogue of `Configuration::audit`.
    ///
    /// # Errors
    ///
    /// Returns the first offending `(exponent, value)` pair.
    pub fn audit(&self) -> Result<(), (i32, f64)> {
        for e in -POWER_TABLE_EXPONENT_MAX..=POWER_TABLE_EXPONENT_MAX {
            let v = self.pow(e);
            if !(v.is_finite() && v > 0.0) {
                return Err((e, v));
            }
        }
        if self.pow(0) != 1.0 {
            return Err((0, self.pow(0)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ratio_ge_one_always_accepts() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(accept(1.0, &mut rng));
            assert!(accept(7.3, &mut rng));
        }
    }

    #[test]
    fn zero_ratio_never_accepts() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(!accept(0.0, &mut rng));
        }
    }

    #[test]
    fn acceptance_frequency_matches_ratio() {
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| accept(0.3, &mut rng)).count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    fn power_ratio_value() {
        let r = PowerRatio::new([4.0, 2.0], [1, -2]);
        assert!((r.value() - 1.0).abs() < 1e-15);
        let r = PowerRatio::new([4.0, 4.0], [2, -1]);
        assert!((r.value() - 4.0).abs() < 1e-15);
    }

    #[test]
    fn certainly_accepts_detection() {
        // λ=4 ≥ 1 with positive exponent, γ=4 with zero exponent.
        assert!(PowerRatio::new([4.0, 4.0], [2, 0]).certainly_accepts());
        // Negative exponent on base > 1: not certain.
        assert!(!PowerRatio::new([4.0, 4.0], [2, -1]).certainly_accepts());
        // Base < 1 with negative exponent is a factor > 1: certain.
        assert!(PowerRatio::new([0.5], [-3]).certainly_accepts());
    }

    #[test]
    fn power_ratio_filter_matches_plain_filter_statistically() {
        let mut rng = StdRng::seed_from_u64(7);
        let r = PowerRatio::new([2.0], [-2]); // ratio 0.25
        let trials = 200_000;
        let hits = (0..trials).filter(|_| r.accept(&mut rng)).count();
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_base_panics() {
        let _ = PowerRatio::new([0.0], [1]);
    }

    #[test]
    fn power_table_matches_powi_bit_for_bit_on_chain_biases() {
        // Every bias any experiment sweep uses keeps powi normal across
        // the full tabulated range, so entries must be exact.
        for base in [0.25, 0.5, 0.6, 0.8, 1.0, 1.5, 2.0, 4.0, 6.0, 10.0] {
            let t = PowerTable::new(base);
            t.audit().unwrap();
            for e in -POWER_TABLE_EXPONENT_MAX..=POWER_TABLE_EXPONENT_MAX {
                assert!(t.is_exact_at(e), "base {base} exponent {e} inexact");
                assert_eq!(
                    t.pow(e).to_bits(),
                    base.powi(e).to_bits(),
                    "base {base} exponent {e}"
                );
            }
        }
    }

    #[test]
    fn power_table_exponent_saturates_outside_range() {
        let t = PowerTable::new(2.0);
        assert_eq!(t.pow(100), t.pow(POWER_TABLE_EXPONENT_MAX));
        assert_eq!(t.pow(-100), t.pow(-POWER_TABLE_EXPONENT_MAX));
        assert_eq!(t.pow(i32::MAX), t.pow(POWER_TABLE_EXPONENT_MAX));
        assert_eq!(t.pow(i32::MIN), t.pow(-POWER_TABLE_EXPONENT_MAX));
        assert!(t.covers(POWER_TABLE_EXPONENT_MAX));
        assert!(!t.covers(POWER_TABLE_EXPONENT_MAX + 1));
    }

    #[test]
    fn power_table_value_clamp_keeps_entries_positive_finite() {
        // Extreme bases where powi itself leaves normal range within ±12.
        let tiny = PowerTable::new(f64::MIN_POSITIVE); // powi(2) underflows to 0
        let huge = PowerTable::new(f64::MAX); // powi(2) overflows to inf
        tiny.audit().unwrap();
        huge.audit().unwrap();
        assert_eq!(tiny.pow(2), f64::MIN_POSITIVE);
        assert_eq!(huge.pow(2), f64::MAX);
        assert!(!tiny.is_exact_at(2));
        assert!(!huge.is_exact_at(2));
        // Reciprocal directions stay representable and exact.
        assert!(huge.pow(-1) > 0.0 && huge.pow(-1).is_finite());
        for t in [tiny, huge] {
            for e in -POWER_TABLE_EXPONENT_MAX..=POWER_TABLE_EXPONENT_MAX {
                let v = t.pow(e);
                assert!(v > 0.0 && v.is_finite(), "base {} e {e} → {v}", t.base);
            }
        }
    }

    #[test]
    fn power_table_product_matches_power_ratio_value() {
        // The kernels compute λ^a·γ^b as t_λ.pow(a) * t_γ.pow(b); pin that
        // this is bit-identical to PowerRatio::value()'s fold.
        let (lambda, gamma) = (4.0, 4.0);
        let (tl, tg) = (PowerTable::new(lambda), PowerTable::new(gamma));
        for a in -5..=5 {
            for b in -5..=5 {
                let via_table = tl.pow(a) * tg.pow(b);
                let via_ratio = PowerRatio::new([lambda, gamma], [a, b]).value();
                assert_eq!(via_table.to_bits(), via_ratio.to_bits(), "a={a} b={b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn power_table_rejects_nonpositive_base() {
        let _ = PowerTable::new(0.0);
    }
}
