//! Property tests for [`PowerTable`] (satellite: power-table
//! underflow/overflow semantics).
//!
//! The kernels replace `powi` with table lookups on the accept path, so the
//! contract under test is:
//!
//! 1. for any bias an `audit()`-valid configuration can carry (strictly
//!    positive, finite — `Bias::new`'s domain), every tabulated exponent
//!    either matches `powi` **bit for bit** or `powi` itself left
//!    positive-normal range and the entry is the documented clamp;
//! 2. entries are always positive and finite, whatever the base;
//! 3. the `λ^a·γ^b` product computed from two tables is bit-identical to
//!    `PowerRatio::value()` for in-range exponents.

use proptest::prelude::*;
use sops_chains::metropolis::PowerRatio;
use sops_chains::{PowerTable, POWER_TABLE_EXPONENT_MAX};

/// Biases the experiment sweeps actually use: λ, γ ∈ (0.1, 16]. Within this
/// domain `powi` stays normal over the whole ±12 range, so lookups must be
/// exact.
fn sweep_bias() -> impl Strategy<Value = f64> {
    (0.1f64..16.0).prop_map(|b| b.max(0.100_000_001))
}

/// The full `Bias::new` domain, including extremes where `powi`
/// under/overflows inside the tabulated range.
fn any_bias() -> impl Strategy<Value = f64> {
    (-280.0f64..280.0).prop_map(f64::exp2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exactness on the sweep domain: lookup ≡ powi, bit for bit, across
    /// the entire tabulated exponent range.
    #[test]
    fn table_matches_powi_on_sweep_biases(base in sweep_bias()) {
        let t = PowerTable::new(base);
        prop_assert!(t.audit().is_ok());
        for e in -POWER_TABLE_EXPONENT_MAX..=POWER_TABLE_EXPONENT_MAX {
            prop_assert!(t.is_exact_at(e), "base {base} e {e}");
            prop_assert_eq!(t.pow(e).to_bits(), base.powi(e).to_bits());
        }
    }

    /// Totality on the full bias domain: every entry positive and finite,
    /// and inexact entries occur only where powi itself left
    /// positive-normal range (the documented clamp condition).
    #[test]
    fn table_entries_positive_finite_for_any_bias(base in any_bias()) {
        let t = PowerTable::new(base);
        prop_assert!(t.audit().is_ok());
        for e in -POWER_TABLE_EXPONENT_MAX..=POWER_TABLE_EXPONENT_MAX {
            let v = t.pow(e);
            prop_assert!(v > 0.0 && v.is_finite(), "base {base} e {e} → {v}");
            let raw = base.powi(e);
            if raw.is_finite() && raw >= f64::MIN_POSITIVE {
                prop_assert_eq!(v.to_bits(), raw.to_bits(), "base {base} e {e}");
            } else {
                prop_assert!(!t.is_exact_at(e), "base {base} e {e}");
                prop_assert_eq!(
                    v,
                    raw.clamp(f64::MIN_POSITIVE, f64::MAX),
                    "base {base} e {e}"
                );
            }
        }
    }

    /// Two-table product ≡ PowerRatio::value() over the move/swap exponent
    /// envelope (|move exponents| ≤ 5, |swap γ exponent| ≤ 10).
    #[test]
    fn table_product_matches_ratio_value(
        lambda in sweep_bias(),
        gamma in sweep_bias(),
        a in -5i32..6,
        b in -10i32..11,
    ) {
        let (tl, tg) = (PowerTable::new(lambda), PowerTable::new(gamma));
        let via_table = tl.pow(a) * tg.pow(b);
        let via_ratio = PowerRatio::new([lambda, gamma], [a, b]).value();
        prop_assert_eq!(via_table.to_bits(), via_ratio.to_bits());
    }
}
