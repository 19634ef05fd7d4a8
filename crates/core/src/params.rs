//! Bias parameters and the paper's proven thresholds.

use core::fmt;

use crate::ConfigError;

/// The bias parameters `(λ, γ)` of the separation chain.
///
/// * `λ > 1` biases particles toward having more neighbors (compression);
/// * `γ > 1` biases particles toward having more neighbors *of their own
///   color* (separation).
///
/// Both must be strictly positive. The interesting regimes proven in the
/// paper are summarized in [`thresholds`].
///
/// # Example
///
/// ```
/// use sops_core::{thresholds, Bias};
///
/// let bias = Bias::new(4.0, 4.0)?;
/// // λγ = 16 clears the compression threshold ≈ 6.83, but γ = 4 < 4^{5/4}
/// // sits outside the *proven* separation regime (simulations separate anyway).
/// assert!(!thresholds::separation_theorem_applies(bias));
/// # Ok::<(), sops_core::ConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bias {
    lambda: f64,
    gamma: f64,
}

impl Bias {
    /// Creates bias parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidBias`] if either parameter is not a
    /// strictly positive finite number.
    pub fn new(lambda: f64, gamma: f64) -> Result<Self, ConfigError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(ConfigError::InvalidBias {
                name: "lambda",
                value: lambda,
            });
        }
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(ConfigError::InvalidBias {
                name: "gamma",
                value: gamma,
            });
        }
        Ok(Bias { lambda, gamma })
    }

    /// The compression bias `λ`.
    #[inline]
    #[must_use]
    pub const fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The same-color bias `γ`.
    #[inline]
    #[must_use]
    pub const fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl fmt::Display for Bias {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ = {}, γ = {}", self.lambda, self.gamma)
    }
}

/// The quantitative thresholds proven in the paper (Theorems 13–16).
///
/// These are the *proven* bounds; §3.2 observes that simulations achieve
/// separation for considerably milder parameters (e.g. `λ = γ = 4`), so the
/// bounds are not believed tight.
pub mod thresholds {
    use super::Bias;

    /// `4^{5/4} ≈ 5.657`: Theorem 13 requires `γ` above this for the
    /// loop-polymer cluster expansion to converge.
    pub const GAMMA_SEPARATION: f64 = 5.656_854_249_492_381;

    /// `2(2 + √2)·e^{0.0003} ≈ 6.830`: the compression threshold on `λγ`
    /// (Theorem 13) and on `λ(γ + 1)` (Theorem 15).
    pub const COMPRESSION_PRODUCT: f64 = 6.830_475_960_193_564_5;

    /// Lower end of the integration window, `79/81` (Theorems 15–16).
    pub const GAMMA_INTEGRATION_LO: f64 = 79.0 / 81.0;

    /// Upper end of the integration window, `81/79` (Theorems 15–16).
    pub const GAMMA_INTEGRATION_HI: f64 = 81.0 / 79.0;

    /// Whether `(λ, γ)` lies in the regime where Theorems 13 + 14 prove
    /// compression and `(β, δ)`-separation w.h.p.: `λ > 1`, `γ > 4^{5/4}`,
    /// and `λγ > 2(2 + √2)e^{0.0003}`.
    #[must_use]
    pub fn separation_theorem_applies(bias: Bias) -> bool {
        bias.lambda() > 1.0
            && bias.gamma() > GAMMA_SEPARATION
            && bias.lambda() * bias.gamma() > COMPRESSION_PRODUCT
    }

    /// Whether `(λ, γ)` lies in the regime where Theorems 15 + 16 prove
    /// compression but *no* separation (integration) w.h.p.: `λ > 1`,
    /// `γ ∈ (79/81, 81/79)`, and `λ(γ + 1) > 2(2 + √2)e^{0.0003}`.
    #[must_use]
    pub fn integration_theorem_applies(bias: Bias) -> bool {
        bias.lambda() > 1.0
            && bias.gamma() > GAMMA_INTEGRATION_LO
            && bias.gamma() < GAMMA_INTEGRATION_HI
            && bias.lambda() * (bias.gamma() + 1.0) > COMPRESSION_PRODUCT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_nonpositive_and_nonfinite_parameters() {
        assert!(Bias::new(0.0, 1.0).is_err());
        assert!(Bias::new(1.0, -2.0).is_err());
        assert!(Bias::new(f64::NAN, 1.0).is_err());
        assert!(Bias::new(1.0, f64::INFINITY).is_err());
        assert!(Bias::new(0.5, 0.5).is_ok());
    }

    #[test]
    fn threshold_constants_match_closed_forms() {
        assert!((thresholds::GAMMA_SEPARATION - 4.0_f64.powf(1.25)).abs() < 1e-12);
        let expect = 2.0 * (2.0 + 2.0_f64.sqrt()) * (0.0003_f64).exp();
        assert!((thresholds::COMPRESSION_PRODUCT - expect).abs() < 1e-12);
        let (lo, hi) = (
            thresholds::GAMMA_INTEGRATION_LO,
            thresholds::GAMMA_INTEGRATION_HI,
        );
        assert!(lo < 1.0 && hi > 1.0 && (lo * hi - 1.0).abs() < 1e-15);
    }

    #[test]
    fn proven_separation_regime() {
        // γ = 6 > 4^{5/4}, λγ = 12 > 6.83.
        assert!(thresholds::separation_theorem_applies(
            Bias::new(2.0, 6.0).unwrap()
        ));
        // γ = 4 fails the γ bound even though λγ is large.
        assert!(!thresholds::separation_theorem_applies(
            Bias::new(10.0, 4.0).unwrap()
        ));
        // λγ too small.
        assert!(!thresholds::separation_theorem_applies(
            Bias::new(1.1, 5.7).unwrap()
        ));
    }

    #[test]
    fn proven_integration_regime() {
        // γ = 1 (inside window), λ(γ+1) = 8 > 6.83.
        assert!(thresholds::integration_theorem_applies(
            Bias::new(4.0, 1.0).unwrap()
        ));
        // Counterintuitive case from the abstract: γ slightly above 1 still integrates.
        assert!(thresholds::integration_theorem_applies(
            Bias::new(4.0, 1.01).unwrap()
        ));
        // γ outside the window.
        assert!(!thresholds::integration_theorem_applies(
            Bias::new(4.0, 1.5).unwrap()
        ));
        // λ(γ+1) too small.
        assert!(!thresholds::integration_theorem_applies(
            Bias::new(2.0, 1.0).unwrap()
        ));
    }

    #[test]
    fn regime_predicates() {
        let b = Bias::new(4.0, 0.5).unwrap();
        assert_eq!(b.to_string(), "λ = 4, γ = 0.5");
    }
}
