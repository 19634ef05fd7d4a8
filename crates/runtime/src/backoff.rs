//! Retry backoff: exponential in the attempt number with deterministic
//! jitter, so a batch of simultaneously failing cells does not retry in
//! lockstep yet every schedule is reproducible (the jitter comes from the
//! vendored RNG seeded by `(cell, attempt)`, never from the wall clock).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::seeds::seed_hash;

/// The retry-delay policy. See the module docs.
///
/// Guarantees, property-tested in `tests/backoff_props.rs`:
///
/// * delays are monotone non-decreasing in the attempt number until they
///   pin at [`BackoffPolicy::CAP_MS`];
/// * every delay (jitter included) is ≤ [`BackoffPolicy::CAP_MS`];
/// * the delay is a pure function of `(policy, cell, attempt)`.
///
/// The runner keeps the sleeps inside a job's deadline itself: it
/// degrades the cell instead of sleeping past it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in milliseconds; doubles per attempt.
    /// 0 disables backoff entirely (used by fast tests).
    pub base_ms: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_ms: 200 }
    }
}

impl BackoffPolicy {
    /// Upper bound on any single delay, jitter included, in milliseconds.
    pub const CAP_MS: u64 = 10_000;

    /// The jitter-free exponential envelope for `attempt`:
    /// `min(base · 2^(attempt−2), cap)`, saturating instead of wrapping.
    ///
    /// An earlier version froze the doubling at 2^16, which made the
    /// envelope — and with jitter, the delay — non-monotone below large
    /// caps; the saturating form keeps doubling until the cap pins it.
    fn envelope(&self, attempt: u32) -> u64 {
        debug_assert!(attempt >= 2);
        let doublings = attempt - 2;
        let factor = if doublings >= 63 {
            u64::MAX
        } else {
            1u64 << doublings
        };
        self.base_ms.saturating_mul(factor).min(Self::CAP_MS)
    }

    /// The delay to wait before `attempt` (attempts are 1-based; the
    /// first retry is attempt 2). Pure function of `(self, cell,
    /// attempt)` — tests assert on it without sleeping.
    #[must_use]
    pub fn delay(&self, cell: &str, attempt: u32) -> Duration {
        if self.base_ms == 0 || attempt <= 1 {
            return Duration::ZERO;
        }
        let exp = self.envelope(attempt);
        // Jitter in [0, exp/2), deterministic per (cell, attempt).
        let mut rng =
            StdRng::seed_from_u64(seed_hash(cell, u64::from(attempt)) ^ 0x9e37_79b9_7f4a_7c15);
        let jitter = if exp >= 2 {
            rng.random_range(0..exp / 2)
        } else {
            0
        };
        Duration::from_millis(exp.saturating_add(jitter).min(Self::CAP_MS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_bounded_and_deterministic() {
        let policy = BackoffPolicy { base_ms: 100 };
        // No delay before the first attempt.
        assert_eq!(policy.delay("cell", 1), Duration::ZERO);
        let d2 = policy.delay("cell", 2);
        let d3 = policy.delay("cell", 3);
        let d9 = policy.delay("cell", 9);
        // Exponential envelope: delay(k) ∈ [base·2^(k−2), 1.5·base·2^(k−2)].
        assert!(
            d2 >= Duration::from_millis(100) && d2 < Duration::from_millis(150),
            "{d2:?}"
        );
        assert!(
            d3 >= Duration::from_millis(200) && d3 < Duration::from_millis(300),
            "{d3:?}"
        );
        // The cap bounds everything, jitter included: 100 · 2^7 ms is
        // past it.
        assert_eq!(d9, Duration::from_millis(BackoffPolicy::CAP_MS));
        // Deterministic: same (cell, attempt) → same delay, no wall-clock.
        assert_eq!(d2, policy.delay("cell", 2));
        // Different cells jitter differently (checked below the cap,
        // where the jitter is visible; this fixed pair is known to
        // differ).
        assert_ne!(policy.delay("gamma=2.0", 3), policy.delay("gamma=4.0", 3));
        // Disabled policy never sleeps.
        let off = BackoffPolicy { base_ms: 0 };
        assert_eq!(off.delay("cell", 7), Duration::ZERO);
    }

    #[test]
    fn deep_attempts_stay_monotone_and_pin_at_the_cap() {
        // Past 63 doublings the factor saturates instead of wrapping, so
        // the smallest base climbs to the cap and stays there.
        let policy = BackoffPolicy { base_ms: 1 };
        let mut prev = Duration::ZERO;
        for attempt in 2..80 {
            let d = policy.delay("deep", attempt);
            assert!(d >= prev, "attempt {attempt}: {d:?} < {prev:?}");
            prev = d;
        }
        assert_eq!(prev, Duration::from_millis(BackoffPolicy::CAP_MS));
        let huge = BackoffPolicy { base_ms: u64::MAX };
        assert_eq!(
            huge.delay("deep", 79),
            Duration::from_millis(BackoffPolicy::CAP_MS)
        );
    }
}
