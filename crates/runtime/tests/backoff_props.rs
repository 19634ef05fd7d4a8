//! Property tests for [`BackoffPolicy`] (satellite: retry-backoff
//! guarantees).
//!
//! The policy promises two things the runtime leans on:
//!
//! 1. delays are monotone non-decreasing in the attempt number until they
//!    pin at the cap — a retry never waits *less* than the previous one;
//! 2. the delay is a pure function of `(policy, cell, attempt)` — jitter
//!    is deterministic, never wall-clock-derived, so resumed sweeps
//!    reproduce their retry schedules exactly.
//!
//! That no retry sleeps past the job deadline is the runner's own check,
//! covered by its `retries_never_sleep_past_the_deadline` unit test.

use std::time::Duration;

use proptest::prelude::*;
use sops_runtime::BackoffPolicy;

fn policy_strategy() -> impl Strategy<Value = BackoffPolicy> {
    (1u64..5_000).prop_map(|base_ms| BackoffPolicy { base_ms })
}

fn cell_strategy() -> impl Strategy<Value = String> {
    // The vendored proptest shim has no regex strategies; sample realistic
    // sweep-cell labels from a pool plus a numeric suffix instead.
    const STEMS: [&str; 6] = ["gamma", "n", "swaps", "fig1", "mixing", "cell"];
    (0usize..STEMS.len(), 0u32..1_000)
        .prop_map(|(stem, suffix)| format!("{}={}", STEMS[stem], suffix))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Delays never shrink as the attempt number grows, and once a delay
    /// reaches the cap every later delay equals the cap exactly.
    #[test]
    fn delays_are_monotone_until_pinned_at_cap(
        policy in policy_strategy(),
        cell in cell_strategy(),
        attempts in 4u32..40,
    ) {
        let mut prev = Duration::ZERO;
        let cap = Duration::from_millis(BackoffPolicy::CAP_MS);
        for attempt in 1..=attempts {
            let d = policy.delay(&cell, attempt);
            prop_assert!(
                d >= prev,
                "attempt {}: {:?} < {:?} under {:?}", attempt, d, prev, policy
            );
            // Once a delay reaches the cap, every later one equals it.
            if prev == cap {
                prop_assert_eq!(d, cap);
            }
            prev = d;
        }
    }

    /// Every delay, jitter included, respects the cap; attempt 1 (the
    /// first try, not a retry) never waits at all.
    #[test]
    fn every_delay_respects_the_cap(
        policy in policy_strategy(),
        cell in cell_strategy(),
        attempt in 1u32..64,
    ) {
        prop_assert_eq!(policy.delay(&cell, 1), Duration::ZERO);
        prop_assert!(policy.delay(&cell, attempt) <= Duration::from_millis(BackoffPolicy::CAP_MS));
    }

    /// The delay is a pure function of `(policy, cell, attempt)`:
    /// recomputing it — including from a rebuilt policy value — yields the
    /// identical duration, and a zero base disables backoff entirely.
    #[test]
    fn jitter_is_deterministic_per_cell_and_attempt(
        policy in policy_strategy(),
        cell in cell_strategy(),
        attempt in 2u32..32,
    ) {
        let d = policy.delay(&cell, attempt);
        prop_assert_eq!(d, policy.delay(&cell, attempt));
        let rebuilt = BackoffPolicy { base_ms: policy.base_ms };
        prop_assert_eq!(d, rebuilt.delay(&cell, attempt));
        let off = BackoffPolicy { base_ms: 0 };
        prop_assert_eq!(off.delay(&cell, attempt), Duration::ZERO);
    }
}
