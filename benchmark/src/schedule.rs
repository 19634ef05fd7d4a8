//! Seeded open-loop arrival schedules and seed derivation.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};

/// One job arrival of an open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the job is due, in nanoseconds from the start of the window.
    pub due_ns: u64,
    /// Which tenant submits it.
    pub tenant: usize,
}

/// `count` arrivals of a Poisson process over `window_ns`, each assigned
/// uniformly to one of `tenants`. The gaps are exponential, rescaled so
/// the `count + 1` gaps fill the window exactly: a Poisson process
/// conditioned on its count, so every round offers exactly the stated
/// rate. The same seed always yields the same schedule.
#[must_use]
pub fn poisson(seed: u64, count: usize, tenants: usize, window_ns: u64) -> Vec<Arrival> {
    assert!(tenants > 0, "no tenant to submit");
    let mut rng = StdRng::seed_from_u64(seed);
    // 1 − u lies in (0, 1], so every gap is finite and non-negative.
    let gaps: Vec<f64> = (0..=count)
        .map(|_| -(1.0 - rng.random::<f64>()).ln())
        .collect();
    let scale = window_ns as f64 / gaps.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let mut t = 0.0;
    gaps[..count]
        .iter()
        .map(|gap| {
            t += gap * scale;
            Arrival {
                due_ns: (t as u64).min(window_ns.saturating_sub(1)),
                tenant: rng.random_range(0..tenants),
            }
        })
        .collect()
}

/// Derives an independent seed from a list of parts (SplitMix64 over
/// each part in turn), so every round, cell and job of a workload draws
/// from its own stream and the whole input set follows from one seed.
#[must_use]
pub fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x6a09_e667_f3bc_c909u64;
    for &p in parts {
        h ^= p;
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = z ^ (z >> 31);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(7, 1_600, 4, 2_000_000_000);
        assert_eq!(a, poisson(7, 1_600, 4, 2_000_000_000));
        assert_ne!(a, poisson(8, 1_600, 4, 2_000_000_000));
    }

    #[test]
    fn schedule_is_sorted_inside_window_with_exact_count() {
        let a = poisson(11, 8_000, 4, 10_000_000_000);
        assert_eq!(a.len(), 8_000);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.due_ns < 10_000_000_000 && x.tenant < 4));
        // Poisson gaps: the coefficient of variation of the gaps is ~1,
        // unlike an evenly spaced schedule's 0.
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].due_ns - w[0].due_ns) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.9..1.1).contains(&cv), "gap cv {cv}");
        assert!(poisson(3, 0, 4, 1_000).is_empty());
        for tenant in 0..4 {
            let share = a.iter().filter(|x| x.tenant == tenant).count() as f64 / a.len() as f64;
            assert!(
                (0.22..0.28).contains(&share),
                "tenant {tenant} share {share}"
            );
        }
    }

    #[test]
    fn mix_separates_parts() {
        assert_eq!(mix(&[1, 2]), mix(&[1, 2]));
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
        assert_ne!(mix(&[1]), mix(&[1, 0]));
    }
}
