//! [`ResourceBudget`] — the explicit resource envelope a job runs under.

use std::time::Duration;

use crate::error::ConfigError;

/// The resource envelope one sweep job executes within.
///
/// Every bound is enforced at safe points (chunk boundaries, attempt
/// boundaries, checkpoint-I/O boundaries) and trips *deterministically
/// gracefully*: the job ends [`crate::CellStatus::Degraded`] with a valid
/// durable checkpoint rather than being killed mid-state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceBudget {
    /// Wall-clock deadline for the whole job (attempts + backoff
    /// included), measured from the moment [`crate::Runtime::run_cells`]
    /// starts. `None` means unbounded.
    pub deadline: Option<Duration>,
    /// Hard cap on chain steps a job may execute via [`crate::run_chain`];
    /// requests beyond it are clamped and the job ends
    /// [`crate::DegradeReason::StepBudgetExhausted`]. `None` means
    /// unbounded.
    pub max_steps: Option<u64>,
    /// Extra attempts after a cell's first failure.
    pub max_retries: u32,
    /// Maximum rollbacks the recovery ladder may take per supervised run
    /// before it gives up.
    pub max_rollbacks: u32,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            deadline: None,
            max_steps: None,
            max_retries: 1,
            max_rollbacks: 3,
        }
    }
}

impl ResourceBudget {
    /// Clamps a requested step count to the step cap.
    #[must_use]
    pub fn clamp_steps(&self, requested: u64) -> u64 {
        self.max_steps.map_or(requested, |m| requested.min(m))
    }

    /// Whether `elapsed` wall-clock time has exhausted the deadline.
    #[must_use]
    pub fn deadline_exceeded(&self, elapsed: Duration) -> bool {
        self.deadline.is_some_and(|d| elapsed >= d)
    }

    /// How many checkpoint snapshots a cell retains: `default_retain`,
    /// but at least 1 — resumability is never traded away entirely.
    /// The benchmark's chain workloads call this; nothing else does.
    #[must_use]
    pub fn checkpoint_retention(&self, default_retain: usize) -> usize {
        default_retain.max(1)
    }

    /// Rejects nonsensical budgets that would otherwise pass through
    /// silently and waste a whole run: a zero deadline (every job
    /// degrades before its first step) and retries with the rollback
    /// ladder disabled (every retry replays into the same failure).
    ///
    /// Called by [`crate::SweepOptions::try_parse`] so bins reject these
    /// at flag-parse time; programmatic construction stays unvalidated
    /// because tests legitimately use degenerate budgets (e.g. a zero
    /// deadline to prove the trip path).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the budget violates.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroDeadline);
        }
        if self.max_retries > 0 && self.max_rollbacks == 0 {
            return Err(ConfigError::RetriesWithoutRollbacks {
                retries: self.max_retries,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unbounded_except_retries_and_rollbacks() {
        let b = ResourceBudget::default();
        assert_eq!(b.deadline, None);
        assert_eq!(b.max_steps, None);
        assert_eq!(b.max_retries, 1);
        assert_eq!(b.max_rollbacks, 3);
        assert_eq!(b.clamp_steps(u64::MAX), u64::MAX);
        assert!(!b.deadline_exceeded(Duration::from_secs(3600)));
    }

    #[test]
    fn step_cap_clamps_requests() {
        let b = ResourceBudget {
            max_steps: Some(5_000),
            ..ResourceBudget::default()
        };
        assert_eq!(b.clamp_steps(1_000), 1_000);
        assert_eq!(b.clamp_steps(50_000), 5_000);
    }

    #[test]
    fn validate_rejects_each_nonsensical_budget() {
        assert_eq!(
            ResourceBudget {
                deadline: Some(Duration::ZERO),
                ..ResourceBudget::default()
            }
            .validate(),
            Err(ConfigError::ZeroDeadline)
        );
        assert_eq!(
            ResourceBudget {
                max_retries: 2,
                max_rollbacks: 0,
                ..ResourceBudget::default()
            }
            .validate(),
            Err(ConfigError::RetriesWithoutRollbacks { retries: 2 })
        );
        // Zero retries with zero rollbacks is a legitimate fail-fast
        // configuration.
        assert_eq!(
            ResourceBudget {
                max_retries: 0,
                max_rollbacks: 0,
                ..ResourceBudget::default()
            }
            .validate(),
            Ok(())
        );
        assert_eq!(ResourceBudget::default().validate(), Ok(()));
    }

    #[test]
    fn deadline_trips_at_the_boundary() {
        let b = ResourceBudget {
            deadline: Some(Duration::from_millis(100)),
            ..ResourceBudget::default()
        };
        assert!(!b.deadline_exceeded(Duration::from_millis(99)));
        assert!(b.deadline_exceeded(Duration::from_millis(100)));
    }
}
