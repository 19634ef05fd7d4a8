//! The typed failure taxonomy: [`JobError`] for terminal failures,
//! [`DegradeReason`] for budget-driven graceful degradation.

use std::fmt;

use sops_chains::telemetry::json_escape;
use sops_chains::CheckpointError;

/// Why a job was degraded rather than completed.
///
/// Degradation is the *deterministic, graceful* end of a job whose budget
/// tripped: the job stops at a chunk boundary with a valid durable
/// checkpoint and a partial result, rather than wedging or dying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock deadline of the [`crate::ResourceBudget`] elapsed.
    DeadlineExceeded,
    /// The step cap of the [`crate::ResourceBudget`] was reached before
    /// the requested work finished.
    StepBudgetExhausted,
    /// The caller cancelled via a [`crate::CancelToken`].
    ExternalCancel,
}

impl DegradeReason {
    /// The stable machine-readable code serialized into cells reports.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            DegradeReason::DeadlineExceeded => "deadline_exceeded",
            DegradeReason::StepBudgetExhausted => "step_budget_exhausted",
            DegradeReason::ExternalCancel => "external_cancel",
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A typed terminal failure of one sweep cell.
///
/// Replaces the earlier stringly error channel: each variant carries a
/// stable [`JobError::kind`] code plus the structured context that used to
/// be flattened into a message, so cells reports are machine-checkable.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum JobError {
    /// The cell's work function panicked (caught by the runtime's
    /// per-job `catch_unwind`; the panic never crosses the cell).
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Storage or filesystem failure (checkpoint I/O, telemetry sink).
    Io {
        /// The rendered I/O error.
        message: String,
    },
    /// A checkpoint failed validation when it was loaded directly.
    CorruptCheckpoint {
        /// The offending snapshot path.
        path: String,
        /// What failed to validate.
        reason: String,
    },
    /// The state failed an invariant audit that repair could not fix,
    /// in a job with no checkpoint store to roll back to.
    AuditFailed {
        /// Step count at which the audit fired.
        step: u64,
        /// Human-readable invariant violations.
        violations: Vec<String>,
    },
    /// The supervised ladder ran out of rollback budget: repair failed
    /// and more than `max_rollbacks` rollbacks were needed.
    RollbackBudgetExhausted {
        /// Step count at which the final audit fired.
        step: u64,
        /// The violations that exhausted the ladder.
        violations: Vec<String>,
    },
    /// The job was cancelled and produced no result at all. (A cancelled
    /// job that *did* produce a partial result reports
    /// [`crate::CellStatus::Degraded`] with a value instead.)
    Cancelled {
        /// Why the cancellation happened.
        reason: DegradeReason,
        /// Step count reached when the cancellation was observed.
        step: u64,
    },
    /// An application-level failure reported by the cell itself.
    App {
        /// The cell's error message.
        message: String,
    },
}

impl JobError {
    /// An application-level error from a message.
    pub fn app(message: impl Into<String>) -> Self {
        JobError::App {
            message: message.into(),
        }
    }

    /// The stable machine-readable code serialized into cells reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panic { .. } => "panic",
            JobError::Io { .. } => "io",
            JobError::CorruptCheckpoint { .. } => "corrupt_checkpoint",
            JobError::AuditFailed { .. } => "audit_failed",
            JobError::RollbackBudgetExhausted { .. } => "rollback_budget_exhausted",
            JobError::Cancelled { .. } => "cancelled",
            JobError::App { .. } => "app",
        }
    }

    /// Renders the error as a JSON object `{"kind": ..., "message": ...}`
    /// (plus a `"step"` field where one applies) for the cells report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let step = match self {
            JobError::AuditFailed { step, .. }
            | JobError::RollbackBudgetExhausted { step, .. }
            | JobError::Cancelled { step, .. } => Some(*step),
            _ => None,
        };
        let mut out = format!(
            "{{\"kind\": \"{}\", \"message\": \"{}\"",
            self.kind(),
            json_escape(&self.to_string())
        );
        if let Some(step) = step {
            out.push_str(&format!(", \"step\": {step}"));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panic { message } => write!(f, "panic: {message}"),
            JobError::Io { message } => write!(f, "I/O error: {message}"),
            JobError::CorruptCheckpoint { path, reason } => {
                write!(f, "corrupt checkpoint {path}: {reason}")
            }
            JobError::AuditFailed { step, violations } => write!(
                f,
                "invariant audit failed at step {step}: {}",
                violations.join("; ")
            ),
            JobError::RollbackBudgetExhausted { step, violations } => write!(
                f,
                "rollback budget exhausted at step {step}: {}",
                violations.join("; ")
            ),
            JobError::Cancelled { reason, step } => {
                write!(f, "cancelled ({reason}) at step {step}")
            }
            JobError::App { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for JobError {}

/// A rejected configuration: a flag value or combination that would make
/// a run silently meaningless (zero budgets, retries that can never
/// replay).
///
/// Returned by `crate::SweepOptions::try_parse` and
/// `crate::ResourceBudget::validate` so bins fail loudly at parse time
/// instead of spending hours on a run that was never viable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `--deadline-ms 0`: a zero wall-clock deadline degrades every job
    /// before its first step.
    ZeroDeadline,
    /// `--retries N` (N > 0) combined with `--max-rollbacks 0`: retries
    /// replay through the rollback ladder, so disabling rollbacks makes
    /// every retry fail identically.
    RetriesWithoutRollbacks {
        /// The configured retry count.
        retries: u32,
    },
    /// A flag was given with no value following it.
    MissingValue {
        /// The flag name as typed.
        flag: String,
    },
    /// A flag value failed to parse.
    InvalidValue {
        /// The flag name as typed.
        flag: String,
        /// The offending value.
        value: String,
    },
}

impl ConfigError {
    /// The stable machine-readable code.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ConfigError::ZeroDeadline => "zero_deadline",
            ConfigError::RetriesWithoutRollbacks { .. } => "retries_without_rollbacks",
            ConfigError::MissingValue { .. } => "missing_value",
            ConfigError::InvalidValue { .. } => "invalid_value",
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroDeadline => {
                f.write_str("--deadline-ms 0 would degrade every job before its first step")
            }
            ConfigError::RetriesWithoutRollbacks { retries } => write!(
                f,
                "--retries {retries} with --max-rollbacks 0 can never make progress: \
                 retries replay through the rollback ladder"
            ),
            ConfigError::MissingValue { flag } => write!(f, "flag {flag} expects a value"),
            ConfigError::InvalidValue { flag, value } => {
                write!(f, "invalid value for {flag}: {value:?}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<String> for JobError {
    fn from(message: String) -> Self {
        JobError::App { message }
    }
}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> Self {
        JobError::Io {
            message: e.to_string(),
        }
    }
}

impl From<CheckpointError> for JobError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => JobError::Io {
                message: e.to_string(),
            },
            CheckpointError::Corrupt { path, reason } => JobError::CorruptCheckpoint {
                path: path.display().to_string(),
                reason,
            },
            CheckpointError::AuditFailed { step, violations } => {
                // The supervised runner only surfaces AuditFailed once its
                // rollback ladder is spent, so that is what the code says.
                JobError::RollbackBudgetExhausted { step, violations }
            }
            // The chunk loop never returns Cancelled (it ends the run with
            // `completed: false`), so this is a caller's own I/O on a
            // cancel-wired store, at a step unknown here.
            CheckpointError::Cancelled => JobError::Cancelled {
                reason: DegradeReason::ExternalCancel,
                step: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_codes_are_stable() {
        assert_eq!(JobError::app("x").kind(), "app");
        assert_eq!(
            JobError::Panic {
                message: "boom".into()
            }
            .kind(),
            "panic"
        );
        assert_eq!(DegradeReason::DeadlineExceeded.code(), "deadline_exceeded");
        assert_eq!(
            DegradeReason::StepBudgetExhausted.code(),
            "step_budget_exhausted"
        );
    }

    #[test]
    fn json_rendering_escapes_and_carries_step() {
        let e = JobError::Cancelled {
            reason: DegradeReason::DeadlineExceeded,
            step: 4_000,
        };
        let json = e.to_json();
        assert!(json.contains("\"kind\": \"cancelled\""));
        assert!(json.contains("\"step\": 4000"));
        let e = JobError::app("say \"hi\"");
        assert!(e.to_json().contains("say \\\"hi\\\""));
    }

    #[test]
    fn checkpoint_errors_map_to_typed_variants() {
        let e: JobError = CheckpointError::AuditFailed {
            step: 7,
            violations: vec!["drift".into()],
        }
        .into();
        assert!(matches!(
            e,
            JobError::RollbackBudgetExhausted { step: 7, .. }
        ));
        let e: JobError = CheckpointError::Io(std::io::Error::other("disk on fire")).into();
        assert_eq!(e.kind(), "io");
        assert!(e.to_string().contains("disk on fire"));
    }
}
