//! Runtime events: the observable trace of supervision decisions.
//!
//! Every retry, repair, rollback, cancellation, and degradation a job goes
//! through becomes a [`RuntimeEvent`], collected on the job's
//! [`crate::JobContext`] and rendered both into the cells report and —
//! via [`RuntimeEvent::telemetry_line`] — into the per-cell JSONL
//! telemetry stream, so failures are observable, not just counted.

use crate::error::DegradeReason;
use sops_chains::telemetry::json_escape;
use sops_chains::RecoveryEvent;

/// One supervision decision taken while running a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeEvent {
    /// A failed attempt is about to be retried after a backoff delay.
    Retry {
        /// The attempt about to run (2 = first retry).
        attempt: u32,
        /// The backoff delay slept before it, in milliseconds.
        delay_ms: u64,
        /// The failure kind that triggered the retry.
        error_kind: &'static str,
    },
    /// The recovery ladder repaired the state in place.
    Repaired {
        /// Step count at which the audit fired.
        step: u64,
    },
    /// The recovery ladder rolled back to a durable checkpoint.
    RolledBack {
        /// Step count at which the audit fired.
        from_step: u64,
        /// Step count of the restored checkpoint.
        to_step: u64,
    },
    /// The job observed cancellation and exited at a safe point.
    Cancelled {
        /// Step count reached when cancellation was observed.
        step: u64,
    },
    /// The job ended degraded (budget trip or external cancel).
    Degraded {
        /// Why the job degraded.
        reason: DegradeReason,
        /// The newest durable checkpoint step, if any was persisted.
        last_durable_step: Option<u64>,
    },
    /// The convergence monitor latched a stop decision and the job ended
    /// early with its budget unspent.
    Converged {
        /// Step count at which the monitor's tests all held.
        step: u64,
        /// The monitor's diagnostics snapshot at decision time, pre-
        /// rendered as a JSON object (kept as a string so the event stays
        /// `Eq`-comparable despite carrying float estimates).
        diagnostics: String,
    },
    /// A job passed admission control and entered the service queue.
    Admitted {
        /// The submitting tenant.
        tenant: String,
        /// The session the job runs under.
        session: String,
        /// Queue depth immediately after admission (this job included).
        queue_depth: u64,
    },
    /// A job was refused admission with a typed reason.
    Rejected {
        /// The submitting tenant.
        tenant: String,
        /// The session the job would have run under.
        session: String,
        /// Stable rejection code: `queue_full`, `tenant_quota_exceeded`,
        /// `draining`, or `cancelled` (the submitter's cancel token fired
        /// while it was parked in a blocking submission).
        reason: &'static str,
    },
    /// A queued or in-flight job was evicted (drain, shutdown, or per-job
    /// cancel). Its session resumes from its durable checkpoints when
    /// resubmitted.
    Evicted {
        /// The session the job ran under.
        session: String,
        /// The newest durable checkpoint step, if any was persisted.
        last_durable_step: Option<u64>,
    },
    /// A session resumed from its last durable checkpoint.
    Resumed {
        /// The session that resumed.
        session: String,
        /// The checkpoint step it resumed from.
        from_step: u64,
    },
}

impl RuntimeEvent {
    /// The stable machine-readable event name.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RuntimeEvent::Retry { .. } => "retry",
            RuntimeEvent::Repaired { .. } => "repaired",
            RuntimeEvent::RolledBack { .. } => "rolled_back",
            RuntimeEvent::Cancelled { .. } => "cancelled",
            RuntimeEvent::Degraded { .. } => "degraded",
            RuntimeEvent::Converged { .. } => "converged",
            RuntimeEvent::Admitted { .. } => "admitted",
            RuntimeEvent::Rejected { .. } => "rejected",
            RuntimeEvent::Evicted { .. } => "evicted",
            RuntimeEvent::Resumed { .. } => "resumed",
        }
    }

    /// Renders the event as a bare JSON object (no trailing newline) for
    /// embedding in the cells report's per-cell `events` array.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            RuntimeEvent::Retry {
                attempt,
                delay_ms,
                error_kind,
            } => format!(
                "{{\"event\": \"retry\", \"attempt\": {attempt}, \"delay_ms\": {delay_ms}, \
                 \"error_kind\": \"{}\"}}",
                json_escape(error_kind)
            ),
            RuntimeEvent::Repaired { step } => {
                format!("{{\"event\": \"repaired\", \"step\": {step}}}")
            }
            RuntimeEvent::RolledBack { from_step, to_step } => format!(
                "{{\"event\": \"rolled_back\", \"from_step\": {from_step}, \
                 \"to_step\": {to_step}}}"
            ),
            RuntimeEvent::Cancelled { step } => {
                format!("{{\"event\": \"cancelled\", \"step\": {step}}}")
            }
            RuntimeEvent::Degraded {
                reason,
                last_durable_step,
            } => {
                let durable =
                    last_durable_step.map_or_else(|| "null".to_string(), |s| s.to_string());
                format!(
                    "{{\"event\": \"degraded\", \"reason\": \"{}\", \
                     \"last_durable_step\": {durable}}}",
                    reason.code()
                )
            }
            RuntimeEvent::Converged { step, diagnostics } => {
                // `diagnostics` is already a JSON object; embed it raw.
                format!("{{\"event\": \"converged\", \"step\": {step}, \"diagnostics\": {diagnostics}}}")
            }
            RuntimeEvent::Admitted {
                tenant,
                session,
                queue_depth,
            } => format!(
                "{{\"event\": \"admitted\", \"tenant\": \"{}\", \"session\": \"{}\", \
                 \"queue_depth\": {queue_depth}}}",
                json_escape(tenant),
                json_escape(session)
            ),
            RuntimeEvent::Rejected {
                tenant,
                session,
                reason,
            } => format!(
                "{{\"event\": \"rejected\", \"tenant\": \"{}\", \"session\": \"{}\", \
                 \"reason\": \"{}\"}}",
                json_escape(tenant),
                json_escape(session),
                json_escape(reason)
            ),
            RuntimeEvent::Evicted {
                session,
                last_durable_step,
            } => {
                let durable =
                    last_durable_step.map_or_else(|| "null".to_string(), |s| s.to_string());
                format!(
                    "{{\"event\": \"evicted\", \"session\": \"{}\", \
                     \"last_durable_step\": {durable}}}",
                    json_escape(session)
                )
            }
            RuntimeEvent::Resumed { session, from_step } => format!(
                "{{\"event\": \"resumed\", \"session\": \"{}\", \"from_step\": {from_step}}}",
                json_escape(session)
            ),
        }
    }

    /// Renders the event as a full JSONL telemetry record, in the same
    /// `{"kind": ...}` framing the metric sink uses.
    #[must_use]
    pub fn telemetry_line(&self) -> String {
        format!(
            "{{\"kind\": \"runtime_event\", \"payload\": {}}}",
            self.to_json()
        )
    }
}

/// The one mapping from a ladder rung of `sops-chains` to the event that
/// reports it, shared by sweep cells ([`crate::JobContext::absorb`]) and
/// service jobs. The repair actions and rollback violations stay on the
/// [`RecoveryEvent`]; the event carries the steps.
impl From<&RecoveryEvent> for RuntimeEvent {
    fn from(event: &RecoveryEvent) -> Self {
        match *event {
            RecoveryEvent::Repaired { step, .. } => RuntimeEvent::Repaired { step },
            RecoveryEvent::RolledBack {
                from_step, to_step, ..
            } => RuntimeEvent::RolledBack { from_step, to_step },
            RecoveryEvent::Cancelled { step } => RuntimeEvent::Cancelled { step },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_stable_json() {
        let e = RuntimeEvent::Retry {
            attempt: 2,
            delay_ms: 150,
            error_kind: "panic",
        };
        assert_eq!(
            e.to_json(),
            "{\"event\": \"retry\", \"attempt\": 2, \"delay_ms\": 150, \
             \"error_kind\": \"panic\"}"
        );
        let e = RuntimeEvent::Degraded {
            reason: DegradeReason::StepBudgetExhausted,
            last_durable_step: None,
        };
        assert!(e.to_json().contains("\"last_durable_step\": null"));
        let e = RuntimeEvent::Cancelled { step: 9 };
        assert_eq!(
            e.telemetry_line(),
            "{\"kind\": \"runtime_event\", \"payload\": {\"event\": \"cancelled\", \"step\": 9}}"
        );
        let e = RuntimeEvent::Converged {
            step: 50_000,
            diagnostics: "{\"samples\": 12, \"r_hat\": 1.01}".to_string(),
        };
        assert_eq!(e.kind(), "converged");
        assert_eq!(
            e.to_json(),
            "{\"event\": \"converged\", \"step\": 50000, \
             \"diagnostics\": {\"samples\": 12, \"r_hat\": 1.01}}"
        );
    }

    #[test]
    fn service_events_render_stable_json() {
        let e = RuntimeEvent::Admitted {
            tenant: "acme".to_string(),
            session: "acme/s-1".to_string(),
            queue_depth: 7,
        };
        assert_eq!(e.kind(), "admitted");
        assert_eq!(
            e.to_json(),
            "{\"event\": \"admitted\", \"tenant\": \"acme\", \"session\": \"acme/s-1\", \
             \"queue_depth\": 7}"
        );
        let e = RuntimeEvent::Rejected {
            tenant: "acme".to_string(),
            session: "acme/s-2".to_string(),
            reason: "queue_full",
        };
        assert_eq!(
            e.to_json(),
            "{\"event\": \"rejected\", \"tenant\": \"acme\", \"session\": \"acme/s-2\", \
             \"reason\": \"queue_full\"}"
        );
        let e = RuntimeEvent::Evicted {
            session: "acme/s-1".to_string(),
            last_durable_step: Some(4_000),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\": \"evicted\", \"session\": \"acme/s-1\", \
             \"last_durable_step\": 4000}"
        );
        let e = RuntimeEvent::Evicted {
            session: "x".to_string(),
            last_durable_step: None,
        };
        assert!(e.to_json().contains("\"last_durable_step\": null"));
        let e = RuntimeEvent::Resumed {
            session: "acme/s-1".to_string(),
            from_step: 4_000,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\": \"resumed\", \"session\": \"acme/s-1\", \"from_step\": 4000}"
        );
        assert!(e
            .telemetry_line()
            .starts_with("{\"kind\": \"runtime_event\""));
    }
}
