//! Multi-tenant job service over the `sops` runtime: bounded admission
//! control, round-robin fair scheduling, a supervised worker pool, and
//! crash-safe durable session recovery — hand-rolled on std
//! threads, channels-free condvar scheduling, and the workspace's
//! fault-injectable [`sops_chains::Vfs`]. No async runtime.
//!
//! The service contract, which the chaos suite
//! (`tests/service_chaos.rs`) enforces end to end:
//!
//! - **Typed admission.** Every submission is either admitted (and gets
//!   a [`JobTicket`]) or rejected with a typed [`RejectReason`]
//!   (`queue_full`, `tenant_quota_exceeded`, `draining`). Blocking
//!   submission ([`JobService::submit_wait`]) applies backpressure and
//!   unblocks promptly on cancellation.
//! - **Fairness.** Tenants are scheduled round-robin over per-tenant
//!   lanes, each dispatched in arrival order: one tenant's 10,000 queued
//!   jobs cannot starve another tenant's single job.
//! - **Isolation.** Payload panics are caught per job, classified as
//!   [`sops_runtime::JobError::Panic`], and the poisoned worker slot is
//!   respawned — never leaked, never fatal to the pool.
//! - **One job per session.** A job whose session already has a job
//!   running waits in the queue until that job classifies, then resumes
//!   from the session's checkpoints; each session has one manifest
//!   writer at a time.
//! - **Exactly-once classification.** Every admitted job terminates in
//!   exactly one [`TerminalStatus`] (`Completed`, `Failed`, `Evicted`);
//!   [`JobTicket::finish_count`] makes the invariant countable.
//! - **Durability.** Session state (manifest + checkpoints) persists
//!   with tmp+rename+fsync discipline and checksum-validated loads;
//!   restart recovers the session table, reaps orphaned temp state, and
//!   resumed sessions continue bit-identically from their newest
//!   durable checkpoint.
//! - **Graceful drain.** Shutdown stops admissions, evicts queued work
//!   as resumable, signals in-flight jobs to stop before their next
//!   chunk, and never silently drops anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod payload;
mod queue;
mod service;
mod session;

pub use payload::chain_payload;
pub use queue::{Admission, JobTicket, QueueConfig, RejectReason, TerminalStatus};
pub use service::{
    DrainReport, ExecCtx, JobOutcome, JobPayload, JobService, JobSpec, ServiceConfig, ServiceStats,
};
pub use session::{SessionManifest, SessionRecovery, SessionStatus, SessionStore};
