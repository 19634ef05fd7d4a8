//! Resource-bounded supervision runtime for long-running sweeps.
//!
//! The paper's algorithm is fully local and asynchronous — progress under
//! arbitrary activation schedules. This crate holds the *host* to the same
//! standard: every experiment job runs under an explicit [`ResourceBudget`]
//! (wall-clock deadline, step cap, rollback budget) checked at chunk
//! boundaries, with per-job panic isolation and deterministic graceful
//! degradation: when a budget trips, the job ends as
//! [`CellStatus::Degraded`]`{ reason, last_durable_step }` with a valid
//! durable checkpoint — never a wedge, never a lost sweep.
//!
//! The pieces, bottom to top:
//!
//! * [`JobError`] / [`DegradeReason`] — the typed failure taxonomy that
//!   replaces stringly statuses in `results/<bin>-cells.json`;
//! * [`RuntimeEvent`] — repair/rollback/degrade/converge events (and the
//!   job service's lifecycle events), rendered into the per-cell JSONL
//!   telemetry stream;
//! * [`ResourceBudget`] — the budget a job runs under;
//! * [`SweepOptions`] — CLI parsing and per-cell checkpoint/telemetry
//!   plumbing shared by every sweep binary;
//! * [`run_cells`] — parallel cell execution, one thread a cell, each
//!   cell's work run once under `catch_unwind`, with typed outcomes;
//! * [`run_chain`] — how every chain-driving bin runs a chain under its
//!   budget: through `sops-chains`' one chunk loop, checkpointed and
//!   self-healing (audit → repair → rollback) when a store is configured,
//!   storeless otherwise (audit → repair, no rollback rung), with budget
//!   checks either way: the loop's `before_chunk` hook reads the deadline
//!   before every chunk;
//! * [`run_chain_monitored`] — the same loop under a
//!   [`ConvergenceMonitor`]: stops early with
//!   [`StopReason::Converged`] once the monitor's tests hold, and
//!   serializes the monitor's decision state into the checkpoint sidecar
//!   so resumed runs replay to bit-identical stop decisions.
//!
//! The recovery ladder itself ([`run_supervised`], [`Repairable`]) lives
//! in `sops-chains`; this crate re-exports it so sweep code needs only one
//! runtime dependency. How far a store durably got, from file names alone,
//! is [`CheckpointStore::newest_step`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod chain_job;
mod error;
mod events;
mod options;
mod report;
mod runner;
mod seeds;

pub use budget::ResourceBudget;
pub use chain_job::{run_chain, run_chain_monitored, ChainJob, StopReason};
pub use error::{ConfigError, DegradeReason, JobError};
pub use events::RuntimeEvent;
pub use options::SweepOptions;
pub use report::write_cell_report;
pub use runner::{run_cells, CellOutcome, CellStatus, JobContext};
pub use seeds::{seed_hash, seeded};

// The recovery primitives this runtime builds on, re-exported so callers
// need only `sops-runtime`.
pub use sops_chains::{
    run_supervised, CheckpointError, CheckpointStore, RecoveryEvent, Repairable, SupervisedOptions,
    SupervisedRun,
};

// The convergence engine, re-exported for the same reason: sweep bins
// build their monitors against `sops-runtime` alone.
pub use sops_chains::{ConvergenceMonitor, Diagnostics};
