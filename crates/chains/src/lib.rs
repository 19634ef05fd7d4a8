//! Markov-chain tooling for stochastic self-organizing particle systems.
//!
//! The separation algorithm of Cannon et al. is *designed as* a Markov chain
//! `M` and *analyzed through* its stationary distribution `π` (§2.4 of the
//! paper). This crate provides the general-purpose machinery that analysis
//! needs, independent of the particle-system specifics:
//!
//! * [`MarkovChain`] — the minimal trait a simulable chain implements;
//! * [`EnumerableChain`] + [`TransitionMatrix`] — exact transition matrices
//!   for chains with enumerable state spaces, with stationary distributions
//!   (power iteration), detailed-balance verification, irreducibility and
//!   aperiodicity checks, and t-step distributions;
//! * [`checkpoint`] — crash-tolerant checkpoint/resume for long runs:
//!   atomic snapshots of state + RNG + counters, checksum-verified
//!   recovery, and invariant auditing before every persist;
//! * [`vfs`] — the storage seam under the checkpoint store: a [`Vfs`]
//!   trait with a real backend and a deterministic [`FaultyVfs`] that
//!   models crash consistency (torn writes, bit flips, `ENOSPC`, volatile
//!   renames) for the crash-point fuzzer;
//! * [`recovery`] — the one chunk loop and its self-healing escalation
//!   ladder: audit violation → in-place [`Repairable::repair_state`] →
//!   rollback to the last good checkpoint; a run stops before a chunk
//!   only when its [`SupervisedHooks::before_chunk`] says so;
//! * [`cancel`] — the [`CancelToken`] a [`SupervisedHooks::before_chunk`]
//!   can read, so an evicted service job stops between chunks;
//! * [`metropolis`] — the Metropolis filter (Metropolis–Hastings acceptance
//!   rule) used by Algorithm 1;
//! * [`stats`] — empirical distributions, total-variation distance, and
//!   time-series summaries for simulation output;
//! * [`convergence`] — streaming convergence detection for the adaptive
//!   experiment engine: single-pass Welford/τ_int/ESS/split-R̂ estimators
//!   and the one [`ConvergenceMonitor`], whose decision state serializes
//!   into checkpoints, so resumed runs make bit-identical stop decisions;
//! * [`telemetry`] — run telemetry records: the [`TelemetryReport`] of
//!   outcome counters, acceptance-rate windows, throughput and observable
//!   time series that `sops-core`'s `Instrumented` accumulates, a JSONL
//!   metrics sink with run manifests, and the JSON helpers every record
//!   shares.
//!
//! # Example: verifying a two-state chain
//!
//! ```
//! use sops_chains::{EnumerableChain, TransitionMatrix};
//!
//! /// Two-state chain: flips with probability 1/2, else stays.
//! struct Flip;
//! impl EnumerableChain for Flip {
//!     type State = bool;
//!     fn states(&self) -> Vec<bool> { vec![false, true] }
//!     fn transitions(&self, s: &bool) -> Vec<(bool, f64)> {
//!         vec![(!s, 0.5)]
//!     }
//! }
//!
//! let m = TransitionMatrix::build(&Flip);
//! assert!(m.is_irreducible());
//! assert!(m.is_aperiodic());
//! let pi = m.stationary(1e-12, 100_000).unwrap();
//! assert!((pi[0] - 0.5).abs() < 1e-9);
//! assert!(m.detailed_balance_violation(&pi) < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
mod chain;
pub mod checkpoint;
pub mod convergence;
mod exact;
pub mod metropolis;
pub mod recovery;
pub mod stats;
pub mod telemetry;
pub mod vfs;

pub use cancel::CancelToken;
pub use chain::MarkovChain;
pub use checkpoint::{
    fnv1a64, Auditable, Checkpoint, CheckpointError, CheckpointStore, Recovery, SnapshotRng,
    StateCodec,
};
pub use convergence::{r_hat, ConvergenceMonitor, Diagnostics, StreamingAcf};
pub use exact::{EnumerableChain, TransitionMatrix};
pub use metropolis::{PowerRatio, PowerTable, POWER_TABLE_EXPONENT_MAX};
pub use recovery::{
    run_supervised, run_supervised_hooked, RecoveryEvent, Repairable, SupervisedHooks,
    SupervisedOptions, SupervisedRun,
};
pub use telemetry::{JsonlSink, RunManifest, TelemetryReport};
pub use vfs::{reap_tmp_files, write_atomic, CrashStyle, FaultyVfs, RealVfs, Vfs};
