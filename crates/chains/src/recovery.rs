//! The self-healing escalation ladder for supervised chain runs.
//!
//! Treating a failed invariant audit as fatal would abort the run and kill
//! the cell. For multi-hour sweeps that policy throws away enormous amounts
//! of work over recoverable faults (a drifted cached counter is fully
//! reconstructible from the occupancy it summarizes). [`run_supervised`]
//! instead walks an escalation ladder at every chunk boundary:
//!
//! 1. **audit** — if the state is consistent, persist and continue;
//! 2. **repair** — ask the state to fix itself in place
//!    ([`Repairable::repair_state`], e.g. rebuilding counter caches from
//!    occupancy); if the audit then passes, record a
//!    [`RecoveryEvent::Repaired`] and continue;
//! 3. **rollback** — restore the last good checkpoint (state + RNG +
//!    counters), record a [`RecoveryEvent::RolledBack`], and re-run the
//!    lost span; bounded by [`SupervisedOptions::max_rollbacks`] so a
//!    deterministic corruption source cannot loop forever;
//! 4. **fail** — only when the ladder is exhausted does the run abort.
//!
//! The driver also feeds a [`Heartbeat`] — a shared step counter a
//! watchdog thread can poll to detect stalled cells and cancel them
//! cooperatively (the run notices at the next chunk boundary and returns
//! with `completed: false` instead of wedging the sweep).
//!
//! Everything here lives *outside* the proposal kernel: the ladder runs
//! once per chunk (typically 10⁴–10⁶ steps), so the hot path is untouched.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

use crate::cancel::CancelToken;
use crate::chain::MarkovChain;
use crate::checkpoint::{
    Auditable, CheckpointError, CheckpointStore, Recovery, SnapshotRng, StateCodec,
};

/// Chunk-boundary hooks for [`run_supervised_hooked`]: the per-chunk
/// callback plus optional sidecar persistence.
///
/// The sidecar methods let decision state that lives *outside* the chain
/// state — e.g. a [`crate::convergence::ConvergenceMonitor`] — ride inside
/// every snapshot ([`Checkpoint::aux`](crate::checkpoint::Checkpoint::aux))
/// and be restored on resume *and on rollback*, so stop decisions are
/// bit-identical across kills and replayed spans. Because
/// [`SupervisedHooks::on_chunk`] runs before the snapshot of the same
/// chunk is persisted, whatever the hook accumulated at step `t` is
/// captured in the step-`t` snapshot.
///
/// [`run_supervised`] adapts its plain `FnMut(u64, &mut S)` callback into
/// this trait internally (with no sidecar); implement it directly when
/// the run carries decision state that must survive kills and rollbacks.
pub trait SupervisedHooks<S> {
    /// Runs after each chunk, before the audit; return
    /// [`ControlFlow::Break`] to stop early.
    fn on_chunk(&mut self, step: u64, state: &mut S) -> ControlFlow<()>;

    /// Sidecar bytes to persist with the next snapshot. Empty (the
    /// default) writes no `aux` section.
    fn encode_aux(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores sidecar state from a snapshot taken at `step`, on resume
    /// and after every rollback. Empty bytes mean the snapshot carried no
    /// sidecar (legacy or non-adaptive): reset, don't fail.
    ///
    /// # Errors
    ///
    /// Returns a description when non-empty bytes are malformed; the run
    /// surfaces it as a corrupt checkpoint.
    fn restore_aux(&mut self, step: u64, bytes: &[u8]) -> Result<(), String> {
        let _ = (step, bytes);
        Ok(())
    }
}

/// Adapts a plain chunk callback into [`SupervisedHooks`] with no
/// sidecar. A wrapper struct rather than a blanket `impl for G: FnMut`,
/// which would make every other [`SupervisedHooks`] impl a coherence
/// conflict.
struct ClosureHooks<G>(G);

impl<S, G: FnMut(u64, &mut S) -> ControlFlow<()>> SupervisedHooks<S> for ClosureHooks<G> {
    fn on_chunk(&mut self, step: u64, state: &mut S) -> ControlFlow<()> {
        (self.0)(step, state)
    }
}

/// A state that can attempt to repair its own invariant violations in
/// place.
///
/// Repair targets *derived* data — caches and counters recomputable from
/// the primary representation. Structural damage (occupancy corruption,
/// disconnection) is not repairable and must escalate to rollback.
pub trait Repairable {
    /// Attempts in-place repair.
    ///
    /// Returns `Ok(actions)` describing what was rebuilt when the state
    /// believes it is now consistent (the caller re-audits to confirm),
    /// or `Err(reasons)` naming the violations that cannot be repaired
    /// in place.
    ///
    /// # Errors
    ///
    /// `Err` carries the unrepairable violations; the caller escalates
    /// to rollback.
    fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>>;
}

/// Why a heartbeat reports itself cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelKind {
    /// The caller cancelled via the heartbeat's [`CancelToken`].
    External,
    /// A stall watchdog marked the cell frozen and the mark is still
    /// valid (no progress since it was placed).
    Stalled,
}

/// Sentinel for "no stall mark pending".
const NO_STALL: u64 = u64::MAX;

/// A shared step-counter heartbeat with cooperative cancellation.
///
/// The supervised runner bumps the counter at every chunk boundary; a
/// watchdog that sees the counter frozen across consecutive polls can
/// place a *conditional* stall mark via [`Heartbeat::cancel_if_stalled_at`],
/// and the runner exits cleanly at its next boundary. All methods take
/// `&self`; share via `Arc`.
///
/// # The poll/cancel race
///
/// A naive watchdog (poll the counter, decide, then set an unconditional
/// cancelled flag) has a window in which the cell advances *between* the
/// poll and the cancel decision and is killed anyway. Stall cancellation
/// here is therefore validity-at-read-time: the watchdog records the step
/// count it judged frozen, and the mark only counts as a cancellation
/// while the counter still equals that step. Any [`Heartbeat::beat`] past
/// the marked step revokes the mark — a cell that made progress is never
/// killed for stalling. External cancellation via the [`CancelToken`] is
/// unconditional and unaffected by beats.
#[derive(Debug)]
pub struct Heartbeat {
    steps: AtomicU64,
    /// Pending stall mark: the step count the watchdog judged frozen, or
    /// [`NO_STALL`]. Initialized to `NO_STALL` by [`Heartbeat::new`].
    stall_step: AtomicU64,
    token: CancelToken,
}

impl Default for Heartbeat {
    fn default() -> Self {
        Heartbeat::new()
    }
}

impl Heartbeat {
    /// A fresh heartbeat at step 0, not cancelled.
    #[must_use]
    pub fn new() -> Self {
        Self::with_token(CancelToken::new())
    }

    /// A fresh heartbeat whose external-cancellation flag is the given
    /// token — lets one token fan out to many cells.
    #[must_use]
    pub fn with_token(token: CancelToken) -> Self {
        Heartbeat {
            steps: AtomicU64::new(0),
            stall_step: AtomicU64::new(NO_STALL),
            token,
        }
    }

    /// A clone of the external-cancellation token for this heartbeat.
    #[must_use]
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Records progress: the run has completed `steps` total steps.
    ///
    /// Progress past a pending stall mark revokes it (see the type-level
    /// docs on the poll/cancel race).
    pub fn beat(&self, steps: u64) {
        self.steps.store(steps, Ordering::Relaxed);
        let pending = self.stall_step.load(Ordering::Relaxed);
        if pending != NO_STALL && pending != steps {
            let _ = self.stall_step.compare_exchange(
                pending,
                NO_STALL,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// The last step count reported by [`Heartbeat::beat`].
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Places a stall mark at `expected`, but only if the counter still
    /// reads `expected`. Returns whether the mark stuck: `false` means the
    /// cell advanced between the watchdog's poll and this call, so the
    /// stall verdict was stale and has been withdrawn.
    pub fn cancel_if_stalled_at(&self, expected: u64) -> bool {
        if self.steps.load(Ordering::Relaxed) != expected {
            return false;
        }
        self.stall_step.store(expected, Ordering::Relaxed);
        if self.steps.load(Ordering::Relaxed) != expected {
            // The cell beat between the check and the mark; withdraw.
            let _ = self.stall_step.compare_exchange(
                expected,
                NO_STALL,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            return false;
        }
        true
    }

    /// Whether cancellation is in effect *right now*: the external token
    /// fired, or a stall mark is pending and the counter has not advanced
    /// past it.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel_kind().is_some()
    }

    /// Why the heartbeat is cancelled, or `None` when it is not.
    #[must_use]
    pub fn cancel_kind(&self) -> Option<CancelKind> {
        if self.token.is_cancelled() {
            return Some(CancelKind::External);
        }
        let pending = self.stall_step.load(Ordering::Relaxed);
        if pending != NO_STALL && pending == self.steps.load(Ordering::Relaxed) {
            return Some(CancelKind::Stalled);
        }
        None
    }
}

/// One rung taken on the escalation ladder during a supervised run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// An audit failed and in-place repair restored consistency.
    Repaired {
        /// Step count at which the audit fired.
        step: u64,
        /// What the repair rebuilt (from [`Repairable::repair_state`]).
        actions: Vec<String>,
    },
    /// An audit failed, repair could not help, and the run rolled back
    /// to the last good checkpoint.
    RolledBack {
        /// Step count at which the audit fired.
        from_step: u64,
        /// Step count of the restored checkpoint (0 = initial state).
        to_step: u64,
        /// The violations that forced the rollback.
        violations: Vec<String>,
    },
    /// The watchdog (or caller) cancelled the run mid-flight.
    Cancelled {
        /// Step count reached when cancellation was observed.
        step: u64,
    },
}

/// Tuning for [`run_supervised`].
#[derive(Clone, Copy, Debug)]
pub struct SupervisedOptions {
    /// Total steps to run.
    pub steps: u64,
    /// Chunk length: audit/checkpoint/heartbeat interval. Must be > 0.
    pub every: u64,
    /// Maximum rollbacks before the run gives up. Repairs are not
    /// counted — only full rollbacks consume budget.
    pub max_rollbacks: u32,
}

/// The result of a supervised run.
#[derive(Debug)]
pub struct SupervisedRun {
    /// Steps actually completed (may be short of the request when the
    /// run was cancelled or the `on_chunk` hook broke out early).
    pub steps: u64,
    /// Accepted (state-changing) steps, including replayed spans.
    pub accepted: u64,
    /// Observable samples `(time, value)` taken by this invocation: one at
    /// its entry step (0, or the step it resumed from) and one at every
    /// chunk boundary since. A rollback drops the samples past the
    /// restored step. Snapshots do not carry the log, so a resumed run's
    /// log starts at the resume step.
    pub log: Vec<(u64, f64)>,
    /// Step count of the snapshot the run resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Corrupt snapshot files skipped during recovery.
    pub rejected: Vec<PathBuf>,
    /// Orphaned temp files reaped during recovery.
    pub reaped: Vec<PathBuf>,
    /// Snapshots written during this invocation.
    pub snapshots_written: usize,
    /// Ladder rungs taken, in order.
    pub events: Vec<RecoveryEvent>,
    /// `false` when the run was cancelled before finishing.
    pub completed: bool,
    /// Step count of the newest snapshot known durable when the run
    /// returned: the resume point (or the last write) — `None` when
    /// nothing was ever persisted. A cancelled or degraded run can hand
    /// this to its caller as the guaranteed-recoverable position.
    pub last_durable_step: Option<u64>,
}

impl SupervisedRun {
    /// Whether any repair or rollback happened.
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                RecoveryEvent::Repaired { .. } | RecoveryEvent::RolledBack { .. }
            )
        })
    }
}

/// Runs a chain under the full escalation ladder: chunked execution with
/// heartbeats, audit → repair → rollback on invariant violations, and
/// checkpoint persistence after every clean chunk.
///
/// `observe` samples the observable at the entry step and at every chunk
/// boundary, into [`SupervisedRun::log`]; when it is a pure function of
/// the state, a resumed run's log equals an uninterrupted run's from the
/// resume step on. `on_chunk` runs after each chunk *before* the
/// audit — it is the hook for separation checks (return
/// [`ControlFlow::Break`] to stop early, e.g. on hitting a target),
/// telemetry emission, and fault injection in tests; state mutations it
/// makes are subject to the same audit as chain steps.
///
/// Resumes from the newest valid snapshot in `store` when one exists: the
/// state, RNG stream and acceptance count then match an uninterrupted run
/// bit for bit. Snapshots hold the state, the RNG state, the counters and
/// the sidecar, not the log, so each one costs O(state) to write however
/// long the run.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on persistence failures and
/// [`CheckpointError::AuditFailed`] only when the ladder is exhausted:
/// repair failed and more than [`SupervisedOptions::max_rollbacks`]
/// rollbacks were needed.
///
/// # Panics
///
/// Panics if `opts.every` is 0.
#[allow(clippy::too_many_arguments)] // the ladder genuinely takes this many collaborators
pub fn run_supervised<C, R, F, G>(
    chain: &C,
    state: &mut C::State,
    rng: &mut R,
    store: &CheckpointStore,
    opts: &SupervisedOptions,
    heartbeat: &Heartbeat,
    observe: F,
    on_chunk: G,
) -> Result<SupervisedRun, CheckpointError>
where
    C: MarkovChain,
    C::State: StateCodec + Auditable + Repairable,
    R: Rng + SnapshotRng + ?Sized,
    F: FnMut(&C::State) -> f64,
    G: FnMut(u64, &mut C::State) -> ControlFlow<()>,
{
    run_supervised_hooked(
        chain,
        state,
        rng,
        store,
        opts,
        heartbeat,
        observe,
        &mut ClosureHooks(on_chunk),
    )
}

/// [`run_supervised`] with full [`SupervisedHooks`]: identical ladder and
/// determinism contract, plus sidecar ([`SupervisedHooks::encode_aux`])
/// persistence inside every snapshot and restoration on resume and
/// rollback.
///
/// # Errors
///
/// As [`run_supervised`]; additionally surfaces a sidecar that fails to
/// restore as [`CheckpointError::Corrupt`].
///
/// # Panics
///
/// Panics if `opts.every` is 0.
#[allow(clippy::too_many_arguments)] // the ladder genuinely takes this many collaborators
#[allow(clippy::too_many_lines)] // one straight-line ladder; splitting obscures the flow
pub fn run_supervised_hooked<C, R, F, H>(
    chain: &C,
    state: &mut C::State,
    rng: &mut R,
    store: &CheckpointStore,
    opts: &SupervisedOptions,
    heartbeat: &Heartbeat,
    mut observe: F,
    hooks: &mut H,
) -> Result<SupervisedRun, CheckpointError>
where
    C: MarkovChain,
    C::State: StateCodec + Auditable + Repairable,
    R: Rng + SnapshotRng + ?Sized,
    F: FnMut(&C::State) -> f64,
    H: SupervisedHooks<C::State> + ?Sized,
{
    assert!(opts.every > 0, "supervised chunk length must be positive");

    let Recovery {
        checkpoint,
        rejected,
        reaped,
    } = match store.recover::<C::State>() {
        Ok(rec) => rec,
        // The store's cancel token fired before the run even started:
        // nothing was touched, report a clean zero-step cancellation.
        Err(CheckpointError::Cancelled) => {
            return Ok(SupervisedRun {
                steps: 0,
                accepted: 0,
                log: Vec::new(),
                resumed_from: None,
                rejected: Vec::new(),
                reaped: Vec::new(),
                snapshots_written: 0,
                events: vec![RecoveryEvent::Cancelled { step: 0 }],
                completed: false,
                last_durable_step: None,
            });
        }
        Err(e) => return Err(e),
    };

    let corrupt = |reason| CheckpointError::Corrupt {
        path: store.dir().to_path_buf(),
        reason,
    };
    let mut t;
    let mut accepted;
    let resumed_from;
    match checkpoint {
        Some(ckpt) if ckpt.step <= opts.steps => {
            *state = ckpt.state;
            rng.restore_rng_state(&ckpt.rng_state).map_err(corrupt)?;
            hooks.restore_aux(ckpt.step, &ckpt.aux).map_err(corrupt)?;
            t = ckpt.step;
            accepted = ckpt.accepted;
            resumed_from = Some(t);
        }
        _ => {
            t = 0;
            accepted = 0;
            resumed_from = None;
        }
    }
    // A restored state is bit-identical to the state at step `t`, so the
    // log from here on equals an uninterrupted run's.
    let mut log = vec![(t, observe(state))];

    // The rollback anchor of last resort: when no checkpoint has been
    // written yet, the ladder restores this entry-point snapshot.
    let initial_state = state.encode_state();
    let initial_rng = rng.rng_state();
    let initial_aux = hooks.encode_aux();
    let initial_t = t;
    let initial_accepted = accepted;

    let mut events = Vec::new();
    let mut rollbacks = 0u32;
    let mut snapshots_written = 0;
    let mut last_durable_step = resumed_from;
    let mut completed = true;

    while t < opts.steps {
        if heartbeat.is_cancelled() {
            events.push(RecoveryEvent::Cancelled { step: t });
            completed = false;
            break;
        }

        let burst = opts.every.min(opts.steps - t);
        accepted += chain.run(state, burst, rng);
        t += burst;
        heartbeat.beat(t);
        let flow = hooks.on_chunk(t, state);

        // The escalation ladder.
        let violations = state.audit_violations();
        if !violations.is_empty() {
            let repaired = match state.repair_state() {
                Ok(actions) if state.audit_violations().is_empty() => Some(actions),
                _ => None,
            };
            if let Some(actions) = repaired {
                events.push(RecoveryEvent::Repaired { step: t, actions });
            } else {
                rollbacks += 1;
                if rollbacks > opts.max_rollbacks {
                    return Err(CheckpointError::AuditFailed {
                        step: t,
                        violations,
                    });
                }
                // Restore the newest durable snapshot; an invariant-
                // violating state is never persisted, so anything on disk
                // is trustworthy. Fall back to the entry-point snapshot
                // when nothing has been written yet.
                let rec = match store.recover::<C::State>() {
                    Ok(rec) => rec,
                    Err(CheckpointError::Cancelled) => {
                        events.push(RecoveryEvent::Cancelled { step: t });
                        completed = false;
                        break;
                    }
                    Err(e) => return Err(e),
                };
                let to_step = match rec.checkpoint {
                    Some(ckpt) => {
                        let to = ckpt.step;
                        *state = ckpt.state;
                        rng.restore_rng_state(&ckpt.rng_state).map_err(corrupt)?;
                        // The sidecar rolls back with the state, so the
                        // replayed span feeds the hooks the same stream a
                        // fault-free run would have.
                        hooks.restore_aux(to, &ckpt.aux).map_err(corrupt)?;
                        accepted = ckpt.accepted;
                        last_durable_step = Some(to);
                        to
                    }
                    None => {
                        *state = C::State::decode_state(&initial_state).map_err(corrupt)?;
                        rng.restore_rng_state(&initial_rng).map_err(corrupt)?;
                        hooks
                            .restore_aux(initial_t, &initial_aux)
                            .map_err(corrupt)?;
                        accepted = initial_accepted;
                        initial_t
                    }
                };
                // The samples past the restored step are replayed, so they
                // are dropped here and logged again.
                log.retain(|&(step, _)| step <= to_step);
                events.push(RecoveryEvent::RolledBack {
                    from_step: t,
                    to_step,
                    violations,
                });
                t = to_step;
                heartbeat.beat(t);
                continue;
            }
        }

        log.push((t, observe(state)));
        match store.save_parts_aux(
            t,
            accepted,
            &rng.rng_state(),
            &[],
            state,
            &hooks.encode_aux(),
        ) {
            Ok(_) => {
                snapshots_written += 1;
                last_durable_step = Some(t);
            }
            // Cancellation observed inside checkpoint I/O: the save was
            // abandoned before the atomic rename (at worst a tmp orphan
            // remains, reaped on the next recovery), so the previous
            // durable snapshot still stands. Exit cleanly.
            Err(CheckpointError::Cancelled) => {
                events.push(RecoveryEvent::Cancelled { step: t });
                completed = false;
                break;
            }
            Err(e) => return Err(e),
        }

        if flow.is_break() {
            break;
        }
    }

    Ok(SupervisedRun {
        steps: t,
        accepted,
        log,
        resumed_from,
        rejected,
        reaped,
        snapshots_written,
        events,
        completed,
        last_durable_step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh scratch directory per test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "sops-recovery-test-{}-{tag}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A walk state with a derived cache (`cache == 2 * x`) that can be
    /// corrupted (repairable) or structurally poisoned (unrepairable).
    #[derive(Clone, Debug, PartialEq)]
    struct Cached {
        x: u64,
        cache: u64,
        poisoned: bool,
    }

    impl Cached {
        fn new(x: u64) -> Self {
            Cached {
                x,
                cache: 2 * x,
                poisoned: false,
            }
        }
    }

    impl StateCodec for Cached {
        fn encode_state(&self) -> Vec<u8> {
            // Only the primary datum travels; the cache is derived on
            // decode, mirroring how Configuration recounts on decode.
            self.x.to_le_bytes().to_vec()
        }
        fn decode_state(bytes: &[u8]) -> Result<Self, String> {
            u64::decode_state(bytes).map(Cached::new)
        }
    }

    impl Auditable for Cached {
        fn audit_violations(&self) -> Vec<String> {
            let mut v = Vec::new();
            if self.poisoned {
                v.push("structural poison".to_string());
            }
            if self.cache != 2 * self.x {
                v.push(format!("cache drift: {} != 2*{}", self.cache, self.x));
            }
            v
        }
    }

    impl Repairable for Cached {
        fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
            if self.poisoned {
                return Err(vec!["structural poison is not repairable".into()]);
            }
            self.cache = 2 * self.x;
            Ok(vec!["rebuilt cache".into()])
        }
    }

    /// Lazy walk on ℤ mod m over the `x` field, cache kept incrementally.
    struct CachedWalk(u64);

    impl MarkovChain for CachedWalk {
        type State = Cached;
        fn step<R: Rng + ?Sized>(&self, s: &mut Cached, rng: &mut R) -> bool {
            match rng.random_range(0..4u8) {
                0 => {
                    s.x = (s.x + 1) % self.0;
                    s.cache = 2 * s.x;
                    true
                }
                1 => {
                    s.x = (s.x + self.0 - 1) % self.0;
                    s.cache = 2 * s.x;
                    true
                }
                _ => false,
            }
        }
    }

    const OPTS: SupervisedOptions = SupervisedOptions {
        steps: 8_000,
        every: 1_000,
        max_rollbacks: 3,
    };

    /// Reference: an uninterrupted, fault-free run of the same chain in
    /// memory, with the observable sampled at every chunk boundary.
    fn reference() -> (Cached, Vec<u8>, u64, Vec<(u64, f64)>) {
        let chain = CachedWalk(97);
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut accepted = 0;
        let mut log = vec![(0, state.x as f64)];
        for t in (OPTS.every..=OPTS.steps).step_by(OPTS.every as usize) {
            accepted += chain.run(&mut state, OPTS.every, &mut rng);
            log.push((t, state.x as f64));
        }
        (state, rng.to_state_bytes().to_vec(), accepted, log)
    }

    /// A log's values as their exact bits, so equality is bit for bit.
    fn bits(log: &[(u64, f64)]) -> Vec<(u64, u64)> {
        log.iter().map(|&(t, v)| (t, v.to_bits())).collect()
    }

    #[test]
    fn clean_supervised_run_matches_plain_run() {
        let (ref_state, ref_rng, ref_accepted, ref_log) = reference();
        let scratch = Scratch::new("clean");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &Heartbeat::new(),
            |s| s.x as f64,
            |_, _| ControlFlow::Continue(()),
        )
        .unwrap();
        assert!(run.completed);
        assert!(run.events.is_empty());
        assert_eq!(state, ref_state);
        assert_eq!(rng.to_state_bytes().to_vec(), ref_rng);
        assert_eq!(run.accepted, ref_accepted);
        assert_eq!(bits(&run.log), bits(&ref_log));
    }

    #[test]
    fn counter_corruption_is_repaired_in_place() {
        let (ref_state, ref_rng, ref_accepted, _) = reference();
        let scratch = Scratch::new("repair");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut injected = false;
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &Heartbeat::new(),
            |s| s.x as f64,
            |t, s: &mut Cached| {
                if t == 3_000 && !injected {
                    injected = true;
                    s.cache = s.cache.wrapping_add(7);
                }
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert!(run.completed);
        assert!(
            matches!(
                run.events.as_slice(),
                [RecoveryEvent::Repaired { step: 3_000, .. }]
            ),
            "{:?}",
            run.events
        );
        // Repair rebuilds the exact cache, so the run converges to the
        // fault-free result bit for bit.
        assert_eq!(state, ref_state);
        assert_eq!(rng.to_state_bytes().to_vec(), ref_rng);
        assert_eq!(run.accepted, ref_accepted);
    }

    #[test]
    fn unrepairable_corruption_rolls_back_to_checkpoint() {
        let (ref_state, ref_rng, ref_accepted, ref_log) = reference();
        let scratch = Scratch::new("rollback");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut injected = false;
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &Heartbeat::new(),
            |s| s.x as f64,
            |t, s: &mut Cached| {
                if t == 4_000 && !injected {
                    injected = true;
                    s.poisoned = true;
                }
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert!(run.completed);
        assert!(
            matches!(
                run.events.as_slice(),
                [RecoveryEvent::RolledBack {
                    from_step: 4_000,
                    to_step: 3_000,
                    ..
                }]
            ),
            "{:?}",
            run.events
        );
        // Rollback restores the checkpointed RNG too, so the replayed
        // span draws the same stream and lands on the reference result.
        assert_eq!(state, ref_state);
        assert_eq!(rng.to_state_bytes().to_vec(), ref_rng);
        assert_eq!(run.accepted, ref_accepted);
        assert_eq!(bits(&run.log), bits(&ref_log));
    }

    #[test]
    fn rollback_past_a_torn_snapshot_truncates_the_log() {
        let (ref_state, ref_rng, ref_accepted, ref_log) = reference();
        let scratch = Scratch::new("rollback-torn");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut injected = false;
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &Heartbeat::new(),
            |s| s.x as f64,
            |t, s: &mut Cached| {
                if t == 4_000 && !injected {
                    injected = true;
                    s.poisoned = true;
                    // Tear the step-3000 snapshot too: the rollback then
                    // lands on step 2000, behind the logged step 3000.
                    let newest = store.list().unwrap().pop().unwrap();
                    std::fs::write(newest, "torn").unwrap();
                }
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert!(
            matches!(
                run.events.as_slice(),
                [RecoveryEvent::RolledBack {
                    from_step: 4_000,
                    to_step: 2_000,
                    ..
                }]
            ),
            "{:?}",
            run.events
        );
        assert_eq!(state, ref_state);
        assert_eq!(rng.to_state_bytes().to_vec(), ref_rng);
        assert_eq!(run.accepted, ref_accepted);
        // Step 3000 is replayed, so it must be logged once, not twice.
        assert_eq!(bits(&run.log), bits(&ref_log));
    }

    #[test]
    fn rollback_before_first_checkpoint_restores_entry_state() {
        let (ref_state, _, _, ref_log) = reference();
        let scratch = Scratch::new("rollback0");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut injected = false;
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &Heartbeat::new(),
            |s| s.x as f64,
            |t, s: &mut Cached| {
                if t == 1_000 && !injected {
                    injected = true;
                    s.poisoned = true;
                }
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert!(run.completed);
        assert!(
            matches!(
                run.events.as_slice(),
                [RecoveryEvent::RolledBack {
                    from_step: 1_000,
                    to_step: 0,
                    ..
                }]
            ),
            "{:?}",
            run.events
        );
        assert_eq!(state, ref_state);
        assert_eq!(bits(&run.log), bits(&ref_log));
    }

    #[test]
    fn snapshot_size_does_not_grow_with_the_chunk_count() {
        let scratch = Scratch::new("size");
        // Keep all 64 snapshots the run writes; the seed snapshot below is
        // the 65th and is pruned.
        let store = CheckpointStore::open(&scratch.0, 64).unwrap();
        // Resume at step 10⁶ with 10⁶ accepted steps, so neither counter
        // gains a digit over the run and only a log could grow a snapshot.
        // The seed carries a log of its own, which must not be re-written.
        let mut rng = StdRng::seed_from_u64(42);
        store
            .save(&Checkpoint {
                step: 1_000_000,
                accepted: 1_000_000,
                rng_state: rng.rng_state(),
                log: vec![(0, 0.0), (1_000_000, 5.0)],
                state: Cached::new(5),
                aux: Vec::new(),
            })
            .unwrap();
        let opts = SupervisedOptions {
            steps: 1_000_000 + 64 * 100,
            every: 100,
            max_rollbacks: 0,
        };
        let mut state = Cached::new(0);
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &opts,
            &Heartbeat::new(),
            |s| s.x as f64,
            |_, _| ControlFlow::Continue(()),
        )
        .unwrap();
        assert_eq!(run.resumed_from, Some(1_000_000));
        assert_eq!(run.snapshots_written, 64);
        let snapshots: Vec<Vec<u8>> = store
            .list()
            .unwrap()
            .iter()
            .map(|p| std::fs::read(p).unwrap())
            .collect();
        assert_eq!(snapshots.len(), 64);
        let (first, last) = (&snapshots[0], &snapshots[63]);
        assert_eq!(last.len(), first.len());
        assert!(
            last.windows(7).any(|w| w == b"\nlog 0\n"),
            "{}",
            String::from_utf8_lossy(last)
        );
    }

    #[test]
    fn persistent_corruption_exhausts_the_ladder() {
        let scratch = Scratch::new("exhaust");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let err = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &Heartbeat::new(),
            |s| s.x as f64,
            // Poison every chunk: repair can never help, rollback budget
            // drains, and the run must fail rather than spin forever.
            |_, s: &mut Cached| {
                s.poisoned = true;
                ControlFlow::Continue(())
            },
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::AuditFailed { .. }), "{err}");
    }

    #[test]
    fn cancellation_stops_at_chunk_boundary() {
        let scratch = Scratch::new("cancel");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let heartbeat = Heartbeat::new();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &heartbeat,
            |s| s.x as f64,
            |t, _| {
                if t == 2_000 {
                    heartbeat.token.cancel();
                }
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert!(!run.completed);
        assert_eq!(run.steps, 2_000);
        assert!(
            matches!(
                run.events.as_slice(),
                [RecoveryEvent::Cancelled { step: 2_000 }]
            ),
            "{:?}",
            run.events
        );
        assert_eq!(heartbeat.steps(), 2_000);
        // The chunk that observed the cancel was still persisted (cancel
        // is only checked at the loop top), so resume starts from here.
        assert_eq!(run.last_durable_step, Some(2_000));
    }

    #[test]
    fn stall_mark_is_revoked_by_progress() {
        let hb = Heartbeat::new();
        hb.beat(100);
        assert!(hb.cancel_if_stalled_at(100));
        assert_eq!(hb.cancel_kind(), Some(CancelKind::Stalled));
        // Progress past the marked step revokes the stall verdict.
        hb.beat(200);
        assert_eq!(hb.cancel_kind(), None);
        // A verdict formed against an already-stale counter never sticks.
        assert!(!hb.cancel_if_stalled_at(100));
        assert!(!hb.is_cancelled());
    }

    #[test]
    fn external_cancel_survives_beats() {
        let hb = Heartbeat::new();
        hb.token().cancel();
        hb.beat(500);
        assert_eq!(hb.cancel_kind(), Some(CancelKind::External));
        assert!(hb.is_cancelled());
    }

    #[test]
    fn store_cancellation_inside_checkpoint_io_exits_cleanly() {
        let scratch = Scratch::new("store-cancel");
        let token = CancelToken::new();
        let store = CheckpointStore::open(&scratch.0, 2)
            .unwrap()
            .with_cancel(token.clone());
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &Heartbeat::new(),
            |s| s.x as f64,
            |t, _| {
                // Cancel only the *store's* token: the heartbeat stays
                // live, so the exit must come from the checkpoint-I/O
                // cancel check, not the chunk-boundary one.
                if t == 2_000 {
                    token.cancel();
                }
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert!(!run.completed);
        assert_eq!(run.steps, 2_000);
        assert!(
            matches!(
                run.events.as_slice(),
                [RecoveryEvent::Cancelled { step: 2_000 }]
            ),
            "{:?}",
            run.events
        );
        // The step-2000 save was abandoned before anything durable, so
        // the last durable snapshot is the previous chunk's.
        assert_eq!(run.last_durable_step, Some(1_000));
        let rec = CheckpointStore::open(&scratch.0, 2)
            .unwrap()
            .recover::<Cached>()
            .unwrap();
        assert_eq!(rec.checkpoint.unwrap().step, 1_000);
    }

    #[test]
    fn on_chunk_break_stops_early_after_persisting() {
        let scratch = Scratch::new("break");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &Heartbeat::new(),
            |s| s.x as f64,
            |t, _| {
                if t >= 3_000 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        assert!(run.completed);
        assert_eq!(run.steps, 3_000);
        assert_eq!(run.last_durable_step, Some(3_000));
        // The stopping state was checkpointed, so a later invocation
        // resumes from exactly here.
        let rec = store.recover::<Cached>().unwrap();
        assert_eq!(rec.checkpoint.unwrap().step, 3_000);
    }
}
