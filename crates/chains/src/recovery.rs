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
//! [`run_supervised_hooked`] is the one chunk loop behind every chunked
//! chain run, checkpointed or not. Without a checkpoint store it recovers
//! nothing, writes no snapshot and has no rollback rung (there is nothing
//! to roll back to), and it audits at [`SupervisedOptions::audit_every`]'s
//! cadence instead of before every snapshot.
//!
//! The loop checks a [`CancelToken`] at the top of every chunk: a
//! cancelled run returns with `completed: false` at the next chunk
//! boundary instead of wedging the sweep.
//!
//! Everything here lives *outside* the proposal kernel: the ladder runs
//! once per chunk (typically 10⁴–10⁶ steps), so the hot path is untouched.

use std::ops::ControlFlow;
use std::path::PathBuf;

use rand::Rng;

use crate::cancel::CancelToken;
use crate::chain::MarkovChain;
use crate::checkpoint::{
    Auditable, Checkpoint, CheckpointError, CheckpointStore, SnapshotRng, StateCodec,
};

/// Chunk-boundary hooks for [`run_supervised_hooked`]: a stop check before
/// each chunk, the per-chunk callback, and optional sidecar persistence.
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
/// A chunk at which [`SupervisedHooks::on_chunk`] breaks is audited but
/// not persisted: the newest snapshot is the chunk before, so a resume
/// replays the stopping chunk and the hook decides to stop again. A
/// snapshot therefore never holds a run that has already stopped.
///
/// [`run_supervised`] adapts its plain `FnMut(u64, &mut S)` callback into
/// this trait internally (with no sidecar); implement it directly when
/// the run carries decision state that must survive kills and rollbacks.
pub trait SupervisedHooks<S> {
    /// Runs before each chunk, right after the cancellation check; return
    /// [`ControlFlow::Break`] to stop without running it (a budget trip,
    /// such as a passed deadline). The run then ends with
    /// `completed: false`. The default never stops.
    fn before_chunk(&mut self) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// Runs after each chunk, before the audit; return
    /// [`ControlFlow::Break`] to stop early.
    fn on_chunk(&mut self, step: u64, state: &mut S) -> ControlFlow<()>;

    /// Sidecar bytes to persist with the next snapshot. Empty (the
    /// default) writes no `aux` section.
    fn encode_aux(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores sidecar state from a snapshot, on resume and after every
    /// rollback; `state` is the state restored with it. Empty bytes mean
    /// the snapshot carried no sidecar (legacy or non-adaptive): reset,
    /// don't fail. A hook whose history lives outside the sidecar can
    /// rebuild it from `state`.
    ///
    /// # Errors
    ///
    /// Returns a description when non-empty bytes are malformed; the run
    /// surfaces it as a corrupt checkpoint.
    fn restore_aux(&mut self, state: &S, bytes: &[u8]) -> Result<(), String> {
        let _ = (state, bytes);
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
    /// The caller cancelled the run mid-flight.
    Cancelled {
        /// Step count reached when cancellation was observed.
        step: u64,
    },
}

/// Tuning for [`run_supervised`] and [`run_supervised_hooked`].
#[derive(Clone, Copy, Debug)]
pub struct SupervisedOptions {
    /// Total steps to run.
    pub steps: u64,
    /// Chunk length: audit/checkpoint/cancellation interval. Must be > 0.
    pub every: u64,
    /// Maximum rollbacks before the run gives up. Repairs are not
    /// counted — only full rollbacks consume budget.
    pub max_rollbacks: u32,
    /// Audit interval, in steps, of a run without a store (`None`: never
    /// audit). A run with a store audits every chunk before persisting it
    /// and ignores this.
    pub audit_every: Option<u64>,
}

/// The result of a supervised run.
#[derive(Debug, Default)]
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
    /// `false` when the run was cancelled, or stopped by
    /// [`SupervisedHooks::before_chunk`], before finishing.
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

/// Runs a chain under the full escalation ladder: chunked execution that
/// stops once `cancel` fires, audit → repair → rollback on invariant
/// violations, and checkpoint persistence after every clean chunk.
///
/// `observe` samples the observable at the entry step and at every chunk
/// boundary, into [`SupervisedRun::log`]; when it is a pure function of
/// the state, a resumed run's log equals an uninterrupted run's from the
/// resume step on. `on_chunk` runs after each chunk *before* the
/// audit — it is the hook for separation checks (return
/// [`ControlFlow::Break`] to stop early, e.g. on hitting a target),
/// telemetry emission, and fault injection in tests; state mutations it
/// makes are subject to the same audit as chain steps. The chunk it
/// breaks at is audited but not persisted, so a later invocation on the
/// same store replays that chunk and stops at the same step.
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
    cancel: &CancelToken,
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
        Some(store),
        opts,
        cancel,
        observe,
        &mut ClosureHooks(on_chunk),
    )
}

/// The one chunk loop: [`run_supervised`] with full [`SupervisedHooks`]
/// and an optional store.
///
/// Each chunk goes: cancellation check, [`SupervisedHooks::before_chunk`],
/// the chunk, [`SupervisedHooks::on_chunk`], audit (and ladder), `observe`,
/// snapshot. A chunk at which `on_chunk` breaks skips the
/// snapshot, so this loop alone decides what a resume point is.
///
/// With a store, the ladder and the determinism contract are
/// [`run_supervised`]'s, and the sidecar ([`SupervisedHooks::encode_aux`])
/// is persisted inside every snapshot and restored on resume and rollback.
///
/// Without a store, the run starts at step 0 and writes no snapshot, and
/// the ladder has no rollback rung: repair still runs, and an audit that
/// repair cannot fix ends the run. Chunks are audited at
/// [`SupervisedOptions::audit_every`]'s cadence.
///
/// # Errors
///
/// As [`run_supervised`]; additionally surfaces a sidecar that fails to
/// restore as [`CheckpointError::Corrupt`]. Without a store,
/// [`CheckpointError::AuditFailed`] means repair failed, with no rollback
/// tried.
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
    store: Option<&CheckpointStore>,
    opts: &SupervisedOptions,
    cancel: &CancelToken,
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
    let mut run = SupervisedRun {
        completed: true,
        ..SupervisedRun::default()
    };
    let corrupt = |reason| CheckpointError::Corrupt {
        path: store.map_or_else(PathBuf::new, |s| s.dir().to_path_buf()),
        reason,
    };
    if let Some(store) = store {
        let rec = match store.recover::<C::State>() {
            Ok(rec) => rec,
            // The store's cancel token fired before the run even started:
            // nothing was touched, report a clean zero-step cancellation.
            Err(CheckpointError::Cancelled) => {
                run.events.push(RecoveryEvent::Cancelled { step: 0 });
                run.completed = false;
                return Ok(run);
            }
            Err(e) => return Err(e),
        };
        (run.rejected, run.reaped) = (rec.rejected, rec.reaped);
        if let Some(ckpt) = rec.checkpoint.filter(|c| c.step <= opts.steps) {
            *state = ckpt.state;
            rng.restore_rng_state(&ckpt.rng_state).map_err(corrupt)?;
            hooks.restore_aux(state, &ckpt.aux).map_err(corrupt)?;
            (run.steps, run.accepted) = (ckpt.step, ckpt.accepted);
            run.resumed_from = Some(ckpt.step);
            run.last_durable_step = run.resumed_from;
        }
    }
    // A restored state is bit-identical to the state at its step, so the
    // log from here on equals an uninterrupted run's.
    run.log.push((run.steps, observe(state)));

    // The rollback anchor of last resort: when no checkpoint has been
    // written yet, the ladder restores this entry-point snapshot.
    let entry = store.map(|_| Checkpoint {
        step: run.steps,
        accepted: run.accepted,
        rng_state: rng.rng_state(),
        log: Vec::new(),
        state: state.encode_state(),
        aux: hooks.encode_aux(),
    });

    let mut rollbacks = 0u32;
    let mut since_audit = 0u64;
    while run.steps < opts.steps {
        if cancel.is_cancelled() {
            run.events
                .push(RecoveryEvent::Cancelled { step: run.steps });
            run.completed = false;
            break;
        }
        if hooks.before_chunk().is_break() {
            run.completed = false;
            break;
        }

        let burst = opts.every.min(opts.steps - run.steps);
        run.accepted += chain.run(state, burst, rng);
        run.steps += burst;
        let t = run.steps;
        let flow = hooks.on_chunk(t, state);

        // The escalation ladder. A chunk about to be persisted is always
        // audited, so no snapshot holds an invariant-violating state.
        since_audit += burst;
        let audit_due =
            store.is_some() || opts.audit_every.is_some_and(|every| since_audit >= every);
        let violations = if audit_due {
            since_audit = 0;
            state.audit_violations()
        } else {
            Vec::new()
        };
        if !violations.is_empty() {
            let repaired = match state.repair_state() {
                Ok(actions) if state.audit_violations().is_empty() => Some(actions),
                _ => None,
            };
            if let Some(actions) = repaired {
                run.events
                    .push(RecoveryEvent::Repaired { step: t, actions });
            } else {
                rollbacks += 1;
                let (Some(store), Some(entry)) =
                    (store.filter(|_| rollbacks <= opts.max_rollbacks), &entry)
                else {
                    return Err(CheckpointError::AuditFailed {
                        step: t,
                        violations,
                    });
                };
                // Restore the newest durable snapshot; an invariant-
                // violating state is never persisted, so anything on disk
                // is trustworthy. Fall back to the entry-point snapshot
                // when nothing has been written yet.
                let rec = match store.recover::<C::State>() {
                    Ok(rec) => rec,
                    Err(CheckpointError::Cancelled) => {
                        run.events.push(RecoveryEvent::Cancelled { step: t });
                        run.completed = false;
                        break;
                    }
                    Err(e) => return Err(e),
                };
                let to_step = match rec.checkpoint {
                    Some(ckpt) => {
                        *state = ckpt.state;
                        rng.restore_rng_state(&ckpt.rng_state).map_err(corrupt)?;
                        // The sidecar rolls back with the state, so the
                        // replayed span feeds the hooks the same stream a
                        // fault-free run would have.
                        hooks.restore_aux(state, &ckpt.aux).map_err(corrupt)?;
                        run.accepted = ckpt.accepted;
                        run.last_durable_step = Some(ckpt.step);
                        ckpt.step
                    }
                    None => {
                        *state = C::State::decode_state(&entry.state).map_err(corrupt)?;
                        rng.restore_rng_state(&entry.rng_state).map_err(corrupt)?;
                        hooks.restore_aux(state, &entry.aux).map_err(corrupt)?;
                        run.accepted = entry.accepted;
                        entry.step
                    }
                };
                run.steps = to_step;
                // The samples past the restored step are replayed, so they
                // are dropped here and logged again.
                run.log.retain(|&(step, _)| step <= to_step);
                run.events.push(RecoveryEvent::RolledBack {
                    from_step: t,
                    to_step,
                    violations,
                });
                continue;
            }
        }

        run.log.push((t, observe(state)));
        // A stopping chunk is not a resume point: a resume replays it, so
        // the hooks make their stop decision again instead of inheriting it.
        if flow.is_break() {
            break;
        }
        if let Some(store) = store {
            let aux = hooks.encode_aux();
            match store.save_parts_aux(t, run.accepted, &rng.rng_state(), &[], state, &aux) {
                Ok(_) => {
                    run.snapshots_written += 1;
                    run.last_durable_step = Some(t);
                }
                // Cancellation observed inside checkpoint I/O: the save was
                // abandoned before the atomic rename (at worst a tmp orphan
                // remains, reaped on the next recovery), so the previous
                // durable snapshot still stands. Exit cleanly.
                Err(CheckpointError::Cancelled) => {
                    run.events.push(RecoveryEvent::Cancelled { step: t });
                    run.completed = false;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(run)
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
        audit_every: None,
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
            &CancelToken::new(),
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
            &CancelToken::new(),
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
            &CancelToken::new(),
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
            &CancelToken::new(),
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
            &CancelToken::new(),
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
            audit_every: None,
        };
        let mut state = Cached::new(0);
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &opts,
            &CancelToken::new(),
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
            &CancelToken::new(),
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
        let token = CancelToken::new();
        let mut state = Cached::new(0);
        let mut rng = StdRng::seed_from_u64(42);
        let run = run_supervised(
            &CachedWalk(97),
            &mut state,
            &mut rng,
            &store,
            &OPTS,
            &token,
            |s| s.x as f64,
            |t, _| {
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
        // The chunk that observed the cancel was still persisted (cancel
        // is only checked at the loop top), so resume starts from here.
        assert_eq!(run.last_durable_step, Some(2_000));
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
            &CancelToken::new(),
            |s| s.x as f64,
            |t, _| {
                // Cancel only the *store's* token: the run's token stays
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
    fn on_chunk_break_is_not_persisted_and_replays_on_resume() {
        let scratch = Scratch::new("break");
        let store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let run = |seed| {
            let mut state = Cached::new(0);
            let mut rng = StdRng::seed_from_u64(seed);
            let run = run_supervised(
                &CachedWalk(97),
                &mut state,
                &mut rng,
                &store,
                &OPTS,
                &CancelToken::new(),
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
            (run, state, rng.to_state_bytes().to_vec())
        };
        let (first, state, rng) = run(42);
        assert!(first.completed);
        assert_eq!(first.steps, 3_000);
        // The stopping chunk was not persisted: the resume point is the
        // chunk before it.
        assert_eq!(first.snapshots_written, 2);
        assert_eq!(first.last_durable_step, Some(2_000));
        assert_eq!(store.newest_step().unwrap(), Some(2_000));
        // A later invocation replays the stopping chunk and stops exactly
        // where the first did (the wrong seed is overwritten on resume).
        let (second, resumed_state, resumed_rng) = run(999);
        assert_eq!(second.resumed_from, Some(2_000));
        assert_eq!(second.steps, 3_000);
        assert_eq!(second.snapshots_written, 0);
        assert_eq!(resumed_state, state);
        assert_eq!(resumed_rng, rng);
    }
}
