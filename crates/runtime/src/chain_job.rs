//! [`run_chain`] and [`run_chain_monitored`] — how every chain-driving
//! bin runs a chain under its cell's budget.
//!
//! Both are thin wrappers over one private driver that runs
//! `sops-chains`' one chunk loop, [`run_supervised_hooked`], with one
//! [`SupervisedHooks`] impl. With a checkpoint store the loop resumes from
//! it, walks the full escalation ladder (audit → repair → rollback) and
//! persists every chunk; without one it writes nothing and has no
//! rollback rung, but still audits and repairs at the job's `audit_every`
//! cadence. The driver adds the budget of the [`crate::ResourceBudget`]:
//! requested steps are clamped to the step cap, the hooks' `before_chunk`
//! checks the wall-clock deadline before every chunk, and any budget trip
//! ends the job degraded — with its last durable checkpoint step on record
//! — instead of wedged or failed. The deadline never cuts a chunk short:
//! the chunk in flight when it passes runs to its end (and, with a store,
//! is persisted), and the job stops before the next one.

use std::cell::RefCell;
use std::ops::ControlFlow;

use rand::Rng;
use sops_chains::{
    run_supervised_hooked, Auditable, CheckpointError, CheckpointStore, ConvergenceMonitor,
    Diagnostics, MarkovChain, Repairable, SnapshotRng, StateCodec, SupervisedHooks,
    SupervisedOptions, SupervisedRun,
};

use crate::error::{DegradeReason, JobError};
use crate::events::RuntimeEvent;
use crate::runner::JobContext;

/// One chain-driving job description for [`run_chain`].
#[derive(Clone, Copy, Debug)]
pub struct ChainJob<'a> {
    /// Requested steps (clamped to the budget's step cap).
    pub steps: u64,
    /// Chunk length: the audit, checkpoint and deadline-check interval.
    pub every: u64,
    /// Checkpoint store to resume from and persist into; `None` runs
    /// storeless (no snapshot and no rollback rung, but still audits,
    /// repairs, and checks the budget).
    pub store: Option<&'a CheckpointStore>,
    /// Storeless audit interval (a job with a store audits every chunk
    /// regardless).
    pub audit_every: Option<u64>,
}

/// Runs a chain job under the cell's [`JobContext`]: checkpointed when
/// the job has a store, storeless otherwise.
///
/// The step request is clamped to the budget's cap, and no chunk starts
/// past the wall-clock deadline. Either budget trip marks the cell
/// degraded on `ctx` with the newest durable checkpoint step any run of
/// the cell reported (so a storeless run after a checkpointed one
/// names the latter's snapshot); the partial
/// [`SupervisedRun`] is still returned so the caller can report partial
/// results. A repair or rollback marks the cell recovered.
///
/// The `on_chunk` hook is the caller's early-exit and side-channel seam
/// (telemetry flushes, hitting-time checks). It runs after each chunk,
/// before the audit, and breaking out of it is a *successful* early
/// exit, not a degradation. The chunk it breaks at is not persisted, so
/// the same job run again on the same store replays it and stops at the
/// same step.
///
/// # Errors
///
/// Returns a typed [`JobError`] on storage failure, corrupt checkpoints,
/// an audit that repair could not fix (`AuditFailed` without a store), or
/// an exhausted rollback ladder (`RollbackBudgetExhausted` with one).
pub fn run_chain<C, R, F, G>(
    ctx: &JobContext,
    chain: &C,
    state: &mut C::State,
    rng: &mut R,
    job: ChainJob<'_>,
    observe: F,
    on_chunk: G,
) -> Result<SupervisedRun, JobError>
where
    C: MarkovChain,
    C::State: StateCodec + Auditable + Repairable,
    R: Rng + SnapshotRng + ?Sized,
    F: FnMut(&C::State) -> f64,
    G: FnMut(u64, &mut C::State) -> ControlFlow<()>,
{
    let no_certificate = |_: &C::State| false;
    drive(
        ctx,
        chain,
        state,
        rng,
        job,
        None,
        observe,
        no_certificate,
        on_chunk,
    )
    .map(|(run, _)| run)
}

/// Why a monitored chain job stopped short of its step request for a
/// *good* reason (as opposed to a [`DegradeReason`], which records budget
/// trips).
#[derive(Clone, Debug, PartialEq)]
pub enum StopReason {
    /// Every test of the monitor held: the chain is statistically
    /// converged and the rest of the step budget was left unspent.
    Converged {
        /// Step count at which the monitor latched its decision.
        step: u64,
        /// The monitor's diagnostics snapshot at decision time
        /// (acceptance plateau delta, ESS, split-R̂, certificate streak).
        diagnostics: Diagnostics,
    },
}

/// Runs a chain job like [`run_chain`], but under a
/// [`ConvergenceMonitor`]: after every chunk, before the caller's
/// `on_chunk`, the monitor observes `sample(state)` and `certify(state)`,
/// and once its tests all hold the job ends early with `Ok`
/// status, a [`RuntimeEvent::Converged`] on the context, and
/// [`StopReason::Converged`] in the returned pair. `sample` is also the
/// run's observable.
///
/// With a store, the monitor's decision state rides the checkpoint aux
/// sidecar: a killed run resumed against the same store replays to the
/// *bit-identical* stop decision (same step, same diagnostics), and
/// rollback restores the monitor alongside the chain state so replayed
/// spans are not double-counted. The chunk the monitor stops at is not
/// persisted, so a run resumed on a finished store replays that chunk and
/// latches again at the same step.
///
/// `certify` may keep history between calls (fig3's compares each
/// classification with the previous one). That history lives in the
/// closure, not in the sidecar, so on resume and after every rollback
/// the restored state is passed to `certify` once and the result is
/// discarded: the certificate restarts where the snapshot left it. (A
/// rollback to a fresh run's step-0 entry state primes it too, though
/// an uninterrupted run never certifies step 0.)
///
/// The monitor is borrowed rather than constructed here so callers
/// choose its certificate streak; build a fresh monitor per run — with a
/// store, a resumed run restores it from the snapshot's sidecar.
///
/// # Errors
///
/// Same failure surface as [`run_chain`].
#[allow(clippy::too_many_arguments)]
pub fn run_chain_monitored<C, R, F, P, G>(
    ctx: &JobContext,
    chain: &C,
    state: &mut C::State,
    rng: &mut R,
    job: ChainJob<'_>,
    monitor: &mut ConvergenceMonitor,
    sample: F,
    certify: P,
    on_chunk: G,
) -> Result<(SupervisedRun, Option<StopReason>), JobError>
where
    C: MarkovChain,
    C::State: StateCodec + Auditable + Repairable,
    R: Rng + SnapshotRng + ?Sized,
    F: FnMut(&C::State) -> f64,
    P: FnMut(&C::State) -> bool,
    G: FnMut(u64, &mut C::State) -> ControlFlow<()>,
{
    drive(
        ctx,
        chain,
        state,
        rng,
        job,
        Some(monitor),
        sample,
        certify,
        on_chunk,
    )
}

/// The one [`SupervisedHooks`] impl behind both entry points: it stops
/// the run before a chunk once the deadline has passed, feeds the
/// optional [`ConvergenceMonitor`] (whose decision state is the
/// checkpoint sidecar, and whose certificate is re-primed with every
/// restored state), then calls the caller's `on_chunk`.
struct JobHooks<'a, F, P, G> {
    ctx: &'a JobContext,
    monitor: Option<&'a mut ConvergenceMonitor>,
    sample: &'a RefCell<F>,
    certify: P,
    on_chunk: G,
    deadline_tripped: bool,
}

impl<S, F, P, G> SupervisedHooks<S> for JobHooks<'_, F, P, G>
where
    F: FnMut(&S) -> f64,
    P: FnMut(&S) -> bool,
    G: FnMut(u64, &mut S) -> ControlFlow<()>,
{
    fn before_chunk(&mut self) -> ControlFlow<()> {
        self.deadline_tripped = self.ctx.deadline_exceeded();
        if self.deadline_tripped {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn on_chunk(&mut self, step: u64, state: &mut S) -> ControlFlow<()> {
        if let Some(monitor) = self.monitor.as_deref_mut() {
            let value = (self.sample.borrow_mut())(state);
            monitor.observe(step, value, (self.certify)(state));
            if monitor.converged().is_some() {
                return ControlFlow::Break(());
            }
        }
        (self.on_chunk)(step, state)
    }

    fn encode_aux(&self) -> Vec<u8> {
        self.monitor
            .as_deref()
            .map_or_else(Vec::new, ConvergenceMonitor::encode)
    }

    fn restore_aux(&mut self, state: &S, bytes: &[u8]) -> Result<(), String> {
        match self.monitor.as_deref_mut() {
            Some(monitor) => {
                let _ = (self.certify)(state);
                monitor.restore(bytes)
            }
            None => Ok(()),
        }
    }
}

/// The driver of [`run_chain`] and [`run_chain_monitored`]: budget clamp,
/// the chunk loop, error mapping, and the cell's recovery, degradation
/// and convergence records.
#[allow(clippy::too_many_arguments)]
fn drive<C, R, F, P, G>(
    ctx: &JobContext,
    chain: &C,
    state: &mut C::State,
    rng: &mut R,
    job: ChainJob<'_>,
    monitor: Option<&mut ConvergenceMonitor>,
    sample: F,
    certify: P,
    on_chunk: G,
) -> Result<(SupervisedRun, Option<StopReason>), JobError>
where
    C: MarkovChain,
    C::State: StateCodec + Auditable + Repairable,
    R: Rng + SnapshotRng + ?Sized,
    F: FnMut(&C::State) -> f64,
    P: FnMut(&C::State) -> bool,
    G: FnMut(u64, &mut C::State) -> ControlFlow<()>,
{
    let steps = ctx.budget().clamp_steps(job.steps);
    let opts = SupervisedOptions {
        steps,
        every: job.every,
        max_rollbacks: ctx.budget().max_rollbacks,
        audit_every: job.audit_every,
    };
    // `sample` is both the run's observable and the monitor's feed; the
    // `RefCell` lets the two seams share one `FnMut`.
    let sample = RefCell::new(sample);
    let mut hooks = JobHooks {
        ctx,
        monitor,
        sample: &sample,
        certify,
        on_chunk,
        deadline_tripped: false,
    };
    let run = run_supervised_hooked(
        chain,
        state,
        rng,
        job.store,
        &opts,
        |s| (sample.borrow_mut())(s),
        &mut hooks,
    )
    .map_err(|e| match e {
        // Without a store there is no rollback rung, so no rollback
        // budget was spent: the audit itself failed.
        CheckpointError::AuditFailed { step, violations } if job.store.is_none() => {
            JobError::AuditFailed { step, violations }
        }
        other => JobError::from(other),
    })?;
    ctx.absorb(&run);
    let converged = hooks
        .monitor
        .as_deref()
        .and_then(ConvergenceMonitor::converged);
    if hooks.deadline_tripped {
        ctx.note_degraded(DegradeReason::DeadlineExceeded, ctx.last_durable_step());
    } else if steps < job.steps && run.completed && run.steps >= steps && converged.is_none() {
        ctx.note_degraded(DegradeReason::StepBudgetExhausted, ctx.last_durable_step());
    }
    let stop = converged.map(|(step, diagnostics)| {
        ctx.emit(RuntimeEvent::Converged {
            step,
            diagnostics: diagnostics.to_json(),
        });
        StopReason::Converged {
            step,
            diagnostics: diagnostics.clone(),
        }
    });
    Ok((run, stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_cells, CellStatus, RecoveryEvent, ResourceBudget, SweepOptions};
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
                "sops-runtime-chainjob-{}-{tag}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Minimal checkpointable state: a counter whose audit fails while a
    /// fault is injected — `drift` (repairable) or `poisoned` (not).
    /// Neither is encoded, so a decoded counter is clean.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Counter {
        x: u64,
        drift: u64,
        poisoned: bool,
    }

    impl StateCodec for Counter {
        fn encode_state(&self) -> Vec<u8> {
            self.x.to_le_bytes().to_vec()
        }
        fn decode_state(bytes: &[u8]) -> Result<Self, String> {
            let arr: [u8; 8] = bytes.try_into().map_err(|_| "bad length".to_string())?;
            Ok(Counter {
                x: u64::from_le_bytes(arr),
                ..Counter::default()
            })
        }
    }

    impl Auditable for Counter {
        fn audit_violations(&self) -> Vec<String> {
            let mut violations = Vec::new();
            if self.drift != 0 {
                violations.push(format!("cache drift {}", self.drift));
            }
            if self.poisoned {
                violations.push("structural poison".to_string());
            }
            violations
        }
    }

    impl Repairable for Counter {
        fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
            if self.poisoned {
                return Err(vec!["structural poison is not repairable".into()]);
            }
            self.drift = 0;
            Ok(vec!["rebuilt cache".into()])
        }
    }

    /// Lazy walk: increments with probability 1/2.
    struct Walk;

    impl MarkovChain for Walk {
        type State = Counter;
        fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
            if rng.random_range(0..2u8) == 0 {
                s.x += 1;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn step_budget_clamps_and_degrades_storeless_runs() {
        let opts = SweepOptions {
            budget: ResourceBudget {
                max_steps: Some(6_000),
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        };
        let outcomes = run_cells(vec!["cell"], &opts, |_, ctx| {
            let mut state = Counter::default();
            let mut rng = StdRng::seed_from_u64(7);
            let job = ChainJob {
                steps: 12_000,
                every: 1_000,
                store: None,
                audit_every: Some(2_000),
            };
            let run = run_chain(
                ctx,
                &Walk,
                &mut state,
                &mut rng,
                job,
                |s| s.x as f64,
                |_, _| ControlFlow::Continue(()),
            )?;
            Ok(run.steps)
        });
        assert_eq!(outcomes[0].result, Some(6_000));
        assert_eq!(
            outcomes[0].status,
            CellStatus::Degraded {
                reason: crate::DegradeReason::StepBudgetExhausted,
                last_durable_step: None,
            }
        );
    }

    #[test]
    fn early_exit_via_on_chunk_is_not_degraded() {
        let outcomes = run_cells(vec!["cell"], &SweepOptions::default(), |_, ctx| {
            let mut state = Counter::default();
            let mut rng = StdRng::seed_from_u64(7);
            let job = ChainJob {
                steps: 100_000,
                every: 1_000,
                store: None,
                audit_every: None,
            };
            let run = run_chain(
                ctx,
                &Walk,
                &mut state,
                &mut rng,
                job,
                |s| s.x as f64,
                |t, _| {
                    if t >= 3_000 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            )?;
            Ok(run.steps)
        });
        assert_eq!(outcomes[0].result, Some(3_000));
        assert_eq!(outcomes[0].status, CellStatus::Ok);
    }

    #[test]
    fn supervised_step_budget_leaves_a_durable_checkpoint() {
        let scratch = Scratch::new("cap");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let opts = SweepOptions {
            budget: ResourceBudget {
                max_steps: Some(4_000),
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        };
        let outcomes = run_cells(vec!["cell"], &opts, |_, ctx| {
            let mut state = Counter::default();
            let mut rng = StdRng::seed_from_u64(9);
            let job = ChainJob {
                steps: 50_000,
                every: 1_000,
                store: Some(&store),
                audit_every: None,
            };
            let run = run_chain(
                ctx,
                &Walk,
                &mut state,
                &mut rng,
                job,
                |s| s.x as f64,
                |_, _| ControlFlow::Continue(()),
            )?;
            Ok(run.steps)
        });
        assert_eq!(outcomes[0].result, Some(4_000));
        assert_eq!(
            outcomes[0].status,
            CellStatus::Degraded {
                reason: crate::DegradeReason::StepBudgetExhausted,
                last_durable_step: Some(4_000),
            }
        );
        // The checkpoint named by the status is durable and loadable.
        let rec = store.recover::<Counter>().unwrap();
        assert_eq!(rec.checkpoint.unwrap().step, 4_000);
    }

    /// A chain that stops moving after 5000 accepted steps, so its
    /// observable plateaus and the separation certificate holds.
    struct Freezes;

    impl MarkovChain for Freezes {
        type State = Counter;
        fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
            if s.x < 5_000 && rng.random_range(0..2u8) == 0 {
                s.x += 1;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn monitored_storeless_run_stops_converged_not_degraded() {
        let opts = SweepOptions {
            budget: ResourceBudget {
                max_steps: Some(400_000),
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        };
        let outcomes = run_cells(vec!["cell"], &opts, |_, ctx| {
            let mut state = Counter::default();
            let mut rng = StdRng::seed_from_u64(11);
            let job = ChainJob {
                steps: 1_000_000,
                every: 1_000,
                store: None,
                audit_every: None,
            };
            let mut monitor = ConvergenceMonitor::new(2);
            let (run, stop) = run_chain_monitored(
                ctx,
                &Freezes,
                &mut state,
                &mut rng,
                job,
                &mut monitor,
                |s| s.x as f64,
                |s| s.x >= 5_000,
                |_, _| ControlFlow::Continue(()),
            )?;
            let Some(StopReason::Converged { step, diagnostics }) = stop else {
                panic!("expected a convergence stop, got {stop:?}");
            };
            assert!(step < run.steps + 1, "stop step precedes run end");
            assert!(diagnostics.get("certificate_streak").unwrap() >= 2.0);
            Ok(step)
        });
        // Converged well before the (clamped) budget, and the step cap
        // must NOT be reported as a degradation.
        let stop_step = outcomes[0].result.expect("cell result");
        assert!(stop_step < 400_000);
        assert_eq!(outcomes[0].status, CellStatus::Ok);
    }

    #[test]
    fn monitored_supervised_run_emits_event_and_replays_its_stop() {
        let scratch = Scratch::new("monitored");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let leg = || {
            let outcomes = run_cells(vec!["cell"], &SweepOptions::default(), |_, ctx| {
                let mut state = Counter::default();
                let mut rng = StdRng::seed_from_u64(11);
                let job = ChainJob {
                    steps: 1_000_000,
                    every: 1_000,
                    store: Some(&store),
                    audit_every: None,
                };
                let mut monitor = ConvergenceMonitor::new(2);
                let (_, stop) = run_chain_monitored(
                    ctx,
                    &Freezes,
                    &mut state,
                    &mut rng,
                    job,
                    &mut monitor,
                    |s| s.x as f64,
                    |s| s.x >= 5_000,
                    |_, _| ControlFlow::Continue(()),
                )?;
                let Some(StopReason::Converged { step, .. }) = stop else {
                    panic!("expected a convergence stop, got {stop:?}");
                };
                Ok(step)
            });
            assert_eq!(outcomes[0].status, CellStatus::Ok);
            assert!(
                outcomes[0].events.iter().any(|e| e.kind() == "converged"),
                "converged event reaches the cell outcome: {:?}",
                outcomes[0].events
            );
            outcomes[0].result.expect("cell result")
        };
        let stop = leg();
        // The stopping chunk was not persisted: the newest snapshot is the
        // chunk before it, and its sidecar holds the monitor unlatched.
        let ckpt = store.recover::<Counter>().unwrap().checkpoint.unwrap();
        assert_eq!(ckpt.step, stop - 1_000);
        assert!(!ckpt.aux.is_empty(), "aux sidecar persisted");
        let mut restored = ConvergenceMonitor::new(2);
        restored.restore(&ckpt.aux).unwrap();
        assert!(restored.converged().is_none());
        // Run on the finished store, the job replays the stopping chunk and
        // latches at the same step.
        assert_eq!(leg(), stop);
    }

    #[test]
    fn a_stopped_run_replays_to_the_same_stop_on_its_store() {
        let scratch = Scratch::new("replay");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let leg = || {
            let outcomes = run_cells(vec!["cell"], &SweepOptions::default(), |_, ctx| {
                let mut state = Counter::default();
                let mut rng = StdRng::seed_from_u64(17);
                let job = ChainJob {
                    steps: 100_000,
                    every: 1_000,
                    store: Some(&store),
                    audit_every: None,
                };
                let run = run_chain(
                    ctx,
                    &Walk,
                    &mut state,
                    &mut rng,
                    job,
                    |s| s.x as f64,
                    |t, _| {
                        if t >= 3_000 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    },
                )?;
                Ok((run.steps, state.encode_state(), rng.rng_state()))
            });
            assert_eq!(outcomes[0].status, CellStatus::Ok);
            outcomes.into_iter().next().unwrap().result.unwrap()
        };
        let first = leg();
        assert_eq!(first.0, 3_000);
        assert_eq!(leg(), first);
    }

    #[test]
    fn a_storeless_run_degrades_with_an_earlier_runs_durable_step() {
        let scratch = Scratch::new("two-runs");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let opts = SweepOptions {
            budget: ResourceBudget {
                deadline: Some(std::time::Duration::from_millis(300)),
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        };
        let outcomes = run_cells(vec!["cell"], &opts, |_, ctx| {
            let mut state = Counter::default();
            let mut rng = StdRng::seed_from_u64(21);
            let job = ChainJob {
                steps: 2_000,
                every: 1_000,
                store: Some(&store),
                audit_every: None,
            };
            let walk = |state: &mut Counter, rng: &mut StdRng, job| {
                run_chain(
                    ctx,
                    &Walk,
                    state,
                    rng,
                    job,
                    |s| s.x as f64,
                    |_, _| ControlFlow::Continue(()),
                )
            };
            walk(&mut state, &mut rng, job)?;
            // The deadline passes before the storeless phase starts, so it
            // stops before its first chunk.
            while !ctx.deadline_exceeded() {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let run = walk(&mut state, &mut rng, ChainJob { store: None, ..job })?;
            Ok(run.steps)
        });
        assert_eq!(outcomes[0].result, Some(0));
        assert_eq!(
            outcomes[0].status,
            CellStatus::Degraded {
                reason: crate::DegradeReason::DeadlineExceeded,
                last_durable_step: Some(2_000),
            }
        );
    }

    #[test]
    fn zero_deadline_degrades_before_any_step() {
        let opts = SweepOptions {
            budget: ResourceBudget {
                deadline: Some(std::time::Duration::ZERO),
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        };
        for with_store in [false, true] {
            let scratch = Scratch::new("deadline");
            let store = CheckpointStore::open(&scratch.0, 3).unwrap();
            let outcomes = run_cells(vec!["cell"], &opts, |_, ctx| {
                let mut state = Counter::default();
                let mut rng = StdRng::seed_from_u64(3);
                let job = ChainJob {
                    steps: 10_000,
                    every: 1_000,
                    store: with_store.then_some(&store),
                    audit_every: None,
                };
                let run = run_chain(
                    ctx,
                    &Walk,
                    &mut state,
                    &mut rng,
                    job,
                    |s| s.x as f64,
                    |_, _| ControlFlow::Continue(()),
                )?;
                Ok(run.steps)
            });
            assert_eq!(outcomes[0].result, Some(0), "with store: {with_store}");
            assert!(
                matches!(
                    outcomes[0].status,
                    CellStatus::Degraded {
                        reason: crate::DegradeReason::DeadlineExceeded,
                        ..
                    }
                ),
                "with store: {with_store}: {:?}",
                outcomes[0].status
            );
            // No chunk ran, so none was persisted.
            assert_eq!(store.newest_step().unwrap(), None);
        }
    }

    /// Runs 6,000 steps of the walk in chunks of 1,000, storeless with an
    /// audit every 2,000 steps or with `store`, letting `inject` corrupt
    /// the state after each chunk. Returns the run's ladder events.
    fn faulted_cell(
        ctx: &JobContext,
        store: Option<&CheckpointStore>,
        inject: impl Fn(u64, &mut Counter),
    ) -> Result<Vec<RecoveryEvent>, JobError> {
        let mut state = Counter::default();
        let mut rng = StdRng::seed_from_u64(5);
        let job = ChainJob {
            steps: 6_000,
            every: 1_000,
            store,
            audit_every: Some(2_000),
        };
        let run = run_chain(
            ctx,
            &Walk,
            &mut state,
            &mut rng,
            job,
            |s| s.x as f64,
            |t, s| {
                inject(t, s);
                ControlFlow::Continue(())
            },
        )?;
        Ok(run.events)
    }

    #[test]
    fn storeless_repairable_fault_is_repaired_at_the_audit_cadence() {
        let outcomes = run_cells(vec!["cell"], &SweepOptions::default(), |_, ctx| {
            faulted_cell(ctx, None, |t, s| {
                if t == 3_000 {
                    s.drift = 7;
                }
            })
        });
        assert_eq!(outcomes[0].status, CellStatus::Recovered);
        assert!(
            outcomes[0].events.iter().any(|e| e.kind() == "repaired"),
            "{:?}",
            outcomes[0].events
        );
        // Injected after step 3000, found by the next audit at step 4000.
        let events = outcomes[0].result.as_ref().expect("cell result");
        assert!(
            matches!(
                events.as_slice(),
                [RecoveryEvent::Repaired { step: 4_000, .. }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn unrepairable_fault_fails_as_audit_failed_only_without_a_store() {
        // Poisoned after every chunk: repair never helps, and with a store
        // each rollback replays into the poison again.
        let poison = |_: u64, s: &mut Counter| s.poisoned = true;
        let storeless = run_cells(vec!["cell"], &SweepOptions::default(), |_, ctx| {
            faulted_cell(ctx, None, poison)
        });
        assert_eq!(storeless[0].status, CellStatus::Failed);
        assert_eq!(storeless[0].error.as_ref().unwrap().kind(), "audit_failed");

        let scratch = Scratch::new("poison");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let stored = run_cells(vec!["cell"], &SweepOptions::default(), |_, ctx| {
            faulted_cell(ctx, Some(&store), poison)
        });
        assert_eq!(stored[0].status, CellStatus::Failed);
        assert_eq!(
            stored[0].error.as_ref().unwrap().kind(),
            "rollback_budget_exhausted"
        );
    }

    /// What a parity run ends with: state bytes, RNG bytes, steps,
    /// accepted steps, the log as exact bits, and the stop decision.
    type Ending = (
        Vec<u8>,
        Vec<u8>,
        u64,
        u64,
        Vec<(u64, u64)>,
        Option<StopReason>,
    );

    fn parity_run(store: Option<&CheckpointStore>, monitored: bool) -> Ending {
        let outcomes = run_cells(vec!["cell"], &SweepOptions::default(), |_, ctx| {
            let mut state = Counter::default();
            let mut rng = StdRng::seed_from_u64(13);
            let job = ChainJob {
                steps: 100_000,
                every: 1_000,
                store,
                audit_every: Some(1_000),
            };
            let (run, stop) = if monitored {
                run_chain_monitored(
                    ctx,
                    &Freezes,
                    &mut state,
                    &mut rng,
                    job,
                    &mut ConvergenceMonitor::new(2),
                    |s| s.x as f64,
                    |s| s.x >= 5_000,
                    |_, _| ControlFlow::Continue(()),
                )?
            } else {
                let run = run_chain(
                    ctx,
                    &Freezes,
                    &mut state,
                    &mut rng,
                    job,
                    |s| s.x as f64,
                    |_, _| ControlFlow::Continue(()),
                )?;
                (run, None)
            };
            let log = run.log.iter().map(|&(t, v)| (t, v.to_bits())).collect();
            Ok((
                state.encode_state(),
                rng.rng_state(),
                run.steps,
                run.accepted,
                log,
                stop,
            ))
        });
        assert_eq!(outcomes[0].status, CellStatus::Ok);
        outcomes.into_iter().next().unwrap().result.unwrap()
    }

    #[test]
    fn storeless_and_store_backed_jobs_end_identically() {
        for monitored in [false, true] {
            let scratch = Scratch::new("parity");
            let store = CheckpointStore::open(&scratch.0, 3).unwrap();
            let storeless = parity_run(None, monitored);
            let stored = parity_run(Some(&store), monitored);
            assert_eq!(storeless, stored, "monitored: {monitored}");
            // The monitored job stops on convergence, the plain one runs
            // its whole budget.
            assert_eq!(storeless.5.is_some(), monitored);
            assert_eq!(storeless.2 < 100_000, monitored);
        }
    }

    /// [`Walk`] whose every chunk first sleeps 60 ms.
    struct SlowWalk;

    impl MarkovChain for SlowWalk {
        type State = Counter;
        fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
            Walk.step(s, rng)
        }
        fn run<R: Rng + ?Sized>(&self, s: &mut Counter, steps: u64, rng: &mut R) -> u64 {
            std::thread::sleep(std::time::Duration::from_millis(60));
            Walk.run(s, steps, rng)
        }
    }

    fn deadline_opts(ms: u64) -> SweepOptions {
        SweepOptions {
            budget: ResourceBudget {
                deadline: Some(std::time::Duration::from_millis(ms)),
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        }
    }

    #[test]
    fn a_cell_whose_chain_finished_before_the_deadline_ends_ok() {
        let scratch = Scratch::new("epilogue");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let outcomes = run_cells(vec!["cell"], &deadline_opts(100), |_, ctx| {
            let mut state = Counter::default();
            let mut rng = StdRng::seed_from_u64(23);
            let job = ChainJob {
                steps: 5_000,
                every: 1_000,
                store: Some(&store),
                audit_every: None,
            };
            let run = run_chain(
                ctx,
                &Walk,
                &mut state,
                &mut rng,
                job,
                |s| s.x as f64,
                |_, _| ControlFlow::Continue(()),
            )?;
            // Assembling the result outlasts the deadline; the chain is
            // already done, so nothing is left for the deadline to stop.
            std::thread::sleep(std::time::Duration::from_millis(300));
            Ok((run.steps, run.completed))
        });
        assert_eq!(outcomes[0].status, CellStatus::Ok, "{:?}", outcomes[0]);
        assert_eq!(outcomes[0].result, Some((5_000, true)));
        assert_eq!(store.newest_step().unwrap(), Some(5_000));
    }

    #[test]
    fn a_deadline_trip_persists_the_chunk_in_flight() {
        let scratch = Scratch::new("in-flight");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let outcomes = run_cells(vec!["cell"], &deadline_opts(100), |_, ctx| {
            let mut state = Counter::default();
            let mut rng = StdRng::seed_from_u64(29);
            let job = ChainJob {
                steps: 1_000_000,
                every: 1_000,
                store: Some(&store),
                audit_every: None,
            };
            let run = run_chain(
                ctx,
                &SlowWalk,
                &mut state,
                &mut rng,
                job,
                |s| s.x as f64,
                |_, _| ControlFlow::Continue(()),
            )?;
            Ok(run.steps)
        });
        let outcome = &outcomes[0];
        let steps = outcome.result.expect("a degraded cell keeps its result");
        // The chunk that straddles the deadline ran to its end and was
        // persisted; the cell stopped before the next one.
        assert_eq!(
            outcome.status,
            CellStatus::Degraded {
                reason: crate::DegradeReason::DeadlineExceeded,
                last_durable_step: Some(steps),
            },
            "{outcome:?}"
        );
        assert_eq!(store.newest_step().unwrap(), Some(steps));
        // The degradation is the cell's only event.
        assert_eq!(
            outcome.events,
            [RuntimeEvent::Degraded {
                reason: crate::DegradeReason::DeadlineExceeded,
                last_durable_step: Some(steps),
            }]
        );
    }
}
