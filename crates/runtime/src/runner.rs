//! The cell runner: parallel, panic-isolated, budget-bounded execution
//! of labelled sweep cells.
//!
//! [`Runtime::run_cells`] runs one labelled cell per job, each on a thread
//! of its own, calling each cell's work exactly once behind
//! `catch_unwind`. No other thread watches the cells: a cell stops only at
//! checks made on its own thread — the root [`CancelToken`] at the top of
//! every chunk and inside checkpoint I/O, and the [`ResourceBudget`]'s
//! wall-clock deadline before every chunk of [`crate::run_chain`]. Every
//! cell ends in a classified [`CellStatus`]; a budget trip degrades the
//! cell deterministically instead of wedging or killing the sweep.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sops_chains::{CancelToken, SupervisedRun};

use crate::budget::ResourceBudget;
use crate::error::{DegradeReason, JobError};
use crate::events::RuntimeEvent;
use crate::options::SweepOptions;

/// Per-cell status in the sweep report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Succeeded with no recovery events.
    Ok,
    /// Succeeded, but only after an in-place repair or a rollback.
    Recovered,
    /// A budget tripped or the caller cancelled; the cell exited at a
    /// safe point, a partial result may be present, and
    /// `last_durable_step` names the newest valid checkpoint (if any).
    Degraded {
        /// Why the cell degraded.
        reason: DegradeReason,
        /// The newest durable checkpoint step, when one was persisted.
        last_durable_step: Option<u64>,
    },
    /// The cell's work returned a typed error or panicked, and produced
    /// no result. With a checkpoint store, the cell's directory keeps its
    /// last audited snapshot, from which a `--resume` run continues.
    Failed,
}

impl CellStatus {
    /// The status as it appears in `results/<bin>-cells.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Recovered => "recovered",
            CellStatus::Degraded { .. } => "degraded",
            CellStatus::Failed => "failed",
        }
    }
}

/// The context handed to a cell's work function by
/// [`Runtime::run_cells`].
///
/// Carries the sweep's root [`CancelToken`] (see
/// [`JobContext::cancel_token`]), the [`ResourceBudget`] the cell runs
/// under, and the channels through which the cell reports recovery,
/// degradation, and [`RuntimeEvent`]s.
pub struct JobContext<'a> {
    pub(crate) cancel: &'a CancelToken,
    budget: ResourceBudget,
    started: Instant,
    recovered: AtomicBool,
    degraded: Mutex<Option<(DegradeReason, Option<u64>)>>,
    durable: Mutex<Option<u64>>,
    events: Mutex<Vec<RuntimeEvent>>,
}

impl<'a> JobContext<'a> {
    fn new(cancel: &'a CancelToken, budget: ResourceBudget, started: Instant) -> Self {
        JobContext {
            cancel,
            budget,
            started,
            recovered: AtomicBool::new(false),
            degraded: Mutex::new(None),
            durable: Mutex::new(None),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The resource budget this cell runs under.
    #[must_use]
    pub fn budget(&self) -> ResourceBudget {
        self.budget
    }

    /// A clone of the sweep's root cancellation token, for polling from
    /// long loops, threading into checkpoint stores
    /// (`CheckpointStore::with_cancel`) or other cooperative consumers.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether the budget's wall-clock deadline (measured from
    /// [`Runtime::run_cells`] start) has elapsed.
    #[must_use]
    pub(crate) fn deadline_exceeded(&self) -> bool {
        self.budget.deadline_exceeded(self.started.elapsed())
    }

    /// Marks the cell as having recovered from a fault (repair or
    /// rollback); a successful cell then reports `recovered`, not `ok`.
    pub(crate) fn note_recovered(&self) {
        self.recovered.store(true, Ordering::Relaxed);
    }

    /// Marks the cell as degraded. The first reason wins; later calls are
    /// ignored so the trigger is reported, not the aftershocks.
    pub fn note_degraded(&self, reason: DegradeReason, last_durable_step: Option<u64>) {
        let mut slot = self.degraded.lock().expect("degraded lock");
        if slot.is_none() {
            *slot = Some((reason, last_durable_step));
            drop(slot);
            self.emit(RuntimeEvent::Degraded {
                reason,
                last_durable_step,
            });
        }
    }

    /// The recorded degradation, if any.
    #[must_use]
    pub fn degraded(&self) -> Option<(DegradeReason, Option<u64>)> {
        *self.degraded.lock().expect("degraded lock")
    }

    /// Records a [`RuntimeEvent`] on this cell's trace.
    pub fn emit(&self, event: RuntimeEvent) {
        self.events.lock().expect("events lock").push(event);
    }

    /// The JSONL telemetry lines for every event recorded so far
    /// (non-destructive) — flush these into the cell's telemetry sink.
    #[must_use]
    pub fn event_lines(&self) -> Vec<String> {
        self.events
            .lock()
            .expect("events lock")
            .iter()
            .map(RuntimeEvent::telemetry_line)
            .collect()
    }

    /// The newest durable checkpoint step any run of this cell reported
    /// to [`JobContext::absorb`], if any.
    pub(crate) fn last_durable_step(&self) -> Option<u64> {
        *self.durable.lock().expect("durable lock")
    }

    /// Folds a [`SupervisedRun`]'s ladder events into this cell's trace
    /// and status flags: repairs/rollbacks mark the cell recovered, the
    /// context keeps the newest durable step of every run it absorbs, and
    /// a run cut short by cancellation marks the cell degraded as an
    /// external cancel with that step. (A run the *caller* broke out of via
    /// `on_chunk` is not degraded — that is the caller's successful early
    /// exit.)
    pub fn absorb(&self, run: &SupervisedRun) {
        {
            let mut durable = self.durable.lock().expect("durable lock");
            *durable = (*durable).max(run.last_durable_step);
        }
        for event in &run.events {
            self.emit(event.into());
        }
        if run.recovered() {
            self.note_recovered();
        }
        if !run.completed && self.cancel.is_cancelled() {
            self.note_degraded(DegradeReason::ExternalCancel, self.last_durable_step());
        }
    }
}

/// The outcome of one supervised sweep cell.
#[derive(Clone, Debug)]
pub struct CellOutcome<T> {
    /// The cell's label (e.g. `"gamma=4.0"`).
    pub cell: String,
    /// How the cell ended.
    pub status: CellStatus,
    /// The cell's value when it produced one.
    pub result: Option<T>,
    /// The typed failure otherwise.
    pub error: Option<JobError>,
    /// Every [`RuntimeEvent`] the cell recorded.
    pub events: Vec<RuntimeEvent>,
}

impl<T> CellOutcome<T> {
    /// Whether the cell produced a result.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.result.is_some()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

/// The supervision runtime: executes labelled jobs under a shared
/// [`ResourceBudget`] with panic isolation, typed failures, a sweep-wide
/// deadline, and a root [`CancelToken`] for external cancellation.
pub struct Runtime {
    opts: SweepOptions,
    root: CancelToken,
}

impl Runtime {
    /// A runtime over explicit options.
    #[must_use]
    pub fn new(opts: SweepOptions) -> Self {
        Runtime {
            opts,
            root: CancelToken::new(),
        }
    }

    /// A runtime configured from the process arguments
    /// ([`SweepOptions::from_args`]).
    #[must_use]
    pub fn from_args() -> Self {
        Self::new(SweepOptions::from_args())
    }

    /// The options this runtime executes under.
    #[must_use]
    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// The root cancellation token every cell shares.
    /// Cancelling it stops the whole sweep cooperatively: each cell exits
    /// at its next safe point and reports
    /// [`CellStatus::Degraded`] with [`DegradeReason::ExternalCancel`].
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.root.clone()
    }

    /// Runs one labelled cell per job in parallel, one thread each,
    /// calling each cell's work exactly once behind `catch_unwind`.
    ///
    /// A cell fails by returning `Err` *or* by panicking; either way the
    /// other cells are unaffected and the failure lands typed in the
    /// outcome rather than propagating. The cell is not run again: a
    /// failed cell with a checkpoint store keeps its last audited
    /// snapshot, and a `--resume` run continues from it. A cancelled cell
    /// is reported degraded. Each cell checks the budget's deadline on its
    /// own thread: [`crate::run_chain`] starts no chunk past it, and the
    /// cell is reported [`DegradeReason::DeadlineExceeded`]; a cell whose
    /// work returns before the deadline is never cut short by it.
    pub fn run_cells<L, T, F>(&self, labels: Vec<L>, work: F) -> Vec<CellOutcome<T>>
    where
        L: fmt::Display + Send + Sync,
        T: Send,
        F: Fn(&L, &JobContext<'_>) -> Result<T, JobError> + Sync,
    {
        let started = Instant::now();
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = labels
                .iter()
                .map(|label| {
                    scope.spawn(move || {
                        run_one_cell(label, &self.root, self.opts.budget, started, work)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cell worker panicked outside catch_unwind"))
                .collect()
        })
    }
}

/// Runs labelled cells under a one-shot [`Runtime`]; the convenience
/// entry point for binaries that never need the root token.
pub fn run_cells<L, T, F>(labels: Vec<L>, opts: &SweepOptions, work: F) -> Vec<CellOutcome<T>>
where
    L: fmt::Display + Send + Sync,
    T: Send,
    F: Fn(&L, &JobContext<'_>) -> Result<T, JobError> + Sync,
{
    Runtime::new(opts.clone()).run_cells(labels, work)
}

fn run_one_cell<L, T, F>(
    label: &L,
    cancel: &CancelToken,
    budget: ResourceBudget,
    started: Instant,
    work: &F,
) -> CellOutcome<T>
where
    L: fmt::Display,
    F: Fn(&L, &JobContext<'_>) -> Result<T, JobError>,
{
    let cell = label.to_string();
    let ctx = JobContext::new(cancel, budget, started);
    let result = catch_unwind(AssertUnwindSafe(|| work(label, &ctx))).unwrap_or_else(|payload| {
        Err(JobError::Panic {
            message: panic_message(payload),
        })
    });
    if let Err(error) = &result {
        eprintln!("cell {cell}: failed: {error}");
    }
    // A cell whose own runs noted no degradation still ends degraded when
    // the sweep was cancelled by the time its work returned.
    if cancel.is_cancelled() {
        ctx.note_degraded(DegradeReason::ExternalCancel, None);
    }
    let status = match ctx.degraded() {
        Some((reason, last_durable_step)) => CellStatus::Degraded {
            reason,
            last_durable_step,
        },
        None if result.is_err() => CellStatus::Failed,
        None if ctx.recovered.load(Ordering::Relaxed) => CellStatus::Recovered,
        None => CellStatus::Ok,
    };
    let (result, error) = match result {
        Ok(value) => (Some(value), None),
        Err(error) => (None, Some(error)),
    };
    CellOutcome {
        cell,
        status,
        result,
        error,
        events: ctx.events.into_inner().expect("events lock"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_chain, ChainJob};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sops_chains::MarkovChain;
    use std::ops::ControlFlow;
    use std::time::Duration;

    #[test]
    fn run_cells_runs_each_cell_once_and_isolates_failures() {
        use std::sync::atomic::AtomicU32;
        let calls = [AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0)];
        let outcomes = run_cells(vec![0, 1, 2], &SweepOptions::default(), |&cell, _| {
            calls[cell].fetch_add(1, Ordering::SeqCst);
            match cell {
                0 => Ok(10),
                1 => Err(JobError::app("cell 1 errs")),
                _ => panic!("cell 2 dies"),
            }
        });
        for (cell, calls) in calls.iter().enumerate() {
            assert_eq!(calls.load(Ordering::SeqCst), 1, "cell {cell}");
        }
        assert_eq!(outcomes[0].result, Some(10));
        assert_eq!(outcomes[0].status, CellStatus::Ok);
        for (outcome, kind, message) in [
            (&outcomes[1], "app", "cell 1 errs"),
            (&outcomes[2], "panic", "cell 2 dies"),
        ] {
            assert_eq!(outcome.status, CellStatus::Failed);
            assert!(outcome.result.is_none());
            let err = outcome.error.as_ref().unwrap();
            assert_eq!(err.kind(), kind);
            assert!(err.to_string().contains(message), "{err}");
        }
        assert!(outcomes.iter().all(|o| o.events.is_empty()));
    }

    #[test]
    fn ladder_recovery_reports_recovered_status() {
        let outcomes = run_cells(vec!["x"], &SweepOptions::default(), |_, ctx| {
            // The cell repaired itself internally (as run_supervised
            // reports through JobContext::absorb).
            ctx.note_recovered();
            Ok(1)
        });
        assert_eq!(outcomes[0].status, CellStatus::Recovered);
    }

    #[test]
    fn external_cancel_degrades_cells() {
        let rt = Runtime::new(SweepOptions::default());
        rt.cancel_token().cancel();
        let outcomes: Vec<CellOutcome<u32>> = rt.run_cells(vec!["cell"], |_, ctx| {
            assert!(ctx.cancel_token().is_cancelled());
            Ok(7)
        });
        assert_eq!(outcomes[0].result, Some(7));
        assert_eq!(
            outcomes[0].status,
            CellStatus::Degraded {
                reason: DegradeReason::ExternalCancel,
                last_durable_step: None,
            }
        );
    }

    /// A counter whose every chunk first sleeps 2 ms.
    struct Sleepy;

    impl MarkovChain for Sleepy {
        type State = u64;
        fn step<R: Rng + ?Sized>(&self, s: &mut u64, _: &mut R) -> bool {
            *s += 1;
            true
        }
        fn run<R: Rng + ?Sized>(&self, s: &mut u64, steps: u64, _: &mut R) -> u64 {
            std::thread::sleep(Duration::from_millis(2));
            *s += steps;
            steps
        }
    }

    #[test]
    fn deadline_cancels_long_cells_deterministically() {
        let opts = SweepOptions {
            budget: ResourceBudget {
                deadline: Some(Duration::from_millis(60)),
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        };
        let outcomes = run_cells(vec!["quick", "slow"], &opts, |label, ctx| {
            if *label == "quick" {
                return Ok(0u64);
            }
            let job = ChainJob {
                steps: 5_000,
                every: 1,
                store: None,
                audit_every: None,
            };
            let run = run_chain(
                ctx,
                &Sleepy,
                &mut 0,
                &mut StdRng::seed_from_u64(0),
                job,
                |&s| s as f64,
                |_, _| ControlFlow::Continue(()),
            )?;
            Ok(run.steps)
        });
        let by_cell = |name: &str| outcomes.iter().find(|o| o.cell == name).unwrap();
        assert_eq!(by_cell("quick").status, CellStatus::Ok);
        let slow = by_cell("slow");
        assert!(slow.result.is_some());
        assert!(
            matches!(
                slow.status,
                CellStatus::Degraded {
                    reason: DegradeReason::DeadlineExceeded,
                    ..
                }
            ),
            "{:?}",
            slow.status
        );
    }
}
