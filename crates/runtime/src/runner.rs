//! The cell runner: parallel, panic-isolated, budget-bounded execution
//! of labelled sweep cells.
//!
//! [`run_cells`] runs one labelled cell per job, each on a thread of its
//! own, calling each cell's work exactly once behind `catch_unwind`. No
//! other thread watches the cells: a cell stops only where its own chain
//! run checks the [`ResourceBudget`] — the wall-clock deadline before
//! every chunk of [`crate::run_chain`], and the step cap that run is
//! clamped to. Every cell ends in a classified [`CellStatus`]; a budget
//! trip degrades the cell deterministically instead of wedging or killing
//! the sweep.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sops_chains::SupervisedRun;

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
    /// A budget tripped; the cell exited at a chunk boundary, a partial
    /// result may be present, and `last_durable_step` names the newest
    /// valid checkpoint (if any).
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

/// The context handed to a cell's work function by [`run_cells`].
///
/// Carries the [`ResourceBudget`] the cell runs under and the channels
/// through which the cell reports recovery, degradation, and
/// [`RuntimeEvent`]s.
pub struct JobContext {
    budget: ResourceBudget,
    started: Instant,
    recovered: AtomicBool,
    degraded: Mutex<Option<(DegradeReason, Option<u64>)>>,
    durable: Mutex<Option<u64>>,
    events: Mutex<Vec<RuntimeEvent>>,
}

impl JobContext {
    fn new(budget: ResourceBudget, started: Instant) -> Self {
        JobContext {
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

    /// Whether the budget's wall-clock deadline (measured from
    /// [`run_cells`] start) has elapsed.
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
    /// and status flags: repairs/rollbacks mark the cell recovered, and
    /// the context keeps the newest durable step of every run it absorbs.
    /// Degradation is not read off the run: [`crate::run_chain`] notes the
    /// budget trip that stopped it.
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

/// Runs one labelled cell per job in parallel, one thread each, calling
/// each cell's work exactly once behind `catch_unwind`.
///
/// A cell fails by returning `Err` *or* by panicking; either way the
/// other cells are unaffected and the failure lands typed in the outcome
/// rather than propagating. The cell is not run again: a failed cell with
/// a checkpoint store keeps its last audited snapshot, and a `--resume`
/// run continues from it. Each cell checks the budget's deadline on its
/// own thread: [`crate::run_chain`] starts no chunk past it, and the cell
/// is reported [`DegradeReason::DeadlineExceeded`]; a cell whose work
/// returns before the deadline is never cut short by it.
pub fn run_cells<L, T, F>(labels: Vec<L>, opts: &SweepOptions, work: F) -> Vec<CellOutcome<T>>
where
    L: fmt::Display + Send + Sync,
    T: Send,
    F: Fn(&L, &JobContext) -> Result<T, JobError> + Sync,
{
    let started = Instant::now();
    let (budget, work) = (opts.budget, &work);
    std::thread::scope(|scope| {
        let handles: Vec<_> = labels
            .iter()
            .map(|label| scope.spawn(move || run_one_cell(label, budget, started, work)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cell worker panicked outside catch_unwind"))
            .collect()
    })
}

fn run_one_cell<L, T, F>(
    label: &L,
    budget: ResourceBudget,
    started: Instant,
    work: &F,
) -> CellOutcome<T>
where
    L: fmt::Display,
    F: Fn(&L, &JobContext) -> Result<T, JobError>,
{
    let cell = label.to_string();
    let ctx = JobContext::new(budget, started);
    let result = catch_unwind(AssertUnwindSafe(|| work(label, &ctx)))
        .unwrap_or_else(|payload| Err(JobError::from_panic(payload)));
    if let Err(error) = &result {
        eprintln!("cell {cell}: failed: {error}");
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
