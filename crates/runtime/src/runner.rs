//! The cell runner: parallel, panic-isolated, budget-bounded execution
//! of labelled sweep cells.
//!
//! [`Runtime::run_cells`] runs one labelled cell per job, each on a thread
//! of its own, isolating each behind `catch_unwind` and retrying typed
//! failures with [`crate::BackoffPolicy`] delays. No other thread watches
//! the cells: a cell stops only at checks made on its own thread — the
//! root [`CancelToken`] at the top of every chunk and inside checkpoint
//! I/O, and the [`ResourceBudget`]'s wall-clock deadline before every
//! chunk of [`crate::run_chain`]. Every cell ends in a classified
//! [`CellStatus`]; a budget trip degrades the cell deterministically
//! instead of wedging or killing the sweep.

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
    /// Succeeded first try with no recovery events.
    Ok,
    /// Succeeded, but only after repair, rollback, or a retry attempt.
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
    /// Exhausted all attempts without producing a result.
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

/// Per-attempt context handed to a cell's work function by
/// [`Runtime::run_cells`].
///
/// Carries the attempt number (for `seeded_attempt` seed derivation), the
/// sweep's root [`CancelToken`] (see [`JobContext::cancel_token`]), the
/// [`ResourceBudget`] the cell runs under, and the channels through which
/// the cell reports recovery, degradation, and [`RuntimeEvent`]s.
pub struct JobContext<'a> {
    /// 1-based attempt number (1 = first try).
    pub attempt: u32,
    pub(crate) cancel: &'a CancelToken,
    budget: ResourceBudget,
    started: Instant,
    recovered: AtomicBool,
    degraded: Mutex<Option<(DegradeReason, Option<u64>)>>,
    durable: Mutex<Option<u64>>,
    events: Mutex<Vec<RuntimeEvent>>,
}

impl<'a> JobContext<'a> {
    fn new(
        attempt: u32,
        cancel: &'a CancelToken,
        budget: ResourceBudget,
        started: Instant,
        pending: Vec<RuntimeEvent>,
    ) -> Self {
        JobContext {
            attempt,
            cancel,
            budget,
            started,
            recovered: AtomicBool::new(false),
            degraded: Mutex::new(None),
            durable: Mutex::new(None),
            events: Mutex::new(pending),
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

    fn take_events(&self) -> Vec<RuntimeEvent> {
        std::mem::take(&mut *self.events.lock().expect("events lock"))
    }

    /// The newest durable checkpoint step any run of this attempt
    /// reported to [`JobContext::absorb`], if any.
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
    /// Attempts used (1 = first try succeeded).
    pub attempts: u32,
    /// How the cell ended.
    pub status: CellStatus,
    /// The cell's value when it produced one.
    pub result: Option<T>,
    /// The final typed failure otherwise.
    pub error: Option<JobError>,
    /// Every [`RuntimeEvent`] recorded across the cell's attempts.
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
/// [`ResourceBudget`] with panic isolation, typed failures, retries, a
/// sweep-wide deadline, and a root [`CancelToken`] for external
/// cancellation.
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
    /// isolating each behind `catch_unwind` and retrying typed failures up
    /// to `budget.max_retries` extra times with [`crate::BackoffPolicy`]
    /// delays.
    ///
    /// A cell fails by returning `Err` *or* by panicking; either way the
    /// other cells are unaffected and the failure lands typed in the
    /// outcome rather than propagating. A cancelled cell is reported
    /// degraded and is not retried. Each cell checks the budget's deadline
    /// on its own thread: [`crate::run_chain`] starts no chunk past it,
    /// and a retry whose backoff would sleep past it is skipped. Either
    /// way the cell is reported [`DegradeReason::DeadlineExceeded`]; a cell
    /// whose work returns before the deadline is never cut short by it.
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
                    scope.spawn(move || run_one_cell(label, &self.root, &self.opts, started, work))
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
    opts: &SweepOptions,
    started: Instant,
    work: &F,
) -> CellOutcome<T>
where
    L: fmt::Display,
    F: Fn(&L, &JobContext<'_>) -> Result<T, JobError>,
{
    let cell = label.to_string();
    let max_attempts = opts.budget.max_retries.saturating_add(1);
    let mut attempts: u32 = 0;
    let mut recovered_any = false;
    let mut degraded_any: Option<(DegradeReason, Option<u64>)> = None;
    let mut all_events: Vec<RuntimeEvent> = Vec::new();
    let mut pending: Vec<RuntimeEvent> = Vec::new();
    // The last attempt's result, and whether the sweep was cancelled by
    // the time it returned.
    let (result, cancelled) = loop {
        attempts += 1;
        let ctx = JobContext::new(
            attempts,
            cancel,
            opts.budget,
            started,
            std::mem::take(&mut pending),
        );
        let result = catch_unwind(AssertUnwindSafe(|| work(label, &ctx)));
        recovered_any |= ctx.recovered.load(Ordering::Relaxed);
        if degraded_any.is_none() {
            degraded_any = ctx.degraded();
        }
        let cancelled = cancel.is_cancelled();
        all_events.extend(ctx.take_events());
        let error = match result {
            Ok(Ok(value)) => break (Ok(value), cancelled),
            Ok(Err(e)) => e,
            Err(payload) => JobError::Panic {
                message: panic_message(payload),
            },
        };
        eprintln!("cell {cell}: attempt {attempts} failed: {error}");
        if cancelled || degraded_any.is_some() || attempts >= max_attempts {
            break (Err(error), cancelled);
        }
        let next = attempts + 1;
        let delay = opts.backoff.delay(&cell, next);
        if let Some(deadline) = opts.budget.deadline {
            // Never sleep past the deadline: degrade instead of retrying.
            if started.elapsed().saturating_add(delay) >= deadline {
                degraded_any.get_or_insert((DegradeReason::DeadlineExceeded, None));
                break (Err(error), cancelled);
            }
        }
        pending.push(RuntimeEvent::Retry {
            attempt: next,
            delay_ms: u64::try_from(delay.as_millis()).unwrap_or(u64::MAX),
            error_kind: error.kind(),
        });
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    };
    let degrade =
        degraded_any.or_else(|| cancelled.then_some((DegradeReason::ExternalCancel, None)));
    let status = match degrade {
        Some((reason, last_durable_step)) => {
            if !all_events
                .iter()
                .any(|e| matches!(e, RuntimeEvent::Degraded { .. }))
            {
                all_events.push(RuntimeEvent::Degraded {
                    reason,
                    last_durable_step,
                });
            }
            CellStatus::Degraded {
                reason,
                last_durable_step,
            }
        }
        None if result.is_err() => CellStatus::Failed,
        None if recovered_any || attempts > 1 => CellStatus::Recovered,
        None => CellStatus::Ok,
    };
    let (result, error) = match result {
        Ok(value) => (Some(value), None),
        Err(error) => (None, Some(error)),
    };
    CellOutcome {
        cell,
        attempts,
        status,
        result,
        error,
        events: all_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_chain, BackoffPolicy, ChainJob};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sops_chains::MarkovChain;
    use std::ops::ControlFlow;
    use std::time::Duration;

    /// Options with zero backoff so retry tests don't sleep.
    fn fast_opts(retries: u32) -> SweepOptions {
        SweepOptions {
            backoff: BackoffPolicy { base_ms: 0 },
            budget: ResourceBudget {
                max_retries: retries,
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        }
    }

    #[test]
    fn run_cells_isolates_panics_and_retries() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let outcomes = run_cells(vec!["a", "b", "c"], &fast_opts(1), |label, ctx| {
            calls.fetch_add(1, Ordering::SeqCst);
            match *label {
                "a" => Ok(10),
                // Fails once, succeeds on retry.
                "b" if ctx.attempt == 1 => Err(JobError::app("transient")),
                "b" => Ok(20),
                _ => panic!("cell c always dies"),
            }
        });
        let by_cell = |name: &str| outcomes.iter().find(|o| o.cell == name).unwrap();
        assert_eq!(by_cell("a").result, Some(10));
        assert_eq!(by_cell("a").attempts, 1);
        assert_eq!(by_cell("a").status, CellStatus::Ok);
        assert!(by_cell("a").events.is_empty());
        assert_eq!(by_cell("b").result, Some(20));
        assert_eq!(by_cell("b").attempts, 2);
        assert_eq!(by_cell("b").status, CellStatus::Recovered);
        // The retry is on the trace, with the typed trigger.
        assert!(matches!(
            by_cell("b").events[..],
            [RuntimeEvent::Retry {
                attempt: 2,
                error_kind: "app",
                ..
            }]
        ));
        assert!(by_cell("c").result.is_none());
        assert_eq!(by_cell("c").attempts, 2);
        assert_eq!(by_cell("c").status, CellStatus::Failed);
        let err = by_cell("c").error.as_ref().unwrap();
        assert_eq!(err.kind(), "panic");
        assert!(err.to_string().contains("always dies"));
        // a(1) + b(2) + c(2)
        assert_eq!(calls.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn ladder_recovery_reports_recovered_status() {
        let outcomes = run_cells(vec!["x"], &fast_opts(0), |_, ctx| {
            // The cell repaired itself internally (as run_supervised
            // reports through JobContext::absorb).
            ctx.note_recovered();
            Ok(1)
        });
        assert_eq!(outcomes[0].status, CellStatus::Recovered);
        assert_eq!(outcomes[0].attempts, 1);
    }

    #[test]
    fn external_cancel_degrades_cells_without_retry() {
        let rt = Runtime::new(fast_opts(3));
        rt.cancel_token().cancel();
        let outcomes: Vec<CellOutcome<u32>> = rt.run_cells(vec!["cell"], |_, ctx| {
            assert!(ctx.cancel_token().is_cancelled());
            Ok(7)
        });
        assert_eq!(outcomes[0].attempts, 1);
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
            ..fast_opts(0)
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

    #[test]
    fn retries_never_sleep_past_the_deadline() {
        // Backoff of ~4s against a 50ms deadline: the retry is refused
        // and the cell degrades instead of sleeping through the budget.
        let opts = SweepOptions {
            backoff: BackoffPolicy { base_ms: 4_000 },
            budget: ResourceBudget {
                deadline: Some(Duration::from_millis(50)),
                max_retries: 5,
                ..ResourceBudget::default()
            },
            ..SweepOptions::default()
        };
        let started = Instant::now();
        let outcomes: Vec<CellOutcome<u32>> =
            run_cells(vec!["cell"], &opts, |_, _| Err(JobError::app("flaky")));
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(outcomes[0].attempts, 1);
        assert!(matches!(
            outcomes[0].status,
            CellStatus::Degraded {
                reason: DegradeReason::DeadlineExceeded,
                ..
            }
        ));
        // The underlying app error is preserved as the terminal failure.
        assert_eq!(outcomes[0].error.as_ref().unwrap().kind(), "app");
    }
}
