//! The cell runner: parallel, panic-isolated, budget-bounded execution
//! of labelled sweep cells.
//!
//! [`Runtime::run_cells`] runs one labelled cell per job in parallel,
//! isolating each behind `catch_unwind`, retrying typed failures with
//! [`crate::BackoffPolicy`] delays, and — when the [`ResourceBudget`] sets
//! a sweep-wide wall-clock deadline — running a monitor thread that
//! cancels every live cell once it passes. Every cell ends in a
//! classified [`CellStatus`]; a budget trip degrades the cell
//! deterministically instead of wedging or killing the sweep.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sops_chains::{CancelToken, Heartbeat, SupervisedRun};

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

/// Why a cell was cancelled. The deadline monitor sets `deadline_hit`
/// before it cancels the root token, so a worker that observes the
/// cancel can tell a deadline from an external cancel.
fn observed_cancel_reason(deadline_hit: &AtomicBool) -> DegradeReason {
    if deadline_hit.load(Ordering::SeqCst) {
        DegradeReason::DeadlineExceeded
    } else {
        DegradeReason::ExternalCancel
    }
}

/// Per-attempt context handed to a cell's work function by
/// [`Runtime::run_cells`].
///
/// Carries the attempt number (for `seeded_attempt` seed derivation), the
/// cell's shared [`Heartbeat`] (beat it from long loops so a cancelled
/// cell reports how far it got; check `is_cancelled` to exit early), the
/// [`ResourceBudget`] the cell runs under, and the channels through which
/// the cell reports recovery, degradation, and [`RuntimeEvent`]s.
pub struct JobContext<'a> {
    /// 1-based attempt number (1 = first try).
    pub attempt: u32,
    /// The cell's heartbeat, whose token is the sweep's root token.
    pub heartbeat: &'a Heartbeat,
    budget: ResourceBudget,
    started: Instant,
    deadline_hit: &'a AtomicBool,
    recovered: AtomicBool,
    degraded: Mutex<Option<(DegradeReason, Option<u64>)>>,
    durable: Mutex<Option<u64>>,
    events: Mutex<Vec<RuntimeEvent>>,
}

impl<'a> JobContext<'a> {
    fn new(
        attempt: u32,
        heartbeat: &'a Heartbeat,
        budget: ResourceBudget,
        started: Instant,
        deadline_hit: &'a AtomicBool,
        pending: Vec<RuntimeEvent>,
    ) -> Self {
        JobContext {
            attempt,
            heartbeat,
            budget,
            started,
            deadline_hit,
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

    /// A clone of the cell's cancellation token, for threading into
    /// checkpoint stores (`CheckpointStore::with_cancel`) or other
    /// cooperative consumers.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.heartbeat.token()
    }

    /// Whether the budget's wall-clock deadline (measured from
    /// [`Runtime::run_cells`] start) has elapsed.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
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

    /// Why this cell was cancelled: the deadline when the monitor made
    /// the call, otherwise an external cancel.
    #[must_use]
    pub(crate) fn cancel_reason(&self) -> DegradeReason {
        observed_cancel_reason(self.deadline_hit)
    }

    /// The newest durable checkpoint step any run of this attempt
    /// reported to [`JobContext::absorb`], if any.
    pub(crate) fn last_durable_step(&self) -> Option<u64> {
        *self.durable.lock().expect("durable lock")
    }

    /// Folds a [`SupervisedRun`]'s ladder events into this cell's trace
    /// and status flags: repairs/rollbacks mark the cell recovered, the
    /// context keeps the newest durable step of every run it absorbs, and
    /// a run cut short by cancellation marks the cell degraded with the
    /// observed reason and that step. (A run the *caller* broke out of via
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
        if !run.completed && self.heartbeat.is_cancelled() {
            self.note_degraded(self.cancel_reason(), self.last_durable_step());
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

/// Book-keeping shared between a cell's worker thread and the monitor.
struct CellSlot {
    heartbeat: Heartbeat,
    done: AtomicBool,
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

    /// The root cancellation token every cell's heartbeat shares.
    /// Cancelling it stops the whole sweep cooperatively: each cell exits
    /// at its next safe point and reports
    /// [`CellStatus::Degraded`] with [`DegradeReason::ExternalCancel`].
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.root.clone()
    }

    /// Runs one labelled cell per job in parallel, isolating each behind
    /// `catch_unwind`, retrying typed failures up to
    /// `budget.max_retries` extra times with [`crate::BackoffPolicy`]
    /// delays, and — when the budget sets a deadline — running a monitor
    /// thread that enforces it.
    ///
    /// A cell fails by returning `Err` *or* by panicking; either way the
    /// other cells are unaffected and the failure lands typed in the
    /// outcome rather than propagating. A cancelled cell is reported
    /// degraded and is not retried. When the budget's deadline elapses,
    /// every live cell is cancelled and reported
    /// [`DegradeReason::DeadlineExceeded`]; retries whose backoff would
    /// sleep past the deadline are skipped the same way.
    pub fn run_cells<L, T, F>(&self, labels: Vec<L>, work: F) -> Vec<CellOutcome<T>>
    where
        L: fmt::Display + Send + Sync,
        T: Send,
        F: Fn(&L, &JobContext<'_>) -> Result<T, JobError> + Sync,
    {
        let started = Instant::now();
        let n = labels.len();
        let slots: Vec<Arc<CellSlot>> = (0..n)
            .map(|_| {
                Arc::new(CellSlot {
                    heartbeat: Heartbeat::with_token(self.root.clone()),
                    done: AtomicBool::new(false),
                })
            })
            .collect();
        let deadline_hit = AtomicBool::new(false);
        let cells: Vec<String> = labels.iter().map(ToString::to_string).collect();

        let mut outcomes: Vec<Option<CellOutcome<T>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let work = &work;
            let opts_ref = &self.opts;
            let deadline_hit = &deadline_hit;
            let mut handles = Vec::new();
            for (i, label) in labels.iter().enumerate() {
                let slot = Arc::clone(&slots[i]);
                let cell = cells[i].clone();
                handles.push(scope.spawn(move || {
                    let outcome =
                        run_one_cell(label, &cell, &slot, deadline_hit, opts_ref, started, work);
                    slot.done.store(true, Ordering::SeqCst);
                    (i, outcome)
                }));
            }

            if let Some(deadline) = self.opts.budget.deadline {
                let slots = &slots;
                let root = &self.root;
                scope.spawn(move || monitor(slots, root, deadline_hit, deadline, started));
            }

            for h in handles {
                let (i, outcome) = h.join().expect("cell worker panicked outside catch_unwind");
                outcomes[i] = Some(outcome);
            }
        });
        outcomes
            .into_iter()
            .map(|o| o.expect("every cell reports an outcome"))
            .collect()
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

/// The deadline monitor: once the sweep deadline passes, it cancels the
/// root token, so every live cell stops at its next safe point. Exits
/// then, or once every cell is done.
fn monitor(
    slots: &[Arc<CellSlot>],
    root: &CancelToken,
    deadline_hit: &AtomicBool,
    deadline: Duration,
    started: Instant,
) {
    loop {
        std::thread::sleep(Duration::from_millis(25));
        if slots.iter().all(|s| s.done.load(Ordering::SeqCst)) {
            return;
        }
        if started.elapsed() >= deadline {
            // An external cancel that came first keeps its reason.
            if !root.is_cancelled() {
                // Recorded before the token flips, so a worker that
                // observes the cancel can already classify it.
                deadline_hit.store(true, Ordering::SeqCst);
                eprintln!("sweep deadline ({deadline:?}) elapsed; cancelling remaining cells");
                root.cancel();
            }
            return;
        }
    }
}

fn ensure_degraded_event(
    events: &mut Vec<RuntimeEvent>,
    reason: DegradeReason,
    last_durable_step: Option<u64>,
) {
    if !events
        .iter()
        .any(|e| matches!(e, RuntimeEvent::Degraded { .. }))
    {
        events.push(RuntimeEvent::Degraded {
            reason,
            last_durable_step,
        });
    }
}

fn run_one_cell<L, T, F>(
    label: &L,
    cell: &str,
    slot: &CellSlot,
    deadline_hit: &AtomicBool,
    opts: &SweepOptions,
    started: Instant,
    work: &F,
) -> CellOutcome<T>
where
    L: fmt::Display,
    F: Fn(&L, &JobContext<'_>) -> Result<T, JobError>,
{
    let max_attempts = opts.budget.max_retries.saturating_add(1);
    let mut attempts: u32 = 0;
    // Assigned on every loop iteration before it is read; no initializer
    // keeps the flow analysis honest about that.
    let mut last_error: Option<JobError>;
    let mut recovered_any = false;
    let mut degraded_any: Option<(DegradeReason, Option<u64>)> = None;
    let mut all_events: Vec<RuntimeEvent> = Vec::new();
    let mut pending: Vec<RuntimeEvent> = Vec::new();
    loop {
        attempts += 1;
        let ctx = JobContext::new(
            attempts,
            &slot.heartbeat,
            opts.budget,
            started,
            deadline_hit,
            std::mem::take(&mut pending),
        );
        let result = catch_unwind(AssertUnwindSafe(|| work(label, &ctx)));
        recovered_any |= ctx.recovered.load(Ordering::Relaxed);
        if degraded_any.is_none() {
            degraded_any = ctx.degraded();
        }
        let cancelled = slot.heartbeat.is_cancelled();
        all_events.extend(ctx.take_events());
        match result {
            Ok(Ok(value)) => {
                let degrade = degraded_any
                    .or_else(|| cancelled.then(|| (observed_cancel_reason(deadline_hit), None)));
                let status = match degrade {
                    Some((reason, last_durable_step)) => {
                        ensure_degraded_event(&mut all_events, reason, last_durable_step);
                        CellStatus::Degraded {
                            reason,
                            last_durable_step,
                        }
                    }
                    None if recovered_any || attempts > 1 => CellStatus::Recovered,
                    None => CellStatus::Ok,
                };
                return CellOutcome {
                    cell: cell.to_string(),
                    attempts,
                    status,
                    result: Some(value),
                    error: None,
                    events: all_events,
                };
            }
            Ok(Err(e)) => last_error = Some(e),
            Err(payload) => {
                last_error = Some(JobError::Panic {
                    message: panic_message(payload),
                });
            }
        }
        if let Some(e) = &last_error {
            eprintln!("cell {cell}: attempt {attempts} failed: {e}");
        }
        if cancelled || degraded_any.is_some() || attempts >= max_attempts {
            break;
        }
        let next = attempts + 1;
        let delay = opts.backoff.delay(cell, next);
        if let Some(deadline) = opts.budget.deadline {
            // Never sleep past the deadline: degrade instead of retrying.
            if started.elapsed().saturating_add(delay) >= deadline {
                degraded_any.get_or_insert((DegradeReason::DeadlineExceeded, None));
                break;
            }
        }
        pending.push(RuntimeEvent::Retry {
            attempt: next,
            delay_ms: u64::try_from(delay.as_millis()).unwrap_or(u64::MAX),
            error_kind: last_error.as_ref().map_or("app", JobError::kind),
        });
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }
    let degrade = degraded_any.or_else(|| {
        slot.heartbeat
            .is_cancelled()
            .then(|| (observed_cancel_reason(deadline_hit), None))
    });
    match degrade {
        Some((reason, last_durable_step)) => {
            ensure_degraded_event(&mut all_events, reason, last_durable_step);
            CellOutcome {
                cell: cell.to_string(),
                attempts,
                status: CellStatus::Degraded {
                    reason,
                    last_durable_step,
                },
                result: None,
                error: Some(last_error.unwrap_or(JobError::Cancelled {
                    reason,
                    step: slot.heartbeat.steps(),
                })),
                events: all_events,
            }
        }
        None => CellOutcome {
            cell: cell.to_string(),
            attempts,
            status: CellStatus::Failed,
            result: None,
            error: Some(last_error.unwrap_or_else(|| JobError::app("unknown failure"))),
            events: all_events,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackoffPolicy;

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
            assert!(ctx.heartbeat.is_cancelled());
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
            for step in 0..5_000u64 {
                ctx.heartbeat.beat(step);
                if ctx.heartbeat.is_cancelled() {
                    return Ok(step);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(5_000)
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
