//! The cell runner: parallel, panic-isolated, budget-bounded execution
//! of labelled sweep cells.
//!
//! [`Runtime::run_cells`] runs one labelled cell per job in parallel,
//! isolating each behind `catch_unwind`, retrying typed failures with
//! [`crate::BackoffPolicy`] delays, and — when configured — running a
//! monitor thread that enforces the stall watchdog and the sweep-wide
//! wall-clock deadline of the [`ResourceBudget`]. Every cell ends in a
//! classified [`CellStatus`]; a budget trip degrades the cell
//! deterministically instead of wedging or killing the sweep.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sops_chains::{CancelKind, CancelToken, Heartbeat, RecoveryEvent, SupervisedRun};

use crate::budget::ResourceBudget;
use crate::error::{DegradeReason, JobError};
use crate::events::RuntimeEvent;
use crate::monitor::{MonitorState, StallPolicy};
use crate::options::SweepOptions;

/// Per-cell status in the sweep report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Succeeded first try with no recovery events.
    Ok,
    /// Succeeded, but only after repair, rollback, or a retry attempt.
    Recovered,
    /// A budget tripped, the watchdog fired, or the caller cancelled; the
    /// cell exited at a safe point, a partial result may be present, and
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

/// Monitor-reason encoding shared between the monitor thread and the
/// workers via [`CellSlot::reason`]: the monitor records *why* it
/// cancelled before it flips any token, so workers can classify the
/// degradation without guessing.
const REASON_NONE: u8 = 0;
const REASON_STALLED: u8 = 1;
const REASON_DEADLINE: u8 = 2;

fn observed_cancel_reason(reason: &AtomicU8, heartbeat: &Heartbeat) -> DegradeReason {
    match reason.load(Ordering::SeqCst) {
        REASON_STALLED => DegradeReason::Stalled,
        REASON_DEADLINE => DegradeReason::DeadlineExceeded,
        _ => match heartbeat.cancel_kind() {
            Some(CancelKind::Stalled) => DegradeReason::Stalled,
            _ => DegradeReason::ExternalCancel,
        },
    }
}

/// Per-attempt context handed to a cell's work function by
/// [`Runtime::run_cells`].
///
/// Carries the attempt number (for `seeded_attempt` seed derivation), the
/// cell's shared [`Heartbeat`] (beat it from long loops so the stall
/// watchdog sees progress; check `is_cancelled` to exit early), the
/// [`ResourceBudget`] the cell runs under, and the channels through which
/// the cell reports recovery, degradation, and [`RuntimeEvent`]s.
pub struct JobContext<'a> {
    /// 1-based attempt number (1 = first try).
    pub attempt: u32,
    /// The cell's heartbeat, shared with the monitor thread.
    pub heartbeat: &'a Heartbeat,
    budget: ResourceBudget,
    started: Instant,
    monitor_reason: &'a AtomicU8,
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
        monitor_reason: &'a AtomicU8,
        pending: Vec<RuntimeEvent>,
    ) -> Self {
        JobContext {
            attempt,
            heartbeat,
            budget,
            started,
            monitor_reason,
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

    /// Why this cell was cancelled: the monitor's recorded reason when it
    /// made the call, otherwise inferred from the heartbeat's cancel kind.
    #[must_use]
    pub fn cancel_reason(&self) -> DegradeReason {
        observed_cancel_reason(self.monitor_reason, self.heartbeat)
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
            match event {
                RecoveryEvent::Repaired { step, .. } => {
                    self.emit(RuntimeEvent::Repaired { step: *step });
                }
                RecoveryEvent::RolledBack {
                    from_step, to_step, ..
                } => {
                    self.emit(RuntimeEvent::RolledBack {
                        from_step: *from_step,
                        to_step: *to_step,
                    });
                }
                RecoveryEvent::Cancelled { step } => {
                    let kind = self.heartbeat.cancel_kind().unwrap_or(CancelKind::External);
                    self.emit(RuntimeEvent::Cancelled { step: *step, kind });
                }
            }
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
    reason: AtomicU8,
}

/// The supervision runtime: executes labelled jobs under a shared
/// [`ResourceBudget`] with panic isolation, typed failures, retries, the
/// stall watchdog, a sweep-wide deadline, and a root [`CancelToken`] for
/// external cancellation.
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
    /// delays, and — when a stall policy or deadline is configured —
    /// monitoring every cell's [`Heartbeat`].
    ///
    /// A cell fails by returning `Err` *or* by panicking; either way the
    /// other cells are unaffected and the failure lands typed in the
    /// outcome rather than propagating. A stalled cell is cancelled
    /// cooperatively and reported degraded — it is not retried, since a
    /// hang would recur and hold the sweep hostage again. When the
    /// budget's deadline elapses, every live cell is cancelled and
    /// reported [`DegradeReason::DeadlineExceeded`]; retries whose
    /// backoff would sleep past the deadline are skipped the same way.
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
                    reason: AtomicU8::new(REASON_NONE),
                })
            })
            .collect();
        let cells: Vec<String> = labels.iter().map(ToString::to_string).collect();

        let mut outcomes: Vec<Option<CellOutcome<T>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let work = &work;
            let opts_ref = &self.opts;
            let mut handles = Vec::new();
            for (i, label) in labels.iter().enumerate() {
                let slot = Arc::clone(&slots[i]);
                let cell = cells[i].clone();
                handles.push(scope.spawn(move || {
                    let outcome = run_one_cell(label, &cell, &slot, opts_ref, started, work);
                    slot.done.store(true, Ordering::SeqCst);
                    (i, outcome)
                }));
            }

            if self.opts.stall.is_some() || self.opts.budget.deadline.is_some() {
                let slots = &slots;
                let cells = &cells;
                let root = &self.root;
                let stall = self.opts.stall;
                let deadline = self.opts.budget.deadline;
                scope.spawn(move || monitor(slots, cells, root, stall, deadline, started));
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

/// The monitor thread: enforces the sweep deadline and the stall
/// watchdog over every live cell's heartbeat. Exits once every cell is
/// done.
///
/// Stall detection is two-phase to close the poll/cancel race: the pure
/// [`MonitorState`] counts frozen polls, and its verdict is confirmed
/// against the live heartbeat with `cancel_if_stalled_at`, which refuses
/// to kill a cell that advanced after the poll.
fn monitor(
    slots: &[Arc<CellSlot>],
    cells: &[String],
    root: &CancelToken,
    stall: Option<StallPolicy>,
    deadline: Option<Duration>,
    started: Instant,
) {
    // The deadline needs finer resolution than a typical stall poll, so
    // the loop ticks fast when a deadline is armed and re-checks the
    // stall counters only on the configured poll cadence.
    let tick_ms = match (stall, deadline) {
        (Some(s), None) => s.poll_ms,
        (Some(s), Some(_)) => s.poll_ms.min(25),
        (None, _) => 25,
    };
    let mut mon = stall.map(|s| MonitorState::new(slots.len(), s.stall_after));
    let mut last_stall_poll = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(tick_ms));
        if slots.iter().all(|s| s.done.load(Ordering::SeqCst)) {
            return;
        }
        if let Some(d) = deadline {
            if started.elapsed() >= d && !root.is_cancelled() {
                // Record the reason on every live slot *before* flipping
                // the token, so workers observing the cancel can already
                // classify it.
                for slot in slots {
                    if !slot.done.load(Ordering::SeqCst) {
                        let _ = slot.reason.compare_exchange(
                            REASON_NONE,
                            REASON_DEADLINE,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                }
                eprintln!("sweep deadline ({d:?}) elapsed; cancelling remaining cells");
                root.cancel();
            }
        }
        if let (Some(policy), Some(mon)) = (stall, mon.as_mut()) {
            if last_stall_poll.elapsed() >= Duration::from_millis(policy.poll_ms) {
                last_stall_poll = Instant::now();
                let observed: Vec<(u64, bool)> = slots
                    .iter()
                    .map(|s| {
                        (
                            s.heartbeat.steps(),
                            s.done.load(Ordering::SeqCst) || s.heartbeat.is_cancelled(),
                        )
                    })
                    .collect();
                for (i, expected) in mon.poll(&observed) {
                    // Confirm against the live heartbeat: a cell that
                    // advanced since the poll is spared.
                    if slots[i].heartbeat.cancel_if_stalled_at(expected) {
                        let _ = slots[i].reason.compare_exchange(
                            REASON_NONE,
                            REASON_STALLED,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        eprintln!(
                            "cell {}: no progress past step {expected}; cancelling as stalled",
                            cells[i]
                        );
                    }
                }
            }
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
            &slot.reason,
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
                let degrade = degraded_any.or_else(|| {
                    cancelled.then(|| (observed_cancel_reason(&slot.reason, &slot.heartbeat), None))
                });
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
            .then(|| (observed_cancel_reason(&slot.reason, &slot.heartbeat), None))
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
    fn watchdog_cancels_stalled_cells_and_marks_them_degraded() {
        let opts = SweepOptions {
            stall: Some(StallPolicy {
                poll_ms: 10,
                stall_after: 3,
            }),
            ..fast_opts(2)
        };
        let outcomes = run_cells(vec!["healthy", "stuck"], &opts, |label, ctx| {
            if *label == "healthy" {
                for step in 0..20u64 {
                    ctx.heartbeat.beat(step);
                    std::thread::sleep(Duration::from_millis(2));
                }
                return Ok("done".to_string());
            }
            // The stuck cell never beats; it cooperatively polls for
            // cancellation like run_supervised does at chunk boundaries.
            loop {
                if ctx.heartbeat.is_cancelled() {
                    return Err(JobError::Cancelled {
                        reason: ctx.cancel_reason(),
                        step: ctx.heartbeat.steps(),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let by_cell = |name: &str| outcomes.iter().find(|o| o.cell == name).unwrap();
        assert_eq!(by_cell("healthy").status, CellStatus::Ok);
        let stuck = by_cell("stuck");
        assert_eq!(
            stuck.status,
            CellStatus::Degraded {
                reason: DegradeReason::Stalled,
                last_durable_step: None,
            }
        );
        // A stall is not retried: retries were 2, but one attempt ran.
        assert_eq!(stuck.attempts, 1);
        assert_eq!(stuck.error.as_ref().unwrap().kind(), "cancelled");
        // The degradation is on the event trace too.
        assert!(stuck
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::Degraded { .. })));
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
