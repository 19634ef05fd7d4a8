//! The job service itself: a supervised worker pool over the
//! [`JobQueue`], wired to the durable [`SessionStore`] and the runtime
//! telemetry schema.
//!
//! Life of a job: `submit` → typed admission ([`Admission`]) →
//! round-robin dispatch to a worker → the payload runs under the job's
//! [`CancelToken`] with a per-session [`CheckpointStore`] → exactly one
//! [`TerminalStatus`] on the ticket, mirrored best-effort into the
//! session manifest. Panics are caught per job; the poisoned worker slot
//! retires and a fresh thread replaces it, so a panicking payload costs
//! one job, never a worker.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sops_chains::checkpoint::CheckpointStore;
use sops_chains::{CancelToken, RealVfs, Vfs};
use sops_runtime::{DegradeReason, JobError, RuntimeEvent};

use crate::queue::{
    Admission, Drained, JobQueue, JobTicket, Popped, QueueConfig, QueuedJob, TerminalStatus,
    WaitError,
};
use crate::session::{SessionManifest, SessionRecovery, SessionStatus, SessionStore};

/// What a job payload resolves to when it returns without error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The payload finished its requested work.
    Completed {
        /// Chain steps executed (for the terminal status and stats).
        steps: u64,
    },
    /// The payload stopped early at a durable point (budget degradation
    /// or cooperative eviction); the session resumes on resubmission.
    Yielded {
        /// The newest durable checkpoint step the payload knows of.
        last_durable_step: Option<u64>,
    },
}

/// Everything a running job may touch, handed to the payload by the
/// worker. Payloads that poll [`ExecCtx::evicting`] at chunk boundaries
/// and checkpoint through [`ExecCtx::store`] get crash-safe eviction for
/// free.
pub struct ExecCtx<'a> {
    pub(crate) cancel: &'a CancelToken,
    pub(crate) store: &'a CheckpointStore,
    pub(crate) session: &'a str,
    pub(crate) events: &'a dyn Fn(RuntimeEvent),
}

impl ExecCtx<'_> {
    /// The session's durable checkpoint store (cancel-wired: checkpoint
    /// I/O aborts promptly once eviction is signalled).
    #[must_use]
    pub fn store(&self) -> &CheckpointStore {
        self.store
    }

    /// Whether eviction has been signalled (drain, shutdown, or per-job
    /// cancel). Payloads should stop at the next durable point and
    /// return [`JobOutcome::Yielded`].
    #[must_use]
    pub fn evicting(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Records that this job resumed its session from a durable
    /// checkpoint (emits [`RuntimeEvent::Resumed`]).
    pub(crate) fn note_resumed(&self, from_step: u64) {
        self.emit(RuntimeEvent::Resumed {
            session: self.session.to_string(),
            from_step,
        });
    }

    /// Emits a runtime event into the service telemetry stream.
    pub fn emit(&self, event: RuntimeEvent) {
        (self.events)(event);
    }
}

/// A job's work function. Runs on a worker thread under `catch_unwind`;
/// returning is classification, panicking is classified *for* it.
pub type JobPayload = Box<dyn FnOnce(&ExecCtx<'_>) -> Result<JobOutcome, JobError> + Send>;

/// One submission: who, which session, and what to run.
pub struct JobSpec {
    /// Submitting tenant (quota and fairness key).
    pub tenant: String,
    /// Session id — the durable identity; resubmitting the same session
    /// resumes its checkpoints.
    pub session: String,
    /// The work itself.
    pub payload: JobPayload,
}

impl JobSpec {
    /// A job of `tenant` that runs `payload` under `session`.
    #[must_use]
    pub fn new(tenant: &str, session: &str, payload: JobPayload) -> Self {
        JobSpec {
            tenant: tenant.to_string(),
            session: session.to_string(),
            payload,
        }
    }

    /// The queue entry for this submission; the queue assigns its
    /// sequence number.
    fn into_queued(self) -> QueuedJob {
        QueuedJob {
            seq: 0,
            ticket: JobTicket::new(&self.tenant, &self.session),
            tenant: self.tenant,
            session: self.session,
            payload: self.payload,
        }
    }
}

/// Service shape: pool size, queue bounds, durability.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Queue capacity and per-tenant quota.
    pub queue: QueueConfig,
    /// Checkpoints retained per session.
    pub retain: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue: QueueConfig::default(),
            retain: 2,
        }
    }
}

/// A queue-depth/in-flight gauge record follows every this many events.
const GAUGE_EVERY: u64 = 16;

/// A point-in-time snapshot of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Submissions refused admission (typed reasons in telemetry).
    pub rejected: u64,
    /// Jobs that classified `Completed`.
    pub completed: u64,
    /// Jobs that classified `Failed`.
    pub failed: u64,
    /// Jobs that classified `Evicted`.
    pub evicted: u64,
    /// Worker threads respawned after a poisoning panic.
    pub respawns: u64,
    /// Worker threads currently alive.
    pub live_workers: usize,
}

/// What a drain accomplished before its deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued jobs evicted (resumable) without ever dispatching.
    pub evicted_queued: usize,
    /// Whether every in-flight job classified before the deadline.
    pub drained_clean: bool,
    /// In-flight jobs still running when the deadline elapsed (0 when
    /// `drained_clean`).
    pub inflight_at_deadline: usize,
}

type TelemetrySink = Box<dyn FnMut(&str) + Send>;

struct Shared {
    queue: JobQueue,
    sessions: SessionStore,
    telemetry: Mutex<Option<TelemetrySink>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    live_workers: AtomicUsize,
    respawns: AtomicU64,
    events_emitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    evicted: AtomicU64,
}

impl Shared {
    fn emit_event(&self, event: RuntimeEvent) {
        let mut sink = self.telemetry.lock().expect("telemetry mutex");
        let Some(sink) = sink.as_mut() else { return };
        sink(&event.telemetry_line());
        let n = self.events_emitted.fetch_add(1, Ordering::SeqCst) + 1;
        if n % GAUGE_EVERY == 0 {
            sink(&self.gauge_line());
        }
    }

    fn gauge_line(&self) -> String {
        let (depth, inflight) = self.queue.depth_inflight();
        format!(
            "{{\"kind\": \"service_gauge\", \"queue_depth\": {depth}, \"inflight\": {inflight}, \
             \"admitted\": {}, \"rejected\": {}, \"completed\": {}, \"failed\": {}, \
             \"evicted\": {}}}",
            self.admitted.load(Ordering::SeqCst),
            self.rejected.load(Ordering::SeqCst),
            self.completed.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
            self.evicted.load(Ordering::SeqCst),
        )
    }

    /// Counts an admission and emits its event.
    fn record_admitted(&self, ticket: &JobTicket, depth: usize) {
        self.admitted.fetch_add(1, Ordering::SeqCst);
        self.emit_event(RuntimeEvent::Admitted {
            tenant: ticket.tenant().to_string(),
            session: ticket.session().to_string(),
            queue_depth: depth as u64,
        });
    }

    /// Counts a refused submission and emits its event with `reason`'s
    /// stable code.
    fn record_rejected(&self, job: &QueuedJob, reason: &'static str) {
        self.rejected.fetch_add(1, Ordering::SeqCst);
        self.emit_event(RuntimeEvent::Rejected {
            tenant: job.tenant.clone(),
            session: job.session.clone(),
            reason,
        });
    }

    /// Classifies a job: counter, eviction telemetry, then the ticket
    /// (exactly-once — the ticket enforces first-wins and the counter
    /// only moves when this call was the classifying one).
    fn finish(&self, ticket: &JobTicket, status: TerminalStatus, durable: Option<u64>) {
        let counter = match &status {
            TerminalStatus::Completed { .. } => &self.completed,
            TerminalStatus::Failed { .. } => &self.failed,
            TerminalStatus::Evicted => {
                self.emit_event(RuntimeEvent::Evicted {
                    session: ticket.session().to_string(),
                    last_durable_step: durable,
                });
                &self.evicted
            }
        };
        if ticket.finish(status) {
            counter.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Best-effort terminal manifest write. The in-memory classification
    /// on the ticket is authoritative; a failed write leaves the durable
    /// status at `running`, which recovery treats as interrupted — the
    /// conservative (resumable) reading.
    fn save_terminal(
        &self,
        manifest: &mut SessionManifest,
        status: SessionStatus,
        durable: Option<u64>,
        error_kind: Option<String>,
    ) {
        manifest.status = status;
        if durable.is_some() {
            manifest.last_durable_step = durable;
        }
        manifest.error_kind = error_kind;
        let _ = self.sessions.save(manifest);
    }

    /// [`Shared::save_terminal`] for a job that holds no manifest copy of
    /// its own: one that never dispatched, or whose store failed to open.
    fn save_terminal_manifest(
        &self,
        session: &str,
        tenant: &str,
        status: SessionStatus,
        durable: Option<u64>,
        error_kind: Option<String>,
    ) {
        let mut manifest = self
            .sessions
            .load(session)
            .unwrap_or_else(|_| SessionManifest::new(session, tenant, 0));
        manifest.tenant = tenant.to_string();
        self.save_terminal(&mut manifest, status, durable, error_kind);
    }
}

/// The multi-tenant job service. See the crate docs for the full
/// contract; construction spawns the worker pool, [`JobService::shutdown`]
/// drains and joins it.
pub struct JobService {
    shared: Arc<Shared>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn spawn_worker(shared: &Arc<Shared>, slot: usize) {
    let worker = Arc::clone(shared);
    shared.live_workers.fetch_add(1, Ordering::SeqCst);
    let handle = std::thread::Builder::new()
        .name(format!("sops-service-{slot}"))
        .spawn(move || worker_loop(&worker, slot))
        .expect("spawn service worker");
    shared.handles.lock().expect("handles mutex").push(handle);
}

fn worker_loop(shared: &Arc<Shared>, slot: usize) {
    loop {
        match shared.queue.pop_blocking() {
            Popped::Exit => break,
            Popped::Job(job, token) => {
                let seq = job.seq;
                let session = job.session.clone();
                let poisoned = run_job(shared, job, &token);
                shared.queue.finish_inflight(seq, &session);
                if poisoned {
                    // The panic was caught and classified (and counted in
                    // `respawns` before the ticket resolved), but a payload
                    // that panicked may have poisoned thread-local state;
                    // retire this thread and replace the slot.
                    if !shared.queue.is_stopping() {
                        spawn_worker(shared, slot);
                    }
                    break;
                }
            }
        }
    }
    shared.live_workers.fetch_sub(1, Ordering::SeqCst);
}

/// Runs one job to its terminal classification. Returns whether the
/// payload panicked (poisoning the worker slot).
fn run_job(shared: &Arc<Shared>, job: QueuedJob, token: &CancelToken) -> bool {
    let QueuedJob {
        tenant,
        session,
        payload,
        ticket,
        ..
    } = job;
    let store = match shared
        .sessions
        .checkpoint_store(&session, Some(token.clone()))
    {
        Ok(store) => store,
        Err(e) => {
            shared.save_terminal_manifest(
                &session,
                &tenant,
                SessionStatus::Failed,
                None,
                Some("io".to_string()),
            );
            shared.finish(&ticket, TerminalStatus::Failed { error: e.into() }, None);
            return false;
        }
    };
    // Mark the session running *durably before* the payload starts: a
    // crash mid-job must recover as an interrupted (resumable) session.
    let mut manifest = shared
        .sessions
        .load(&session)
        .unwrap_or_else(|_| SessionManifest::new(&session, &tenant, 0));
    manifest.tenant = tenant.clone();
    manifest.status = SessionStatus::Running;
    manifest.runs += 1;
    if let Err(e) = shared.sessions.save(&manifest) {
        shared.finish(&ticket, TerminalStatus::Failed { error: e.into() }, None);
        return false;
    }
    let emit = |event: RuntimeEvent| shared.emit_event(event);
    let ctx = ExecCtx {
        cancel: token,
        store: &store,
        session: &session,
        events: &emit,
    };
    let result = catch_unwind(AssertUnwindSafe(|| payload(&ctx)));
    let durable = store.newest_step().unwrap_or(None);
    let (status, session_status, error_kind, poisoned) = match result {
        Err(panic) => {
            // Count the poisoning before the ticket resolves, so a waiter
            // that observed the classification never reads a stale count.
            shared.respawns.fetch_add(1, Ordering::SeqCst);
            let error = JobError::Panic {
                message: panic_message(panic),
            };
            let kind = error.kind().to_string();
            (
                TerminalStatus::Failed { error },
                SessionStatus::Failed,
                Some(kind),
                true,
            )
        }
        Ok(Ok(JobOutcome::Completed { steps })) => (
            TerminalStatus::Completed { steps },
            SessionStatus::Completed,
            None,
            false,
        ),
        // The store is re-listed below for the durable step, so the
        // outcome's own hint is redundant here.
        Ok(Ok(JobOutcome::Yielded { .. }) | Err(JobError::Cancelled { .. })) => {
            (TerminalStatus::Evicted, SessionStatus::Evicted, None, false)
        }
        Ok(Err(error)) => {
            let kind = error.kind().to_string();
            (
                TerminalStatus::Failed { error },
                SessionStatus::Failed,
                Some(kind),
                false,
            )
        }
    };
    // The session has no other writer while this job runs, so the copy
    // written as `Running` above is the durable manifest: no reload.
    shared.save_terminal(&mut manifest, session_status, durable, error_kind);
    shared.finish(&ticket, status, durable);
    poisoned
}

impl JobService {
    /// Opens the service on the real filesystem, rooted at `root`, and
    /// spawns the worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors creating the durable layout.
    pub fn open(root: &Path, cfg: ServiceConfig) -> io::Result<Self> {
        Self::open_with(root, cfg, Arc::new(RealVfs))
    }

    /// [`JobService::open`] against an explicit [`Vfs`] — the chaos
    /// suite's crash-injection seam.
    ///
    /// # Errors
    ///
    /// I/O errors creating the durable layout.
    pub fn open_with(root: &Path, cfg: ServiceConfig, vfs: Arc<dyn Vfs>) -> io::Result<Self> {
        let sessions = SessionStore::open_with(root, cfg.retain, vfs)?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue),
            sessions,
            telemetry: Mutex::new(None),
            handles: Mutex::new(Vec::new()),
            live_workers: AtomicUsize::new(0),
            respawns: AtomicU64::new(0),
            events_emitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        });
        for slot in 0..workers {
            spawn_worker(&shared, slot);
        }
        Ok(JobService { shared })
    }

    /// Rebuilds the session table from disk: reaps orphaned temp state,
    /// validates every manifest, and reports torn ones. Use
    /// [`SessionRecovery::resumable`] to decide what to resubmit.
    ///
    /// # Errors
    ///
    /// Directory-level I/O failures only.
    pub fn recover_sessions(&self) -> io::Result<SessionRecovery> {
        self.shared.sessions.recover()
    }

    /// The durable session store.
    #[must_use]
    pub fn session_store(&self) -> &SessionStore {
        &self.shared.sessions
    }

    /// Wires a telemetry sink; each record is one JSONL line in the
    /// runtime-event schema (plus periodic `service_gauge` records).
    pub fn set_telemetry(&self, sink: impl FnMut(&str) + Send + 'static) {
        *self.shared.telemetry.lock().expect("telemetry mutex") = Some(Box::new(sink));
    }

    /// Non-blocking typed admission. A rejected submission *is* its
    /// classification — nothing was enqueued and nothing will run.
    pub fn submit(&self, spec: JobSpec) -> Admission {
        let job = spec.into_queued();
        let ticket = job.ticket.clone();
        match self.shared.queue.try_admit(job) {
            Ok(depth) => {
                self.shared.record_admitted(&ticket, depth);
                Admission::Admitted(ticket)
            }
            Err((job, reason)) => {
                self.shared.record_rejected(&job, reason.code());
                Admission::Rejected { reason }
            }
        }
    }

    /// Blocking admission with backpressure: parks while the queue is
    /// full. A cancelled submitter unblocks within the queue's 25 ms
    /// admission poll with [`JobError::Cancelled`] — it never waits for a
    /// slot that may not come.
    ///
    /// # Errors
    ///
    /// [`JobError::Cancelled`] when `cancel` fires while parked;
    /// [`JobError::App`] with the typed reason code when admission
    /// closes (draining).
    pub fn submit_wait(&self, spec: JobSpec, cancel: &CancelToken) -> Result<JobTicket, JobError> {
        let job = spec.into_queued();
        let ticket = job.ticket.clone();
        match self.shared.queue.admit_wait(job, cancel) {
            Ok(depth) => {
                self.shared.record_admitted(&ticket, depth);
                Ok(ticket)
            }
            Err((job, WaitError::Cancelled)) => {
                self.shared.record_rejected(&job, "cancelled");
                Err(JobError::Cancelled {
                    reason: DegradeReason::ExternalCancel,
                    step: 0,
                })
            }
            Err((job, WaitError::Rejected(reason))) => {
                self.shared.record_rejected(&job, reason.code());
                Err(JobError::app(format!(
                    "admission rejected: {}",
                    reason.code()
                )))
            }
        }
    }

    /// Graceful drain: closes admissions, evicts every queued job as
    /// resumable, signals eviction to every in-flight job, and waits up
    /// to `deadline` for them to checkpoint and classify. In-flight work
    /// still running at the deadline stays classified-in-flight (its
    /// ticket resolves when it finally yields); nothing is silently
    /// dropped.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let (queued, tokens) = self.shared.queue.drain();
        for token in &tokens {
            token.cancel();
        }
        let evicted_queued = queued.len();
        for Drained {
            job,
            writes_manifest,
        } in queued
        {
            let durable = self
                .shared
                .sessions
                .load(&job.session)
                .ok()
                .and_then(|m| m.last_durable_step);
            // The terminal manifest is written only when the queue reserved
            // the session for it; otherwise a job of that session is
            // running, and that job's worker owns the manifest.
            if writes_manifest {
                self.shared.save_terminal_manifest(
                    &job.session,
                    &job.tenant,
                    SessionStatus::Evicted,
                    durable,
                    None,
                );
                self.shared.queue.release_session(&job.session);
            }
            self.shared
                .finish(&job.ticket, TerminalStatus::Evicted, durable);
        }
        let drained_clean = self.shared.queue.wait_idle(deadline);
        let (_, inflight_at_deadline) = self.shared.queue.depth_inflight();
        DrainReport {
            evicted_queued,
            drained_clean,
            inflight_at_deadline,
        }
    }

    /// Drains, stops, and joins the worker pool. Consumes the service.
    pub fn shutdown(self, drain_deadline: Duration) -> DrainReport {
        let report = self.drain(drain_deadline);
        self.shared.queue.stop();
        // Join until the handle list is empty: a poisoned worker may
        // have pushed its replacement's handle while we were joining.
        loop {
            let handle = self.shared.handles.lock().expect("handles mutex").pop();
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        report
    }

    /// Queued (not yet dispatched) jobs.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth_inflight().0
    }

    /// Jobs currently executing on workers.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.shared.queue.depth_inflight().1
    }

    /// Current counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            admitted: self.shared.admitted.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
            completed: self.shared.completed.load(Ordering::SeqCst),
            failed: self.shared.failed.load(Ordering::SeqCst),
            evicted: self.shared.evicted.load(Ordering::SeqCst),
            respawns: self.shared.respawns.load(Ordering::SeqCst),
            live_workers: self.shared.live_workers.load(Ordering::SeqCst),
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        // Wake-only: parked workers exit instead of leaking. Join (and
        // the graceful drain) is `shutdown`'s job.
        self.shared.queue.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_chains::FaultyVfs;
    use std::sync::atomic::AtomicBool;

    fn service(workers: usize) -> JobService {
        JobService::open_with(
            Path::new("/svc"),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
            Arc::new(FaultyVfs::new()),
        )
        .unwrap()
    }

    fn ok_payload(steps: u64) -> JobPayload {
        Box::new(move |_ctx| Ok(JobOutcome::Completed { steps }))
    }

    #[test]
    fn completes_a_job_end_to_end_with_durable_manifest() {
        let svc = service(2);
        let Admission::Admitted(ticket) =
            svc.submit(JobSpec::new("acme", "acme/s-1", ok_payload(11)))
        else {
            panic!("fresh service rejected a job")
        };
        assert_eq!(ticket.wait(), TerminalStatus::Completed { steps: 11 });
        assert_eq!(ticket.finish_count(), 1);
        let manifest = svc.session_store().load("acme/s-1").unwrap();
        assert_eq!(manifest.status, SessionStatus::Completed);
        assert_eq!(manifest.runs, 1);
        let stats = svc.shutdown(Duration::from_secs(5));
        assert!(stats.drained_clean);
    }

    #[test]
    fn panic_is_classified_and_the_worker_slot_respawns() {
        let svc = service(1);
        let Admission::Admitted(poison) = svc.submit(JobSpec::new(
            "t",
            "t/poison",
            Box::new(|_ctx| panic!("job exploded")),
        )) else {
            panic!("rejected")
        };
        match poison.wait() {
            TerminalStatus::Failed { error } => {
                assert_eq!(error.kind(), "panic");
                assert!(error.to_string().contains("job exploded"));
            }
            other => panic!("expected Failed(Panic), got {other:?}"),
        }
        // The pool survives: a follow-up job on the respawned slot runs.
        let Admission::Admitted(after) = svc.submit(JobSpec::new("t", "t/after", ok_payload(1)))
        else {
            panic!("rejected")
        };
        assert_eq!(after.wait(), TerminalStatus::Completed { steps: 1 });
        assert_eq!(svc.stats().respawns, 1);
        // The replacement spawns before the poisoned thread retires, so
        // the live count is transiently 2; poll until it settles.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.stats().live_workers != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "poisoned slot not replaced cleanly: {:?}",
                svc.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let manifest = svc.session_store().load("t/poison").unwrap();
        assert_eq!(manifest.status, SessionStatus::Failed);
        assert_eq!(manifest.error_kind.as_deref(), Some("panic"));
        svc.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn drain_evicts_queued_jobs_as_resumable() {
        // One worker pinned on a slow job; everything queued behind it
        // must classify Evicted at drain, never hang.
        let svc = service(1);
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        let Admission::Admitted(slow) = svc.submit(JobSpec::new(
            "t",
            "t/slow",
            Box::new(move |ctx| {
                while !gate.load(Ordering::SeqCst) && !ctx.evicting() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(JobOutcome::Yielded {
                    last_durable_step: None,
                })
            }),
        )) else {
            panic!("rejected")
        };
        // Wait for the slow job to actually dispatch, so the next three
        // are genuinely queued behind it (not racing the worker's pop).
        while svc.inflight() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut queued = Vec::new();
        for i in 0..3 {
            let Admission::Admitted(t) =
                svc.submit(JobSpec::new("t", &format!("t/q{i}"), ok_payload(1)))
            else {
                panic!("rejected")
            };
            queued.push(t);
        }
        let report = svc.drain(Duration::from_secs(5));
        assert!(report.drained_clean, "in-flight job ignored eviction");
        assert_eq!(report.evicted_queued, 3);
        for t in &queued {
            assert_eq!(t.wait(), TerminalStatus::Evicted);
            assert_eq!(t.finish_count(), 1);
        }
        assert_eq!(slow.wait(), TerminalStatus::Evicted);
        release.store(true, Ordering::SeqCst);
        svc.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn draining_a_waiting_job_leaves_its_running_sessions_manifest_alone() {
        let svc = service(1);
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        // The running job ignores the drain's eviction signal until
        // released, so its session has a writer throughout the drain.
        let Admission::Admitted(running) = svc.submit(JobSpec::new(
            "t",
            "t/s",
            Box::new(move |_ctx| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(JobOutcome::Completed { steps: 3 })
            }),
        )) else {
            panic!("rejected")
        };
        // The worker writes the durable `running` manifest after it takes
        // the job off the queue; wait for that write, not for the pop.
        while !svc
            .session_store()
            .load("t/s")
            .is_ok_and(|m| m.status == SessionStatus::Running)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let Admission::Admitted(waiting) = svc.submit(JobSpec::new("t", "t/s", ok_payload(1)))
        else {
            panic!("rejected")
        };
        let report = svc.drain(Duration::ZERO);
        assert_eq!(report.evicted_queued, 1);
        assert!(!report.drained_clean);
        assert_eq!(waiting.wait(), TerminalStatus::Evicted);
        // The evicted job wrote no manifest: the running job owns it.
        let manifest = svc.session_store().load("t/s").unwrap();
        assert_eq!(manifest.status, SessionStatus::Running);
        release.store(true, Ordering::SeqCst);
        assert_eq!(running.wait(), TerminalStatus::Completed { steps: 3 });
        let manifest = svc.session_store().load("t/s").unwrap();
        assert_eq!(manifest.status, SessionStatus::Completed);
        assert_eq!(manifest.runs, 1);
        svc.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn telemetry_stream_carries_service_events_and_gauges() {
        let vfs = Arc::new(FaultyVfs::new());
        let svc = JobService::open_with(
            Path::new("/svc"),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            vfs,
        )
        .unwrap();
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink_lines = Arc::clone(&lines);
        svc.set_telemetry(move |line| sink_lines.lock().unwrap().push(line.to_string()));
        // One `admitted` event each: the last one is followed by a gauge.
        for i in 0..GAUGE_EVERY {
            let Admission::Admitted(t) =
                svc.submit(JobSpec::new("t", &format!("t/{i}"), ok_payload(1)))
            else {
                panic!("rejected")
            };
            let _ = t.wait();
        }
        svc.shutdown(Duration::from_secs(5));
        let lines = lines.lock().unwrap();
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\": \"admitted\"") && l.contains("\"queue_depth\"")));
        assert_eq!(
            lines
                .iter()
                .position(|l| l.starts_with("{\"kind\": \"service_gauge\"")),
            Some(16),
            "a gauge record must follow the 16th event: {lines:?}"
        );
    }
}
