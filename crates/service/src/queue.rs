//! The bounded job queue: typed admission control, per-tenant quotas,
//! round-robin fair scheduling over per-tenant lanes kept in arrival
//! order, and the terminal-state tickets that make "every submitted job
//! classifies exactly once" checkable.
//!
//! Everything here is condvar-and-mutex concurrency — no async runtime,
//! consistent with the workspace's vendored-offline dependency policy.
//! The scheduler state lives under one mutex; workers park on the `work`
//! condvar when idle (never spin), blocked submitters park on `space`,
//! and drain waiters park on `idle`.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sops_chains::CancelToken;

use crate::service::JobPayload;

/// Why a submission was refused admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue is at capacity.
    QueueFull,
    /// The tenant already has its quota of queued jobs.
    TenantQuotaExceeded,
    /// The service is draining toward shutdown; admissions are closed.
    Draining,
}

impl RejectReason {
    /// The stable machine-readable code serialized into telemetry.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TenantQuotaExceeded => "tenant_quota_exceeded",
            RejectReason::Draining => "draining",
        }
    }
}

/// The typed admission verdict for a non-blocking submission.
#[derive(Debug)]
pub enum Admission {
    /// The job entered the queue; the ticket resolves to its terminal
    /// state.
    Admitted(JobTicket),
    /// The job was refused; nothing was enqueued and nothing will run.
    Rejected {
        /// Why admission refused the job.
        reason: RejectReason,
    },
}

/// The exactly-one classified terminal state of a job that passed
/// admission.
#[derive(Clone, Debug, PartialEq)]
pub enum TerminalStatus {
    /// The job's payload finished its requested work.
    Completed {
        /// Chain steps the payload reported executing.
        steps: u64,
    },
    /// The job failed with a typed error (panics included — the worker
    /// catches them and classifies, never dies silently).
    Failed {
        /// The failure.
        error: sops_runtime::JobError,
    },
    /// The job was evicted by a drain (or the shutdown that drains). The
    /// session's durable checkpoints are intact, and a resubmission
    /// continues bit-identically from the newest one.
    Evicted,
}

impl TerminalStatus {
    /// The stable machine-readable code.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            TerminalStatus::Completed { .. } => "completed",
            TerminalStatus::Failed { .. } => "failed",
            TerminalStatus::Evicted => "evicted",
        }
    }
}

struct TicketInner {
    tenant: String,
    session: String,
    slot: Mutex<Option<TerminalStatus>>,
    done: Condvar,
    /// How many times anything *attempted* to finish this ticket. The
    /// chaos suite asserts this is exactly 1 per admitted job — the
    /// "exactly one classified terminal state" invariant, made countable.
    finishes: AtomicU32,
}

/// A handle to one admitted job's terminal state. Clonable; any clone
/// can wait. The first classification wins and is immutable afterwards.
#[derive(Clone)]
pub struct JobTicket {
    inner: Arc<TicketInner>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("tenant", &self.inner.tenant)
            .field("session", &self.inner.session)
            .field("status", &self.status())
            .finish()
    }
}

impl JobTicket {
    pub(crate) fn new(tenant: &str, session: &str) -> Self {
        JobTicket {
            inner: Arc::new(TicketInner {
                tenant: tenant.to_string(),
                session: session.to_string(),
                slot: Mutex::new(None),
                done: Condvar::new(),
                finishes: AtomicU32::new(0),
            }),
        }
    }

    /// The submitting tenant.
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.inner.tenant
    }

    /// The session the job runs under.
    #[must_use]
    pub fn session(&self) -> &str {
        &self.inner.session
    }

    /// The terminal state, if the job has classified yet.
    #[must_use]
    pub fn status(&self) -> Option<TerminalStatus> {
        self.inner.slot.lock().expect("ticket mutex").clone()
    }

    /// Blocks until the job classifies and returns its terminal state.
    #[must_use]
    pub fn wait(&self) -> TerminalStatus {
        let mut slot = self.inner.slot.lock().expect("ticket mutex");
        loop {
            if let Some(status) = slot.as_ref() {
                return status.clone();
            }
            slot = self.inner.done.wait(slot).expect("ticket mutex");
        }
    }

    /// [`JobTicket::wait`] with a timeout; `None` when the job has not
    /// classified within `timeout`.
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<TerminalStatus> {
        let start = Instant::now();
        let mut slot = self.inner.slot.lock().expect("ticket mutex");
        loop {
            if let Some(status) = slot.as_ref() {
                return Some(status.clone());
            }
            let remaining = timeout.checked_sub(start.elapsed())?;
            let (guard, _) = self
                .inner
                .done
                .wait_timeout(slot, remaining)
                .expect("ticket mutex");
            slot = guard;
        }
    }

    /// How many classification *attempts* the ticket received. The
    /// exactly-once invariant requires this to be 1 for every admitted
    /// job once it has terminated.
    #[must_use]
    pub fn finish_count(&self) -> u32 {
        self.inner.finishes.load(Ordering::SeqCst)
    }

    /// Records a terminal state. The first call wins; later calls are
    /// counted (so the invariant check can see them) but change nothing.
    /// Returns whether this call was the one that classified the job.
    pub(crate) fn finish(&self, status: TerminalStatus) -> bool {
        self.inner.finishes.fetch_add(1, Ordering::SeqCst);
        let mut slot = self.inner.slot.lock().expect("ticket mutex");
        if slot.is_some() {
            return false;
        }
        *slot = Some(status);
        drop(slot);
        self.inner.done.notify_all();
        true
    }
}

/// Queue shape: how many jobs may wait, in all and per tenant.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Maximum queued (not yet dispatched) jobs across all tenants.
    pub capacity: usize,
    /// Maximum queued jobs per tenant.
    pub tenant_quota: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 64,
            tenant_quota: 32,
        }
    }
}

/// Upper bound on each park of a blocked admission. Because
/// [`CancelToken`] is a bare atomic flag with no wakeup channel, this
/// bound *is* the worst-case cancellation latency.
const ADMISSION_POLL: Duration = Duration::from_millis(25);

pub(crate) struct QueuedJob {
    pub(crate) seq: u64,
    pub(crate) tenant: String,
    pub(crate) session: String,
    pub(crate) payload: JobPayload,
    pub(crate) ticket: JobTicket,
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("seq", &self.seq)
            .field("tenant", &self.tenant)
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

struct SchedState {
    /// Each tenant's queued jobs, in submission order.
    lanes: BTreeMap<String, VecDeque<QueuedJob>>,
    /// Round-robin rotation of tenants with pending work.
    active: VecDeque<String>,
    /// Queued (not yet dispatched) jobs across all lanes.
    depth: usize,
    /// Dispatched jobs that have not yet classified.
    inflight: usize,
    /// Sessions with a manifest writer: a dispatched job, or a drained
    /// job whose terminal manifest write is pending. A queued job
    /// of a session in here is skipped by the scheduler, so each session
    /// runs one job at a time and has one writer.
    busy: HashSet<String>,
    draining: bool,
    stopped: bool,
    next_seq: u64,
}

/// A queued job taken off the queue by [`JobQueue::drain`], for the
/// caller to classify as evicted. `writes_manifest` is true when the
/// queue reserved the job's session for its terminal manifest write, to
/// be released with [`JobQueue::release_session`]; it is false when the
/// session already has a writer, which then owns the manifest.
#[derive(Debug)]
pub(crate) struct Drained {
    pub(crate) job: QueuedJob,
    pub(crate) writes_manifest: bool,
}

pub(crate) enum Popped {
    Job(QueuedJob),
    Exit,
}

pub(crate) enum WaitError {
    Rejected(RejectReason),
    Cancelled,
}

/// What one poll of a blocked admission decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WaitVerdict {
    /// Space exists; admit now.
    Admit,
    /// The submitter's cancel token fired; unblock with `Cancelled`.
    Cancelled,
    /// Admission is permanently closed (draining); unblock rejected.
    Rejected(RejectReason),
    /// No space yet; park for at most [`ADMISSION_POLL`] and poll again.
    Park,
}

/// The pure decision core of the blocking admission wait, factored out
/// of the condvar loop so the cancel-vs-slot race is testable with a
/// fake clock.
///
/// The ordering is the regression contract: **cancellation is checked
/// before space**, so a cancelled submitter unblocks with a cancel
/// verdict even on the exact poll where a slot opened.
fn wait_verdict(cancelled: bool, draining: bool, would_fit: bool) -> WaitVerdict {
    if cancelled {
        WaitVerdict::Cancelled
    } else if draining {
        WaitVerdict::Rejected(RejectReason::Draining)
    } else if would_fit {
        WaitVerdict::Admit
    } else {
        WaitVerdict::Park
    }
}

/// The bounded, multi-tenant job queue. See the module docs for the
/// concurrency layout; the public service API lives on
/// [`crate::JobService`], which owns one of these.
pub(crate) struct JobQueue {
    cfg: QueueConfig,
    state: Mutex<SchedState>,
    /// Workers park here when the queue is empty.
    work: Condvar,
    /// Blocked submitters park here when the queue is full.
    space: Condvar,
    /// Drain waiters park here until the last in-flight job classifies.
    idle: Condvar,
    /// The one eviction signal: [`JobQueue::drain`] fires it, and every
    /// running job reads it before each chunk.
    eviction: CancelToken,
}

impl JobQueue {
    pub(crate) fn new(mut cfg: QueueConfig) -> Self {
        cfg.capacity = cfg.capacity.max(1);
        cfg.tenant_quota = cfg.tenant_quota.max(1);
        JobQueue {
            cfg,
            state: Mutex::new(SchedState {
                lanes: BTreeMap::new(),
                active: VecDeque::new(),
                depth: 0,
                inflight: 0,
                busy: HashSet::new(),
                draining: false,
                stopped: false,
                next_seq: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            eviction: CancelToken::new(),
        }
    }

    /// The token [`JobQueue::drain`] fires to evict every running job.
    pub(crate) fn eviction(&self) -> &CancelToken {
        &self.eviction
    }

    fn insert_locked(st: &mut SchedState, mut job: QueuedJob) -> usize {
        job.seq = st.next_seq;
        st.next_seq += 1;
        let tenant = job.tenant.clone();
        let lane = st.lanes.entry(tenant.clone()).or_default();
        let newly_active = lane.is_empty();
        lane.push_back(job);
        if newly_active {
            st.active.push_back(tenant);
        }
        st.depth += 1;
        st.depth
    }

    /// Whether `tenant`'s lane is at its quota, and whether the queue is
    /// at capacity: the two bounds a new job of `tenant` must fit.
    fn full_locked(&self, st: &SchedState, tenant: &str) -> (bool, bool) {
        let lane_len = st.lanes.get(tenant).map_or(0, VecDeque::len);
        (
            lane_len >= self.cfg.tenant_quota,
            st.depth >= self.cfg.capacity,
        )
    }

    /// Non-blocking typed admission. Returns the queue depth after the
    /// job entered, or the job back with the reason it was refused.
    pub(crate) fn try_admit(&self, job: QueuedJob) -> Result<usize, (QueuedJob, RejectReason)> {
        let mut guard = self.state.lock().expect("queue mutex");
        let st = &mut *guard;
        if st.draining || st.stopped {
            return Err((job, RejectReason::Draining));
        }
        let (lane_full, queue_full) = self.full_locked(st, &job.tenant);
        if lane_full {
            return Err((job, RejectReason::TenantQuotaExceeded));
        }
        if queue_full {
            return Err((job, RejectReason::QueueFull));
        }
        let depth = Self::insert_locked(st, job);
        drop(guard);
        self.work.notify_one();
        Ok(depth)
    }

    /// Blocking admission with backpressure: parks while the queue (or
    /// the tenant's quota) is full, polling `cancel` at least every
    /// [`ADMISSION_POLL`] so a cancelled submitter unblocks promptly
    /// instead of waiting for a slot. Returns the queue depth after the
    /// job entered.
    pub(crate) fn admit_wait(
        &self,
        job: QueuedJob,
        cancel: &CancelToken,
    ) -> Result<usize, (QueuedJob, WaitError)> {
        let mut guard = self.state.lock().expect("queue mutex");
        loop {
            let st = &mut *guard;
            let draining = st.draining || st.stopped;
            let (lane_full, queue_full) = self.full_locked(st, &job.tenant);
            match wait_verdict(cancel.is_cancelled(), draining, !lane_full && !queue_full) {
                WaitVerdict::Cancelled => return Err((job, WaitError::Cancelled)),
                WaitVerdict::Rejected(reason) => return Err((job, WaitError::Rejected(reason))),
                WaitVerdict::Admit => {
                    let depth = Self::insert_locked(st, job);
                    drop(guard);
                    self.work.notify_one();
                    return Ok(depth);
                }
                WaitVerdict::Park => {
                    let (g, _) = self
                        .space
                        .wait_timeout(guard, ADMISSION_POLL)
                        .expect("queue mutex");
                    guard = g;
                }
            }
        }
    }

    /// Round-robin pop under the lock. Each visit takes the next tenant
    /// in the rotation and pops its lane's oldest job whose session is
    /// not busy; a lane with none goes to the back. The rotation pops
    /// within one pass whenever any queued job's session is free.
    fn pop_locked(st: &mut SchedState) -> Option<QueuedJob> {
        let free = st
            .lanes
            .values()
            .flatten()
            .any(|job| !st.busy.contains(&job.session));
        if !free {
            return None;
        }
        loop {
            let tenant = st.active.pop_front()?;
            let lane = st.lanes.get_mut(&tenant).expect("active lane exists");
            let oldest_free = lane.iter().position(|job| !st.busy.contains(&job.session));
            if let Some(idx) = oldest_free {
                let job = lane.remove(idx).expect("picked index valid");
                if !lane.is_empty() {
                    st.active.push_back(tenant);
                }
                st.depth -= 1;
                st.busy.insert(job.session.clone());
                return Some(job);
            }
            st.active.push_back(tenant);
        }
    }

    /// Worker-side blocking pop. Parks on the `work` condvar while no
    /// queued job can dispatch (idle workers never spin); returns [`Popped::Exit`]
    /// once the service is draining or stopped with nothing left to pop.
    pub(crate) fn pop_blocking(&self) -> Popped {
        let mut guard = self.state.lock().expect("queue mutex");
        loop {
            if guard.stopped {
                return Popped::Exit;
            }
            if let Some(job) = Self::pop_locked(&mut guard) {
                guard.inflight += 1;
                drop(guard);
                self.space.notify_all();
                return Popped::Job(job);
            }
            if guard.draining {
                return Popped::Exit;
            }
            guard = self.work.wait(guard).expect("queue mutex");
        }
    }

    /// Counts a dispatched job out once it has classified, and frees its
    /// session for the next queued job of that session. No worker needs
    /// waking: the caller pops next (or its replacement does).
    pub(crate) fn finish_inflight(&self, session: &str) {
        let mut st = self.state.lock().expect("queue mutex");
        st.inflight -= 1;
        st.busy.remove(session);
        let empty = st.inflight == 0;
        drop(st);
        if empty {
            self.idle.notify_all();
        }
    }

    /// Frees a session reserved for a [`Drained`] job's manifest write,
    /// waking a worker if jobs are queued (one may be of this session).
    pub(crate) fn release_session(&self, session: &str) {
        let mut st = self.state.lock().expect("queue mutex");
        st.busy.remove(session);
        let queued = st.depth > 0;
        drop(st);
        if queued {
            self.work.notify_one();
        }
    }

    /// Closes admissions, empties the queue, and fires the eviction token,
    /// so every running job stops before its next chunk. Returns the
    /// never-dispatched jobs (in submission order) for the caller to
    /// classify as evicted, each reserving its session for the terminal
    /// manifest write unless the session already has a writer.
    pub(crate) fn drain(&self) -> Vec<Drained> {
        let mut guard = self.state.lock().expect("queue mutex");
        let st = &mut *guard;
        st.draining = true;
        let mut queued = Vec::new();
        for lane in st.lanes.values_mut() {
            queued.extend(lane.drain(..));
        }
        queued.sort_by_key(|job| job.seq);
        let evicted = queued
            .into_iter()
            .map(|job| Drained {
                writes_manifest: st.busy.insert(job.session.clone()),
                job,
            })
            .collect();
        st.active.clear();
        st.depth = 0;
        drop(guard);
        self.eviction.cancel();
        self.work.notify_all();
        self.space.notify_all();
        self.idle.notify_all();
        evicted
    }

    /// Tells workers to exit unconditionally (after a drain).
    pub(crate) fn stop(&self) {
        let mut st = self.state.lock().expect("queue mutex");
        st.stopped = true;
        drop(st);
        self.work.notify_all();
        self.space.notify_all();
        self.idle.notify_all();
    }

    /// Blocks until no job is in flight, or `deadline` elapses. Returns
    /// whether the queue went idle in time.
    pub(crate) fn wait_idle(&self, deadline: Duration) -> bool {
        let start = Instant::now();
        let mut st = self.state.lock().expect("queue mutex");
        while st.inflight > 0 {
            let Some(remaining) = deadline.checked_sub(start.elapsed()) else {
                return false;
            };
            let (guard, _) = self.idle.wait_timeout(st, remaining).expect("queue mutex");
            st = guard;
        }
        true
    }

    pub(crate) fn depth_inflight(&self) -> (usize, usize) {
        let st = self.state.lock().expect("queue mutex");
        (st.depth, st.inflight)
    }

    pub(crate) fn is_stopping(&self) -> bool {
        let st = self.state.lock().expect("queue mutex");
        st.draining || st.stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{JobOutcome, JobPayload};

    fn payload() -> JobPayload {
        Box::new(|_ctx| Ok(JobOutcome::Completed { steps: 0 }))
    }

    fn job(tenant: &str, session: &str) -> QueuedJob {
        QueuedJob {
            seq: 0,
            tenant: tenant.to_string(),
            session: session.to_string(),
            payload: payload(),
            ticket: JobTicket::new(tenant, session),
        }
    }

    fn pop(queue: &JobQueue) -> QueuedJob {
        match queue.pop_blocking() {
            Popped::Job(job) => job,
            Popped::Exit => panic!("queue unexpectedly stopped"),
        }
    }

    #[test]
    fn admission_is_typed_per_rejection_cause() {
        let queue = JobQueue::new(QueueConfig {
            capacity: 2,
            tenant_quota: 1,
        });
        queue.try_admit(job("a", "a/0")).unwrap();
        // Tenant quota before queue capacity.
        let (_, reason) = queue.try_admit(job("a", "a/1")).unwrap_err();
        assert_eq!(reason, RejectReason::TenantQuotaExceeded);
        queue.try_admit(job("b", "b/0")).unwrap();
        // A full queue refuses the next job: typed QueueFull.
        let (_, reason) = queue.try_admit(job("c", "c/0")).unwrap_err();
        assert_eq!(reason, RejectReason::QueueFull);
        // Draining closes admissions outright.
        let _ = queue.drain();
        let (_, reason) = queue.try_admit(job("d", "d/0")).unwrap_err();
        assert_eq!(reason, RejectReason::Draining);
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let queue = JobQueue::new(QueueConfig {
            capacity: 64,
            tenant_quota: 64,
        });
        for i in 0..6 {
            queue.try_admit(job("hog", &format!("hog/{i}"))).unwrap();
        }
        queue.try_admit(job("small", "small/0")).unwrap();
        // The single-job tenant is served within one rotation, not after
        // the hog's whole backlog.
        let order: Vec<String> = (0..7).map(|_| pop(&queue).tenant).collect();
        let small_at = order.iter().position(|t| t == "small").unwrap();
        assert!(
            small_at <= 1,
            "small tenant starved: dispatch order {order:?}"
        );
    }

    #[test]
    fn dispatch_order_is_pinned_across_tenants_and_busy_sessions() {
        // Each lane dispatches its oldest job whose session is not busy.
        let queue = JobQueue::new(QueueConfig::default());
        let admit = |tenant: &str, session: &str| {
            queue.try_admit(job(tenant, session)).unwrap();
        };
        let mut order = Vec::new();
        let mut take = || {
            let popped = pop(&queue);
            order.push(popped.session.clone());
            popped
        };
        admit("a", "a/1");
        admit("b", "b/1");
        admit("c", "c/0");
        admit("c", "c/1");
        // Lane a. `a/1` then stays busy while a second job of it queues.
        let a1 = take();
        admit("a", "a/1");
        admit("a", "a/2");
        let b1 = take(); // lane b
        take(); // lane c, oldest first
        take(); // lane a skips busy `a/1` for `a/2`
        admit("b", "b/2");
        admit("c", "c/2");
        admit("c", "c/3");
        take(); // lane c
        queue.finish_inflight(&b1.session);
        take(); // lane a holds only busy `a/1`, so lane b
        queue.finish_inflight(&a1.session);
        take(); // lane c
        take(); // lane a, `a/1` is free again
        take(); // lane c
        assert_eq!(
            order,
            ["a/1", "b/1", "c/0", "a/2", "c/1", "b/2", "c/2", "a/1", "c/3"]
        );
        assert_eq!(queue.depth_inflight().0, 0);
    }

    #[test]
    fn a_busy_sessions_jobs_wait_for_it_to_finish() {
        let queue = JobQueue::new(QueueConfig::default());
        queue.try_admit(job("a", "s")).unwrap();
        queue.try_admit(job("a", "s")).unwrap();
        queue.try_admit(job("b", "other")).unwrap();
        let first = pop(&queue);
        assert_eq!(first.session, "s");
        // The second job of `s` is skipped while the first runs.
        assert_eq!(pop(&queue).session, "other");
        let mut st = queue.state.lock().unwrap();
        assert!(JobQueue::pop_locked(&mut st).is_none());
        drop(st);
        queue.finish_inflight(&first.session);
        assert_eq!(pop(&queue).session, "s");
    }

    #[test]
    fn admission_wait_verdict_prefers_cancel_over_open_slot() {
        // The regression contract: cancelled wins even when a slot is
        // simultaneously free.
        assert_eq!(wait_verdict(true, false, true), WaitVerdict::Cancelled);
        assert_eq!(wait_verdict(true, true, false), WaitVerdict::Cancelled);
        assert_eq!(
            wait_verdict(false, true, true),
            WaitVerdict::Rejected(RejectReason::Draining)
        );
        assert_eq!(wait_verdict(false, false, true), WaitVerdict::Admit);
        assert_eq!(wait_verdict(false, false, false), WaitVerdict::Park);
    }

    #[test]
    fn admission_wait_fake_clock_cancels_after_bounded_parks() {
        // Drive the pure core with a fake clock: the queue stays full for
        // 5 polls, then the token cancels. Total simulated wait is the
        // sum of park bounds — the latency bound the real condvar loop
        // inherits — and the final verdict is Cancelled, not Admit.
        let mut fake_clock = Duration::ZERO;
        let mut verdicts = Vec::new();
        for poll in 0..8 {
            let cancelled = poll >= 5;
            let verdict = wait_verdict(cancelled, false, false);
            verdicts.push(verdict);
            match verdict {
                WaitVerdict::Park => fake_clock += ADMISSION_POLL,
                _ => break,
            }
        }
        assert_eq!(verdicts.last(), Some(&WaitVerdict::Cancelled));
        assert_eq!(
            fake_clock,
            Duration::from_millis(5 * 25),
            "five bounded parks then cancel"
        );
    }

    #[test]
    fn tickets_classify_exactly_once() {
        let ticket = JobTicket::new("t", "t/0");
        assert!(ticket.status().is_none());
        assert!(ticket.finish(TerminalStatus::Completed { steps: 5 }));
        assert!(!ticket.finish(TerminalStatus::Evicted));
        assert_eq!(ticket.finish_count(), 2);
        assert_eq!(ticket.wait(), TerminalStatus::Completed { steps: 5 });
    }
}
