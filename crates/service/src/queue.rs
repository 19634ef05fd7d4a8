//! The bounded job queue: typed admission control, per-tenant quotas,
//! deficit-round-robin fair scheduling with priority aging, overload
//! shedding, and the terminal-state tickets that make "every submitted
//! job classifies exactly once" checkable.
//!
//! Everything here is condvar-and-mutex concurrency — no async runtime,
//! consistent with the workspace's vendored-offline dependency policy.
//! The scheduler state lives under one mutex; workers park on the `work`
//! condvar when idle (never spin), blocked submitters park on `space`,
//! and drain waiters park on `idle`.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sops_chains::CancelToken;

use crate::service::JobPayload;

/// Why a submission was refused admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue is at capacity and the submission's priority did not
    /// justify displacing anything already queued.
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
    /// The job was evicted (drain, shutdown, or per-job cancel). With
    /// `resumable: true` the session's durable checkpoints are intact
    /// and a resubmission continues bit-identically.
    Evicted {
        /// Whether the session can resume from durable state.
        resumable: bool,
    },
    /// The job was shed under overload to admit a higher-priority
    /// submission, before ever dispatching. The session's durable state
    /// (if any) is untouched; resubmission is safe.
    Shed {
        /// The shed job's priority at submission time.
        priority: u8,
    },
}

impl TerminalStatus {
    /// The stable machine-readable code.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            TerminalStatus::Completed { .. } => "completed",
            TerminalStatus::Failed { .. } => "failed",
            TerminalStatus::Evicted { .. } => "evicted",
            TerminalStatus::Shed { .. } => "shed",
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

/// Queue shape and scheduling knobs.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Maximum queued (not yet dispatched) jobs across all tenants.
    pub capacity: usize,
    /// Maximum queued jobs per tenant.
    pub tenant_quota: usize,
    /// Deficit added to a tenant's lane per scheduling visit. Larger
    /// quanta let one tenant burst longer before rotation.
    pub quantum: u64,
    /// Scheduling rounds a job must wait per +1 of effective priority.
    /// This is the aging that prevents priority livelock: any queued job
    /// eventually outranks a stream of fresh higher-priority arrivals.
    pub age_boost_every: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 64,
            tenant_quota: 32,
            quantum: 1,
            age_boost_every: 4,
        }
    }
}

/// Job cost is clamped to this many quanta so a deficit-round-robin
/// rotation always pops within a bounded number of visits.
const MAX_COST: u64 = 64;

pub(crate) struct QueuedJob {
    pub(crate) seq: u64,
    pub(crate) tenant: String,
    pub(crate) session: String,
    pub(crate) priority: u8,
    pub(crate) cost: u64,
    pub(crate) enqueued_round: u64,
    pub(crate) payload: JobPayload,
    pub(crate) ticket: JobTicket,
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("seq", &self.seq)
            .field("tenant", &self.tenant)
            .field("session", &self.session)
            .field("priority", &self.priority)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

fn effective_priority(job: &QueuedJob, round: u64, cfg: &QueueConfig) -> u64 {
    let waited = round.saturating_sub(job.enqueued_round);
    u64::from(job.priority) + waited / cfg.age_boost_every.max(1)
}

#[derive(Default)]
struct Lane {
    pending: VecDeque<QueuedJob>,
    deficit: u64,
}

struct SchedState {
    lanes: BTreeMap<String, Lane>,
    /// Round-robin rotation of tenants with pending work.
    active: VecDeque<String>,
    /// Queued (not yet dispatched) jobs across all lanes.
    depth: usize,
    /// Cancel tokens of dispatched jobs, keyed by seq; drain cancels
    /// these. Registration happens under this same mutex as the drain
    /// flag, so a job can never slip past a drain's cancel sweep.
    inflight: HashMap<u64, CancelToken>,
    /// Sessions with a manifest writer: a dispatched job, or a shed or
    /// drained job whose terminal manifest write is pending. A queued job
    /// of a session in here is skipped by the scheduler, so each session
    /// runs one job at a time and has one writer.
    busy: HashSet<String>,
    draining: bool,
    stopped: bool,
    round: u64,
    next_seq: u64,
}

#[derive(Debug)]
pub(crate) struct Admitted {
    pub(crate) depth: usize,
    pub(crate) shed: Option<Removed>,
}

/// A job taken off the queue without dispatch (shed or drained), for the
/// caller to classify. `writes_manifest` is true when the queue reserved
/// the job's session for its terminal manifest write, to be released with
/// [`JobQueue::release_session`]; it is false when the session already
/// has a writer, which then owns the manifest.
#[derive(Debug)]
pub(crate) struct Removed {
    pub(crate) job: QueuedJob,
    pub(crate) writes_manifest: bool,
}

pub(crate) enum Popped {
    Job(QueuedJob, CancelToken),
    Exit,
}

pub(crate) enum WaitError {
    Rejected(RejectReason),
    Cancelled,
}

/// The pure decision core of the blocking admission wait, factored out
/// of the condvar loop so the cancel-vs-slot race is testable with a
/// fake clock (the PR 5 `MonitorState` pattern).
///
/// The ordering is the regression contract: **cancellation is checked
/// before space**, so a cancelled submitter unblocks with a cancel
/// verdict even on the exact poll where a slot opened.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdmissionWait {
    /// Upper bound on each park, in milliseconds. Because
    /// [`CancelToken`] is a bare atomic flag with no wakeup channel,
    /// this bound *is* the worst-case cancellation latency.
    pub poll_ms: u64,
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
    /// No space yet; park for at most `ms` milliseconds and poll again.
    Park {
        /// Park bound in milliseconds.
        ms: u64,
    },
}

impl AdmissionWait {
    /// Decides what a blocked submission does this poll.
    #[must_use]
    pub(crate) fn verdict(&self, cancelled: bool, draining: bool, would_fit: bool) -> WaitVerdict {
        if cancelled {
            WaitVerdict::Cancelled
        } else if draining {
            WaitVerdict::Rejected(RejectReason::Draining)
        } else if would_fit {
            WaitVerdict::Admit
        } else {
            WaitVerdict::Park { ms: self.poll_ms }
        }
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
}

impl JobQueue {
    pub(crate) fn new(mut cfg: QueueConfig) -> Self {
        cfg.capacity = cfg.capacity.max(1);
        cfg.tenant_quota = cfg.tenant_quota.max(1);
        cfg.quantum = cfg.quantum.max(1);
        cfg.age_boost_every = cfg.age_boost_every.max(1);
        JobQueue {
            cfg,
            state: Mutex::new(SchedState {
                lanes: BTreeMap::new(),
                active: VecDeque::new(),
                depth: 0,
                inflight: HashMap::new(),
                busy: HashSet::new(),
                draining: false,
                stopped: false,
                round: 0,
                next_seq: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn insert_locked(st: &mut SchedState, mut job: QueuedJob) -> usize {
        job.seq = st.next_seq;
        st.next_seq += 1;
        job.enqueued_round = st.round;
        let tenant = job.tenant.clone();
        let lane = st.lanes.entry(tenant.clone()).or_default();
        let newly_active = lane.pending.is_empty();
        lane.pending.push_back(job);
        if newly_active {
            st.active.push_back(tenant);
        }
        st.depth += 1;
        st.depth
    }

    /// Removes the shed victim: the queued job with the lowest effective
    /// priority, newest-first among ties. Returns `None` when nothing
    /// queued ranks strictly below `incoming_priority` — deterministic
    /// overload degradation, never displacement among equals.
    fn shed_victim_locked(
        st: &mut SchedState,
        cfg: &QueueConfig,
        incoming_priority: u8,
    ) -> Option<QueuedJob> {
        let round = st.round;
        let mut best: Option<(String, usize, u64, u64)> = None;
        for (tenant, lane) in &st.lanes {
            for (idx, job) in lane.pending.iter().enumerate() {
                let eff = effective_priority(job, round, cfg);
                let better = match &best {
                    None => true,
                    Some((_, _, best_eff, best_seq)) => {
                        eff < *best_eff || (eff == *best_eff && job.seq > *best_seq)
                    }
                };
                if better {
                    best = Some((tenant.clone(), idx, eff, job.seq));
                }
            }
        }
        let (tenant, idx, eff, _) = best?;
        if eff >= u64::from(incoming_priority) {
            return None;
        }
        let lane = st.lanes.get_mut(&tenant).expect("victim lane exists");
        let victim = lane.pending.remove(idx).expect("victim index valid");
        if lane.pending.is_empty() {
            lane.deficit = 0;
            st.active.retain(|t| t != &tenant);
        }
        st.depth -= 1;
        Some(victim)
    }

    /// Non-blocking typed admission. At capacity, a submission may
    /// displace (shed) the lowest-effective-priority, newest queued job
    /// if it outranks it strictly; the displaced job is returned for the
    /// caller to classify as [`TerminalStatus::Shed`] outside the lock.
    pub(crate) fn try_admit(&self, job: QueuedJob) -> Result<Admitted, (QueuedJob, RejectReason)> {
        let mut guard = self.state.lock().expect("queue mutex");
        let st = &mut *guard;
        if st.draining || st.stopped {
            return Err((job, RejectReason::Draining));
        }
        let lane_len = st
            .lanes
            .get(&job.tenant)
            .map_or(0, |lane| lane.pending.len());
        if lane_len >= self.cfg.tenant_quota {
            return Err((job, RejectReason::TenantQuotaExceeded));
        }
        let mut shed = None;
        if st.depth >= self.cfg.capacity {
            match Self::shed_victim_locked(st, &self.cfg, job.priority) {
                Some(victim) => shed = Some(Self::remove_locked(st, victim)),
                None => return Err((job, RejectReason::QueueFull)),
            }
        }
        let depth = Self::insert_locked(st, job);
        drop(guard);
        self.work.notify_one();
        Ok(Admitted { depth, shed })
    }

    /// Blocking admission with backpressure: parks while the queue (or
    /// the tenant's quota) is full, polling `cancel` at least every
    /// `poll` so a cancelled submitter unblocks promptly instead of
    /// waiting for a slot. Never sheds — a waiting submitter applies
    /// backpressure, it does not displace queued work.
    pub(crate) fn admit_wait(
        &self,
        job: QueuedJob,
        cancel: &CancelToken,
        poll: Duration,
    ) -> Result<Admitted, (QueuedJob, WaitError)> {
        let core = AdmissionWait {
            poll_ms: u64::try_from(poll.as_millis()).unwrap_or(u64::MAX).max(1),
        };
        let mut guard = self.state.lock().expect("queue mutex");
        loop {
            let st = &mut *guard;
            let draining = st.draining || st.stopped;
            let lane_len = st
                .lanes
                .get(&job.tenant)
                .map_or(0, |lane| lane.pending.len());
            let would_fit = st.depth < self.cfg.capacity && lane_len < self.cfg.tenant_quota;
            match core.verdict(cancel.is_cancelled(), draining, would_fit) {
                WaitVerdict::Cancelled => return Err((job, WaitError::Cancelled)),
                WaitVerdict::Rejected(reason) => return Err((job, WaitError::Rejected(reason))),
                WaitVerdict::Admit => {
                    let depth = Self::insert_locked(st, job);
                    drop(guard);
                    self.work.notify_one();
                    return Ok(Admitted { depth, shed: None });
                }
                WaitVerdict::Park { ms } => {
                    let (g, _) = self
                        .space
                        .wait_timeout(guard, Duration::from_millis(ms))
                        .expect("queue mutex");
                    guard = g;
                }
            }
        }
    }

    /// Reserves a removed job's session for its terminal manifest write,
    /// unless the session already has a writer.
    fn remove_locked(st: &mut SchedState, job: QueuedJob) -> Removed {
        let writes_manifest = st.busy.insert(job.session.clone());
        Removed {
            job,
            writes_manifest,
        }
    }

    /// Deficit-round-robin pop under the lock. Each visit adds the
    /// quantum to the lane's deficit and pops the lane's best affordable
    /// job (highest effective priority, oldest among ties) whose session
    /// is not busy. Costs are clamped to [`MAX_COST`] quanta, so the
    /// rotation pops within a bounded number of visits whenever any
    /// queued job's session is free.
    fn pop_locked(st: &mut SchedState, cfg: &QueueConfig) -> Option<QueuedJob> {
        let free = st
            .lanes
            .values()
            .flat_map(|lane| &lane.pending)
            .any(|job| !st.busy.contains(&job.session));
        if !free {
            return None;
        }
        st.round += 1;
        loop {
            let tenant = st.active.pop_front()?;
            let lane = st.lanes.get_mut(&tenant).expect("active lane exists");
            lane.deficit = lane.deficit.saturating_add(cfg.quantum).min(
                MAX_COST.saturating_mul(cfg.quantum).max(MAX_COST), // cap: no unbounded burst credit
            );
            let mut best: Option<(usize, u64, u64)> = None;
            for (idx, job) in lane.pending.iter().enumerate() {
                if job.cost > lane.deficit || st.busy.contains(&job.session) {
                    continue;
                }
                let eff = effective_priority(job, st.round, cfg);
                let better = match best {
                    None => true,
                    Some((_, best_eff, best_seq)) => {
                        eff > best_eff || (eff == best_eff && job.seq < best_seq)
                    }
                };
                if better {
                    best = Some((idx, eff, job.seq));
                }
            }
            if let Some((idx, _, _)) = best {
                let job = lane.pending.remove(idx).expect("picked index valid");
                lane.deficit = lane.deficit.saturating_sub(job.cost);
                if lane.pending.is_empty() {
                    lane.deficit = 0;
                } else {
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
    /// A popped job's cancel token is registered in the in-flight table
    /// under the same lock as the drain flag.
    pub(crate) fn pop_blocking(&self) -> Popped {
        let mut guard = self.state.lock().expect("queue mutex");
        loop {
            if guard.stopped {
                return Popped::Exit;
            }
            if let Some(job) = Self::pop_locked(&mut guard, &self.cfg) {
                let token = CancelToken::new();
                if guard.draining {
                    // Raced with drain: the job still dispatches, but
                    // already cancelled so it evicts at the first safe
                    // point.
                    token.cancel();
                }
                guard.inflight.insert(job.seq, token.clone());
                drop(guard);
                self.space.notify_all();
                return Popped::Job(job, token);
            }
            if guard.draining {
                return Popped::Exit;
            }
            guard = self.work.wait(guard).expect("queue mutex");
        }
    }

    /// Deregisters a dispatched job once it has classified, and frees its
    /// session for the next queued job of that session. No worker needs
    /// waking: the caller pops next (or its replacement does).
    pub(crate) fn finish_inflight(&self, seq: u64, session: &str) {
        let mut st = self.state.lock().expect("queue mutex");
        st.inflight.remove(&seq);
        st.busy.remove(session);
        let empty = st.inflight.is_empty();
        drop(st);
        if empty {
            self.idle.notify_all();
        }
    }

    /// Frees a session reserved for a [`Removed`] job's manifest write,
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

    /// Closes admissions, empties the queue, and snapshots the in-flight
    /// cancel tokens. Returns the never-dispatched jobs (in submission
    /// order) for the caller to classify as evicted, and the tokens for
    /// the caller to cancel.
    pub(crate) fn drain(&self) -> (Vec<Removed>, Vec<CancelToken>) {
        let mut guard = self.state.lock().expect("queue mutex");
        let st = &mut *guard;
        st.draining = true;
        let mut queued = Vec::new();
        for lane in st.lanes.values_mut() {
            queued.extend(lane.pending.drain(..));
            lane.deficit = 0;
        }
        queued.sort_by_key(|job| job.seq);
        let evicted = queued
            .into_iter()
            .map(|job| Self::remove_locked(st, job))
            .collect();
        st.active.clear();
        st.depth = 0;
        let tokens: Vec<CancelToken> = st.inflight.values().cloned().collect();
        drop(guard);
        self.work.notify_all();
        self.space.notify_all();
        self.idle.notify_all();
        (evicted, tokens)
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
        while !st.inflight.is_empty() {
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
        (st.depth, st.inflight.len())
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

    fn job(tenant: &str, session: &str, priority: u8) -> QueuedJob {
        QueuedJob {
            seq: 0,
            tenant: tenant.to_string(),
            session: session.to_string(),
            priority,
            cost: 1,
            enqueued_round: 0,
            payload: payload(),
            ticket: JobTicket::new(tenant, session),
        }
    }

    fn pop(queue: &JobQueue) -> QueuedJob {
        match queue.pop_blocking() {
            Popped::Job(job, _) => job,
            Popped::Exit => panic!("queue unexpectedly stopped"),
        }
    }

    #[test]
    fn admission_is_typed_per_rejection_cause() {
        let queue = JobQueue::new(QueueConfig {
            capacity: 2,
            tenant_quota: 1,
            ..QueueConfig::default()
        });
        queue.try_admit(job("a", "a/0", 0)).unwrap();
        // Tenant quota before queue capacity.
        let (_, reason) = queue.try_admit(job("a", "a/1", 0)).unwrap_err();
        assert_eq!(reason, RejectReason::TenantQuotaExceeded);
        queue.try_admit(job("b", "b/0", 0)).unwrap();
        // Equal priority never displaces: typed QueueFull.
        let (_, reason) = queue.try_admit(job("c", "c/0", 0)).unwrap_err();
        assert_eq!(reason, RejectReason::QueueFull);
        // Draining closes admissions outright.
        let _ = queue.drain();
        let (_, reason) = queue.try_admit(job("d", "d/0", 7)).unwrap_err();
        assert_eq!(reason, RejectReason::Draining);
    }

    #[test]
    fn deficit_round_robin_interleaves_tenants() {
        let queue = JobQueue::new(QueueConfig {
            capacity: 64,
            tenant_quota: 64,
            ..QueueConfig::default()
        });
        for i in 0..6 {
            queue.try_admit(job("hog", &format!("hog/{i}"), 0)).unwrap();
        }
        queue.try_admit(job("small", "small/0", 0)).unwrap();
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
    fn a_busy_sessions_jobs_wait_for_it_to_finish() {
        let queue = JobQueue::new(QueueConfig::default());
        queue.try_admit(job("a", "s", 0)).unwrap();
        queue.try_admit(job("a", "s", 0)).unwrap();
        queue.try_admit(job("b", "other", 0)).unwrap();
        let first = pop(&queue);
        assert_eq!(first.session, "s");
        // The second job of `s` is skipped while the first runs.
        assert_eq!(pop(&queue).session, "other");
        let mut st = queue.state.lock().unwrap();
        assert!(JobQueue::pop_locked(&mut st, &queue.cfg).is_none());
        drop(st);
        queue.finish_inflight(first.seq, &first.session);
        assert_eq!(pop(&queue).session, "s");
    }

    #[test]
    fn priority_aging_prevents_livelock() {
        let cfg = QueueConfig {
            capacity: 64,
            tenant_quota: 64,
            quantum: 1,
            age_boost_every: 2,
        };
        let queue = JobQueue::new(cfg);
        queue.try_admit(job("t", "t/low", 0)).unwrap();
        // Fresh higher-priority work keeps arriving; the aged job must
        // still dispatch once its boost catches up.
        let mut low_dispatched_at = None;
        for round in 0..12 {
            queue
                .try_admit(job("t", &format!("t/high{round}"), 3))
                .unwrap();
            let popped = pop(&queue);
            if popped.session == "t/low" {
                low_dispatched_at = Some(round);
                break;
            }
        }
        assert!(
            low_dispatched_at.is_some(),
            "aged low-priority job never dispatched"
        );
    }

    #[test]
    fn overload_sheds_lowest_priority_newest_first() {
        let queue = JobQueue::new(QueueConfig {
            capacity: 2,
            tenant_quota: 8,
            ..QueueConfig::default()
        });
        queue.try_admit(job("t", "t/old-low", 1)).unwrap();
        queue.try_admit(job("t", "t/new-low", 1)).unwrap();
        // Higher priority displaces the NEWEST of the lowest-priority
        // jobs.
        let admitted = queue.try_admit(job("t", "t/urgent", 5)).unwrap();
        let victim = admitted.shed.expect("displacement under overload");
        assert_eq!(victim.job.session, "t/new-low");
        assert!(victim.writes_manifest);
        // A second urgent job displaces the remaining low-priority one.
        let admitted = queue.try_admit(job("t", "t/urgent2", 5)).unwrap();
        assert_eq!(
            admitted.shed.expect("second displacement").job.session,
            "t/old-low"
        );
        // Once only equals remain, equal priority does not displace.
        let (_, reason) = queue.try_admit(job("t", "t/also-urgent", 5)).unwrap_err();
        assert_eq!(reason, RejectReason::QueueFull);
    }

    #[test]
    fn admission_wait_verdict_prefers_cancel_over_open_slot() {
        let core = AdmissionWait { poll_ms: 10 };
        // The regression contract: cancelled wins even when a slot is
        // simultaneously free.
        assert_eq!(core.verdict(true, false, true), WaitVerdict::Cancelled);
        assert_eq!(core.verdict(true, true, false), WaitVerdict::Cancelled);
        assert_eq!(
            core.verdict(false, true, true),
            WaitVerdict::Rejected(RejectReason::Draining)
        );
        assert_eq!(core.verdict(false, false, true), WaitVerdict::Admit);
        assert_eq!(
            core.verdict(false, false, false),
            WaitVerdict::Park { ms: 10 }
        );
    }

    #[test]
    fn admission_wait_fake_clock_cancels_after_bounded_parks() {
        // Drive the pure core with a fake clock: the queue stays full for
        // 5 polls, then the token cancels. Total simulated wait is the
        // sum of park bounds — the latency bound the real condvar loop
        // inherits — and the final verdict is Cancelled, not Admit.
        let core = AdmissionWait { poll_ms: 25 };
        let mut fake_clock_ms = 0u64;
        let mut verdicts = Vec::new();
        for poll in 0..8 {
            let cancelled = poll >= 5;
            let verdict = core.verdict(cancelled, false, false);
            verdicts.push(verdict);
            match verdict {
                WaitVerdict::Park { ms } => fake_clock_ms += ms,
                _ => break,
            }
        }
        assert_eq!(verdicts.last(), Some(&WaitVerdict::Cancelled));
        assert_eq!(fake_clock_ms, 5 * 25, "five bounded parks then cancel");
    }

    #[test]
    fn tickets_classify_exactly_once() {
        let ticket = JobTicket::new("t", "t/0");
        assert!(ticket.status().is_none());
        assert!(ticket.finish(TerminalStatus::Completed { steps: 5 }));
        assert!(!ticket.finish(TerminalStatus::Evicted { resumable: true }));
        assert_eq!(ticket.finish_count(), 2);
        assert_eq!(ticket.wait(), TerminalStatus::Completed { steps: 5 });
    }
}
