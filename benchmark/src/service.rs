//! `service-small` and `service-resume`: chain jobs through `sops-service`.
//!
//! Completion is observed without polling: each payload is wrapped so
//! that it reports its end over a channel, and the generator then blocks
//! on that job's ticket until the service classifies it.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sops_chains::{Auditable, CancelToken, CheckpointStore, MarkovChain, StateCodec};
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_service::{
    chain_payload, Admission, JobPayload, JobService, JobSpec, JobTicket, ServiceConfig,
    SessionManifest, SessionStatus, SessionStore, TerminalStatus,
};

use crate::schedule::{mix, poisson};
use crate::stats;
use crate::trace::{self, now_ns, MemVfs, Timed};
use crate::workload::{
    config_digest, fold_digests, owner, peak_rss_mb, rounds, secs, state_digest, Ctx, Marks,
    RunData,
};

/// Offered load of `service-small`, jobs per second.
const RATE: f64 = 800.0;
/// Tenants sharing the service.
const TENANTS: usize = 4;
/// Arrival window of one `service-small` round.
const SMALL_WINDOW_NS: u64 = 2_000_000_000;
const SMOKE_WINDOW_NS: u64 = 250_000_000;
/// `service-small` job: steps, snapshot interval (one snapshot), size.
const SMALL_STEPS: u64 = 1_000;
const SMALL_N: usize = 100;
/// `service-resume` sessions: size, checkpointed step, total steps.
const RESUME_N: usize = 1_000;
const RESUME_AT: u64 = 50_000;
const RESUME_STEPS: u64 = 100_000;
/// Sessions per `service-resume` round.
const RESUME_SESSIONS: usize = 512;
const SMOKE_SESSIONS: usize = 64;
/// Every this many sessions is replayed uninterrupted as a reference.
const REFERENCE_EVERY: usize = 16;
/// Jobs the closed-loop generator keeps in flight: one, a single client
/// resubmitting its sessions. Two busy threads on the two-vCPU host the
/// benchmark was sized on measure where the hypervisor placed the vCPUs
/// (up to 1.8× apart) more than they measure the program.
const WINDOW: usize = 1;
/// The open-loop generator sleeps until this close to a due time, then
/// spins, so timer slack (50 µs by default on Linux) does not make it
/// late; kept short because a spinning generator is a second busy thread.
const SPIN_NS: u64 = 70_000;
/// How long the generator waits for stragglers before counting them as
/// unclassified.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

fn chain() -> Timed<SeparationChain> {
    Timed(SeparationChain::new(
        Bias::new(4.0, 4.0).expect("λ = γ = 4 is a valid bias"),
    ))
}

/// The initial configuration of the job or session whose chain is seeded
/// with `seed`, drawn from a stream of its own.
fn config_from(seed: u64, n: usize) -> Configuration {
    let mut rng = StdRng::seed_from_u64(mix(&[seed, 0]));
    let nodes = construct::random_blob(n, &mut rng);
    Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng))
        .expect("a random blob is a valid configuration")
}

/// The payload's end, reported by the wrapper.
struct Done {
    job: usize,
    start: u64,
    end: u64,
}

/// Final state bytes and RNG state of a completed job.
type Final = Arc<Mutex<Option<(Vec<u8>, [u8; 32])>>>;

/// One submitted job's book-keeping.
struct JobRec {
    owner: u64,
    due: u64,
    submit_start: u64,
    submit_end: u64,
    payload: Option<(u64, u64)>,
    classified: Option<u64>,
    ticket: Option<JobTicket>,
    status: Option<TerminalStatus>,
    result: Final,
}

impl JobRec {
    fn new(owner: u64, due: u64) -> Self {
        JobRec {
            owner,
            due,
            submit_start: 0,
            submit_end: 0,
            payload: None,
            classified: None,
            ticket: None,
            status: None,
            result: Arc::new(Mutex::new(None)),
        }
    }
}

/// Wraps a `chain_payload` so it runs under the job's owner id, is timed
/// as `service.payload`, and reports its end on `done`.
fn payload(
    job: usize,
    rec: &JobRec,
    initial: Configuration,
    seed: u64,
    steps: u64,
    every: u64,
    done: &Sender<Done>,
) -> JobPayload {
    let result = Arc::clone(&rec.result);
    let inner = chain_payload(
        chain(),
        Timed(initial),
        seed,
        steps,
        every,
        move |state: &Timed<Configuration>, rng: &StdRng| {
            *result.lock().expect("result slot poisoned") =
                Some((state.0.encode_state(), rng.to_state_bytes()));
        },
    );
    let owner = rec.owner;
    let done = done.clone();
    Box::new(move |ctx| {
        let _owner = trace::own(owner);
        let start = now_ns();
        let outcome = {
            let _span = trace::span("service.payload");
            inner(ctx)
        };
        let end = now_ns();
        // The generator may have stopped listening after a timeout.
        let _ = done.send(Done { job, start, end });
        outcome
    })
}

/// Submits through `submit` (open loop) or `submit_wait` (closed loop),
/// timing the call under the job's owner.
fn submit(svc: &JobService, rec: &mut JobRec, spec: JobSpec, blocking: bool) -> bool {
    let _owner = trace::own(rec.owner);
    rec.submit_start = now_ns();
    let ticket = {
        let _span = trace::span("service.submit");
        if blocking {
            svc.submit_wait(spec, &CancelToken::new()).ok()
        } else {
            match svc.submit(spec) {
                Admission::Admitted(ticket) => Some(ticket),
                Admission::Rejected { .. } => None,
            }
        }
    };
    rec.submit_end = now_ns();
    let admitted = ticket.is_some();
    rec.ticket = ticket;
    admitted
}

/// Records a payload end and blocks until the service classifies the job.
fn complete(jobs: &mut [JobRec], done: &Done) {
    let rec = &mut jobs[done.job];
    rec.payload = Some((done.start, done.end));
    if let Some(ticket) = &rec.ticket {
        rec.status = ticket.wait_timeout(DRAIN_TIMEOUT);
        rec.classified = Some(now_ns());
    }
}

/// Waits for the payload ends of `outstanding` jobs, then classifies any
/// admitted job that never reported one (a panicking payload).
fn drain(jobs: &mut [JobRec], rx: &Receiver<Done>, mut outstanding: usize) {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while outstanding > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(done) => {
                complete(jobs, &done);
                outstanding -= 1;
            }
            Err(_) => break,
        }
    }
    for rec in jobs.iter_mut().filter(|r| r.status.is_none()) {
        if let Some(ticket) = &rec.ticket {
            rec.status = ticket.wait_timeout(Duration::ZERO);
            rec.classified = Some(now_ns());
        }
    }
}

/// Counts attempts and failures, and records latency samples and marks.
fn settle(jobs: &[JobRec], data: &mut RunData) -> usize {
    let mut completed = 0;
    let mut first_failure = None;
    for rec in jobs {
        data.attempted += 1;
        match (&rec.status, rec.payload, rec.classified) {
            (Some(TerminalStatus::Completed { .. }), Some((p0, p1)), Some(classified)) => {
                completed += 1;
                data.latency_ms.push((classified - rec.due) as f64 / 1e6);
                data.marks.push(Marks::Job {
                    owner: rec.owner,
                    due: rec.due,
                    submit_start: rec.submit_start,
                    submit_end: rec.submit_end,
                    payload_start: p0,
                    payload_end: p1,
                    classified,
                });
            }
            (status, ..) => {
                data.failed += 1;
                first_failure.get_or_insert((rec.owner, status.clone()));
            }
        }
    }
    if let Some((owner, status)) = first_failure {
        let failed = jobs.len() - completed;
        eprintln!("{failed} jobs not completed; first {owner:#x} ended {status:?}");
    }
    completed
}

fn final_digest(rec: &JobRec) -> Option<u64> {
    let slot = rec.result.lock().expect("result slot poisoned");
    slot.as_ref().map(|(state, rng)| state_digest(state, rng))
}

/// `service-small`: an open loop of tiny jobs at a fixed Poisson rate.
pub fn run_small(ctx: &Ctx) -> RunData {
    let window = if ctx.smoke {
        SMOKE_WINDOW_NS
    } else {
        SMALL_WINDOW_NS
    };
    let mut data = RunData::default();
    let mut late_ms = Vec::new();
    if !ctx.smoke {
        let warm = Ctx {
            trace: false,
            ..ctx.clone()
        };
        small_round(
            &warm,
            SMOKE_WINDOW_NS,
            u32::MAX,
            &mut RunData::default(),
            &mut Vec::new(),
        );
    }
    rounds(ctx, &mut data, |r, data| {
        small_round(ctx, window, r, data, &mut late_ms)
    });
    data.peak_rss_mb = peak_rss_mb();
    let late = stats::tail(&late_ms);
    data.extra
        .push(("service.generator.late_ms_p50".into(), late.p50, "ms"));
    if let Some((p, v)) = late.tail {
        data.extra
            .push((format!("service.generator.late_ms_p{p}"), v, "ms"));
    }
    data
}

fn small_round(ctx: &Ctx, window: u64, r: u32, data: &mut RunData, late_ms: &mut Vec<f64>) -> f64 {
    let round_seed = mix(&[ctx.seed, ctx.workload.tag(), u64::from(r)]);
    let job_seed = |j: usize| mix(&[round_seed, j as u64]);

    let setup = Instant::now();
    let dir = ctx.round_dir(r);
    let count = (RATE * window as f64 / 1e9).round() as usize;
    let schedule = poisson(round_seed, count, TENANTS, window);
    let mut inputs: Vec<Option<Configuration>> = (0..count)
        .map(|j| Some(config_from(job_seed(j), SMALL_N)))
        .collect();
    let svc = JobService::open_with(&dir, ServiceConfig::default(), Arc::new(MemVfs::default()))
        .expect("open job service");
    data.setup_s.push(secs(setup));

    let (tx, rx) = mpsc::channel();
    let mut jobs: Vec<JobRec> = Vec::with_capacity(count);
    let mut outstanding = 0;
    trace::set_enabled(ctx.trace);
    // A short lead so the first arrival is not already late.
    let base = now_ns() + 1_000_000;
    for (j, arrival) in schedule.iter().enumerate() {
        let due = base + arrival.due_ns;
        jobs.push(JobRec::new(owner(r, j), due));
        outstanding -= wait_until(due, &rx, &mut jobs);
        late_ms.push(now_ns().saturating_sub(due) as f64 / 1e6);
        let session = format!("j{}", jobs[j].owner);
        let initial = inputs[j].take().expect("each input is submitted once");
        let spec = JobSpec::new(
            &format!("t{}", arrival.tenant),
            &session,
            payload(
                j,
                &jobs[j],
                initial,
                job_seed(j),
                SMALL_STEPS,
                SMALL_STEPS,
                &tx,
            ),
        );
        if submit(&svc, &mut jobs[j], spec, false) {
            outstanding += 1;
        }
    }
    drain(&mut jobs, &rx, outstanding);
    trace::set_enabled(false);
    let end = jobs
        .iter()
        .filter_map(|j| j.classified)
        .max()
        .unwrap_or(base);
    let measured = (end - base) as f64 / 1e9;
    svc.shutdown(Duration::from_secs(10));

    let completed = settle(&jobs, data);
    data.steps_per_s
        .push((completed as u64 * SMALL_STEPS) as f64 / measured);
    // Every job is replayed with the bare kernel; the replay's final state
    // must pass its audit and match the job's bit for bit.
    let chain = chain();
    let mut digests = Vec::with_capacity(jobs.len());
    let mut mismatched = Vec::new();
    for (j, rec) in jobs.iter().enumerate() {
        let Some(got) = final_digest(rec) else {
            continue;
        };
        let mut config = config_from(job_seed(j), SMALL_N);
        let mut rng = StdRng::seed_from_u64(job_seed(j));
        chain.0.run(&mut config, SMALL_STEPS, &mut rng);
        if got != config_digest(&config, &rng) || !config.audit_violations().is_empty() {
            mismatched.push(j);
        }
        digests.push(got);
    }
    if !mismatched.is_empty() {
        data.fail(format!(
            "round {r}: {} jobs differ from their bare replay, first job {}",
            mismatched.len(),
            mismatched[0]
        ));
    }
    data.digests.push(fold_digests(digests));
    measured
}

/// Sleeps, then spins, until `due`, classifying any job that finishes
/// meanwhile. Returns how many jobs it classified.
fn wait_until(due: u64, rx: &Receiver<Done>, jobs: &mut [JobRec]) -> usize {
    let mut completed = 0;
    loop {
        let now = now_ns();
        if now >= due {
            return completed;
        }
        let next = if due - now > SPIN_NS {
            match rx.recv_timeout(Duration::from_nanos(due - now - SPIN_NS)) {
                Ok(done) => Some(done),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => unreachable!("the generator holds a sender"),
            }
        } else {
            let next = rx.try_recv().ok();
            if next.is_none() {
                std::hint::spin_loop();
            }
            next
        };
        if let Some(done) = next {
            complete(jobs, &done);
            completed += 1;
        }
    }
}

/// A session's mid-run state: what an uninterrupted run has at
/// [`RESUME_AT`], generated once per run as input.
struct Prefix {
    state: Vec<u8>,
    rng: [u8; 32],
    accepted: u64,
}

/// Already-encoded state bytes, so set-up writes the exact snapshot a
/// real run would have without keeping every configuration alive.
struct Encoded(Vec<u8>);

impl StateCodec for Encoded {
    fn encode_state(&self) -> Vec<u8> {
        self.0.clone()
    }

    fn decode_state(bytes: &[u8]) -> Result<Self, String> {
        Ok(Encoded(bytes.to_vec()))
    }
}

fn prefixes(seeds: &[u64]) -> Vec<Prefix> {
    let chain = chain().0;
    let half = seeds.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(half.max(1))
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&seed| {
                            let mut config = config_from(seed, RESUME_N);
                            let mut rng = StdRng::seed_from_u64(seed);
                            let accepted = chain.run(&mut config, RESUME_AT, &mut rng);
                            Prefix {
                                state: config.encode_state(),
                                rng: rng.to_state_bytes(),
                                accepted,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("prefix thread panicked"))
            .collect()
    })
}

/// `service-resume`: restart the service over evicted sessions, recover
/// them and resume every one, one in flight.
pub fn run_resume(ctx: &Ctx) -> RunData {
    let sessions = if ctx.smoke {
        SMOKE_SESSIONS
    } else {
        RESUME_SESSIONS
    };
    let seeds: Vec<u64> = (0..sessions)
        .map(|i| mix(&[ctx.seed, ctx.workload.tag(), i as u64]))
        .collect();
    let inputs = Instant::now();
    let prefixes = prefixes(&seeds);
    let mut data = RunData::default();
    data.extra
        .push(("service.inputs_s".into(), secs(inputs), "s"));
    if !ctx.smoke {
        let warm = Ctx {
            trace: false,
            ..ctx.clone()
        };
        let n = SMOKE_SESSIONS;
        resume_round(
            &warm,
            &seeds[..n],
            &prefixes[..n],
            u32::MAX,
            &mut RunData::default(),
        );
    }
    let mut open_ms = Vec::new();
    let mut recover_ms = Vec::new();
    let mut jobs_per_s = Vec::new();
    rounds(ctx, &mut data, |r, data| {
        let (measured, open, recover) = resume_round(ctx, &seeds, &prefixes, r, data);
        open_ms.push(open);
        recover_ms.push(recover);
        jobs_per_s.push(sessions as f64 / measured);
        measured
    });
    data.peak_rss_mb = peak_rss_mb();
    data.extra
        .push(("jobs_per_s".into(), stats::median(&jobs_per_s), "jobs/s"));
    data.extra
        .push(("service.open.ms".into(), stats::median(&open_ms), "ms"));
    data.extra.push((
        "service.recover_sessions.ms".into(),
        stats::median(&recover_ms),
        "ms",
    ));
    data
}

/// One round; returns measured seconds and the `open_with` and
/// `recover_sessions` milliseconds.
fn resume_round(
    ctx: &Ctx,
    seeds: &[u64],
    prefixes: &[Prefix],
    r: u32,
    data: &mut RunData,
) -> (f64, f64, f64) {
    let cfg = ServiceConfig::default();
    let name = |i: usize| format!("j{}", owner(r, i));

    let setup = Instant::now();
    let dir = ctx.round_dir(r);
    let fs = Arc::new(MemVfs::default());
    let store = SessionStore::open_with(&dir, cfg.retain, Arc::clone(&fs) as _)
        .expect("open session store");
    for (i, prefix) in prefixes.iter().enumerate() {
        let session = name(i);
        let checkpoints: CheckpointStore = store
            .checkpoint_store(&session, None)
            .expect("open session checkpoint store");
        checkpoints
            .save_parts(
                RESUME_AT,
                prefix.accepted,
                &prefix.rng,
                // `chain_payload` observes 0.0 at every chunk boundary.
                &[(0, 0.0), (RESUME_AT, 0.0)],
                &Encoded(prefix.state.clone()),
            )
            .expect("seed session checkpoint");
        let mut manifest = SessionManifest::new(&session, &format!("t{}", i % TENANTS), 0);
        manifest.status = SessionStatus::Evicted;
        manifest.last_durable_step = Some(RESUME_AT);
        manifest.runs = 1;
        store.save(&manifest).expect("seed session manifest");
    }
    drop(store);
    data.setup_s.push(secs(setup));

    // `chain_payload` needs an initial state, which a resumed session
    // ignores; a session that failed to resume would run from this one
    // and miss its digest.
    let placeholder = Configuration::new(construct::bicolor_halves(construct::line_nodes(2), 1))
        .expect("two adjacent particles are a valid configuration");
    let (tx, rx) = mpsc::channel();
    let mut jobs: Vec<JobRec> = (0..seeds.len())
        .map(|i| JobRec::new(owner(r, i), 0))
        .collect();
    trace::set_enabled(ctx.trace);
    let start = now_ns();
    let svc = {
        let _span = trace::span("service.open");
        JobService::open_with(&dir, cfg, fs).expect("reopen job service")
    };
    let opened = now_ns();
    let recovery = {
        let _span = trace::span("service.recover_sessions");
        svc.recover_sessions().expect("recover sessions")
    };
    let recovered = now_ns();
    let resumable: Vec<SessionManifest> = recovery.resumable().cloned().collect();
    if resumable.len() != seeds.len() || !recovery.rejected.is_empty() {
        data.fail(format!(
            "round {r}: recovered {} resumable sessions of {}, {} rejected",
            resumable.len(),
            seeds.len(),
            recovery.rejected.len()
        ));
    }
    let mut outstanding = 0;
    for manifest in &resumable {
        let Some(i) = session_index(&manifest.session).filter(|&i| i < jobs.len()) else {
            data.fail(format!(
                "round {r}: recovered unknown session {:?}",
                manifest.session
            ));
            continue;
        };
        while outstanding >= WINDOW {
            match rx.recv_timeout(DRAIN_TIMEOUT) {
                Ok(done) => {
                    complete(&mut jobs, &done);
                    outstanding -= 1;
                }
                Err(_) => break,
            }
        }
        jobs[i].due = now_ns();
        let spec = JobSpec::new(
            &manifest.tenant,
            &manifest.session,
            payload(
                i,
                &jobs[i],
                placeholder.clone(),
                seeds[i],
                RESUME_STEPS,
                RESUME_AT,
                &tx,
            ),
        );
        if submit(&svc, &mut jobs[i], spec, true) {
            outstanding += 1;
        }
    }
    drain(&mut jobs, &rx, outstanding);
    trace::set_enabled(false);
    let end = jobs
        .iter()
        .filter_map(|j| j.classified)
        .max()
        .unwrap_or(recovered);
    let measured = (end - start) as f64 / 1e9;
    svc.shutdown(Duration::from_secs(10));

    let completed = settle(&jobs, data);
    data.steps_per_s
        .push((completed as u64 * (RESUME_STEPS - RESUME_AT)) as f64 / measured);
    let digests: Vec<u64> = jobs.iter().map(|j| final_digest(j).unwrap_or(0)).collect();
    let digest = fold_digests(digests.iter().copied());
    if r == 0 {
        check_resumed(seeds, &jobs, &digests, data);
    } else if data.digests.first().is_some_and(|&d| d != digest) {
        data.fail(format!(
            "round {r}: digest {digest:016x} differs from round 0's"
        ));
    }
    data.digests.push(digest);
    (
        measured,
        (opened - start) as f64 / 1e6,
        (recovered - opened) as f64 / 1e6,
    )
}

/// Every resumed state passes its audit, and every
/// [`REFERENCE_EVERY`]th session matches an uninterrupted run.
fn check_resumed(seeds: &[u64], jobs: &[JobRec], digests: &[u64], data: &mut RunData) {
    let chain = chain().0;
    let mut unaudited = Vec::new();
    let mut mismatched = Vec::new();
    for (i, rec) in jobs.iter().enumerate() {
        let slot = rec.result.lock().expect("result slot poisoned");
        let Some((state, _)) = slot.as_ref() else {
            continue;
        };
        match Configuration::decode_state(state) {
            Ok(config) if config.audit_violations().is_empty() => {}
            _ => unaudited.push(i),
        }
        drop(slot);
        if i % REFERENCE_EVERY == 0 {
            let mut config = config_from(seeds[i], RESUME_N);
            let mut rng = StdRng::seed_from_u64(seeds[i]);
            chain.run(&mut config, RESUME_STEPS, &mut rng);
            if digests[i] != config_digest(&config, &rng) {
                mismatched.push(i);
            }
        }
    }
    if let Some(first) = unaudited.first() {
        data.fail(format!(
            "{} resumed states fail their audit, first session {first}",
            unaudited.len()
        ));
    }
    if let Some(first) = mismatched.first() {
        data.fail(format!(
            "{} sessions differ from an uninterrupted run, first session {first}",
            mismatched.len()
        ));
    }
}

/// The index a session was seeded under: names are `j<owner>`.
fn session_index(session: &str) -> Option<usize> {
    let owner: u64 = session.strip_prefix('j')?.parse().ok()?;
    usize::try_from(owner & 0xffff_ffff).ok()
}
