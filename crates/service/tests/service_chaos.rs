//! Chaos suite for the multi-tenant job service. The invariant under
//! every fault injected here: **every submitted job terminates in
//! exactly one classified terminal state, and every resumable eviction
//! resumes bit-identically.**
//!
//! Faults exercised: payload panics mid-job (worker poisoning), queue
//! overflow and typed rejection, cancellation while parked on a full
//! queue, drain-deadline eviction of in-flight work, a simulated crash
//! at *every* checkpoint/manifest I/O operation followed by
//! restart-and-recover, and torn manifests planted on disk.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngExt as _};
use sops_chains::checkpoint::StateCodec;
use sops_chains::{Auditable, CancelToken, CrashStyle, FaultyVfs, MarkovChain, Repairable};
use sops_service::{
    chain_payload, Admission, JobOutcome, JobPayload, JobService, JobSpec, QueueConfig,
    ServiceConfig, SessionStatus, TerminalStatus,
};

/// A fresh scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sops-service-chaos-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Counter {
    x: u64,
}

impl StateCodec for Counter {
    fn encode_state(&self) -> Vec<u8> {
        self.x.to_le_bytes().to_vec()
    }
    fn decode_state(bytes: &[u8]) -> Result<Self, String> {
        let arr: [u8; 8] = bytes.try_into().map_err(|_| "bad length".to_string())?;
        Ok(Counter {
            x: u64::from_le_bytes(arr),
        })
    }
}

impl Auditable for Counter {
    fn audit_violations(&self) -> Vec<String> {
        Vec::new()
    }
}

impl Repairable for Counter {
    fn repair_state(&mut self) -> Result<Vec<String>, Vec<String>> {
        Ok(Vec::new())
    }
}

/// A lazy random walk. The tiny per-step sleep keeps multi-chunk runs
/// slow enough for drains and cancellations to land mid-run; it draws
/// from the RNG every step, so bit-identity checks below compare real
/// stream positions, not a constant.
struct Walk {
    nap_us: u64,
}

impl MarkovChain for Walk {
    type State = Counter;
    fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
        if self.nap_us > 0 {
            std::thread::sleep(Duration::from_micros(self.nap_us));
        }
        if rng.random_range(0..4u8) > 0 {
            s.x = s.x.wrapping_add(u64::from(rng.random_range(1..8u8)));
            true
        } else {
            false
        }
    }
}

type DoneWitness = Arc<Mutex<Option<(Vec<u8>, Vec<u8>)>>>;

/// A chain payload whose completion records (state bytes, RNG bytes) —
/// the bit-identity witness.
fn walk_payload(
    seed: u64,
    steps: u64,
    every: u64,
    nap_us: u64,
    witness: &DoneWitness,
) -> JobPayload {
    let witness = Arc::clone(witness);
    chain_payload(
        Walk { nap_us },
        Counter { x: 0 },
        seed,
        steps,
        every,
        move |state: &Counter, rng: &StdRng| {
            *witness.lock().unwrap() = Some((state.encode_state(), rng.to_state_bytes().to_vec()));
        },
    )
}

fn ok_payload() -> JobPayload {
    Box::new(|_ctx| Ok(JobOutcome::Completed { steps: 1 }))
}

fn admit(svc: &JobService, spec: JobSpec) -> sops_service::JobTicket {
    match svc.submit(spec) {
        Admission::Admitted(ticket) => ticket,
        Admission::Rejected { reason } => panic!("unexpected rejection: {reason:?}"),
    }
}

/// Polls until the worker pool settles at `expect` live workers — a
/// poisoned slot's replacement is spawned before its thread retires, so
/// the count is transiently off by one around each respawn.
fn wait_workers(svc: &JobService, expect: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.stats().live_workers != expect {
        assert!(
            Instant::now() < deadline,
            "worker pool never settled to {expect}: {:?}",
            svc.stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A payload that parks until released (or evicted), to pin workers.
fn gated_payload(release: &Arc<AtomicBool>) -> JobPayload {
    let release = Arc::clone(release);
    Box::new(move |ctx| {
        while !release.load(Ordering::SeqCst) && !ctx.evicting() {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(JobOutcome::Completed { steps: 0 })
    })
}

/// The headline invariant under combined chaos: worker-killing panics,
/// queue overflow, and a drain, all at once — and still every
/// admitted job classifies exactly once, rejections are typed, and no
/// worker slot leaks.
#[test]
fn every_job_classifies_exactly_once_under_combined_chaos() {
    let scratch = Scratch::new("combined");
    let svc = JobService::open(
        &scratch.0,
        ServiceConfig {
            workers: 3,
            queue: QueueConfig {
                capacity: 8,
                tenant_quota: 6,
            },
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for round in 0..6 {
        for t in ["alpha", "beta", "gamma"] {
            // A poison job per tenant per round...
            let spec = JobSpec::new(
                t,
                &format!("{t}/poison-{round}"),
                Box::new(move |_ctx| panic!("chaos panic {round}")),
            );
            match svc.submit(spec) {
                Admission::Admitted(ticket) => tickets.push(ticket),
                Admission::Rejected { .. } => rejected += 1,
            }
            // ...plus clean jobs.
            for i in 0..3 {
                let spec = JobSpec::new(t, &format!("{t}/ok-{round}-{i}"), ok_payload());
                match svc.submit(spec) {
                    Admission::Admitted(ticket) => tickets.push(ticket),
                    Admission::Rejected { .. } => rejected += 1,
                }
            }
        }
    }
    let mut by_code = std::collections::BTreeMap::<&str, usize>::new();
    let mut panics = 0usize;
    for ticket in &tickets {
        let status = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("admitted job never classified");
        assert_eq!(
            ticket.finish_count(),
            1,
            "job {} classified more than once: {status:?}",
            ticket.session()
        );
        if let TerminalStatus::Failed { error } = &status {
            assert_eq!(error.kind(), "panic", "only panics were injected");
            panics += 1;
        }
        *by_code.entry(status.code()).or_default() += 1;
    }
    // The pool must have survived every poisoning intact.
    wait_workers(&svc, 3);
    assert_eq!(
        svc.stats().respawns as usize,
        panics,
        "one respawn per poisoning"
    );
    // Graceful drain (everything already classified): clean and empty.
    let report = svc.drain(Duration::from_secs(10));
    assert!(report.drained_clean);
    // After shutdown joins the pool, the counters are final and must
    // partition the admissions exactly.
    let stats = svc.stats();
    svc.shutdown(Duration::from_secs(5));
    assert_eq!(stats.admitted as usize, tickets.len());
    assert_eq!(stats.rejected as usize, rejected);
    assert_eq!(
        stats.completed + stats.failed + stats.evicted,
        stats.admitted,
        "classification counters must partition admissions: {stats:?} ({by_code:?})"
    );
}

/// Overflow is typed, and blocking submission applies backpressure:
/// the waiter admits as soon as the queue actually has room.
#[test]
fn overflow_rejects_typed_and_submit_wait_backpressures() {
    let scratch = Scratch::new("overflow");
    let svc = Arc::new(
        JobService::open(
            &scratch.0,
            ServiceConfig {
                workers: 1,
                queue: QueueConfig {
                    capacity: 2,
                    tenant_quota: 8,
                },
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let release = Arc::new(AtomicBool::new(false));
    let gate = admit(&svc, JobSpec::new("t", "t/gate", gated_payload(&release)));
    while svc.inflight() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued: Vec<_> = (0..2)
        .map(|i| admit(&svc, JobSpec::new("t", &format!("t/q{i}"), ok_payload())))
        .collect();
    // Queue full: typed rejection, not a hang or a drop.
    match svc.submit(JobSpec::new("t", "t/extra", ok_payload())) {
        Admission::Rejected { reason } => {
            assert_eq!(reason, sops_service::RejectReason::QueueFull);
        }
        Admission::Admitted(_) => panic!("overfull queue admitted"),
    }
    // A blocking submitter parks...
    let waiter = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let token = CancelToken::new();
            svc.submit_wait(JobSpec::new("t", "t/waited", ok_payload()), &token)
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    assert!(!waiter.is_finished(), "waiter admitted into a full queue");
    // ...and unparks once the gate opens and the queue moves.
    release.store(true, Ordering::SeqCst);
    let ticket = waiter.join().unwrap().expect("backpressured admit");
    assert_eq!(
        ticket.wait_timeout(Duration::from_secs(10)).unwrap().code(),
        "completed"
    );
    let _ = gate.wait();
    for t in queued {
        let _ = t.wait();
    }
    let svc = Arc::into_inner(svc).expect("all clones joined");
    svc.shutdown(Duration::from_secs(5));
}

/// The satellite-3 regression: a tenant blocked on a full queue whose
/// cancel token fires must unblock promptly with `JobError::Cancelled`,
/// not wait for a slot that may never come. (The deterministic
/// cancel-vs-slot ordering is unit-tested with a fake clock on the
/// queue's `wait_verdict`; this covers the real condvar path end to end.)
#[test]
fn cancelled_submitter_on_full_queue_unblocks_promptly() {
    let scratch = Scratch::new("cancel-wait");
    let svc = Arc::new(
        JobService::open(
            &scratch.0,
            ServiceConfig {
                workers: 1,
                queue: QueueConfig {
                    capacity: 1,
                    tenant_quota: 8,
                },
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let release = Arc::new(AtomicBool::new(false));
    let gate = admit(&svc, JobSpec::new("t", "t/gate", gated_payload(&release)));
    while svc.inflight() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let _full = admit(&svc, JobSpec::new("t", "t/fill", ok_payload()));
    let token = CancelToken::new();
    let waiter_token = token.clone();
    let waiter = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let start = Instant::now();
            let result =
                svc.submit_wait(JobSpec::new("t", "t/blocked", ok_payload()), &waiter_token);
            (result, start.elapsed())
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    token.cancel();
    let (result, elapsed) = waiter.join().unwrap();
    let err = result.expect_err("cancelled submitter must not admit");
    assert_eq!(err.kind(), "cancelled");
    // Bound: one poll interval of slack beyond the pre-cancel sleep,
    // with generous headroom for a loaded CI box — but far below any
    // "waited for the queue to open" timescale.
    assert!(
        elapsed < Duration::from_secs(2),
        "cancelled submitter took {elapsed:?} to unblock"
    );
    release.store(true, Ordering::SeqCst);
    let _ = gate.wait();
    let svc = Arc::into_inner(svc).expect("all clones joined");
    svc.shutdown(Duration::from_secs(5));
}

/// Fairness: one tenant floods the queue, another submits a single job.
/// Round-robin over tenant lanes must dispatch the single job within the
/// first rotation — the flood cannot starve it to the back of the line.
#[test]
fn single_job_tenant_is_not_starved_by_a_flood() {
    let scratch = Scratch::new("fairness");
    let svc = JobService::open(
        &scratch.0,
        ServiceConfig {
            workers: 1,
            queue: QueueConfig {
                capacity: 128,
                tenant_quota: 64,
            },
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let gate = admit(
        &svc,
        JobSpec::new("hog", "hog/gate", gated_payload(&release)),
    );
    while svc.inflight() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let tracked = |tenant: &str, session: &str| -> JobSpec {
        let order = Arc::clone(&order);
        let name = tenant.to_string();
        JobSpec::new(
            tenant,
            session,
            Box::new(move |_ctx| {
                order.lock().unwrap().push(name);
                Ok(JobOutcome::Completed { steps: 0 })
            }),
        )
    };
    let mut tickets = Vec::new();
    for i in 0..50 {
        tickets.push(admit(&svc, tracked("hog", &format!("hog/{i}"))));
    }
    tickets.push(admit(&svc, tracked("small", "small/only")));
    release.store(true, Ordering::SeqCst);
    let _ = gate.wait();
    for t in &tickets {
        let _ = t.wait();
    }
    let order = order.lock().unwrap();
    let small_at = order
        .iter()
        .position(|t| t == "small")
        .expect("small tenant's job ran");
    assert!(
        small_at <= 2,
        "small tenant starved behind the flood: dispatched {small_at}th of {}",
        order.len()
    );
    drop(order);
    svc.shutdown(Duration::from_secs(5));
}

/// Runs `session` on a fresh single-worker service rooted at `root`
/// until it classifies; returns the terminal status.
fn run_session_once(
    root: &std::path::Path,
    session: &str,
    seed: u64,
    steps: u64,
    every: u64,
    nap_us: u64,
    witness: &DoneWitness,
) -> TerminalStatus {
    let svc = JobService::open(
        root,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let ticket = admit(
        &svc,
        JobSpec::new(
            "t",
            session,
            walk_payload(seed, steps, every, nap_us, witness),
        ),
    );
    let status = ticket
        .wait_timeout(Duration::from_secs(60))
        .expect("job never classified");
    svc.shutdown(Duration::from_secs(10));
    status
}

/// Drain mid-run, then resume: the evicted session must classify
/// `Evicted`, and the resumed run's final state and RNG must be
/// byte-identical to an uninterrupted run of the same session.
#[test]
fn drain_evicts_inflight_resumable_and_resume_is_bit_identical() {
    const SEED: u64 = 99;
    const STEPS: u64 = 40_000;
    const EVERY: u64 = 2_000;

    // Reference: the same session, uninterrupted.
    let reference = Scratch::new("evict-ref");
    let ref_witness: DoneWitness = Arc::new(Mutex::new(None));
    let status = run_session_once(&reference.0, "t/s", SEED, STEPS, EVERY, 0, &ref_witness);
    assert_eq!(status.code(), "completed");
    let reference_bytes = ref_witness.lock().unwrap().clone().unwrap();

    // Interrupted: drain once the session has durable progress.
    let scratch = Scratch::new("evict");
    let witness: DoneWitness = Arc::new(Mutex::new(None));
    let svc = JobService::open(
        &scratch.0,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let ticket = admit(
        &svc,
        JobSpec::new("t", "t/s", walk_payload(SEED, STEPS, EVERY, 5, &witness)),
    );
    // Wait for at least one durable checkpoint, then pull the plug.
    let store = svc.session_store().checkpoint_store("t/s", None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while store.newest_step().unwrap().is_none() {
        assert!(
            Instant::now() < deadline,
            "no checkpoint ever became durable"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = svc.drain(Duration::from_secs(10));
    assert!(report.drained_clean);
    assert_eq!(
        ticket.wait(),
        TerminalStatus::Evicted,
        "mid-run drain must evict resumable"
    );
    assert!(
        witness.lock().unwrap().is_none(),
        "evicted job must not complete"
    );
    svc.shutdown(Duration::from_secs(5));

    // Restart, recover, resubmit the same session: bit-identical finish.
    let svc = JobService::open(
        &scratch.0,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let recovery = svc.recover_sessions().unwrap();
    assert!(
        recovery
            .resumable()
            .any(|m| m.session == "t/s" && m.status == SessionStatus::Evicted),
        "evicted session missing from recovery: {recovery:?}"
    );
    let ticket = admit(
        &svc,
        JobSpec::new("t", "t/s", walk_payload(SEED, STEPS, EVERY, 0, &witness)),
    );
    assert_eq!(
        ticket.wait_timeout(Duration::from_secs(60)).unwrap().code(),
        "completed"
    );
    svc.shutdown(Duration::from_secs(10));
    let resumed_bytes = witness.lock().unwrap().clone().unwrap();
    assert_eq!(
        resumed_bytes, reference_bytes,
        "resumed run diverged from the uninterrupted reference"
    );
}

/// A payload that panics mid-job *after* durable checkpoints exist is
/// classified `Failed(Panic)`, the worker respawns, and resubmitting the
/// session resumes from the durable step to a bit-identical finish.
#[test]
fn poison_after_checkpoints_fails_classified_then_resumes_bit_identically() {
    const SEED: u64 = 1234;
    const STEPS: u64 = 6_000;
    const EVERY: u64 = 1_000;

    let reference = Scratch::new("poison-ref");
    let ref_witness: DoneWitness = Arc::new(Mutex::new(None));
    let status = run_session_once(&reference.0, "t/p", SEED, STEPS, EVERY, 0, &ref_witness);
    assert_eq!(status.code(), "completed");
    let reference_bytes = ref_witness.lock().unwrap().clone().unwrap();

    let scratch = Scratch::new("poison");
    let svc = JobService::open(
        &scratch.0,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    // First attempt: checkpoint a prefix supervised, then panic.
    let witness: DoneWitness = Arc::new(Mutex::new(None));
    let prefix = walk_payload(SEED, 3_000, EVERY, 0, &witness);
    let ticket = admit(
        &svc,
        JobSpec::new(
            "t",
            "t/p",
            Box::new(move |ctx| {
                let _ = prefix(ctx)?;
                panic!("dies after durable progress");
            }),
        ),
    );
    match ticket.wait_timeout(Duration::from_secs(60)).unwrap() {
        TerminalStatus::Failed { error } => assert_eq!(error.kind(), "panic"),
        other => panic!("expected Failed(Panic), got {other:?}"),
    }
    wait_workers(&svc, 1);
    assert_eq!(svc.stats().respawns, 1);
    // The durable prefix survived the panic.
    let store = svc.session_store().checkpoint_store("t/p", None).unwrap();
    let durable = store.newest_step().unwrap();
    assert_eq!(durable, Some(3_000), "prefix checkpoints lost to the panic");
    // Resubmit for the full run: resumes at 3k, finishes bit-identically.
    let ticket = admit(
        &svc,
        JobSpec::new("t", "t/p", walk_payload(SEED, STEPS, EVERY, 0, &witness)),
    );
    assert_eq!(
        ticket.wait_timeout(Duration::from_secs(60)).unwrap().code(),
        "completed"
    );
    svc.shutdown(Duration::from_secs(10));
    let resumed_bytes = witness.lock().unwrap().clone().unwrap();
    assert_eq!(resumed_bytes, reference_bytes);
}

/// Crash at every checkpoint/manifest I/O operation: arm the fault
/// injector to kill the k-th VFS op, run the job (it must either
/// complete or fail *classified*), simulate the machine dying, restart
/// on the survivors, recover, and resubmit until the session completes —
/// byte-identical to the no-fault reference, every time.
#[test]
fn crash_at_every_io_op_recovers_to_a_bit_identical_result() {
    const SEED: u64 = 7;
    const STEPS: u64 = 1_500;
    const EVERY: u64 = 500;

    fn open_svc(vfs: &Arc<FaultyVfs>) -> JobService {
        JobService::open_with(
            std::path::Path::new("/svc"),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            Arc::clone(vfs) as Arc<dyn sops_chains::Vfs>,
        )
        .unwrap()
    }

    // Probe: no faults; capture the reference bytes and the op budget
    // one clean submit-to-completion consumes.
    let vfs = Arc::new(FaultyVfs::new());
    let svc = open_svc(&vfs);
    let base_ops = vfs.op_count();
    let witness: DoneWitness = Arc::new(Mutex::new(None));
    let ticket = admit(
        &svc,
        JobSpec::new("t", "t/c", walk_payload(SEED, STEPS, EVERY, 0, &witness)),
    );
    assert_eq!(
        ticket.wait_timeout(Duration::from_secs(60)).unwrap().code(),
        "completed"
    );
    svc.shutdown(Duration::from_secs(10));
    let total_ops = vfs.op_count();
    let reference_bytes = witness.lock().unwrap().clone().unwrap();
    assert!(total_ops > base_ops, "probe run did no I/O?");

    // Sweep every kill point in the job's own I/O window. Each iteration
    // is a fresh in-memory disk, so op indices are reproducible.
    for kill in base_ops..total_ops {
        let vfs = Arc::new(FaultyVfs::new());
        let svc = open_svc(&vfs);
        vfs.kill_after(kill);
        let witness: DoneWitness = Arc::new(Mutex::new(None));
        let ticket = admit(
            &svc,
            JobSpec::new("t", "t/c", walk_payload(SEED, STEPS, EVERY, 0, &witness)),
        );
        let status = ticket
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("kill at op {kill}: job never classified"));
        match &status {
            TerminalStatus::Completed { .. } => {}
            TerminalStatus::Failed { error } => {
                assert!(
                    matches!(error.kind(), "io" | "corrupt_checkpoint"),
                    "kill at op {kill}: unclassified failure {error:?}"
                );
            }
            other => panic!("kill at op {kill}: unexpected terminal {other:?}"),
        }
        drop(svc); // stop workers; in-memory state stays on `vfs`

        // The machine dies: unsynced state is lost, fault points disarm.
        vfs.crash(CrashStyle::DropUnsynced);

        // Restart, recover (reaps orphans, rejects torn manifests), and
        // resubmit the session until it completes.
        let svc = open_svc(&vfs);
        let _recovery = svc.recover_sessions().unwrap();
        let mut completed =
            witness.lock().unwrap().is_some() && matches!(status, TerminalStatus::Completed { .. });
        let mut attempts = 0;
        while !completed {
            attempts += 1;
            assert!(attempts <= 3, "kill at op {kill}: session never completed");
            let ticket = admit(
                &svc,
                JobSpec::new("t", "t/c", walk_payload(SEED, STEPS, EVERY, 0, &witness)),
            );
            let status = ticket
                .wait_timeout(Duration::from_secs(60))
                .unwrap_or_else(|| panic!("kill at op {kill}: retry never classified"));
            completed = matches!(status, TerminalStatus::Completed { .. });
        }
        svc.shutdown(Duration::from_secs(10));
        let final_bytes = witness.lock().unwrap().clone().unwrap();
        assert_eq!(
            final_bytes, reference_bytes,
            "kill at op {kill}: recovery diverged from the reference"
        );
    }
}

/// Restart-time hygiene on a real filesystem: orphaned temp state is
/// reaped and reported, torn manifests are rejected (never parsed as
/// sessions), and intact sessions survive.
#[test]
fn restart_reaps_orphans_and_rejects_torn_manifests() {
    let scratch = Scratch::new("recover");
    let svc = JobService::open(&scratch.0, ServiceConfig::default()).unwrap();
    let ticket = admit(&svc, JobSpec::new("t", "t/good", ok_payload()));
    assert_eq!(
        ticket.wait_timeout(Duration::from_secs(10)).unwrap().code(),
        "completed"
    );
    svc.shutdown(Duration::from_secs(5));

    // Plant what a crash mid-save leaves behind.
    let manifests = scratch.0.join("manifests");
    std::fs::write(
        manifests.join("torn.session"),
        b"sops-session v1\nchecksum 0\nhalf a line",
    )
    .unwrap();
    std::fs::write(manifests.join("orphan.session.tmp"), b"partial").unwrap();

    let svc = JobService::open(&scratch.0, ServiceConfig::default()).unwrap();
    let recovery = svc.recover_sessions().unwrap();
    assert_eq!(recovery.manifests.len(), 1, "{recovery:?}");
    assert_eq!(recovery.manifests[0].session, "t/good");
    assert_eq!(recovery.manifests[0].status, SessionStatus::Completed);
    assert_eq!(recovery.rejected.len(), 1, "torn manifest must be rejected");
    assert_eq!(recovery.reaped.len(), 1, "orphan must be reaped");
    assert!(svc.recover_sessions().unwrap().reaped.is_empty());
    svc.shutdown(Duration::from_secs(5));
}

/// Two jobs of one session, submitted back to back to two workers: the
/// second waits for the first to classify, then resumes from its final
/// checkpoint instead of racing it on the session's checkpoint directory
/// and manifest. Both complete, the second finishes in the first's exact
/// state and RNG stream, and the manifest counts both dispatches.
#[test]
fn a_session_runs_one_job_at_a_time() {
    let scratch = Scratch::new("same-session");
    let svc = JobService::open(
        &scratch.0,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let first: DoneWitness = Arc::new(Mutex::new(None));
    let second: DoneWitness = Arc::new(Mutex::new(None));
    let tickets = [&first, &second].map(|witness| {
        admit(
            &svc,
            JobSpec::new("t", "t/same", walk_payload(31, 400, 20, 20, witness)),
        )
    });
    for ticket in &tickets {
        let status = ticket
            .wait_timeout(Duration::from_secs(60))
            .expect("job never classified");
        assert_eq!(status, TerminalStatus::Completed { steps: 400 });
        assert_eq!(ticket.finish_count(), 1);
    }
    let manifest = svc.session_store().load("t/same").unwrap();
    svc.shutdown(Duration::from_secs(10));
    let first = first.lock().unwrap().clone().expect("first job finished");
    let second = second.lock().unwrap().clone().expect("second job finished");
    assert_eq!(second, first, "the second job did not resume the first");
    assert_eq!(manifest.status, SessionStatus::Completed);
    assert_eq!(manifest.runs, 2);
}
