//! Multi-tenant soak test for the `sops-service` job service: N tenants
//! each submit M checkpointing chain sessions through the bounded queue,
//! the harness drains mid-flight, and the run is scored on the service's
//! operational contract rather than chain physics:
//!
//! - **throughput** — completed jobs per second of wall clock;
//! - **queue-depth percentiles** — p50/p90/p99 of the depth observed at
//!   each admission (the backpressure profile);
//! - **fairness** — min/max ratio of per-tenant *completed* jobs at the
//!   mid-flight drain point. Round-robin over tenant lanes should hold
//!   this near 1.0; a FIFO queue under one tenant's flood would drive it
//!   to 0;
//! - **unclassified jobs** — submitted jobs whose ticket never reached a
//!   terminal state. The invariant value is exactly 0, always.
//!
//! Writes `results/service_soak.json` (asserted by CI) and a JSONL
//! telemetry log of admission/eviction/gauge records to
//! `results/logs/service_soak.jsonl` (schema in EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p sops-bench --bin service_soak -- \
//!     [--smoke] [--tenants N] [--sessions M] [--workers W] \
//!     [--capacity C] [--steps S] [--every E] [--state-dir DIR]
//! ```
//!
//! `--smoke` (or `SOPS_BENCH_SMOKE=1`) shrinks the grid for CI.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::{Rng, RngExt as _};
use sops_bench::{logs_dir, out_dir, save, Table};
use sops_chains::checkpoint::StateCodec;
use sops_chains::telemetry::{json_f64, JsonlSink, RunManifest};
use sops_chains::{Auditable, CancelToken, MarkovChain, Repairable};
use sops_service::{
    chain_payload, JobService, JobSpec, JobTicket, QueueConfig, ServiceConfig, TerminalStatus,
};

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

/// A lazy random walk: cheap enough to soak thousands of jobs, real
/// enough to exercise the per-session checkpoint path.
struct Walk;

impl MarkovChain for Walk {
    type State = Counter;
    fn step<R: Rng + ?Sized>(&self, s: &mut Counter, rng: &mut R) -> bool {
        if rng.random_range(0..4u8) > 0 {
            s.x = s.x.wrapping_add(u64::from(rng.random_range(1..8u8)));
            true
        } else {
            false
        }
    }
}

struct Opts {
    tenants: usize,
    sessions: usize,
    workers: usize,
    capacity: usize,
    steps: u64,
    every: u64,
    state_dir: Option<PathBuf>,
    smoke: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        tenants: 8,
        sessions: 40,
        workers: 4,
        capacity: 32,
        steps: 20_000,
        every: 5_000,
        state_dir: None,
        smoke: std::env::var_os("SOPS_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("flag {flag} expects a value"))
        };
        match flag.as_str() {
            "--smoke" => opts.smoke = true,
            "--tenants" => opts.tenants = value("--tenants").parse().expect("--tenants"),
            "--sessions" => opts.sessions = value("--sessions").parse().expect("--sessions"),
            "--workers" => opts.workers = value("--workers").parse().expect("--workers"),
            "--capacity" => opts.capacity = value("--capacity").parse().expect("--capacity"),
            "--steps" => opts.steps = value("--steps").parse().expect("--steps"),
            "--every" => opts.every = value("--every").parse().expect("--every"),
            "--state-dir" => opts.state_dir = Some(PathBuf::from(value("--state-dir"))),
            other => panic!("unknown flag {other}"),
        }
    }
    if opts.smoke {
        opts.tenants = opts.tenants.min(4);
        opts.sessions = opts.sessions.min(12);
        opts.steps = opts.steps.min(4_000);
        opts.every = opts.every.min(1_000);
    }
    opts.tenants = opts.tenants.max(2);
    opts.sessions = opts.sessions.max(1);
    opts
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let opts = parse_opts();
    let state_dir = opts.state_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("sops-service-soak-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&state_dir);
    let total_jobs = opts.tenants * opts.sessions;
    println!(
        "service_soak: {} tenants x {} sessions = {} jobs, {} workers, queue capacity {}{}",
        opts.tenants,
        opts.sessions,
        total_jobs,
        opts.workers,
        opts.capacity,
        if opts.smoke { " (smoke)" } else { "" }
    );

    let svc = JobService::open(
        &state_dir,
        ServiceConfig {
            workers: opts.workers,
            queue: QueueConfig {
                capacity: opts.capacity,
                tenant_quota: opts.capacity, // fairness comes from the round-robin, not quotas
            },
            ..ServiceConfig::default()
        },
    )
    .expect("open job service");

    let manifest = RunManifest {
        run: "service_soak".to_string(),
        seed: 42,
        lambda: 0.0,
        gamma: 0.0,
        n: total_jobs as u64,
        steps: opts.steps,
    };
    let sink = Arc::new(Mutex::new(
        JsonlSink::create(logs_dir().join("service_soak.jsonl"), &manifest)
            .expect("create telemetry sink"),
    ));
    let sink_handle = Arc::clone(&sink);
    svc.set_telemetry(move |line| {
        let _ = sink_handle.lock().expect("sink mutex").record_line(line);
    });

    // Submit every session through the blocking (backpressured) path,
    // interleaving tenants round-robin. Depth is sampled at each
    // admission — the queue's operating profile under sustained load.
    let start = Instant::now();
    let never_cancelled = CancelToken::new();
    let mut tickets: Vec<JobTicket> = Vec::with_capacity(total_jobs);
    let mut depth_samples: Vec<u64> = Vec::with_capacity(total_jobs);
    for session_idx in 0..opts.sessions {
        for tenant_idx in 0..opts.tenants {
            let tenant = format!("tenant-{tenant_idx}");
            let session = format!("{tenant}/s-{session_idx}");
            let seed = (tenant_idx as u64) << 32 | session_idx as u64;
            let payload = chain_payload(
                Walk,
                Counter { x: 0 },
                seed,
                opts.steps,
                opts.every,
                |_state: &Counter, _rng| {},
            );
            let ticket = svc
                .submit_wait(JobSpec::new(&tenant, &session, payload), &never_cancelled)
                .expect("admission cannot fail before drain");
            depth_samples.push(svc.queue_depth() as u64);
            tickets.push(ticket);
        }
    }

    // Drain once ~60% of the jobs have completed: mid-flight is where
    // fairness is measurable (at 100% every ratio is trivially 1.0).
    let drain_target = (total_jobs * 3) / 5;
    while (svc.stats().completed as usize) < drain_target {
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = svc.drain(Duration::from_secs(60));
    let elapsed = start.elapsed();
    svc.shutdown(Duration::from_secs(30));

    // Score the run from the tickets themselves (ground truth), not the
    // service counters.
    let mut per_tenant_completed: BTreeMap<String, u64> = BTreeMap::new();
    let mut completed = 0u64;
    let mut evicted = 0u64;
    let mut failed = 0u64;
    let mut unclassified = 0u64;
    for ticket in &tickets {
        match ticket.wait_timeout(Duration::from_secs(5)) {
            None => unclassified += 1,
            Some(TerminalStatus::Completed { .. }) => {
                completed += 1;
                *per_tenant_completed
                    .entry(ticket.tenant().to_string())
                    .or_default() += 1;
            }
            Some(TerminalStatus::Evicted) => evicted += 1,
            Some(TerminalStatus::Failed { .. }) => failed += 1,
        }
    }
    let min_completed = (0..opts.tenants)
        .map(|i| {
            per_tenant_completed
                .get(&format!("tenant-{i}"))
                .copied()
                .unwrap_or(0)
        })
        .min()
        .unwrap_or(0);
    let max_completed = per_tenant_completed.values().copied().max().unwrap_or(0);
    let fairness = if max_completed == 0 {
        0.0
    } else {
        min_completed as f64 / max_completed as f64
    };
    let throughput = completed as f64 / elapsed.as_secs_f64().max(1e-9);
    depth_samples.sort_unstable();
    let (p50, p90, p99) = (
        percentile(&depth_samples, 0.50),
        percentile(&depth_samples, 0.90),
        percentile(&depth_samples, 0.99),
    );

    let mut table = Table::new(["metric", "value"]);
    table.row(["jobs submitted", &total_jobs.to_string()]);
    table.row(["completed", &completed.to_string()]);
    table.row(["evicted (resumable at drain)", &evicted.to_string()]);
    table.row(["failed", &failed.to_string()]);
    table.row(["unclassified (MUST be 0)", &unclassified.to_string()]);
    table.row(["throughput (jobs/s)", &format!("{throughput:.1}")]);
    table.row(["queue depth p50/p90/p99", &format!("{p50}/{p90}/{p99}")]);
    table.row([
        "fairness (min/max tenant completions)",
        &format!("{fairness:.3}"),
    ]);
    table.row(["drained clean", &report.drained_clean.to_string()]);
    println!("{}", table.render());

    let json = format!(
        "{{\n  \"tenants\": {},\n  \"sessions_per_tenant\": {},\n  \"workers\": {},\n  \
         \"capacity\": {},\n  \"steps\": {},\n  \"submitted\": {},\n  \"completed\": {},\n  \
         \"evicted\": {},\n  \"failed\": {},\n  \"unclassified_jobs\": {},\n  \
         \"throughput_jobs_per_s\": {},\n  \"queue_depth_p50\": {p50},\n  \
         \"queue_depth_p90\": {p90},\n  \"queue_depth_p99\": {p99},\n  \
         \"fairness_ratio\": {},\n  \"drained_clean\": {},\n  \"smoke\": {}\n}}",
        opts.tenants,
        opts.sessions,
        opts.workers,
        opts.capacity,
        opts.steps,
        total_jobs,
        completed,
        evicted,
        failed,
        unclassified,
        json_f64(throughput),
        json_f64(fairness),
        report.drained_clean,
        opts.smoke,
    );
    save("service_soak.json", &json);
    println!(
        "service_soak: wrote {}",
        out_dir().join("service_soak.json").display()
    );

    if opts.state_dir.is_none() {
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    assert_eq!(unclassified, 0, "invariant: every job classifies");
}
