//! Whole-stack chaos suite: end-to-end sweeps driven through the
//! `sops-runtime` supervision stack under combined fault injection —
//! storage crash-points ([`FaultyVfs`]), particle faults
//! ([`FaultPlan`]), injected panics, budget exhaustion, and external
//! cancellation. The contract under test is the runtime's
//! degradation guarantee: every failure mode terminates with a
//! classified [`CellStatus`] in the cells report, any durable
//! checkpoint left behind is valid (audits clean, bitwise-equal to the
//! fault-free reference), and a resumed run is bitwise-identical to an
//! uninterrupted one.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sops_amoebot::schedule::UniformScheduler;
use sops_amoebot::{AmoebotSystem, FaultPlan, FaultySchedule};
use sops_bench::{instrument_chain, seeded_attempt, CellTelemetry};
use sops_chains::{Auditable as _, MarkovChain as _, StateCodec as _};
use sops_chains::{CheckpointStore, CrashStyle, FaultyVfs, RunManifest};
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_runtime::{
    run_cells, run_chain, write_cell_report, BackoffPolicy, CellStatus, ChainJob, DegradeReason,
    JobContext, JobError, ResourceBudget, Runtime, SupervisedRun, SweepOptions,
};

const STEPS: u64 = 6_000;
const EVERY: u64 = 1_000;

/// A fresh scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sops-chaos-test-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn seed_config() -> Result<Configuration, JobError> {
    construct::hexagonal_bicolored(20, 10).map_err(|e| JobError::app(e.to_string()))
}

fn chain() -> SeparationChain {
    SeparationChain::new(Bias::new(4.0, 4.0).expect("valid bias"))
}

/// Zero-sleep options: no backoff delays, no telemetry, no retries
/// unless a test opts back in.
fn fast_opts() -> SweepOptions {
    SweepOptions {
        telemetry: false,
        backoff: BackoffPolicy { base_ms: 0 },
        budget: ResourceBudget {
            max_retries: 0,
            ..ResourceBudget::default()
        },
        ..SweepOptions::default()
    }
}

/// One short supervised (or storeless) chain run under the cell's
/// context, seeded per attempt like the real bins.
fn run_short_chain(
    cell: &str,
    ctx: &JobContext<'_>,
    store: Option<&CheckpointStore>,
) -> Result<SupervisedRun, JobError> {
    let mut rng = seeded_attempt(cell, 0, ctx.attempt);
    let mut config = seed_config()?;
    let chain = chain();
    run_chain(
        ctx,
        &chain,
        &mut config,
        &mut rng,
        ChainJob {
            steps: STEPS,
            every: EVERY,
            store,
            audit_every: Some(EVERY),
        },
        |c| c.perimeter() as f64,
        |_, _| ControlFlow::Continue(()),
    )
}

/// A cell driving the amoebot layer under a particle-fault plan: one
/// crash-stop, one starvation window, random drops and forced aborts.
/// The surviving particles must still leave a structurally valid
/// configuration.
fn particle_fault_cell(ctx: &JobContext<'_>) -> Result<u64, JobError> {
    let mut rng = seeded_attempt("particle-faults", 0, ctx.attempt);
    let config = seed_config()?;
    let mut system = AmoebotSystem::new(&config, Bias::new(4.0, 4.0).expect("valid bias"), true);
    let plan = FaultPlan::none()
        .crash(3, 500)
        .starve(5, 1_000)
        .drop_activations(0.05)
        .abort_expansions(0.10);
    let mut schedule = FaultySchedule::new(UniformScheduler, plan);
    let mut changed = 0;
    for _ in 0..4 {
        changed += schedule.run(&mut system, 1_000, &mut rng);
    }
    if !schedule.is_crashed(3) {
        return Err(JobError::app("planned crash-stop did not land"));
    }
    if schedule.stats().total_suppressed() == 0 {
        return Err(JobError::app("fault plan suppressed no activations"));
    }
    let serialized = system.serialized_configuration();
    let violations = serialized.audit_violations();
    if !violations.is_empty() {
        return Err(JobError::AuditFailed {
            step: 4_000,
            violations,
        });
    }
    Ok(changed)
}

#[test]
fn combined_fault_sweep_classifies_every_cell() {
    let scratch = Scratch::new("combined");
    let opts = SweepOptions {
        checkpoint_dir: Some(scratch.0.clone()),
        budget: ResourceBudget {
            max_retries: 1,
            ..ResourceBudget::default()
        },
        ..fast_opts()
    };

    // The storage-crash cell's store rides a FaultyVfs whose kill-point
    // is armed right after open: every subsequent I/O op fails, so both
    // the first attempt and its retry hit the same persistent fault.
    let vfs = Arc::new(FaultyVfs::new());
    let faulty_store = CheckpointStore::open_with(PathBuf::from("/chaos"), 2, vfs.clone()).unwrap();
    vfs.kill_after(vfs.op_count());

    let cells = vec![
        "clean",
        "panic-once",
        "panic-always",
        "particle-faults",
        "storage-crash",
    ];
    let outcomes = run_cells(cells, &opts, |label, ctx| match *label {
        "clean" => {
            let store = opts.store_for(label)?.expect("checkpoint dir set");
            run_short_chain(label, ctx, Some(&store)).map(|run| run.steps)
        }
        "panic-once" => {
            if ctx.attempt == 1 {
                panic!("chaos: injected panic (attempt 1)");
            }
            run_short_chain(label, ctx, None).map(|run| run.steps)
        }
        "panic-always" => panic!("chaos: injected panic (every attempt)"),
        "particle-faults" => particle_fault_cell(ctx),
        "storage-crash" => run_short_chain(label, ctx, Some(&faulty_store)).map(|run| run.steps),
        other => unreachable!("unknown cell {other}"),
    });
    let by = |name: &str| outcomes.iter().find(|o| o.cell == name).unwrap();

    assert_eq!(by("clean").status, CellStatus::Ok);
    assert_eq!(by("clean").result, Some(STEPS));

    let once = by("panic-once");
    assert_eq!(once.status, CellStatus::Recovered, "{once:?}");
    assert_eq!(once.attempts, 2);
    assert_eq!(once.result, Some(STEPS));

    let always = by("panic-always");
    assert_eq!(always.status, CellStatus::Failed, "{always:?}");
    assert_eq!(always.attempts, 2, "budget allows exactly one retry");
    assert!(
        matches!(always.error, Some(JobError::Panic { .. })),
        "{:?}",
        always.error
    );

    let particles = by("particle-faults");
    assert_eq!(particles.status, CellStatus::Ok, "{particles:?}");
    assert!(particles.result.unwrap() > 0);

    let storage = by("storage-crash");
    assert_eq!(storage.status, CellStatus::Failed, "{storage:?}");
    assert_eq!(
        storage.attempts, 2,
        "a persistent storage fault is retried once, then classified"
    );
    assert_eq!(storage.error.as_ref().unwrap().kind(), "io");

    // The report classifies every cell — no blanks, no wedges.
    let json = write_cell_report(&scratch.0, "chaos-combined", &outcomes);
    assert!(json.contains("\"cells_failed\": 2"), "{json}");
    assert!(json.contains("\"cells_degraded\": 0"), "{json}");
    assert!(json.contains("\"cells_recovered\": 1"), "{json}");
    assert!(json.contains("\"event\": \"retry\""), "{json}");
    assert!(json.contains("\"error_kind\": \"io\""), "{json}");
    for cell in [
        "clean",
        "panic-once",
        "panic-always",
        "particle-faults",
        "storage-crash",
    ] {
        assert!(json.contains(&format!("\"cell\": \"{cell}\"")), "{json}");
    }
    assert_eq!(json.matches("\"status\": ").count(), 5, "{json}");
}

#[test]
fn deadline_trip_ends_degraded_with_a_durable_audited_checkpoint() {
    let scratch = Scratch::new("deadline");
    let opts = SweepOptions {
        checkpoint_dir: Some(scratch.0.clone()),
        budget: ResourceBudget {
            deadline: Some(Duration::from_millis(80)),
            max_retries: 0,
            ..ResourceBudget::default()
        },
        ..fast_opts()
    };
    let outcomes = run_cells(vec!["deadline"], &opts, |label, ctx| {
        let mut rng = seeded_attempt(label, 0, ctx.attempt);
        let mut config = seed_config()?;
        let chain = chain();
        let store = opts.store_for(label)?.expect("checkpoint dir set");
        let run = run_chain(
            ctx,
            &chain,
            &mut config,
            &mut rng,
            ChainJob {
                steps: 1_000_000_000,
                every: 500,
                store: Some(&store),
                audit_every: None,
            },
            |c| c.perimeter() as f64,
            |_, _| ControlFlow::Continue(()),
        )?;
        Ok(run.steps)
    });

    let outcome = &outcomes[0];
    let CellStatus::Degraded {
        reason,
        last_durable_step,
    } = outcome.status
    else {
        panic!("expected a degraded cell, got {outcome:?}");
    };
    assert_eq!(reason, DegradeReason::DeadlineExceeded);

    // The budget trip left a valid, loadable checkpoint behind: the
    // sweep can be resumed even though the deadline killed it. Reopen
    // in resume mode — a non-resume open wipes the cell directory.
    let resume_opts = SweepOptions {
        resume: true,
        ..opts.clone()
    };
    let store = resume_opts.store_for("deadline").unwrap().unwrap();
    let rec = store.recover::<Configuration>().unwrap();
    let ckpt = rec
        .checkpoint
        .expect("a durable checkpoint survives the deadline trip");
    assert!(
        ckpt.state.audit_violations().is_empty(),
        "degraded run persisted an invariant-violating state"
    );
    if let Some(step) = last_durable_step {
        assert_eq!(ckpt.step, step, "status names a stale durable step");
    }
}

const RESUME_STEPS: u64 = 12_000;

/// What a resumable leg reports: steps completed, the step resumed
/// from, the final state encoding, and the final RNG state bytes.
type LegResult = (u64, Option<u64>, Vec<u8>, Vec<u8>);

/// The budgeted/resumed cell of the bitwise-identity test. The attempt
/// index is pinned so every invocation draws the same rng stream.
fn budgeted_cell(ctx: &JobContext<'_>, store: &CheckpointStore) -> Result<LegResult, JobError> {
    let mut rng = seeded_attempt("chaos-resume", 0, 1);
    let mut config = seed_config()?;
    let chain = chain();
    let run = run_chain(
        ctx,
        &chain,
        &mut config,
        &mut rng,
        ChainJob {
            steps: RESUME_STEPS,
            every: EVERY,
            store: Some(store),
            audit_every: None,
        },
        |c| c.perimeter() as f64,
        |_, _| ControlFlow::Continue(()),
    )?;
    Ok((
        run.steps,
        run.resumed_from,
        config.encode_state(),
        rng.to_state_bytes().to_vec(),
    ))
}

#[test]
fn step_budget_interruption_resumes_bitwise_identically() {
    // Uninterrupted reference: one unsupervised run on the same seed.
    let mut rng = seeded_attempt("chaos-resume", 0, 1);
    let mut config = construct::hexagonal_bicolored(20, 10).unwrap();
    chain().run(&mut config, RESUME_STEPS, &mut rng);
    let (ref_state, ref_rng) = (config.encode_state(), rng.to_state_bytes().to_vec());

    let scratch = Scratch::new("resume");
    let capped = SweepOptions {
        checkpoint_dir: Some(scratch.0.clone()),
        budget: ResourceBudget {
            max_steps: Some(6_000),
            max_retries: 0,
            ..ResourceBudget::default()
        },
        ..fast_opts()
    };
    let store = capped.store_for("resume").unwrap().unwrap();

    // Leg 1: the step budget interrupts the run halfway, degraded with
    // the durable step on record.
    let first = run_cells(vec!["resume"], &capped, |_, ctx| budgeted_cell(ctx, &store));
    assert!(
        matches!(
            first[0].status,
            CellStatus::Degraded {
                reason: DegradeReason::StepBudgetExhausted,
                last_durable_step: Some(6_000),
            }
        ),
        "{:?}",
        first[0].status
    );
    let (steps, resumed, ..) = first[0].result.as_ref().unwrap();
    assert_eq!(*steps, 6_000);
    assert_eq!(*resumed, None);

    // Leg 2: a fresh run with the cap lifted resumes from the budget
    // trip's checkpoint and lands bitwise-identical to the reference.
    let full = SweepOptions {
        budget: ResourceBudget {
            max_retries: 0,
            ..ResourceBudget::default()
        },
        ..capped.clone()
    };
    let second = run_cells(vec!["resume"], &full, |_, ctx| budgeted_cell(ctx, &store));
    assert_eq!(second[0].status, CellStatus::Ok, "{:?}", second[0].status);
    let (steps, resumed, state, rng_bytes) = second[0].result.as_ref().unwrap();
    assert_eq!(*steps, RESUME_STEPS);
    assert_eq!(*resumed, Some(6_000));
    assert_eq!(
        state, &ref_state,
        "resumed state diverged from the uninterrupted run"
    );
    assert_eq!(rng_bytes, &ref_rng, "resumed rng stream diverged");
}

/// The cell of the corrupt-snapshot telemetry test: `budgeted_cell`'s
/// job (12,000 steps, a chunk every 1,000), instrumented and streamed
/// through `CellTelemetry` as `mixing` and `ablate_swaps` stream theirs,
/// with a metrics record every two chunks.
fn telemetry_cell(
    ctx: &JobContext<'_>,
    opts: &SweepOptions,
    logs: &Path,
) -> Result<SupervisedRun, JobError> {
    let mut rng = seeded_attempt("chaos-telemetry", 0, 1);
    let mut config = seed_config()?;
    let chain = instrument_chain(chain(), opts.telemetry);
    let store = opts.store_for("telemetry")?;
    let manifest = RunManifest {
        run: "chaos/telemetry".to_string(),
        seed: 0,
        lambda: 4.0,
        gamma: 4.0,
        n: 20,
        steps: RESUME_STEPS,
    };
    let mut telemetry = CellTelemetry::new(
        opts,
        logs.to_path_buf(),
        "chaos",
        "telemetry",
        manifest,
        2 * EVERY,
    );
    let run = run_chain(
        ctx,
        &chain,
        &mut config,
        &mut rng,
        ChainJob {
            steps: RESUME_STEPS,
            every: EVERY,
            store: store.as_ref(),
            audit_every: None,
        },
        |c| c.perimeter() as f64,
        |t, _| telemetry.on_chunk(t, &chain),
    )?;
    telemetry.finish(&run, &chain, ctx)?;
    Ok(run)
}

/// The `step` of every telemetry record of `kind`, in file order.
fn record_steps(lines: &[String], kind: &str) -> Vec<u64> {
    let tag = format!("{{\"kind\":\"{kind}\",\"step\":");
    lines
        .iter()
        .filter_map(|line| line.strip_prefix(&tag))
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("a step")
        })
        .collect()
}

#[test]
fn telemetry_resumes_from_the_snapshot_the_run_resumed_from() {
    // Leg 1 stops at the 6,000-step budget. Its step-6,000 snapshot is
    // then torn, so leg 2 resumes from step 5,000. The stream must say so:
    // its `resumed` marker names step 5,000, and its metrics records land
    // 2,000 steps apart from there and end at the run's last step.
    let scratch = Scratch::new("telemetry");
    let logs = scratch.0.join("logs");
    let capped = SweepOptions {
        checkpoint_dir: Some(scratch.0.join("ckpt")),
        telemetry: true,
        budget: ResourceBudget {
            max_steps: Some(6_000),
            max_retries: 0,
            ..ResourceBudget::default()
        },
        ..fast_opts()
    };
    let first = run_cells(vec!["telemetry"], &capped, |_, ctx| {
        telemetry_cell(ctx, &capped, &logs)
    });
    assert_eq!(first[0].result.as_ref().unwrap().steps, 6_000);
    let stream = logs.join("chaos-telemetry.telemetry.jsonl");
    let read = || -> Vec<String> {
        std::fs::read_to_string(&stream)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        record_steps(&read(), "metrics"),
        [2_000, 4_000, 6_000, 6_000]
    );

    let resumed = SweepOptions {
        resume: true,
        budget: ResourceBudget {
            max_retries: 0,
            ..ResourceBudget::default()
        },
        ..capped.clone()
    };
    let store = resumed.store_for("telemetry").unwrap().unwrap();
    let newest = store.list().unwrap().pop().unwrap();
    assert!(
        newest.ends_with("step-00000000000000006000.ckpt"),
        "{newest:?}"
    );
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..50]).unwrap();
    let second = run_cells(vec!["telemetry"], &resumed, |_, ctx| {
        telemetry_cell(ctx, &resumed, &logs)
    });
    assert_eq!(second[0].status, CellStatus::Ok, "{:?}", second[0].status);
    let run = second[0].result.as_ref().unwrap();
    assert_eq!((run.resumed_from, run.steps), (Some(5_000), RESUME_STEPS));
    assert_eq!(run.rejected, [newest]);
    let lines = read();
    assert_eq!(record_steps(&lines, "resumed"), [5_000]);
    let metrics = record_steps(&lines, "metrics");
    assert_eq!(metrics[4..], [7_000, 9_000, 11_000, RESUME_STEPS]);

    // Leg 3 resumes the finished store and runs no chunk: the stream
    // opens after the run, at the step it resumed from.
    let third = run_cells(vec!["telemetry"], &resumed, |_, ctx| {
        telemetry_cell(ctx, &resumed, &logs)
    });
    let run = third[0].result.as_ref().unwrap();
    assert_eq!(run.resumed_from, Some(RESUME_STEPS));
    let lines = read();
    assert_eq!(record_steps(&lines, "resumed"), [5_000, RESUME_STEPS]);
    assert_eq!(record_steps(&lines, "metrics").last(), Some(&RESUME_STEPS));
}

#[test]
fn external_cancel_degrades_and_preserves_a_valid_checkpoint() {
    let scratch = Scratch::new("cancel");
    let opts = SweepOptions {
        checkpoint_dir: Some(scratch.0.clone()),
        ..fast_opts()
    };
    let rt = Runtime::new(opts.clone());
    let token = rt.cancel_token();
    let outcomes = rt.run_cells(vec!["cancel"], |label, ctx| {
        let mut rng = seeded_attempt(label, 0, ctx.attempt);
        let mut config = seed_config()?;
        let chain = chain();
        let store = opts.store_for(label)?.expect("checkpoint dir set");
        let run = run_chain(
            ctx,
            &chain,
            &mut config,
            &mut rng,
            ChainJob {
                steps: 1_000_000_000,
                every: EVERY,
                store: Some(&store),
                audit_every: None,
            },
            |c| c.perimeter() as f64,
            |t, _| {
                if t >= 3_000 {
                    // An operator pulling the plug mid-sweep.
                    token.cancel();
                }
                ControlFlow::Continue(())
            },
        )?;
        Ok(run.steps)
    });

    let outcome = &outcomes[0];
    assert!(
        matches!(
            outcome.status,
            CellStatus::Degraded {
                reason: DegradeReason::ExternalCancel,
                ..
            }
        ),
        "{outcome:?}"
    );

    // Cancellation is cooperative: whatever was checkpointed before the
    // cancel is durable, valid, and resumable. (The save at the cancel
    // step itself is abandoned mid-I/O, so the durable snapshot is the
    // chunk before it.) Reopen in resume mode — a non-resume open wipes
    // the cell directory.
    let resume_opts = SweepOptions {
        resume: true,
        ..opts.clone()
    };
    let store = resume_opts.store_for("cancel").unwrap().unwrap();
    let rec = store.recover::<Configuration>().unwrap();
    let ckpt = rec.checkpoint.expect("checkpoint survives cancellation");
    assert!(ckpt.step >= 1_000, "no chunk became durable before cancel");
    assert!(ckpt.state.audit_violations().is_empty());
}

#[test]
fn storage_crashes_recover_valid_checkpoints_and_resume_identically() {
    let opts = fast_opts();

    // Reference: a fault-free supervised run on a pristine in-memory
    // store, recording the state at every chunk boundary plus the total
    // I/O op count (the kill-point domain for the crashed runs).
    let probe = Arc::new(FaultyVfs::new());
    let probe_store =
        CheckpointStore::open_with(PathBuf::from("/chaos-ref"), 2, probe.clone()).unwrap();
    let reference = run_cells(vec!["crash"], &opts, |_, ctx| {
        let mut rng = seeded_attempt("chaos-crash", 0, 1);
        let mut config = seed_config()?;
        let chain = chain();
        let mut states: Vec<(u64, Vec<u8>)> = vec![(0, config.encode_state())];
        run_chain(
            ctx,
            &chain,
            &mut config,
            &mut rng,
            ChainJob {
                steps: STEPS,
                every: EVERY,
                store: Some(&probe_store),
                audit_every: None,
            },
            |c| c.perimeter() as f64,
            |t, c| {
                states.push((t, c.encode_state()));
                ControlFlow::Continue(())
            },
        )?;
        Ok((states, config.encode_state(), rng.to_state_bytes().to_vec()))
    });
    assert_eq!(reference[0].status, CellStatus::Ok);
    let (ref_states, ref_final, ref_rng) = reference[0].result.as_ref().unwrap();
    let total_ops = probe.op_count();
    assert!(total_ops > 8, "probe run performed almost no I/O");

    let styles = [
        CrashStyle::DropUnsynced,
        CrashStyle::TornUnsynced { keep: 128 },
        CrashStyle::CorruptUnsynced {
            flip_at: 7,
            mask: 0x20,
        },
    ];
    for style in styles {
        for quarter in 1..=3u64 {
            let kill = total_ops * quarter / 4;
            let vfs = Arc::new(FaultyVfs::new());
            let dir = PathBuf::from(format!("/chaos-{quarter}"));
            let store = CheckpointStore::open_with(dir.clone(), 2, vfs.clone()).unwrap();
            vfs.kill_after(kill.max(vfs.op_count()));

            // The killed run terminates classified — io failure, not a
            // wedge or a panic.
            let crashed = run_cells(vec!["crash"], &opts, |_, ctx| {
                let mut rng = seeded_attempt("chaos-crash", 0, 1);
                let mut config = seed_config()?;
                let chain = chain();
                run_chain(
                    ctx,
                    &chain,
                    &mut config,
                    &mut rng,
                    ChainJob {
                        steps: STEPS,
                        every: EVERY,
                        store: Some(&store),
                        audit_every: None,
                    },
                    |c| c.perimeter() as f64,
                    |_, _| ControlFlow::Continue(()),
                )
                .map(|run| run.steps)
            });
            assert_eq!(
                crashed[0].status,
                CellStatus::Failed,
                "{style:?} kill@{kill}: {:?}",
                crashed[0]
            );
            assert_eq!(crashed[0].error.as_ref().unwrap().kind(), "io");

            // The machine dies and reboots under this crash style.
            vfs.crash(style);

            // Whatever recovery finds must be a valid snapshot that is
            // bitwise-equal to the reference at that step — a crash may
            // lose progress, never corrupt it silently.
            let store = CheckpointStore::open_with(dir, 2, vfs.clone()).unwrap();
            let rec = store.recover::<Configuration>().unwrap();
            if let Some(ckpt) = &rec.checkpoint {
                assert!(
                    ckpt.state.audit_violations().is_empty(),
                    "{style:?} kill@{kill}: recovered state violates invariants"
                );
                let expected = ref_states
                    .iter()
                    .find(|(t, _)| *t == ckpt.step)
                    .map(|(_, s)| s)
                    .unwrap_or_else(|| {
                        panic!(
                            "{style:?} kill@{kill}: recovered off-chunk step {}",
                            ckpt.step
                        )
                    });
                assert_eq!(
                    &ckpt.state.encode_state(),
                    expected,
                    "{style:?} kill@{kill}: recovered snapshot diverges at step {}",
                    ckpt.step
                );
            }

            // Resuming on the crashed store completes and lands
            // bitwise-identical to the uninterrupted reference.
            let resumed = run_cells(vec!["crash"], &opts, |_, ctx| {
                let mut rng = seeded_attempt("chaos-crash", 0, 1);
                let mut config = seed_config()?;
                let chain = chain();
                let run = run_chain(
                    ctx,
                    &chain,
                    &mut config,
                    &mut rng,
                    ChainJob {
                        steps: STEPS,
                        every: EVERY,
                        store: Some(&store),
                        audit_every: None,
                    },
                    |c| c.perimeter() as f64,
                    |_, _| ControlFlow::Continue(()),
                )?;
                Ok((
                    run.resumed_from,
                    config.encode_state(),
                    rng.to_state_bytes().to_vec(),
                ))
            });
            assert_eq!(
                resumed[0].status,
                CellStatus::Ok,
                "{style:?} kill@{kill}: {:?}",
                resumed[0]
            );
            let (resumed_from, state, rng_bytes) = resumed[0].result.as_ref().unwrap();
            assert_eq!(
                resumed_from,
                &rec.checkpoint.as_ref().map(|c| c.step),
                "{style:?} kill@{kill}: resume did not use the recovered snapshot"
            );
            assert_eq!(
                state, ref_final,
                "{style:?} kill@{kill}: resumed final state diverges"
            );
            assert_eq!(
                rng_bytes, ref_rng,
                "{style:?} kill@{kill}: resumed rng stream diverges"
            );
        }
    }
}
