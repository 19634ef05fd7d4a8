//! End-to-end escalation-ladder tests: a sweep cell whose configuration
//! state is corrupted mid-run must *complete* — healed by in-place repair
//! or rollback and reported `recovered` — rather than fail.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sops_bench::seeded_attempt;
use sops_chains::{run_supervised, RecoveryEvent, SupervisedOptions};
use sops_core::{construct, Bias, SeparationChain};
use sops_runtime::{
    run_cells, write_cell_report, BackoffPolicy, CellStatus, JobContext, JobError, ResourceBudget,
    SweepOptions,
};

/// A fresh scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sops-escalation-test-{}-{tag}-{}",
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

/// Sweep options pointed at a scratch checkpoint dir, with no telemetry,
/// no retries, and no backoff sleeps.
fn test_opts(scratch: &Scratch) -> SweepOptions {
    SweepOptions {
        checkpoint_dir: Some(scratch.0.clone()),
        telemetry: false,
        backoff: BackoffPolicy { base_ms: 0 },
        budget: ResourceBudget {
            max_retries: 0,
            ..ResourceBudget::default()
        },
        ..SweepOptions::default()
    }
}

const STEPS: u64 = 40_000;
const EVERY: u64 = 5_000;

/// One supervised chain cell; `poison_at` injects counter-cache
/// corruption through the on_chunk hook at that step, exercising the
/// same audit → repair path a real mid-run fault would take.
fn chain_cell(
    cell: &str,
    opts: &SweepOptions,
    ctx: &JobContext<'_>,
    poison_at: Option<u64>,
) -> Result<(u64, Vec<RecoveryEvent>), JobError> {
    let mut rng = seeded_attempt(cell, 0, ctx.attempt);
    let mut config =
        construct::hexagonal_bicolored(20, 10).map_err(|e| JobError::app(e.to_string()))?;
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).expect("valid bias"));
    let store = opts
        .store_for(cell)?
        .expect("test opts always set a checkpoint dir");
    let sup = SupervisedOptions {
        steps: STEPS,
        every: EVERY,
        max_rollbacks: 3,
        audit_every: None,
    };
    let run = run_supervised(
        &chain,
        &mut config,
        &mut rng,
        &store,
        &sup,
        &ctx.cancel_token(),
        |c| c.perimeter() as f64,
        |t, c| {
            if poison_at == Some(t) {
                let (e, h) = (c.edge_count(), c.hetero_edge_count());
                c.inject_counter_fault(e + 7, h + 3);
            }
            ControlFlow::Continue(())
        },
    )?;
    ctx.absorb(&run);
    Ok((run.steps, run.events))
}

#[test]
fn corrupted_cell_completes_as_recovered_not_failed() {
    let scratch = Scratch::new("repair");
    let opts = test_opts(&scratch);
    let outcomes = run_cells(vec!["clean", "poisoned"], &opts, |label, ctx| {
        let poison_at = (*label == "poisoned").then_some(15_000);
        chain_cell(label, &opts, ctx, poison_at)
    });
    let by_cell = |name: &str| outcomes.iter().find(|o| o.cell == name).unwrap();

    let clean = by_cell("clean");
    assert_eq!(clean.status, CellStatus::Ok);
    let (steps, events) = clean.result.as_ref().unwrap();
    assert_eq!(*steps, STEPS);
    assert!(events.is_empty(), "{events:?}");

    // The poisoned cell completed the full run on its first attempt — the
    // ladder healed it in place instead of killing the cell.
    let poisoned = by_cell("poisoned");
    assert_eq!(poisoned.status, CellStatus::Recovered, "{poisoned:?}");
    assert_eq!(poisoned.attempts, 1, "repair must not consume a retry");
    let (steps, events) = poisoned.result.as_ref().unwrap();
    assert_eq!(*steps, STEPS);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Repaired { step: 15_000, .. })),
        "{events:?}"
    );

    // And the report records the healed cell as recovered, not failed —
    // including the typed `repaired` runtime event absorbed from the
    // ladder.
    let json = write_cell_report(&sops_bench::out_dir(), "escalation-test", &outcomes);
    assert!(json.contains("\"cells_failed\": 0"), "{json}");
    assert!(json.contains("\"cells_recovered\": 1"), "{json}");
    assert!(json.contains("\"event\": \"repaired\""), "{json}");
    let _ = std::fs::remove_file(sops_bench::out_dir().join("escalation-test-cells.json"));
}

#[test]
fn repeated_corruption_is_healed_every_chunk() {
    let scratch = Scratch::new("repeat");
    let opts = test_opts(&scratch);
    let outcomes = run_cells(vec!["relapsing"], &opts, |label, ctx| {
        let mut rng = seeded_attempt(label, 1, ctx.attempt);
        let mut config =
            construct::hexagonal_bicolored(20, 10).map_err(|e| JobError::app(e.to_string()))?;
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).expect("valid bias"));
        let store = opts.store_for(label)?.unwrap();
        let sup = SupervisedOptions {
            steps: STEPS,
            every: EVERY,
            max_rollbacks: 3,
            audit_every: None,
        };
        let run = run_supervised(
            &chain,
            &mut config,
            &mut rng,
            &store,
            &sup,
            &ctx.cancel_token(),
            |c| c.perimeter() as f64,
            |_, c| {
                let (e, h) = (c.edge_count(), c.hetero_edge_count());
                c.inject_counter_fault(e + 1, h + 1);
                ControlFlow::Continue(())
            },
        )?;
        ctx.absorb(&run);
        Ok::<_, JobError>(run.events.len())
    });
    assert_eq!(outcomes[0].status, CellStatus::Recovered);
    // Repairs are unbounded (unlike rollbacks): one per corrupted chunk.
    assert_eq!(outcomes[0].result, Some((STEPS / EVERY) as usize));
}
