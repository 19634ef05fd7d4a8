//! §3.2 ablation: "Separation still occurs even when swap moves are
//! disallowed, but takes much longer to achieve." We measure the first
//! hitting time of a (β, δ)-separation certificate with and without swaps.
//!
//! The no-swap arms run for up to 2×10⁸ steps, so the hitting loop runs
//! under `sops-runtime` and is resumable: with `--checkpoint-dir DIR` each
//! replicate snapshots its state + RNG every check interval, `--resume`
//! continues a killed run from the newest valid snapshot (falling back
//! past corrupt ones), `--audit-every N` re-verifies configuration
//! invariants from scratch as the loop proceeds, and the
//! `--deadline-ms`/`--max-steps` budget flags degrade the sweep gracefully
//! instead of wedging it. Per-cell outcomes land in
//! `results/ablate_swaps-cells.json`; each arm additionally streams step
//! telemetry to `target/smoke-logs/ablate_swaps-*.telemetry.jsonl` unless
//! `--no-telemetry` is passed — the outcome counters there show *why* the
//! no-swap arm is slower (its `target_occupied_hold` count replaces the
//! swap outcomes entirely). The streams are no committed result (their
//! wall-clock rates differ from run to run), so a plain run leaves
//! `results/` as committed.

use std::ops::ControlFlow;

use sops_analysis::is_separated;
use sops_bench::{instrument_chain, seed_hash, seeded, CellTelemetry, Table};
use sops_chains::RunManifest;
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_runtime::{
    run_cells, run_chain, write_cell_report, ChainJob, JobContext, JobError, SweepOptions,
};

const N: usize = 100;
const CAP: u64 = 200_000_000;
const CHECK_EVERY: u64 = 50_000;
const REPLICATES: u64 = 3;
const METRICS_EVERY: u64 = 1_000_000;

fn time_to_separation(
    swaps: bool,
    replicate: u64,
    opts: &SweepOptions,
    ctx: &JobContext,
) -> Result<Option<u64>, JobError> {
    let mut rng = seeded("ablate-swaps", replicate * 2 + u64::from(swaps));
    let nodes = construct::hexagonal_spiral(N);
    let mut config =
        Configuration::new(construct::bicolor_random(nodes, N / 2, &mut rng)).expect("valid seed");
    let bias = Bias::new(4.0, 4.0).expect("valid bias");
    let chain = if swaps {
        SeparationChain::new(bias)
    } else {
        SeparationChain::without_swaps(bias)
    };

    let cell = format!("swaps={swaps}-r{replicate}");
    let store = opts.store_for(&cell)?;
    let chain = instrument_chain(chain, opts.telemetry);
    let manifest = RunManifest {
        run: format!("ablate_swaps/{cell}"),
        seed: seed_hash("ablate-swaps", replicate * 2 + u64::from(swaps)),
        lambda: 4.0,
        gamma: 4.0,
        n: N as u64,
        steps: CAP,
    };
    let mut telemetry = CellTelemetry::new(
        opts,
        sops_bench::uncommitted_dir(),
        "ablate_swaps",
        &cell,
        manifest,
        METRICS_EVERY,
    );

    let job = ChainJob {
        steps: CAP,
        every: CHECK_EVERY,
        store: store.as_ref(),
        audit_every: opts.audit_every,
    };
    let mut hit = None;
    let run = run_chain(
        ctx,
        &chain,
        &mut config,
        &mut rng,
        job,
        |c| c.perimeter() as f64,
        |t, c| {
            telemetry.on_chunk(t, &chain)?;
            if is_separated(c, 4.0, 0.2).is_some() {
                hit = Some(t);
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        },
    )?;
    sops_bench::log_recovery(&cell, &run);
    // A budget-tripped run is already marked degraded on `ctx`; report
    // the partial result (no hit yet).
    telemetry.finish(&run, &chain, ctx)?;
    Ok(hit)
}

fn main() {
    let opts = SweepOptions::from_args();
    println!(
        "Swap-move ablation: first time a (4, 0.2)-separation certificate\n\
         appears (n = {N}, λ = γ = 4, cap {CAP} steps, {REPLICATES} replicates)\n"
    );
    let jobs: Vec<(bool, u64)> = (0..REPLICATES)
        .flat_map(|r| [(true, r), (false, r)])
        .collect();
    struct Cell(bool, u64);
    impl std::fmt::Display for Cell {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "swaps={}-r{}", self.0, self.1)
        }
    }
    let cells: Vec<Cell> = jobs.iter().map(|&(s, r)| Cell(s, r)).collect();
    let outcomes = run_cells(cells, &opts, |cell, ctx| {
        time_to_separation(cell.0, cell.1, &opts, ctx).map(|t| (cell.0, cell.1, t))
    });

    let mut table = Table::new(["swaps", "replicate", "first separation (steps)"]);
    let mut with: Vec<u64> = Vec::new();
    let mut without: Vec<u64> = Vec::new();
    for outcome in &outcomes {
        match &outcome.result {
            Some((swaps, r, t)) => {
                table.row([
                    format!("{swaps}"),
                    format!("{r}"),
                    t.map_or_else(|| format!(">{CAP}"), |v| v.to_string()),
                ]);
                if let Some(v) = t {
                    if *swaps {
                        with.push(*v);
                    } else {
                        without.push(*v);
                    }
                }
            }
            None => table.row([
                outcome.cell.clone(),
                "—".to_string(),
                format!(
                    "FAILED: {}",
                    outcome
                        .error
                        .as_ref()
                        .map_or_else(String::new, ToString::to_string)
                ),
            ]),
        }
    }
    table.print();
    write_cell_report(&sops_bench::out_dir(), "ablate_swaps", &outcomes);
    if !with.is_empty() && !without.is_empty() {
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        println!(
            "\nmean hitting time: with swaps {:.2e}, without {:.2e} (×{:.1} slower)",
            mean(&with),
            mean(&without),
            mean(&without) / mean(&with),
        );
    }
    println!("expected shape: both reach separation; without swaps is slower (§2.3, §3.2).");
}
