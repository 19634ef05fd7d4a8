//! §5: the paper can prove no nontrivial mixing-time bounds for `M`, and
//! argues mixing time may be the wrong lens anyway: "simulations show that
//! both compression and separation occur fairly quickly … well before
//! converging to stationarity." We quantify both halves:
//!
//! 1. exact mixing times `t_mix(1/4)` on enumerable spaces, as a function
//!    of the bias parameters (per-particle, to expose the scaling);
//! 2. the first hitting time of the *behavior* (a separation certificate)
//!    on larger systems — which grows far more slowly than the time to
//!    reach stationarity-quality samples.
//!
//! Part 2 runs up to 5×10⁸ steps per system size, so its hitting loop runs
//! under `sops-runtime`: `--checkpoint-dir DIR` snapshots each n-cell
//! (state + RNG) every check interval, `--resume` picks up a killed sweep
//! from the newest valid snapshot, `--audit-every N` re-verifies the
//! configuration invariants from scratch mid-run, and the
//! `--deadline-ms`/`--max-steps` budget flags degrade the sweep gracefully
//! instead of wedging it. Per-cell outcomes (with typed errors and degrade
//! reasons) are recorded in `mixing-cells.json` (under `results/` for an
//! `--adaptive --smoke` run, whose report is committed, and under the
//! git-ignored `target/smoke-logs/` for every other mode), and each cell
//! streams step telemetry (outcome counters, acceptance windows, perimeter
//! and hetero-edge series, runtime events) to
//! `target/smoke-logs/mixing-n-N.telemetry.jsonl` in every mode unless
//! `--no-telemetry` is passed: the streams are no committed result.
//!
//! With `--adaptive` the hitting loop runs under the convergence engine
//! instead of breaking at the first certificate: each cell stops once the
//! perimeter series plateaus, carries enough effective samples, agrees
//! across its window halves (split-R̂ ≤ 1.05), and the separation
//! certificate has held for a streak of checks. Converged cells end `ok`
//! with a `converged` event (full diagnostics) in the cells report; the
//! first-certificate step is read back from the monitor's serialized
//! state, so it survives kill-and-resume. `--smoke` shrinks the sweep
//! (smaller sizes, shorter chunks, a tight cap, part 1 skipped) for CI.

use std::ops::ControlFlow;

use sops_analysis::is_separated;
use sops_bench::{instrument_chain, seed_hash, seeded, CellTelemetry, Table};
use sops_chains::{RunManifest, TransitionMatrix};
use sops_core::enumerate::ExactSeparationChain;
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_runtime::{
    run_cells, run_chain, run_chain_monitored, write_cell_report, ChainJob, ConvergenceMonitor,
    JobContext, JobError, StopReason, SweepOptions,
};

const HIT_CHUNK: u64 = 25_000;
const HIT_CAP: u64 = 500_000_000;
const METRICS_EVERY: u64 = 1_000_000;
// `--smoke`: short chunks against a tight cap so the adaptive stop is
// exercised (and measurable) in CI-scale minutes.
const SMOKE_CHUNK: u64 = 2_000;
const SMOKE_CAP: u64 = 4_000_000;
const SMOKE_METRICS_EVERY: u64 = 500_000;

fn hitting_cell(n: usize, opts: &SweepOptions, ctx: &JobContext) -> Result<Option<u64>, JobError> {
    let (chunk, cap, metrics_every) = if opts.smoke {
        (SMOKE_CHUNK, SMOKE_CAP, SMOKE_METRICS_EVERY)
    } else {
        (HIT_CHUNK, HIT_CAP, METRICS_EVERY)
    };
    let mut rng = seeded("mixing-hit", n as u64);
    let nodes = construct::hexagonal_spiral(n);
    let mut config = Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng))
        .map_err(|e| JobError::app(e.to_string()))?;
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).expect("valid bias"));

    let cell = format!("n={n}");
    let store = opts.store_for(&cell)?;
    let chain = instrument_chain(chain, opts.telemetry);
    let manifest = RunManifest {
        run: format!("mixing/{cell}"),
        seed: seed_hash("mixing-hit", n as u64),
        lambda: 4.0,
        gamma: 4.0,
        n: n as u64,
        steps: cap,
    };
    let mut telemetry = CellTelemetry::new(
        opts,
        sops_bench::uncommitted_dir(),
        "mixing",
        &cell,
        manifest,
        metrics_every,
    );

    let job = ChainJob {
        steps: cap,
        every: chunk,
        store: store.as_ref(),
        audit_every: opts.audit_every,
    };
    let mut hit = None;
    let run = if opts.adaptive {
        // Adaptive: no first-hit break — the convergence monitor owns the
        // stop decision, releasing budget only when the *behavior* (three
        // separation certificates in a row) and the *statistics* (the
        // perimeter's plateau, ESS and split-R̂) agree the cell is done.
        // The hitting time is read back from the monitor's serialized
        // first-certificate record.
        let mut monitor = ConvergenceMonitor::new(3);
        let (run, stop) = run_chain_monitored(
            ctx,
            &chain,
            &mut config,
            &mut rng,
            job,
            &mut monitor,
            |c| c.perimeter() as f64,
            |c| is_separated(c, 4.0, 0.2).is_some(),
            |t, _| telemetry.on_chunk(t, &chain),
        )?;
        if let Some(StopReason::Converged { step, diagnostics }) = stop {
            eprintln!(
                "{cell}: converged at step {step} with budget to spare: {}",
                diagnostics.to_json()
            );
            hit = diagnostics
                .get("first_certified_step")
                .map(|s| s.round() as u64);
        }
        // Not converged → budget ran out; `hit` stays `None` and the
        // degrade reason is already on `ctx`.
        run
    } else {
        run_chain(
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
        )?
    };
    sops_bench::log_recovery(&cell, &run);
    // A budget-tripped run is already marked degraded on `ctx`; report
    // the partial result (no hit yet).
    telemetry.finish(&run, &chain, ctx)?;
    Ok(hit)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = SweepOptions::from_args();
    if opts.smoke {
        println!("1. Exact mixing times: skipped under --smoke.\n");
    } else {
        run_exact_mixing()?;
    }

    println!("\n2. Behavior arrives before stationarity: first (4, 0.2)-separation\n   certificate at λ = γ = 4 vs system size:\n");
    let sizes: Vec<usize> = if opts.smoke {
        vec![20, 30, 40, 50]
    } else {
        vec![40, 70, 100, 130]
    };
    let outcomes = run_cells(sizes, &opts, |&n, ctx| {
        hitting_cell(n, &opts, ctx).map(|hit| (n, hit))
    });
    let mut t2 = Table::new(["n", "first separation (steps)", "steps per particle"]);
    for outcome in &outcomes {
        match &outcome.result {
            Some((n, hit)) => t2.row([
                format!("{n}"),
                hit.map_or_else(|| "not hit".into(), |t| t.to_string()),
                hit.map_or_else(|| "—".into(), |t| format!("{:.0}", t as f64 / *n as f64)),
            ]),
            None => t2.row([
                outcome.cell.clone(),
                format!(
                    "FAILED: {}",
                    outcome
                        .error
                        .as_ref()
                        .map_or_else(String::new, ToString::to_string)
                ),
                "—".to_string(),
            ]),
        }
    }
    t2.print();
    if opts.adaptive {
        let converged = outcomes
            .iter()
            .filter(|o| o.events.iter().any(|e| e.kind() == "converged"))
            .count();
        println!(
            "\nadaptive: {converged}/{} cells stopped early on convergence\n\
             (diagnostics in the cells report's converged events)",
            outcomes.len()
        );
    }
    write_cell_report(&sops_bench::report_dir(&opts), "mixing", &outcomes);
    println!(
        "\nexpected shape: hitting times grow polynomially and gently in n —\n\
         the behavioral guarantee arrives \"fairly quickly\" (§5) even though\n\
         no mixing-time bound is known."
    );
    Ok(())
}

fn run_exact_mixing() -> Result<(), Box<dyn std::error::Error>> {
    println!("1. Exact mixing times t_mix(1/4) on enumerable spaces:\n");
    let mut t1 = Table::new([
        "n",
        "n1",
        "lambda",
        "gamma",
        "states",
        "t_mix(1/4)",
        "t_rel",
        "t_mix/n",
    ]);
    for &(n, n1) in &[(3usize, 0usize), (3, 1), (4, 0), (4, 2)] {
        for &(lambda, gamma) in &[(1.0, 1.0), (2.0, 2.0), (4.0, 4.0), (4.0, 1.0)] {
            let chain = SeparationChain::new(Bias::new(lambda, gamma)?);
            let exact = ExactSeparationChain::new(chain, n, n1);
            let matrix = TransitionMatrix::build(&exact);
            let pi = exact.lemma9_distribution(matrix.states());
            let t_mix = matrix.mixing_time(&pi, 0.25, 2_000_000);
            let t_rel = matrix.relaxation_time(&pi, 1e-10, 500_000);
            t1.row([
                format!("{n}"),
                format!("{n1}"),
                format!("{lambda}"),
                format!("{gamma}"),
                format!("{}", matrix.len()),
                t_mix.map_or_else(|| ">2e6".into(), |t| t.to_string()),
                t_rel.map_or_else(|| "—".into(), |t| format!("{t:.1}")),
                t_mix.map_or_else(|| "—".into(), |t| format!("{:.1}", t as f64 / n as f64)),
            ]);
        }
    }
    t1.print();
    Ok(())
}
