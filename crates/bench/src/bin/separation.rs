//! Theorems 14 and 16: separation vs integration as a function of γ at
//! fixed large λ. The paper proves separation w.h.p. for γ > 4^{5/4}
//! (with λγ > 6.83) and integration w.h.p. for γ ∈ (79/81, 81/79) —
//! including, counterintuitively, values of γ > 1. The sweep shows where
//! the transition actually falls (the paper notes its bounds are not
//! tight: simulations separate already at γ = 4).
//!
//! Runtime flags (see `sops_runtime::SweepOptions`): `--checkpoint-dir
//! DIR` snapshots each γ-cell's burn-in every `--audit-every` steps (with
//! a from-scratch invariant audit before each snapshot), `--resume`
//! continues an interrupted sweep from those snapshots (a cell that failed
//! continues from its last one), and the `--deadline-ms`/`--max-steps`
//! budget flags end the sweep as a classified degradation with partial
//! averages instead of wedging it. Per-cell outcomes are recorded in
//! `results/separation-cells.json`, and each γ-cell streams step telemetry
//! (outcome counters, acceptance windows, observable series, runtime
//! events) to `target/smoke-logs/separation-gamma-G.telemetry.jsonl`
//! unless `--no-telemetry` is passed. The streams are no committed result
//! (their wall-clock rates differ from run to run), so a plain run leaves
//! `results/` as committed.

use std::fmt;
use std::ops::ControlFlow;

use sops_analysis::{is_separated, metrics};
use sops_bench::{instrument_chain, seed_hash, seeded, Table};
use sops_chains::stats::{effective_sample_size, Summary};
use sops_chains::telemetry::series_record_json;
use sops_chains::RunManifest;
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_runtime::{
    run_cells, run_chain, write_cell_report, ChainJob, JobContext, JobError, SweepOptions,
};

const N: usize = 100;
const LAMBDA: f64 = 4.0;
const BURN_IN: u64 = 10_000_000;
const SAMPLES: usize = 100;
const SAMPLE_GAP: u64 = 100_000;

/// A cell's estimate over the samples it took: the separated frequency,
/// the mean heterogeneous fraction and its ESS-adjusted 95% half-width;
/// `None` when the cell took no sample. It lands in the cells report
/// through its `Debug` form, which for a sampled cell is the tuple's.
struct Estimate(Option<(f64, f64, f64)>);

impl fmt::Debug for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(sampled) => fmt::Debug::fmt(sampled, f),
            None => f.write_str("no samples"),
        }
    }
}

fn sweep_cell(gamma: f64, opts: &SweepOptions, ctx: &JobContext) -> Result<Estimate, JobError> {
    let mut rng = seeded("separation", gamma.to_bits());
    let nodes = construct::hexagonal_spiral(N);
    let mut config =
        Configuration::new(construct::bicolor_random(nodes, N / 2, &mut rng)).expect("valid seed");
    let chain = SeparationChain::new(Bias::new(LAMBDA, gamma).expect("valid bias"));
    let chain = instrument_chain(chain, opts.telemetry);

    // Burn-in. With a checkpoint store the run goes through the full
    // escalation ladder (audit → in-place repair → rollback) and reports
    // any recovery rungs taken back to the runtime; without one the same
    // loop writes no snapshot and has no rollback rung, but still
    // heartbeats, audits and repairs, and honors the budget.
    let cell = format!("gamma={gamma:.4}");
    let store = opts.store_for(&cell)?;
    let job = ChainJob {
        steps: BURN_IN,
        every: opts.audit_every.unwrap_or(1_000_000),
        store: store.as_ref(),
        audit_every: opts.audit_every,
    };
    let run = run_chain(
        ctx,
        &chain,
        &mut config,
        &mut rng,
        job,
        metrics::hetero_fraction,
        |_, _| ControlFlow::Continue(()),
    )?;
    let resumed_at = run.resumed_from;
    sops_bench::log_recovery(&cell, &run);

    // Telemetry counts only this process's steps; a resumed burn-in
    // anchors the stream at the snapshot step it continued from.
    let t0 = resumed_at.unwrap_or(0);
    let manifest = RunManifest {
        run: format!("separation/{cell}"),
        seed: seed_hash("separation", gamma.to_bits()),
        lambda: LAMBDA,
        gamma,
        n: N as u64,
        steps: BURN_IN + SAMPLES as u64 * SAMPLE_GAP,
    };
    let mut sink = opts.telemetry_sink(
        &sops_bench::uncommitted_dir(),
        "separation",
        &cell,
        &manifest,
        resumed_at,
    )?;
    if let Some(sink) = &mut sink {
        // Burn-in metrics before sampling starts.
        sink.record_metrics(t0, &chain.report())?;
    }

    // Sampling: one sample per SAMPLE_GAP chunk of a storeless run through
    // the same loop, so it heartbeats, audits at `--audit-every`'s cadence,
    // repairs a drifted counter in place and honors the budget. A cell
    // that degrades here still names the burn-in's durable snapshot. An
    // incomplete burn-in (budget trip or cancellation) is already marked
    // degraded on `ctx`; skip sampling and report what exists.
    let mut separated = 0usize;
    let mut hetero: Vec<f64> = Vec::with_capacity(SAMPLES);
    if run.completed && ctx.degraded().is_none() {
        let job = ChainJob {
            steps: SAMPLES as u64 * SAMPLE_GAP,
            every: SAMPLE_GAP,
            store: None,
            audit_every: opts.audit_every,
        };
        let sampling = run_chain(
            ctx,
            &chain,
            &mut config,
            &mut rng,
            job,
            metrics::hetero_fraction,
            |_, c| {
                separated += usize::from(is_separated(c, 4.0, 0.2).is_some());
                hetero.push(metrics::hetero_fraction(c));
                ControlFlow::Continue(())
            },
        )?;
        sops_bench::log_recovery(&cell, &sampling);
    }
    if let Some(sink) = &mut sink {
        let report = chain.report();
        sink.record_metrics(t0, &report)?;
        sink.record_line(&series_record_json(t0, &report))?;
        for line in ctx.event_lines() {
            sink.record_line(&line)?;
        }
    }
    // Partial averages over the samples actually taken: a degraded cell
    // still reports a value, classified degraded in the cells report, and
    // a cell that took no sample reports none. The confidence half-width
    // is ESS-adjusted: samples SAMPLE_GAP steps apart are still
    // autocorrelated, so the i.i.d. width would overstate the precision
    // (see `Summary::ci95_half_width`'s caveat).
    if hetero.is_empty() {
        return Ok(Estimate(None));
    }
    let summary = Summary::of(&hetero);
    Ok(Estimate(Some((
        separated as f64 / hetero.len() as f64,
        summary.mean,
        summary.ci95_half_width_ess(effective_sample_size(&hetero)),
    ))))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = SweepOptions::from_args();
    let gammas: Vec<f64> = vec![
        0.8,
        79.0 / 81.0,
        1.0,
        81.0 / 79.0, // the proven-integration upper edge (> 1!)
        1.5,
        2.0,
        3.0,
        4.0,
        5.657, // 4^{5/4}: the proven-separation threshold
        8.0,
    ];

    let outcomes = run_cells(gammas.clone(), &opts, |&gamma, ctx| {
        sweep_cell(gamma, &opts, ctx)
    });

    println!(
        "Theorems 14/16: separation frequency vs γ (n = {N}, λ = {LAMBDA}, \
         {SAMPLES} samples after {BURN_IN} burn-in)\n"
    );
    let mut table = Table::new([
        "gamma",
        "P[(4, 0.2)-separated]",
        "mean hetero fraction",
        "±95% (ESS-adj)",
        "regime",
    ]);
    for (gamma, outcome) in gammas.iter().zip(&outcomes) {
        let regime = if *gamma > 79.0 / 81.0 && *gamma < 81.0 / 79.0 {
            "proven integrated (Thm 16)"
        } else if *gamma > 5.6568 {
            "proven separated (Thm 14)"
        } else {
            ""
        };
        match &outcome.result {
            Some(Estimate(Some((p_sep, hf, ci)))) => table.row([
                format!("{gamma:.4}"),
                format!("{p_sep:.2}"),
                format!("{hf:.3}"),
                if ci.is_finite() {
                    format!("{ci:.3}")
                } else {
                    "—".to_string()
                },
                regime.to_string(),
            ]),
            Some(Estimate(None)) => table.row([
                format!("{gamma:.4}"),
                "—".to_string(),
                "—".to_string(),
                "—".to_string(),
                regime.to_string(),
            ]),
            None => table.row([
                format!("{gamma:.4}"),
                "FAILED".to_string(),
                "—".to_string(),
                "—".to_string(),
                outcome
                    .error
                    .as_ref()
                    .map_or_else(String::new, ToString::to_string),
            ]),
        }
    }
    table.print();
    write_cell_report(&sops_bench::out_dir(), "separation", &outcomes);
    println!(
        "\nexpected shape: frequency ≈ 0 through the integration window\n\
         (including γ = 81/79 > 1), rising to ≈ 1 well before the proven\n\
         threshold γ = 4^{{5/4}} ≈ 5.66 — the bounds are not tight (§3.2)."
    );
    Ok(())
}
