//! Figure 3: the (λ, γ) phase diagram — a 100-particle system run for
//! 50,000,000 iterations from the same initial configuration for each
//! parameter pair, then classified into the four phases of §3.2.
//!
//! Pass `--quick` to run a 5,000,000-iteration version (~10× faster, same
//! phase structure), `--smoke` for a CI-scale grid. Only a full run draws
//! the per-cell `results/fig3_*.svg` pictures, which are committed.
//!
//! The sweep runs under `sops-runtime`: every cell honors the
//! `--deadline-ms`/`--max-steps` budget and `--checkpoint-dir`/`--resume`
//! plumbing. Per-cell outcomes land in `fig3-cells.json`: under `results/`
//! for an `--adaptive --smoke` run, whose report is committed, and under
//! the git-ignored `target/smoke-logs/` for every other mode.
//! With `--adaptive` each cell runs under the convergence engine — it
//! stops once its perimeter series plateaus with enough effective
//! samples, split-R̂ agrees, and the phase classification has been stable
//! for a streak of checks — and the budget the early stops release is
//! reinvested by bisecting every adjacent pair of base-grid cells that
//! straddles a phase boundary, walking the λ/γ midpoints toward the
//! transition.

use std::fmt;
use std::ops::ControlFlow;

use sops_analysis::{alpha_ratio, classify, metrics, render, Phase, PhaseThresholds};
use sops_bench::{seed_hash, seeded, Table};
use sops_core::{construct, thresholds, Bias, Color, Configuration, SeparationChain};
use sops_lattice::Node;
use sops_runtime::{
    run_cells, run_chain, run_chain_monitored, write_cell_report, CellOutcome, ChainJob,
    ConvergenceMonitor, JobContext, JobError, StopReason, SweepOptions,
};

const LAMBDAS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 6.0];
const GAMMAS: [f64; 6] = [0.5, 1.0, 81.0 / 79.0, 2.0, 4.0, 6.0];

/// Refinement cells bisected per round (beyond this the round's extra
/// pairs are dropped, loudly).
const REFINE_CAP: usize = 12;

/// One (λ, γ) grid cell; the `Display` form is the runtime cell label.
#[derive(Clone, Copy, Debug)]
struct Cell {
    lambda: f64,
    gamma: f64,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l={},g={:.4}", self.lambda, self.gamma)
    }
}

/// What one cell produced (kept small: this lands in the cells report
/// through its `Debug` form).
#[derive(Clone, Copy, Debug)]
struct CellResult {
    lambda: f64,
    gamma: f64,
    phase: Phase,
    alpha: f64,
    hetero: f64,
    converged_at: Option<u64>,
}

fn phase_tag(phase: Phase) -> &'static str {
    match phase {
        Phase::CompressedSeparated => "CS",
        Phase::CompressedIntegrated => "CI",
        Phase::ExpandedSeparated => "ES",
        Phase::ExpandedIntegrated => "EI",
    }
}

#[allow(clippy::too_many_lines)]
fn phase_cell(
    cell: &Cell,
    iterations: u64,
    seed_particles: &[(Node, Color)],
    opts: &SweepOptions,
    ctx: &JobContext,
    svg: bool,
) -> Result<CellResult, JobError> {
    let Cell { lambda, gamma } = *cell;
    let key = seed_hash(
        "fig3-cell",
        lambda.to_bits() ^ gamma.to_bits().rotate_left(17),
    );
    let mut rng = seeded("fig3", key);
    let mut config = Configuration::new(seed_particles.to_vec()).expect("seed is valid");
    let chain =
        SeparationChain::new(Bias::new(lambda, gamma).map_err(|e| JobError::app(e.to_string()))?);

    let store = opts.store_for(&cell.to_string())?;
    // ~256 monitor samples across the budget, chunks no shorter than 2k.
    let every = (iterations / 256).max(2_000);
    let job = ChainJob {
        steps: iterations,
        every,
        store: store.as_ref(),
        audit_every: opts.audit_every,
    };

    let mut converged_at = None;
    let run = if opts.adaptive {
        // A cell may stop early only when its perimeter statistics and
        // its phase label agree it has settled. The certificate: this
        // chunk's classification matches the previous chunk's, eight
        // times in a row. On resume the restored state is certified once
        // first, so `prev_phase` starts where the snapshot left it.
        let mut monitor = ConvergenceMonitor::new(8);
        let mut prev_phase: Option<Phase> = None;
        let (run, stop) = run_chain_monitored(
            ctx,
            &chain,
            &mut config,
            &mut rng,
            job,
            &mut monitor,
            |c| c.perimeter() as f64,
            |c| {
                let phase = classify(c, PhaseThresholds::default());
                let stable = prev_phase == Some(phase);
                prev_phase = Some(phase);
                stable
            },
            |_, _| ControlFlow::Continue(()),
        )?;
        if let Some(StopReason::Converged { step, diagnostics }) = stop {
            eprintln!(
                "{cell}: converged at step {step}: {}",
                diagnostics.to_json()
            );
            converged_at = Some(step);
        }
        run
    } else {
        run_chain(
            ctx,
            &chain,
            &mut config,
            &mut rng,
            job,
            |c| c.perimeter() as f64,
            |_, _| ControlFlow::Continue(()),
        )?
    };
    sops_bench::log_recovery(&cell.to_string(), &run);

    // A cell cut short by its budget is not the picture of its phase.
    if svg && ctx.degraded().is_none() {
        sops_bench::save(
            &format!("fig3_l{lambda}_g{gamma:.3}.svg"),
            &render::svg(&config),
        );
    }
    Ok(CellResult {
        lambda,
        gamma,
        phase: classify(&config, PhaseThresholds::default()),
        alpha: alpha_ratio(&config),
        hetero: metrics::hetero_fraction(&config),
        converged_at,
    })
}

/// One boundary-straddling pair to bisect: the varying endpoint values
/// along `axis`, the fixed coordinate on the other axis, and the phases
/// observed at the endpoints.
#[derive(Clone, Copy, Debug)]
struct BoundaryPair {
    lambda_varies: bool,
    fixed: f64,
    lo: (f64, Phase),
    hi: (f64, Phase),
}

impl BoundaryPair {
    fn midpoint_cell(&self) -> Cell {
        let mid = (self.lo.0 + self.hi.0) / 2.0;
        if self.lambda_varies {
            Cell {
                lambda: mid,
                gamma: self.fixed,
            }
        } else {
            Cell {
                lambda: self.fixed,
                gamma: mid,
            }
        }
    }
}

/// Every axis-adjacent pair of base-grid cells whose phases differ.
fn boundary_pairs(results: &[CellResult]) -> Vec<BoundaryPair> {
    let at = |l: f64, g: f64| {
        results
            .iter()
            .find(|r| r.lambda == l && r.gamma == g)
            .map(|r| r.phase)
    };
    let mut pairs = Vec::new();
    for &gamma in &GAMMAS {
        for w in LAMBDAS.windows(2) {
            if let (Some(a), Some(b)) = (at(w[0], gamma), at(w[1], gamma)) {
                if a != b {
                    pairs.push(BoundaryPair {
                        lambda_varies: true,
                        fixed: gamma,
                        lo: (w[0], a),
                        hi: (w[1], b),
                    });
                }
            }
        }
    }
    for &lambda in &LAMBDAS {
        for w in GAMMAS.windows(2) {
            if let (Some(a), Some(b)) = (at(lambda, w[0]), at(lambda, w[1])) {
                if a != b {
                    pairs.push(BoundaryPair {
                        lambda_varies: false,
                        fixed: lambda,
                        lo: (w[0], a),
                        hi: (w[1], b),
                    });
                }
            }
        }
    }
    pairs
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `--quick` is this bin's own flag; the runtime parses the rest.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let opts = SweepOptions::from_arg_list(args.into_iter().filter(|a| a != "--quick"));
    let iterations: u64 = if opts.smoke {
        500_000
    } else if quick {
        5_000_000
    } else {
        50_000_000
    };

    // The same initial configuration for every cell (as the paper does:
    // "starting in the leftmost configuration of Figure 2").
    let mut rng = sops_bench::seeded("fig3-init", 0);
    let nodes = construct::random_blob(100, &mut rng);
    let seed_particles = construct::bicolor_random(nodes, 50, &mut rng);

    let cells: Vec<Cell> = LAMBDAS
        .iter()
        .flat_map(|&lambda| GAMMAS.iter().map(move |&gamma| Cell { lambda, gamma }))
        .collect();

    // The committed pictures are the full run's; a smoke or quick run
    // draws none.
    let svg = !opts.smoke && !quick;
    let outcomes = run_cells(cells, &opts, |cell, ctx| {
        phase_cell(cell, iterations, &seed_particles, &opts, ctx, svg)
    });
    let results: Vec<CellResult> = outcomes.iter().filter_map(|o| o.result).collect();

    println!("Figure 3 phase diagram (n = 100, {iterations} iterations per cell)");
    println!("rows: λ, columns: γ; cells: phase [α-ratio / hetero-fraction]\n");

    let mut table = Table::new(
        std::iter::once("λ \\ γ".to_string()).chain(GAMMAS.iter().map(|g| format!("{g:.3}"))),
    );
    for &lambda in &LAMBDAS {
        let mut row = vec![format!("{lambda}")];
        for &gamma in &GAMMAS {
            let entry = results
                .iter()
                .find(|r| r.lambda == lambda && r.gamma == gamma);
            let Some(r) = entry else {
                row.push("FAILED".to_string());
                continue;
            };
            let bias = Bias::new(lambda, gamma)?;
            let proof = if thresholds::separation_theorem_applies(bias) {
                "*"
            } else if thresholds::integration_theorem_applies(bias) {
                "†"
            } else {
                ""
            };
            row.push(format!(
                "{}{proof} {:.2}/{:.2}",
                phase_tag(r.phase),
                r.alpha,
                r.hetero
            ));
        }
        table.row(row);
    }
    table.print();
    println!("\n*: Theorems 13+14 prove separation; †: Theorems 15+16 prove integration");
    println!("expected structure: CS in the upper-right (λ, γ large), CI along γ ≈ 1");
    println!("with λ large (including γ = 81/79 > 1), expanded phases for λ ≤ 1.");

    let mut all_outcomes = outcomes;
    if opts.adaptive {
        let converged = all_outcomes
            .iter()
            .filter(|o| o.events.iter().any(|e| e.kind() == "converged"))
            .count();
        println!(
            "\nadaptive: {converged}/{} base cells stopped early on convergence;",
            all_outcomes.len()
        );

        // Reinvest the saved budget: bisect each boundary-straddling pair
        // toward the phase transition. Two rounds halve the boundary's
        // bracket width twice (once under --smoke).
        let rounds = if opts.smoke { 1 } else { 2 };
        let mut pairs = boundary_pairs(&results);
        let mut refined: Vec<CellOutcome<CellResult>> = Vec::new();
        for round in 1..=rounds {
            if pairs.len() > REFINE_CAP {
                eprintln!(
                    "refine round {round}: capping {} boundary pairs at {REFINE_CAP}",
                    pairs.len()
                );
                pairs.truncate(REFINE_CAP);
            }
            if pairs.is_empty() {
                break;
            }
            let mids: Vec<Cell> = pairs.iter().map(BoundaryPair::midpoint_cell).collect();
            println!(
                "refine round {round}: bisecting {} boundary pairs",
                mids.len()
            );
            let round_outcomes = run_cells(mids, &opts, |cell, ctx| {
                phase_cell(cell, iterations, &seed_particles, &opts, ctx, false)
            });
            // Keep, per pair, the half-bracket that still straddles the
            // boundary; a failed midpoint retires its pair.
            let mut next = Vec::new();
            for (pair, outcome) in pairs.iter().zip(&round_outcomes) {
                if let Some(mid) = outcome.result {
                    let mid_coord = if pair.lambda_varies {
                        mid.lambda
                    } else {
                        mid.gamma
                    };
                    let straddling = if mid.phase == pair.lo.1 {
                        BoundaryPair {
                            lo: (mid_coord, mid.phase),
                            ..*pair
                        }
                    } else {
                        BoundaryPair {
                            hi: (mid_coord, mid.phase),
                            ..*pair
                        }
                    };
                    next.push(straddling);
                }
            }
            refined.extend(round_outcomes);
            pairs = next;
        }

        if !refined.is_empty() {
            println!("\nrefined phase-boundary cells:");
            let mut t3 = Table::new(["λ", "γ", "phase", "α-ratio", "hetero", "converged at"]);
            for o in &refined {
                if let Some(r) = o.result {
                    t3.row([
                        format!("{:.4}", r.lambda),
                        format!("{:.4}", r.gamma),
                        phase_tag(r.phase).to_string(),
                        format!("{:.2}", r.alpha),
                        format!("{:.2}", r.hetero),
                        r.converged_at
                            .map_or_else(|| "full budget".into(), |s| s.to_string()),
                    ]);
                }
            }
            t3.print();
        }
        all_outcomes.extend(refined);
    }

    write_cell_report(&sops_bench::report_dir(&opts), "fig3", &all_outcomes);
    Ok(())
}
