//! `chain-long` and `chain-ckpt-dense`: sweep cells through
//! `sops-runtime`'s `run_cells` and `run_chain`, each cell checkpointing
//! into its own `CheckpointStore`.

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sops_chains::{Auditable, CheckpointStore, MarkovChain};
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_runtime::{run_cells, CellStatus, ChainJob, SweepOptions};

use crate::schedule::mix;
use crate::trace::{self, now_ns, MemVfs, Timed};
use crate::workload::{
    config_digest, fold_digests, owner, peak_rss_mb, rounds, secs, Ctx, Marks, RunData, Workload,
};

/// Cells per round. One: two cells on the two-vCPU host the benchmark
/// was sized on ran 1.8× apart from run to run, depending on whether the
/// hypervisor had put both vCPUs on one physical core, while one cell
/// keeps to a few percent.
const CELLS: usize = 1;

/// Kernel steps each round's set-up spends warming up.
const WARM_STEPS: u64 = 100_000;

/// The shape of one cell.
#[derive(Clone, Copy, Debug)]
struct Shape {
    n: usize,
    swaps: bool,
    steps: u64,
    every: u64,
}

fn shape(workload: Workload, smoke: bool) -> Shape {
    match (workload, smoke) {
        (Workload::ChainLong, false) => Shape {
            n: 1_000,
            swaps: true,
            steps: 30_000_000,
            every: 10_000_000,
        },
        (Workload::ChainLong, true) => Shape {
            n: 1_000,
            swaps: true,
            steps: 2_000_000,
            every: 500_000,
        },
        // 25,000 is the chunk `mixing`'s hitting sweep checkpoints at; 3,200
        // snapshots a round let the observable log each snapshot carries
        // grow as it does in a long run.
        (Workload::ChainCkptDense, false) => Shape {
            n: 100,
            swaps: false,
            steps: 80_000_000,
            every: 25_000,
        },
        (Workload::ChainCkptDense, true) => Shape {
            n: 100,
            swaps: false,
            steps: 500_000,
            every: 25_000,
        },
        (w, _) => unreachable!("{} is not a chain workload", w.name()),
    }
}

/// One cell's generated input.
struct CellInput {
    config: Configuration,
    seed: u64,
}

fn cell_input(ctx: &Ctx, round: u32, cell: usize, n: usize) -> CellInput {
    let parts = [ctx.seed, ctx.workload.tag(), u64::from(round), cell as u64];
    let mut rng = StdRng::seed_from_u64(mix(&parts));
    let nodes = construct::random_blob(n, &mut rng);
    let config = Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng))
        .expect("a random blob is a valid configuration");
    CellInput {
        config,
        seed: mix(&[mix(&parts), 1]),
    }
}

/// What a cell hands back for checking.
struct CellResult {
    config: Configuration,
    rng: StdRng,
    steps: u64,
    started: u64,
    chunks: Vec<u64>,
}

/// Runs a chain workload for `ctx.seconds` of measured rounds.
pub fn run(ctx: &Ctx) -> RunData {
    let s = shape(ctx.workload, ctx.smoke);
    let mut data = RunData::default();
    rounds(ctx, &mut data, |r, data| round(ctx, s, r, data));
    data.peak_rss_mb = peak_rss_mb();
    data
}

fn chain_for(s: Shape) -> Timed<SeparationChain> {
    let bias = Bias::new(4.0, 4.0).expect("λ = γ = 4 is a valid bias");
    Timed(if s.swaps {
        SeparationChain::new(bias)
    } else {
        SeparationChain::without_swaps(bias)
    })
}

/// One round: set up the cells, run them, check them. Returns the
/// measured seconds.
fn round(ctx: &Ctx, s: Shape, r: u32, data: &mut RunData) -> f64 {
    let opts = SweepOptions::default();
    let chain = chain_for(s);

    let setup = Instant::now();
    let dir = ctx.round_dir(r);
    let fs = Arc::new(MemVfs::default());
    let inputs: Vec<CellInput> = (0..CELLS).map(|c| cell_input(ctx, r, c, s.n)).collect();
    // Warm the kernel on a copy of each input, with a stream of its own,
    // so the measured phase starts with its code and tables in cache.
    for input in &inputs {
        let mut config = input.config.clone();
        let mut rng = StdRng::seed_from_u64(mix(&[input.seed, 2]));
        chain.0.run(&mut config, WARM_STEPS, &mut rng);
    }
    let stores: Vec<CheckpointStore> = (0..CELLS)
        .map(|c| {
            CheckpointStore::open_with(
                dir.join(format!("cell-{c}")),
                opts.budget.checkpoint_retention(opts.retain),
                Arc::clone(&fs) as _,
            )
            .expect("open cell checkpoint store")
        })
        .collect();
    data.setup_s.push(secs(setup));

    trace::set_enabled(ctx.trace);
    let requested = now_ns();
    let outcomes = run_cells((0..CELLS).collect(), &opts, |&c, job_ctx| {
        let _owner = trace::own(owner(r, c));
        let _cell = trace::span("runtime.cell");
        let mut state = Timed(inputs[c].config.clone());
        let mut rng = StdRng::seed_from_u64(inputs[c].seed);
        let mut chunks = Vec::with_capacity((s.steps / s.every) as usize + 1);
        let started = now_ns();
        let run = {
            let _run = trace::span("chains.run_chain");
            sops_runtime::run_chain(
                job_ctx,
                &chain,
                &mut state,
                &mut rng,
                ChainJob {
                    steps: s.steps,
                    every: s.every,
                    store: Some(&stores[c]),
                    audit_every: None,
                },
                |c: &Timed<Configuration>| c.0.perimeter() as f64,
                |_, _| {
                    chunks.push(now_ns());
                    ControlFlow::Continue(())
                },
            )?
        };
        Ok(CellResult {
            config: state.0,
            rng,
            steps: run.steps,
            started,
            chunks,
        })
    });
    let delivered = now_ns();
    trace::set_enabled(false);
    let measured = (delivered - requested) as f64 / 1e9;

    let mut steps = 0;
    let mut digests = Vec::with_capacity(CELLS);
    for (c, outcome) in outcomes.into_iter().enumerate() {
        data.attempted += 1;
        data.marks.push(Marks::Cell {
            owner: owner(r, c),
            requested,
            delivered,
        });
        let Some(cell) = outcome.result.filter(|_| outcome.status == CellStatus::Ok) else {
            data.failed += 1;
            data.fail(format!(
                "round {r} cell {c} ended {}: {:?}",
                outcome.status.as_str(),
                outcome.error
            ));
            continue;
        };
        if cell.steps != s.steps {
            data.fail(format!(
                "round {r} cell {c} ran {} of {} steps",
                cell.steps, s.steps
            ));
        }
        steps += cell.steps;
        let mut last = cell.started;
        for &t in &cell.chunks {
            data.latency_ms.push((t - last) as f64 / 1e6);
            last = t;
        }
        let violations = cell.config.audit_violations();
        if !violations.is_empty() {
            data.fail(format!("round {r} cell {c} final state: {violations:?}"));
        }
        digests.push(config_digest(&cell.config, &cell.rng));
    }
    data.steps_per_s.push(steps as f64 / measured);
    let digest = fold_digests(digests.iter().copied());
    data.digests.push(digest);
    if r == 0 && digests.len() == CELLS {
        check_reference(&chain.0, s, &inputs, &digests, data);
    }
    measured
}

/// Replays round 0 with the bare kernel in one uninterrupted `run` per
/// cell: the chunked, checkpointed, traced path must land on the same
/// state and RNG.
fn check_reference(
    chain: &SeparationChain,
    s: Shape,
    inputs: &[CellInput],
    digests: &[u64],
    data: &mut RunData,
) {
    let reference: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|input| {
                scope.spawn(move || {
                    let mut config = input.config.clone();
                    let mut rng = StdRng::seed_from_u64(input.seed);
                    chain.run(&mut config, s.steps, &mut rng);
                    config_digest(&config, &rng)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference cell panicked"))
            .collect()
    });
    for (c, (got, want)) in digests.iter().zip(&reference).enumerate() {
        if got != want {
            data.fail(format!(
                "round 0 cell {c}: digest {got:016x} differs from the bare-kernel reference {want:016x}"
            ));
        }
    }
}
