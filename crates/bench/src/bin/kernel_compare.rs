//! Head-to-head timing of the fused proposal kernel and the unfused
//! reference path, interleaved in one process.
//!
//! `BENCH_chain.json` numbers taken weeks apart compare different machine
//! conditions as much as different code. This harness removes that
//! confounder: each round times one batch of proposals through each kernel
//! back-to-back on identically evolving states, so the reported speedup is
//! a paired within-round ratio that machine drift cannot fake. Run with
//! `cargo run --release -p sops-bench --bin kernel_compare`.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sops_bench::Table;
use sops_chains::MarkovChain;
use sops_core::{construct, Bias, Configuration, SeparationChain};
use sops_lattice::DIRECTIONS;

const ROUNDS: usize = 21;
const BATCH: u64 = 200_000;

fn steady_state(n: usize, chain: &SeparationChain) -> Configuration {
    let mut rng = StdRng::seed_from_u64(99);
    let mut config = construct::hexagonal_bicolored(n, n / 2).unwrap();
    chain.run(&mut config, 2_000_000, &mut rng);
    config
}

fn main() {
    let mut table = Table::new([
        "n",
        "fused",
        "reference",
        "ref/fused",
        "(ns/step, median of paired rounds)",
    ]);
    for n in [25usize, 100, 400] {
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        let config = steady_state(n, &chain);
        // Each kernel evolves its own state from the same start with the
        // same seed; the two kernels' trajectories are provably identical.
        let mut fused_state = (config.clone(), StdRng::seed_from_u64(1));
        let mut ref_state = (config, StdRng::seed_from_u64(1));
        let mut ref_ratios = Vec::with_capacity(ROUNDS);
        let mut fused_ns = Vec::with_capacity(ROUNDS);
        let mut ref_ns = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let (config, rng) = &mut fused_state;
            let t = Instant::now();
            for _ in 0..BATCH {
                let p = rng.random_range(0..config.len());
                let d = DIRECTIONS[rng.random_range(0..6usize)];
                black_box(chain.propose(config, p, d, rng));
            }
            let fused = t.elapsed().as_nanos() as f64 / BATCH as f64;

            let (config, rng) = &mut ref_state;
            let t = Instant::now();
            for _ in 0..BATCH {
                let p = rng.random_range(0..config.len());
                let d = DIRECTIONS[rng.random_range(0..6usize)];
                black_box(chain.propose_reference(config, p, d, rng));
            }
            let reference = t.elapsed().as_nanos() as f64 / BATCH as f64;
            fused_ns.push(fused);
            ref_ns.push(reference);
            ref_ratios.push(reference / fused);
        }
        let median = |mut v: Vec<f64>| -> f64 {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        table.row([
            n.to_string(),
            format!("{:.1}", median(fused_ns)),
            format!("{:.1}", median(ref_ns)),
            format!("{:.2}x", median(ref_ratios)),
            String::new(),
        ]);
    }
    println!("{}", table.render());
}
