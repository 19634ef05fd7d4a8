//! Proof-by-test for the sharded parallel engine's contract
//! ([`sops_core::shard`]):
//!
//! 1. **One shard ≡ sequential, bit-for-bit** — `run_parallel(.., 1, ..)`
//!    must equal a hand replay of the documented node-slot draw contract
//!    fed through the sequential [`SeparationChain::propose`] kernel,
//!    including the caller's final RNG stream position.
//! 2. **Multi-shard ≡ reference replay** — for assorted shard counts and
//!    chromatic phase counts, the concurrent engine must match
//!    [`run_sharded_reference`] (the same schedule replayed
//!    single-threaded through the live kernel) in state, report, and RNG
//!    position.
//! 3. **Fixed-schedule determinism** — same (seed, schedule) twice is
//!    identical; a different seed diverges.
//! 4. **Conservation + invariants** — every proposal lands in exactly one
//!    outcome class (Σ counts = steps), and [`Configuration::audit`] stays
//!    clean at checkpoints throughout a sharded run.

use rand::rngs::StdRng;
use rand::{PreparedUniform, Rng, SeedableRng};
use sops_core::{
    construct, run_sharded_reference, Bias, Configuration, ParallelConfig, SeparationChain,
    StepOutcome,
};
use sops_lattice::{Node, DIRECTIONS};

fn hex(n: usize, n1: usize) -> Configuration {
    construct::hexagonal_bicolored(n, n1).unwrap()
}

fn positions(config: &Configuration) -> Vec<(Node, u8)> {
    (0..config.len())
        .map(|i| (config.position_of(i), config.color_of(i).index()))
        .collect()
}

fn assert_same_state(a: &Configuration, b: &Configuration) {
    assert_eq!(positions(a), positions(b), "particle placements diverged");
    assert_eq!(a.edge_count(), b.edge_count());
    assert_eq!(a.hetero_edge_count(), b.hetero_edge_count());
}

#[test]
fn one_shard_is_bit_for_bit_the_sequential_node_slot_kernel() {
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
    let steps: u64 = 12_000;
    let mut par_config = hex(48, 24);
    let mut seq_config = par_config.clone();
    let mut par_rng = StdRng::seed_from_u64(11);
    let mut seq_rng = StdRng::seed_from_u64(11);

    let report = chain.run_parallel(&mut par_config, steps, 1, &mut par_rng);
    assert_eq!(report.steps, steps);
    assert_eq!(report.shards, 1);
    assert_eq!(
        report.deferred, 0,
        "the raster margin keeps short runs far from any footprint clamp"
    );

    // Hand replay of the documented 1-shard contract: per round of n
    // proposals, draw (slot, direction) pairs via PreparedUniform from a
    // clone of the master stream and feed them through the sequential
    // kernel; slots are occupied nodes in particle-index order, a move
    // updates its slot in place, and the master stream advances two jumps
    // per round (shard stream + reconciliation stream).
    let n = seq_config.len() as u64;
    let mut accepted = 0u64;
    let mut counts = [0u64; 9];
    let mut remaining = steps;
    while remaining > 0 {
        let round = n.min(remaining);
        let mut stream = seq_rng.clone();
        seq_rng.jump();
        seq_rng.jump();
        let mut slots: Vec<Node> = (0..seq_config.len())
            .map(|i| seq_config.position_of(i))
            .collect();
        let slot_sampler = PreparedUniform::new(slots.len() as u64);
        let dir_sampler = PreparedUniform::new(6);
        for _ in 0..round {
            let slot = slot_sampler.sample(&mut stream) as usize;
            let dir = DIRECTIONS[dir_sampler.sample(&mut stream) as usize];
            let node = slots[slot];
            let particle = seq_config.index_at(node).unwrap();
            let outcome = chain.propose(&mut seq_config, particle, dir, &mut stream);
            if outcome == StepOutcome::MoveAccepted {
                slots[slot] = node.neighbor(dir);
            }
            accepted += u64::from(outcome.accepted());
            counts[outcome as usize] += 1;
        }
        remaining -= round;
    }

    assert_eq!(report.accepted, accepted);
    assert_eq!(report.outcome_counts, counts);
    assert_same_state(&par_config, &seq_config);
    assert_eq!(
        par_rng.next_u64(),
        seq_rng.next_u64(),
        "caller streams must land at the same position"
    );
}

#[test]
fn multi_shard_parallel_matches_sequential_reference_bit_for_bit() {
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
    for (shards, colors, seed) in [(2usize, 1usize, 5u64), (3, 1, 7), (2, 2, 9), (4, 2, 13)] {
        let pcfg = ParallelConfig {
            threads: shards,
            colors,
            ..ParallelConfig::default()
        };
        let mut par_config = hex(60, 30);
        let mut ref_config = par_config.clone();
        let mut par_rng = StdRng::seed_from_u64(seed);
        let mut ref_rng = StdRng::seed_from_u64(seed);

        let par = chain.run_parallel_with(&mut par_config, 6_000, &pcfg, &mut par_rng);
        let reference = run_sharded_reference(&chain, &mut ref_config, 6_000, &pcfg, &mut ref_rng);

        assert_eq!(par, reference, "reports diverged for {shards} shards");
        assert_same_state(&par_config, &ref_config);
        assert!(par_config.audit().is_consistent());
        assert_eq!(
            par_rng.next_u64(),
            ref_rng.next_u64(),
            "caller streams diverged for {shards} shards / {colors} colors"
        );
    }
}

#[test]
fn multi_shard_equivalence_holds_without_swaps_and_in_weak_bias() {
    let pcfg = ParallelConfig {
        threads: 3,
        ..ParallelConfig::default()
    };
    for chain in [
        SeparationChain::without_swaps(Bias::new(4.0, 4.0).unwrap()),
        SeparationChain::new(Bias::new(0.8, 0.6).unwrap()),
    ] {
        let mut par_config = hex(40, 20);
        let mut ref_config = par_config.clone();
        let mut par_rng = StdRng::seed_from_u64(31);
        let mut ref_rng = StdRng::seed_from_u64(31);
        let par = chain.run_parallel_with(&mut par_config, 4_000, &pcfg, &mut par_rng);
        let reference = run_sharded_reference(&chain, &mut ref_config, 4_000, &pcfg, &mut ref_rng);
        assert_eq!(par, reference);
        assert_same_state(&par_config, &ref_config);
        assert_eq!(par_rng.next_u64(), ref_rng.next_u64());
    }
}

#[test]
fn fixed_schedule_runs_are_deterministic_and_seed_sensitive() {
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
    let run = |seed: u64| {
        let mut config = hex(48, 24);
        let mut rng = StdRng::seed_from_u64(seed);
        let report = chain.run_parallel(&mut config, 8_000, 2, &mut rng);
        (positions(&config), report)
    };
    let (state_a, report_a) = run(42);
    let (state_b, report_b) = run(42);
    assert_eq!(state_a, state_b, "same seed + schedule must be identical");
    assert_eq!(report_a, report_b);

    let (state_c, report_c) = run(43);
    assert!(
        state_a != state_c || report_a != report_c,
        "different seeds should explore different trajectories"
    );
}

#[test]
fn outcome_counts_conserve_proposals_and_audits_stay_clean() {
    let chain = SeparationChain::new(Bias::new(3.0, 3.0).unwrap());
    let mut config = hex(54, 27);
    let mut rng = StdRng::seed_from_u64(77);
    let mut total = sops_core::ParallelReport::default();
    for chunk in 0..6u64 {
        let report = chain.run_parallel(&mut config, 1_500, 3, &mut rng);
        assert_eq!(report.steps, 1_500, "chunk {chunk} lost proposals");
        assert_eq!(
            report.outcome_counts.iter().sum::<u64>(),
            report.steps,
            "every proposal must land in exactly one outcome class"
        );
        let accepted: u64 = StepOutcome::ALL
            .iter()
            .zip(&report.outcome_counts)
            .filter(|(o, _)| o.accepted())
            .map(|(_, c)| c)
            .sum();
        assert_eq!(report.accepted, accepted);
        let audit = config.audit();
        assert!(
            audit.is_consistent(),
            "audit failed after chunk {chunk}: {audit:?}"
        );
        assert!(config.is_connected(), "chunk {chunk} broke connectivity");
        total.steps += report.steps;
        total.accepted += report.accepted;
        total.deferred += report.deferred;
    }
    assert_eq!(total.steps, 9_000);
    assert_eq!(config.len(), 54);
}

#[test]
fn one_shard_defers_nothing_on_an_expanding_blob() {
    // At λ < 1 the blob spreads past a new raster's 4-cell border within
    // these steps, and a proposal whose footprint leaves the raster is
    // deferred. A sharded run first widens the border to 32 cells, so one
    // shard still defers nothing here.
    let chain = SeparationChain::new(Bias::new(0.5, 1.0).unwrap());
    let mut rng = StdRng::seed_from_u64(100);
    let nodes = construct::random_blob(100, &mut rng);
    let mut config = Configuration::new(construct::bicolor_random(nodes, 50, &mut rng)).unwrap();
    let report = chain.run_parallel(&mut config, 500_000, 1, &mut rng);
    assert_eq!(report.steps, 500_000);
    assert_eq!(report.deferred, 0);
    assert!(config.audit().is_consistent());
}
