//! Integration tests spanning crates: the polymer machinery against the
//! particle-system enumeration, and the distributed amoebot layer against
//! the centralized chain.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops::amoebot::AmoebotSystem;
use sops::chains::stats::EmpiricalDistribution;
use sops::chains::{MarkovChain, TransitionMatrix};
use sops::core::enumerate::{self, ExactSeparationChain};
use sops::core::{construct, Bias, CanonicalForm, Color, Configuration, SeparationChain};
use sops::lattice::region::Region;
use sops::polymer::ising;

/// The high-temperature expansion used for Theorem 15, cross-checked
/// against the particle-system layer: for a fixed shape, summing
/// `γ^{−h(σ)}` over all colorings via `Configuration` equals the polymer
/// crate's even-subgraph expansion on the same region.
#[test]
fn ht_expansion_matches_configuration_color_sum() {
    for gamma in [79.0f64 / 81.0, 81.0 / 79.0, 2.0] {
        for region in [Region::hexagon(1), Region::parallelogram(4, 2)] {
            let nodes = region.nodes().to_vec();
            let n = nodes.len();
            // Direct sum over colorings using the core Configuration type.
            let mut direct = 0.0;
            for mask in 0u32..(1 << n) {
                let config = Configuration::new(nodes.iter().enumerate().map(|(i, &nd)| {
                    let c = if mask & (1 << i) != 0 {
                        Color::C1
                    } else {
                        Color::C2
                    };
                    (nd, c)
                }))
                .unwrap();
                direct += gamma.powi(-(config.hetero_edge_count() as i32));
            }
            let ht = ising::color_partition_function_ht(&region, gamma);
            assert!(
                (direct - ht).abs() / direct < 1e-10,
                "γ = {gamma}: direct {direct} vs HT {ht}"
            );
        }
    }
}

/// Lemma 9 from the other side: the fixed-shape conditional distribution
/// `π_P(σ) ∝ γ^{−h(σ)}` (used in Theorems 14 and 16) is exactly the
/// restriction of the full stationary distribution to one shape.
#[test]
fn fixed_shape_conditional_distribution_is_gibbs_in_h() {
    let bias = Bias::new(2.0, 3.0).unwrap();
    let chain = SeparationChain::new(bias);
    let exact = ExactSeparationChain::new(chain, 4, 2);
    let matrix = TransitionMatrix::build(&exact);
    let pi = exact.lemma9_distribution(matrix.states());

    // Group states by shape; within each shape the conditional mass must be
    // proportional to γ^{−h}.
    type MassAndHetero = Vec<(f64, u64)>;
    let mut by_shape: std::collections::HashMap<Vec<(i32, i32)>, MassAndHetero> =
        std::collections::HashMap::new();
    for (state, &mass) in matrix.states().iter().zip(pi.iter()) {
        let config = state.to_configuration();
        let shape: Vec<(i32, i32)> = state.cells().iter().map(|&(x, y, _)| (x, y)).collect();
        by_shape
            .entry(shape)
            .or_default()
            .push((mass, config.hetero_edge_count()));
    }
    for (shape, entries) in by_shape {
        let (m0, h0) = entries[0];
        for &(m, h) in &entries[1..] {
            let expected_ratio = bias.gamma().powi(h0 as i32 - h as i32);
            assert!(
                (m / m0 - expected_ratio).abs() < 1e-10,
                "shape {shape:?}: mass ratio {} vs γ^Δh {expected_ratio}",
                m / m0
            );
        }
    }
}

/// The distributed amoebot execution realizes the same jump chain as `M`:
/// its serialized-configuration distribution over a long run is close to
/// Lemma 9's π. The tolerance is looser than for the centralized sampler
/// because asynchronous snapshots reweight states by expansion dwell time
/// (see the module docs of `sops-amoebot`); EXPERIMENTS.md records the
/// measured gap.
#[test]
fn amoebot_distribution_approximates_stationary_distribution() {
    let bias = Bias::new(2.0, 2.0).unwrap();
    let chain = SeparationChain::new(bias);
    let exact = ExactSeparationChain::new(chain, 3, 1);
    let matrix = TransitionMatrix::build(&exact);
    let pi = exact.lemma9_distribution(matrix.states());

    let seed_config = construct::hexagonal_bicolored(3, 1).unwrap();
    let mut system = AmoebotSystem::new(&seed_config, bias, true);
    let mut rng = StdRng::seed_from_u64(8);
    let mut empirical: EmpiricalDistribution<CanonicalForm> = EmpiricalDistribution::new();
    for _ in 0..50_000 {
        system.activate_random(&mut rng);
    }
    for _ in 0..120_000 {
        for _ in 0..20 {
            system.activate_random(&mut rng);
        }
        empirical.record(system.serialized_configuration().canonical_form());
    }
    let tv = empirical.total_variation_to(matrix.states().iter().zip(pi.iter().copied()));
    assert!(tv < 0.08, "TV(amoebot, π) = {tv}");
    assert_eq!(empirical.support_size(), matrix.len());
}

/// Enumeration layer against the construction layer: the exact minimum
/// perimeter over all enumerated hole-free shapes equals the closed-form
/// `min_perimeter` AND is achieved by the hexagonal spiral, for every n we
/// can enumerate.
#[test]
fn enumerated_minimum_perimeter_matches_spiral() {
    for n in 1..=8usize {
        let enumerated_min = enumerate::perimeter_counts(n)
            .keys()
            .next()
            .copied()
            .unwrap();
        let spiral = Configuration::new(
            construct::hexagonal_spiral(n)
                .into_iter()
                .map(|nd| (nd, Color::C1)),
        )
        .unwrap();
        assert_eq!(enumerated_min, construct::min_perimeter(n), "n = {n}");
        assert_eq!(spiral.perimeter(), enumerated_min, "n = {n}");
    }
}

/// Kill-and-resume smoke test across the stack: a supervised separation
/// run that is interrupted mid-flight — with its newest snapshot then
/// *corrupted* on disk, as a crash mid-write would leave it — resumes from
/// the next-newest valid snapshot and finishes bitwise-identical to an
/// uninterrupted run: same serialized state, same acceptance count, and
/// the same observable samples from the resume step on.
#[test]
fn checkpointed_run_survives_kill_and_corrupt_resume() {
    use sops::chains::{run_supervised, CheckpointStore, StateCodec as _, SupervisedOptions};
    use std::io::Write as _;
    use std::ops::ControlFlow;

    let scratch = std::env::temp_dir().join(format!("sops-cross-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let n = 24;
    let steps = 40_000;
    let every = 4_000;
    let bias = Bias::new(4.0, 4.0).unwrap();
    let chain = SeparationChain::new(bias);
    let seed_config = {
        let mut rng = StdRng::seed_from_u64(77);
        let nodes = construct::hexagonal_spiral(n);
        Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap()
    };
    let run = |steps, state: &mut Configuration, rng: &mut StdRng, store: &CheckpointStore| {
        let opts = SupervisedOptions {
            steps,
            every,
            max_rollbacks: 0,
            audit_every: None,
        };
        run_supervised(
            &chain,
            state,
            rng,
            store,
            &opts,
            sops::analysis::metrics::hetero_fraction,
            |_, _| ControlFlow::Continue(()),
        )
        .unwrap()
    };

    // Reference: uninterrupted run.
    let store_a = CheckpointStore::open(scratch.join("a"), 3).unwrap();
    let mut state_a = seed_config.clone();
    let mut rng_a = StdRng::seed_from_u64(7);
    let run_a = run(steps, &mut state_a, &mut rng_a, &store_a);

    // "Killed" run: stops at 60%, and the snapshot written last is torn.
    let store_b = CheckpointStore::open(scratch.join("b"), 3).unwrap();
    let mut state_b = seed_config.clone();
    let mut rng_b = StdRng::seed_from_u64(7);
    run(steps * 3 / 5, &mut state_b, &mut rng_b, &store_b);
    let newest = store_b.list().unwrap().pop().unwrap();
    let torn = std::fs::read(&newest).unwrap();
    let mut f = std::fs::File::create(&newest).unwrap();
    f.write_all(&torn[..torn.len() / 2]).unwrap();
    drop(f);

    // Resume with a *wrong-seed* RNG and a fresh state: both must be fully
    // restored from the newest valid snapshot, not reused.
    let mut state_c = seed_config.clone();
    let mut rng_c = StdRng::seed_from_u64(999_999);
    let run_c = run(steps, &mut state_c, &mut rng_c, &store_b);

    assert_eq!(
        run_c.rejected,
        vec![newest],
        "torn snapshot must be skipped"
    );
    let from = run_c
        .resumed_from
        .expect("resumed from the surviving snapshot");
    assert_eq!(state_c.encode_state(), state_a.encode_state());
    assert_eq!(run_c.accepted, run_a.accepted);
    // Snapshots carry no log: the resumed run samples from its resume step
    // on, bit for bit as the uninterrupted run did.
    let expected: Vec<_> = run_a.log.iter().filter(|(t, _)| *t >= from).collect();
    assert_eq!(run_c.log.len(), expected.len());
    for (x, y) in run_c.log.iter().zip(expected) {
        assert_eq!(x.0, y.0);
        assert_eq!(x.1.to_bits(), y.1.to_bits());
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// End-to-end: starting from a line (maximal perimeter), the chain at
/// compression-regime parameters reaches an α-compressed, separated state;
/// at integration parameters it compresses but does not separate.
#[test]
fn end_to_end_phases_on_moderate_system() {
    let n = 40;
    let mut rng = StdRng::seed_from_u64(5);

    // Separation regime.
    let nodes = construct::hexagonal_spiral(n);
    let mut config =
        Configuration::new(construct::bicolor_random(nodes.clone(), n / 2, &mut rng)).unwrap();
    SeparationChain::new(Bias::new(4.0, 4.0).unwrap()).run(&mut config, 2_000_000, &mut rng);
    assert!(sops::analysis::is_alpha_compressed(&config, 2.0));
    assert!(sops::analysis::is_separated(&config, 4.0, 0.2).is_some());

    // Integration regime (γ = 1): compressed but mixed.
    let mut config = Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap();
    SeparationChain::new(Bias::new(4.0, 1.0).unwrap()).run(&mut config, 2_000_000, &mut rng);
    assert!(sops::analysis::is_alpha_compressed(&config, 2.0));
    assert!(
        sops::analysis::is_separated(&config, 2.0, 0.1).is_none(),
        "γ = 1 run should not be strictly separated"
    );
}
