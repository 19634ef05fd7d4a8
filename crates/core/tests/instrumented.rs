//! Cross-layer guarantee for the telemetry wrapper: driving a
//! `SeparationChain` through `sops_chains::Instrumented` must produce the
//! exact same state evolution as the bare chain — same configurations,
//! same RNG stream — while its outcome counters account for every step.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sops_chains::{Instrumented, MarkovChain};
use sops_core::{construct, Bias, Configuration, SeparationChain, StepOutcome};

const STEPS: u64 = 50_000;

fn seeded_config(n: usize, seed: u64) -> Configuration {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = construct::hexagonal_spiral(n);
    Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap()
}

#[test]
fn instrumented_chain_matches_bare_chain_bit_for_bit() {
    let bias = Bias::new(4.0, 4.0).unwrap();
    let bare = SeparationChain::new(bias);
    let inst = Instrumented::new(SeparationChain::new(bias)).with_observable(
        "perimeter",
        5_000,
        |c: &Configuration| c.perimeter() as f64,
    );

    let mut config_bare = seeded_config(30, 7);
    let mut config_inst = seeded_config(30, 7);
    let mut rng_bare = StdRng::seed_from_u64(42);
    let mut rng_inst = StdRng::seed_from_u64(42);

    let mut accepted_bare = 0u64;
    for _ in 0..STEPS {
        accepted_bare += u64::from(bare.step(&mut config_bare, &mut rng_bare));
    }
    let accepted_inst = inst.run(&mut config_inst, STEPS, &mut rng_inst);

    // Identical state evolution and identical RNG consumption.
    assert_eq!(config_bare.canonical_form(), config_inst.canonical_form());
    assert_eq!(config_bare.edge_count(), config_inst.edge_count());
    assert_eq!(
        config_bare.hetero_edge_count(),
        config_inst.hetero_edge_count()
    );
    assert_eq!(rng_bare.next_u64(), rng_inst.next_u64());

    // The accounting agrees with the bare run and with itself.
    assert_eq!(accepted_inst, accepted_bare);
    let report = inst.report();
    assert_eq!(report.steps, STEPS);
    assert_eq!(report.accepted, accepted_bare);
    assert_eq!(
        report.acceptance_rate(),
        accepted_bare as f64 / STEPS as f64
    );
    let total: u64 = report.counts.iter().map(|&(_, c)| c).sum();
    assert_eq!(total, STEPS, "every step must be classified exactly once");

    // Accepted outcomes decompose into moves and swaps.
    let count = |o: StepOutcome| report.count(o.label_of());
    assert_eq!(
        count(StepOutcome::MoveAccepted) + count(StepOutcome::SwapAccepted),
        accepted_bare
    );
    // A hexagonal-spiral seed at λ = γ = 4 exercises both move types.
    assert!(count(StepOutcome::MoveAccepted) > 0);
    assert!(count(StepOutcome::SwapAccepted) > 0);
    assert_eq!(count(StepOutcome::InvalidStateHold), 0);

    // The observable series sampled on schedule.
    let series = &report.series;
    assert_eq!(series.len(), 1);
    assert_eq!(series[0].name, "perimeter");
    assert_eq!(series[0].total_samples, STEPS / 5_000);
    assert_eq!(
        series[0].samples.last().unwrap().0,
        STEPS,
        "last sample lands on the final sampling boundary"
    );
}

#[test]
fn disabled_instrumentation_still_matches_and_records_nothing() {
    let bias = Bias::new(6.0, 2.0).unwrap();
    let bare = SeparationChain::without_swaps(bias);
    let inst = Instrumented::disabled(SeparationChain::without_swaps(bias));

    let mut config_bare = seeded_config(20, 11);
    let mut config_inst = seeded_config(20, 11);
    let mut rng_bare = StdRng::seed_from_u64(9);
    let mut rng_inst = StdRng::seed_from_u64(9);

    let accepted_bare = bare.run(&mut config_bare, 10_000, &mut rng_bare);
    let accepted_inst = inst.run(&mut config_inst, 10_000, &mut rng_inst);

    assert_eq!(config_bare.canonical_form(), config_inst.canonical_form());
    assert_eq!(rng_bare.next_u64(), rng_inst.next_u64());
    assert_eq!(accepted_inst, accepted_bare);
    let report = inst.report();
    assert_eq!(report.steps, 0, "disabled wrapper must not accumulate");
    assert_eq!(report.counts.iter().map(|&(_, c)| c).sum::<u64>(), 0);
}
