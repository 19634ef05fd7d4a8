//! Cross-layer guarantee for the telemetry wrapper: driving a
//! `SeparationChain` through `sops_core::Instrumented` must produce the
//! exact same state evolution as the bare chain — same configurations,
//! same RNG stream — while its report is the one a step-by-step recorder
//! of `step_detailed`'s outcomes would build: the same counts, windowed
//! acceptance rates and observable samples, on the same steps.

use rand::rngs::StdRng;
use rand::{Rng, RngExt as _, SeedableRng};
use sops_chains::MarkovChain;
use sops_core::{construct, Bias, Configuration, Instrumented, SeparationChain, StepOutcome};
use sops_lattice::DIRECTIONS;

const STEPS: u64 = 50_000;

/// The acceptance-rate window, and the retention of every ring.
const WINDOW: u64 = 10_000;
const RING: usize = 256;

fn seeded_config(n: usize, seed: u64) -> Configuration {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = construct::hexagonal_spiral(n);
    Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap()
}

/// One step as `SeparationChain::step_detailed` takes it: a uniform
/// particle, a uniform direction, then `propose`.
fn step_detailed(
    chain: &SeparationChain,
    config: &mut Configuration,
    rng: &mut StdRng,
) -> StepOutcome {
    let p = rng.random_range(0..config.len());
    let dir = DIRECTIONS[rng.random_range(0..6usize)];
    chain.propose(config, p, dir, rng)
}

/// An observable's name, sampling interval and value.
type Observable = (&'static str, u64, fn(&Configuration) -> f64);

/// The observables of the reference test: an interval that divides the
/// window, one that does not, and one short enough that its ring evicts.
const OBSERVABLES: [Observable; 3] = [
    ("perimeter", 5_000, |c| c.perimeter() as f64),
    ("hetero_edges", 3_001, |c| c.hetero_edge_count() as f64),
    ("edges", 7, |c| c.edge_count() as f64),
];

/// What a recorder that sees every step's outcome accumulates.
#[derive(Default)]
struct Reference {
    counts: [u64; StepOutcome::ALL.len()],
    steps: u64,
    accepted: u64,
    window_steps: u64,
    window_accepted: u64,
    window_rates: Vec<(u64, f64)>,
    samples: [Vec<(u64, f64)>; OBSERVABLES.len()],
}

impl Reference {
    /// Takes `steps` steps one by one and records each, returning how many
    /// were accepted.
    fn run(
        &mut self,
        chain: &SeparationChain,
        config: &mut Configuration,
        steps: u64,
        rng: &mut StdRng,
    ) -> u64 {
        let mut accepted = 0;
        for _ in 0..steps {
            let outcome = step_detailed(chain, config, rng);
            let a = u64::from(outcome.accepted());
            self.counts[outcome as usize] += 1;
            self.steps += 1;
            self.accepted += a;
            self.window_steps += 1;
            self.window_accepted += a;
            if self.window_steps >= WINDOW {
                let rate = self.window_accepted as f64 / self.window_steps as f64;
                self.window_rates.push((self.steps, rate));
                self.window_steps = 0;
                self.window_accepted = 0;
            }
            for ((_, every, observe), samples) in OBSERVABLES.iter().zip(&mut self.samples) {
                if self.steps % every == 0 {
                    samples.push((self.steps, observe(config)));
                }
            }
            accepted += a;
        }
        accepted
    }

    /// Asserts that `inst`'s report is this recorder's, ring retention
    /// applied; the wall-clock `steps_per_sec` aside.
    fn assert_reported_by(&self, inst: &Instrumented, at: &str) {
        let newest = |v: &[(u64, f64)]| v[v.len().saturating_sub(RING)..].to_vec();
        let report = inst.report();
        assert_eq!(report.steps, self.steps, "steps: {at}");
        assert_eq!(report.accepted, self.accepted, "accepted: {at}");
        let counts: Vec<_> = StepOutcome::ALL
            .iter()
            .map(|o| (o.label_of(), self.counts[*o as usize]))
            .collect();
        assert_eq!(report.counts, counts, "counts: {at}");
        assert_eq!(report.window, WINDOW);
        assert_eq!(
            report.window_rates,
            newest(&self.window_rates),
            "window rates: {at}"
        );
        assert_eq!(report.series.len(), OBSERVABLES.len());
        for ((series, (name, every, _)), samples) in
            report.series.iter().zip(OBSERVABLES).zip(&self.samples)
        {
            assert_eq!((series.name.as_str(), series.every), (name, every));
            assert_eq!(series.samples, newest(samples), "{name} samples: {at}");
            assert_eq!(
                series.total_samples,
                samples.len() as u64,
                "{name} total: {at}"
            );
        }
    }
}

#[test]
fn segmented_report_equals_a_per_step_reference() {
    // Successive `run` calls on one instrument, of lengths that do and do
    // not divide the window or the sampling intervals, and that end on,
    // just before and just after their edges.
    const RUNS: [u64; 12] = [
        0, 1, 6, 9_993, 10_000, 12_345, 5_000, 3_001, 25_000, 7, 19_999, 40_000,
    ];
    let bias = Bias::new(4.0, 4.0).unwrap();
    for chain in [
        SeparationChain::new(bias),
        SeparationChain::without_swaps(bias),
    ] {
        let inst = OBSERVABLES
            .iter()
            .fold(Instrumented::new(chain), |inst, &(name, every, observe)| {
                inst.with_observable(name, every, observe)
            });
        let mut config = seeded_config(40, 3);
        let mut ref_config = config.clone();
        let mut rng = StdRng::seed_from_u64(17);
        let mut ref_rng = rng.clone();
        let mut reference = Reference::default();
        for (k, steps) in RUNS.into_iter().enumerate() {
            let at = format!("swaps={}, run {k} of {steps} steps", chain.swaps_enabled());
            let accepted = inst.run(&mut config, steps, &mut rng);
            let expected = reference.run(&chain, &mut ref_config, steps, &mut ref_rng);
            assert_eq!(accepted, expected, "accepted: {at}");
            assert!(config.particles().eq(ref_config.particles()), "state: {at}");
            assert_eq!(rng.to_state_bytes(), ref_rng.to_state_bytes(), "RNG: {at}");
            reference.assert_reported_by(&inst, &at);
        }
        // The short interval's ring evicted, and the runs closed windows.
        assert!(reference.samples[2].len() > RING);
        assert!(reference.window_rates.len() > 10);
    }
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
