//! Step telemetry for chain `M`: the [`Instrumented`] wrapper.
//!
//! The paper analyzes chain `M` through per-step quantities — acceptance
//! probabilities, perimeter `p(σ)`, heterogeneous edges `h(σ)` — yet a bare
//! [`MarkovChain::run`] only reports the accepted count. [`Instrumented`]
//! counts every step's [`StepOutcome`] through
//! [`SeparationChain::run_counted`], the kernel's own run loop, and renders
//! the accumulation as a `sops_chains` [`TelemetryReport`].
//!
//! # Determinism contract
//!
//! Instrumentation never perturbs the simulation: [`Instrumented`] draws
//! nothing from the RNG itself and observes state only at sample
//! boundaries, so an instrumented run visits bitwise-identical states to a
//! bare run with the same seed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

use rand::Rng;
use sops_chains::telemetry::{ObservableSeries, TelemetryReport};
use sops_chains::MarkovChain;

use crate::{Configuration, SeparationChain, StepOutcome};

/// Retention for windowed acceptance rates and observable series.
const RING_CAPACITY: usize = 256;

/// Acceptance-rate window width, in steps.
const WINDOW: u64 = 10_000;

/// The newest [`RING_CAPACITY`] `(step, value)` samples of a time series
/// and how many were ever taken, so memory stays bounded over arbitrarily
/// long runs.
#[derive(Debug, Default)]
struct Ring {
    samples: VecDeque<(u64, f64)>,
    pushed: u64,
}

impl Ring {
    /// Appends a sample, evicting the oldest when full.
    fn push(&mut self, sample: (u64, f64)) {
        if self.samples.len() == RING_CAPACITY {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
        self.pushed += 1;
    }
}

/// One configured observable: a named closure sampled every `every` steps
/// into a bounded ring.
struct Observer {
    name: String,
    every: u64,
    ring: Ring,
    observe: Box<dyn Fn(&Configuration) -> f64 + Send>,
}

/// The mutable accumulation behind an [`Instrumented`] chain.
#[derive(Default)]
struct Accumulator {
    counts: [u64; StepOutcome::ALL.len()],
    steps: u64,
    accepted: u64,
    window_steps: u64,
    window_accepted: u64,
    window_rates: Ring,
    started: Option<Instant>,
    observers: Vec<Observer>,
}

impl Accumulator {
    /// Steps from here to the next window edge or observable sample step.
    fn segment(&self) -> u64 {
        self.observers
            .iter()
            .map(|o| o.every - self.steps % o.every)
            .fold(WINDOW - self.window_steps, u64::min)
    }

    /// Folds in a segment of `steps` steps, no longer than
    /// [`Accumulator::segment`], that accepted `accepted` and counted
    /// `counts`, and closes the window or samples the observables that end
    /// on its last step, which left `config`.
    fn record(
        &mut self,
        steps: u64,
        accepted: u64,
        counts: &[u64; StepOutcome::ALL.len()],
        config: &Configuration,
    ) {
        for (total, count) in self.counts.iter_mut().zip(counts) {
            *total += count;
        }
        self.steps += steps;
        self.accepted += accepted;
        self.window_steps += steps;
        self.window_accepted += accepted;
        if self.window_steps == WINDOW {
            let rate = self.window_accepted as f64 / WINDOW as f64;
            self.window_rates.push((self.steps, rate));
            self.window_steps = 0;
            self.window_accepted = 0;
        }
        for o in &mut self.observers {
            if self.steps % o.every == 0 {
                o.ring.push((self.steps, (o.observe)(config)));
            }
        }
    }
}

/// A [`SeparationChain`] that accumulates step-level telemetry.
///
/// Counts every step's [`StepOutcome`], tracks acceptance rates over
/// 10⁴-step windows and wall-clock throughput, and samples configured
/// observables into bounded rings (the newest 256 entries each). It
/// implements [`MarkovChain`], so it drops into `run_supervised` and the
/// runtime's chunk loop unchanged.
///
/// Enabled, `run` calls [`SeparationChain::run_counted`] in segments that
/// end at the next window edge or observable sample step, so every count,
/// rate and sample lands on the step a step-by-step recorder would put it
/// on. Constructed [`Instrumented::disabled`], `run` is the chain's own
/// `run` and nothing is recorded. `step` is a one-step `run`; like any
/// `run` call it indexes the particles first, so step loops belong in
/// `run`.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sops_chains::MarkovChain;
/// use sops_core::{construct, Bias, Configuration, Instrumented, SeparationChain};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut config = construct::hexagonal_bicolored(20, 10)?;
/// let chain = Instrumented::new(SeparationChain::new(Bias::new(4.0, 4.0)?))
///     .with_observable("perimeter", 1_000, |c: &Configuration| c.perimeter() as f64);
/// chain.run(&mut config, 5_000, &mut rng);
/// let report = chain.report();
/// assert_eq!(report.steps, 5_000);
/// assert_eq!(report.counts.iter().map(|(_, c)| c).sum::<u64>(), 5_000);
/// assert_eq!(
///     report.count("move_accepted") + report.count("swap_accepted"),
///     report.accepted
/// );
/// assert_eq!(report.series[0].total_samples, 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Instrumented {
    chain: SeparationChain,
    enabled: bool,
    acc: RefCell<Accumulator>,
}

impl Instrumented {
    /// Wraps `chain` with telemetry enabled.
    #[must_use]
    pub fn new(chain: SeparationChain) -> Self {
        Instrumented {
            chain,
            enabled: true,
            acc: RefCell::default(),
        }
    }

    /// Wraps `chain` with telemetry disabled: `run` is the chain's own and
    /// nothing is recorded.
    #[must_use]
    pub fn disabled(chain: SeparationChain) -> Self {
        Instrumented {
            enabled: false,
            ..Self::new(chain)
        }
    }

    /// Registers a named observable sampled every `every` steps into a
    /// bounded ring (the most recent 256 samples are retained).
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    #[must_use]
    pub fn with_observable(
        self,
        name: impl Into<String>,
        every: u64,
        observe: impl Fn(&Configuration) -> f64 + Send + 'static,
    ) -> Self {
        assert!(every > 0, "observable sampling interval must be positive");
        self.acc.borrow_mut().observers.push(Observer {
            name: name.into(),
            every,
            ring: Ring::default(),
            observe: Box::new(observe),
        });
        self
    }

    /// Snapshots the accumulated telemetry.
    #[must_use]
    pub fn report(&self) -> TelemetryReport {
        let acc = self.acc.borrow();
        TelemetryReport {
            steps: acc.steps,
            accepted: acc.accepted,
            counts: StepOutcome::ALL
                .iter()
                .map(|o| (o.label_of(), acc.counts[*o as usize]))
                .collect(),
            window: WINDOW,
            window_rates: acc.window_rates.samples.iter().copied().collect(),
            steps_per_sec: acc.started.and_then(|t| {
                let secs = t.elapsed().as_secs_f64();
                (secs > 0.0).then(|| acc.steps as f64 / secs)
            }),
            series: acc
                .observers
                .iter()
                .map(|o| ObservableSeries {
                    name: o.name.clone(),
                    every: o.every,
                    samples: o.ring.samples.iter().copied().collect(),
                    total_samples: o.ring.pushed,
                })
                .collect(),
        }
    }
}

impl MarkovChain for Instrumented {
    type State = Configuration;

    fn step<R: Rng + ?Sized>(&self, config: &mut Configuration, rng: &mut R) -> bool {
        self.run(config, 1, rng) == 1
    }

    fn run<R: Rng + ?Sized>(&self, config: &mut Configuration, steps: u64, rng: &mut R) -> u64 {
        if !self.enabled {
            return self.chain.run(config, steps, rng);
        }
        let mut acc = self.acc.borrow_mut();
        if steps > 0 {
            acc.started.get_or_insert_with(Instant::now);
        }
        let (mut done, mut accepted) = (0, 0);
        while done < steps {
            let segment = acc.segment().min(steps - done);
            let mut counts = [0; StepOutcome::ALL.len()];
            let segment_accepted = self.chain.run_counted(config, segment, rng, &mut counts);
            acc.record(segment, segment_accepted, &counts, config);
            done += segment;
            accepted += segment_accepted;
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{construct, Bias};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seeded_config(n: usize, seed: u64) -> Configuration {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = construct::hexagonal_spiral(n);
        Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap()
    }

    #[test]
    fn ring_buffer_retains_newest() {
        let mut ring = Ring::default();
        let total = RING_CAPACITY as u64 + 4;
        for k in 0..total {
            ring.push((k, k as f64));
        }
        assert_eq!(ring.pushed, total);
        assert_eq!(ring.samples.len(), RING_CAPACITY);
        assert!(ring.samples.iter().map(|s| s.0).eq(4..total));
    }

    #[test]
    fn ring_buffer_partial_fill() {
        let mut ring = Ring::default();
        ring.push((1, 1.0));
        ring.push((2, 2.0));
        assert_eq!(ring.samples, [(1, 1.0), (2, 2.0)]);
        assert_eq!(ring.pushed, 2);
    }

    #[test]
    fn disabled_wrapper_records_nothing_and_matches_bare() {
        let bias = Bias::new(4.0, 4.0).unwrap();
        for chain in [
            SeparationChain::new(bias),
            SeparationChain::without_swaps(bias),
        ] {
            let mut config_bare = seeded_config(30, 4);
            let mut config_inst = config_bare.clone();
            let mut rng_bare = StdRng::seed_from_u64(4);
            let mut rng_inst = rng_bare.clone();
            let accepted_bare = chain.run(&mut config_bare, 5_000, &mut rng_bare);
            let inst =
                Instrumented::disabled(chain).with_observable("p", 100, |c| c.perimeter() as f64);
            let accepted_inst = inst.run(&mut config_inst, 5_000, &mut rng_inst);
            assert_eq!(accepted_bare, accepted_inst);
            assert!(config_bare.particles().eq(config_inst.particles()));
            assert_eq!(rng_bare, rng_inst);
            let report = inst.report();
            assert_eq!(report.steps, 0);
            assert!(report.counts.iter().all(|&(_, c)| c == 0));
            assert!(report.window_rates.is_empty());
            assert_eq!(report.series[0].total_samples, 0);
            assert!(report.steps_per_sec.is_none());
        }
    }

    #[test]
    fn observables_sample_on_schedule() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut config = seeded_config(30, 11);
        let inst = Instrumented::new(SeparationChain::new(Bias::new(4.0, 4.0).unwrap()))
            .with_observable("perimeter", 100, |c| c.perimeter() as f64);
        inst.run(&mut config, 1_000, &mut rng);
        let report = inst.report();
        assert_eq!(report.series.len(), 1);
        let series = &report.series[0];
        assert_eq!(series.name, "perimeter");
        assert_eq!(series.samples.len(), 10);
        assert_eq!(series.total_samples, 10);
        assert!(series.samples.windows(2).all(|w| w[1].0 - w[0].0 == 100));
        assert_eq!(series.samples.last().unwrap().1, config.perimeter() as f64);
        assert!(report.steps_per_sec.unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn a_step_is_a_one_step_run() {
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        let inst = Instrumented::new(chain).with_observable("p", 3, |c| c.perimeter() as f64);
        let mut config = seeded_config(30, 5);
        let mut bare = config.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let mut bare_rng = rng.clone();
        for _ in 0..100 {
            assert_eq!(
                inst.step(&mut config, &mut rng),
                chain.step(&mut bare, &mut bare_rng)
            );
        }
        assert!(config.particles().eq(bare.particles()));
        let report = inst.report();
        assert_eq!(report.steps, 100);
        assert_eq!(report.series[0].total_samples, 33);
    }
}
