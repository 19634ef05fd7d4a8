//! Fault injection for the asynchronous scheduler.
//!
//! The serialization argument of §2.1 assumes a *fair* asynchronous
//! adversary: every particle is activated infinitely often and every
//! initiated move eventually completes. Real distributed executions break
//! these assumptions — particles die, activations are lost, handshakes
//! abort. This module makes those failures injectable so experiments can
//! measure how gracefully the translation degrades:
//!
//! * **Crash-stop** ([`FaultPlan::crash`]): a particle permanently stops
//!   acting at a chosen point. If it was expanded it stays expanded,
//!   locking its neighborhood forever — the harshest local failure the
//!   model admits.
//! * **Starvation** ([`FaultPlan::starve`]): a particle receives no
//!   activations until a chosen time — a temporarily unfair scheduler.
//! * **Dropped activations** ([`FaultPlan::drop_activations`]): each
//!   scheduled activation is lost with fixed probability.
//! * **Aborted expansions** ([`FaultPlan::abort_expansions`]): an expanded
//!   particle's completion is replaced, with fixed probability, by a
//!   forced contract-back.
//!
//! None of these faults can corrupt the configuration: crash-stop and
//! starvation only *remove* activations (a legal, if unfair, schedule),
//! and a forced abort is the move-rejected branch of Algorithm 1 taken
//! unconditionally. The tests below verify the invariants (connectivity,
//! occupancy consistency, clean audits) hold under every fault mode and
//! that separation still progresses — the algorithm's Markov-chain design
//! means lost work delays convergence rather than breaking it.

use rand::{Rng, RngExt as _};

use crate::schedule::Scheduler;
use crate::system::Action;
use crate::AmoebotSystem;

/// A deterministic description of which faults to inject when.
///
/// Activation times are counted per [`FaultySchedule::run`] across calls
/// (the schedule keeps a monotone clock), so a plan describes one
/// execution regardless of how the driver chunks its activations.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// `(time, particle)`: particle crash-stops at the given activation time.
    crashes: Vec<(u64, usize)>,
    /// `(particle, until)`: particle is starved before activation `until`.
    starved: Vec<(usize, u64)>,
    /// Probability an activation is silently dropped.
    drop_prob: f64,
    /// Probability an expanded particle's activation becomes a forced abort.
    abort_prob: f64,
}

impl FaultPlan {
    /// A plan injecting no faults.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Crash-stops `particle` at activation time `at`: from then on it
    /// never acts again (its scheduled activations are lost).
    #[must_use]
    pub fn crash(mut self, particle: usize, at: u64) -> Self {
        self.crashes.push((at, particle));
        self.crashes.sort_unstable();
        self
    }

    /// Starves `particle` of all activations before time `until`.
    #[must_use]
    pub fn starve(mut self, particle: usize, until: u64) -> Self {
        self.starved.push((particle, until));
        self
    }

    /// Drops each activation independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn drop_activations(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.drop_prob = p;
        self
    }

    /// Replaces an expanded particle's activation by a forced
    /// contract-back with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn abort_expansions(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.abort_prob = p;
        self
    }
}

/// Counts of injected faults, for reporting alongside experiment results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Particles crash-stopped so far.
    pub crashed: usize,
    /// Activations lost because they targeted a crashed particle.
    pub lost_to_crashes: u64,
    /// Activations lost to starvation windows.
    pub lost_to_starvation: u64,
    /// Activations dropped at random.
    pub dropped: u64,
    /// Expansions forcibly aborted.
    pub forced_aborts: u64,
}

impl FaultStats {
    /// Total activations that did not reach the particle's own rule.
    #[must_use]
    pub fn total_suppressed(&self) -> u64 {
        self.lost_to_crashes + self.lost_to_starvation + self.dropped + self.forced_aborts
    }
}

/// Wraps any fair [`Scheduler`] and applies a [`FaultPlan`] to the
/// activations it produces.
#[derive(Clone, Debug)]
pub struct FaultySchedule<S> {
    inner: S,
    plan: FaultPlan,
    clock: u64,
    next_crash: usize,
    crashed: Vec<bool>,
    stats: FaultStats,
}

impl<S: Scheduler> FaultySchedule<S> {
    /// Applies `plan` to the activations drawn from `inner`.
    #[must_use]
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultySchedule {
            inner,
            plan,
            clock: 0,
            next_crash: 0,
            crashed: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// The fault counts accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether `particle` has crash-stopped.
    #[must_use]
    pub fn is_crashed(&self, particle: usize) -> bool {
        self.crashed.get(particle).copied().unwrap_or(false)
    }

    fn advance_clock(&mut self, n: usize) {
        if self.crashed.len() < n {
            self.crashed.resize(n, false);
        }
        while let Some(&(at, id)) = self.plan.crashes.get(self.next_crash) {
            if at > self.clock {
                break;
            }
            self.next_crash += 1;
            if id < n && !self.crashed[id] {
                self.crashed[id] = true;
                self.stats.crashed += 1;
            }
        }
        self.clock += 1;
    }

    fn is_starved(&self, id: usize) -> bool {
        self.plan
            .starved
            .iter()
            .any(|&(p, until)| p == id && self.clock < until)
    }

    /// Drives `system` for `activations` scheduled activations, injecting
    /// faults, and returns how many activations changed the system state.
    ///
    /// Suppressed activations (crashed / starved / dropped) still consume
    /// a schedule slot and a scheduler draw — they model the adversary
    /// wasting that particle's turn — but forced aborts count as state
    /// changes (the particle really contracts back).
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        system: &mut AmoebotSystem,
        activations: u64,
        rng: &mut R,
    ) -> u64 {
        let n = system.len();
        let mut changed = 0;
        for _ in 0..activations {
            self.advance_clock(n);
            let id = self.inner.next(n, rng);
            if self.crashed[id] {
                self.stats.lost_to_crashes += 1;
                continue;
            }
            if self.is_starved(id) {
                self.stats.lost_to_starvation += 1;
                continue;
            }
            if self.plan.drop_prob > 0.0 && rng.random_bool(self.plan.drop_prob) {
                self.stats.dropped += 1;
                continue;
            }
            if self.plan.abort_prob > 0.0
                && system.particle(id).is_expanded()
                && rng.random_bool(self.plan.abort_prob)
            {
                if system.abort_expansion(id) {
                    self.stats.forced_aborts += 1;
                    changed += 1;
                }
                continue;
            }
            if system.activate(id, rng) != Action::Idle {
                changed += 1;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::UniformScheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sops_core::{construct, Bias};

    fn system(n: usize, n1: usize) -> AmoebotSystem {
        let config = construct::hexagonal_bicolored(n, n1).unwrap();
        AmoebotSystem::new(&config, Bias::new(4.0, 4.0).unwrap(), true)
    }

    /// Like [`system`] but with swap moves disabled. A crashed particle
    /// never *acts*, but with swaps enabled a live neighbor can still
    /// displace it through the atomic pairwise exchange (footnote 2: a
    /// swap is indistinguishable from an attribute exchange, and the live
    /// party performs it). Position-freezing is therefore only a crash
    /// guarantee in the no-swap variant.
    fn swapless_system(n: usize, n1: usize) -> AmoebotSystem {
        let config = construct::hexagonal_bicolored(n, n1).unwrap();
        AmoebotSystem::new(&config, Bias::new(4.0, 4.0).unwrap(), false)
    }

    #[test]
    fn crashed_particle_never_moves_again() {
        let mut sys = swapless_system(20, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let plan = FaultPlan::none().crash(3, 0).crash(7, 5_000);
        let mut sched = FaultySchedule::new(UniformScheduler, plan);
        // Warm up to the second crash point, then record positions.
        sched.run(&mut sys, 5_000, &mut rng);
        let frozen3 = (sys.particle(3).tail(), sys.particle(3).head());
        let frozen7 = (sys.particle(7).tail(), sys.particle(7).head());
        sched.run(&mut sys, 50_000, &mut rng);
        assert_eq!((sys.particle(3).tail(), sys.particle(3).head()), frozen3);
        assert_eq!((sys.particle(7).tail(), sys.particle(7).head()), frozen7);
        assert!(sched.is_crashed(3) && sched.is_crashed(7));
        assert_eq!(sched.stats().crashed, 2);
        assert!(sched.stats().lost_to_crashes > 0);
    }

    #[test]
    fn invariants_hold_under_every_fault_mode() {
        let mut sys = system(24, 12);
        let mut rng = StdRng::seed_from_u64(2);
        let plan = FaultPlan::none()
            .crash(0, 1_000)
            .starve(1, 30_000)
            .drop_activations(0.2)
            .abort_expansions(0.3);
        let mut sched = FaultySchedule::new(UniformScheduler, plan);
        for chunk in 0..20 {
            sched.run(&mut sys, 5_000, &mut rng);
            let config = sys.serialized_configuration();
            assert!(config.is_connected(), "disconnected after chunk {chunk}");
            let report = config.audit();
            assert!(report.is_consistent(), "chunk {chunk}: {report}");
        }
        let stats = sched.stats();
        assert!(stats.dropped > 0 && stats.forced_aborts > 0);
        assert!(stats.lost_to_starvation > 0);
        assert!(stats.total_suppressed() >= stats.dropped);
    }

    #[test]
    fn starved_particle_acts_only_after_release() {
        let mut sys = swapless_system(10, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let plan = FaultPlan::none().starve(4, 20_000);
        let mut sched = FaultySchedule::new(UniformScheduler, plan);
        let before = (sys.particle(4).tail(), sys.particle(4).head());
        sched.run(&mut sys, 20_000, &mut rng);
        assert_eq!((sys.particle(4).tail(), sys.particle(4).head()), before);
        // After the starvation window the particle resumes normal service;
        // over enough activations it moves with overwhelming probability.
        sched.run(&mut sys, 100_000, &mut rng);
        assert_ne!((sys.particle(4).tail(), sys.particle(4).head()), before);
    }

    #[test]
    fn separation_progresses_despite_faults() {
        // Graceful degradation: with a few crashed particles, random
        // drops, and forced aborts, heterogeneous edges still fall — the
        // faults cost time, not correctness.
        let mut sys = system(30, 15);
        let mut rng = StdRng::seed_from_u64(4);
        let before = sys.serialized_configuration().hetero_edge_count();
        let plan = FaultPlan::none()
            .crash(2, 10_000)
            .crash(17, 50_000)
            .drop_activations(0.1)
            .abort_expansions(0.05);
        let mut sched = FaultySchedule::new(UniformScheduler, plan);
        sched.run(&mut sys, 400_000, &mut rng);
        let after = sys.serialized_configuration().hetero_edge_count();
        assert!(
            after < before,
            "heterogeneous edges did not drop under faults: {before} → {after}"
        );
    }

    #[test]
    fn forced_abort_is_a_clean_contract_back() {
        let mut sys = system(12, 6);
        let mut rng = StdRng::seed_from_u64(5);
        // Expand somebody, then abort every expansion.
        let plan = FaultPlan::none().abort_expansions(1.0);
        let mut sched = FaultySchedule::new(UniformScheduler, plan);
        sched.run(&mut sys, 20_000, &mut rng);
        // With every completion replaced by an abort, no move ever commits:
        // the serialized configuration is the initial one.
        let config = sys.serialized_configuration();
        assert!(config.audit().is_consistent());
        assert!(sched.stats().forced_aborts > 0);
    }

    #[test]
    fn plan_validates_probabilities() {
        let result = std::panic::catch_unwind(|| FaultPlan::none().drop_activations(1.5));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| FaultPlan::none().abort_expansions(-0.1));
        assert!(result.is_err());
    }
}
