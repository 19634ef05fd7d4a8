//! Asynchronous activation schedulers.
//!
//! The amoebot model assumes a fair asynchronous adversary; the classical
//! serialization result (§2.1) makes the analysis independent of *which*
//! fair schedule is used. We provide the two standard ones so experiments
//! can confirm that independence empirically.

use rand::seq::SliceRandom;
use rand::{Rng, RngExt as _};

use crate::system::Action;
use crate::AmoebotSystem;

/// A source of particle activations.
pub trait Scheduler {
    /// The id of the next particle to activate in a system of `n` particles.
    fn next<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> usize;

    /// Drives `system` for `activations` atomic actions, returning how many
    /// changed the system state.
    fn run<R: Rng + ?Sized>(
        &mut self,
        system: &mut AmoebotSystem,
        activations: u64,
        rng: &mut R,
    ) -> u64 {
        let n = system.len();
        let mut changed = 0;
        for _ in 0..activations {
            let id = self.next(n, rng);
            if system.activate(id, rng) != Action::Idle {
                changed += 1;
            }
        }
        changed
    }
}

/// Activates a uniformly random particle each step — the memoryless
/// adversary matching chain `M`'s Step 1 exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UniformScheduler;

impl Scheduler for UniformScheduler {
    fn next<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> usize {
        rng.random_range(0..n)
    }
}

/// Activates every particle once per round in a freshly shuffled order — a
/// maximally fair adversary.
#[derive(Clone, Debug, Default)]
pub struct ShuffledRoundRobin {
    order: Vec<usize>,
    cursor: usize,
}

impl Scheduler for ShuffledRoundRobin {
    fn next<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> usize {
        if self.cursor >= self.order.len() || self.order.len() != n {
            self.order = (0..n).collect();
            self.order.shuffle(rng);
            self.cursor = 0;
        }
        let id = self.order[self.cursor];
        self.cursor += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sops_core::{construct, Bias};

    #[test]
    fn round_robin_covers_every_particle_each_round() {
        let mut sched = ShuffledRoundRobin::default();
        let mut rng = StdRng::seed_from_u64(0);
        for round in 0..5 {
            let mut seen = [false; 7];
            for _ in 0..7 {
                seen[sched.next(7, &mut rng)] = true;
            }
            assert!(seen.iter().all(|&b| b), "round {round} incomplete");
        }
    }

    #[test]
    fn uniform_scheduler_hits_all_ids() {
        let mut sched = UniformScheduler;
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[sched.next(5, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn both_schedulers_drive_separation() {
        for scheduler_kind in 0..2 {
            let config = construct::hexagonal_bicolored(24, 12).unwrap();
            let mut system = AmoebotSystem::new(&config, Bias::new(4.0, 4.0).unwrap(), true);
            let mut rng = StdRng::seed_from_u64(42);
            let before = system.serialized_configuration().hetero_edge_count();
            let changed = match scheduler_kind {
                0 => UniformScheduler.run(&mut system, 200_000, &mut rng),
                _ => ShuffledRoundRobin::default().run(&mut system, 200_000, &mut rng),
            };
            assert!(changed > 0);
            let after = system.serialized_configuration().hetero_edge_count();
            assert!(
                after < before,
                "scheduler {scheduler_kind}: {before} → {after}"
            );
        }
    }
}
