//! The simulable-chain trait.

use rand::Rng;

/// A discrete-time Markov chain that can be simulated in place.
///
/// Implementors mutate a state by one transition per [`MarkovChain::step`]
/// call. The chain object itself holds only parameters (it is the transition
/// *kernel*); the state travels separately so callers control allocation and
/// can snapshot cheaply.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, RngExt as _, SeedableRng};
/// use sops_chains::MarkovChain;
///
/// /// Lazy random walk on ℤ mod 10.
/// struct Walk;
/// impl MarkovChain for Walk {
///     type State = u8;
///     fn step<R: rand::Rng + ?Sized>(&self, s: &mut u8, rng: &mut R) -> bool {
///         match rng.random_range(0..3u8) {
///             0 => { *s = (*s + 1) % 10; true }
///             1 => { *s = (*s + 9) % 10; true }
///             _ => false,
///         }
///     }
/// }
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut s = 0u8;
/// Walk.run(&mut s, 1000, &mut rng);
/// assert!(s < 10);
/// ```
pub trait MarkovChain {
    /// The chain's state type.
    type State;

    /// Performs one transition of the chain on `state`.
    ///
    /// Returns `true` when the state actually changed (the proposal was
    /// accepted), `false` on a hold step. Callers that only care about the
    /// long-run distribution may ignore the return value; the experiment
    /// harness uses it to report acceptance rates.
    fn step<R: Rng + ?Sized>(&self, state: &mut Self::State, rng: &mut R) -> bool;

    /// Runs `steps` transitions, returning how many were accepted.
    fn run<R: Rng + ?Sized>(&self, state: &mut Self::State, steps: u64, rng: &mut R) -> u64 {
        let mut accepted = 0;
        for _ in 0..steps {
            if self.step(state, rng) {
                accepted += 1;
            }
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    struct Cycle(u32);

    impl MarkovChain for Cycle {
        type State = u32;
        fn step<R: Rng + ?Sized>(&self, s: &mut u32, rng: &mut R) -> bool {
            if rng.random_range(0..2) == 0 {
                *s = (*s + 1) % self.0;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn run_counts_accepted_steps() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = 0;
        let acc = Cycle(5).run(&mut s, 10_000, &mut rng);
        // Lazy step accepts with probability 1/2.
        assert!((4_000..6_000).contains(&acc), "accepted {acc}");
    }
}
