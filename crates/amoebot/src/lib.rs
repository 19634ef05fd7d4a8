//! The amoebot model of programmable matter, and the fully local
//! distributed translation `A` of the separation chain `M`.
//!
//! §2.1 of the paper describes the model: anonymous particles on the
//! triangular lattice, each **contracted** (one node) or **expanded** (two
//! adjacent nodes), with constant-size local memory readable by neighbors,
//! no global compass or identifiers, progressing by **atomic actions** under
//! the standard asynchronous model. §3 asserts the centralized chain `M`
//! "can be directly translated to a fully distributed, local, asynchronous
//! algorithm"; this crate is that translation:
//!
//! * [`Amoebot`] — one particle: tail/head nodes, immutable color, local
//!   state;
//! * [`AmoebotSystem`] — the shared lattice plus the local rule. A single
//!   activation ([`AmoebotSystem::activate_random`], or a scheduler's) is
//!   one atomic action: bounded local computation, at most one expansion
//!   or contraction;
//! * [`schedule`] — asynchronous activation schedulers (uniform random and
//!   shuffled round-robin);
//! * [`fault`] — fault injection over any scheduler: crash-stop particles,
//!   starvation windows, dropped activations, and forcibly aborted
//!   expansions, for measuring graceful degradation under unfair
//!   adversaries.
//!
//! # The local rule
//!
//! On activation, a **contracted** particle picks a uniformly random
//! direction. If the target is unoccupied and no expanded particle is
//! nearby (see below), it *expands* into it — initiating one move of `M`.
//! If the target holds a contracted neighbor of a different color, it runs
//! the swap filter of Algorithm 1 and may exchange positions. On its next
//! activation, an **expanded** particle *completes* the move: it checks the
//! validity conditions (`|N(ℓ)| ≠ 5`, Property 4 or 5) and the Metropolis
//! filter `min(1, λ^{e′−e} γ^{e′_i−e_i})`, contracting forward on success
//! and back to its origin otherwise.
//!
//! # Neighborhood locking and serialization
//!
//! Between a particle's expansion and its completing contraction, other
//! particles act concurrently. To guarantee each completed move sees the
//! same neighborhood counts the Metropolis filter was designed for, a
//! particle declines to expand (or swap) when an expanded particle occupies
//! any node adjacent to its source or target — the handshake the
//! compression paper's translation uses. Far-away activity commutes with
//! the pending move, so every execution serializes to a sequence of `M`
//! transitions with the correct probabilities (the classical atomic-action
//! serialization argument of §2.1).
//!
//! One honest caveat, quantified in this repository's EXPERIMENTS.md: the
//! *time-average* of asynchronous snapshots weights each configuration by
//! its expansion dwell time, so naive snapshot frequencies reproduce
//! Lemma 9's `π` only up to that reweighting (the *jump chain* is exact,
//! and the bias is measured to be small in practice).
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sops_amoebot::AmoebotSystem;
//! use sops_core::{construct, Bias};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let config = construct::hexagonal_bicolored(12, 6)?;
//! let mut system = AmoebotSystem::new(&config, Bias::new(4.0, 4.0)?, true);
//! for _ in 0..10_000 {
//!     system.activate_random(&mut rng);
//! }
//! let snapshot = system.serialized_configuration();
//! assert_eq!(snapshot.len(), 12);
//! assert!(snapshot.is_connected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
mod particle;
pub mod schedule;
mod system;
#[cfg(test)]
mod view;

pub use fault::{FaultPlan, FaultStats, FaultySchedule};
pub use particle::Amoebot;
pub use system::{Action, AmoebotSystem};
