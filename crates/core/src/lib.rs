//! The separation/integration Markov chain `M` for heterogeneous
//! self-organizing particle systems.
//!
//! This crate implements the primary contribution of Cannon, Daymude, Gökmen,
//! Randall, and Richa, *"A Local Stochastic Algorithm for Separation in
//! Heterogeneous Self-Organizing Particle Systems"* (PODC '18 brief
//! announcement; full version at APPROX/RANDOM '19):
//!
//! * [`Configuration`] — a connected system of colored particles on the
//!   triangular lattice, with incrementally maintained edge counts,
//!   heterogeneous-edge counts `h(σ)`, and perimeter `p(σ) = 3n − e(σ) − 3`;
//! * [`properties`] — the locally checkable movement conditions (Properties 4
//!   and 5 of the paper) that preserve connectivity and never create holes;
//! * [`SeparationChain`] — Algorithm 1: the Metropolis chain with bias
//!   parameters `λ` (neighbor preference) and `γ` (same-color preference),
//!   including the optional swap moves of §2.3;
//! * [`CompressionChain`] — the PODC '16 compression chain recovered as the
//!   `γ = 1` special case;
//! * [`Instrumented`] — a [`SeparationChain`] that counts every step's
//!   [`StepOutcome`] through the kernel's own run loop
//!   ([`SeparationChain::run_counted`]), with acceptance-rate windows and
//!   observable series, reported as a `sops_chains` `TelemetryReport`;
//! * [`construct`] — initial configurations (hexagons per Lemma 2, lines,
//!   random blobs) and color assignments;
//! * [`enumerate`] — exhaustive enumeration of connected hole-free
//!   configurations up to translation, and [`enumerate::ExactSeparationChain`]
//!   which exposes `M` to `sops-chains`' exact transition-matrix tooling so
//!   Lemmas 8 and 9 can be machine-checked on small systems.
//!
//! # The chain in one paragraph
//!
//! Repeatedly: pick a particle `P` (color `c_i`, location `ℓ`) uniformly at
//! random and a random neighboring location `ℓ′`. If `ℓ′` is unoccupied and
//! the move is valid (`P` does not have exactly 5 neighbors, and Property 4
//! or 5 holds), move there with probability
//! `min(1, λ^{e′−e} · γ^{e′_i−e_i})` where `e`/`e′` count `P`'s neighbors and
//! `e_i`/`e′_i` its like-colored neighbors before/after. If `ℓ′` holds a
//! particle `Q` of a different color, swap with probability
//! `min(1, γ^{|N_i(ℓ′)∖{P}| − |N_i(ℓ)| + |N_j(ℓ)∖{Q}| − |N_j(ℓ′)|})`.
//! The unique stationary distribution is
//! `π(σ) ∝ (λγ)^{−p(σ)} · γ^{−h(σ)}` over connected hole-free configurations
//! (Lemma 9), which provably separates colors for large `λ, γ` and provably
//! integrates them for `γ` near 1.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sops_chains::MarkovChain;
//! use sops_core::{construct, Bias, SeparationChain};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // 20 particles, 10 of each color, on a hexagonal seed configuration.
//! let mut config = construct::hexagonal_bicolored(20, 10)?;
//! let chain = SeparationChain::new(Bias::new(4.0, 4.0)?);
//! chain.run(&mut config, 10_000, &mut rng);
//! assert!(config.is_connected());
//! assert_eq!(config.len(), 20);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod color;
mod config;
pub mod construct;
pub mod enumerate;
mod error;
mod flood;
mod grid;
mod instrumented;
mod outcome;
mod params;
pub mod properties;
pub mod reconfigure;
mod snapshot;

pub use chain::{CompressionChain, SeparationChain};
pub use color::Color;
pub use config::{CanonicalForm, Configuration};
pub use error::{AuditReport, AuditViolation, ConfigError, RepairOutcome};
pub use instrumented::Instrumented;
pub use outcome::StepOutcome;
pub use params::{thresholds, Bias};
