//! # sops — Stochastic Separation in Self-Organizing Particle Systems
//!
//! A complete Rust implementation of *"A Local Stochastic Algorithm for
//! Separation in Heterogeneous Self-Organizing Particle Systems"* by Sarah
//! Cannon, Joshua J. Daymude, Cem Gökmen, Dana Randall, and Andréa W. Richa
//! (brief announcement at PODC 2018; full version at APPROX/RANDOM 2019,
//! arXiv:1805.04599), together with every substrate the paper relies on.
//!
//! This crate is the umbrella: it re-exports the workspace members under
//! one roof and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`lattice`] | `sops-lattice` | the triangular lattice `G_Δ`: nodes, directions, edges, fast node maps, finite regions |
//! | [`chains`] | `sops-chains` | Markov-chain tooling: exact transition matrices, stationary distributions, detailed balance, the Metropolis filter |
//! | [`core`] | `sops-core` | the paper's Algorithm 1 (chain `M`), Properties 4/5, configurations with incremental observables, exhaustive enumeration, the PODC '16 compression chain |
//! | [`analysis`] | `sops-analysis` | α-compression and (β, δ)-separation certificates (via a from-scratch min-cut), phase classification, renderers |
//! | [`amoebot`] | `sops-amoebot` | the amoebot model and the fully local distributed translation of `M` |
//! | [`polymer`] | `sops-polymer` | the cluster expansion, Kotecký–Preiss condition, Theorem 11's volume/surface split, Ising high-temperature expansion |
//! | [`baselines`] | `sops-baselines` | Schelling segregation and Ising Glauber dynamics |
//! | [`runtime`] | `sops-runtime` | resource-bounded supervision for long sweeps: budgets checked at chunk boundaries, panic isolation, typed degradation |
//!
//! # Quickstart
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sops::chains::MarkovChain;
//! use sops::core::{construct, Bias, SeparationChain};
//! use sops::analysis;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // 100 particles (50 per color) on a mixed compact seed, as in Figure 2.
//! let nodes = construct::hexagonal_spiral(100);
//! let mut config = sops::core::Configuration::new(
//!     construct::bicolor_random(nodes, 50, &mut rng),
//! )?;
//!
//! let chain = SeparationChain::new(Bias::new(4.0, 4.0)?);
//! chain.run(&mut config, 1_000_000, &mut rng);
//!
//! // The system stays connected, compresses, and separates.
//! assert!(config.is_connected());
//! assert!(analysis::is_alpha_compressed(&config, 2.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness regenerating every figure of the paper (documented in
//! EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sops_amoebot as amoebot;
pub use sops_analysis as analysis;
pub use sops_baselines as baselines;
pub use sops_chains as chains;
pub use sops_core as core;
pub use sops_lattice as lattice;
pub use sops_polymer as polymer;
pub use sops_runtime as runtime;
