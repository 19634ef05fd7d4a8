//! Observables and certificates for particle-system configurations.
//!
//! The paper's claims are about two global properties of configurations
//! drawn from the stationary distribution:
//!
//! * **α-compression** (Theorems 13, 15): `p(σ) ≤ α · p_min(n)` —
//!   see [`compression`];
//! * **(β, δ)-separation** (Definition 3, Theorems 14, 16): existence of a
//!   subset `R` of particles with boundary ≤ `β√n`, `c₁`-density ≥ `1 − δ`
//!   inside and ≤ `δ` outside — see [`separation`].
//!
//! Definition 3 is existential over subsets, so naive checking is
//! infeasible. We *certify* it: for a sweep of trade-off multipliers `m`,
//! the minimizer of `(boundary edges) + m · (misplaced particles)` is an
//! s-t minimum cut (a private module implements Dinic's algorithm from scratch);
//! each cut yields a concrete region `R` whose boundary and densities are
//! checked literally against Definition 3. A positive answer is therefore
//! always sound; the parametric sweep recovers every vertex of the lower
//! convex hull of the (boundary, misplaced) trade-off, which in practice
//! (and in all our cross-validation tests against brute force) captures the
//! witnessing regions.
//!
//! The crate also provides the phase classification used to reproduce the
//! paper's Figure 3 ([`phase`]), plain-text and SVG renderers
//! ([`render`]), and component/interface metrics ([`metrics`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compression;
mod flow;
pub mod interface;
pub mod metrics;
pub mod moments;
pub mod phase;
pub mod render;
pub mod separation;
pub mod sweep;

pub use compression::{alpha_ratio, is_alpha_compressed};
pub use phase::{classify, Phase, PhaseThresholds};
pub use separation::{is_separated, separation_profile, SeparationCertificate};
