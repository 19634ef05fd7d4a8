//! Triangular lattice geometry for self-organizing particle systems.
//!
//! This crate implements the infinite triangular lattice `G_Δ` on which the
//! amoebot model of Cannon, Daymude, Gökmen, Randall, and Richa ("A Local
//! Stochastic Algorithm for Separation in Heterogeneous Self-Organizing
//! Particle Systems") places its particles. It provides:
//!
//! * [`Node`] — a lattice vertex in axial coordinates, with the six-neighbor
//!   structure of `G_Δ`, hex distance, and 60° rotations;
//! * [`Direction`] — the six lattice directions with rotation arithmetic;
//! * [`Edge`] — an undirected lattice edge in canonical orientation;
//! * [`NodeMap`] / [`NodeSet`] — open-addressing hash containers keyed by
//!   nodes, fast enough for the ~10⁸ neighborhood probes a single Figure-2
//!   run of the paper performs;
//! * [`region`] — finite lattice regions (hexagons, parallelograms) used by
//!   the polymer/cluster-expansion machinery;
//! * [`ring`] — compile-time offset tables for the 8-node combined
//!   neighborhood of an adjacent node pair, the geometry underlying the
//!   chain's fused proposal kernel.
//!
//! # Coordinates
//!
//! We use axial coordinates `(x, y)`: the six neighbors of a node are
//! obtained by adding the unit vectors of the six [`Direction`]s,
//! `E = (1, 0)`, `NE = (0, 1)`, `NW = (−1, 1)`, `W = (−1, 0)`,
//! `SW = (0, −1)`, `SE = (1, −1)`. Rotating a vector by 60° counterclockwise
//! is the linear map `(x, y) ↦ (−y, x + y)`, so the lattice's full symmetry
//! group is available for canonicalization.
//!
//! # Example
//!
//! ```
//! use sops_lattice::{Node, Direction, NodeSet};
//!
//! let origin = Node::new(0, 0);
//! let ring: NodeSet = origin.neighbors().into_iter().collect();
//! assert_eq!(ring.len(), 6);
//! assert!(ring.contains(origin.neighbor(Direction::E)));
//! // Every neighbor is at hex distance 1.
//! assert!(origin.neighbors().iter().all(|n| origin.distance(*n) == 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod direction;
mod edge;
mod map;
mod node;
pub mod region;
pub mod ring;
pub mod symmetry;

pub use direction::Direction;
pub use edge::Edge;
pub use map::{NodeMap, NodeSet};
pub use node::Node;
pub use ring::{ring_offsets, FOOTPRINT_REACH, RING_FROM_SIDE, RING_TO_SIDE};

/// All six lattice directions in counterclockwise order starting from `E`.
///
/// The ordering is load-bearing: `DIRECTIONS[i].rotated_by(1) == DIRECTIONS[(i + 1) % 6]`.
pub const DIRECTIONS: [Direction; 6] = [
    Direction::E,
    Direction::NE,
    Direction::NW,
    Direction::W,
    Direction::SW,
    Direction::SE,
];
