//! The shared lattice and the local separation rule.

use rand::{Rng, RngExt as _};
use sops_chains::metropolis::PowerRatio;
use sops_core::{properties, Bias, Color, Configuration};
use sops_lattice::{Direction, Node, NodeMap, DIRECTIONS};

use crate::Amoebot;

/// The outcome of one atomic action, for instrumentation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// No state change (invalid proposal, lock, or filter rejection).
    Idle,
    /// The particle expanded toward a new node (move initiated).
    Expanded,
    /// The particle contracted into its expansion target (move completed).
    ContractedForward,
    /// The particle contracted back to its origin (move aborted).
    ContractedBack,
    /// The particle swapped positions with a differently colored neighbor.
    Swapped,
}

/// A system of amoebot particles executing the local separation algorithm.
///
/// See the crate-level documentation for the rule and its serialization
/// guarantees.
#[derive(Clone, Debug)]
pub struct AmoebotSystem {
    particles: Vec<Amoebot>,
    /// Node → particle id, with two entries per expanded particle.
    occupancy: NodeMap<u32>,
    bias: Bias,
    swaps: bool,
}

impl AmoebotSystem {
    /// Builds a system from a (fully contracted) configuration.
    ///
    /// `swaps` enables the swap moves of §2.3 (implemented as the footnote-2
    /// variant: neighbors exchange positions atomically, which on anonymous
    /// particles is indistinguishable from exchanging color attributes).
    #[must_use]
    pub fn new(config: &Configuration, bias: Bias, swaps: bool) -> Self {
        let particles: Vec<Amoebot> = config
            .particles()
            .map(|(node, color)| Amoebot::contracted(node, color))
            .collect();
        Self::from_particles(particles, bias, swaps)
    }

    /// Like [`AmoebotSystem::new`], but assigns each particle an arbitrary
    /// private orientation and chirality — demonstrating the §2.1 claim
    /// that the algorithm needs no shared compass (port choices are
    /// uniform, so the dynamics are invariant; see `view::tests`).
    #[cfg(test)]
    pub(crate) fn with_random_orientations<R: Rng + ?Sized>(
        config: &Configuration,
        bias: Bias,
        swaps: bool,
        rng: &mut R,
    ) -> Self {
        let particles: Vec<Amoebot> = config
            .particles()
            .map(|(node, color)| {
                Amoebot::contracted_with_frame(
                    node,
                    color,
                    DIRECTIONS[rng.random_range(0..6usize)],
                    rng.random::<bool>(),
                )
            })
            .collect();
        Self::from_particles(particles, bias, swaps)
    }

    fn from_particles(particles: Vec<Amoebot>, bias: Bias, swaps: bool) -> Self {
        let mut occupancy = NodeMap::with_capacity(particles.len() * 2);
        for (i, p) in particles.iter().enumerate() {
            occupancy.insert(p.tail(), i as u32);
        }
        AmoebotSystem {
            particles,
            occupancy,
            bias,
            swaps,
        }
    }

    /// Number of particles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// Whether the system has no particles (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// The particle with the given id.
    #[must_use]
    pub fn particle(&self, id: usize) -> &Amoebot {
        &self.particles[id]
    }

    /// The id of the particle occupying `node` (head or tail), if any.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn id_at(&self, node: Node) -> Option<usize> {
        self.occupancy.get(node).map(|&id| id as usize)
    }

    /// The serialized configuration: every particle at its **tail**.
    ///
    /// Pending (expanded) moves have not committed in the serialization
    /// order, so mapping particles to their origins yields the configuration
    /// the equivalent sequential execution of `M` has reached.
    #[must_use]
    pub fn serialized_configuration(&self) -> Configuration {
        Configuration::new(self.particles.iter().map(|p| (p.tail(), p.color())))
            .expect("tails are distinct")
    }

    /// Performs one atomic action for a uniformly random particle.
    pub fn activate_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Action {
        let id = rng.random_range(0..self.particles.len());
        self.activate(id, rng)
    }

    /// Performs one atomic action for particle `id`: bounded local
    /// computation plus at most one expansion or contraction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn activate<R: Rng + ?Sized>(&mut self, id: usize, rng: &mut R) -> Action {
        if self.particles[id].is_expanded() {
            self.complete_move(id, rng)
        } else {
            self.initiate(id, rng)
        }
    }

    /// Contracted-particle action: pick a uniformly random **local port**
    /// (equivalently, a uniform direction — no compass needed); expand or
    /// swap.
    fn initiate<R: Rng + ?Sized>(&mut self, id: usize, rng: &mut R) -> Action {
        let tail = self.particles[id].tail();
        let port = rng.random_range(0..6usize);
        let dir = self.particles[id].port_direction(port);
        let target = tail.neighbor(dir);
        match self.occupancy.get(target).copied() {
            None => {
                if self.expanded_particle_near(tail, target, id) {
                    return Action::Idle; // neighborhood locked
                }
                self.particles[id].expand_to(target);
                self.occupancy.insert(target, id as u32);
                Action::Expanded
            }
            Some(other) => {
                let other = other as usize;
                if !self.swaps
                    || other == id
                    || self.particles[other].is_expanded()
                    || self.particles[other].color() == self.particles[id].color()
                    || self.expanded_particle_near(tail, target, id)
                {
                    return Action::Idle;
                }
                // Swap filter of Algorithm 1, Step 10.
                let ci = self.particles[id].color();
                let cj = self.particles[other].color();
                let gain_i = self.colored_neighbors(target, ci, Some(tail))
                    - self.colored_neighbors(tail, ci, None);
                let gain_j = self.colored_neighbors(tail, cj, Some(target))
                    - self.colored_neighbors(target, cj, None);
                let ratio = PowerRatio::new([self.bias.gamma()], [gain_i + gain_j]);
                if ratio.accept(rng) {
                    self.occupancy.insert(tail, other as u32);
                    self.occupancy.insert(target, id as u32);
                    self.particles[id].teleport(target);
                    self.particles[other].teleport(tail);
                    Action::Swapped
                } else {
                    Action::Idle
                }
            }
        }
    }

    /// Expanded-particle action: evaluate Algorithm 1's conditions and
    /// contract forward or back.
    fn complete_move<R: Rng + ?Sized>(&mut self, id: usize, rng: &mut R) -> Action {
        let tail = self.particles[id].tail();
        let head = self.particles[id].head();
        let dir = tail
            .direction_to(head)
            .expect("expanded particle spans adjacent nodes");

        let e = self.neighbor_count(tail, id, Some(head));
        let valid = e != 5 && self.properties_hold(tail, dir, id);
        let accept = valid && {
            let color = self.particles[id].color();
            let e_new = self.neighbor_count(head, id, Some(tail));
            let ei = self.colored_neighbors_excl_self(tail, color, id, Some(head));
            let ei_new = self.colored_neighbors_excl_self(head, color, id, Some(tail));
            PowerRatio::new(
                [self.bias.lambda(), self.bias.gamma()],
                [e_new - e, ei_new - ei],
            )
            .accept(rng)
        };

        if accept {
            self.occupancy.remove(tail);
            self.particles[id].contract_forward();
            Action::ContractedForward
        } else {
            self.occupancy.remove(head);
            self.particles[id].contract_back();
            Action::ContractedBack
        }
    }

    /// Forcibly aborts particle `id`'s pending expansion, contracting it
    /// back to its origin without evaluating the Metropolis filter.
    ///
    /// This models an externally aborted move (fault injection: a particle
    /// loses its expansion mid-handshake). Contracting back is always safe:
    /// it returns the system to the pre-expansion state, which the
    /// serialization argument already treats as "move never happened".
    /// Returns `false` (and does nothing) when the particle is contracted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn abort_expansion(&mut self, id: usize) -> bool {
        if !self.particles[id].is_expanded() {
            return false;
        }
        self.occupancy.remove(self.particles[id].head());
        self.particles[id].contract_back();
        true
    }

    /// Whether an expanded particle (other than `exclude`) occupies a node
    /// adjacent to `a` or `b`, or `a`/`b` themselves.
    fn expanded_particle_near(&self, a: Node, b: Node, exclude: usize) -> bool {
        let near = |n: Node| -> bool {
            let check = |m: Node| {
                self.occupancy.get(m).is_some_and(|&id| {
                    id as usize != exclude && self.particles[id as usize].is_expanded()
                })
            };
            check(n) || n.neighbors().into_iter().any(check)
        };
        near(a) || near(b)
    }

    /// Occupied neighbors of `node`, not counting particle `this` itself and
    /// not counting the node `exclude`.
    fn neighbor_count(&self, node: Node, this: usize, exclude: Option<Node>) -> i32 {
        let mut count = 0;
        for d in DIRECTIONS {
            let m = node.neighbor(d);
            if Some(m) == exclude {
                continue;
            }
            if let Some(&id) = self.occupancy.get(m) {
                if id as usize != this {
                    count += 1;
                }
            }
        }
        count
    }

    /// Neighbors of `node` with the given color, excluding the node
    /// `exclude`. (Counts particles, so an expanded particle adjacent twice
    /// would count twice — the neighborhood lock guarantees that never
    /// happens during a filter evaluation.)
    fn colored_neighbors(&self, node: Node, color: Color, exclude: Option<Node>) -> i32 {
        let mut count = 0;
        for d in DIRECTIONS {
            let m = node.neighbor(d);
            if Some(m) == exclude {
                continue;
            }
            if let Some(&id) = self.occupancy.get(m) {
                if self.particles[id as usize].color() == color {
                    count += 1;
                }
            }
        }
        count
    }

    fn colored_neighbors_excl_self(
        &self,
        node: Node,
        color: Color,
        this: usize,
        exclude: Option<Node>,
    ) -> i32 {
        let mut count = 0;
        for d in DIRECTIONS {
            let m = node.neighbor(d);
            if Some(m) == exclude {
                continue;
            }
            if let Some(&id) = self.occupancy.get(m) {
                if id as usize != this && self.particles[id as usize].color() == color {
                    count += 1;
                }
            }
        }
        count
    }

    /// Evaluates Property 4 or 5 on the occupancy with particle `this`
    /// lifted off the board (it occupies both `from` and the target).
    fn properties_hold(&self, from: Node, dir: Direction, this: usize) -> bool {
        let ring = properties::ring(from, dir);
        let mut occ = [false; 8];
        for (o, node) in occ.iter_mut().zip(ring) {
            *o = self
                .occupancy
                .get(node)
                .is_some_and(|&id| id as usize != this);
        }
        properties::property4(occ) || properties::property5(occ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sops_core::construct;

    fn system(n: usize, n1: usize, seed: u64) -> (AmoebotSystem, StdRng) {
        let config = construct::hexagonal_bicolored(n, n1).unwrap();
        let system = AmoebotSystem::new(&config, Bias::new(4.0, 4.0).unwrap(), true);
        (system, StdRng::seed_from_u64(seed))
    }

    #[test]
    fn occupancy_stays_consistent_under_activations() {
        let (mut sys, mut rng) = system(15, 7, 1);
        for step in 0..20_000 {
            sys.activate_random(&mut rng);
            if step % 1_000 == 0 {
                // Every particle's nodes are mapped to it, and the map has
                // exactly one entry per occupied node.
                let mut expected = 0;
                for (i, p) in sys.particles.iter().enumerate() {
                    assert_eq!(sys.occupancy.get(p.tail()), Some(&(i as u32)));
                    expected += 1;
                    if p.is_expanded() {
                        assert_eq!(sys.occupancy.get(p.head()), Some(&(i as u32)));
                        expected += 1;
                    }
                }
                assert_eq!(sys.occupancy.len(), expected, "step {step}");
            }
        }
    }

    #[test]
    fn serialized_configuration_stays_connected() {
        let (mut sys, mut rng) = system(20, 10, 2);
        for step in 0..20_000 {
            sys.activate_random(&mut rng);
            if step % 500 == 0 {
                let config = sys.serialized_configuration();
                assert!(config.is_connected(), "disconnected at step {step}");
            }
        }
    }

    #[test]
    fn no_two_expanded_particles_are_adjacent() {
        // The neighborhood lock must keep pending moves isolated.
        let (mut sys, mut rng) = system(20, 10, 3);
        for step in 0..20_000 {
            sys.activate_random(&mut rng);
            if step % 100 != 0 {
                continue;
            }
            let expanded: Vec<&Amoebot> =
                sys.particles.iter().filter(|p| p.is_expanded()).collect();
            for (i, a) in expanded.iter().enumerate() {
                for b in &expanded[i + 1..] {
                    for u in [a.tail(), a.head()] {
                        for v in [b.tail(), b.head()] {
                            assert!(
                                !u.is_adjacent(v),
                                "adjacent expanded particles at step {step}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_contracted_recurs() {
        let (mut sys, mut rng) = system(12, 6, 4);
        let mut contracted_hits = 0;
        for _ in 0..10_000 {
            sys.activate_random(&mut rng);
            contracted_hits += u32::from((0..sys.len()).all(|id| !sys.particle(id).is_expanded()));
        }
        assert!(
            contracted_hits > 100,
            "system never settles: {contracted_hits}"
        );
    }

    #[test]
    fn separation_progresses_under_strong_bias() {
        let (mut sys, mut rng) = system(30, 15, 5);
        let before = sys.serialized_configuration().hetero_edge_count();
        for _ in 0..300_000 {
            sys.activate_random(&mut rng);
        }
        let after = sys.serialized_configuration().hetero_edge_count();
        assert!(
            after < before,
            "heterogeneous edges did not drop: {before} → {after}"
        );
    }

    #[test]
    fn swaps_flag_disables_swaps() {
        let config = construct::hexagonal_bicolored(2, 1).unwrap();
        let mut sys = AmoebotSystem::new(&config, Bias::new(4.0, 4.0).unwrap(), false);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..5_000 {
            let action = sys.activate_random(&mut rng);
            assert_ne!(action, Action::Swapped);
        }
    }

    #[test]
    fn activation_actions_are_well_formed() {
        let (mut sys, mut rng) = system(10, 5, 7);
        let mut seen_expand = false;
        let mut seen_contract = false;
        for _ in 0..5_000 {
            match sys.activate_random(&mut rng) {
                Action::Expanded => seen_expand = true,
                Action::ContractedForward | Action::ContractedBack => seen_contract = true,
                _ => {}
            }
        }
        assert!(seen_expand && seen_contract);
    }
}
