//! The Schelling model of segregation on a square grid.
//!
//! Schelling's classic model (1969/1971): agents of two types live on a
//! grid with vacant cells; an agent is *unhappy* when the fraction of
//! same-type agents among its (Moore-neighborhood) neighbors is below a
//! tolerance `τ`; unhappy agents relocate to vacant cells. Even mild
//! intolerance (`τ ≈ 1/3`) produces macroscopic segregation — the
//! phenomenon the paper's `γ` parameter transplants to self-organizing
//! particle systems.

use rand::{Rng, RngExt as _};
use sops_chains::MarkovChain;

/// Cell contents of the Schelling grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Cell {
    /// No agent.
    #[default]
    Vacant,
    /// An agent of type A.
    TypeA,
    /// An agent of type B.
    TypeB,
}

/// The Schelling grid state: an `size × size` torus of cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchellingState {
    size: usize,
    cells: Vec<Cell>,
    vacancies: Vec<usize>,
}

impl SchellingState {
    /// Builds a random initial state with the given counts of A and B
    /// agents on an `size × size` torus; remaining cells are vacant.
    ///
    /// # Panics
    ///
    /// Panics if `a + b > size²` or `size == 0`.
    pub fn random<R: Rng + ?Sized>(size: usize, a: usize, b: usize, rng: &mut R) -> Self {
        assert!(size > 0, "grid must be nonempty");
        let total = size * size;
        assert!(a + b <= total, "too many agents for the grid");
        let mut cells = vec![Cell::Vacant; total];
        for (i, cell) in cells.iter_mut().enumerate() {
            *cell = if i < a {
                Cell::TypeA
            } else if i < a + b {
                Cell::TypeB
            } else {
                Cell::Vacant
            };
        }
        // Fisher-Yates.
        for i in (1..total).rev() {
            let j = rng.random_range(0..=i);
            cells.swap(i, j);
        }
        let vacancies = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == Cell::Vacant)
            .map(|(i, _)| i)
            .collect();
        SchellingState {
            size,
            cells,
            vacancies,
        }
    }

    fn neighbors(&self, idx: usize) -> [usize; 8] {
        let s = self.size as isize;
        let (r, c) = ((idx / self.size) as isize, (idx % self.size) as isize);
        let mut out = [0usize; 8];
        let mut k = 0;
        for dr in -1..=1 {
            for dc in -1..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let rr = (r + dr).rem_euclid(s) as usize;
                let cc = (c + dc).rem_euclid(s) as usize;
                out[k] = rr * self.size + cc;
                k += 1;
            }
        }
        out
    }

    /// Fraction of same-type agents among occupied neighbor cells of the
    /// agent at `idx` (1.0 when no neighbor is occupied).
    fn same_type_fraction(&self, idx: usize) -> f64 {
        let me = self.cells[idx];
        debug_assert_ne!(me, Cell::Vacant);
        let mut occupied = 0;
        let mut same = 0;
        for n in self.neighbors(idx) {
            match self.cells[n] {
                Cell::Vacant => {}
                c => {
                    occupied += 1;
                    same += i32::from(c == me);
                }
            }
        }
        if occupied == 0 {
            1.0
        } else {
            f64::from(same) / f64::from(occupied)
        }
    }

    /// Mean same-type neighbor fraction over all agents — the standard
    /// segregation statistic (≈ 0.5 mixed, → 1.0 segregated).
    #[must_use]
    pub fn segregation_index(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for i in 0..self.cells.len() {
            if self.cells[i] != Cell::Vacant {
                total += self.same_type_fraction(i);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Number of agents currently unhappy under tolerance `tau`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn unhappy_count(&self, tau: f64) -> usize {
        (0..self.cells.len())
            .filter(|&i| self.cells[i] != Cell::Vacant && self.same_type_fraction(i) < tau)
            .count()
    }
}

/// The Schelling dynamics: each step activates a random agent; if unhappy
/// (same-type fraction < `tolerance`), it jumps to a uniformly random
/// vacant cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchellingModel {
    tolerance: f64,
}

impl SchellingModel {
    /// Creates the model with the given tolerance threshold `τ ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `τ` is outside `[0, 1]`.
    #[must_use]
    pub fn new(tolerance: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tolerance),
            "tolerance must be in [0, 1]"
        );
        SchellingModel { tolerance }
    }
}

impl MarkovChain for SchellingModel {
    type State = SchellingState;

    fn step<R: Rng + ?Sized>(&self, state: &mut SchellingState, rng: &mut R) -> bool {
        let total = state.cells.len();
        let idx = rng.random_range(0..total);
        if state.cells[idx] == Cell::Vacant || state.vacancies.is_empty() {
            return false;
        }
        if state.same_type_fraction(idx) >= self.tolerance {
            return false;
        }
        let v = rng.random_range(0..state.vacancies.len());
        let target = state.vacancies[v];
        state.cells[target] = state.cells[idx];
        state.cells[idx] = Cell::Vacant;
        state.vacancies[v] = idx;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_state_has_requested_counts() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = SchellingState::random(10, 30, 40, &mut rng);
        let a = s.cells.iter().filter(|c| **c == Cell::TypeA).count();
        let b = s.cells.iter().filter(|c| **c == Cell::TypeB).count();
        assert_eq!((a, b), (30, 40));
        assert_eq!(s.vacancies.len(), 30);
    }

    #[test]
    fn neighbors_are_eight_distinct_torus_cells() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = SchellingState::random(5, 5, 5, &mut rng);
        let nbrs = s.neighbors(0); // corner exercises wraparound
        let set: std::collections::HashSet<usize> = nbrs.into_iter().collect();
        assert_eq!(set.len(), 8);
        assert!(!set.contains(&0));
    }

    #[test]
    fn intolerant_agents_segregate() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut state = SchellingState::random(20, 150, 150, &mut rng);
        let initial = state.segregation_index();
        let model = SchellingModel::new(0.5);
        model.run(&mut state, 200_000, &mut rng);
        let after = state.segregation_index();
        assert!(
            after > initial + 0.15,
            "no segregation: {initial:.3} → {after:.3}"
        );
        // Agent counts are conserved.
        let a = state.cells.iter().filter(|c| **c == Cell::TypeA).count();
        assert_eq!(a, 150);
    }

    #[test]
    fn zero_tolerance_means_nobody_moves() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut state = SchellingState::random(10, 30, 30, &mut rng);
        let before = state.clone();
        let model = SchellingModel::new(0.0);
        let accepted = model.run(&mut state, 10_000, &mut rng);
        assert_eq!(accepted, 0);
        assert_eq!(state, before);
    }

    #[test]
    fn unhappy_count_drops_over_time() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut state = SchellingState::random(15, 80, 80, &mut rng);
        let model = SchellingModel::new(0.4);
        let before = state.unhappy_count(0.4);
        model.run(&mut state, 100_000, &mut rng);
        let after = state.unhappy_count(0.4);
        assert!(
            after < before,
            "unhappiness did not drop: {before} → {after}"
        );
    }

    #[test]
    #[should_panic(expected = "too many agents")]
    fn overfull_grid_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = SchellingState::random(3, 5, 5, &mut rng);
    }
}
