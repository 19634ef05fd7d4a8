//! Markov chain `M` for separation and integration (Algorithm 1).

use rand::{PreparedRange, Rng, RngExt as _};

use sops_chains::metropolis::{self, PowerRatio, PowerTable};
use sops_chains::MarkovChain;
use sops_lattice::{Direction, Node, DIRECTIONS, RING_FROM_SIDE};

use crate::config::RingGather;
use crate::config::SIDE_GAIN;
use crate::error::ChainStateError;
use crate::grid::{self, ColorGrid};
use crate::{properties, Bias, Color, Configuration, StepOutcome};

/// The stochastic, local, distributed separation algorithm as a centralized
/// Markov chain (Algorithm 1 of the paper).
///
/// Each step activates a uniformly random particle `P` (color `c_i`,
/// location `ℓ`) and a uniformly random neighboring location `ℓ′`:
///
/// * **Move** (`ℓ′` unoccupied): valid when `|N(ℓ)| ≠ 5` and Property 4 or 5
///   holds; accepted with probability `min(1, λ^{e′−e} · γ^{e′_i−e_i})`.
/// * **Swap** (`ℓ′` occupied by `Q` of color `c_j ≠ c_i`): accepted with
///   probability `min(1, γ^{|N_i(ℓ′)∖{P}| − |N_i(ℓ)| + |N_j(ℓ)∖{Q}| − |N_j(ℓ′)|})`.
///   Swap moves are not needed for correctness (§2.3); disable them with
///   [`SeparationChain::without_swaps`] to reproduce the paper's ablation
///   ("separation still occurs … but takes much longer").
///
/// Started from any connected configuration, the chain keeps the system
/// connected, eventually removes all holes and never reintroduces one
/// (Lemma 6), and converges to the stationary distribution
/// `π(σ) ∝ (λγ)^{−p(σ)} γ^{−h(σ)}` over connected hole-free configurations
/// (Lemma 9).
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sops_chains::MarkovChain;
/// use sops_core::{construct, Bias, SeparationChain};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut config = construct::hexagonal_bicolored(30, 15)?;
/// let initial_hetero = config.hetero_edge_count();
/// let chain = SeparationChain::new(Bias::new(4.0, 4.0)?);
/// chain.run(&mut config, 200_000, &mut rng);
/// // Strong same-color bias drives heterogeneous edges down.
/// assert!(config.hetero_edge_count() < initial_hetero);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeparationChain {
    bias: Bias,
    swaps: bool,
    tables: KernelTables,
}

/// Every Metropolis filter a proposal can reach, as an integer threshold on
/// the filter's draw. A move's exponents `(Δe, Δe_i)` and a swap's gain are
/// [`SIDE_GAIN`] values and their differences, so they lie in `[−5, 5]` and
/// `[−10, 10]`, and the tables cover exactly those ranges.
///
/// Each entry is built once from the [`PowerTable`] value `v` the filter
/// accepts against — `λ^Δe·γ^Δe_i` for a move, `γ^gain` for a swap, the
/// lookups that are bit-identical to `PowerRatio::value()`. Where the
/// [`PowerRatio`] filter accepts without drawing (every factor certainly
/// ≥ 1, or `v ≥ 1`) the entry is [`CERTAIN`]. Otherwise it is
/// `T = ⌈v·2⁵³⌉ ≤ 2⁵³`, computed exactly: scaling by a power of two is
/// exact in `f64`, and so is the ceiling. That filter draws one word `w`
/// and accepts iff `(w >> 11)·2⁻⁵³ < v`; for an integer `k`,
/// `k·2⁻⁵³ < v ⇔ k < ⌈v·2⁵³⌉`, so [`accepts`] draws exactly when it does
/// and accepts exactly when it does.
#[derive(Clone, Copy, Debug, PartialEq)]
struct KernelTables {
    /// Move thresholds, indexed by `(Δe + 5)·11 + (Δe_i + 5)`.
    moves: [u64; 121],
    /// Swap thresholds, indexed by `gain + 10`.
    swaps: [u64; 21],
}

/// The threshold of a filter that accepts without drawing.
const CERTAIN: u64 = u64::MAX;

/// The threshold of a filter that accepts with probability `min(1, v)`, or
/// [`CERTAIN`] when `certain` (see [`KernelTables`]).
fn threshold(certain: bool, v: f64) -> u64 {
    if certain || v >= 1.0 {
        CERTAIN
    } else {
        (v * (1u64 << 53) as f64).ceil() as u64
    }
}

/// The Metropolis filter with threshold `t`: accept without drawing, or
/// draw one word and accept iff its top 53 bits fall below `t`.
#[inline(always)]
fn accepts<R: Rng + ?Sized>(t: u64, rng: &mut R) -> bool {
    t == CERTAIN || (rng.next_u64() >> 11) < t
}

impl KernelTables {
    fn new(bias: Bias) -> Self {
        let (l, g) = (bias.lambda(), bias.gamma());
        let (lambda, gamma) = (PowerTable::new(l), PowerTable::new(g));
        debug_assert!(lambda.audit().is_ok() && gamma.audit().is_ok());
        let certain = metropolis::factor_certainly_ge_one;
        KernelTables {
            moves: core::array::from_fn(|k| {
                let (de, dei) = (k as i32 / 11 - 5, k as i32 % 11 - 5);
                threshold(
                    certain(l, de) && certain(g, dei),
                    lambda.pow(de) * gamma.pow(dei),
                )
            }),
            swaps: core::array::from_fn(|k| {
                let gain = k as i32 - 10;
                threshold(certain(g, gain), gamma.pow(gain))
            }),
        }
    }
}

impl SeparationChain {
    /// Creates the chain with swap moves enabled (the paper's default).
    #[must_use]
    pub fn new(bias: Bias) -> Self {
        SeparationChain {
            bias,
            swaps: true,
            tables: KernelTables::new(bias),
        }
    }

    /// Creates the chain with swap moves disabled.
    ///
    /// The chain remains correct (Lemmas 6–9 never rely on swaps) but
    /// converges much more slowly in practice, since interior particles can
    /// only change neighborhoods by traveling along the boundary.
    #[must_use]
    pub fn without_swaps(bias: Bias) -> Self {
        SeparationChain {
            bias,
            swaps: false,
            tables: KernelTables::new(bias),
        }
    }

    /// The Metropolis filter for a move with exponents `(Δe, Δe_i)`, each in
    /// `[−5, 5]`: one threshold lookup (see [`KernelTables`]), draw-for-draw
    /// and verdict-for-verdict what
    /// `PowerRatio::new([λ, γ], [Δe, Δe_i]).accept(rng)` does.
    #[inline]
    pub(crate) fn metropolis_move<R: Rng + ?Sized>(&self, de: i32, dei: i32, rng: &mut R) -> bool {
        accepts(self.tables.moves[((de + 5) * 11 + dei + 5) as usize], rng)
    }

    /// The swap counterpart of [`SeparationChain::metropolis_move`], for a
    /// gain in `[−10, 10]`: `PowerRatio::new([γ], [gain]).accept(rng)`.
    #[inline]
    pub(crate) fn metropolis_swap<R: Rng + ?Sized>(&self, gain: i32, rng: &mut R) -> bool {
        accepts(self.tables.swaps[(gain + 10) as usize], rng)
    }

    /// The bias parameters `(λ, γ)`.
    #[must_use]
    pub fn bias(&self) -> Bias {
        self.bias
    }

    /// Whether swap moves are enabled.
    #[must_use]
    pub fn swaps_enabled(&self) -> bool {
        self.swaps
    }

    /// The Metropolis acceptance ratio for moving the particle at `from`
    /// (currently contracted there) to the adjacent unoccupied `to`, given
    /// its neighbor counts are already known to permit the move.
    ///
    /// Exposed for the exact transition-matrix construction and the amoebot
    /// translation, which must agree with the sampler bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`ChainStateError::UnoccupiedSource`] when `from` holds no
    /// particle — a caller logic error (or corrupted state), surfaced as a
    /// typed error rather than a panic so experiment drivers can skip the
    /// proposal, audit the state, and degrade gracefully.
    pub(crate) fn move_ratio(
        &self,
        config: &Configuration,
        from: Node,
        to: Node,
    ) -> Result<PowerRatio<2>, ChainStateError> {
        let color = config
            .color_at(from)
            .ok_or(ChainStateError::UnoccupiedSource(from))?;
        let e = config.occupied_neighbors(from);
        let e_new = config.occupied_neighbors_excluding(to, from);
        let ei = config.colored_neighbors(from, color);
        let ei_new = config.colored_neighbors_excluding(to, color, from);
        Ok(PowerRatio::new(
            [self.bias.lambda(), self.bias.gamma()],
            [e_new - e, ei_new - ei],
        ))
    }

    /// The Metropolis acceptance ratio for swapping the particles at the
    /// adjacent nodes `a` (color `c_i`) and `b` (color `c_j`).
    ///
    /// # Errors
    ///
    /// Returns [`ChainStateError::UnoccupiedSource`] when `a` holds no
    /// particle and [`ChainStateError::UnoccupiedTarget`] when `b` holds
    /// none.
    pub(crate) fn swap_ratio(
        &self,
        config: &Configuration,
        a: Node,
        b: Node,
    ) -> Result<PowerRatio<1>, ChainStateError> {
        let ci = config
            .color_at(a)
            .ok_or(ChainStateError::UnoccupiedSource(a))?;
        let cj = config
            .color_at(b)
            .ok_or(ChainStateError::UnoccupiedTarget(b))?;
        // |N_i(ℓ′)∖{P}| − |N_i(ℓ)| + |N_j(ℓ)∖{Q}| − |N_j(ℓ′)|
        let gain_i = config.colored_neighbors_excluding(b, ci, a) - config.colored_neighbors(a, ci);
        let gain_j = config.colored_neighbors_excluding(a, cj, b) - config.colored_neighbors(b, cj);
        Ok(PowerRatio::new([self.bias.gamma()], [gain_i + gain_j]))
    }

    /// Whether the particle at `from` may move one step in direction `dir`
    /// under the chain's validity conditions: target unoccupied, `|N(ℓ)| ≠ 5`,
    /// and Property 4 or 5.
    #[must_use]
    pub fn move_valid(
        &self,
        config: &Configuration,
        from: Node,
        dir: sops_lattice::Direction,
    ) -> bool {
        let to = from.neighbor(dir);
        !config.is_occupied(to)
            && config.occupied_neighbors(from) != 5
            && properties::movement_allowed(config, from, dir)
    }

    /// Performs one transition, reporting *what happened* as a typed
    /// [`StepOutcome`] — which guard rejected a move, whether the Metropolis
    /// filter fired, or why an occupied target held.
    ///
    /// This is the real transition function; [`MarkovChain::step`] is a thin
    /// wrapper returning [`StepOutcome::accepted`]. Both consume the exact
    /// same RNG stream (particle index, direction, then lazily the filter's
    /// uniform draw).
    pub(crate) fn step_detailed<R: Rng + ?Sized>(
        &self,
        config: &mut Configuration,
        rng: &mut R,
    ) -> StepOutcome {
        // Step 1–2: uniform particle, uniform neighboring location, q ~ U(0,1)
        // (q is drawn lazily inside the Metropolis filter).
        let p = rng.random_range(0..config.len());
        let dir = DIRECTIONS[rng.random_range(0..6usize)];
        self.propose(config, p, dir, rng)
    }

    /// Evaluates (and, if accepted, executes) the specific proposal
    /// "particle `particle` attempts direction `dir`", classifying the
    /// result. `SeparationChain::step_detailed` is this with the particle
    /// and direction drawn uniformly; exposing the deterministic part lets
    /// tests pin a proposal and assert its exact rejection reason.
    ///
    /// This is the *fused* proposal kernel. The target is probed first, so
    /// the two 1-probe holds (same color, swaps disabled) — the bulk of all
    /// proposals on a compressed configuration — return immediately. Every
    /// proposal that reaches a filter then makes one pass over the 8-node
    /// combined neighborhood (a `RingGather`: eight occupancy probes, no
    /// heap allocation), which yields the `|N(ℓ)| = 5` guard (a mask
    /// compare), the Property-4/5 check (a `properties::MOVEMENT_ALLOWED`
    /// table load), and every Metropolis exponent as a `SIDE_GAIN` table
    /// load — at most 9 probes per proposal where the unfused path
    /// re-probes overlapping neighborhoods ~39 times. The Metropolis filter
    /// is one lookup of a precomputed integer threshold on the draw (see
    /// `KernelTables`), verdict-for-verdict and draw-for-draw what
    /// [`PowerRatio::accept`] decides. An accepted proposal commits with
    /// the counter deltas the gather already yielded
    /// (`Configuration::commit_move` / `Configuration::commit_swap`)
    /// rather than recounting them.
    ///
    /// A particle at least two cells inside every edge of the raster (see
    /// `crate::grid`) takes the fast path: one range check on its own
    /// node, then the nine probes as loads at the raster's precomputed flat
    /// offsets. A particle in the edge band, or a configuration without a
    /// raster, takes the same decisions over per-node probes (out of line).
    ///
    /// It is RNG-stream- and state-identical to
    /// [`SeparationChain::propose_reference`], the unfused slow path kept as
    /// the testing oracle; the equivalence is pinned bit-for-bit by the
    /// `kernel_equivalence` test suite.
    ///
    /// The RNG is consulted only for the Metropolis filter's uniform draw,
    /// and only when the acceptance probability is strictly below 1.
    ///
    /// # Panics
    ///
    /// Panics if `particle ≥ config.len()`.
    #[inline(always)]
    pub fn propose<R: Rng + ?Sized>(
        &self,
        config: &mut Configuration,
        particle: usize,
        dir: Direction,
        rng: &mut R,
    ) -> StepOutcome {
        let from = config.position_of(particle);
        let ci = config.color_of(particle);
        let interior = config
            .raster()
            .and_then(|g| g.interior_index(from).map(|i| (g, i)));
        let verdict = match interior {
            Some((g, i)) => {
                let target = g.target_code(i, dir);
                self.decide(
                    ci,
                    (target != 0).then(|| grid::decode(target)),
                    #[inline(always)]
                    || RingGather::from_codes(g.ring_codes_at(i, dir)),
                    rng,
                )
            }
            None => {
                let (target, ring) = self.probe_per_node(config, particle, dir);
                self.decide(ci, target, || ring, rng)
            }
        };
        Self::commit(config, particle, from, from.neighbor(dir), verdict)
    }

    /// What [`SeparationChain::decide`] reads for a particle in the
    /// raster's edge band or a configuration without a raster, probed node
    /// by node ([`Configuration::color_at`], [`Configuration::ring_gather`]):
    /// the target's color, and the ring unless the target alone settles a
    /// hold (then an empty ring that `decide` never reads). Out of line and
    /// without the RNG, so that a caller's RNG state never has to leave
    /// registers for it.
    #[inline(never)]
    fn probe_per_node(
        &self,
        config: &Configuration,
        particle: usize,
        dir: Direction,
    ) -> (Option<Color>, RingGather) {
        let from = config.position_of(particle);
        let target = config.color_at(from.neighbor(dir));
        let holds = target.is_some_and(|cj| cj == config.color_of(particle) || !self.swaps);
        let ring = if holds {
            RingGather::from_codes([0; 8])
        } else {
            config.ring_gather(from, dir)
        };
        (target, ring)
    }

    /// Algorithm 1's decision for particle color `ci` proposing into a
    /// target holding `target`, with the ring gathered only once a filter
    /// needs it.
    #[inline(always)]
    fn decide<R: Rng + ?Sized>(
        &self,
        ci: Color,
        target: Option<Color>,
        gather: impl FnOnce() -> RingGather,
        rng: &mut R,
    ) -> Verdict {
        // Steps 9–10, swap move: both holds return on the target probe
        // alone — no ring gather, no RNG stream consumption.
        if let Some(cj) = target {
            if cj == ci {
                return Verdict::Hold(StepOutcome::SameColorHold);
            }
            if !self.swaps {
                return Verdict::Hold(StepOutcome::TargetOccupiedHold);
            }
        }
        // Every other proposal reaches a filter through one gather.
        let ring = gather();
        let gain = |mask: u8| i32::from(SIDE_GAIN[mask as usize]);
        match target {
            None => {
                // Steps 3–8: expansion move. With the target unoccupied, the
                // source's occupied neighbors are exactly the FROM-side ring
                // positions and the vacated-source neighbor counts at the
                // target are exactly the TO-side positions, so
                // Δe = e′ − e and Δe_i = e′_i − e_i are side gains.
                let occupancy = ring.occupancy;
                if occupancy & RING_FROM_SIDE == RING_FROM_SIDE {
                    // Condition (i): |N(ℓ)| = 5.
                    return Verdict::Hold(StepOutcome::MoveRejectedFiveNeighbors);
                }
                if !properties::MOVEMENT_ALLOWED[occupancy as usize] {
                    return Verdict::Hold(StepOutcome::MoveRejectedProperty); // condition (ii)
                }
                let de = gain(occupancy);
                let dei = gain(ring.color_mask(ci));
                if !self.metropolis_move(de, dei, rng) {
                    return Verdict::Hold(StepOutcome::MoveRejectedMetropolis);
                }
                Verdict::Move {
                    d_edges: de,
                    d_hetero: de - dei,
                }
            }
            Some(cj) => {
                // |N_i(ℓ′)∖{P}| − |N_i(ℓ)| + |N_j(ℓ)∖{Q}| − |N_j(ℓ′)|; the
                // pair's own (heterogeneous) edge never enters either term.
                let swap_gain = gain(ring.color_mask(ci)) - gain(ring.color_mask(cj));
                if !self.metropolis_swap(swap_gain, rng) {
                    return Verdict::Hold(StepOutcome::SwapRejectedMetropolis);
                }
                Verdict::Swap {
                    d_hetero: -swap_gain,
                }
            }
        }
    }

    /// Executes a [`Verdict`] for `particle`, at `from`, and its target `to`.
    #[inline(always)]
    fn commit(
        config: &mut Configuration,
        particle: usize,
        from: Node,
        to: Node,
        verdict: Verdict,
    ) -> StepOutcome {
        match verdict {
            Verdict::Hold(outcome) => outcome,
            Verdict::Move { d_edges, d_hetero } => {
                match config.commit_move(particle, to, d_edges, d_hetero) {
                    Ok(()) => StepOutcome::MoveAccepted,
                    Err(_) => StepOutcome::InvalidStateHold,
                }
            }
            Verdict::Swap { d_hetero } => match config.commit_swap(from, to, d_hetero) {
                Ok(()) => StepOutcome::SwapAccepted,
                Err(_) => StepOutcome::InvalidStateHold,
            },
        }
    }

    /// The unfused reference implementation of [`SeparationChain::propose`]:
    /// independent [`Configuration`] probe sweeps plus
    /// [`properties::movement_allowed`], `SeparationChain::move_ratio` and
    /// `SeparationChain::swap_ratio`.
    ///
    /// This is the slow path the fused kernel is proven against — it must
    /// produce the same [`StepOutcome`], the same state mutation, and
    /// consume the same RNG stream on every proposal. It is kept as a
    /// first-class API (not test-only code) so the exact transition-matrix
    /// construction, the amoebot translation, and the equivalence suite all
    /// share one oracle.
    ///
    /// # Panics
    ///
    /// Panics if `particle ≥ config.len()`.
    pub fn propose_reference<R: Rng + ?Sized>(
        &self,
        config: &mut Configuration,
        particle: usize,
        dir: Direction,
        rng: &mut R,
    ) -> StepOutcome {
        let from = config.position_of(particle);
        let to = from.neighbor(dir);

        match config.color_at(to) {
            None => {
                // Steps 3–8: expansion move.
                if config.occupied_neighbors(from) == 5 {
                    return StepOutcome::MoveRejectedFiveNeighbors; // condition (i)
                }
                if !properties::movement_allowed(config, from, dir) {
                    return StepOutcome::MoveRejectedProperty; // condition (ii)
                }
                // The source is the activated particle's own position, so
                // the ratio can only fail on a corrupted configuration.
                let Ok(ratio) = self.move_ratio(config, from, to) else {
                    return StepOutcome::InvalidStateHold;
                };
                if !ratio.accept(rng) {
                    return StepOutcome::MoveRejectedMetropolis;
                }
                match config.try_move_particle(particle, to) {
                    Ok(()) => StepOutcome::MoveAccepted,
                    Err(_) => StepOutcome::InvalidStateHold,
                }
            }
            Some(qcolor) => {
                // Steps 9–10: swap move. Both holds return before the filter
                // draws, so they leave the RNG stream untouched.
                if qcolor == config.color_of(particle) {
                    return StepOutcome::SameColorHold;
                }
                if !self.swaps {
                    return StepOutcome::TargetOccupiedHold;
                }
                let Ok(ratio) = self.swap_ratio(config, from, to) else {
                    return StepOutcome::InvalidStateHold;
                };
                if !ratio.accept(rng) {
                    return StepOutcome::SwapRejectedMetropolis;
                }
                match config.try_swap(from, to) {
                    Ok(()) => StepOutcome::SwapAccepted,
                    Err(_) => StepOutcome::InvalidStateHold,
                }
            }
        }
    }

    /// [`MarkovChain::run`] that also adds one to `counts[o as usize]` for
    /// each step's [`StepOutcome`] `o`: the same loop, the same state,
    /// accepted count and RNG stream. Each step's outcome is the one
    /// `step_detailed` would report, so the counts are those of the step
    /// loop (pinned by `kernel_equivalence`).
    ///
    /// The loop's hold branch counts only its
    /// [`StepOutcome::TargetOccupiedHold`]s. Its
    /// [`StepOutcome::SameColorHold`]s, the bulk of all steps on a
    /// compressed configuration, are the steps no class counted, so they
    /// cost the loop nothing.
    pub fn run_counted<R: Rng + ?Sized>(
        &self,
        config: &mut Configuration,
        steps: u64,
        rng: &mut R,
        counts: &mut [u64; StepOutcome::ALL.len()],
    ) -> u64 {
        let mut tally = [0; StepOutcome::ALL.len()];
        let accepted = self.run_loop::<true, R>(config, steps, rng, &mut tally);
        tally[StepOutcome::SameColorHold as usize] += steps - tally.iter().sum::<u64>();
        for (count, n) in counts.iter_mut().zip(tally) {
            *count += n;
        }
        accepted
    }

    /// `steps` calls of [`MarkovChain::step`], in a loop of its own around
    /// the decision and commit that [`SeparationChain::propose`] makes,
    /// counting outcomes into `counts` only when `COUNT`, every class but
    /// the same-color holds of the hold branch.
    ///
    /// * `n` cannot change during a run, so [`PreparedRange`] hoists
    ///   `random_range(0..n)`'s two divisions out of the loop while drawing
    ///   exactly the same indices from exactly the same words.
    /// * A run-local `CellTable` holds each particle's flat raster cell,
    ///   so a step reads its cell from the table and probes the target at
    ///   a flat offset. Both holds return on one predicate over that probe
    ///   and the particle's own cell, without reading its position or its
    ///   entry in the particle table; a counting loop counts the
    ///   target-occupied ones. Every other proposal gathers its ring inline
    ///   and goes through the shared decision and commit. A particle the
    ///   table marks `PER_NODE` takes the RNG-free out-of-line probe
    ///   instead, and the decision stays inline, so nothing out of line
    ///   ever holds the RNG.
    /// * After an accepted commit the table re-derives the entries of the
    ///   particles it moved, or is rebuilt when the commit rebuilt the
    ///   raster or switched the configuration to a map.
    ///
    /// The state, accepted count and RNG stream are exactly those of the
    /// `step` loop (pinned by `kernel_equivalence` and this module's tests).
    fn run_loop<const COUNT: bool, R: Rng + ?Sized>(
        &self,
        config: &mut Configuration,
        steps: u64,
        rng: &mut R,
        counts: &mut [u64; StepOutcome::ALL.len()],
    ) -> u64 {
        let particle = PreparedRange::new(config.len() as u64);
        let mut cells = CellTable::build(config);
        let mut rebuilds = config.raster_rebuild_count();
        let (mut accepted, mut occupied_holds) = (0, 0);
        for _ in 0..steps {
            let p = particle.sample(rng) as usize;
            let dir = DIRECTIONS[rng.random_range(0..6usize)];
            let cell = cells.0[p];
            let verdict = match config.raster() {
                Some(g) if cell != PER_NODE => {
                    let i = cell as usize;
                    let (own, t) = (g.code_at(i), g.target_code(i, dir));
                    debug_assert_eq!(own, grid::encode(config.color_of(p)));
                    if t != 0 && (t == own || !self.swaps) {
                        if COUNT {
                            occupied_holds += u64::from(t != own);
                        }
                        continue;
                    }
                    self.decide(
                        config.color_of(p),
                        (t != 0).then(|| grid::decode(t)),
                        #[inline(always)]
                        || RingGather::from_codes(g.ring_codes_at(i, dir)),
                        rng,
                    )
                }
                _ => {
                    let (target, ring) = self.probe_per_node(config, p, dir);
                    self.decide(config.color_of(p), target, || ring, rng)
                }
            };
            if let Verdict::Hold(outcome) = verdict {
                if COUNT {
                    counts[outcome as usize] += 1;
                }
                continue;
            }
            let from = config.position_of(p);
            let to = from.neighbor(dir);
            let outcome = Self::commit(config, p, from, to, verdict);
            if COUNT {
                counts[outcome as usize] += 1;
            }
            if !outcome.accepted() {
                continue;
            }
            accepted += 1;
            if config.raster_rebuild_count() != rebuilds {
                // A rebuild, or the switch to a map, which counts as one.
                rebuilds = config.raster_rebuild_count();
                cells = CellTable::build(config);
            } else if let Verdict::Swap { .. } = verdict {
                cells.refresh(config, [from, to].map(|node| config.index_at(node)));
            } else {
                cells.refresh(config, [Some(p), None]);
            }
        }
        debug_assert_eq!(cells, CellTable::build(config), "stale cell table");
        if COUNT {
            counts[StepOutcome::TargetOccupiedHold as usize] += occupied_holds;
        }
        accepted
    }
}

/// What [`SeparationChain::propose`] decided before touching the state: a
/// classified hold, or an accepted transition with the counter deltas its
/// ring gather yielded.
#[derive(Clone, Copy, Debug)]
enum Verdict {
    Hold(StepOutcome),
    Move { d_edges: i32, d_hetero: i32 },
    Swap { d_hetero: i32 },
}

impl MarkovChain for SeparationChain {
    type State = Configuration;

    fn step<R: Rng + ?Sized>(&self, config: &mut Configuration, rng: &mut R) -> bool {
        self.step_detailed(config, rng).accepted()
    }

    /// `steps` calls of [`MarkovChain::step`] in one loop that counts
    /// nothing (see `SeparationChain::run_loop`);
    /// [`SeparationChain::run_counted`] is the same loop with outcome
    /// counts.
    fn run<R: Rng + ?Sized>(&self, config: &mut Configuration, steps: u64, rng: &mut R) -> u64 {
        self.run_loop::<false, R>(config, steps, rng, &mut [0; StepOutcome::ALL.len()])
    }
}

/// The [`CellTable`] entry of a particle that takes the per-node probes:
/// one in the raster's edge band, or any particle of a configuration
/// without a raster.
const PER_NODE: u32 = u32::MAX;

/// Each particle's flat raster cell ([`ColorGrid::interior_index`] of its
/// position) or [`PER_NODE`], for the length of one
/// [`SeparationChain`] `run` call. Four bytes a particle; a raster has at
/// most 2²² cells, so every index fits below the sentinel.
#[derive(Debug, PartialEq)]
struct CellTable(Vec<u32>);

impl CellTable {
    fn build(config: &Configuration) -> Self {
        let raster = config.raster();
        CellTable(
            config
                .particles()
                .map(|(node, _)| cell_of(raster, node))
                .collect(),
        )
    }

    /// Re-derives the entries of the particles a commit moved from their
    /// new positions: a move's particle, or the two particles a swap left
    /// at its ends.
    fn refresh(&mut self, config: &Configuration, moved: [Option<usize>; 2]) {
        let raster = config.raster();
        for p in moved.into_iter().flatten() {
            self.0[p] = cell_of(raster, config.position_of(p));
        }
    }
}

/// The [`CellTable`] entry of a particle at `node`.
fn cell_of(raster: Option<&ColorGrid>, node: Node) -> u32 {
    raster
        .and_then(|g| g.interior_index(node))
        .map_or(PER_NODE, |i| i as u32)
}

/// The PODC '16 compression chain: the monochromatic special case of
/// [`SeparationChain`] with `γ = 1`.
///
/// With a single color every edge is homogeneous, `h(σ) = 0`, and the
/// stationary distribution reduces to `π(σ) ∝ λ^{−p(σ)}` — the compression
/// measure. Cannon et al. (PODC '16) prove `λ > 2 + √2` yields
/// α-compression w.h.p. and `λ < 2.17` yields expansion.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sops_chains::MarkovChain;
/// use sops_core::{construct, CompressionChain};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let mut config = construct::line_monochromatic(24)?;
/// let chain = CompressionChain::new(4.0)?;
/// let p0 = config.perimeter();
/// chain.run(&mut config, 300_000, &mut rng);
/// assert!(config.perimeter() < p0); // the line compresses
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompressionChain {
    inner: SeparationChain,
}

impl CompressionChain {
    /// Creates the compression chain with bias `λ`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ConfigError::InvalidBias`] if `λ` is not strictly
    /// positive and finite.
    pub fn new(lambda: f64) -> Result<Self, crate::ConfigError> {
        Ok(CompressionChain {
            inner: SeparationChain::new(Bias::new(lambda, 1.0)?),
        })
    }
}

impl MarkovChain for CompressionChain {
    type State = Configuration;

    fn step<R: Rng + ?Sized>(&self, config: &mut Configuration, rng: &mut R) -> bool {
        self.inner.step(config, rng)
    }

    fn run<R: Rng + ?Sized>(&self, config: &mut Configuration, steps: u64, rng: &mut R) -> u64 {
        self.inner.run(config, steps, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestIndex;
    use crate::enumerate::ExactSeparationChain;
    use crate::{construct, CanonicalForm, Color};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sops_chains::{EnumerableChain, TransitionMatrix};

    fn run_invariant_check(chain: &SeparationChain, steps: u64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut config = construct::hexagonal_bicolored(25, 12).unwrap();
        assert!(config.is_connected());
        for step in 0..steps {
            chain.step(&mut config, &mut rng);
            if step % 500 == 0 {
                assert!(config.is_connected(), "disconnected at step {step}");
                let (e, h) = config.recount();
                assert_eq!(config.edge_count(), e, "edge count drift at {step}");
                assert_eq!(config.hetero_edge_count(), h, "hetero drift at {step}");
            }
        }
    }

    #[test]
    fn connectivity_and_counters_preserved_over_long_runs() {
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        run_invariant_check(&chain, 20_000, 11);
        let chain = SeparationChain::new(Bias::new(1.5, 0.8).unwrap());
        run_invariant_check(&chain, 20_000, 12);
    }

    #[test]
    fn hole_free_configurations_stay_hole_free() {
        // Lemma 6, second half: once hole-free, never holey again.
        let mut rng = StdRng::seed_from_u64(99);
        let mut config = construct::hexagonal_bicolored(19, 9).unwrap();
        assert!(!config.has_holes());
        let chain = SeparationChain::new(Bias::new(2.0, 3.0).unwrap());
        for step in 0..10_000 {
            chain.step(&mut config, &mut rng);
            if step % 250 == 0 {
                assert!(!config.has_holes(), "hole created by step {step}");
            }
        }
        assert!(!config.has_holes());
    }

    #[test]
    fn initial_holes_shrink_to_at_most_a_single_node() {
        // Lemma 6, first half. Under the literal "exactly one" reading of
        // Property 4 (which Lemma 7's reversibility requires), particles
        // flow into large holes along their boundaries but the final
        // single-node fill is blocked — a size-1 hole has both common
        // neighbors occupied and connected, violating "exactly one". We
        // therefore verify the shrinkage: a 7-node hole collapses until the
        // interior boundary is at most that of one empty node, and the hole
        // count never grows.
        let mut rng = StdRng::seed_from_u64(5);
        let hole = sops_lattice::region::Region::hexagon(1);
        let particles: Vec<_> = sops_lattice::region::Region::hexagon(3)
            .iter()
            .filter(|n| !hole.contains(*n))
            .map(|n| (n, Color::C1))
            .collect();
        let mut config = Configuration::new(particles).unwrap();
        assert_eq!(config.hole_count(), 1);
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        for step in 0..200_000u64 {
            chain.step(&mut config, &mut rng);
            if step % 2_000 == 0 {
                assert!(config.hole_count() <= 1, "hole split/created at {step}");
            }
        }
        // Interior boundary length = identity perimeter − outer walk; a
        // single empty node contributes 3 (its enclosing triangle-walk),
        // the initial 7-node hole contributed 12.
        let interior = config.perimeter() - config.boundary_walk_length();
        assert!(interior <= 3, "hole failed to shrink: interior {interior}");
    }

    #[test]
    fn swaps_disabled_never_swaps() {
        // With two colors on a rigid 2-particle system no move can change
        // which node holds which color unless a swap fires.
        let mut rng = StdRng::seed_from_u64(3);
        let chain = SeparationChain::without_swaps(Bias::new(4.0, 4.0).unwrap());
        assert!(!chain.swaps_enabled());
        let mut config = Configuration::new([
            (sops_lattice::Node::new(0, 0), Color::C1),
            (sops_lattice::Node::new(1, 0), Color::C2),
        ])
        .unwrap();
        for _ in 0..5_000 {
            chain.step(&mut config, &mut rng);
            // Particle 0 keeps color C1 and no swap means the *particle*
            // identity at each canonical position never exchanges; verify via
            // hetero count staying 1 and the two particles staying adjacent.
            assert_eq!(config.hetero_edge_count(), 1);
            assert!(config.position_of(0).is_adjacent(config.position_of(1)));
        }
    }

    #[test]
    fn swap_ratio_is_symmetric_in_roles() {
        // The acceptance exponent must be identical whether P or Q initiates.
        let config = Configuration::new([
            (sops_lattice::Node::new(0, 0), Color::C1),
            (sops_lattice::Node::new(1, 0), Color::C2),
            (sops_lattice::Node::new(0, 1), Color::C1),
            (sops_lattice::Node::new(1, -1), Color::C2),
        ])
        .unwrap();
        let chain = SeparationChain::new(Bias::new(4.0, 3.0).unwrap());
        let a = sops_lattice::Node::new(0, 0);
        let b = sops_lattice::Node::new(1, 0);
        let r1 = chain.swap_ratio(&config, a, b).unwrap();
        let r2 = chain.swap_ratio(&config, b, a).unwrap();
        assert!((r1.value() - r2.value()).abs() < 1e-15);
    }

    #[test]
    fn ratios_return_typed_errors_on_unoccupied_nodes() {
        use crate::error::ChainStateError;
        let config = Configuration::new([
            (sops_lattice::Node::new(0, 0), Color::C1),
            (sops_lattice::Node::new(1, 0), Color::C2),
        ])
        .unwrap();
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        let empty = sops_lattice::Node::new(0, 1);
        let occupied = sops_lattice::Node::new(0, 0);
        assert_eq!(
            chain.move_ratio(&config, empty, occupied).unwrap_err(),
            ChainStateError::UnoccupiedSource(empty)
        );
        assert_eq!(
            chain.swap_ratio(&config, empty, occupied).unwrap_err(),
            ChainStateError::UnoccupiedSource(empty)
        );
        assert_eq!(
            chain.swap_ratio(&config, occupied, empty).unwrap_err(),
            ChainStateError::UnoccupiedTarget(empty)
        );
        let err = chain.move_ratio(&config, empty, occupied).unwrap_err();
        assert!(err.to_string().contains("holds no particle"));
    }

    #[test]
    fn move_ratio_matches_manual_count() {
        // Triangle of c1,c1,c2; move the c2 particle (0,1) east to (1,1):
        // e = 2 → e' = 1 (only (1,0); (0,1) excluded as vacated source),
        // e_i = 0 → e'_i = 0 for color c2. Ratio = λ^{-1} γ^{0}.
        let config = Configuration::new([
            (sops_lattice::Node::new(0, 0), Color::C1),
            (sops_lattice::Node::new(1, 0), Color::C1),
            (sops_lattice::Node::new(0, 1), Color::C2),
        ])
        .unwrap();
        let chain = SeparationChain::new(Bias::new(5.0, 7.0).unwrap());
        let ratio = chain
            .move_ratio(
                &config,
                sops_lattice::Node::new(0, 1),
                sops_lattice::Node::new(1, 1),
            )
            .unwrap();
        assert!((ratio.value() - 1.0 / 5.0).abs() < 1e-15);
    }

    #[test]
    fn reversibility_of_moves() {
        // Lemma 7: every executed move has a positive-probability reverse.
        let mut rng = StdRng::seed_from_u64(21);
        let chain = SeparationChain::new(Bias::new(3.0, 2.0).unwrap());
        let mut config = construct::hexagonal_bicolored(12, 6).unwrap();
        for _ in 0..3_000 {
            let before = config.canonical_form();
            let moved = chain.step(&mut config, &mut rng);
            if !moved {
                continue;
            }
            // Find the reverse transition among all (particle, dir) proposals
            // of the new state and check it has positive probability.
            let mut reverse_found = false;
            for p in 0..config.len() {
                let from = config.position_of(p);
                for dir in DIRECTIONS {
                    let to = from.neighbor(dir);
                    let reachable = match config.color_at(to) {
                        None => chain.move_valid(&config, from, dir),
                        Some(c) => c != config.color_of(p),
                    };
                    if !reachable {
                        continue;
                    }
                    let mut trial = config.clone();
                    match trial.color_at(to) {
                        None => {
                            let idx = trial.index_at(from).unwrap();
                            trial.move_particle(idx, to);
                        }
                        Some(_) => trial.swap(from, to),
                    }
                    if trial.canonical_form() == before {
                        reverse_found = true;
                        break;
                    }
                }
                if reverse_found {
                    break;
                }
            }
            assert!(reverse_found, "executed move has no reverse");
        }
    }

    #[test]
    fn compression_chain_is_gamma_one() {
        let c = CompressionChain::new(6.0).unwrap();
        assert_eq!(c.inner.bias().lambda(), 6.0);
        assert!(CompressionChain::new(-1.0).is_err());
    }

    /// An RNG that panics if the chain consults it — proves a code path
    /// never draws — or, scripted with values, replays them verbatim.
    struct ScriptedRng(Vec<u64>);

    impl ScriptedRng {
        fn forbidden() -> Self {
            ScriptedRng(Vec::new())
        }
    }

    impl Rng for ScriptedRng {
        fn next_u64(&mut self) -> u64 {
            self.0
                .pop()
                .expect("this code path must not consult the RNG")
        }
    }

    fn tri() -> Configuration {
        // (0,0) C1 [particle 0], (1,0) C1 [particle 1], (0,1) C2 [particle 2].
        Configuration::new([
            (sops_lattice::Node::new(0, 0), Color::C1),
            (sops_lattice::Node::new(1, 0), Color::C1),
            (sops_lattice::Node::new(0, 1), Color::C2),
        ])
        .unwrap()
    }

    #[test]
    fn propose_classifies_same_color_hold_without_drawing() {
        use crate::StepOutcome;
        use sops_lattice::Direction;
        let mut config = tri();
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        // Particle 0 (C1) proposes east into particle 1 (also C1).
        let out = chain.propose(&mut config, 0, Direction::E, &mut ScriptedRng::forbidden());
        assert_eq!(out, StepOutcome::SameColorHold);
        assert!(!out.accepted());
    }

    #[test]
    fn propose_classifies_target_occupied_hold_when_swaps_disabled() {
        use crate::StepOutcome;
        use sops_lattice::Direction;
        let mut config = tri();
        let chain = SeparationChain::without_swaps(Bias::new(4.0, 4.0).unwrap());
        // Particle 0 (C1) proposes north-east into particle 2 (C2): a swap
        // candidate, but swaps are off — and no RNG draw happens.
        let out = chain.propose(&mut config, 0, Direction::NE, &mut ScriptedRng::forbidden());
        assert_eq!(out, StepOutcome::TargetOccupiedHold);
    }

    #[test]
    fn propose_classifies_zero_gain_swap_as_accepted_without_drawing() {
        use crate::StepOutcome;
        use sops_lattice::Direction;
        let mut config = tri();
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        // Swapping particles 0 and 2: gain_i = gain_j = 0 (hand count on
        // the triangle), so γ^0 = 1 certainly accepts — no draw.
        let out = chain.propose(&mut config, 0, Direction::NE, &mut ScriptedRng::forbidden());
        assert_eq!(out, StepOutcome::SwapAccepted);
        assert_eq!(
            config.color_at(sops_lattice::Node::new(0, 0)),
            Some(Color::C2)
        );
    }

    #[test]
    fn propose_classifies_five_neighbor_guard() {
        use crate::StepOutcome;
        use sops_lattice::Direction;
        // Center with exactly 5 occupied neighbors; SE (1,-1) is free.
        let center = sops_lattice::Node::new(0, 0);
        let mut particles = vec![(center, Color::C1)];
        for dir in [
            Direction::E,
            Direction::NE,
            Direction::NW,
            Direction::W,
            Direction::SW,
        ] {
            particles.push((center.neighbor(dir), Color::C2));
        }
        let mut config = Configuration::new(particles).unwrap();
        assert_eq!(config.occupied_neighbors(center), 5);
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        let out = chain.propose(&mut config, 0, Direction::SE, &mut ScriptedRng::forbidden());
        assert_eq!(out, StepOutcome::MoveRejectedFiveNeighbors);
    }

    #[test]
    fn propose_classifies_property_rejection() {
        use crate::StepOutcome;
        use sops_lattice::Direction;
        // A 3-line; lifting the middle particle to (1,1) would disconnect
        // (0,0), so Properties 4/5 must forbid it.
        let mut config = Configuration::new([
            (sops_lattice::Node::new(0, 0), Color::C1),
            (sops_lattice::Node::new(1, 0), Color::C1),
            (sops_lattice::Node::new(2, 0), Color::C1),
        ])
        .unwrap();
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        assert!(!chain.move_valid(&config, sops_lattice::Node::new(1, 0), Direction::NE));
        let out = chain.propose(&mut config, 1, Direction::NE, &mut ScriptedRng::forbidden());
        assert_eq!(out, StepOutcome::MoveRejectedProperty);
    }

    #[test]
    fn propose_classifies_metropolis_move_filter() {
        use crate::StepOutcome;
        use sops_lattice::Direction;
        // Moving particle 2 from (0,1) east to (1,1) loses one edge:
        // ratio = λ^{−1}. With λ = 1/2 the ratio is 2 ≥ 1 — accepted with
        // no draw; with λ = 4 it is 1/4 — a near-1 uniform rejects it.
        let chain = SeparationChain::new(Bias::new(0.5, 1.0).unwrap());
        let mut config = tri();
        let out = chain.propose(&mut config, 2, Direction::E, &mut ScriptedRng::forbidden());
        assert_eq!(out, StepOutcome::MoveAccepted);
        assert_eq!(config.position_of(2), sops_lattice::Node::new(1, 1));

        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        let mut config = tri();
        let out = chain.propose(
            &mut config,
            2,
            Direction::E,
            &mut ScriptedRng(vec![u64::MAX]),
        );
        assert_eq!(out, StepOutcome::MoveRejectedMetropolis);
        assert_eq!(config.position_of(2), sops_lattice::Node::new(0, 1));
    }

    #[test]
    fn propose_classifies_metropolis_swap_filter() {
        use crate::StepOutcome;
        use sops_lattice::Direction;
        // C1 C1 C2 C2 line: swapping the middle pair costs one homogeneous
        // neighbor on each side, exponent −2, ratio γ^{−2} = 1/16 < 1.
        let mut config = Configuration::new([
            (sops_lattice::Node::new(0, 0), Color::C1),
            (sops_lattice::Node::new(1, 0), Color::C1),
            (sops_lattice::Node::new(2, 0), Color::C2),
            (sops_lattice::Node::new(3, 0), Color::C2),
        ])
        .unwrap();
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        let ratio = chain
            .swap_ratio(
                &config,
                sops_lattice::Node::new(1, 0),
                sops_lattice::Node::new(2, 0),
            )
            .unwrap();
        assert!((ratio.value() - 1.0 / 16.0).abs() < 1e-15);
        let out = chain.propose(
            &mut config,
            1,
            Direction::E,
            &mut ScriptedRng(vec![u64::MAX]),
        );
        assert_eq!(out, StepOutcome::SwapRejectedMetropolis);
        assert_eq!(
            config.color_at(sops_lattice::Node::new(1, 0)),
            Some(Color::C1)
        );
    }

    /// Builds one scenario per [`StepOutcome`] class: a configuration, the
    /// chain to run, the proposal `(particle, dir)`, and the scripted draws
    /// (empty = the path must not consult the RNG).
    fn outcome_scenarios() -> Vec<(
        StepOutcome,
        SeparationChain,
        Configuration,
        usize,
        Direction,
    )> {
        use sops_lattice::Node;
        let bias = |l, g| Bias::new(l, g).unwrap();
        let mut scenarios = Vec::new();

        // MoveAccepted: λ < 1 makes an edge-losing move certainly accept.
        scenarios.push((
            StepOutcome::MoveAccepted,
            SeparationChain::new(bias(0.5, 1.0)),
            tri(),
            2,
            Direction::E,
        ));
        // MoveRejectedFiveNeighbors: center of a filled 5-star proposing SE.
        let center = Node::new(0, 0);
        let mut particles = vec![(center, Color::C1)];
        for dir in [
            Direction::E,
            Direction::NE,
            Direction::NW,
            Direction::W,
            Direction::SW,
        ] {
            particles.push((center.neighbor(dir), Color::C2));
        }
        scenarios.push((
            StepOutcome::MoveRejectedFiveNeighbors,
            SeparationChain::new(bias(4.0, 4.0)),
            Configuration::new(particles).unwrap(),
            0,
            Direction::SE,
        ));
        // MoveRejectedProperty: lifting the middle of a 3-line disconnects.
        scenarios.push((
            StepOutcome::MoveRejectedProperty,
            SeparationChain::new(bias(4.0, 4.0)),
            Configuration::new([
                (Node::new(0, 0), Color::C1),
                (Node::new(1, 0), Color::C1),
                (Node::new(2, 0), Color::C1),
            ])
            .unwrap(),
            1,
            Direction::NE,
        ));
        // MoveRejectedMetropolis: λ = 4 edge-losing move, near-1 uniform.
        scenarios.push((
            StepOutcome::MoveRejectedMetropolis,
            SeparationChain::new(bias(4.0, 4.0)),
            tri(),
            2,
            Direction::E,
        ));
        // SwapAccepted: zero-gain unlike-color swap, certain accept.
        scenarios.push((
            StepOutcome::SwapAccepted,
            SeparationChain::new(bias(4.0, 4.0)),
            tri(),
            0,
            Direction::NE,
        ));
        // SwapRejectedMetropolis: C1 C1 C2 C2 line, exponent −2, γ = 4.
        scenarios.push((
            StepOutcome::SwapRejectedMetropolis,
            SeparationChain::new(bias(4.0, 4.0)),
            Configuration::new([
                (Node::new(0, 0), Color::C1),
                (Node::new(1, 0), Color::C1),
                (Node::new(2, 0), Color::C2),
                (Node::new(3, 0), Color::C2),
            ])
            .unwrap(),
            1,
            Direction::E,
        ));
        // SameColorHold: C1 proposes into its C1 neighbor.
        scenarios.push((
            StepOutcome::SameColorHold,
            SeparationChain::new(bias(4.0, 4.0)),
            tri(),
            0,
            Direction::E,
        ));
        // TargetOccupiedHold: unlike-color target but swaps disabled.
        scenarios.push((
            StepOutcome::TargetOccupiedHold,
            SeparationChain::without_swaps(bias(4.0, 4.0)),
            tri(),
            0,
            Direction::NE,
        ));
        // InvalidStateHold: a certainly-accepted edge-losing move meets a
        // corrupted zero edge counter — try_move_particle reports
        // CounterCorruption and the step holds.
        let mut corrupt = tri();
        corrupt.corrupt_edges_for_test(0);
        scenarios.push((
            StepOutcome::InvalidStateHold,
            SeparationChain::new(bias(0.5, 1.0)),
            corrupt,
            2,
            Direction::E,
        ));
        scenarios
    }

    #[test]
    fn every_outcome_class_matches_between_fused_and_reference_kernels() {
        // Satellite coverage: all nine StepOutcome classes are produced by
        // hand-built configurations, and the fused kernel classifies each
        // identically to the unfused reference path (same outcome, same
        // resulting state, same RNG consumption).
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for (expected, chain, config, particle, dir) in outcome_scenarios() {
            let mut fused_config = config.clone();
            let mut ref_config = config.clone();
            // A scripted near-1 draw: paths that reach an uncertain filter
            // reject; paths that must not draw leave it untouched.
            let mut fused_rng = ScriptedRng(vec![u64::MAX]);
            let mut ref_rng = ScriptedRng(vec![u64::MAX]);
            let fused = chain.propose(&mut fused_config, particle, dir, &mut fused_rng);
            let reference = chain.propose_reference(&mut ref_config, particle, dir, &mut ref_rng);
            assert_eq!(fused, expected, "fused misclassified {expected}");
            assert_eq!(reference, expected, "reference misclassified {expected}");
            assert_eq!(
                fused_config.canonical_form(),
                ref_config.canonical_form(),
                "state diverged on {expected}"
            );
            // The audit also sees both planes of the raster, which
            // a failed commit must leave as the reference leaves them.
            assert_eq!(
                fused_config.audit().violations,
                ref_config.audit().violations,
                "audits diverged on {expected}"
            );
            assert_eq!(
                fused_rng.0.len(),
                ref_rng.0.len(),
                "RNG consumption diverged on {expected}"
            );
            seen.insert(expected);
        }
        assert_eq!(seen.len(), StepOutcome::ALL.len(), "a class is missing");
    }

    #[test]
    fn invalid_state_hold_on_swap_counter_corruption() {
        use sops_lattice::Node;
        // γ = 1 certainly accepts the swap; the corrupted hetero counter
        // then rejects the state mutation in both kernels, without drawing.
        let mut config = Configuration::new([
            (Node::new(0, 0), Color::C1),
            (Node::new(1, 0), Color::C2),
            (Node::new(2, 0), Color::C1),
        ])
        .unwrap();
        config.corrupt_hetero_for_test(0);
        let chain = SeparationChain::new(Bias::new(4.0, 1.0).unwrap());
        let mut ref_config = config.clone();
        let out = chain.propose(&mut config, 1, Direction::E, &mut ScriptedRng::forbidden());
        let out_ref = chain.propose_reference(
            &mut ref_config,
            1,
            Direction::E,
            &mut ScriptedRng::forbidden(),
        );
        assert_eq!(out, StepOutcome::InvalidStateHold);
        assert_eq!(out_ref, StepOutcome::InvalidStateHold);
        // The failed swap left both states untouched.
        assert_eq!(config.color_at(Node::new(1, 0)), Some(Color::C2));
        assert_eq!(ref_config.color_at(Node::new(1, 0)), Some(Color::C2));
    }

    /// The node indexes of the edge-band tests: borders of 0–3 cells, the
    /// 0-cell border on the wide index plane, and a map.
    const EDGE_BAND_INDEXES: [TestIndex; 6] = [
        TestIndex::Raster(0),
        TestIndex::Raster(1),
        TestIndex::Raster(2),
        TestIndex::Raster(3),
        TestIndex::WideRaster(0),
        TestIndex::Map,
    ];

    #[test]
    fn fused_kernel_matches_reference_in_the_edge_band_and_without_a_raster() {
        // Every other equivalence state sits a full margin inside its
        // raster, where only the flat-offset path runs. Here the border is
        // 0–3 cells, so particles on the bounding box sit in the 2-cell
        // edge band (per-node probes; outward moves rebuild the raster)
        // next to particles on the flat path, on either index plane, or
        // there is no raster at all. Every proposal, under forced-accept
        // and forced-reject draws.
        let mut rng = StdRng::seed_from_u64(8);
        let nodes = construct::random_blob(40, &mut rng);
        let base = Configuration::new(construct::bicolor_random(nodes, 20, &mut rng)).unwrap();
        let chains = [
            SeparationChain::new(Bias::new(4.0, 3.0).unwrap()),
            SeparationChain::without_swaps(Bias::new(4.0, 3.0).unwrap()),
            SeparationChain::new(Bias::new(0.5, 2.0).unwrap()),
        ];
        let (mut flat, mut per_node) = (0, 0);
        for index in EDGE_BAND_INDEXES {
            let mut config = base.clone();
            config.reraster_for_test(index);
            assert_eq!(config.is_rasterized(), !matches!(index, TestIndex::Map));
            for p in 0..config.len() {
                let from = config.position_of(p);
                match config.raster().and_then(|g| g.interior_index(from)) {
                    Some(_) => flat += 1,
                    None => per_node += 1,
                }
                for dir in DIRECTIONS {
                    for draw in [0, u64::MAX] {
                        for chain in &chains {
                            let mut fused = config.clone();
                            let mut reference = config.clone();
                            let mut fused_rng = ScriptedRng(vec![draw]);
                            let mut ref_rng = ScriptedRng(vec![draw]);
                            let at = format!("{index:?}, particle {p}, {dir}, draw {draw}");
                            let outcome = chain.propose(&mut fused, p, dir, &mut fused_rng);
                            let expected =
                                chain.propose_reference(&mut reference, p, dir, &mut ref_rng);
                            assert_eq!(outcome, expected, "{at}");
                            assert!(
                                fused.particles().eq(reference.particles()),
                                "state diverged: {at}"
                            );
                            assert_eq!(
                                (fused.edge_count(), fused.hetero_edge_count()),
                                (reference.edge_count(), reference.hetero_edge_count()),
                                "counters diverged: {at}"
                            );
                            assert_eq!(fused_rng.0.len(), ref_rng.0.len(), "draws: {at}");
                            assert_eq!(
                                fused.raster_rebuild_count(),
                                reference.raster_rebuild_count(),
                                "rebuilds: {at}"
                            );
                            assert!(fused.audit().is_consistent(), "audit: {at}");
                        }
                    }
                }
            }
        }
        assert!(flat > 0 && per_node > 0, "flat {flat}, per-node {per_node}");
    }

    #[test]
    fn thresholds_decide_and_draw_as_the_power_ratio_filter_does() {
        // Every exponent the kernels can produce, on biases below, at and
        // above 1 (and λγ ≈ 1), against `PowerRatio::accept` on the words
        // at and around each threshold: same verdict, same words drawn.
        let biases = [0.3, 0.9, 1.0, 1.1, 2.0, 4.0, 7.0];
        let check = |t: u64,
                     filter: &dyn Fn(&mut ScriptedRng) -> bool,
                     oracle: &dyn Fn(&mut ScriptedRng) -> bool,
                     at: &str| {
            if t == CERTAIN {
                // Both accept, and neither draws.
                assert!(filter(&mut ScriptedRng::forbidden()), "{at}");
                assert!(oracle(&mut ScriptedRng::forbidden()), "oracle: {at}");
                return;
            }
            assert!((1..1 << 53).contains(&t), "threshold {t}: {at}");
            for k in [0, t - 1, t, (1 << 53) - 1] {
                let mut rng = ScriptedRng(vec![k << 11]);
                let mut oracle_rng = ScriptedRng(vec![k << 11]);
                assert_eq!(filter(&mut rng), k < t, "k = {k}: {at}");
                assert_eq!(oracle(&mut oracle_rng), k < t, "oracle, k = {k}: {at}");
                assert!(
                    rng.0.is_empty() && oracle_rng.0.is_empty(),
                    "one word each, k = {k}: {at}"
                );
            }
        };
        for lambda in biases {
            for gamma in biases {
                let chain = SeparationChain::new(Bias::new(lambda, gamma).unwrap());
                for de in -5..=5 {
                    for dei in -5..=5 {
                        let ratio = PowerRatio::new([lambda, gamma], [de, dei]);
                        check(
                            chain.tables.moves[((de + 5) * 11 + dei + 5) as usize],
                            &|rng| chain.metropolis_move(de, dei, rng),
                            &|rng| ratio.accept(rng),
                            &format!("λ = {lambda}, γ = {gamma}, move ({de}, {dei})"),
                        );
                    }
                }
                for gain in -10..=10 {
                    let ratio = PowerRatio::new([gamma], [gain]);
                    check(
                        chain.tables.swaps[(gain + 10) as usize],
                        &|rng| chain.metropolis_swap(gain, rng),
                        &|rng| ratio.accept(rng),
                        &format!("λ = {lambda}, γ = {gamma}, swap {gain}"),
                    );
                }
            }
        }
    }

    #[test]
    fn run_is_the_step_loop_in_the_edge_band_and_without_a_raster() {
        // The cell table marks edge-band particles (borders of 0–3 cells)
        // and every particle of a map-indexed configuration for the
        // per-node probes, and is rebuilt whenever an outward move rebuilds
        // the raster (λ < 1). `run` must still be the `step` loop: state,
        // counters, accepted count, index and RNG state; and `run_counted`
        // the `step_detailed` loop, with every outcome class counted.
        let mut rng = StdRng::seed_from_u64(8);
        let nodes = construct::random_blob(40, &mut rng);
        let base = Configuration::new(construct::bicolor_random(nodes, 20, &mut rng)).unwrap();
        let chains = [
            SeparationChain::new(Bias::new(4.0, 3.0).unwrap()),
            SeparationChain::without_swaps(Bias::new(4.0, 3.0).unwrap()),
            SeparationChain::new(Bias::new(0.5, 2.0).unwrap()),
        ];
        let mut rebuilt = 0;
        for index in EDGE_BAND_INDEXES {
            for (k, chain) in chains.iter().enumerate() {
                let mut config = base.clone();
                config.reraster_for_test(index);
                let at = format!("{index:?}, chain {k}");
                let mut step_config = config.clone();
                let mut counted_config = config.clone();
                let mut run_rng = StdRng::seed_from_u64(60 + k as u64);
                let mut step_rng = run_rng.clone();
                let mut counted_rng = run_rng.clone();
                let accepted = chain.run(&mut config, 20_000, &mut run_rng);
                let mut expected_counts = [0; StepOutcome::ALL.len()];
                for _ in 0..20_000 {
                    let outcome = chain.step_detailed(&mut step_config, &mut step_rng);
                    expected_counts[outcome as usize] += 1;
                }
                let expected = expected_counts[StepOutcome::MoveAccepted as usize]
                    + expected_counts[StepOutcome::SwapAccepted as usize];
                assert_eq!(accepted, expected, "accepted: {at}");
                let mut counts = [0; StepOutcome::ALL.len()];
                let counted =
                    chain.run_counted(&mut counted_config, 20_000, &mut counted_rng, &mut counts);
                assert_eq!(
                    (counted, counts),
                    (expected, expected_counts),
                    "counts: {at}"
                );
                assert!(
                    counted_config.particles().eq(config.particles())
                        && counted_rng.to_state_bytes() == run_rng.to_state_bytes(),
                    "counted run: {at}"
                );
                assert!(
                    config.particles().eq(step_config.particles()),
                    "state: {at}"
                );
                assert_eq!(
                    (config.edge_count(), config.hetero_edge_count()),
                    (step_config.edge_count(), step_config.hetero_edge_count()),
                    "counters: {at}"
                );
                assert_eq!(
                    run_rng.to_state_bytes(),
                    step_rng.to_state_bytes(),
                    "RNG: {at}"
                );
                assert_eq!(
                    (config.is_rasterized(), config.raster_rebuild_count()),
                    (
                        step_config.is_rasterized(),
                        step_config.raster_rebuild_count()
                    ),
                    "index: {at}"
                );
                rebuilt += config.raster_rebuild_count();
            }
        }
        assert!(rebuilt > 0, "no run crossed its raster's border");
    }

    /// Chain `M` as the kernel implements it on one kind of node index, on
    /// the state space of an [`ExactSeparationChain`]: every state is
    /// re-indexed by [`Configuration::reraster_for_test`] with `index`, and
    /// every transition probability is read off [`SeparationChain::propose`]
    /// alone.
    struct KernelLaw {
        exact: ExactSeparationChain,
        index: TestIndex,
    }

    impl KernelLaw {
        /// `propose(p, dir)` on a copy of `config`, its one possible draw
        /// answered with `word`: the state it leaves, whether it accepted,
        /// and whether it drew.
        fn probe(
            &self,
            config: &Configuration,
            p: usize,
            dir: Direction,
            word: u64,
        ) -> (Configuration, bool, bool) {
            let mut next = config.clone();
            let mut rng = ScriptedRng(vec![word]);
            let outcome = self.exact.chain().propose(&mut next, p, dir, &mut rng);
            (next, outcome.accepted(), rng.0.is_empty())
        }

        /// The probability that `propose(p, dir)` accepts on `config`, given
        /// that word 0 accepts. A proposal that draws no word accepts
        /// surely. Otherwise the filter accepts iff `(word >> 11) < T`, so
        /// bisecting over the words `k << 11` finds the least rejected `k`,
        /// which is `T`, and the probability is `T / 2⁵³`.
        fn acceptance(&self, config: &Configuration, p: usize, dir: Direction, drew: bool) -> f64 {
            if !drew {
                return 1.0;
            }
            let (mut lo, mut hi) = (1u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.probe(config, p, dir, mid << 11).1 {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo as f64 / (1u64 << 53) as f64
        }
    }

    impl EnumerableChain for KernelLaw {
        type State = CanonicalForm;

        fn states(&self) -> Vec<CanonicalForm> {
            self.exact.states()
        }

        fn transitions(&self, state: &CanonicalForm) -> Vec<(CanonicalForm, f64)> {
            let mut config = state.to_configuration();
            config.reraster_for_test(self.index);
            // `run` draws the particle and the direction uniformly.
            let per_proposal = 1.0 / (6.0 * config.len() as f64);
            let mut out = Vec::new();
            for p in 0..config.len() {
                for dir in DIRECTIONS {
                    // Word 0 passes every filter that can pass: a proposal it
                    // does not accept has probability 0.
                    let (next, accepted, drew) = self.probe(&config, p, dir, 0);
                    if accepted {
                        let probability = self.acceptance(&config, p, dir, drew);
                        out.push((next.canonical_form(), per_proposal * probability));
                    }
                }
            }
            out
        }
    }

    #[test]
    fn fused_kernel_law_is_the_exact_chain_on_every_small_bicolored_space() {
        // On every node index the kernel can hold: the 4-cell border a new
        // raster gets (the interior flat-offset path), on the narrow index
        // plane every state here is built with and on the wide one, borders
        // of 0–3 cells (particles in the edge band take the per-node
        // probes, and outward moves rebuild the raster), and a map. Release
        // builds cover n ≤ 5; debug builds, which also run the kernel's
        // internal assertions, stop at n ≤ 4.
        let max_n = if cfg!(debug_assertions) { 4 } else { 5 };
        let indexes = [
            TestIndex::Raster(4),
            TestIndex::WideRaster(4),
            TestIndex::Raster(0),
            TestIndex::Raster(1),
            TestIndex::Raster(2),
            TestIndex::Raster(3),
            TestIndex::WideRaster(0),
            TestIndex::Map,
        ];
        for (lambda, gamma) in [(2.0, 3.0), (4.0, 0.7), (1.1, 0.9)] {
            let bias = Bias::new(lambda, gamma).unwrap();
            for chain in [
                SeparationChain::new(bias),
                SeparationChain::without_swaps(bias),
            ] {
                let swaps = chain.swaps_enabled();
                for n in 2..=max_n {
                    for n1 in 1..n {
                        let exact = ExactSeparationChain::new(chain, n, n1);
                        let reference = TransitionMatrix::build(&exact);
                        let pi = exact.lemma9_distribution(reference.states());
                        for index in indexes {
                            let at = format!(
                                "λ={lambda} γ={gamma} swaps={swaps} n={n} n1={n1} {index:?}"
                            );
                            let kernel = TransitionMatrix::build(&KernelLaw {
                                exact: exact.clone(),
                                index,
                            });
                            assert_eq!(kernel.states(), reference.states(), "{at}");
                            let size = kernel.len();
                            for i in 0..size {
                                for j in 0..size {
                                    let (got, want) = (kernel.prob(i, j), reference.prob(i, j));
                                    assert!(
                                        (got - want).abs() <= 1e-15,
                                        "{at}: P({i}→{j}) is {got} from the kernel, {want} exactly"
                                    );
                                }
                            }
                            let residual = kernel.detailed_balance_violation(&pi);
                            assert!(
                                residual <= 1e-15,
                                "{at}: detailed-balance residual {residual}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn step_detailed_and_step_consume_identical_rng_streams() {
        // The wrapper relationship makes this structural, but pin it with
        // an explicit bit-for-bit check across a long run anyway.
        let chain = SeparationChain::new(Bias::new(4.0, 2.0).unwrap());
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let mut config_a = construct::hexagonal_bicolored(20, 10).unwrap();
        let mut config_b = config_a.clone();
        let mut accepted_a = 0u64;
        let mut accepted_b = 0u64;
        for _ in 0..20_000 {
            accepted_a += u64::from(chain.step(&mut config_a, &mut rng_a));
            accepted_b += u64::from(chain.step_detailed(&mut config_b, &mut rng_b).accepted());
        }
        assert_eq!(accepted_a, accepted_b);
        assert_eq!(config_a.canonical_form(), config_b.canonical_form());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
    }
}
