//! Proof-by-test that the fused proposal kernel is bit-for-bit equivalent
//! to the unfused reference path.
//!
//! Two forms of evidence, per the kernel's contract:
//!
//! 1. **Long-run stream equality** — two copies of the same initial state
//!    driven by identically seeded RNGs, one through the fused
//!    [`SeparationChain::propose`], one through
//!    [`SeparationChain::propose_reference`], must visit identical states,
//!    classify every step identically, and leave their RNG streams in
//!    identical positions after ≥10⁵ steps.
//! 2. **Exhaustive small-configuration enumeration** — every proposal
//!    `(configuration, particle, direction)` over all connected shapes of
//!    `n ≤ 4` particles and all of their bicolorings, under both an
//!    always-accepting and an always-rejecting Metropolis draw, with swaps
//!    on and off.
//!
//! 3. **Across the raster-to-map switch** — a configuration whose bounding
//!    box outgrows the raster cap mid-run continues bit-identically on its
//!    map index and audits clean.
//! 4. **Exact law** — on every bicolored space of `n ≤ 5` particles, the
//!    transition matrix read off the public `propose` equals the one
//!    `ExactSeparationChain` builds from the reference predicates, and
//!    Lemma 9's closed form is in detailed balance with it.
//!
//! `run`, which prepares the particle draw once per call, must equal the
//! `step` loop it replaces in state, accepted count and RNG state.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use sops_chains::{EnumerableChain, MarkovChain, TransitionMatrix};
use sops_core::enumerate::ExactSeparationChain;
use sops_core::{
    construct, enumerate, Bias, CanonicalForm, CompressionChain, Configuration, SeparationChain,
    StepOutcome,
};
use sops_lattice::region::Region;
use sops_lattice::{Direction, Node, DIRECTIONS};

/// An RNG whose `next_u64` is a fixed word, counting its draws: `0`
/// accepts any positive Metropolis ratio, `u64::MAX` rejects any ratio
/// below 1. Deterministic, so fused and reference paths see identical
/// draws by construction.
struct ConstRng {
    word: u64,
    draws: u32,
}

impl ConstRng {
    fn new(word: u64) -> Self {
        ConstRng { word, draws: 0 }
    }
}

impl Rng for ConstRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.word
    }
}

fn assert_streams_identical(chain: SeparationChain, n: usize, n1: usize, seed: u64, steps: u64) {
    let mut fused_rng = StdRng::seed_from_u64(seed);
    let mut ref_rng = StdRng::seed_from_u64(seed);
    let mut fused_config = construct::hexagonal_bicolored(n, n1).unwrap();
    let mut ref_config = fused_config.clone();

    for step in 0..steps {
        // Replicate step_detailed's sampling so both kernels receive the
        // same proposal from the same stream position.
        let p = fused_rng.random_range(0..fused_config.len());
        let d = DIRECTIONS[fused_rng.random_range(0..6usize)];
        let p2 = ref_rng.random_range(0..ref_config.len());
        let d2 = DIRECTIONS[ref_rng.random_range(0..6usize)];
        assert_eq!((p, d), (p2, d2), "proposal streams diverged at {step}");

        let fused = chain.propose(&mut fused_config, p, d, &mut fused_rng);
        let reference = chain.propose_reference(&mut ref_config, p, d, &mut ref_rng);
        assert_eq!(fused, reference, "outcome diverged at step {step}");
        if step % 10_000 == 0 {
            assert_eq!(
                fused_config.canonical_form(),
                ref_config.canonical_form(),
                "state diverged by step {step}"
            );
        }
    }
    assert_eq!(fused_config.canonical_form(), ref_config.canonical_form());
    assert_eq!(
        (fused_config.edge_count(), fused_config.hetero_edge_count()),
        (ref_config.edge_count(), ref_config.hetero_edge_count())
    );
    assert_eq!(
        fused_rng.next_u64(),
        ref_rng.next_u64(),
        "RNG streams diverged over {steps} steps"
    );
}

#[test]
fn fused_kernel_is_rng_and_state_identical_over_100k_steps() {
    // The separating regime (λ, γ large), with swaps: the acceptance
    // criterion's headline equivalence run.
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
    assert_streams_identical(chain, 48, 24, 2024, 100_000);
}

#[test]
fn fused_kernel_equivalence_without_swaps_and_in_weak_bias_regime() {
    // Swap-ablated chain: exercises the TargetOccupiedHold path heavily.
    let chain = SeparationChain::without_swaps(Bias::new(4.0, 4.0).unwrap());
    assert_streams_identical(chain, 30, 15, 7, 60_000);
    // λ, γ < 1: every exponent sign flips, so certainly_accepts triggers on
    // the complementary set of proposals and the filter draws elsewhere.
    let chain = SeparationChain::new(Bias::new(0.8, 0.6).unwrap());
    assert_streams_identical(chain, 30, 10, 99, 60_000);
}

#[test]
fn fused_kernel_equivalence_exhaustive_on_small_configurations() {
    // Every (shape ≤ 4, bicoloring, particle, direction, draw, swap-mode)
    // proposal: fused and reference must agree on classification and on the
    // mutated state. The ConstRng draws make both filter branches
    // deterministic, so this is a complete case analysis of the kernel.
    let chains = [
        SeparationChain::new(Bias::new(4.0, 3.0).unwrap()),
        SeparationChain::without_swaps(Bias::new(4.0, 3.0).unwrap()),
        SeparationChain::new(Bias::new(0.5, 2.0).unwrap()),
    ];
    // All connected shapes with n ≤ 4 particles, plus the six 5-star shapes
    // (a center with exactly five occupied neighbors) — the smallest
    // configurations that can trip the |N(ℓ)| = 5 guard.
    let mut all_shapes: Vec<Vec<Node>> = (1..=4).flat_map(enumerate::shapes).collect();
    for missing in DIRECTIONS {
        let mut star = vec![Node::ORIGIN];
        star.extend(
            DIRECTIONS
                .iter()
                .filter(|&&d| d != missing)
                .map(|&d| Node::ORIGIN.neighbor(d)),
        );
        all_shapes.push(star);
    }
    let mut seen = std::collections::HashSet::new();
    let mut proposals = 0u64;
    for shape in all_shapes {
        {
            let n = shape.len();
            for n1 in 0..=n {
                for coloring in enumerate::bicolorings(&shape, n1) {
                    let config = Configuration::new(coloring).unwrap();
                    for chain in &chains {
                        for particle in 0..config.len() {
                            for dir in DIRECTIONS {
                                for draw in [0, u64::MAX] {
                                    let mut fused_config = config.clone();
                                    let mut ref_config = config.clone();
                                    let fused = chain.propose(
                                        &mut fused_config,
                                        particle,
                                        dir,
                                        &mut ConstRng::new(draw),
                                    );
                                    let reference = chain.propose_reference(
                                        &mut ref_config,
                                        particle,
                                        dir,
                                        &mut ConstRng::new(draw),
                                    );
                                    assert_eq!(
                                        fused, reference,
                                        "outcome diverged: n={n} n1={n1} particle={particle} \
                                         dir={dir} draw={draw}"
                                    );
                                    assert_eq!(
                                        fused_config.canonical_form(),
                                        ref_config.canonical_form(),
                                        "state diverged: n={n} n1={n1} particle={particle} \
                                         dir={dir} draw={draw}"
                                    );
                                    seen.insert(fused);
                                    proposals += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // Every consistent-state outcome class appears in the enumeration
    // (InvalidStateHold requires a corrupted state; unit tests cover it).
    for outcome in [
        StepOutcome::MoveAccepted,
        StepOutcome::MoveRejectedFiveNeighbors,
        StepOutcome::MoveRejectedProperty,
        StepOutcome::MoveRejectedMetropolis,
        StepOutcome::SwapAccepted,
        StepOutcome::SwapRejectedMetropolis,
        StepOutcome::SameColorHold,
        StepOutcome::TargetOccupiedHold,
    ] {
        assert!(seen.contains(&outcome), "{outcome} never produced");
    }
    assert!(proposals > 10_000, "enumeration too small: {proposals}");
}

/// A north-west diagonal of `line` particles from the origin, with a
/// radius-2 hexagonal blob hung off its south-east end. The diagonal makes
/// the bounding box `line + 5` cells square; the blob is what can move.
fn diagonal_with_blob(line: i32, rng: &mut StdRng) -> Configuration {
    let diagonal = (0..line).map(|k| Node::new(-k, k));
    let blob = Region::hexagon(2)
        .iter()
        .map(|n| Node::new(n.x + 3, n.y - 3))
        .collect::<Vec<_>>();
    let n1 = blob.len() / 2;
    let colored = construct::bicolor_random(diagonal.chain(blob).collect(), n1, rng);
    Configuration::new(colored).unwrap()
}

#[test]
fn fused_kernel_continues_identically_across_the_raster_to_map_switch() {
    // The new raster of a 2,040-cell-square box is 2,048 cells square with
    // its 4-cell border: exactly the 2²²-cell cap. Once the blob carries a
    // particle past that border, no grown raster fits, and the
    // configuration is indexed by a map from then on. Fused and reference
    // kernels must take the switch at the same step and stay identical in
    // outcome, state and RNG stream on both sides of it.
    let line = 2035;
    let mut rng = StdRng::seed_from_u64(30);
    let base = diagonal_with_blob(line, &mut rng);
    assert!(base.is_rasterized());
    assert!(base.audit().is_consistent());
    let chain = SeparationChain::new(Bias::new(0.3, 1.0).unwrap());
    // Proposals go to the blob's particles. For `PHASE` steps they draw
    // their direction uniformly; then, until the switch, three in four
    // lean away from the diagonal, out of the box's south-east corner;
    // after it, `PHASE` more draw uniformly again.
    const PHASE: u64 = 50_000;
    const OUTWARD: [Direction; 3] = [Direction::E, Direction::SE, Direction::SW];
    let movers: Vec<usize> = (line as usize..base.len()).collect();
    let mut schedule = StdRng::seed_from_u64(31);
    let mut fused = base.clone();
    let mut reference = base;
    let mut fused_rng = StdRng::seed_from_u64(32);
    let mut ref_rng = fused_rng.clone();
    let mut switched_at = None;
    for step in 0..PHASE + 1_000_000 {
        let lean = step >= PHASE && switched_at.is_none();
        let p = movers[schedule.random_range(0..movers.len())];
        let d = if lean && schedule.random_range(0..4u32) != 0 {
            OUTWARD[schedule.random_range(0..3usize)]
        } else {
            DIRECTIONS[schedule.random_range(0..6usize)]
        };
        let outcome = chain.propose(&mut fused, p, d, &mut fused_rng);
        let expected = chain.propose_reference(&mut reference, p, d, &mut ref_rng);
        assert_eq!(outcome, expected, "outcome diverged at step {step}");
        assert_eq!(
            fused.is_rasterized(),
            reference.is_rasterized(),
            "index diverged at step {step}"
        );
        if switched_at.is_none() && !fused.is_rasterized() {
            assert!(step >= PHASE, "the blob left the raster unprompted");
            assert!(fused.particles().eq(reference.particles()));
            assert!(fused.audit().is_consistent(), "audit at the switch");
            switched_at = Some(step);
        }
        if switched_at.is_some_and(|at| step >= at + PHASE) {
            break;
        }
    }
    assert!(switched_at.is_some(), "the blob never left the raster");
    assert!(
        fused.particles().eq(reference.particles()),
        "state diverged"
    );
    assert_eq!(
        (fused.edge_count(), fused.hetero_edge_count()),
        (reference.edge_count(), reference.hetero_edge_count())
    );
    assert_eq!(fused.raster_rebuild_count(), 1);
    assert_eq!(reference.raster_rebuild_count(), 1);
    assert_eq!(
        fused_rng.next_u64(),
        ref_rng.next_u64(),
        "RNG streams diverged"
    );
    let report = fused.audit();
    assert!(report.is_consistent(), "{report}");
    assert_eq!(report, reference.audit());
}

/// `chain.run(config, k)` must equal `k` calls of `chain.step`: same state,
/// same accepted count, same index, same RNG state. Returns the run's
/// final state.
fn assert_run_matches_step_loop<C>(
    chain: &C,
    config: &Configuration,
    seed: u64,
    steps: u64,
) -> Configuration
where
    C: MarkovChain<State = Configuration>,
{
    let mut run_config = config.clone();
    let mut step_config = config.clone();
    let mut run_rng = StdRng::seed_from_u64(seed);
    let mut step_rng = StdRng::seed_from_u64(seed);
    let accepted_run = chain.run(&mut run_config, steps, &mut run_rng);
    let accepted_step = (0..steps)
        .filter(|_| chain.step(&mut step_config, &mut step_rng))
        .count() as u64;
    let n = config.len();
    assert_eq!(
        accepted_run, accepted_step,
        "accepted counts differ at n={n}"
    );
    assert_eq!(
        run_config.canonical_form(),
        step_config.canonical_form(),
        "states differ at n={n}"
    );
    assert!(
        run_config.particles().eq(step_config.particles()),
        "particle tables differ at n={n}"
    );
    assert_eq!(
        (run_config.edge_count(), run_config.hetero_edge_count()),
        (step_config.edge_count(), step_config.hetero_edge_count())
    );
    assert_eq!(
        (
            run_config.is_rasterized(),
            run_config.raster_rebuild_count()
        ),
        (
            step_config.is_rasterized(),
            step_config.raster_rebuild_count()
        ),
        "indexes differ at n={n}"
    );
    assert_eq!(
        run_rng.to_state_bytes(),
        step_rng.to_state_bytes(),
        "RNG streams differ at n={n}"
    );
    run_config
}

#[test]
fn run_is_the_step_loop_with_a_prepared_particle_draw() {
    // n = 1, 2 and 64 include the power-of-two (mask) draws; 100 and
    // 1000 the Barrett reductions, including the benchmark's size.
    for (i, n) in [1usize, 2, 64, 100, 1000].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let nodes = construct::random_blob(n, &mut rng);
        let config = Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap();
        let steps = if n == 1000 { 200_000 } else { 50_000 };
        let bias = Bias::new(4.0, 4.0).unwrap();
        let seed = 40 + i as u64;
        assert_run_matches_step_loop(&SeparationChain::new(bias), &config, seed, steps);
        assert_run_matches_step_loop(&SeparationChain::without_swaps(bias), &config, seed, steps);
    }
}

#[test]
fn compression_run_is_its_step_loop() {
    let chain = CompressionChain::new(4.0).unwrap();
    for n in [1usize, 24, 100] {
        let config = construct::line_monochromatic(n).unwrap();
        assert_run_matches_step_loop(&chain, &config, 7 + n as u64, 50_000);
    }
}

#[test]
fn run_continues_identically_across_a_raster_rebuild() {
    // At λ < 1 a blob expands: particles step past the new raster's border
    // and rebuild it inside one `run` call, after which `run` must rebuild
    // its cell table from the new raster's cells.
    let mut rng = StdRng::seed_from_u64(50);
    let nodes = construct::random_blob(100, &mut rng);
    let config = Configuration::new(construct::bicolor_random(nodes, 50, &mut rng)).unwrap();
    for chain in [
        SeparationChain::new(Bias::new(0.4, 1.5).unwrap()),
        SeparationChain::without_swaps(Bias::new(0.4, 1.5).unwrap()),
    ] {
        let end = assert_run_matches_step_loop(&chain, &config, 51, 200_000);
        assert!(end.is_rasterized());
        assert!(end.raster_rebuild_count() >= 1, "the blob stayed inside");
    }
}

#[test]
fn run_continues_identically_across_the_raster_to_map_switch() {
    // The diagonal-with-blob state of the fused kernel's switch test. Steer
    // the blob through `propose` until a particle stands on the outermost
    // column or row of its raster's 4-cell border, so the next outward step
    // converts the configuration to a map. Then `run` in 20,000-step calls,
    // each checked against the step loop, until that happens inside one.
    let line = 2035;
    let mut rng = StdRng::seed_from_u64(30);
    let mut config = diagonal_with_blob(line, &mut rng);
    let (_, max_x, min_y, _) = config.bounding_box();
    let chain = SeparationChain::new(Bias::new(0.3, 1.0).unwrap());
    const OUTWARD: [Direction; 3] = [Direction::E, Direction::SE, Direction::SW];
    let movers: Vec<usize> = (line as usize..config.len()).collect();
    let mut schedule = StdRng::seed_from_u64(31);
    let at_border = |c: &Configuration| {
        let (_, x, y, _) = c.bounding_box();
        x == max_x + 4 || y == min_y - 4
    };
    while !at_border(&config) {
        let p = movers[schedule.random_range(0..movers.len())];
        let d = OUTWARD[schedule.random_range(0..3usize)];
        chain.propose(&mut config, p, d, &mut rng);
        assert!(
            config.is_rasterized(),
            "the blob left the raster while steered"
        );
    }
    for call in 0..100 {
        config = assert_run_matches_step_loop(&chain, &config, 70 + call, 20_000);
        if !config.is_rasterized() {
            assert_eq!(config.raster_rebuild_count(), 1);
            let report = config.audit();
            assert!(report.is_consistent(), "{report}");
            return;
        }
    }
    panic!("no run call crossed the raster's border");
}

/// Chain `M` as the fused kernel implements it, on the state space of an
/// [`ExactSeparationChain`]: every transition probability is read off the
/// public [`SeparationChain::propose`] alone.
struct KernelLaw(ExactSeparationChain);

impl KernelLaw {
    /// `propose(p, dir)` on a copy of `config`, every draw answered with
    /// `word`: the state it leaves, its outcome and the words it drew.
    fn probe(
        &self,
        config: &Configuration,
        p: usize,
        dir: Direction,
        word: u64,
    ) -> (Configuration, StepOutcome, u32) {
        let mut next = config.clone();
        let mut rng = ConstRng::new(word);
        let outcome = self.0.chain().propose(&mut next, p, dir, &mut rng);
        (next, outcome, rng.draws)
    }

    /// The probability that `propose(p, dir)` accepts on `config`, given
    /// that word 0 accepts. A proposal that draws no word accepts surely.
    /// Otherwise the filter accepts iff `(word >> 11) < T`, so bisecting
    /// over the words `k << 11` finds the least rejected `k`, which is `T`,
    /// and the probability is `T / 2⁵³`.
    fn acceptance(&self, config: &Configuration, p: usize, dir: Direction, draws: u32) -> f64 {
        if draws == 0 {
            return 1.0;
        }
        let (mut lo, mut hi) = (1u64, 1u64 << 53);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.probe(config, p, dir, mid << 11).1.accepted() {
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
        self.0.states()
    }

    fn transitions(&self, state: &CanonicalForm) -> Vec<(CanonicalForm, f64)> {
        let config = state.to_configuration();
        // `run` draws the particle and the direction uniformly.
        let per_proposal = 1.0 / (6.0 * config.len() as f64);
        let mut out = Vec::new();
        for p in 0..config.len() {
            for dir in DIRECTIONS {
                // Word 0 passes every filter that can pass: a proposal it
                // does not accept has probability 0.
                let (next, outcome, draws) = self.probe(&config, p, dir, 0);
                if outcome.accepted() {
                    let probability = self.acceptance(&config, p, dir, draws);
                    out.push((next.canonical_form(), per_proposal * probability));
                }
            }
        }
        out
    }
}

#[test]
fn fused_kernel_law_is_the_exact_chain_on_every_small_bicolored_space() {
    // Release builds cover n ≤ 5; debug builds, which also run the
    // kernel's internal assertions, stop at n ≤ 4.
    let max_n = if cfg!(debug_assertions) { 4 } else { 5 };
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
                    let kernel = TransitionMatrix::build(&KernelLaw(exact.clone()));
                    assert_eq!(kernel.states(), reference.states());
                    let size = kernel.len();
                    for i in 0..size {
                        for j in 0..size {
                            let (got, want) = (kernel.prob(i, j), reference.prob(i, j));
                            assert!(
                                (got - want).abs() <= 1e-15,
                                "λ={lambda} γ={gamma} swaps={swaps} n={n} n1={n1}: \
                                 P({i}→{j}) is {got} from the kernel, {want} exactly"
                            );
                        }
                    }
                    let pi = exact.lemma9_distribution(kernel.states());
                    let residual = kernel.detailed_balance_violation(&pi);
                    assert!(
                        residual <= 1e-15,
                        "λ={lambda} γ={gamma} swaps={swaps} n={n} n1={n1}: \
                         detailed-balance residual {residual}"
                    );
                }
            }
        }
    }
}
