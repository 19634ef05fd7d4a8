//! Sharded checkerboard parallel proposal engine.
//!
//! The paper's algorithm is local: a proposal `(ℓ, d)` reads and writes
//! nothing outside its 10-node footprint
//! ([`sops_lattice::pair_footprint_offsets`]), so proposals whose
//! footprints are disjoint compose in any order — the same argument that
//! makes the asynchronous distributed algorithm `A` correct (§3). This
//! module exploits that geometrically: the [`crate::grid`] raster's row
//! range is cut into horizontal **stripes** (row bands, interiors at least
//! 5 rows so a footprint fits), and each stripe becomes a shard that runs
//! proposals concurrently with every other shard of its chromatic phase on
//! a scoped thread pool (`std::thread::scope`, no new dependencies).
//!
//! # Execution model
//!
//! Work proceeds in **rounds** (default length `n` proposals):
//!
//! 1. **Plan.** Stripe boundaries are recomputed from a per-row particle
//!    histogram (balanced banding, deterministic), each particle is
//!    assigned to the stripe holding its row (per-shard *slot lists*, in
//!    particle-index order), and the round's proposals are split across
//!    shards proportionally to their slot counts.
//! 2. **Streams.** Each shard `k` gets its own counted RNG stream: the
//!    caller's generator jumped `k` times ([`rand::rngs::StdRng::jump`],
//!    2¹²⁸ apart — the parallel analogue of `sops-runtime`'s per-attempt
//!    `seeded_attempt` streams). Stream `S` is reserved for the
//!    reconciliation pass, and the caller's generator is left jumped
//!    `S + 1` times, so no stream ever overlaps a later round's.
//! 3. **Shard kernels.** All shards of a phase (`shard_index % colors`)
//!    run concurrently. Each worker owns a disjoint `&mut` row band of the
//!    raster's color plane (safe Rust: rows are contiguous, so bands come
//!    from `split_at_mut`) plus its slot list, and repeatedly draws a slot
//!    (uniform occupied node) and a direction. Proposals whose footprint
//!    lies fully inside the stripe *and* the raster commit directly to the
//!    band and append a change-log entry carrying the precomputed
//!    counter deltas; any footprint that crosses a stripe seam or the
//!    raster edge is **deferred** — recorded untouched and unevaluated, so
//!    no cross-shard conflict can ever commit.
//! 4. **Merge.** The main thread replays the change logs in shard order
//!    through the existing checked-arithmetic paths (the raster's index
//!    plane, the position table, the edge/hetero counters; the color plane
//!    is already current), then replays every deferred proposal
//!    sequentially through the live [`SeparationChain::propose`] kernel
//!    with the reconciliation stream.
//!
//! # RNG draw-order contract (sharded mode)
//!
//! Within one shard's stream, each proposal consumes: one slot draw
//! (`PreparedUniform(slot_count)`), one direction draw
//! (`PreparedUniform(6)`), then — only for non-deferred proposals that
//! reach a Metropolis filter with ratio < 1 — one `f64` draw, exactly when
//! the sequential kernel would. Slot counts are constant within a round
//! (moves update a slot in place, swaps exchange colors on fixed nodes),
//! so the samplers never re-prepare mid-round. Deferred proposals consume
//! only their two pair draws from the shard stream; their evaluation draws
//! come from the reconciliation stream, in shard-then-proposal order.
//!
//! With **one shard** this contract reduces to: draw (slot, direction)
//! pairs from the caller's stream and feed them through
//! [`SeparationChain::propose`] — bit-for-bit, including RNG stream
//! position (pinned by the `shard_equivalence` suite). Note slots are
//! occupied *nodes*, not particle indices: the node↔particle bijection
//! makes the activation distribution identical, but after a swap the same
//! slot denotes the other particle, so this trajectory intentionally
//! differs from [`SeparationChain::step_detailed`]'s particle-index draws.
//! Both are exact samplers of the same chain.
//!
//! # Determinism
//!
//! The trajectory is a pure function of (initial state, seed, shard plan):
//! same seed + same [`ParallelConfig`] + same thread count ⇒ identical
//! final state and report, independent of OS scheduling — each shard's
//! computation depends only on its own stripe's round-start content and
//! its own stream, and merge order is fixed. Different shard counts (or
//! explicit boundaries) are *different schedules* and yield different —
//! equally valid — trajectories, exactly as reseeding would.
//! [`run_sharded_reference`] replays the identical schedule
//! single-threaded and is the equivalence oracle for multi-shard runs.
//! The plan is cut from the raster's rows and its deferral window is the
//! raster's extent, so both depend on the raster's border as well as on
//! the particles. A sharded run therefore starts by widening a new
//! raster's 4-cell border to the 32 cells an outgrown raster gets, which
//! keeps particles clear of the deferral window's edge.
//!
//! # What can go wrong
//!
//! * No raster (a system too spread out to rasterize, indexed by a map):
//!   the engine degrades to sequential [`SeparationChain::step_detailed`]
//!   stepping, counted in [`ParallelReport::fallback_steps`].
//! * Corrupt tracked counters: shard workers never see them (they work on
//!   raw raster bytes), so corruption surfaces in the merge pass — which
//!   **panics**, because the color half of the transition is already
//!   applied and there is no untouched state to hold. The sequential
//!   kernels' `InvalidStateHold` soft-fail is only reachable through the
//!   reconciliation pass here.

use rand::rngs::StdRng;
use rand::PreparedUniform;
use sops_lattice::{
    pair_footprint_bounds, ring_offsets, Node, DIRECTIONS, RING_FROM_SIDE, RING_TO_SIDE,
};

use crate::config::RingGather;
use crate::grid::{self, ColorGrid};
use crate::{properties, Configuration, SeparationChain, StepOutcome};

/// Minimum stripe height in rows: a footprint reaches at most 2 rows from
/// its source in either direction (`sops_lattice::FOOTPRINT_REACH`), so
/// stripes shorter than 5 rows have an empty interior and defer everything.
pub const MIN_STRIPE_ROWS: u32 = 5;

/// Shard-schedule parameters for [`SeparationChain::run_parallel_with`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads per phase. Also the default shard count.
    pub threads: usize,
    /// Stripe count; `0` means "same as `threads`". Clamped so every
    /// stripe keeps at least [`MIN_STRIPE_ROWS`] rows.
    pub shards: usize,
    /// Chromatic phases per round: shard `k` runs in phase `k % colors`.
    /// Deferral already makes same-phase shards conflict-free, so `1`
    /// (all shards concurrent) is sound and fastest; higher values
    /// reproduce the classic checkerboard schedule (and halve peak
    /// parallelism per extra color).
    pub colors: usize,
    /// Proposals per round between reconciliation passes; `0` means `n`.
    pub round_proposals: u64,
    /// Explicit interior stripe boundary rows (each `lo < b < hi` of the
    /// raster's row range, strictly ascending). Overrides `shards` and the
    /// balanced banding, and skips the [`MIN_STRIPE_ROWS`] clamp — the
    /// seam-placement test hook. Invalid boundaries panic.
    pub boundaries: Option<Vec<i32>>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 1,
            shards: 0,
            colors: 1,
            round_proposals: 0,
            boundaries: None,
        }
    }
}

impl ParallelConfig {
    /// The default schedule for `threads` worker threads (one stripe per
    /// thread, one phase).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            ..ParallelConfig::default()
        }
    }
}

/// Statistics from a sharded run. Outcome counts travel through the same
/// nine [`StepOutcome`] classes as sequential stepping, so `steps` always
/// equals the sum of `outcome_counts` — every proposal, deferred or not,
/// is accounted exactly once (the conservation law the equivalence suite
/// checks).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelReport {
    /// Proposals evaluated (= the `steps` argument).
    pub steps: u64,
    /// Proposals that changed the state.
    pub accepted: u64,
    /// Proposals deferred to a reconciliation pass because their footprint
    /// crossed a stripe seam or the raster edge.
    pub deferred: u64,
    /// Rounds executed (each ends with one reconciliation pass).
    pub rounds: u64,
    /// Largest shard count any round actually used.
    pub shards: usize,
    /// Steps run through the sequential kernel because no raster was
    /// available.
    pub fallback_steps: u64,
    /// Per-class outcome totals, indexed like [`StepOutcome::ALL`].
    pub outcome_counts: [u64; 9],
}

impl ParallelReport {
    /// Total occurrences of `outcome`.
    #[must_use]
    pub fn count(&self, outcome: StepOutcome) -> u64 {
        self.outcome_counts[outcome as usize]
    }

    fn tally(&mut self, outcome: StepOutcome) {
        self.steps += 1;
        self.accepted += u64::from(outcome.accepted());
        self.outcome_counts[outcome as usize] += 1;
    }
}

/// One stripe of the schedule: rows `lo ≤ y < hi` plus this round's slot
/// list and proposal quota.
struct Stripe {
    lo: i32,
    hi: i32,
    slots: Vec<Node>,
    quota: u64,
}

/// A change one shard committed to its raster band, with the counter
/// deltas it evaluated mid-round (recomputing them after the round, when
/// other in-stripe changes have landed, would be wrong).
enum LogEntry {
    Move {
        from: Node,
        to: Node,
        d_edges: i64,
        d_hetero: i64,
    },
    Swap {
        a: Node,
        b: Node,
        d_hetero: i64,
    },
}

/// Everything a shard worker hands back to the merge pass.
struct ShardOutput {
    log: Vec<LogEntry>,
    /// `(slot index, direction index)` of each deferred proposal, in draw
    /// order. Resolved against the slot list as of its reconciliation
    /// turn (accepted deferred moves update their slot): the deferred
    /// activation belongs to whichever particle occupies that slot when
    /// its turn comes, which is exactly the particle a sequential replay
    /// of the schedule would find there.
    deferred: Vec<(u32, u8)>,
    counts: [u64; 9],
    slots: Vec<Node>,
}

/// A worker's private window into the raster: a `&mut` band of whole rows.
/// All indexing trusts the footprint check — every node a non-deferred
/// proposal touches is inside the band, so plain slice indexing (panic on
/// violation, no unsafe) is both the fast path and the safety net.
struct StripeView<'a> {
    cells: &'a mut [u8],
    stride: usize,
    min_x: i32,
    lo_y: i32,
    /// Inclusive footprint clamp, in lattice coordinates (i64 so that
    /// `position + reach` can never overflow at the i32 extremes).
    x_lo: i64,
    x_hi: i64,
    y_lo: i64,
    y_hi: i64,
}

impl StripeView<'_> {
    #[inline]
    fn idx(&self, node: Node) -> usize {
        (node.y - self.lo_y) as usize * self.stride + (node.x - self.min_x) as usize
    }

    #[inline]
    fn code(&self, node: Node) -> u8 {
        self.cells[self.idx(node)]
    }

    #[inline]
    fn set(&mut self, node: Node, code: u8) {
        let i = self.idx(node);
        self.cells[i] = code;
    }
}

impl SeparationChain {
    /// Runs `steps` proposals on `threads` worker threads (one stripe per
    /// thread) and returns the merged report. Equivalent to
    /// [`SeparationChain::run_parallel_with`] with
    /// [`ParallelConfig::with_threads`].
    ///
    /// The trajectory is deterministic in (state, seed, `threads`); see
    /// the module docs for the full contract, and note that different
    /// thread counts are different schedules with different (equally
    /// valid) trajectories.
    pub fn run_parallel(
        &self,
        config: &mut Configuration,
        steps: u64,
        threads: usize,
        rng: &mut StdRng,
    ) -> ParallelReport {
        self.run_parallel_with(config, steps, &ParallelConfig::with_threads(threads), rng)
    }

    /// Runs `steps` proposals under an explicit shard schedule.
    ///
    /// # Panics
    ///
    /// Panics on invalid explicit `boundaries`, if a worker thread dies,
    /// or if the merge pass detects counter corruption (see the module
    /// docs — at that point the raster half of a transition is already
    /// applied, so there is no consistent state to return).
    pub fn run_parallel_with(
        &self,
        config: &mut Configuration,
        steps: u64,
        pcfg: &ParallelConfig,
        rng: &mut StdRng,
    ) -> ParallelReport {
        let mut report = ParallelReport::default();
        let mut remaining = steps;
        config.widen_raster();
        while remaining > 0 {
            if config.raster().is_none() {
                // Too sparse to rasterize: sequential degradation.
                for _ in 0..remaining {
                    let outcome = self.step_detailed(config, rng);
                    report.tally(outcome);
                }
                report.fallback_steps += remaining;
                break;
            }
            let round_len = if pcfg.round_proposals > 0 {
                pcfg.round_proposals.min(remaining)
            } else {
                (config.len() as u64).min(remaining)
            };
            let mut stripes = plan_round(config, pcfg, round_len);
            let colors = pcfg.colors.max(1);

            // Per-shard streams now, reconciliation stream after them, and
            // the caller's generator ends up past all of them.
            let mut streams = Vec::with_capacity(stripes.len());
            for _ in 0..stripes.len() {
                streams.push(rng.clone());
                rng.jump();
            }
            let mut recon_rng = rng.clone();
            rng.jump();

            report.rounds += 1;
            report.shards = report.shards.max(stripes.len());

            let mut outputs: Vec<Option<ShardOutput>> = Vec::new();
            outputs.resize_with(stripes.len(), || None);

            {
                let raster = config
                    .raster_mut()
                    .expect("raster checked present at round start");
                let stride = raster.width() as usize;
                let min_x = raster.min_x();
                let min_y = raster.min_y();
                let x_hi = i64::from(min_x) + i64::from(raster.width()) - 1;
                for phase in 0..colors {
                    run_phase(
                        self,
                        raster,
                        &mut stripes,
                        &streams,
                        &mut outputs,
                        phase,
                        colors,
                        stride,
                        min_x,
                        min_y,
                        x_hi,
                    );
                }
            }

            // Merge pass: change logs in shard order, through the checked
            // counter paths. The raster is already current.
            for output in outputs.iter().flatten() {
                for entry in &output.log {
                    match *entry {
                        LogEntry::Move {
                            from,
                            to,
                            d_edges,
                            d_hetero,
                        } => config.apply_sharded_move(from, to, d_edges, d_hetero),
                        LogEntry::Swap { a, b, d_hetero } => {
                            config.apply_sharded_swap(a, b, d_hetero);
                        }
                    }
                }
                for (outcome, &count) in StepOutcome::ALL.iter().zip(&output.counts) {
                    report.steps += count;
                    report.outcome_counts[*outcome as usize] += count;
                    if outcome.accepted() {
                        report.accepted += count;
                    }
                }
            }

            // Reconciliation pass: every deferred proposal, in shard then
            // draw order, through the live sequential kernel. Slot
            // bindings stay live — an accepted deferred move updates its
            // slot, so later deferred proposals in the same round resolve
            // against the current occupancy.
            for output in outputs.iter_mut().flatten() {
                let deferred = std::mem::take(&mut output.deferred);
                for (slot, dir) in deferred {
                    let node = output.slots[slot as usize];
                    let dir = DIRECTIONS[dir as usize];
                    let particle = config
                        .index_at(node)
                        .expect("a slot node is occupied by construction");
                    let outcome = self.propose(config, particle, dir, &mut recon_rng);
                    if outcome == StepOutcome::MoveAccepted {
                        output.slots[slot as usize] = node.neighbor(dir);
                    }
                    report.tally(outcome);
                    report.deferred += 1;
                }
            }

            remaining -= round_len;
        }
        report
    }
}

/// Runs the identical shard schedule single-threaded: same plan, same
/// streams, same deferral rule, but every non-deferred proposal goes
/// through the live sequential [`SeparationChain::propose`] kernel in
/// shard order instead of a concurrent stripe kernel.
///
/// Because same-phase stripes only ever touch their own rows, the
/// concurrent execution is bit-for-bit equal to this sequential replay —
/// which makes this function the multi-shard equivalence oracle (the
/// sharded analogue of `propose_reference`): `run_parallel_with` and
/// `run_sharded_reference` must produce identical states, reports, and
/// RNG positions for any (state, seed, schedule).
pub fn run_sharded_reference(
    chain: &SeparationChain,
    config: &mut Configuration,
    steps: u64,
    pcfg: &ParallelConfig,
    rng: &mut StdRng,
) -> ParallelReport {
    let mut report = ParallelReport::default();
    let mut remaining = steps;
    config.widen_raster();
    while remaining > 0 {
        if config.raster().is_none() {
            for _ in 0..remaining {
                let outcome = chain.step_detailed(config, rng);
                report.tally(outcome);
            }
            report.fallback_steps += remaining;
            break;
        }
        let round_len = if pcfg.round_proposals > 0 {
            pcfg.round_proposals.min(remaining)
        } else {
            (config.len() as u64).min(remaining)
        };
        let mut stripes = plan_round(config, pcfg, round_len);
        let mut streams = Vec::with_capacity(stripes.len());
        for _ in 0..stripes.len() {
            streams.push(rng.clone());
            rng.jump();
        }
        let mut recon_rng = rng.clone();
        rng.jump();

        report.rounds += 1;
        report.shards = report.shards.max(stripes.len());

        // Round-start raster extent: the parallel kernel clamps footprints
        // against it, and in-stripe commits can never change it mid-round.
        let (x_lo, x_hi) = {
            let raster = config.raster().expect("raster checked above");
            let lo = i64::from(raster.min_x());
            (lo, lo + i64::from(raster.width()) - 1)
        };

        let mut deferred: Vec<Vec<(u32, u8)>> = vec![Vec::new(); stripes.len()];
        for (k, stripe) in stripes.iter_mut().enumerate() {
            if stripe.quota == 0 {
                continue;
            }
            let stream = &mut streams[k];
            let slot_sampler = PreparedUniform::new(stripe.slots.len() as u64);
            let dir_sampler = PreparedUniform::new(6);
            for _ in 0..stripe.quota {
                let slot = slot_sampler.sample(stream) as usize;
                let dir_idx = dir_sampler.sample(stream) as usize;
                let dir = DIRECTIONS[dir_idx];
                let from = stripe.slots[slot];
                if footprint_escapes(
                    from,
                    dir,
                    x_lo,
                    x_hi,
                    i64::from(stripe.lo),
                    i64::from(stripe.hi) - 1,
                ) {
                    deferred[k].push((slot as u32, dir_idx as u8));
                    continue;
                }
                let particle = config
                    .index_at(from)
                    .expect("a slot node is occupied by construction");
                let outcome = chain.propose(config, particle, dir, stream);
                if outcome == StepOutcome::MoveAccepted {
                    stripe.slots[slot] = from.neighbor(dir);
                }
                report.tally(outcome);
            }
        }

        for (k, stripe) in stripes.iter_mut().enumerate() {
            for &(slot, dir) in &deferred[k] {
                let node = stripe.slots[slot as usize];
                let dir = DIRECTIONS[dir as usize];
                let particle = config
                    .index_at(node)
                    .expect("a slot node is occupied by construction");
                let outcome = chain.propose(config, particle, dir, &mut recon_rng);
                if outcome == StepOutcome::MoveAccepted {
                    stripe.slots[slot as usize] = node.neighbor(dir);
                }
                report.tally(outcome);
                report.deferred += 1;
            }
        }
        remaining -= round_len;
    }
    report
}

/// The deferral predicate, shared verbatim by the parallel kernel and the
/// reference replay: true iff the proposal's 10-node footprint leaves the
/// inclusive window `[x_lo, x_hi] × [y_lo, y_hi]`.
#[inline]
fn footprint_escapes(
    from: Node,
    dir: sops_lattice::Direction,
    x_lo: i64,
    x_hi: i64,
    y_lo: i64,
    y_hi: i64,
) -> bool {
    let fb = pair_footprint_bounds(dir);
    let fx = i64::from(from.x);
    let fy = i64::from(from.y);
    fx + i64::from(fb.min_dx) < x_lo
        || fx + i64::from(fb.max_dx) > x_hi
        || fy + i64::from(fb.min_dy) < y_lo
        || fy + i64::from(fb.max_dy) > y_hi
}

/// Computes this round's stripes: boundaries, slot lists in particle-index
/// order, and proportional proposal quotas summing to exactly `round_len`.
fn plan_round(config: &Configuration, pcfg: &ParallelConfig, round_len: u64) -> Vec<Stripe> {
    let raster = config.raster().expect("planning requires a raster");
    let r0 = raster.min_y();
    let r1 = r0 + raster.height() as i32;
    let bounds = match &pcfg.boundaries {
        Some(cuts) => {
            let mut bounds = Vec::with_capacity(cuts.len() + 1);
            let mut lo = r0;
            for &cut in cuts {
                assert!(
                    cut > lo && cut < r1,
                    "stripe boundary {cut} outside ({lo}, {r1})"
                );
                bounds.push((lo, cut));
                lo = cut;
            }
            bounds.push((lo, r1));
            bounds
        }
        None => {
            let want = if pcfg.shards > 0 {
                pcfg.shards
            } else {
                pcfg.threads.max(1)
            };
            let max_shards = (raster.height() / MIN_STRIPE_ROWS).max(1) as usize;
            plan_balanced_stripes(config, r0, raster.height(), want.clamp(1, max_shards))
        }
    };

    let mut stripes: Vec<Stripe> = bounds
        .into_iter()
        .map(|(lo, hi)| Stripe {
            lo,
            hi,
            slots: Vec::new(),
            quota: 0,
        })
        .collect();

    // Slot lists in particle-index order: with one stripe this makes slot
    // index == particle index, the anchor of the 1-shard equivalence.
    for i in 0..config.len() {
        let p = config.position_of(i);
        let k = stripes
            .iter()
            .position(|s| p.y >= s.lo && p.y < s.hi)
            .expect("every particle row lies in exactly one stripe");
        stripes[k].slots.push(p);
    }

    // Quotas proportional to slot counts, largest-remainder-free variant:
    // floor everything, then hand the (< #nonempty) leftovers to nonempty
    // stripes in index order. Deterministic and sums exactly.
    let total = config.len() as u64;
    let mut assigned = 0u64;
    for stripe in &mut stripes {
        stripe.quota =
            ((u128::from(round_len) * stripe.slots.len() as u128) / u128::from(total)) as u64;
        assigned += stripe.quota;
    }
    let mut leftover = round_len - assigned;
    for stripe in &mut stripes {
        if leftover == 0 {
            break;
        }
        if !stripe.slots.is_empty() {
            stripe.quota += 1;
            leftover -= 1;
        }
    }
    debug_assert_eq!(leftover, 0, "quota distribution must exhaust the round");
    stripes
}

/// Balanced banding: cuts the raster's `height` rows into `shards` stripes
/// of ≥ [`MIN_STRIPE_ROWS`] rows whose particle counts are as equal as a
/// row-aligned cut allows, by walking the per-row particle histogram.
fn plan_balanced_stripes(
    config: &Configuration,
    r0: i32,
    height: u32,
    shards: usize,
) -> Vec<(i32, i32)> {
    let r1 = r0 + height as i32;
    if shards <= 1 {
        return vec![(r0, r1)];
    }
    let height = height as usize;
    let min_rows = MIN_STRIPE_ROWS as usize;
    let mut hist = vec![0u64; height];
    for i in 0..config.len() {
        hist[(config.position_of(i).y - r0) as usize] += 1;
    }
    let total = config.len() as u64;
    let mut bounds = Vec::with_capacity(shards);
    let mut lo = 0usize;
    let mut row = 0usize;
    let mut cum = 0u64;
    for k in 0..shards - 1 {
        let target = total * (k as u64 + 1) / shards as u64;
        let min_hi = lo + min_rows;
        let max_hi = height - min_rows * (shards - 1 - k);
        let mut hi = min_hi;
        while row < hi {
            cum += hist[row];
            row += 1;
        }
        while hi < max_hi && cum < target {
            cum += hist[row];
            row += 1;
            hi += 1;
        }
        bounds.push((r0 + lo as i32, r0 + hi as i32));
        lo = hi;
    }
    bounds.push((r0 + lo as i32, r1));
    bounds
}

/// Runs every stripe of one chromatic phase concurrently: scoped threads
/// over disjoint `split_at_mut` row bands of the raster (inline on the
/// calling thread when the phase has a single busy stripe — with one
/// shard, the engine spawns no threads at all).
#[allow(clippy::too_many_arguments)]
fn run_phase(
    chain: &SeparationChain,
    raster: &mut ColorGrid,
    stripes: &mut [Stripe],
    streams: &[StdRng],
    outputs: &mut [Option<ShardOutput>],
    phase: usize,
    colors: usize,
    stride: usize,
    min_x: i32,
    min_y: i32,
    x_hi: i64,
) {
    let mut jobs: Vec<(usize, StripeView<'_>, Vec<Node>, u64, StdRng)> = Vec::new();
    let mut rest: &mut [u8] = raster.cells_mut();
    let mut consumed_rows = 0usize;
    for (k, stripe) in stripes.iter_mut().enumerate() {
        let rows = (stripe.hi - stripe.lo) as usize;
        debug_assert_eq!(consumed_rows, (stripe.lo - min_y) as usize);
        let (band, tail) = rest.split_at_mut(rows * stride);
        rest = tail;
        consumed_rows += rows;
        if k % colors != phase || stripe.quota == 0 {
            continue;
        }
        let view = StripeView {
            cells: band,
            stride,
            min_x,
            lo_y: stripe.lo,
            x_lo: i64::from(min_x),
            x_hi,
            y_lo: i64::from(stripe.lo),
            y_hi: i64::from(stripe.hi) - 1,
        };
        jobs.push((
            k,
            view,
            std::mem::take(&mut stripe.slots),
            stripe.quota,
            streams[k].clone(),
        ));
    }

    let finished: Vec<(usize, ShardOutput)> = if jobs.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(k, view, slots, quota, stream)| {
                    scope.spawn(move || (k, run_stripe(chain, view, slots, quota, stream)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    } else {
        jobs.into_iter()
            .map(|(k, view, slots, quota, stream)| {
                (k, run_stripe(chain, view, slots, quota, stream))
            })
            .collect()
    };
    for (k, output) in finished {
        // Hand the (possibly updated) slot list back for the next phase's
        // bookkeeping and deferred resolution.
        stripes[k].slots = output.slots.clone();
        outputs[k] = Some(output);
    }
}

/// The per-shard kernel: a fused scalar proposal loop over the stripe's
/// raster band, draw-for-draw and guard-for-guard identical to
/// [`SeparationChain::propose`] restricted to in-stripe footprints.
fn run_stripe(
    chain: &SeparationChain,
    mut view: StripeView<'_>,
    mut slots: Vec<Node>,
    quota: u64,
    mut rng: StdRng,
) -> ShardOutput {
    let mut out = ShardOutput {
        log: Vec::new(),
        deferred: Vec::new(),
        counts: [0; 9],
        slots: Vec::new(),
    };
    if quota > 0 {
        assert!(!slots.is_empty(), "a nonzero quota requires occupied slots");
        let slot_sampler = PreparedUniform::new(slots.len() as u64);
        let dir_sampler = PreparedUniform::new(6);
        for _ in 0..quota {
            let slot = slot_sampler.sample(&mut rng) as usize;
            let dir_idx = dir_sampler.sample(&mut rng) as usize;
            let dir = DIRECTIONS[dir_idx];
            let from = slots[slot];

            if footprint_escapes(from, dir, view.x_lo, view.x_hi, view.y_lo, view.y_hi) {
                out.deferred.push((slot as u32, dir_idx as u8));
                continue;
            }

            let to = from.neighbor(dir);
            let target_code = view.code(to);
            let outcome = if target_code != 0 {
                // Swap branch, in `propose`'s exact order: the two 1-probe
                // holds first, no ring gather, no filter draw.
                let own_code = view.code(from);
                if target_code == own_code {
                    StepOutcome::SameColorHold
                } else if !chain.swaps_enabled() {
                    StepOutcome::TargetOccupiedHold
                } else {
                    let ci = grid::decode(own_code);
                    let cj = grid::decode(target_code);
                    let ring = gather(&view, from, dir);
                    let gain_i =
                        ring.colored_in(RING_TO_SIDE, ci) - ring.colored_in(RING_FROM_SIDE, ci);
                    let gain_j =
                        ring.colored_in(RING_FROM_SIDE, cj) - ring.colored_in(RING_TO_SIDE, cj);
                    if chain.metropolis_swap(gain_i + gain_j, &mut rng) {
                        view.set(from, target_code);
                        view.set(to, own_code);
                        out.log.push(LogEntry::Swap {
                            a: from,
                            b: to,
                            d_hetero: -i64::from(gain_i + gain_j),
                        });
                        StepOutcome::SwapAccepted
                    } else {
                        StepOutcome::SwapRejectedMetropolis
                    }
                }
            } else {
                let ring = gather(&view, from, dir);
                let e = ring.occupied_in(RING_FROM_SIDE);
                if e == 5 {
                    StepOutcome::MoveRejectedFiveNeighbors
                } else if !properties::MOVEMENT_ALLOWED[ring.occupancy as usize] {
                    StepOutcome::MoveRejectedProperty
                } else {
                    let own_code = view.code(from);
                    let color = grid::decode(own_code);
                    let e_new = ring.occupied_in(RING_TO_SIDE);
                    let ei = ring.colored_in(RING_FROM_SIDE, color);
                    let ei_new = ring.colored_in(RING_TO_SIDE, color);
                    let de = e_new - e;
                    let dei = ei_new - ei;
                    if chain.metropolis_move(de, dei, &mut rng) {
                        view.set(from, 0);
                        view.set(to, own_code);
                        slots[slot] = to;
                        out.log.push(LogEntry::Move {
                            from,
                            to,
                            d_edges: i64::from(de),
                            d_hetero: i64::from(de - dei),
                        });
                        StepOutcome::MoveAccepted
                    } else {
                        StepOutcome::MoveRejectedMetropolis
                    }
                }
            };
            out.counts[outcome as usize] += 1;
        }
    }
    out.slots = slots;
    out
}

/// Ring gather against the stripe band: eight direct byte loads with no
/// range checks — the footprint check already proved every ring node is
/// in-band. Shares [`RingGather::from_codes`] with the sequential raster
/// path so the decode is bit-for-bit common.
#[inline]
fn gather(view: &StripeView<'_>, from: Node, dir: sops_lattice::Direction) -> RingGather {
    let offsets = ring_offsets(dir);
    RingGather::from_codes(core::array::from_fn(|k| view.code(from + offsets[k])))
}
