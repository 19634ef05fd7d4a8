//! Proof-by-test that `construct::random_blob`, which tests membership in
//! a bit window, draws exactly what the hashed loop it replaced drew and
//! returns the same nodes in the same order.
//!
//! The oracle is that loop, copied verbatim. It returned `[ORIGIN]` for
//! `n = 0`, where `random_blob` now returns no node; neither draws then.
//!
//! 1. **Seeded streams** — for every `n` in [`SIZES`] and 200 seeds, the
//!    same node list and the same generator state afterwards.
//! 2. **Scripted lines** — an RNG that grows a straight line east, then
//!    hands over to a seeded stream. One line outgrows the window, so the
//!    blob after it probes nodes placed before a doubling. The other
//!    outgrows the raster's cell cap, so the blob is finished with the
//!    hashed set; no allocation of that call may exceed the cap's bits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, RngExt as _, SeedableRng};
use sops_core::construct;
use sops_lattice::{Node, NodeSet, DIRECTIONS};

/// `random_blob` before the membership window, verbatim.
fn random_blob_oracle<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Node> {
    let mut nodes = vec![Node::ORIGIN];
    let mut set = NodeSet::new();
    set.insert(Node::ORIGIN);
    while nodes.len() < n {
        let anchor = nodes[rng.random_range(0..nodes.len())];
        let cand = anchor.neighbor(DIRECTIONS[rng.random_range(0..6usize)]);
        if set.insert(cand) {
            nodes.push(cand);
        }
    }
    nodes
}

const SIZES: [usize; 8] = [0, 1, 2, 3, 7, 100, 1000, 5000];
const SEEDS: u64 = 200;

/// The raster's cell cap, 2²² cells, as bytes of one bit a cell.
const CAP_BYTES: usize = (1 << 22) / 8;

thread_local! {
    /// The largest allocation this thread has asked for since the last
    /// reset. Each test runs on a thread of its own.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct LargestAlloc;

// SAFETY: every call forwards to `System` unchanged; the note is
// bookkeeping beside it, in a const-initialized thread-local that never
// allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST_ALLOC.try_with(|largest| largest.set(largest.get().max(layout.size())));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// Asserts `random_blob` and the oracle agree on `n` nodes from `seed`:
/// same nodes, same generator state afterwards.
fn assert_seeded_blob_matches(n: usize, seed: u64) {
    let mut oracle_rng = StdRng::seed_from_u64(seed);
    let mut rng = oracle_rng.clone();
    let expected = random_blob_oracle(n, &mut oracle_rng);
    assert_eq!(expected.len(), n.max(1), "n = {n}, seed {seed}");
    assert_eq!(
        construct::random_blob(n, &mut rng),
        expected[..n],
        "n = {n}, seed {seed}"
    );
    assert_eq!(
        rng.to_state_bytes(),
        oracle_rng.to_state_bytes(),
        "n = {n}, seed {seed}"
    );
}

#[test]
fn seeded_blobs_match_the_hashed_loop() {
    for n in SIZES {
        for seed in 0..SEEDS {
            assert_seeded_blob_matches(n, seed);
        }
    }
}

/// Words for `random_blob` that grow a straight line east to `line`
/// nodes, then come from `rest`. While the line grows, each attempt
/// anchors at the newest node (word `len − 1`) and heads east (word 0),
/// so every attempt is accepted.
struct EastLine {
    line: u64,
    len: u64,
    direction_next: bool,
    rest: StdRng,
    draws: u64,
}

impl EastLine {
    fn new(line: u64, seed: u64) -> Self {
        EastLine {
            line,
            len: 1,
            direction_next: false,
            rest: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }
}

impl Rng for EastLine {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        if self.len == self.line {
            self.rest.next_u64()
        } else if self.direction_next {
            self.direction_next = false;
            self.len += 1;
            0
        } else {
            self.direction_next = true;
            self.len - 1
        }
    }
}

/// Asserts `random_blob` and the oracle agree on `n` nodes from a line
/// of `line` nodes east and then `seed`'s stream, and returns the largest
/// allocation `random_blob` made.
fn assert_line_blob_matches(n: usize, line: u64, seed: u64) -> usize {
    let mut oracle_rng = EastLine::new(line, seed);
    let expected = random_blob_oracle(n, &mut oracle_rng);
    assert_eq!(
        expected[..line as usize],
        construct::line_nodes(line as usize)[..]
    );

    let mut rng = EastLine::new(line, seed);
    LARGEST_ALLOC.with(|largest| largest.set(0));
    let nodes = construct::random_blob(n, &mut rng);
    let largest = LARGEST_ALLOC.with(Cell::get);

    assert_eq!(nodes, expected, "n = {n}, line {line}, seed {seed}");
    assert_eq!(
        rng.draws, oracle_rng.draws,
        "n = {n}, line {line}, seed {seed}"
    );
    assert_eq!(rng.rest.to_state_bytes(), oracle_rng.rest.to_state_bytes());
    largest
}

#[test]
fn a_line_that_outgrows_the_window_matches_the_hashed_loop() {
    // The window's radius starts at ⌊√100⌋ + 1 = 11; a 40-node line ends at
    // x = 39, so the window doubles at least once, and the 60 random nodes
    // after it probe line nodes placed before the doubling.
    for seed in 0..SEEDS {
        assert_line_blob_matches(100, 40, seed);
    }
}

#[test]
fn a_line_past_the_cell_cap_finishes_hashed_in_bounded_memory() {
    // Doubling from ⌊√3000⌋ + 1 = 55, a window covering x = 2499 has radius
    // 3520: (2·3520 + 1)² bits, about 6 MB. The raster's cap, 2²² cells, is
    // a 2048-cell side, so the blob must finish on the hashed set and no
    // allocation may pass the cap's 512 KiB of bits.
    for seed in 0..4 {
        let largest = assert_line_blob_matches(3000, 2500, seed);
        assert!(largest <= CAP_BYTES, "{largest} bytes > {CAP_BYTES}");
    }
}
