//! Property-based invariant tests for the chain and its substrates
//! (proptest over random seeds, parameters, and system sizes).

use std::ops::ControlFlow;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sops::chains::checkpoint::snapshot_checksum;
use sops::chains::{
    run_supervised, CancelToken, Checkpoint, CheckpointStore, MarkovChain, SnapshotRng as _,
    StateCodec, SupervisedOptions,
};
use sops::core::{construct, properties, Bias, Color, Configuration, SeparationChain};
use sops::lattice::{Node, DIRECTIONS};

fn random_config(n: usize, n1: usize, seed: u64) -> Configuration {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = construct::hexagonal_spiral(n);
    Configuration::new(construct::bicolor_random(nodes, n1, &mut rng)).unwrap()
}

/// The `format!`-based v1 snapshot renderer, kept verbatim as the oracle
/// of the v1 layout: every v1 snapshot on disk was written by it or by a
/// byte-identical successor, so `Checkpoint::from_bytes` must read all
/// of its output.
mod v1_oracle {
    use sops::chains::StateCodec;

    const MAGIC: &str = "sops-checkpoint v1";

    /// FNV-1a 64-bit hash, the snapshot content checksum.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn hex_encode(bytes: &[u8]) -> String {
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Renders the snapshot payload (everything the checksum covers) from
    /// borrowed parts, so the runner can serialize without moving the state.
    fn render_payload<S: StateCodec>(
        step: u64,
        accepted: u64,
        rng_state: &[u8],
        log: &[(u64, f64)],
        state: &S,
        aux: &[u8],
    ) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("step {step}\n"));
        out.push_str(&format!("accepted {accepted}\n"));
        out.push_str(&format!("rng {}\n", hex_encode(rng_state)));
        out.push_str(&format!("log {}\n", log.len()));
        for (t, v) in log {
            // Exact bits, so the resumed log is bitwise-identical.
            out.push_str(&format!("{t} {:016x}\n", v.to_bits()));
        }
        out.push_str(&format!("state {}\n", hex_encode(&state.encode_state())));
        if !aux.is_empty() {
            // Omitted entirely when empty so non-adaptive snapshots keep the
            // exact pre-sidecar byte layout.
            out.push_str(&format!("aux {}\n", hex_encode(aux)));
        }
        out
    }

    /// Serializes snapshot parts, checksum line included.
    pub fn render_text<S: StateCodec>(
        step: u64,
        accepted: u64,
        rng_state: &[u8],
        log: &[(u64, f64)],
        state: &S,
        aux: &[u8],
    ) -> String {
        let payload = render_payload(step, accepted, rng_state, log, state, aux);
        format!("{payload}checksum {:016x}\n", fnv1a(payload.as_bytes()))
    }
}

/// The v1 text the oracle renders for `ckpt`.
fn oracle_text<S: StateCodec>(ckpt: &Checkpoint<S>) -> String {
    v1_oracle::render_text(
        ckpt.step,
        ckpt.accepted,
        &ckpt.rng_state,
        &ckpt.log,
        &ckpt.state,
        &ckpt.aux,
    )
}

/// Every field of a snapshot, with log values as their bits and the state
/// as its encoding, so NaNs and signed zeros compare exactly.
type Fields = (u64, u64, Vec<u8>, Vec<(u64, u64)>, Vec<u8>, Vec<u8>);

fn fields<S: StateCodec>(ckpt: &Checkpoint<S>) -> Fields {
    (
        ckpt.step,
        ckpt.accepted,
        ckpt.rng_state.clone(),
        ckpt.log.iter().map(|&(t, v)| (t, v.to_bits())).collect(),
        ckpt.state.encode_state(),
        ckpt.aux.clone(),
    )
}

/// The pinned snapshot: every header field, two log lines and a sidecar.
fn pinned() -> Checkpoint<u64> {
    Checkpoint {
        step: 42,
        accepted: 17,
        rng_state: vec![1, 2, 3, 4],
        log: vec![(0, 0.5), (21, -1.25)],
        state: 7u64,
        aux: vec![0xff, 0],
    }
}

/// Snapshots at the extremes of every field: `u64::MAX` counters,
/// non-finite and signed-zero log values, empty and non-empty sidecars.
fn extremes() -> [Checkpoint<u64>; 2] {
    let extremes = Checkpoint {
        step: u64::MAX,
        accepted: u64::MAX,
        rng_state: Vec::new(),
        log: vec![
            (0, f64::NAN),
            (u64::MAX, f64::INFINITY),
            (10, f64::NEG_INFINITY),
            (100, -0.0),
            (1, f64::MIN_POSITIVE),
        ],
        state: u64::MAX,
        aux: Vec::new(),
    };
    let empty = Checkpoint {
        log: Vec::new(),
        aux: vec![0],
        ..extremes.clone()
    };
    [extremes, empty]
}

/// The v1 layout is pinned as reader input: one literal snapshot, and the
/// oracle's output at the extremes of every field, parse bit-exactly.
#[test]
fn checkpoint_v1_layout_is_pinned() {
    let ckpt = pinned();
    let literal = "sops-checkpoint v1\nstep 42\naccepted 17\nrng 01020304\nlog 2\n\
                   0 3fe0000000000000\n21 bff4000000000000\nstate 0700000000000000\n\
                   aux ff00\nchecksum ec1f403da28deaa7\n";
    assert_eq!(oracle_text(&ckpt), literal);
    assert_eq!(
        Checkpoint::<u64>::from_bytes(literal.as_bytes()).unwrap(),
        ckpt
    );
    for ckpt in extremes() {
        let parsed = Checkpoint::<u64>::from_bytes(oracle_text(&ckpt).as_bytes()).unwrap();
        assert_eq!(fields(&parsed), fields(&ckpt));
    }
}

/// The v2 layout is pinned as writer output: one literal snapshot, whose
/// checksum is `snapshot_checksum` of everything before its line, and
/// round-trips at the extremes of every field.
#[test]
fn checkpoint_v2_layout_is_pinned() {
    let ckpt = pinned();
    let literal: &[u8] = b"sops-checkpoint v2\nstep 42\naccepted 17\nrng 01020304\nlog 2\n\
                           0 3fe0000000000000\n21 bff4000000000000\n\
                           state 8\n\x07\0\0\0\0\0\0\0\naux 2\n\xff\0\n\
                           checksum 0bc5e2071c3d3073\n";
    let bytes = ckpt.to_bytes();
    assert_eq!(
        bytes.escape_ascii().to_string(),
        literal.escape_ascii().to_string()
    );
    let (payload, trailer) = bytes.split_at(bytes.len() - 26);
    assert_eq!(
        trailer,
        format!("checksum {:016x}\n", snapshot_checksum(payload)).as_bytes()
    );
    assert_eq!(Checkpoint::<u64>::from_bytes(literal).unwrap(), ckpt);
    for ckpt in extremes() {
        let parsed = Checkpoint::<u64>::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(fields(&parsed), fields(&ckpt));
    }
}

/// Upgrading keeps resumes bit-identical: a store holding a v1 snapshot
/// of a mid-run configuration resumes from it exactly as an uninterrupted
/// run continues, and the first snapshot written after it is v2.
#[test]
fn v1_snapshot_resumes_bit_identically_and_is_followed_by_v2() {
    const EVERY: u64 = 5_000;
    const STEPS: u64 = 6 * EVERY;
    const RESUME_AT: u64 = 3 * EVERY;
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
    let start = random_config(100, 50, 11);
    let scratch = std::env::temp_dir().join(format!("sops-v1-upgrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let opts = SupervisedOptions {
        steps: STEPS,
        every: EVERY,
        max_rollbacks: 0,
        audit_every: None,
    };
    let run = |state: &mut Configuration, rng: &mut StdRng, store: &CheckpointStore| {
        run_supervised(
            &chain,
            state,
            rng,
            store,
            &opts,
            &CancelToken::new(),
            |_| 0.0,
            |_, _| ControlFlow::Continue(()),
        )
        .unwrap()
    };

    let store_a = CheckpointStore::open(scratch.join("a"), 2).unwrap();
    let mut state_a = start.clone();
    let mut rng_a = StdRng::seed_from_u64(7);
    let run_a = run(&mut state_a, &mut rng_a, &store_a);

    // The same chain to the resume step, chunk by chunk, then persisted as
    // the v1 renderer wrote it.
    let mut mid = start.clone();
    let mut rng_mid = StdRng::seed_from_u64(7);
    let accepted: u64 = (0..RESUME_AT / EVERY)
        .map(|_| chain.run(&mut mid, EVERY, &mut rng_mid))
        .sum();
    let store_b = CheckpointStore::open(scratch.join("b"), 8).unwrap();
    let v1 = v1_oracle::render_text(RESUME_AT, accepted, &rng_mid.rng_state(), &[], &mid, &[]);
    let v1_path = store_b.dir().join(format!("step-{RESUME_AT:020}.ckpt"));
    std::fs::write(&v1_path, &v1).unwrap();

    // Resume with a fresh state and a wrong-seed RNG: both come from the
    // v1 snapshot.
    let mut state_b = start.clone();
    let mut rng_b = StdRng::seed_from_u64(999);
    let run_b = run(&mut state_b, &mut rng_b, &store_b);
    assert_eq!(run_b.resumed_from, Some(RESUME_AT));
    assert_eq!(state_b.encode_state(), state_a.encode_state());
    assert_eq!(rng_b.to_state_bytes(), rng_a.to_state_bytes());
    assert_eq!(run_b.accepted, run_a.accepted);

    let paths = store_b.list().unwrap();
    assert_eq!(paths.len(), 4);
    assert_eq!(std::fs::read(&paths[0]).unwrap(), v1.as_bytes());
    for path in &paths[1..] {
        let bytes = std::fs::read(path).unwrap();
        assert!(
            bytes.starts_with(b"sops-checkpoint v2\n"),
            "{}",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Connectivity, hole-freeness, particle count, and color counts are
    /// invariant under arbitrary runs at arbitrary (λ, γ).
    #[test]
    fn chain_preserves_invariants(
        seed in 0u64..10_000,
        n in 5usize..40,
        lambda in 0.5f64..6.0,
        gamma in 0.5f64..6.0,
        swaps in any::<bool>(),
    ) {
        let n1 = n / 2;
        let mut config = random_config(n, n1, seed);
        let colors_before = config.color_counts();
        let bias = Bias::new(lambda, gamma).unwrap();
        let chain = if swaps {
            SeparationChain::new(bias)
        } else {
            SeparationChain::without_swaps(bias)
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        chain.run(&mut config, 3_000, &mut rng);

        prop_assert!(config.is_connected());
        prop_assert!(!config.has_holes());
        prop_assert_eq!(config.len(), n);
        prop_assert_eq!(config.color_counts(), colors_before);
        let audit = config.audit();
        prop_assert!(audit.is_consistent(), "audit violations: {:?}", audit.violations);
    }

    /// The incrementally maintained observables never drift from a from-
    /// scratch recount, and the perimeter identity holds throughout.
    #[test]
    fn incremental_observables_match_recount(
        seed in 0u64..10_000,
        n in 5usize..30,
        gamma in 0.5f64..5.0,
    ) {
        let mut config = random_config(n, n / 3, seed);
        let chain = SeparationChain::new(Bias::new(3.0, gamma).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..40 {
            chain.run(&mut config, 100, &mut rng);
            let (e, h) = config.recount();
            prop_assert_eq!(config.edge_count(), e);
            prop_assert_eq!(config.hetero_edge_count(), h);
            prop_assert_eq!(config.edge_count(), 3 * n as u64 - config.perimeter() - 3);
            prop_assert_eq!(config.boundary_walk_length(), config.perimeter());
        }
    }

    /// Lemma 7 (reversibility), property-level: whenever a single-particle
    /// move from ℓ to ℓ′ is allowed, the reverse move from ℓ′ to ℓ is
    /// allowed in the resulting configuration.
    #[test]
    fn allowed_moves_are_reversible(
        seed in 0u64..10_000,
        n in 4usize..25,
    ) {
        let config = random_config(n, n / 2, seed);
        let chain = SeparationChain::new(Bias::new(2.0, 2.0).unwrap());
        for p in 0..config.len() {
            let from = config.position_of(p);
            for dir in DIRECTIONS {
                if !chain.move_valid(&config, from, dir) {
                    continue;
                }
                let to = from.neighbor(dir);
                let mut moved = config.clone();
                moved.move_particle(p, to);
                let back = to.direction_to(from).unwrap();
                prop_assert!(
                    chain.move_valid(&moved, to, back),
                    "move {from}→{to} is not reversible (seed {seed})"
                );
            }
        }
    }

    /// Swap moves preserve the multiset of occupied nodes and the total
    /// edge count; double swap is the identity.
    #[test]
    fn swaps_are_involutions(
        seed in 0u64..10_000,
        n in 4usize..25,
    ) {
        let config = random_config(n, n / 2, seed);
        for p in 0..config.len() {
            let a = config.position_of(p);
            for dir in DIRECTIONS {
                let b = a.neighbor(dir);
                if !config.is_occupied(b) {
                    continue;
                }
                let mut swapped = config.clone();
                swapped.swap(a, b);
                prop_assert_eq!(swapped.edge_count(), config.edge_count());
                let (_, h) = swapped.recount();
                prop_assert_eq!(swapped.hetero_edge_count(), h);
                swapped.swap(a, b);
                prop_assert_eq!(swapped.canonical_form(), config.canonical_form());
            }
        }
    }

    /// The min-cut separation certificate is self-consistent on arbitrary
    /// colorings: region + outside partition the system and the counts add
    /// up to the global color counts.
    #[test]
    fn separation_certificates_partition_the_system(
        seed in 0u64..10_000,
        n in 6usize..40,
        n1_frac in 0.2f64..0.8,
    ) {
        let n1 = ((n as f64) * n1_frac) as usize;
        let config = random_config(n, n1, seed);
        for cert in sops::analysis::separation_profile(&config, Color::C1) {
            prop_assert_eq!(cert.region_size + cert.outside_size, n);
            prop_assert_eq!(cert.c1_in_region + cert.c1_outside, n1);
            prop_assert_eq!(cert.region.len(), cert.region_size);
        }
    }

    /// Property 4 and 5 are mutually exclusive on every occupancy pattern
    /// (they require |S| ≥ 1 and |S| = 0 respectively).
    #[test]
    fn properties_4_and_5_are_disjoint(bits in 0u16..256) {
        let occ: [bool; 8] = core::array::from_fn(|i| bits & (1 << i) != 0);
        prop_assert!(!(properties::property4(occ) && properties::property5(occ)));
    }

    /// Checkpoint serialization is lossless for arbitrary configurations,
    /// RNG snapshots, step counters, and observable logs (including
    /// non-finite observable values, compared bit-for-bit): the v2 bytes
    /// round-trip, and the v1 oracle's text parses to the same fields.
    #[test]
    fn checkpoint_text_roundtrip_is_lossless(
        seed in 0u64..10_000,
        n in 2usize..30,
        step in any::<u64>(),
        accepted in any::<u64>(),
        rng_state in proptest::collection::vec(any::<u8>(), 0..64),
        log in proptest::collection::vec((any::<u64>(), any::<f64>()), 0..12),
        aux in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let state = random_config(n, n / 2, seed);
        let ckpt = Checkpoint { step, accepted, rng_state, log, state, aux };
        let bytes = ckpt.to_bytes();
        prop_assert!(bytes.starts_with(b"sops-checkpoint v2\n"));
        let back = Checkpoint::<Configuration>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(fields(&back), fields(&ckpt));
        let v1 = Checkpoint::<Configuration>::from_bytes(oracle_text(&ckpt).as_bytes()).unwrap();
        prop_assert_eq!(fields(&v1), fields(&ckpt));
    }

    /// Any single-byte corruption of a checkpoint snapshot is caught: the
    /// checksum (or the structure it protects) rejects it. A v2 byte is
    /// XORed with a nonzero mask, since raw state bytes may hold any
    /// value; in v1 text the character `z` never occurs, so writing one is
    /// always a genuine change.
    #[test]
    fn corrupted_checkpoint_text_is_rejected(
        seed in 0u64..10_000,
        n in 2usize..20,
        position in any::<prop::sample::Index>(),
        mask in 0u8..255,
    ) {
        let state = random_config(n, n / 2, seed);
        let ckpt = Checkpoint {
            step: 17,
            accepted: 5,
            rng_state: vec![1, 2, 3, 4],
            log: vec![(0, 0.5), (10, 0.25)],
            state,
            aux: vec![9, 8, 7],
        };
        let mut bytes = ckpt.to_bytes();
        let idx = position.index(bytes.len());
        bytes[idx] ^= mask + 1;
        prop_assert!(Checkpoint::<Configuration>::from_bytes(&bytes).is_err());

        let mut text = oracle_text(&ckpt).into_bytes();
        let idx = position.index(text.len());
        text[idx] = b'z';
        prop_assert!(Checkpoint::<Configuration>::from_bytes(&text).is_err());
    }

    /// Canonical forms are invariant under arbitrary translations.
    #[test]
    fn canonical_form_translation_invariance(
        seed in 0u64..10_000,
        n in 2usize..20,
        dx in -50i32..50,
        dy in -50i32..50,
    ) {
        let config = random_config(n, n / 2, seed);
        let translated = Configuration::new(
            config.particles().map(|(nd, c)| (Node::new(nd.x + dx, nd.y + dy), c)),
        )
        .unwrap();
        prop_assert_eq!(config.canonical_form(), translated.canonical_form());
    }
}

/// Deterministic regression: the amoebot system and the centralized chain
/// agree on conservation laws after long runs.
#[test]
fn amoebot_conserves_particles_and_colors() {
    let mut rng = StdRng::seed_from_u64(99);
    let config = random_config(24, 11, 99);
    let colors_before = config.color_counts();
    let mut system = sops::amoebot::AmoebotSystem::new(&config, Bias::new(4.0, 4.0).unwrap(), true);
    for _ in 0..200_000 {
        system.activate_random(&mut rng);
    }
    let after = system.serialized_configuration();
    assert_eq!(after.len(), 24);
    assert_eq!(after.color_counts(), colors_before);
    assert!(after.is_connected());
}
