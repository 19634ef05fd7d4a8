//! Property-based invariant tests for the chain and its substrates
//! (proptest over random seeds, parameters, and system sizes).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sops::chains::{Checkpoint, MarkovChain, StateCodec};
use sops::core::{construct, properties, Bias, Color, Configuration, SeparationChain};
use sops::lattice::{Node, DIRECTIONS};

fn random_config(n: usize, n1: usize, seed: u64) -> Configuration {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = construct::hexagonal_spiral(n);
    Configuration::new(construct::bicolor_random(nodes, n1, &mut rng)).unwrap()
}

/// The `format!`-based v1 snapshot renderer that `Checkpoint::to_text`
/// replaced, kept verbatim as the byte-layout oracle: every snapshot
/// already on disk was written by it.
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

/// `Checkpoint::to_text` as the v1 oracle renders the same parts.
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

/// The v1 byte layout, pinned by one literal snapshot and by the oracle
/// at the extremes of every field: `u64::MAX` counters, non-finite and
/// signed-zero log values, empty and non-empty sidecars.
#[test]
fn checkpoint_v1_layout_is_pinned() {
    let ckpt = Checkpoint {
        step: 42,
        accepted: 17,
        rng_state: vec![1, 2, 3, 4],
        log: vec![(0, 0.5), (21, -1.25)],
        state: 7u64,
        aux: vec![0xff, 0],
    };
    assert_eq!(
        ckpt.to_text(),
        "sops-checkpoint v1\nstep 42\naccepted 17\nrng 01020304\nlog 2\n\
         0 3fe0000000000000\n21 bff4000000000000\nstate 0700000000000000\n\
         aux ff00\nchecksum ec1f403da28deaa7\n"
    );
    assert_eq!(ckpt.to_text(), oracle_text(&ckpt));

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
    assert_eq!(extremes.to_text(), oracle_text(&extremes));
    let empty = Checkpoint {
        log: Vec::new(),
        aux: vec![0],
        ..extremes
    };
    assert_eq!(empty.to_text(), oracle_text(&empty));
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

    /// Checkpoint text serialization is lossless for arbitrary
    /// configurations, RNG snapshots, step counters, and observable logs
    /// (including non-finite observable values, compared bit-for-bit),
    /// and byte-identical to the v1 oracle.
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
        let text = ckpt.to_text();
        prop_assert_eq!(&text, &oracle_text(&ckpt), "v1 byte layout changed");
        let back = Checkpoint::<Configuration>::from_text(&text).unwrap();
        prop_assert_eq!(back.step, ckpt.step);
        prop_assert_eq!(back.accepted, ckpt.accepted);
        prop_assert_eq!(&back.rng_state, &ckpt.rng_state);
        prop_assert_eq!(&back.aux, &ckpt.aux);
        prop_assert_eq!(back.log.len(), ckpt.log.len());
        for (a, b) in back.log.iter().zip(&ckpt.log) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        prop_assert_eq!(back.state.encode_state(), ckpt.state.encode_state());
    }

    /// Any single-character corruption of a checkpoint snapshot is caught:
    /// the checksum (or the line structure it protects) rejects the text.
    /// The replacement character `z` never occurs in valid snapshots, so
    /// every corruption is a genuine change.
    #[test]
    fn corrupted_checkpoint_text_is_rejected(
        seed in 0u64..10_000,
        n in 2usize..20,
        position in any::<prop::sample::Index>(),
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
        let text = ckpt.to_text();
        let idx = position.index(text.len());
        let mut corrupted: Vec<char> = text.chars().collect();
        corrupted[idx] = 'z';
        let corrupted: String = corrupted.into_iter().collect();
        prop_assert!(Checkpoint::<Configuration>::from_text(&corrupted).is_err());
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
