//! The widths of a configuration's node index. The raster's index plane
//! holds `i + 1` for particle `i` in 8 bits up to 255 particles and in 16
//! bits above, so a system of 65,535 particles is rasterized and one of
//! 65,536 is indexed by a map. Both sides of each boundary must be the same
//! chain: a clean audit, a snapshot that decodes to the same index kind,
//! and a `run` that is the `step` loop.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops::chains::{MarkovChain, StateCodec};
use sops::core::{construct, Bias, Configuration, SeparationChain};

/// The most particles a raster's one-byte index plane indexes.
const NARROW_CAPACITY: usize = 255;

/// The most particles a raster indexes.
const RASTER_CAPACITY: usize = 65_535;

#[test]
fn the_raster_indexes_65535_particles_and_a_map_indexes_more() {
    // At λ = γ = 1 most proposals between the alternating colors commit a
    // swap, so `run` rewrites index entries all through the table, and the
    // audit after it checks every entry against the table.
    let chain = SeparationChain::new(Bias::new(1.0, 1.0).unwrap());
    for n in [
        NARROW_CAPACITY,
        NARROW_CAPACITY + 1,
        RASTER_CAPACITY,
        RASTER_CAPACITY + 1,
    ] {
        let nodes = construct::hexagonal_spiral(n);
        let config = Configuration::new(construct::bicolor_alternating(nodes)).unwrap();
        assert_eq!(config.is_rasterized(), n <= RASTER_CAPACITY, "n = {n}");
        let report = config.audit();
        assert!(report.is_consistent(), "n = {n}: {report}");

        let decoded = Configuration::decode_state(&config.encode_state()).unwrap();
        assert_eq!(decoded.is_rasterized(), config.is_rasterized(), "n = {n}");
        assert!(decoded.particles().eq(config.particles()), "n = {n}");

        let (mut run_config, mut step_config) = (config.clone(), config);
        let mut run_rng = StdRng::seed_from_u64(n as u64);
        let mut step_rng = run_rng.clone();
        let steps = 10_000;
        let accepted = chain.run(&mut run_config, steps, &mut run_rng);
        let expected = (0..steps)
            .filter(|_| chain.step(&mut step_config, &mut step_rng))
            .count() as u64;
        assert_eq!(accepted, expected, "n = {n}: accepted");
        assert!(accepted > 0, "n = {n}: no step accepted");
        assert!(
            run_config.particles().eq(step_config.particles()),
            "n = {n}: state"
        );
        assert_eq!(
            (run_config.edge_count(), run_config.hetero_edge_count()),
            (step_config.edge_count(), step_config.hetero_edge_count()),
            "n = {n}: counters"
        );
        assert_eq!(
            run_rng.to_state_bytes(),
            step_rng.to_state_bytes(),
            "n = {n}: RNG"
        );
        assert_eq!(
            run_config.is_rasterized(),
            step_config.is_rasterized(),
            "n = {n}: index"
        );
        let report = run_config.audit();
        assert!(report.is_consistent(), "n = {n}, after the run: {report}");
    }
}
