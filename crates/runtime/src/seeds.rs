//! Deterministic seed derivation for sweep cells.
//!
//! Moved here from `sops-bench` so the runtime and the experiment binaries
//! derive seeds identically. The hash is frozen: every committed result
//! was drawn from it, so changing it moves every published number.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seed value [`seeded`] derives for `(label, replicate)` — FNV-1a of
/// the label XOR the replicate id. Exposed so run manifests can record the
/// exact seed a run started from.
#[must_use]
pub fn seed_hash(label: &str, replicate: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash ^ replicate
}

/// A deterministic RNG for experiment `label` with the given replicate id.
#[must_use]
pub fn seeded(label: &str, replicate: u64) -> StdRng {
    StdRng::seed_from_u64(seed_hash(label, replicate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic_per_label() {
        use rand::RngExt as _;
        let a: u64 = seeded("x", 0).random();
        let b: u64 = seeded("x", 0).random();
        let c: u64 = seeded("y", 0).random();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
