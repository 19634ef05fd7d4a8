//! Geometric moment observables: radius of gyration and color-class
//! spread — compass-free compactness measures complementing the perimeter.
//!
//! The perimeter `p(σ)` is the paper's compression observable; the radius
//! of gyration `R_g` (root mean square distance to the centroid, in the
//! Cartesian embedding) is the standard polymer-physics companion: a
//! hexagon of `n` particles has `R_g ≈ 0.37·√n`, a line `R_g ≈ 0.29·n`.

use sops_core::{Color, Configuration};

/// The centroid of all particles in Cartesian coordinates.
#[must_use]
pub(crate) fn centroid(config: &Configuration) -> (f64, f64) {
    let mut sum = (0.0, 0.0);
    for (node, _) in config.particles() {
        let (x, y) = node.to_cartesian();
        sum.0 += x;
        sum.1 += y;
    }
    let n = config.len() as f64;
    (sum.0 / n, sum.1 / n)
}

/// The radius of gyration: √(Σ ‖r_i − r̄‖² / n).
#[must_use]
pub(crate) fn radius_of_gyration(config: &Configuration) -> f64 {
    let (cx, cy) = centroid(config);
    let sum: f64 = config
        .particles()
        .map(|(node, _)| {
            let (x, y) = node.to_cartesian();
            (x - cx).powi(2) + (y - cy).powi(2)
        })
        .sum();
    (sum / config.len() as f64).sqrt()
}

/// Distance between the two color centroids normalized by the overall
/// radius of gyration — a compass-free separation signal: ≈ 0 for mixed
/// systems, ≳ 1 for side-by-side monochromatic lobes. `None` unless both
/// colors are present.
#[must_use]
pub fn centroid_separation(config: &Configuration, a: Color, b: Color) -> Option<f64> {
    let ca = crate::metrics::color_centroid(config, a)?;
    let cb = crate::metrics::color_centroid(config, b)?;
    let d = ((ca.0 - cb.0).powi(2) + (ca.1 - cb.1).powi(2)).sqrt();
    let rg = radius_of_gyration(config);
    if rg == 0.0 {
        None
    } else {
        Some(d / rg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_core::construct;

    #[test]
    fn hexagon_radius_scales_like_sqrt_n() {
        for n in [37usize, 127, 397] {
            let config = construct::hexagonal_bicolored(n, n / 2).unwrap();
            let rg = radius_of_gyration(&config);
            // A uniform disk of n sites at the lattice density 2/√3 has
            // R_g = R/√2 ≈ 0.371·√n.
            let ratio = rg / (n as f64).sqrt();
            assert!((0.3..0.45).contains(&ratio), "n = {n}: R_g/√n = {ratio:.3}");
        }
    }

    #[test]
    fn line_radius_scales_linearly() {
        let short = construct::line_monochromatic(20).unwrap();
        let long = construct::line_monochromatic(80).unwrap();
        let r_short = radius_of_gyration(&short);
        let r_long = radius_of_gyration(&long);
        assert!(
            (r_long / r_short - 4.0).abs() < 0.1,
            "ratio {}",
            r_long / r_short
        );
        // R_g of a unit-spaced line of n points ≈ n/√12.
        assert!((r_long - 80.0 / 12f64.sqrt()).abs() < 0.5);
    }

    #[test]
    fn centroid_separation_distinguishes_split_from_mixed() {
        let split = Configuration::new(construct::bicolor_halfplane(construct::hexagonal_spiral(
            60,
        )))
        .unwrap();
        let mixed = Configuration::new(construct::bicolor_alternating(
            construct::hexagonal_spiral(60),
        ))
        .unwrap();
        let s_split = centroid_separation(&split, Color::C1, Color::C2).unwrap();
        let s_mixed = centroid_separation(&mixed, Color::C1, Color::C2).unwrap();
        assert!(s_split > 4.0 * s_mixed, "{s_split} vs {s_mixed}");
        assert!(s_split > 0.8);
    }

    #[test]
    fn color_radius_handles_absent_colors() {
        let config = construct::line_monochromatic(5).unwrap();
        assert_eq!(centroid_separation(&config, Color::C1, Color::C2), None);
    }

    #[test]
    fn single_particle_moments() {
        let config = Configuration::new([(sops_lattice::Node::new(3, 3), Color::C1)]).unwrap();
        assert_eq!(radius_of_gyration(&config), 0.0);
    }

    use sops_core::Configuration;
}
