//! Component and interface metrics for heterogeneous configurations.

use sops_core::{Color, Configuration};
use sops_lattice::NodeSet;

/// Sizes of the connected monochromatic components of `color`, descending.
///
/// A well-separated system has one dominant component per color; an
/// integrated system fragments into many small ones.
#[must_use]
pub(crate) fn monochromatic_components(config: &Configuration, color: Color) -> Vec<usize> {
    let mut seen = NodeSet::new();
    let mut sizes = Vec::new();
    for (node, c) in config.particles() {
        if c != color || seen.contains(node) {
            continue;
        }
        let mut size = 0;
        let mut stack = vec![node];
        seen.insert(node);
        while let Some(u) = stack.pop() {
            size += 1;
            for m in u.neighbors() {
                if config.color_at(m) == Some(color) && seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        sizes.push(size);
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// Size of the largest monochromatic component of `color` (0 when the color
/// is absent).
#[must_use]
pub fn largest_monochromatic_component(config: &Configuration, color: Color) -> usize {
    monochromatic_components(config, color)
        .first()
        .copied()
        .unwrap_or(0)
}

/// Fraction of configuration edges that are heterogeneous, `h(σ)/e(σ)`
/// (0 for edgeless systems). Low values indicate separation; for a uniform
/// random bicoloring the expectation is ≈ 1/2.
#[must_use]
pub fn hetero_fraction(config: &Configuration) -> f64 {
    if config.edge_count() == 0 {
        0.0
    } else {
        config.hetero_edge_count() as f64 / config.edge_count() as f64
    }
}

/// Mean over particles of the fraction of their neighbors sharing their
/// color — the local homogeneity statistic used by Schelling-model studies
/// (1.0 = fully segregated neighborhoods).
///
/// Particles with no neighbors contribute 1.0 (vacuously homogeneous).
#[must_use]
pub fn mean_same_color_neighbor_fraction(config: &Configuration) -> f64 {
    let mut total = 0.0;
    for (node, color) in config.particles() {
        let mut nbrs = 0;
        let mut same = 0;
        for m in node.neighbors() {
            if let Some(c) = config.color_at(m) {
                nbrs += 1;
                same += i32::from(c == color);
            }
        }
        total += if nbrs == 0 {
            1.0
        } else {
            f64::from(same) / f64::from(nbrs)
        };
    }
    total / config.len() as f64
}

/// The center of mass of particles of `color` in Cartesian coordinates, or
/// `None` if the color is absent. Distances between per-color centroids give
/// a crude separation signal that needs no subset search.
#[must_use]
pub(crate) fn color_centroid(config: &Configuration, color: Color) -> Option<(f64, f64)> {
    let mut sum = (0.0, 0.0);
    let mut count = 0;
    for (node, c) in config.particles() {
        if c == color {
            let (x, y) = node.to_cartesian();
            sum.0 += x;
            sum.1 += y;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some((sum.0 / f64::from(count), sum.1 / f64::from(count)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_core::Configuration;
    use sops_lattice::Node;

    fn bar(colors: &[u8]) -> Configuration {
        Configuration::new(
            colors
                .iter()
                .enumerate()
                .map(|(x, &c)| (Node::new(x as i32, 0), Color::new(c))),
        )
        .unwrap()
    }

    #[test]
    fn components_of_split_bar() {
        let config = bar(&[0, 0, 0, 1, 1]);
        assert_eq!(monochromatic_components(&config, Color::C1), vec![3]);
        assert_eq!(monochromatic_components(&config, Color::C2), vec![2]);
        assert_eq!(largest_monochromatic_component(&config, Color::C1), 3);
        assert_eq!(largest_monochromatic_component(&config, Color::C3), 0);
    }

    #[test]
    fn components_of_alternating_bar() {
        let config = bar(&[0, 1, 0, 1, 0]);
        assert_eq!(monochromatic_components(&config, Color::C1), vec![1, 1, 1]);
        assert_eq!(hetero_fraction(&config), 1.0);
    }

    #[test]
    fn hetero_fraction_of_split_bar() {
        let config = bar(&[0, 0, 1, 1]);
        assert!((hetero_fraction(&config) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn same_color_neighbor_fraction_extremes() {
        let segregated = bar(&[0, 0, 0, 0]);
        assert!((mean_same_color_neighbor_fraction(&segregated) - 1.0).abs() < 1e-12);
        let alternating = bar(&[0, 1, 0, 1]);
        assert_eq!(mean_same_color_neighbor_fraction(&alternating), 0.0);
    }

    #[test]
    fn centroids_separate_for_split_bar() {
        let config = bar(&[0, 0, 1, 1]);
        let (x1, _) = color_centroid(&config, Color::C1).unwrap();
        let (x2, _) = color_centroid(&config, Color::C2).unwrap();
        assert!((x1 - 0.5).abs() < 1e-12);
        assert!((x2 - 2.5).abs() < 1e-12);
        assert_eq!(color_centroid(&config, Color::C4), None);
    }

    #[test]
    fn single_particle_metrics() {
        let config = bar(&[0]);
        assert_eq!(mean_same_color_neighbor_fraction(&config), 1.0);
        assert_eq!(hetero_fraction(&config), 0.0);
    }
}
