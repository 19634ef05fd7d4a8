//! The point symmetries of the triangular lattice.
//!
//! `G_Δ`'s symmetry group fixing the origin is the dihedral group `D₆`:
//! six rotations (by multiples of 60°) and six reflections. Combined with
//! translations these are all lattice isometries. The enumeration machinery
//! uses them to canonicalize shapes *up to isometry* (free shapes), and the
//! polymer machinery's translation/rotation-invariance hypotheses
//! (Theorem 11) are tested against them.

use crate::Node;

/// One of the twelve point symmetries of `G_Δ` (the dihedral group `D₆`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Isometry {
    /// Number of 60° counterclockwise rotations (0–5).
    rotations: u8,
    /// Whether to reflect first (across the x-axis of the Cartesian
    /// embedding, i.e. `(x, y) ↦ (x + y, −y)` in axial coordinates).
    reflect: bool,
}

impl Isometry {
    /// The identity.
    pub(crate) const IDENTITY: Isometry = Isometry {
        rotations: 0,
        reflect: false,
    };

    /// All twelve elements of `D₆`.
    pub(crate) const ALL: [Isometry; 12] = {
        let mut all = [Isometry::IDENTITY; 12];
        let mut i = 0;
        while i < 12 {
            all[i] = Isometry {
                rotations: (i % 6) as u8,
                reflect: i >= 6,
            };
            i += 1;
        }
        all
    };

    /// Applies this isometry to a node (about the origin).
    #[must_use]
    pub(crate) fn apply(self, node: Node) -> Node {
        let mut n = node;
        if self.reflect {
            // Reflection across the Cartesian x-axis: y ↦ −y. In axial
            // coordinates the Cartesian point is (x + y/2, y·√3/2), so the
            // image has axial coordinates (x + y, −y).
            n = Node::new(n.x + n.y, -n.y);
        }
        n.rotated_by(self.rotations as usize)
    }
}

/// Canonicalizes a set of nodes up to **translation only**: shifts so the
/// lexicographically smallest node is the origin, sorted.
#[must_use]
pub(crate) fn canonical_translation(nodes: &[Node]) -> Vec<Node> {
    let base = nodes
        .iter()
        .copied()
        .min_by_key(|n| (n.x, n.y))
        .expect("node set is nonempty");
    let mut out: Vec<Node> = nodes.iter().map(|&n| n - base).collect();
    out.sort_unstable_by_key(|n| (n.x, n.y));
    out
}

/// Canonicalizes a set of nodes up to **all lattice isometries**
/// (translations + `D₆`): the lexicographically smallest of the twelve
/// translation-canonical images.
///
/// Two shapes have equal canonical forms iff one can be mapped to the
/// other by a lattice isometry — the "free shape" equivalence used to
/// cross-check enumeration counts against the free polyhex numbers.
#[must_use]
pub fn canonical_isometry(nodes: &[Node]) -> Vec<Node> {
    Isometry::ALL
        .iter()
        .map(|g| {
            let image: Vec<Node> = nodes.iter().map(|&n| g.apply(n)).collect();
            canonical_translation(&image)
        })
        .min()
        .expect("twelve images always exist")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_distinct_group_elements() {
        // Distinct as functions: evaluate on a generic pair of nodes.
        let probe = [Node::new(3, 1), Node::new(-2, 5)];
        let mut images = std::collections::HashSet::new();
        for g in Isometry::ALL {
            images.insert((g.apply(probe[0]), g.apply(probe[1])));
        }
        assert_eq!(images.len(), 12);
    }

    #[test]
    fn group_axioms() {
        // `ALL` holds the identity and is closed under composition, so it
        // is a group and `canonical_isometry` minimizes over whole orbits.
        // A linear map is fixed by its images of two independent nodes.
        let probe = [Node::new(3, 1), Node::new(-2, 5)];
        let act = |f: &dyn Fn(Node) -> Node| (f(probe[0]), f(probe[1]));
        let elements: std::collections::HashSet<_> =
            Isometry::ALL.iter().map(|g| act(&|n| g.apply(n))).collect();
        assert!(elements.contains(&act(&|n| n)), "identity missing");
        for g in Isometry::ALL {
            for h in Isometry::ALL {
                let gh = act(&|n| g.apply(h.apply(n)));
                assert!(elements.contains(&gh), "{g:?} ∘ {h:?} is not in ALL");
            }
        }
    }

    #[test]
    fn isometries_preserve_adjacency() {
        let a = Node::new(2, 2);
        for g in Isometry::ALL {
            for b in a.neighbors() {
                assert!(g.apply(a).is_adjacent(g.apply(b)), "{g:?}");
            }
        }
    }

    #[test]
    fn reflection_is_an_involution_distinct_from_rotations() {
        let s = Isometry::ALL[6]; // pure reflection
        assert!(s.reflect);
        let probe = Node::new(1, 2);
        assert_eq!(s.apply(s.apply(probe)), probe);
        // A pure reflection is not any rotation (check on a generic node).
        for k in 0..6 {
            let r = Isometry::ALL[k];
            assert_ne!(s.apply(probe), r.apply(probe));
        }
    }

    #[test]
    fn canonical_isometry_identifies_congruent_shapes() {
        // An L-tromino and its rotated/reflected/translated copies.
        let base = vec![Node::new(0, 0), Node::new(1, 0), Node::new(1, 1)];
        for g in Isometry::ALL {
            let image: Vec<Node> = base.iter().map(|&n| g.apply(n).translated(7, -3)).collect();
            assert_eq!(
                canonical_isometry(&base),
                canonical_isometry(&image),
                "{g:?}"
            );
        }
        // A genuinely different shape (straight tromino) canonicalizes
        // differently.
        let straight = vec![Node::new(0, 0), Node::new(1, 0), Node::new(2, 0)];
        assert_ne!(canonical_isometry(&base), canonical_isometry(&straight));
    }

    #[test]
    fn canonical_translation_is_minimal_at_origin() {
        let nodes = vec![Node::new(5, 5), Node::new(6, 5), Node::new(5, 6)];
        let canon = canonical_translation(&nodes);
        assert_eq!(canon[0], Node::ORIGIN);
        assert_eq!(canon.len(), 3);
    }
}
