//! Individual amoebot particles.

use sops_core::Color;
use sops_lattice::{Direction, Node};

/// One particle of the amoebot system.
///
/// Particles are anonymous in the model; the `usize` ids used by
/// [`crate::AmoebotSystem`] are a simulator artifact (they implement the
/// uniform activation of the scheduler, not inter-particle addressing —
/// the local rule never reads another particle's id).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Amoebot {
    tail: Node,
    head: Node,
    color: Color,
    /// The particle's private "port 0" direction — its personal frame of
    /// reference, never shared (§2.1: no common compass).
    orientation: Direction,
    /// Whether the particle labels its ports clockwise instead of
    /// counterclockwise (private chirality).
    chirality_flipped: bool,
}

impl Amoebot {
    /// Creates a contracted particle at `node` with the given color and the
    /// canonical frame (orientation `E`, counterclockwise ports).
    #[must_use]
    pub fn contracted(node: Node, color: Color) -> Self {
        Amoebot {
            tail: node,
            head: node,
            color,
            orientation: Direction::E,
            chirality_flipped: false,
        }
    }

    /// Creates a contracted particle with an explicit private frame.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn contracted_with_frame(
        node: Node,
        color: Color,
        orientation: Direction,
        chirality_flipped: bool,
    ) -> Self {
        Amoebot {
            tail: node,
            head: node,
            color,
            orientation,
            chirality_flipped,
        }
    }

    /// The particle's immutable color.
    #[inline]
    #[must_use]
    pub fn color(&self) -> Color {
        self.color
    }

    /// The tail node (the particle's origin while expanded; its only node
    /// while contracted).
    #[inline]
    #[must_use]
    pub fn tail(&self) -> Node {
        self.tail
    }

    /// The head node (equal to the tail while contracted).
    #[inline]
    #[must_use]
    pub fn head(&self) -> Node {
        self.head
    }

    /// The global direction of local port `port`, using the particle's
    /// private orientation and chirality.
    #[must_use]
    pub(crate) fn port_direction(&self, port: usize) -> Direction {
        let steps = port % 6;
        if self.chirality_flipped {
            // Reflected particles number their ports clockwise.
            self.orientation.rotated_by(6 - steps)
        } else {
            self.orientation.rotated_by(steps)
        }
    }

    /// Whether the particle is expanded.
    #[inline]
    #[must_use]
    pub(crate) fn is_expanded(&self) -> bool {
        self.tail != self.head
    }

    pub(crate) fn expand_to(&mut self, head: Node) {
        debug_assert!(!self.is_expanded(), "already expanded");
        debug_assert!(self.tail.is_adjacent(head), "expansion target not adjacent");
        self.head = head;
    }

    pub(crate) fn contract_forward(&mut self) {
        debug_assert!(self.is_expanded());
        self.tail = self.head;
    }

    pub(crate) fn contract_back(&mut self) {
        debug_assert!(self.is_expanded());
        self.head = self.tail;
    }

    pub(crate) fn teleport(&mut self, node: Node) {
        debug_assert!(!self.is_expanded(), "cannot relocate an expanded particle");
        self.tail = node;
        self.head = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut p = Amoebot::contracted(Node::new(0, 0), Color::C1);
        assert!(!p.is_expanded());
        assert_eq!(p.tail(), p.head());

        p.expand_to(Node::new(1, 0));
        assert!(p.is_expanded());
        assert_eq!(p.tail(), Node::new(0, 0));
        assert_eq!(p.head(), Node::new(1, 0));

        p.contract_forward();
        assert!(!p.is_expanded());
        assert_eq!(p.tail(), Node::new(1, 0));
    }

    #[test]
    fn contract_back_restores_origin() {
        let mut p = Amoebot::contracted(Node::new(2, 2), Color::C2);
        p.expand_to(Node::new(2, 3));
        p.contract_back();
        assert_eq!(p.tail(), Node::new(2, 2));
        assert!(!p.is_expanded());
        assert_eq!(p.color(), Color::C2);
    }
}
