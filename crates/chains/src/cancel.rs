//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheaply-cloneable flag shared between whoever
//! wants to stop a computation and the computation itself. Cancellation is
//! *cooperative*: setting the token never interrupts anything by itself —
//! the running code polls [`CancelToken::is_cancelled`] at its own safe
//! points (chunk boundaries in supervised runs, operation boundaries in
//! checkpoint I/O) and winds down from a consistent state. That is the only
//! cancellation model compatible with the durability contract: a snapshot
//! is either fully persisted or not persisted at all, never torn by an
//! asynchronous kill.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable cooperative-cancellation flag.
///
/// All clones observe the same flag: cancelling any clone cancels them
/// all. The flag is one-way — once set it stays set for the lifetime of
/// the token family.
///
/// ```
/// use sops_chains::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    ///
    /// Release, paired with the acquire in [`CancelToken::is_cancelled`]:
    /// whatever the canceller wrote before cancelling is visible to code
    /// that has observed the cancel, so the flag is a safe hand-off point
    /// for any state that goes with it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on any clone of this token.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // Idempotent.
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn independent_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
