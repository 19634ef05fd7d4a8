//! Fast hash containers keyed by lattice nodes.
//!
//! The separation chain performs hundreds of millions of occupancy probes in
//! a single run of the paper's Figure 2; `std::collections::HashMap`'s
//! SipHash is measurably the bottleneck there. [`NodeMap`] is a compact
//! open-addressing (linear probing) table over packed node keys with an
//! Fx-style multiplicative hash and backward-shift deletion, so lookups on
//! small neighborhoods are a handful of cache lines with no tombstone decay.

use core::fmt;

use crate::Node;

const FX_MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// Multiplicative hash of a packed node key; only the high bits are used.
#[inline]
fn hash_key(key: u64) -> u64 {
    // One round of multiply-xorshift spreads both coordinate halves into the
    // high bits that index selection uses.
    let h = key.wrapping_mul(FX_MULTIPLIER);
    h ^ (h >> 32)
}

#[derive(Clone, Debug)]
enum Slot<V> {
    Empty,
    Occupied { key: u64, value: V },
}

impl<V> Slot<V> {
    #[inline]
    fn key(&self) -> Option<u64> {
        match self {
            Slot::Empty => None,
            Slot::Occupied { key, .. } => Some(*key),
        }
    }
}

/// A hash map from [`Node`] to `V` tuned for particle-system occupancy.
///
/// Semantically a subset of `HashMap<Node, V>`: insert, remove, lookup, and
/// iteration. Implementation: linear probing over a power-of-two table at
/// ≤ 50% load with backward-shift deletion (no tombstones), so performance
/// does not degrade under the insert/remove churn of a long Markov-chain run.
///
/// # Example
///
/// ```
/// use sops_lattice::{Node, NodeMap};
///
/// let mut occupancy: NodeMap<u8> = NodeMap::new();
/// occupancy.insert(Node::new(0, 0), 1);
/// occupancy.insert(Node::new(1, 0), 2);
/// assert_eq!(occupancy.get(Node::new(0, 0)), Some(&1));
/// assert_eq!(occupancy.remove(Node::new(1, 0)), Some(2));
/// assert_eq!(occupancy.len(), 1);
/// ```
#[derive(Clone)]
pub struct NodeMap<V> {
    slots: Vec<Slot<V>>,
    mask: usize,
    len: usize,
}

impl<V> NodeMap<V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates an empty map that can hold at least `capacity` entries before
    /// resizing.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = (capacity.max(8) * 2).next_power_of_two();
        NodeMap {
            slots: (0..cap).map(|_| Slot::Empty).collect(),
            mask: cap - 1,
            len: 0,
        }
    }

    /// Number of entries in the map.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map contains no entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn index_of(&self, key: u64) -> usize {
        (hash_key(key) as usize) & self.mask
    }

    /// Probes for `key`; returns `Ok(slot)` when found, `Err(first_empty)`
    /// when absent.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let mut i = self.index_of(key);
        loop {
            match &self.slots[i] {
                Slot::Empty => return Err(i),
                Slot::Occupied { key: k, .. } if *k == key => return Ok(i),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Whether `node` is present.
    #[inline]
    #[must_use]
    pub fn contains(&self, node: Node) -> bool {
        self.probe(node.pack()).is_ok()
    }

    /// A reference to the value stored at `node`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, node: Node) -> Option<&V> {
        match self.probe(node.pack()) {
            Ok(i) => match &self.slots[i] {
                Slot::Occupied { value, .. } => Some(value),
                Slot::Empty => unreachable!("probe returned Ok on empty slot"),
            },
            Err(_) => None,
        }
    }

    /// Inserts `value` at `node`, returning the previous value if present.
    pub fn insert(&mut self, node: Node, value: V) -> Option<V> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let key = node.pack();
        match self.probe(key) {
            Ok(i) => {
                let old = core::mem::replace(&mut self.slots[i], Slot::Occupied { key, value });
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Empty => unreachable!("probe returned Ok on empty slot"),
                }
            }
            Err(i) => {
                self.slots[i] = Slot::Occupied { key, value };
                self.len += 1;
                None
            }
        }
    }

    /// Removes and returns the value at `node`, if present.
    ///
    /// Uses backward-shift deletion: subsequent probe-chain entries are moved
    /// back so no tombstones are left behind.
    pub fn remove(&mut self, node: Node) -> Option<V> {
        let key = node.pack();
        let mut i = match self.probe(key) {
            Ok(i) => i,
            Err(_) => return None,
        };
        let removed = core::mem::replace(&mut self.slots[i], Slot::Empty);
        self.len -= 1;

        // Backward shift: walk the chain after i and move back any entry whose
        // preferred position means it can no longer be found across the gap.
        let mut j = (i + 1) & self.mask;
        loop {
            let k = match self.slots[j].key() {
                None => break,
                Some(k) => k,
            };
            let preferred = self.index_of(k);
            // `k` must move back iff the gap at `i` lies cyclically within
            // [preferred, j).
            let between = if preferred <= j {
                preferred <= i && i < j
            } else {
                preferred <= i || i < j
            };
            if between {
                self.slots[i] = core::mem::replace(&mut self.slots[j], Slot::Empty);
                i = j;
            }
            j = (j + 1) & self.mask;
        }

        match removed {
            Slot::Occupied { value, .. } => Some(value),
            Slot::Empty => unreachable!("probe returned Ok on empty slot"),
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = core::mem::replace(&mut self.slots, (0..new_cap).map(|_| Slot::Empty).collect());
        self.mask = new_cap - 1;
        self.len = 0;
        for slot in old {
            if let Slot::Occupied { key, value } = slot {
                // Re-insert without the load check (new table is big enough).
                match self.probe(key) {
                    Err(i) => {
                        self.slots[i] = Slot::Occupied { key, value };
                        self.len += 1;
                    }
                    Ok(_) => unreachable!("duplicate key while rehashing"),
                }
            }
        }
    }

    /// Iterates over `(node, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Node, &V)> + '_ {
        self.slots.iter().filter_map(|s| match s {
            Slot::Occupied { key, value } => Some((Node::unpack(*key), value)),
            Slot::Empty => None,
        })
    }

    /// Iterates over the keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = Node> + '_ {
        self.iter().map(|(n, _)| n)
    }
}

impl<V> Default for NodeMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for NodeMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: PartialEq> PartialEq for NodeMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(n, v)| other.get(n) == Some(v))
    }
}

impl<V: Eq> Eq for NodeMap<V> {}

impl<V> FromIterator<(Node, V)> for NodeMap<V> {
    fn from_iter<T: IntoIterator<Item = (Node, V)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut map = NodeMap::with_capacity(iter.size_hint().0);
        for (n, v) in iter {
            map.insert(n, v);
        }
        map
    }
}

impl<V> Extend<(Node, V)> for NodeMap<V> {
    fn extend<T: IntoIterator<Item = (Node, V)>>(&mut self, iter: T) {
        for (n, v) in iter {
            self.insert(n, v);
        }
    }
}

/// A set of lattice nodes, backed by [`NodeMap`].
///
/// # Example
///
/// ```
/// use sops_lattice::{Node, NodeSet};
///
/// let mut set = NodeSet::new();
/// assert!(set.insert(Node::new(1, 2)));
/// assert!(!set.insert(Node::new(1, 2)));
/// assert!(set.contains(Node::new(1, 2)));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    map: NodeMap<()>,
}

impl NodeSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        NodeSet {
            map: NodeMap::new(),
        }
    }

    /// Creates an empty set sized for at least `capacity` nodes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSet {
            map: NodeMap::with_capacity(capacity),
        }
    }

    /// Number of nodes in the set.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `node` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, node: Node) -> bool {
        self.map.contains(node)
    }

    /// Inserts `node`; returns `true` if it was not already present.
    pub fn insert(&mut self, node: Node) -> bool {
        self.map.insert(node, ()).is_none()
    }

    /// Removes `node`; returns `true` if it was present.
    pub fn remove(&mut self, node: Node) -> bool {
        self.map.remove(node).is_some()
    }

    /// Iterates over the nodes in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = Node> + '_ {
        self.map.keys()
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Node> for NodeSet {
    fn from_iter<T: IntoIterator<Item = Node>>(iter: T) -> Self {
        NodeSet {
            map: iter.into_iter().map(|n| (n, ())).collect(),
        }
    }
}

impl Extend<Node> for NodeSet {
    fn extend<T: IntoIterator<Item = Node>>(&mut self, iter: T) {
        self.map.extend(iter.into_iter().map(|n| (n, ())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m = NodeMap::new();
        assert_eq!(m.insert(Node::new(0, 0), "a"), None);
        assert_eq!(m.insert(Node::new(0, 0), "b"), Some("a"));
        assert_eq!(m.get(Node::new(0, 0)), Some(&"b"));
        assert_eq!(m.remove(Node::new(0, 0)), Some("b"));
        assert_eq!(m.remove(Node::new(0, 0)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = NodeMap::with_capacity(4);
        for x in 0..1000 {
            m.insert(Node::new(x, -x), x);
        }
        assert_eq!(m.len(), 1000);
        for x in 0..1000 {
            assert_eq!(m.get(Node::new(x, -x)), Some(&x));
        }
    }

    #[test]
    fn backward_shift_deletion_keeps_chains_findable() {
        // Heavy churn on a small coordinate window maximizes probe-chain
        // collisions; compare against std::HashMap as the oracle.
        let mut m = NodeMap::with_capacity(8);
        let mut oracle = std::collections::HashMap::new();
        let mut state = 0x9e3779b97f4a7c15_u64;
        for step in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 33) % 23) as i32 - 11;
            let y = ((state >> 13) % 23) as i32 - 11;
            let n = Node::new(x, y);
            if state % 3 == 0 {
                assert_eq!(m.remove(n), oracle.remove(&n), "step {step}");
            } else {
                assert_eq!(m.insert(n, step), oracle.insert(n, step), "step {step}");
            }
            assert_eq!(m.len(), oracle.len());
        }
        for (&n, v) in &oracle {
            assert_eq!(m.get(n), Some(v));
        }
        assert_eq!(m.iter().count(), oracle.len());
    }

    /// Finds `count` distinct nodes whose preferred slot in `map`'s current
    /// table is exactly `idx`, by scanning a coordinate window.
    fn nodes_preferring<V>(map: &NodeMap<V>, idx: usize, count: usize) -> Vec<Node> {
        let mut found = Vec::new();
        'scan: for x in -200..200 {
            for y in -200..200 {
                let n = Node::new(x, y);
                if map.index_of(n.pack()) == idx {
                    found.push(n);
                    if found.len() == count {
                        break 'scan;
                    }
                }
            }
        }
        assert_eq!(found.len(), count, "coordinate window too small");
        found
    }

    #[test]
    fn backward_shift_follows_chain_across_table_seam() {
        // Three keys all preferring the last slot (`mask`) occupy slots
        // mask, 0, 1; a fourth preferring slot 0 is pushed to slot 2. The
        // chain therefore wraps the table seam. Removing the head forces
        // backward-shift to walk the wrap and relocate every survivor.
        let mut m: NodeMap<u32> = NodeMap::with_capacity(8);
        let mask = m.mask;
        let at_seam = nodes_preferring(&m, mask, 3);
        let at_zero = nodes_preferring(&m, 0, 1);
        let mut oracle = std::collections::HashMap::new();
        for (v, &n) in at_seam.iter().chain(&at_zero).enumerate() {
            assert_eq!(m.insert(n, v as u32), None);
            oracle.insert(n, v as u32);
        }
        assert_eq!(m.probe(at_seam[0].pack()), Ok(mask));
        assert_eq!(m.probe(at_seam[2].pack()), Ok(1));
        assert_eq!(m.probe(at_zero[0].pack()), Ok(2));

        // Remove the entry sitting exactly at the seam: the gap starts at
        // `mask` and the shift must wrap through indices 0, 1, 2.
        assert_eq!(m.remove(at_seam[0]), oracle.remove(&at_seam[0]));
        for (&n, v) in &oracle {
            assert_eq!(m.get(n), Some(v), "lost {n:?} after seam-wrapping shift");
        }
        assert_eq!(m.len(), oracle.len());

        // Survivors must have shifted back across the seam, not left a hole.
        assert_eq!(m.probe(at_seam[1].pack()), Ok(mask));
        assert_eq!(m.probe(at_seam[2].pack()), Ok(0));
        assert_eq!(m.probe(at_zero[0].pack()), Ok(1));
    }

    #[test]
    fn backward_shift_leaves_home_entries_in_place_at_seam() {
        // A gap at index 0 must NOT pull back an entry that already sits in
        // its preferred slot 1, nor an entry preferring `mask` that never
        // probed past the seam. The cyclic-interval test [preferred, j)
        // distinguishes both cases.
        let mut m: NodeMap<u32> = NodeMap::with_capacity(8);
        let mask = m.mask;
        let seam_pair = nodes_preferring(&m, mask, 2); // occupy mask, then 0
        let home_one = nodes_preferring(&m, 1, 1); // collides with slot-0 spill
        m.insert(seam_pair[0], 10);
        m.insert(seam_pair[1], 11);
        m.insert(home_one[0], 12);
        assert_eq!(m.probe(seam_pair[1].pack()), Ok(0));
        assert_eq!(m.probe(home_one[0].pack()), Ok(1));

        // Removing the slot-0 spill leaves a gap at 0; the slot-1 entry is
        // at home (gap not in [1, 1) cyclically) and must stay put.
        assert_eq!(m.remove(seam_pair[1]), Some(11));
        assert_eq!(m.probe(home_one[0].pack()), Ok(1));
        assert_eq!(m.get(seam_pair[0]), Some(&10));
        assert_eq!(m.get(home_one[0]), Some(&12));

        // Removing the seam entry leaves a gap at `mask`; nothing after it
        // belongs to its chain, so the table is unchanged elsewhere.
        assert_eq!(m.remove(seam_pair[0]), Some(10));
        assert_eq!(m.probe(home_one[0].pack()), Ok(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn seam_wrapping_churn_matches_oracle_without_growth() {
        // Saturate a fixed-size table to its 50% load ceiling with keys
        // biased toward the seam, then churn remove/insert so gaps repeatedly
        // open at high indices while chains wrap to low ones.
        let mut m: NodeMap<u32> = NodeMap::with_capacity(8);
        let mask = m.mask;
        let mut pool: Vec<Node> = Vec::new();
        for idx in [mask, mask - 1, mask.div_euclid(2), 0, 1] {
            pool.extend(nodes_preferring(&m, idx, 4));
        }
        let mut oracle = std::collections::HashMap::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for step in 0..40_000_u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let n = pool[(state >> 32) as usize % pool.len()];
            // Keep ≤ 7 live entries so with_capacity(8)'s 16-slot table
            // never grows: every shift stays in the seam-heavy layout.
            if state % 5 < 2 && oracle.len() < 7 {
                assert_eq!(m.insert(n, step), oracle.insert(n, step), "step {step}");
            } else {
                assert_eq!(m.remove(n), oracle.remove(&n), "step {step}");
            }
            assert_eq!(m.len(), oracle.len());
        }
        assert_eq!(m.slots.len(), 16, "table grew; seam layout not exercised");
        for (&n, v) in &oracle {
            assert_eq!(m.get(n), Some(v));
        }
    }

    #[test]
    fn iteration_covers_all_entries() {
        let mut m = NodeMap::new();
        for x in -5..5 {
            for y in -5..5 {
                m.insert(Node::new(x, y), x + y);
            }
        }
        let collected: std::collections::HashMap<Node, i32> =
            m.iter().map(|(n, v)| (n, *v)).collect();
        assert_eq!(collected.len(), 100);
        assert_eq!(collected[&Node::new(-3, 2)], -1);
    }

    #[test]
    fn map_equality_is_order_independent() {
        let a: NodeMap<i32> = [(Node::new(0, 0), 1), (Node::new(1, 0), 2)]
            .into_iter()
            .collect();
        let b: NodeMap<i32> = [(Node::new(1, 0), 2), (Node::new(0, 0), 1)]
            .into_iter()
            .collect();
        assert_eq!(a, b);
        let c: NodeMap<i32> = [(Node::new(1, 0), 3), (Node::new(0, 0), 1)]
            .into_iter()
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn node_set_basics() {
        let mut s = NodeSet::new();
        assert!(s.insert(Node::new(2, 2)));
        assert!(!s.insert(Node::new(2, 2)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(Node::new(2, 2)));
        assert!(!s.remove(Node::new(2, 2)));
        assert!(s.is_empty());
    }

    #[test]
    fn node_set_from_iterator_dedups() {
        let s: NodeSet = [Node::new(0, 0), Node::new(0, 0), Node::new(1, 1)]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }
}
