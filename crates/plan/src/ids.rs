//! Identifier newtypes shared across the workspace, and the host-pair
//! index.
//!
//! Distinct newtypes keep hosts, tree nodes and operators from being mixed
//! up at compile time: a [`HostId`] names a machine participating in the
//! computation, a [`NodeId`] names a node of the combination tree, and an
//! [`OperatorId`] names a combination operator (an internal tree node) —
//! the unit the placement algorithms move between hosts.
//!
//! The hosts form a complete graph whose every unordered pair carries a
//! bandwidth trace, a measurement and a forecast. Every per-pair table in
//! the workspace stores its pair at [`pair_index`], sized by
//! [`pair_count`], and every all-pairs loop walks [`pairs`].

use std::fmt;

/// A participating host (a server machine or the client machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct HostId(usize);

impl HostId {
    /// Creates a host id from an index.
    pub const fn new(index: usize) -> Self {
        HostId(index)
    }

    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A node of the combination tree (server leaf, operator, or client root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from an index.
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A combination operator: an internal node of the tree, and the unit of
/// relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OperatorId(usize);

impl OperatorId {
    /// Creates an operator id from an index.
    pub const fn new(index: usize) -> Self {
        OperatorId(index)
    }

    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

// The three pair helpers are `#[inline]` because the workspace builds
// without LTO and they sit on the run loop's hottest cross-crate paths:
// every cache `observe` and `lookup`, and every transfer start's nominal
// trace and trace cursor.

/// The slot of the host pair `{a, b}` in a per-pair table: the pair
/// `(lo, hi)`, `lo < hi`, lives at `hi·(hi−1)/2 + lo`. The pairs of hosts
/// `0..n` fill exactly the first [`pair_count`]`(n)` slots, so covering
/// one more host appends slots and moves none, and a pair naming a host
/// at or past `n` lands past the table. `None` when `a == b`: a host
/// has no link to itself.
#[inline]
pub fn pair_index(a: HostId, b: HostId) -> Option<usize> {
    let (lo, hi) = if a <= b { (a.0, b.0) } else { (b.0, a.0) };
    (lo != hi).then(|| hi * (hi - 1) / 2 + lo)
}

/// The number of host pairs among `n` hosts, `n·(n−1)/2`: the length of
/// a per-pair table over them.
#[inline]
pub fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Every host pair `(a, b)`, `a < b`, among hosts `0..n`, in
/// lexicographic order: `(0, 1), (0, 2), …, (0, n−1), (1, 2), …`. Trace
/// draws, link ids and probe order follow it, so it is part of every
/// digest.
#[inline]
pub fn pairs(n: usize) -> impl Iterator<Item = (HostId, HostId)> {
    (0..n).flat_map(move |a| (a + 1..n).map(move |b| (HostId(a), HostId(b))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_indices() {
        assert_eq!(HostId::new(3).index(), 3);
        assert_eq!(NodeId::new(7).index(), 7);
        assert_eq!(OperatorId::new(0).index(), 0);
    }

    #[test]
    fn display_is_tagged() {
        assert_eq!(HostId::new(2).to_string(), "h2");
        assert_eq!(NodeId::new(2).to_string(), "n2");
        assert_eq!(OperatorId::new(2).to_string(), "op2");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(HostId::new(1) < HostId::new(2));
        assert!(OperatorId::new(0) < OperatorId::new(5));
    }

    #[test]
    fn pair_index_numbers_the_pairs_of_every_host_count() {
        let h = HostId::new;
        for n in 0..=12 {
            let all: Vec<_> = pairs(n).collect();
            assert_eq!(all.len(), pair_count(n));
            // Lexicographic: strictly increasing, and each pair is lo < hi.
            assert!(all.windows(2).all(|w| w[0] < w[1]), "n = {n}");
            assert!(all.iter().all(|&(a, b)| a < b && b.index() < n));
            // One-to-one onto 0..pair_count(n), and symmetric.
            let mut seen = vec![false; pair_count(n)];
            for &(a, b) in &all {
                let i = pair_index(a, b).expect("two distinct hosts");
                assert_eq!(pair_index(b, a), Some(i));
                assert!(!seen[i], "n = {n}: slot {i} taken twice");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s), "n = {n}: a slot left empty");
            for a in 0..n {
                assert_eq!(pair_index(h(a), h(a)), None);
            }
            // One more host appends slots and moves none.
            for (a, b) in pairs(n + 1) {
                let i = pair_index(a, b).expect("two distinct hosts");
                if b.index() < n {
                    assert!(i < pair_count(n));
                } else {
                    assert!((pair_count(n)..pair_count(n + 1)).contains(&i));
                }
            }
        }
    }
}
