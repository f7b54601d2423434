//! [`IndexSet`]: a dense bitset over candidate-index ids.
//!
//! An index *configuration* in the paper is a subset `C ⊆ I` of the
//! candidate indexes. Configurations are compared, unioned, and — most
//! importantly for cost derivation (Eq. 1) — subset-tested millions of
//! times per tuning run, so the representation is a plain `Vec<u64>` of
//! bit blocks sized to the candidate universe.

use crate::ids::IndexId;
use serde::{Deserialize, Serialize};
use std::fmt;

const BITS: usize = 64;

/// A set of [`IndexId`]s backed by a fixed-width bitset.
///
/// All sets participating in an operation must have been created with the
/// same `universe` size (the number of candidate indexes); operations on
/// differently-sized sets panic in debug builds.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexSet {
    blocks: Vec<u64>,
    universe: u32,
}

impl IndexSet {
    /// The empty configuration over a universe of `universe` candidates.
    pub fn empty(universe: usize) -> Self {
        Self {
            blocks: vec![0; universe.div_ceil(BITS)],
            universe: universe as u32,
        }
    }

    /// The full configuration (all candidates).
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        for b in &mut s.blocks {
            *b = u64::MAX;
        }
        if let Some(last) = s.blocks.last_mut() {
            let tail = universe % BITS;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        s
    }

    /// Build a set from an iterator of ids.
    pub fn from_ids<I: IntoIterator<Item = IndexId>>(universe: usize, ids: I) -> Self {
        let mut s = Self::empty(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// A singleton configuration `{id}`.
    pub fn singleton(universe: usize, id: IndexId) -> Self {
        Self::from_ids(universe, [id])
    }

    /// Number of candidate indexes this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Raw bit blocks (64 ids per block, ascending). Exposed for batch
    /// scans that do block-wise set algebra across many sets without
    /// materializing intermediate differences.
    #[inline]
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Rebuild a configuration from its raw block array — the inverse of
    /// [`as_blocks`](Self::as_blocks), used when deserializing persisted
    /// warm-store rows. Returns `None` unless [`blocks_fit`](Self::blocks_fit).
    pub fn from_blocks(universe: usize, blocks: Vec<u64>) -> Option<Self> {
        Self::blocks_fit(universe, &blocks).then_some(Self {
            blocks,
            universe: universe as u32,
        })
    }

    /// Whether `blocks` is the block array of a configuration over
    /// `universe`: the block count matches the universe and no bit beyond
    /// it is set (a torn or foreign encoding must not produce an
    /// out-of-range member).
    pub fn blocks_fit(universe: usize, blocks: &[u64]) -> bool {
        if blocks.len() != universe.div_ceil(BITS) {
            return false;
        }
        let tail = universe % BITS;
        match blocks.last() {
            Some(&last) if tail != 0 => last >> tail == 0,
            _ => true,
        }
    }

    #[inline]
    fn check(&self, id: IndexId) {
        debug_assert!(
            id.index() < self.universe as usize,
            "index {id} outside universe {}",
            self.universe
        );
    }

    /// Insert `id`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, id: IndexId) -> bool {
        self.check(id);
        let (b, m) = (id.index() / BITS, 1u64 << (id.index() % BITS));
        let fresh = self.blocks[b] & m == 0;
        self.blocks[b] |= m;
        fresh
    }

    /// Remove `id`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, id: IndexId) -> bool {
        self.check(id);
        let (b, m) = (id.index() / BITS, 1u64 << (id.index() % BITS));
        let present = self.blocks[b] & m != 0;
        self.blocks[b] &= !m;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: IndexId) -> bool {
        self.check(id);
        self.blocks[id.index() / BITS] & (1u64 << (id.index() % BITS)) != 0
    }

    /// Number of indexes in the configuration (`|C|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// `self ⊆ other`. This is the hot operation behind cost derivation.
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// `self ⊇ other`.
    #[inline]
    pub fn is_superset(&self, other: &Self) -> bool {
        other.is_subset(self)
    }

    /// `self \ {excluded} ⊆ other`, without materializing the difference.
    ///
    /// This is the subset test cost derivation performs for every posting
    /// hit (`S ⊆ C ∪ {x} ⇔ S \ {x} ⊆ C`), so it must not clone.
    #[inline]
    pub fn is_subset_except(&self, other: &Self, excluded: IndexId) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.check(excluded);
        let (eb, em) = (excluded.index() / BITS, 1u64 << (excluded.index() % BITS));
        self.blocks
            .iter()
            .enumerate()
            .zip(&other.blocks)
            .all(|((bi, &a), &b)| {
                let mask = if bi == eb { !em } else { u64::MAX };
                a & mask & !b == 0
            })
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Returns `self ∪ {id}` as a new set (the MDP transition `s' = s ∪ {a}`).
    pub fn with(&self, id: IndexId) -> Self {
        let mut s = self.clone();
        s.insert(id);
        s
    }

    /// Returns `self \ {id}` as a new set.
    pub fn without(&self, id: IndexId) -> Self {
        let mut s = self.clone();
        s.remove(id);
        s
    }

    /// Iterate over member ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = IndexId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, &block)| BlockIter {
                block,
                base: bi * BITS,
            })
    }

    /// Iterate over the complement (ids in the universe but not in the set) —
    /// the action set `A(s) = I − s` of the MDP. Walks negated blocks with
    /// `trailing_zeros` (this sits in the MCTS action-set and rollout inner
    /// loops, where a per-id `contains` probe is measurably slower).
    pub fn complement_iter(&self) -> impl Iterator<Item = IndexId> + '_ {
        let n = self.universe();
        self.blocks
            .iter()
            .enumerate()
            .flat_map(move |(bi, &block)| {
                let base = bi * BITS;
                // Mask off bits beyond the universe in the last block.
                let valid = if n - base >= BITS {
                    u64::MAX
                } else {
                    (1u64 << (n - base)) - 1
                };
                BlockIter {
                    block: !block & valid,
                    base,
                }
            })
    }

    /// Collect members into a vector.
    pub fn to_vec(&self) -> Vec<IndexId> {
        self.iter().collect()
    }
}

struct BlockIter {
    block: u64,
    base: usize,
}

impl Iterator for BlockIter {
    type Item = IndexId;

    #[inline]
    fn next(&mut self) -> Option<IndexId> {
        if self.block == 0 {
            return None;
        }
        let tz = self.block.trailing_zeros() as usize;
        self.block &= self.block - 1;
        Some(IndexId::from(self.base + tz))
    }
}

impl fmt::Debug for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<IndexId> for IndexSet {
    /// Builds a set whose universe is just large enough for the max id.
    /// Intended for tests; production code should use [`IndexSet::from_ids`]
    /// with the candidate-universe size.
    fn from_iter<T: IntoIterator<Item = IndexId>>(iter: T) -> Self {
        let ids: Vec<IndexId> = iter.into_iter().collect();
        let universe = ids.iter().map(|i| i.index() + 1).max().unwrap_or(0);
        Self::from_ids(universe, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<IndexId> {
        v.iter().copied().map(IndexId::new).collect()
    }

    #[test]
    fn empty_and_insert() {
        let mut s = IndexSet::empty(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.insert(IndexId::new(5)));
        assert!(!s.insert(IndexId::new(5)));
        assert!(s.contains(IndexId::new(5)));
        assert!(!s.contains(IndexId::new(6)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove() {
        let mut s = IndexSet::from_ids(10, ids(&[1, 3, 7]));
        assert!(s.remove(IndexId::new(3)));
        assert!(!s.remove(IndexId::new(3)));
        assert_eq!(s.to_vec(), ids(&[1, 7]));
    }

    #[test]
    fn subset_relations() {
        let a = IndexSet::from_ids(200, ids(&[1, 64, 130]));
        let b = IndexSet::from_ids(200, ids(&[1, 2, 64, 130, 199]));
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(b.is_superset(&a));
        assert!(a.is_subset(&a));
        let empty = IndexSet::empty(200);
        assert!(empty.is_subset(&a));
    }

    #[test]
    fn union() {
        let mut a = IndexSet::from_ids(70, ids(&[0, 65]));
        let b = IndexSet::from_ids(70, ids(&[1, 65]));
        a.union_with(&b);
        assert_eq!(a.to_vec(), ids(&[0, 1, 65]));
    }

    #[test]
    fn with_without_do_not_mutate() {
        let a = IndexSet::from_ids(10, ids(&[2]));
        let b = a.with(IndexId::new(4));
        assert_eq!(a.len(), 1);
        assert_eq!(b.to_vec(), ids(&[2, 4]));
        let c = b.without(IndexId::new(2));
        assert_eq!(c.to_vec(), ids(&[4]));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn iter_crosses_block_boundaries() {
        let members = ids(&[0, 63, 64, 127, 128]);
        let s = IndexSet::from_ids(130, members.clone());
        assert_eq!(s.to_vec(), members);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn complement() {
        let s = IndexSet::from_ids(5, ids(&[1, 3]));
        let comp: Vec<IndexId> = s.complement_iter().collect();
        assert_eq!(comp, ids(&[0, 2, 4]));
    }

    #[test]
    fn full_set() {
        for n in [0usize, 1, 63, 64, 65, 67, 128, 130] {
            let s = IndexSet::full(n);
            assert_eq!(s.len(), n, "universe {n}");
            assert_eq!(s.to_vec(), (0..n).map(IndexId::from).collect::<Vec<_>>());
            assert_eq!(s.complement_iter().count(), 0, "universe {n}");
        }
        assert!(IndexSet::from_ids(67, ids(&[66])).is_subset(&IndexSet::full(67)));
    }

    #[test]
    fn complement_crosses_block_boundaries() {
        let s = IndexSet::from_ids(130, ids(&[0, 63, 64, 127, 128]));
        let comp: Vec<IndexId> = s.complement_iter().collect();
        let naive: Vec<IndexId> = (0..130usize)
            .map(IndexId::from)
            .filter(|&id| !s.contains(id))
            .collect();
        assert_eq!(comp, naive);
        assert_eq!(comp.len(), 125);
    }

    #[test]
    fn subset_except_matches_materialized_difference() {
        let a = IndexSet::from_ids(200, ids(&[1, 64, 130]));
        let b = IndexSet::from_ids(200, ids(&[1, 130, 199]));
        // a \ {64} = {1, 130} ⊆ b, but a itself is not.
        assert!(!a.is_subset(&b));
        assert!(a.is_subset_except(&b, IndexId::new(64)));
        // Excluding a non-member changes nothing.
        assert!(!a.is_subset_except(&b, IndexId::new(2)));
        assert!(a.is_subset_except(&a, IndexId::new(64)));
    }

    #[test]
    fn display() {
        let s = IndexSet::from_ids(10, ids(&[1, 2]));
        assert_eq!(format!("{s}"), "{I1, I2}");
        assert_eq!(format!("{}", IndexSet::empty(4)), "{}");
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: IndexSet = ids(&[3, 9]).into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_blocks_inverts_as_blocks_and_rejects_bad_input() {
        let s = IndexSet::from_ids(100, ids(&[0, 63, 64, 99]));
        let back = IndexSet::from_blocks(100, s.as_blocks().to_vec()).unwrap();
        assert_eq!(back, s);
        // Wrong block count for the universe.
        assert!(IndexSet::from_blocks(100, vec![0]).is_none());
        assert!(IndexSet::from_blocks(64, vec![0, 0]).is_none());
        // A bit beyond the universe must be rejected, not truncated.
        assert!(IndexSet::from_blocks(100, vec![0, 1 << 40]).is_none());
        // Exactly block-aligned universes have no tail to check.
        assert!(IndexSet::from_blocks(128, vec![u64::MAX, u64::MAX]).is_some());
    }
}
