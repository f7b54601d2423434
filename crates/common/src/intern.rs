//! Interned configuration keys.
//!
//! A tuning session looks the same small set of [`IndexSet`]s up over and
//! over: every cached what-if result, every warm-store row, every exact-hit
//! probe keys on a configuration bitset. Hashing a multi-block bitset
//! through `std`'s SipHash on each probe is the single most expensive part
//! of the hit path, so the hot stores intern configurations once —
//! [`ConfigInterner`] maps `IndexSet → u32` with stable insertion-ordered
//! ids — and key their per-query rows by the integer instead
//! ([`IdCostMap`], an open-addressed `u32 → f64` table). A lookup then
//! costs one cheap hash pass over the blocks (to find the id) plus a couple
//! of array probes, and repeated lookups of the *same* interned id skip
//! the bitset entirely.
//!
//! Both tables are plain `Vec`s: reads are `&self` and lock-free, writes
//! take `&mut self`, which matches the cache's write-then-freeze protocol
//! and the warm store's copy-on-write publication.

use crate::bitset::IndexSet;

/// FNV-1a over the configuration's blocks, finished with murmur3's
/// `fmix64` — much cheaper than SipHash for the short, fixed-length block
/// arrays configurations compile to, and deterministic across processes
/// (ids are *not*, they are insertion ordered; only the hash layout relies
/// on this).
///
/// The finalizer is what makes the table's mask usable. A multiply carries
/// bits only upward, so FNV's low bits depend only on the low bits of each
/// block: without `fmix64`, configurations that differ only in candidates
/// at or above bit `k` of their blocks share a slot in a table of `2^k`
/// slots, and linear probing degrades into a scan.
#[inline]
fn hash_blocks(blocks: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in blocks {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Sentinel marking an empty open-addressed slot.
const EMPTY: u32 = u32::MAX;

/// Insertion-ordered interner from [`IndexSet`] to a dense `u32` id.
///
/// Ids are assigned `0, 1, 2, …` in first-seen order and never change, so
/// they can be used as array indices by the caller. The interner owns one
/// clone of each distinct configuration.
#[derive(Clone, Debug, Default)]
pub struct ConfigInterner {
    /// `sets[id]` = the interned configuration (insertion order).
    sets: Vec<IndexSet>,
    /// Open-addressed id table (linear probing, power-of-two capacity).
    table: Vec<u32>,
    mask: usize,
}

impl ConfigInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct configurations interned.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The configuration behind `id`. Panics on a foreign id.
    pub fn resolve(&self, id: u32) -> &IndexSet {
        &self.sets[id as usize]
    }

    /// Interned configurations in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &IndexSet)> {
        self.sets.iter().enumerate().map(|(i, s)| (i as u32, s))
    }

    /// Id of `set` if it was interned before.
    #[inline]
    pub fn get(&self, set: &IndexSet) -> Option<u32> {
        if self.sets.is_empty() {
            return None;
        }
        let mut i = hash_blocks(set.as_blocks()) as usize & self.mask;
        loop {
            let id = self.table[i];
            if id == EMPTY {
                return None;
            }
            if self.sets[id as usize] == *set {
                return Some(id);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Id of `set`, interning it (one clone) on first sight.
    pub fn intern(&mut self, set: &IndexSet) -> u32 {
        if let Some(id) = self.get(set) {
            return id;
        }
        let id = self.sets.len() as u32;
        assert!(id != EMPTY, "interner capacity exhausted");
        self.sets.push(set.clone());
        // Grow at 7/8 load so probe chains stay short.
        if self.table.is_empty() || self.sets.len() * 8 > self.table.len() * 7 {
            self.rehash((self.table.len() * 2).max(16));
        } else {
            self.place(id);
        }
        id
    }

    fn rehash(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two());
        self.table = vec![EMPTY; cap];
        self.mask = cap - 1;
        for id in 0..self.sets.len() as u32 {
            self.place(id);
        }
    }

    fn place(&mut self, id: u32) {
        let mut i = hash_blocks(self.sets[id as usize].as_blocks()) as usize & self.mask;
        while self.table[i] != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.table[i] = id;
    }
}

/// Open-addressed `u32 → f64` map for interner-keyed cost rows.
///
/// Fibonacci-hashed linear probing over a power-of-two table; the key
/// `u32::MAX` is reserved as the empty sentinel (the interner can never
/// hand it out).
#[derive(Clone, Debug, Default)]
pub struct IdCostMap {
    slots: Vec<(u32, f64)>,
    mask: usize,
    len: usize,
}

impl IdCostMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home slot of `id`: Fibonacci hashing spreads consecutive interner
    /// ids. Masking keeps only the product's low bits, which depend only
    /// on the id's low bits. Unlike for a configuration hash, that is
    /// fine: interner ids are dense insertion-ordered integers, and an odd
    /// multiplier permutes the residues modulo the table size, so ids that
    /// differ below the table size never share a home slot.
    #[inline]
    fn slot_of(&self, id: u32) -> usize {
        (id.wrapping_mul(0x9e37_79b9) as usize) & self.mask
    }

    /// Stored cost for `id`, if any.
    #[inline]
    pub fn get(&self, id: u32) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.slot_of(id);
        loop {
            let (k, v) = self.slots[i];
            if k == id {
                return Some(v);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert `id → cost`, returning the previous cost if the id was
    /// already present (the value is then left unchanged — first write
    /// wins, matching the stores' duplicate semantics).
    pub fn insert(&mut self, id: u32, cost: f64) -> Option<f64> {
        debug_assert!(id != EMPTY, "u32::MAX is the empty sentinel");
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = self.slot_of(id);
        loop {
            let (k, v) = self.slots[i];
            if k == id {
                return Some(v);
            }
            if k == EMPTY {
                self.slots[i] = (id, cost);
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Entries in table order (diagnostics/serialization helpers).
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.slots
            .iter()
            .filter(|(k, _)| *k != EMPTY)
            .map(|&(k, v)| (k, v))
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(8);
        debug_assert!(cap.is_power_of_two());
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0.0); cap]);
        self.mask = cap - 1;
        for (k, v) in old {
            if k == EMPTY {
                continue;
            }
            let mut i = self.slot_of(k);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = (k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IndexId;

    fn set(universe: usize, ids: &[u32]) -> IndexSet {
        IndexSet::from_ids(universe, ids.iter().copied().map(IndexId::new))
    }

    #[test]
    fn interner_assigns_stable_insertion_ordered_ids() {
        let mut it = ConfigInterner::new();
        let a = set(100, &[1, 2]);
        let b = set(100, &[3]);
        assert_eq!(it.get(&a), None);
        assert_eq!(it.intern(&a), 0);
        assert_eq!(it.intern(&b), 1);
        assert_eq!(it.intern(&a), 0, "re-interning is a lookup");
        assert_eq!(it.get(&b), Some(1));
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(0), &a);
        let ids: Vec<u32> = it.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn interner_survives_growth() {
        let mut it = ConfigInterner::new();
        let sets: Vec<IndexSet> = (0..500u32).map(|i| set(600, &[i, i + 7])).collect();
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(it.intern(s), i as u32);
        }
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(it.get(s), Some(i as u32), "i={i}");
        }
        assert_eq!(it.get(&set(600, &[599])), None);
    }

    /// Configurations that differ only in high block bits must still
    /// spread over the low bits a table slot keeps. 768 single-member
    /// sets, each member at bit 16 or above of one of 16 blocks: FNV-1a
    /// alone gives them all one slot of 1,024.
    #[test]
    fn hash_spreads_high_block_bits_over_the_slot_mask() {
        let universe = 1024u32;
        let slots: std::collections::HashSet<u64> = (0..universe / 64)
            .flat_map(|block| (16..64).map(move |bit| block * 64 + bit))
            .map(|member| hash_blocks(set(universe as usize, &[member]).as_blocks()) & 0x3ff)
            .collect();
        assert!(
            slots.len() >= 384,
            "{} distinct slots of 1,024",
            slots.len()
        );
    }

    #[test]
    fn id_cost_map_roundtrips_and_keeps_first_write() {
        let mut m = IdCostMap::new();
        assert_eq!(m.get(3), None);
        assert_eq!(m.insert(3, 1.5), None);
        assert_eq!(m.insert(3, 9.9), Some(1.5), "duplicate reports old value");
        assert_eq!(m.get(3), Some(1.5), "first write wins");
        for i in 0..1000u32 {
            m.insert(i, i as f64 * 0.5);
        }
        assert_eq!(m.len(), 1000);
        for i in (0..1000u32).rev() {
            let expect = if i == 3 { 1.5 } else { i as f64 * 0.5 };
            assert_eq!(m.get(i), Some(expect), "i={i}");
        }
        assert_eq!(m.get(5000), None);
        assert_eq!(m.iter().count(), 1000);
    }
}
