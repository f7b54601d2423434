//! Seeded concurrency stress for the warm cost store: absorbs racing
//! checkouts, flushes, and byte-bound eviction. The accounting contract —
//! `stats().bytes` and `stats().entries` equal the sum over resident
//! snapshots, and the byte bound holds after every absorb — must survive
//! arbitrary interleavings; an underflow (the "negative stats" failure
//! mode with unsigned counters) would surface as a debug panic or an
//! astronomically large gauge.

use ixtune_common::{IndexSet, QueryId};
use ixtune_core::WarmStore;
use std::sync::Arc;

const UNIVERSE: usize = 16;
const NUM_QUERIES: usize = 8;

/// SplitMix64: the test's only randomness, fully determined by the seed.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ledger_for(seed: u64, len: usize) -> Vec<(QueryId, IndexSet, f64)> {
    (0..len)
        .map(|i| {
            let r = mix(seed.wrapping_mul(0x1000_0001).wrapping_add(i as u64));
            let q = QueryId::new((r % NUM_QUERIES as u64) as u32);
            // Any nonzero 16-bit pattern is a valid configuration here.
            let blocks = ((r >> 16) | 1) & ((1u64 << UNIVERSE) - 1);
            let config = IndexSet::from_blocks(UNIVERSE, vec![blocks]).unwrap();
            let cost = ((r >> 24) % 10_000) as f64 / 7.0;
            (q, config, cost)
        })
        .collect()
}

fn check_accounting(store: &WarmStore, tag: &str) {
    let stats = store.stats();
    let tables = store.export_tables();
    let sum_bytes: usize = tables.iter().map(|(_, s)| s.bytes()).sum();
    let sum_entries: usize = tables.iter().map(|(_, s)| s.entries()).sum();
    assert_eq!(
        stats.bytes, sum_bytes,
        "{tag}: byte gauge drifted from resident snapshots"
    );
    assert_eq!(
        stats.entries, sum_entries,
        "{tag}: entry gauge drifted from resident snapshots"
    );
    assert!(
        stats.bytes < (1 << 40),
        "{tag}: byte gauge underflowed: {}",
        stats.bytes
    );
}

/// Many threads absorb into a store small enough that eviction fires
/// constantly, racing checkouts and flushes. After every absorb the byte
/// bound holds, and when the dust settles the gauges equal a from-scratch
/// recount of the resident snapshots.
#[test]
fn eviction_under_concurrent_absorb_keeps_stats_consistent() {
    for seed in [1u64, 7, 42] {
        // Small enough that a handful of workloads overflows it.
        let store = Arc::new(WarmStore::new(8 << 10));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..60u64 {
                        let r = mix(seed ^ (t as u64) << 32 ^ i);
                        let key = format!("w{}", r % 6);
                        let fingerprint = r % 6; // stable per key
                        let ledger = ledger_for(r, 4 + (r % 24) as usize);
                        store.absorb(&key, fingerprint, NUM_QUERIES, UNIVERSE, ledger);
                        let stats = store.stats();
                        assert!(
                            stats.bytes <= stats.max_bytes,
                            "seed {seed} thread {t}: bound violated after absorb: \
                             {} > {}",
                            stats.bytes,
                            stats.max_bytes
                        );
                        // Readers race the absorbs: checked-out snapshots
                        // stay valid regardless of eviction.
                        let snap = store.checkout(&key, fingerprint, NUM_QUERIES, UNIVERSE);
                        assert!(snap.num_queries() == NUM_QUERIES);
                        // An occasional flush empties the store mid-storm.
                        if r.is_multiple_of(97) {
                            store.flush();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("stress thread never panics");
        }
        check_accounting(&store, &format!("seed {seed} settled"));
        let stats = store.stats();
        assert!(
            stats.evictions > 0,
            "seed {seed}: the bound never engaged — stress too weak \
             (bytes {}, max {})",
            stats.bytes,
            stats.max_bytes
        );

        // Re-absorbing an identical ledger adds nothing and moves no
        // accounting: first-write-wins is idempotent.
        let ledger = ledger_for(seed, 16);
        store.absorb("idem", 1, NUM_QUERIES, UNIVERSE, ledger.clone());
        let before = store.stats();
        let added = store.absorb("idem", 1, NUM_QUERIES, UNIVERSE, ledger).len();
        let after = store.stats();
        assert_eq!(added, 0, "seed {seed}: duplicate ledger adds nothing");
        assert_eq!(before.bytes, after.bytes, "seed {seed}: bytes stable");
        assert_eq!(before.entries, after.entries, "seed {seed}: entries stable");
        check_accounting(&store, &format!("seed {seed} idempotent"));
    }
}
