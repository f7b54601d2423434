//! Property tests for the persist crate's durability contract:
//!
//! * the record codec roundtrips **bit-identically** — including
//!   NaN-payload and `-0.0` costs, which travel as raw `f64::to_bits`
//!   patterns — and any fold replays from its own record stream (the
//!   snapshot format);
//! * recovery after arbitrary truncation or a byte flip always yields the
//!   longest valid prefix of what was appended, and reports the torn tail.

use ixtune_persist::wal::{self, FRAME_HEADER, MAX_PAYLOAD};
use ixtune_persist::{
    warm_chunks, Durability, Persist, PersistState, Record, SessionStatus, WarmBatch, WarmEntry,
    WARM_CHUNK_BYTES,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory per proptest case; removed by the case.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ixtune-persist-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Printable-ASCII strings, JSON punctuation included.
fn arb_str() -> impl Strategy<Value = String> {
    "[ -~]{0,24}"
}

fn arb_entry() -> impl Strategy<Value = WarmEntry> {
    (
        any::<u32>(),
        prop::collection::vec(any::<u64>(), 0..4),
        any::<u64>(),
    )
        .prop_map(|(query, blocks, cost_bits)| WarmEntry {
            query,
            blocks,
            cost_bits,
        })
}

/// Session ids below `space`, or anywhere in `u64` for `None`. A small
/// space makes transitions land on submitted sessions, so folds build
/// rows with long lifecycles.
fn arb_id(space: Option<u64>) -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(move |id| space.map_or(id, |n| id % n))
}

/// Records over the full session-id space: distinct ids almost always.
fn arb_record() -> impl Strategy<Value = Record> {
    arb_record_in(None)
}

/// Records whose session ids come from [`arb_id`]`(space)`.
fn arb_record_in(space: Option<u64>) -> impl Strategy<Value = Record> {
    prop_oneof![
        (
            arb_str(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(arb_entry(), 0..6),
        )
            .prop_map(|(key, fingerprint, num_queries, universe, entries)| {
                Record::WarmBatch(WarmBatch {
                    key,
                    fingerprint,
                    num_queries,
                    universe,
                    entries,
                })
            }),
        (0u32..1).prop_map(|_| Record::WarmFlush),
        (arb_id(space), arb_str())
            .prop_map(|(id, spec_json)| Record::SessionSubmitted { id, spec_json }),
        arb_id(space).prop_map(|id| Record::SessionRunning { id }),
        (arb_id(space), arb_str(), any::<u64>()).prop_map(|(id, checkpoint_json, bits)| {
            // Any bit pattern, NaN payloads included: the codec must not
            // canonicalize floats.
            Record::SessionSuspended {
                id,
                checkpoint_json: checkpoint_json.into(),
                wall_clock_ms: f64::from_bits(bits),
            }
        }),
        arb_id(space).prop_map(|id| Record::SessionResumed { id }),
        (arb_id(space), arb_str())
            .prop_map(|(id, result_json)| Record::SessionDone { id, result_json }),
        (arb_id(space), any::<bool>(), arb_str()).prop_map(|(id, some, json)| {
            Record::SessionCancelled {
                id,
                result_json: some.then_some(json),
            }
        }),
        (arb_id(space), arb_str()).prop_map(|(id, error)| Record::SessionFailed { id, error }),
    ]
}

/// Fold `records[..k]` into a fresh state.
fn fold(records: &[Record], k: usize) -> PersistState {
    let mut st = PersistState::default();
    for rec in &records[..k] {
        st.apply(rec.clone());
    }
    st
}

proptest! {
    /// Encoding is canonical: decode(encode(r)) re-encodes to the same
    /// bytes. (Byte equality rather than `==` so NaN costs and wall
    /// clocks are compared as bit patterns.)
    #[test]
    fn record_codec_roundtrips_bit_identically(rec in arb_record()) {
        let bytes = rec.encode();
        let back = Record::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Any fold replays from its own record stream — the snapshot format
    /// — through the codec: `replay(st.records()) == st`, wall clocks and
    /// costs compared by bits.
    #[test]
    fn records_replay_to_the_same_fold(
        records in prop::collection::vec(arb_record_in(Some(4)), 0..32),
    ) {
        let st = fold(&records, records.len());
        let mut back = PersistState::default();
        for payload in st.records() {
            back.apply(Record::decode(&payload).expect("decode own record"));
        }
        prop_assert_eq!(back, st);
    }

    /// Warm costs recovered from disk carry the exact bit patterns that
    /// were appended — the warm store's bit-identity guarantee survives
    /// the WAL.
    #[test]
    fn warm_costs_recover_bit_exact(
        bits in prop::collection::vec(any::<u64>(), 1..16),
        fingerprint in any::<u64>(),
    ) {
        let entries: Vec<WarmEntry> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| WarmEntry { query: i as u32, blocks: vec![i as u64], cost_bits: b })
            .collect();
        let dir = scratch_dir();
        {
            let (p, _, _) = Persist::open(&dir, Durability::Batch).unwrap();
            p.append(&Record::WarmBatch(WarmBatch {
                key: "w".into(),
                fingerprint,
                num_queries: bits.len() as u32,
                universe: 64,
                entries: entries.clone(),
            })).unwrap();
        }
        let (_p, state, _) = Persist::open(&dir, Durability::Batch).unwrap();
        let batch = state.warm().iter().find(|b| b.key == "w" && b.fingerprint == fingerprint)
            .expect("warm batch recovered");
        let recovered: Vec<u64> = batch.entries.iter().map(|e| e.cost_bits).collect();
        prop_assert_eq!(recovered, bits);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

proptest! {
    // Filesystem-heavy cases: fewer iterations, each opens a store and
    // fsyncs per append.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the WAL at ANY byte leaves recovery with exactly the
    /// records whose frames fit below the cut, the torn flag set iff
    /// partial-frame bytes were dropped, and a replayable store.
    #[test]
    fn truncation_at_any_byte_recovers_the_valid_prefix(
        records in prop::collection::vec(arb_record(), 1..10),
        cut_raw in any::<u64>(),
    ) {
        let dir = scratch_dir();
        // Cumulative frame end offsets; ends[k] = bytes after k records.
        let mut ends = vec![0u64];
        {
            let (p, _, _) = Persist::open(&dir, Durability::Always).unwrap();
            for rec in &records {
                p.append(rec).unwrap();
                ends.push(p.stats().wal_bytes);
            }
        }
        let total = *ends.last().unwrap();
        let cut = cut_raw % (total + 1);
        let wal = dir.join("wal-0.log");
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let expect_k = ends.iter().filter(|&&e| e > 0 && e <= cut).count();
        let (_p, state, info) = Persist::open(&dir, Durability::Always).unwrap();
        prop_assert_eq!(info.wal_records, expect_k as u64);
        prop_assert_eq!(info.torn_tail, cut != ends[expect_k]);
        prop_assert_eq!(info.torn_bytes, cut - ends[expect_k]);
        prop_assert_eq!(state, fold(&records, expect_k));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Flipping ANY byte of the WAL is caught by the frame CRC: recovery
    /// keeps the frames before the corrupted one, reports a torn tail,
    /// and the reopened store accepts new appends.
    #[test]
    fn byte_flip_anywhere_recovers_a_valid_prefix(
        records in prop::collection::vec(arb_record(), 1..8),
        pos_raw in any::<u64>(),
    ) {
        let dir = scratch_dir();
        let mut ends = vec![0u64];
        {
            let (p, _, _) = Persist::open(&dir, Durability::Always).unwrap();
            for rec in &records {
                p.append(rec).unwrap();
                ends.push(p.stats().wal_bytes);
            }
        }
        let wal = dir.join("wal-0.log");
        let mut raw = std::fs::read(&wal).unwrap();
        let pos = (pos_raw % raw.len() as u64) as usize;
        raw[pos] ^= 0x01;
        std::fs::write(&wal, &raw).unwrap();

        // The frame containing `pos` (and everything after) is lost.
        let expect_k = ends.iter().filter(|&&e| e > 0 && e <= pos as u64).count();
        let (p, state, info) = Persist::open(&dir, Durability::Always).unwrap();
        prop_assert_eq!(info.wal_records, expect_k as u64);
        prop_assert!(info.torn_tail, "a flipped byte is always a tear");
        prop_assert_eq!(state, fold(&records, expect_k));
        // The tail was truncated: the store keeps working.
        p.append(&Record::WarmFlush).unwrap();
        drop(p);
        let (_p, _, info) = Persist::open(&dir, Durability::Always).unwrap();
        prop_assert!(!info.torn_tail, "recovery healed the file");
        prop_assert_eq!(info.wal_records, expect_k as u64 + 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Compacting at an arbitrary point never changes the recovered
    /// state: snapshot + WAL tail ≡ pure WAL replay. The warm tables the
    /// compaction writes are the batches logged so far, as a warm store
    /// that evicts nothing would hold them.
    #[test]
    fn compaction_point_is_invisible_to_recovery(
        records in prop::collection::vec(arb_record_in(Some(4)), 1..16),
        at_raw in any::<u64>(),
    ) {
        let dir = scratch_dir();
        let at = (at_raw % (records.len() as u64 + 1)) as usize;
        {
            let (p, _, _) = Persist::open(&dir, Durability::Batch).unwrap();
            for (i, rec) in records.iter().enumerate() {
                if i == at {
                    p.compact(|| fold(&records, i).warm().to_vec()).unwrap();
                }
                p.append(rec).unwrap();
            }
            if at == records.len() {
                p.compact(|| fold(&records, at).warm().to_vec()).unwrap();
            }
        }
        let (_p, state, info) = Persist::open(&dir, Durability::Batch).unwrap();
        prop_assert_eq!(info.snapshots_skipped, 0);
        prop_assert_eq!(state, fold(&records, records.len()));
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Deterministic corner: an empty WAL file (created, never written, e.g.
/// killed before the first append) recovers to the empty state without a
/// torn-tail report.
#[test]
fn empty_wal_file_recovers_cleanly() {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal-0.log"), b"").unwrap();
    let (_p, state, info) = Persist::open(&dir, Durability::Batch).unwrap();
    assert_eq!(info.wal_records, 0);
    assert!(!info.torn_tail);
    assert_eq!(state, PersistState::default());
    std::fs::remove_dir_all(dir).unwrap();
}

/// Out-of-order submissions land in id order, and every later
/// transition finds its row.
#[test]
fn sessions_stay_in_id_order() {
    let mut st = PersistState::default();
    for id in [5, 1, 9, 3] {
        st.apply(submit(id));
    }
    let ids: Vec<u64> = st.sessions().iter().map(|s| s.id).collect();
    assert_eq!(ids, vec![1, 3, 5, 9]);
    assert_eq!(st.next_id, 10);
    let before = st.clone();
    st.apply(Record::SessionRunning { id: 3 });
    assert_eq!(st, before, "a claim record leaves a queued row queued");
}

fn submit(id: u64) -> Record {
    Record::SessionSubmitted {
        id,
        spec_json: format!("{{\"id\":{id}}}"),
    }
}

/// A snapshot replays whole or not at all: one CRC-valid frame that fails
/// to decode rejects every frame beside it. A single-frame snapshot from
/// the earlier whole-state codec (version byte 1, then the state) is such
/// a frame, so it takes this path too.
#[test]
fn snapshot_with_an_undecodable_frame_is_skipped_whole() {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut f = std::fs::File::create(dir.join("snap-1.bin")).unwrap();
    wal::append_frame(&mut f, &submit(0).encode()).unwrap();
    // The earlier codec's empty state: version 1, next_id 0, no sessions,
    // no warm tables.
    wal::append_frame(&mut f, &[1, 0, 0, 0]).unwrap();
    drop(f);

    let (_p, recovered, info) = Persist::open(&dir, Durability::Batch).unwrap();
    assert_eq!(info.snapshots_skipped, 1);
    assert!(!info.snapshot_loaded);
    assert_eq!(info.generation, 0);
    assert!(recovered.sessions().is_empty(), "no frame of it was kept");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A skipped snapshot's WAL must not leak into the generation that later
/// takes its number. Here an older build's dir at generation 1: recovery
/// skips its snapshot and starts over at generation 0, so the stale
/// `SessionDone{0}` in `wal-1.log` would settle the new session 0 on the
/// restart after the next compaction.
#[test]
fn compaction_over_a_skipped_generation_starts_an_empty_wal() {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snap-1.bin"), b"an older build's snapshot").unwrap();
    let mut stale = std::fs::File::create(dir.join("wal-1.log")).unwrap();
    let done = Record::SessionDone {
        id: 0,
        result_json: "{}".into(),
    };
    wal::append_frame(&mut stale, &done.encode()).unwrap();
    drop(stale);

    let (p, state, info) = Persist::open(&dir, Durability::Batch).unwrap();
    assert_eq!((info.generation, info.snapshots_skipped), (0, 1));
    assert_eq!(state.next_id, 0, "ids restart at 0");
    p.append(&submit(0)).unwrap();
    assert_eq!(p.compact(Vec::new).unwrap().generation, 1);
    drop(p);

    let (_p, state, info) = Persist::open(&dir, Durability::Batch).unwrap();
    assert!(info.snapshot_loaded);
    assert_eq!(info.wal_records, 0, "the stale WAL was truncated");
    assert_eq!(state.sessions().len(), 1);
    assert_eq!(state.sessions()[0].status, SessionStatus::Queued);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A warm table several times the chunk bound compacts into frames that
/// each fit the bound, and reopens with the live sessions and every entry
/// of the table, in order.
#[test]
fn large_warm_table_compacts_into_bounded_frames() {
    let dir = scratch_dir();
    let (p, _, _) = Persist::open(&dir, Durability::Never).unwrap();
    // 18 encoded bytes per entry (two 1-byte varints, one block, the
    // cost): 4× the bound in entries.
    let n = (4 * WARM_CHUNK_BYTES / 18 + 4) as u64;
    let table = WarmBatch {
        key: "w".into(),
        fingerprint: 9,
        num_queries: 4,
        universe: 64,
        entries: (0..n)
            .map(|i| WarmEntry {
                query: (i % 4) as u32,
                blocks: vec![i],
                cost_bits: (i as f64 * 1.5).to_bits(),
            })
            .collect(),
    };
    p.append(&submit(0)).unwrap();
    let live = p.state();
    p.compact(|| [table.clone()]).unwrap();
    drop(p);

    let snap = std::fs::read(dir.join("snap-1.bin")).unwrap();
    let mut pos = 0;
    let mut frames = 0;
    while pos < snap.len() {
        let len = u32::from_le_bytes(snap[pos..pos + 4].try_into().unwrap()) as usize;
        assert!(
            FRAME_HEADER + len <= WARM_CHUNK_BYTES,
            "frame {frames} is {len} bytes"
        );
        pos += FRAME_HEADER + len;
        frames += 1;
    }
    assert!(frames >= 5, "the table spans several chunks: {frames}");

    let (_p, recovered, info) = Persist::open(&dir, Durability::Never).unwrap();
    assert!(info.snapshot_loaded);
    assert_eq!(info.snapshots_skipped, 0);
    assert_eq!(recovered.sessions(), live.sessions());
    assert!(recovered.warm().iter().all(|b| (
        b.key.as_str(),
        b.fingerprint,
        b.num_queries,
        b.universe
    ) == ("w", 9, 4, 64)));
    let entries: Vec<WarmEntry> = recovered
        .warm()
        .iter()
        .flat_map(|b| b.entries.iter().cloned())
        .collect();
    assert_eq!(entries, table.entries);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A chunk whose entries fill the bound to the byte, counted with the
/// empty batch's one-byte entry count, needs a two-byte count once the
/// entries are in: the chunker must notice and move one entry to the next
/// chunk rather than write a frame one byte over the bound.
#[test]
fn warm_chunk_that_fills_the_bound_exactly_is_cut_one_entry_early() {
    // Frame header 8 + an empty batch for key "w" 14 + one 42-byte entry
    // (4 blocks) + 14,560 18-byte entries (1 block) = 262,144 bytes.
    let mut entries = vec![WarmEntry {
        query: 0,
        blocks: vec![u64::MAX; 4],
        cost_bits: 0,
    }];
    entries.extend((0..14_560).map(|i| WarmEntry {
        query: 0,
        blocks: vec![i],
        cost_bits: 1,
    }));
    let batch = WarmBatch {
        key: "w".into(),
        fingerprint: 9,
        num_queries: 4,
        universe: 64,
        entries,
    };
    let payloads: Vec<Vec<u8>> = warm_chunks(&batch).collect();
    let sizes: Vec<usize> = payloads.iter().map(|p| FRAME_HEADER + p.len()).collect();
    assert_eq!(sizes.len(), 2, "{sizes:?}");
    assert!(sizes[0] <= WARM_CHUNK_BYTES, "{sizes:?}");
    let mut back = PersistState::default();
    for payload in payloads {
        back.apply(Record::decode(&payload).unwrap());
    }
    let entries: Vec<WarmEntry> = back
        .warm()
        .iter()
        .flat_map(|b| b.entries.iter().cloned())
        .collect();
    assert_eq!(entries, batch.entries);
}

/// A record too large for a frame is refused before any byte reaches the
/// WAL, and the fold never sees it.
#[test]
fn oversized_append_is_refused_and_leaves_the_wal_untouched() {
    let dir = scratch_dir();
    let (p, _, _) = Persist::open(&dir, Durability::Always).unwrap();
    p.append(&submit(0)).unwrap();
    let before = std::fs::read(dir.join("wal-0.log")).unwrap();
    let huge = Record::SessionFailed {
        id: 0,
        error: "x".repeat(MAX_PAYLOAD as usize),
    };
    let err = p.append(&huge).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert_eq!(std::fs::read(dir.join("wal-0.log")).unwrap(), before);
    assert_eq!(p.state().sessions()[0].status, SessionStatus::Queued);
    assert_eq!(p.stats().records_total, 1);
    std::fs::remove_dir_all(dir).unwrap();
}
