//! # ixtune-persist — durable daemon state
//!
//! The paper's premise is that what-if optimizer calls are the scarce
//! resource; every cost the daemon has already paid for is capital. This
//! crate makes that capital survive process death: an append-only,
//! CRC-checked write-ahead log of warm-store publications and session
//! lifecycle events, compacted into generation-numbered snapshots written
//! as record streams in the same frame format, with a recovery path that
//! replays the newest valid snapshot plus the WAL tail through one loop
//! and truncates torn bytes instead of failing.
//!
//! The crate is std-only and knows nothing about the service layer's
//! types: specs and results travel as opaque JSON strings, warm rows as
//! `(query, bitset blocks, f64::to_bits cost)` primitives, so recovery
//! is bit-identical and no dependency cycle forms.
//!
//! Layering:
//!
//! - [`codec`] — bounded LEB128/fixed-width binary encoding
//! - [`crc`] — CRC-32 (IEEE), slicing-by-8 over compile-time tables
//! - [`wal`] — `[len][crc][payload]` framing with torn-tail scanning of
//!   one buffer per file
//! - [`record`] — the durable event set and its [`PersistState`] fold
//! - [`store`] — [`Persist`]: open/recover, append, compact, stats

pub mod codec;
pub mod crc;
pub mod record;
pub mod store;
pub mod wal;

pub use record::{
    warm_chunks, PersistState, Record, SessionRow, SessionStatus, WarmBatch, MAX_SESSION_ID,
    WARM_CHUNK_BYTES,
};
pub use store::{
    fault_site, Durability, FaultHook, Persist, PersistStats, RecoveryInfo, BATCH_BYTES,
    BATCH_RECORDS,
};
