//! The WAL record set and the replayed state it folds into.
//!
//! Records are the daemon's durable events: warm-store publications
//! (the cells a settled session paid for and the warm store did not yet
//! hold), session lifecycle transitions (a suspension carries the
//! session's whole checkpoint), and store-wide flushes. The persist crate
//! stays dependency-free, so the domain types are mirrored structurally:
//! configurations travel as raw bitset blocks, costs as `f64::to_bits`,
//! and service-level specs and results as opaque JSON strings the service
//! layer (de)serializes.
//!
//! [`PersistState`] is the fold of a snapshot plus a WAL tail — exactly
//! what [`crate::Persist::open`] hands back for the service to import.
//! Sessions fold into one row each; warm batches are only kept, in log
//! order, for the service to replay into its warm store, which is the one
//! owner of warm cells. [`PersistState::records`] is the fold's inverse,
//! and snapshots and the WAL share one format and one replay loop.

use crate::codec::{CodecError, Reader, Writer};
use crate::wal;
use std::ops::Range;
use std::sync::Arc;

/// One warm-store publication: the cells a settled session added to the
/// warm table `(key, fingerprint)`, or (in a snapshot) a chunk of that
/// table.
///
/// A cell is a simulated `(query, config) → cost` result: the query id,
/// the configuration bitset's raw block array, and `f64::to_bits` of the
/// what-if cost, so recovery is bit-identical. Cells are stored flat, one
/// `Vec` per field plus per-cell ends into the concatenated blocks, so a
/// batch costs four allocations however many cells it holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmBatch {
    /// Workload key (`WorkloadSpec::key()`).
    pub key: String,
    /// Optimizer content fingerprint; entries are shared only between
    /// sessions whose schema/workload/candidates are identical.
    pub fingerprint: u64,
    pub num_queries: u32,
    pub universe: u32,
    /// `queries[i]`, `blocks[ends[i - 1]..ends[i]]` (from 0 for the first
    /// cell) and `cost_bits[i]` are cell `i`; `ends` never decreases and
    /// ends at `blocks.len()`.
    queries: Vec<u32>,
    blocks: Vec<u64>,
    ends: Vec<usize>,
    cost_bits: Vec<u64>,
}

impl WarmBatch {
    /// A batch of no cells for the warm table `(key, fingerprint)`.
    pub fn new(key: impl Into<String>, fingerprint: u64, num_queries: u32, universe: u32) -> Self {
        Self {
            key: key.into(),
            fingerprint,
            num_queries,
            universe,
            queries: Vec::new(),
            blocks: Vec::new(),
            ends: Vec::new(),
            cost_bits: Vec::new(),
        }
    }

    /// Append one cell.
    pub fn push(&mut self, query: u32, blocks: &[u64], cost_bits: u64) {
        self.queries.push(query);
        self.blocks.extend_from_slice(blocks);
        self.ends.push(self.blocks.len());
        self.cost_bits.push(cost_bits);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Cell `i` as `(query, blocks, cost_bits)`. Panics past the end.
    fn cell(&self, i: usize) -> (u32, &[u64], u64) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (
            self.queries[i],
            &self.blocks[start..self.ends[i]],
            self.cost_bits[i],
        )
    }

    /// Every cell as `(query, blocks, cost_bits)`, in push order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = (u32, &[u64], u64)> + '_ {
        (0..self.len()).map(|i| self.cell(i))
    }
}

/// A session lifecycle event or warm-store mutation. Appended in event
/// order; replay folds them into [`PersistState`].
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A settled session's ledger added these cells to the warm store.
    WarmBatch(WarmBatch),
    /// The operator flushed the warm store (`ixtunectl store flush`).
    WarmFlush,
    /// A session was admitted. `spec_json` is the serialized `SubmitSpec`.
    SessionSubmitted { id: u64, spec_json: String },
    /// A worker claimed the session. No longer written: recovery re-queues
    /// a claimed session exactly as a queued one, so the record told it
    /// nothing. Still decoded, because older data dirs hold it.
    SessionRunning { id: u64 },
    /// The session checkpointed and parked. `checkpoint_json` is the
    /// serialized `MctsCheckpoint` (shared, not copied, with the service's
    /// session table and the fold) and `wall_clock_ms` the time
    /// accumulated across its run segments.
    SessionSuspended {
        id: u64,
        checkpoint_json: Arc<str>,
        wall_clock_ms: f64,
    },
    /// A client re-queued the suspended session.
    SessionResumed { id: u64 },
    /// Terminal: finished with a result (serialized `ResultPayload`).
    SessionDone { id: u64, result_json: String },
    /// Terminal: cancelled, keeping a best-so-far result when one exists.
    SessionCancelled {
        id: u64,
        result_json: Option<String>,
    },
    /// Terminal: construction failed or the worker panicked.
    SessionFailed { id: u64, error: String },
}

const TAG_WARM_BATCH: u8 = 0;
const TAG_WARM_FLUSH: u8 = 1;
const TAG_SUBMITTED: u8 = 2;
const TAG_RUNNING: u8 = 3;
const TAG_SUSPENDED: u8 = 4;
const TAG_RESUMED: u8 = 5;
const TAG_DONE: u8 = 6;
const TAG_CANCELLED: u8 = 7;
const TAG_FAILED: u8 = 8;

impl Record {
    /// This record as one WAL frame: the payload is encoded in place
    /// behind the frame header (see [`wal::frame`]).
    pub fn frame(&self) -> Vec<u8> {
        wal::frame(|w| self.encode(w))
    }

    /// Append the WAL payload form of this record to `w`.
    fn encode(&self, w: &mut Writer) {
        match self {
            Record::WarmBatch(batch) => write_warm_batch(w, batch, 0..batch.len()),
            Record::WarmFlush => w.u8(TAG_WARM_FLUSH),
            Record::SessionSubmitted { id, spec_json } => {
                w.u8(TAG_SUBMITTED);
                w.varu64(*id);
                w.str(spec_json);
            }
            Record::SessionRunning { id } => {
                w.u8(TAG_RUNNING);
                w.varu64(*id);
            }
            Record::SessionSuspended {
                id,
                checkpoint_json,
                wall_clock_ms,
            } => {
                w.u8(TAG_SUSPENDED);
                w.varu64(*id);
                w.str(checkpoint_json);
                w.f64_bits(*wall_clock_ms);
            }
            Record::SessionResumed { id } => {
                w.u8(TAG_RESUMED);
                w.varu64(*id);
            }
            Record::SessionDone { id, result_json } => {
                w.u8(TAG_DONE);
                w.varu64(*id);
                w.str(result_json);
            }
            Record::SessionCancelled { id, result_json } => {
                w.u8(TAG_CANCELLED);
                w.varu64(*id);
                match result_json {
                    Some(json) => {
                        w.u8(1);
                        w.str(json);
                    }
                    None => w.u8(0),
                }
            }
            Record::SessionFailed { id, error } => {
                w.u8(TAG_FAILED);
                w.varu64(*id);
                w.str(error);
            }
        }
    }

    /// Decode one record, consuming the payload exactly.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let rec = Self::read(&mut r)?;
        r.finish()?;
        Ok(rec)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            TAG_WARM_BATCH => {
                let key = r.str()?;
                let fingerprint = r.u64_fixed()?;
                let num_queries = u32::try_from(r.varu64()?)
                    .map_err(|_| CodecError("num_queries exceeds u32".into()))?;
                let universe = u32::try_from(r.varu64()?)
                    .map_err(|_| CodecError("universe exceeds u32".into()))?;
                // Every buffer is sized from the bytes left, never from a
                // count the payload claims: a cell takes at least
                // `MIN_CELL_BYTES`, of which 8 per block, so these
                // reservations hold exactly the cells of a batch whose
                // query ids and block counts are below 128.
                let n = r.varu64()?;
                if n > (r.remaining() / MIN_CELL_BYTES) as u64 {
                    return Err(CodecError(format!(
                        "warm cell count {n} exceeds remaining input"
                    )));
                }
                let n = n as usize;
                let mut batch = WarmBatch {
                    queries: Vec::with_capacity(n),
                    blocks: Vec::with_capacity((r.remaining() - n * MIN_CELL_BYTES) / 8),
                    ends: Vec::with_capacity(n),
                    cost_bits: Vec::with_capacity(n),
                    ..WarmBatch::new(key, fingerprint, num_queries, universe)
                };
                for _ in 0..n {
                    let query = u32::try_from(r.varu64()?)
                        .map_err(|_| CodecError("query id exceeds u32".into()))?;
                    let nb = r.count("blocks")?;
                    r.u64_words(nb, &mut batch.blocks)?;
                    batch.queries.push(query);
                    batch.ends.push(batch.blocks.len());
                    batch.cost_bits.push(r.u64_fixed()?);
                }
                Record::WarmBatch(batch)
            }
            TAG_WARM_FLUSH => Record::WarmFlush,
            TAG_SUBMITTED => Record::SessionSubmitted {
                id: r.varu64()?,
                spec_json: r.str()?,
            },
            TAG_RUNNING => Record::SessionRunning { id: r.varu64()? },
            TAG_SUSPENDED => Record::SessionSuspended {
                id: r.varu64()?,
                checkpoint_json: r.str()?.into(),
                wall_clock_ms: r.f64_bits()?,
            },
            TAG_RESUMED => Record::SessionResumed { id: r.varu64()? },
            TAG_DONE => Record::SessionDone {
                id: r.varu64()?,
                result_json: r.str()?,
            },
            TAG_CANCELLED => {
                let id = r.varu64()?;
                let result_json = match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    t => return Err(CodecError(format!("bad option tag {t}"))),
                };
                Record::SessionCancelled { id, result_json }
            }
            TAG_FAILED => Record::SessionFailed {
                id: r.varu64()?,
                error: r.str()?,
            },
            tag => return Err(CodecError(format!("unknown record tag {tag}"))),
        })
    }
}

/// Fewest encoded bytes a warm cell takes: a one-byte query id, a
/// one-byte block count and the 8-byte cost word.
const MIN_CELL_BYTES: usize = 10;

/// Encode the `WarmBatch` payload of `batch`'s header and its `cells`.
/// The one place its layout lives: [`Record::frame`] and [`warm_chunks`]
/// both go through it.
fn write_warm_batch(w: &mut Writer, batch: &WarmBatch, cells: Range<usize>) {
    w.u8(TAG_WARM_BATCH);
    w.str(&batch.key);
    w.u64_fixed(batch.fingerprint);
    w.varu64(u64::from(batch.num_queries));
    w.varu64(u64::from(batch.universe));
    w.varu64(cells.len() as u64);
    for i in cells {
        write_warm_cell(w, batch.cell(i));
    }
}

fn write_warm_cell(w: &mut Writer, (query, blocks, cost_bits): (u32, &[u64], u64)) {
    w.varu64(u64::from(query));
    w.varu64(blocks.len() as u64);
    for &b in blocks {
        w.u64_fixed(b);
    }
    w.u64_fixed(cost_bits);
}

/// Where a recovered session sits in its lifecycle. A session the daemon
/// died running recovers `Queued` (it re-runs, from its checkpoint when
/// one exists).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    Queued,
    Suspended,
    Done { result_json: String },
    Cancelled { result_json: Option<String> },
    Failed { error: String },
}

impl SessionStatus {
    /// Whether the session can never run again.
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            Self::Done { .. } | Self::Cancelled { .. } | Self::Failed { .. }
        )
    }
}

/// One recovered session.
#[derive(Clone, Debug)]
pub struct SessionRow {
    pub id: u64,
    pub spec_json: String,
    pub status: SessionStatus,
    /// The serialized checkpoint, kept while a suspension is outstanding
    /// (cleared when the session goes terminal).
    pub checkpoint_json: Option<Arc<str>>,
    /// Wall-clock accumulated across completed run segments.
    pub wall_clock_ms: f64,
    /// True once the session has resumed at least once: the spec's
    /// deterministic one-shot triggers are spent.
    pub resumed: bool,
}

/// Rows compare their wall clock by bits, like every other recovered
/// `f64`: a NaN logged is a NaN recovered.
impl PartialEq for SessionRow {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.spec_json == other.spec_json
            && self.status == other.status
            && self.checkpoint_json == other.checkpoint_json
            && self.wall_clock_ms.to_bits() == other.wall_clock_ms.to_bits()
            && self.resumed == other.resumed
    }
}

impl Eq for SessionRow {}

impl SessionRow {
    /// The records that rebuild this row from nothing. A suspension is
    /// replayed whenever the row carries a checkpoint or a wall clock; a
    /// later terminal record clears the checkpoint again.
    fn records(&self) -> Vec<Record> {
        let id = self.id;
        let suspended = self.checkpoint_json.is_some() || self.wall_clock_ms.to_bits() != 0;
        let mut out = vec![Record::SessionSubmitted {
            id,
            spec_json: self.spec_json.clone(),
        }];
        if self.resumed {
            out.push(Record::SessionResumed { id });
        }
        if suspended {
            out.push(Record::SessionSuspended {
                id,
                checkpoint_json: self.checkpoint_json.clone().unwrap_or_else(|| "".into()),
                wall_clock_ms: self.wall_clock_ms,
            });
        }
        match &self.status {
            SessionStatus::Queued if suspended => out.push(Record::SessionResumed { id }),
            SessionStatus::Queued | SessionStatus::Suspended => {}
            SessionStatus::Done { result_json } => out.push(Record::SessionDone {
                id,
                result_json: result_json.clone(),
            }),
            SessionStatus::Cancelled { result_json } => out.push(Record::SessionCancelled {
                id,
                result_json: result_json.clone(),
            }),
            SessionStatus::Failed { error } => out.push(Record::SessionFailed {
                id,
                error: error.clone(),
            }),
        }
        out
    }
}

/// Bound on one frame of a snapshot's warm-table chunk: compaction splits
/// each warm table into `WarmBatch` records whose frames (header
/// included) fit in this many bytes, however large the table grows.
pub const WARM_CHUNK_BYTES: usize = 256 << 10;

/// Session ids stay below this bound. Replay drops a session whose
/// logged id reaches it, so no arithmetic on a recovered id can overflow
/// and the daemon's `u64::MAX` trace scope never names a session.
pub const MAX_SESSION_ID: u64 = 1 << 63;

/// The WAL frames of the `WarmBatch` records that carry `batch`, each
/// within [`WARM_CHUNK_BYTES`] (a lone cell larger than that gets a frame
/// of its own). Encoded straight from the cells into each frame's buffer;
/// an empty batch still yields one empty record so replay recreates its
/// table.
pub fn warm_chunks(batch: &WarmBatch) -> impl Iterator<Item = Vec<u8>> + '_ {
    let frame = move |cells: Range<usize>| wal::frame(|w| write_warm_batch(w, batch, cells));
    let empty_frame = frame(0..0).len();
    let mut cell = Writer::new();
    let mut next = 0;
    let mut first = true;
    std::iter::from_fn(move || {
        if next == batch.len() && !first {
            return None;
        }
        first = false;
        // Size the chunk with the encoder itself: take cells while the
        // frame fits, then re-check the real payload, whose cell count
        // may need a wider varint than the empty batch's.
        let mut n = 0;
        let mut size = empty_frame;
        for i in next..batch.len() {
            cell.clear();
            write_warm_cell(&mut cell, batch.cell(i));
            if n > 0 && size + cell.len() > WARM_CHUNK_BYTES {
                break;
            }
            size += cell.len();
            n += 1;
        }
        loop {
            let frame = frame(next..next + n);
            if n <= 1 || frame.len() <= WARM_CHUNK_BYTES {
                next += n;
                return Some(frame);
            }
            n -= 1;
        }
    })
}

/// The fold of every durable event: what the service imports at startup.
/// Compaction writes its sessions back out, as records, into the next
/// snapshot generation; the warm tables there come from the warm store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PersistState {
    /// The next session id the daemon may assign (max submitted id + 1).
    pub next_id: u64,
    /// Kept in id order: lookups binary-search it.
    sessions: Vec<SessionRow>,
    /// Warm batches logged since the last `WarmFlush`, in log order. Only
    /// recovery reads them; the live fold of a running store holds none.
    warm: Vec<WarmBatch>,
}

impl PersistState {
    /// Sessions in id order.
    pub fn sessions(&self) -> &[SessionRow] {
        &self.sessions
    }

    /// Warm batches logged since the last flush, in log order: replaying
    /// them into an empty warm store repeats the absorptions it saw.
    pub fn warm(&self) -> &[WarmBatch] {
        &self.warm
    }

    fn session_mut(&mut self, id: u64) -> Option<&mut SessionRow> {
        let i = self.sessions.binary_search_by_key(&id, |s| s.id).ok()?;
        Some(&mut self.sessions[i])
    }

    /// This state's sessions without its warm batches: the live fold a
    /// store keeps after recovery.
    pub(crate) fn sessions_only(&self) -> Self {
        Self {
            next_id: self.next_id,
            sessions: self.sessions.clone(),
            warm: Vec::new(),
        }
    }

    /// Total warm cells across batches.
    pub fn warm_entries(&self) -> usize {
        self.warm.iter().map(WarmBatch::len).sum()
    }

    /// Fold one event in. Unknown session ids are tolerated (a compacted
    /// snapshot plus a stale WAL can mention sessions the snapshot already
    /// settled); replay must never fail on ordering.
    pub fn apply(&mut self, rec: Record) {
        match rec {
            Record::WarmBatch(batch) => self.warm.push(batch),
            Record::WarmFlush => self.warm.clear(),
            Record::SessionSubmitted { id, .. } if id >= MAX_SESSION_ID => {
                eprintln!("ixtune-persist: replay dropped session {id}: ids stay below 2^63");
            }
            Record::SessionSubmitted { id, spec_json } => {
                self.next_id = self.next_id.max(id + 1);
                if let Err(i) = self.sessions.binary_search_by_key(&id, |s| s.id) {
                    self.sessions.insert(
                        i,
                        SessionRow {
                            id,
                            spec_json,
                            status: SessionStatus::Queued,
                            checkpoint_json: None,
                            wall_clock_ms: 0.0,
                            resumed: false,
                        },
                    );
                }
            }
            // Older snapshots write a resumed, running session as
            // `Suspended` then `Running`; it recovers `Queued`, as it did.
            // A row with a checkpoint has run a segment: its triggers are
            // spent, as the importer assumes anyway.
            Record::SessionRunning { id } => {
                if let Some(row) = self.session_mut(id).filter(|r| !r.status.terminal()) {
                    row.status = SessionStatus::Queued;
                    row.resumed |= row.checkpoint_json.is_some();
                }
            }
            Record::SessionSuspended {
                id,
                checkpoint_json,
                wall_clock_ms,
            } => {
                if let Some(row) = self.session_mut(id) {
                    row.status = SessionStatus::Suspended;
                    row.checkpoint_json = Some(checkpoint_json);
                    row.wall_clock_ms = wall_clock_ms;
                }
            }
            Record::SessionResumed { id } => {
                if let Some(row) = self.session_mut(id) {
                    if !row.status.terminal() {
                        row.status = SessionStatus::Queued;
                    }
                    row.resumed = true;
                }
            }
            Record::SessionDone { id, result_json } => {
                if let Some(row) = self.session_mut(id) {
                    row.status = SessionStatus::Done { result_json };
                    row.checkpoint_json = None;
                }
            }
            Record::SessionCancelled { id, result_json } => {
                if let Some(row) = self.session_mut(id) {
                    row.status = SessionStatus::Cancelled { result_json };
                    row.checkpoint_json = None;
                }
            }
            Record::SessionFailed { id, error } => {
                if let Some(row) = self.session_mut(id) {
                    row.status = SessionStatus::Failed { error };
                    row.checkpoint_json = None;
                }
            }
        }
    }

    /// The framed record stream that rebuilds this state: folding the
    /// decoded payloads into an empty state yields one equal to `self`
    /// (up to how its warm batches are chunked). Per session, its
    /// `SessionSubmitted` plus the transitions that rebuild its row; per
    /// warm batch, [`warm_chunks`].
    pub fn records(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        let sessions = self
            .sessions
            .iter()
            .flat_map(SessionRow::records)
            .map(|rec| rec.frame());
        sessions.chain(self.warm.iter().flat_map(warm_chunks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(
        key: &str,
        fp: u64,
        nq: u32,
        universe: u32,
        cells: &[(u32, &[u64], u64)],
    ) -> WarmBatch {
        let mut b = WarmBatch::new(key, fp, nq, universe);
        for &(q, blocks, cost_bits) in cells {
            b.push(q, blocks, cost_bits);
        }
        b
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::SessionSubmitted {
                id: 0,
                spec_json: "{\"k\":3}".into(),
            },
            Record::SessionRunning { id: 0 },
            Record::WarmBatch(batch(
                "tpch",
                0xfeed_beef,
                22,
                500,
                &[
                    (3, &[0b1010, 0, 1 << 63], 1234.5f64.to_bits()),
                    (0, &[], f64::NAN.to_bits()),
                ],
            )),
            Record::SessionSuspended {
                id: 0,
                checkpoint_json: "{\"version\":1}".into(),
                wall_clock_ms: 12.75,
            },
            Record::SessionResumed { id: 0 },
            Record::SessionDone {
                id: 0,
                result_json: "{\"improvement\":0.5}".into(),
            },
            Record::SessionCancelled {
                id: 1,
                result_json: None,
            },
            Record::SessionCancelled {
                id: 2,
                result_json: Some("{}".into()),
            },
            Record::SessionFailed {
                id: 3,
                error: "panicked".into(),
            },
            Record::WarmFlush,
        ]
    }

    #[test]
    fn record_codec_roundtrips() {
        for rec in sample_records() {
            let frame = rec.frame();
            let back = Record::decode(&frame[wal::FRAME_HEADER..]).unwrap();
            assert_eq!(back, rec, "{rec:?}");
        }
    }

    #[test]
    fn replay_folds_lifecycle_and_warm_batches() {
        let mut st = PersistState::default();
        st.apply(Record::SessionSubmitted {
            id: 7,
            spec_json: "{}".into(),
        });
        assert_eq!(st.next_id, 8);
        st.apply(Record::SessionRunning { id: 7 });
        st.apply(Record::SessionSuspended {
            id: 7,
            checkpoint_json: "{}".into(),
            wall_clock_ms: 3.5,
        });
        let row = &st.sessions[0];
        assert_eq!(row.status, SessionStatus::Suspended);
        assert_eq!(row.checkpoint_json.as_deref(), Some("{}"));
        st.apply(Record::SessionResumed { id: 7 });
        assert_eq!(st.sessions[0].status, SessionStatus::Queued);
        assert!(st.sessions[0].resumed);
        assert!(
            st.sessions[0].checkpoint_json.is_some(),
            "resume keeps the checkpoint"
        );
        // An older snapshot's resumed, running row.
        st.apply(Record::SessionSuspended {
            id: 7,
            checkpoint_json: "{}".into(),
            wall_clock_ms: 3.5,
        });
        st.apply(Record::SessionRunning { id: 7 });
        assert_eq!(st.sessions[0].status, SessionStatus::Queued);
        st.apply(Record::SessionDone {
            id: 7,
            result_json: "{}".into(),
        });
        assert!(st.sessions[0].status.terminal());
        assert_eq!(
            st.sessions[0].checkpoint_json, None,
            "terminal clears the checkpoint"
        );

        let warm = batch("w", 1, 2, 64, &[(1, &[3], 9.0f64.to_bits())]);
        st.apply(Record::WarmBatch(warm.clone()));
        st.apply(Record::WarmBatch(warm.clone()));
        assert_eq!(
            st.warm(),
            [warm.clone(), warm],
            "batches are kept whole, in log order; the warm store dedups"
        );
        st.apply(Record::WarmFlush);
        assert_eq!(st.warm_entries(), 0);
    }

    /// A session id at or past `MAX_SESSION_ID` is dropped with all its
    /// transitions, so `next_id` cannot wrap onto a live id.
    #[test]
    fn ids_past_the_bound_are_dropped() {
        let mut st = PersistState::default();
        st.apply(Record::SessionSubmitted {
            id: 0,
            spec_json: "{}".into(),
        });
        for id in [MAX_SESSION_ID, u64::MAX - 1, u64::MAX] {
            st.apply(Record::SessionSubmitted {
                id,
                spec_json: "{}".into(),
            });
            st.apply(Record::SessionDone {
                id,
                result_json: "{}".into(),
            });
        }
        assert_eq!(st.next_id, 1);
        assert_eq!(st.sessions().len(), 1);
        st.apply(Record::SessionSubmitted {
            id: MAX_SESSION_ID - 1,
            spec_json: "{}".into(),
        });
        assert_eq!(st.next_id, MAX_SESSION_ID);
    }

    #[test]
    fn records_rebuild_the_state_bit_identically() {
        let mut st = PersistState::default();
        for rec in sample_records() {
            st.apply(rec);
        }
        // Put a warm table back after the trailing flush so the stream
        // carries one, including a negative-zero cost entry.
        st.apply(Record::WarmBatch(batch(
            "synth:3",
            42,
            5,
            128,
            &[(4, &[u64::MAX, 7], (-0.0f64).to_bits())],
        )));
        let mut back = PersistState::default();
        for frame in st.records() {
            back.apply(Record::decode(&frame[wal::FRAME_HEADER..]).unwrap());
        }
        assert_eq!(back, st);
    }
}
