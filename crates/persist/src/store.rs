//! The durable store: generation-numbered snapshots plus a live WAL.
//!
//! On-disk layout inside the data dir:
//!
//! ```text
//! snap-<gen>.bin   state at the moment generation <gen> began, as the
//!                  record stream that rebuilds it (absent for gen 0)
//! wal-<gen>.log    records appended during generation <gen>
//! ```
//!
//! Both files are sequences of the same CRC frames carrying the same
//! records, and recovery folds both through one replay loop. Recovery
//! walks generations newest-first: the first generation whose snapshot
//! replays whole wins; its WAL tail is scanned, torn bytes are truncated
//! at the first bad frame, and the surviving records are folded on top.
//! Compaction writes the live sessions' records and the caller's warm
//! tables into `snap-<g+1>` (write-temp + atomic rename, with an empty
//! `wal-<g+1>` created before the rename), switches appends to that WAL,
//! and prunes every older generation.

use crate::record::{warm_chunks, PersistState, Record, WarmBatch};
use crate::wal;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fault-injection callback: given an injection-site name, decide whether
/// this call should fail. The persist crate stays dependency-free, so the
/// seeded fault plan lives upstream and is handed in as a closure.
pub type FaultHook = Arc<dyn Fn(&'static str) -> bool + Send + Sync>;

/// Injection-site names recognized by this store. The literals match
/// `ixtune_common::fault::site` so one spec string names both layers.
pub mod fault_site {
    /// A WAL frame append fails before any byte is written.
    pub const APPEND: &str = "persist.append";
    /// An fsync (WAL batch, snapshot, or explicit sync) fails.
    pub const FSYNC: &str = "persist.fsync";
    /// The snapshot rename — compaction's commit point — fails.
    pub const RENAME: &str = "persist.rename";
}

fn injected(site: &'static str) -> io::Error {
    io::Error::other(format!("injected: {site}"))
}

/// When appended records reach stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// fsync after every append. Survives power loss.
    Always,
    /// fsync every [`BATCH_RECORDS`] records or [`BATCH_BYTES`] unsynced
    /// bytes, and at compaction/close. Survives process death; a power
    /// loss may tear the last batch (recovery truncates it).
    Batch,
    /// Never fsync on the append path. The page cache still survives a
    /// SIGKILL of the process, so crash recovery works; only the machine
    /// dying loses the tail.
    Never,
}

/// Batch policy: sync after this many unsynced records…
pub const BATCH_RECORDS: u64 = 64;
/// …or this many unsynced bytes, whichever comes first.
pub const BATCH_BYTES: u64 = 256 << 10;

impl Durability {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Batch => "batch",
            Self::Never => "never",
        }
    }
}

impl FromStr for Durability {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(Self::Always),
            "batch" => Ok(Self::Batch),
            "never" => Ok(Self::Never),
            other => Err(format!(
                "unknown durability '{other}' (expected always|batch|never)"
            )),
        }
    }
}

/// What recovery found and did. The service traces it and renders
/// `torn_tail` as a scrape counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryInfo {
    /// Generation recovery settled on.
    pub generation: u64,
    /// Whether a snapshot file was read (false for a cold start or gen 0).
    pub snapshot_loaded: bool,
    /// Snapshot generations that were torn or failed to decode, and were
    /// skipped.
    pub snapshots_skipped: u64,
    /// Records replayed from the WAL tail.
    pub wal_records: u64,
    /// Bytes of torn tail truncated from the WAL.
    pub torn_bytes: u64,
    /// Whether a torn tail was found (even a zero-byte logical tear —
    /// e.g. a valid-length prefix of garbage — counts).
    pub torn_tail: bool,
    /// Wall-clock recovery took, in milliseconds.
    pub duration_ms: f64,
}

/// A point-in-time view of the store, for `ixtunectl persist` and the
/// daemon's `ixtune_persist_*` scrape series. `fsyncs_total` counts the
/// syncs of WAL appends and flushes and, at each compaction, of the
/// snapshot and the new WAL (none under [`Durability::Never`]); the
/// directory sync after the rename and the sync of a torn tail truncated
/// at recovery are not counted.
#[derive(Clone, Debug)]
pub struct PersistStats {
    pub generation: u64,
    pub wal_bytes: u64,
    pub records_total: u64,
    pub fsyncs_total: u64,
    pub compactions_total: u64,
    pub durability: Durability,
    pub recovery: RecoveryInfo,
}

struct Inner {
    wal: File,
    /// Mutable so the service layer can demote (e.g. to `Never`) when the
    /// disk starts failing, instead of crashing or spamming errors.
    durability: Durability,
    /// Optional fault-injection decision hook; `None` in production.
    fault: Option<FaultHook>,
    generation: u64,
    wal_bytes: u64,
    unsynced_records: u64,
    unsynced_bytes: u64,
    records_total: u64,
    fsyncs_total: u64,
    compactions_total: u64,
    /// The live fold of the sessions in the snapshot and every appended
    /// record. It holds no warm batches: the caller's warm store owns
    /// those cells. Compaction serializes it under the same lock appends
    /// take, so its sessions are exactly the WAL's at a record boundary.
    fold: PersistState,
}

impl Inner {
    fn faulted(&self, site: &'static str) -> bool {
        self.fault.as_ref().is_some_and(|h| h(site))
    }

    /// Write the fold's records, then `warm`'s chunks, to `path` as
    /// frames, fsynced unless durability is `Never`.
    fn write_snapshot(
        &mut self,
        path: &Path,
        warm: impl IntoIterator<Item = WarmBatch>,
    ) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for frame in self.fold.records() {
            wal::write_frame(&mut out, &frame)?;
        }
        for batch in warm {
            for frame in warm_chunks(&batch) {
                wal::write_frame(&mut out, &frame)?;
            }
        }
        let file = out.into_inner().map_err(|e| e.into_error())?;
        if self.durability != Durability::Never {
            if self.faulted(fault_site::FSYNC) {
                return Err(injected(fault_site::FSYNC));
            }
            file.sync_all()?;
            self.fsyncs_total += 1;
        }
        Ok(())
    }

    /// Create `path` as an empty WAL, fsynced unless durability is
    /// `Never`.
    fn create_wal(&mut self, path: &Path) -> io::Result<File> {
        let wal = File::create(path)?;
        if self.durability != Durability::Never {
            wal.sync_all()?;
            self.fsyncs_total += 1;
        }
        Ok(wal)
    }
}

/// Handle to the durable store. Appends and compactions serialize on an
/// internal mutex, so a compaction always observes a record boundary.
pub struct Persist {
    dir: PathBuf,
    recovery: RecoveryInfo,
    inner: Mutex<Inner>,
}

fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}.bin"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

/// Parse `<stem>-<gen>.<ext>` → generation.
fn parse_generation(name: &str, stem: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(stem)?
        .strip_prefix('-')?
        .strip_suffix(ext)?
        .strip_suffix('.')?
        .parse()
        .ok()
}

/// Fold the payloads `scanned` found in `buf` into `state` in order,
/// stopping at the first one that does not decode. Returns how many were
/// applied. Snapshots and WAL tails replay through this one loop, each
/// from the one buffer its file was read into.
fn replay(state: &mut PersistState, buf: &[u8], scanned: &wal::WalScan) -> usize {
    for (applied, payload) in scanned.payloads.iter().enumerate() {
        match Record::decode(&buf[payload.clone()]) {
            Ok(rec) => state.apply(rec),
            Err(_) => return applied,
        }
    }
    scanned.payloads.len()
}

/// Replay a snapshot file. A snapshot is all or nothing: `None` if any
/// frame is torn or fails to decode.
fn load_snapshot(path: &Path) -> Option<PersistState> {
    let buf = fs::read(path).ok()?;
    let scanned = wal::scan(&buf);
    let mut state = PersistState::default();
    let whole = !scanned.torn && replay(&mut state, &buf, &scanned) == scanned.payloads.len();
    whole.then_some(state)
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename itself durable. Best-effort on
    // platforms where opening a directory fails.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

impl Persist {
    /// Open (or create) the store at `dir`, recover the newest valid
    /// state, and truncate any torn WAL tail.
    pub fn open(
        dir: impl Into<PathBuf>,
        durability: Durability,
    ) -> io::Result<(Self, PersistState, RecoveryInfo)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let started = Instant::now();

        // Every generation any file mentions, newest first.
        let mut generations: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let g = parse_generation(&name, "snap", "bin")
                .or_else(|| parse_generation(&name, "wal", "log"));
            if let Some(g) = g {
                if !generations.contains(&g) {
                    generations.push(g);
                }
            }
        }
        generations.sort_unstable_by(|a, b| b.cmp(a));

        let mut info = RecoveryInfo::default();
        let mut state = PersistState::default();
        let mut generation = 0u64;
        for &g in &generations {
            let snap = snap_path(&dir, g);
            if snap.exists() {
                match load_snapshot(&snap) {
                    Some(st) => {
                        state = st;
                        generation = g;
                        info.snapshot_loaded = true;
                        break;
                    }
                    None => {
                        // Corrupt snapshot: fall back to an older one.
                        info.snapshots_skipped += 1;
                        continue;
                    }
                }
            }
            if g == 0 {
                // Gen 0 legitimately has no snapshot.
                generation = 0;
                break;
            }
        }
        info.generation = generation;

        // Replay the generation's WAL tail and truncate torn bytes.
        let wal_file = wal_path(&dir, generation);
        let mut wal_bytes = 0u64;
        if wal_file.exists() {
            let mut f = OpenOptions::new().read(true).write(true).open(&wal_file)?;
            let mut buf = Vec::new();
            f.read_to_end(&mut buf)?;
            let scanned = wal::scan(&buf);
            if scanned.torn {
                info.torn_tail = true;
                info.torn_bytes = buf.len() as u64 - scanned.valid_len;
                f.set_len(scanned.valid_len)?;
                f.sync_all()?;
            }
            wal_bytes = scanned.valid_len;
            let applied = replay(&mut state, &buf, &scanned);
            info.wal_records = applied as u64;
            if applied < scanned.payloads.len() {
                // A CRC-valid frame that doesn't decode means the writer
                // and reader disagree; treat the rest as torn.
                info.torn_tail = true;
            }
        }

        let mut wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_file)?;
        wal.seek(io::SeekFrom::End(0))?;

        info.duration_ms = started.elapsed().as_secs_f64() * 1e3;
        let persist = Persist {
            dir,
            recovery: info.clone(),
            inner: Mutex::new(Inner {
                wal,
                durability,
                fault: None,
                generation,
                wal_bytes,
                unsynced_records: 0,
                unsynced_bytes: 0,
                records_total: 0,
                fsyncs_total: 0,
                compactions_total: 0,
                fold: state.sessions_only(),
            }),
        };
        Ok((persist, state, info))
    }

    /// The data directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn durability(&self) -> Durability {
        self.inner.lock().expect("persist lock").durability
    }

    /// Change the durability policy of a live store — the degradation
    /// ladder demotes to [`Durability::Never`] when syncs keep failing.
    pub fn set_durability(&self, durability: Durability) {
        self.inner.lock().expect("persist lock").durability = durability;
    }

    /// Install a fault-injection hook. Sites consulted: see [`fault_site`].
    pub fn set_fault_hook(&self, hook: FaultHook) {
        self.inner.lock().expect("persist lock").fault = Some(hook);
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// Append one record, fsyncing per the durability policy. The record
    /// is framed in one buffer before the lock is taken.
    pub fn append(&self, rec: &Record) -> io::Result<()> {
        let frame = rec.frame();
        let mut inner = self.inner.lock().expect("persist lock");
        if inner.faulted(fault_site::APPEND) {
            return Err(injected(fault_site::APPEND));
        }
        let bytes = wal::write_frame(&mut inner.wal, &frame)?;
        if !matches!(rec, Record::WarmBatch(_) | Record::WarmFlush) {
            inner.fold.apply(rec.clone());
        }
        inner.wal_bytes += bytes;
        inner.records_total += 1;
        inner.unsynced_records += 1;
        inner.unsynced_bytes += bytes;
        let synced = match inner.durability {
            Durability::Always => true,
            Durability::Batch => {
                inner.unsynced_records >= BATCH_RECORDS || inner.unsynced_bytes >= BATCH_BYTES
            }
            Durability::Never => false,
        };
        if synced {
            if inner.faulted(fault_site::FSYNC) {
                return Err(injected(fault_site::FSYNC));
            }
            inner.wal.sync_all()?;
            inner.fsyncs_total += 1;
            inner.unsynced_records = 0;
            inner.unsynced_bytes = 0;
        }
        Ok(())
    }

    /// Flush any unsynced batch to stable storage. A no-op under
    /// [`Durability::Never`], like append and compaction: a disk the
    /// degradation ladder demoted for failing fsyncs gets no more.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("persist lock");
        if inner.durability != Durability::Never && inner.unsynced_records > 0 {
            if inner.faulted(fault_site::FSYNC) {
                return Err(injected(fault_site::FSYNC));
            }
            inner.wal.sync_all()?;
            inner.fsyncs_total += 1;
            inner.unsynced_records = 0;
            inner.unsynced_bytes = 0;
        }
        Ok(())
    }

    /// Write the live sessions' records and the warm tables `warm` yields
    /// as the next generation's snapshot, switch the live WAL over, and
    /// prune older generations. `warm` runs under the append lock: the
    /// snapshot captures the records written so far, the fresh WAL
    /// receives everything after.
    pub fn compact<I>(&self, warm: impl FnOnce() -> I) -> io::Result<()>
    where
        I: IntoIterator<Item = WarmBatch>,
    {
        let mut inner = self.inner.lock().expect("persist lock");
        let next = inner.generation + 1;

        let tmp = self.dir.join(format!("snap-{next}.tmp"));
        // The new generation's WAL is emptied before its snapshot goes
        // live: a `wal-<next>.log` already on disk belongs to a snapshot
        // recovery skipped (corrupt, or from an older build), and its
        // records must never replay on top of this one, not even after a
        // crash right after the rename.
        let staged = inner
            .write_snapshot(&tmp, warm())
            .and_then(|()| inner.create_wal(&wal_path(&self.dir, next)));
        let new_wal = match staged {
            Ok(wal) => wal,
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
        };
        if inner.faulted(fault_site::RENAME) {
            let _ = fs::remove_file(&tmp);
            return Err(injected(fault_site::RENAME));
        }
        fs::rename(&tmp, snap_path(&self.dir, next))?;
        if inner.durability != Durability::Never {
            sync_dir(&self.dir)?;
        }

        // Switch the live WAL to the new generation before pruning, so a
        // crash here leaves both generations readable.
        let old_gen = inner.generation;
        inner.wal = new_wal;
        inner.generation = next;
        inner.wal_bytes = 0;
        inner.unsynced_records = 0;
        inner.unsynced_bytes = 0;
        inner.compactions_total += 1;

        // Best effort: a missing or stuck old file never fails compaction.
        for g in (0..=old_gen).rev() {
            for path in [snap_path(&self.dir, g), wal_path(&self.dir, g)] {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }

    /// A clone of the live fold: the sessions a crash-now recovery would
    /// yield, modulo any unsynced tail under `Durability::Never`.
    pub fn state(&self) -> PersistState {
        self.inner.lock().expect("persist lock").fold.clone()
    }

    /// Current store statistics.
    pub fn stats(&self) -> PersistStats {
        let inner = self.inner.lock().expect("persist lock");
        PersistStats {
            generation: inner.generation,
            wal_bytes: inner.wal_bytes,
            records_total: inner.records_total,
            fsyncs_total: inner.fsyncs_total,
            compactions_total: inner.compactions_total,
            durability: inner.durability,
            recovery: self.recovery.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{SessionStatus, WarmBatch};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ixtune-persist-storetest-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn submit(id: u64) -> Record {
        Record::SessionSubmitted {
            id,
            spec_json: format!("{{\"id\":{id}}}"),
        }
    }

    fn warm_batch(n: u64) -> Record {
        let mut batch = WarmBatch::new("w", 9, 4, 64);
        for i in 0..n {
            batch.push((i % 4) as u32, &[i], (i as f64 * 1.5).to_bits());
        }
        Record::WarmBatch(batch)
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = temp_dir("reopen");
        {
            let (p, state, info) = Persist::open(&dir, Durability::Batch).unwrap();
            assert_eq!(info.generation, 0);
            assert!(!info.snapshot_loaded);
            assert!(state.sessions().is_empty());
            p.append(&submit(0)).unwrap();
            p.append(&Record::SessionRunning { id: 0 }).unwrap();
            p.append(&warm_batch(5)).unwrap();
            p.append(&Record::SessionDone {
                id: 0,
                result_json: "{}".into(),
            })
            .unwrap();
            assert_eq!(
                p.state().warm_entries(),
                0,
                "the live fold keeps no warm cells"
            );
            // No clean shutdown: drop without sync (page cache keeps it).
        }
        let (_p, state, info) = Persist::open(&dir, Durability::Batch).unwrap();
        assert_eq!(info.wal_records, 4);
        assert!(!info.torn_tail);
        assert_eq!(state.next_id, 1);
        assert_eq!(state.sessions().len(), 1);
        assert!(matches!(
            state.sessions()[0].status,
            SessionStatus::Done { .. }
        ));
        assert_eq!(state.warm_entries(), 5);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = temp_dir("torn");
        {
            let (p, _, _) = Persist::open(&dir, Durability::Always).unwrap();
            p.append(&submit(0)).unwrap();
            p.append(&submit(1)).unwrap();
        }
        // Corrupt the last frame's payload.
        let wal = wal_path(&dir, 0);
        let mut raw = fs::read(&wal).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xff;
        fs::write(&wal, &raw).unwrap();

        let (p, state, info) = Persist::open(&dir, Durability::Always).unwrap();
        assert!(info.torn_tail);
        assert!(info.torn_bytes > 0);
        assert_eq!(info.wal_records, 1);
        assert_eq!(state.sessions().len(), 1, "valid prefix survives");
        // The file itself was truncated: appends continue cleanly.
        p.append(&submit(1)).unwrap();
        drop(p);
        let (_p, state, info) = Persist::open(&dir, Durability::Always).unwrap();
        assert!(!info.torn_tail);
        assert_eq!(state.sessions().len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn compaction_switches_generation_and_prunes() {
        let dir = temp_dir("compact");
        let (p, _, _) = Persist::open(&dir, Durability::Batch).unwrap();
        for i in 0..3 {
            p.append(&submit(i)).unwrap();
        }
        p.compact(Vec::new).unwrap();
        assert_eq!(p.stats().generation, 1);
        assert!(snap_path(&dir, 1).exists());
        assert!(wal_path(&dir, 1).exists());
        assert!(!wal_path(&dir, 0).exists(), "old generation pruned");

        // Post-compaction appends land in the new WAL and replay on top.
        p.append(&submit(3)).unwrap();
        drop(p);
        let (_p, recovered, info) = Persist::open(&dir, Durability::Batch).unwrap();
        assert_eq!(info.generation, 1);
        assert!(info.snapshot_loaded);
        assert_eq!(info.wal_records, 1);
        assert_eq!(recovered.sessions().len(), 4);
        assert_eq!(recovered.next_id, 4);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_generation() {
        let dir = temp_dir("fallback");
        let (p, _, _) = Persist::open(&dir, Durability::Batch).unwrap();
        p.append(&submit(0)).unwrap();
        p.compact(Vec::new).unwrap(); // gen 1
        p.append(&submit(1)).unwrap();
        p.compact(Vec::new).unwrap(); // gen 2
        drop(p);
        // Wreck the gen-2 snapshot; recovery must fall back… but gen 1 was
        // pruned, so it lands on an empty state plus whatever WAL remains.
        // Rebuild gen 1 artificially (an empty record stream is the empty
        // state) to prove the fallback path.
        fs::write(snap_path(&dir, 1), b"").unwrap();
        fs::write(snap_path(&dir, 2), b"garbage not a frame").unwrap();

        let (_p, recovered, info) = Persist::open(&dir, Durability::Batch).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(info.snapshots_skipped, 1);
        assert!(recovered.sessions().is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    /// Injected append faults fail without writing a byte or touching the
    /// fold, injected fsync faults fail after the bytes hit the WAL, and
    /// an injected rename aborts compaction with no generation switch.
    #[test]
    fn fault_hook_fails_the_named_sites_only() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = temp_dir("fault");
        let (p, _, _) = Persist::open(&dir, Durability::Always).unwrap();
        let arm_append = Arc::new(AtomicBool::new(false));
        let arm_fsync = Arc::new(AtomicBool::new(false));
        let arm_rename = Arc::new(AtomicBool::new(false));
        let (a, f, r) = (arm_append.clone(), arm_fsync.clone(), arm_rename.clone());
        p.set_fault_hook(Arc::new(move |site| match site {
            fault_site::APPEND => a.load(Ordering::Relaxed),
            fault_site::FSYNC => f.load(Ordering::Relaxed),
            fault_site::RENAME => r.load(Ordering::Relaxed),
            _ => false,
        }));

        p.append(&submit(0)).unwrap();

        arm_append.store(true, Ordering::Relaxed);
        assert!(p.append(&submit(1)).is_err());
        arm_append.store(false, Ordering::Relaxed);
        assert_eq!(p.state().sessions().len(), 1, "failed append left no trace");

        arm_fsync.store(true, Ordering::Relaxed);
        assert!(p.append(&submit(1)).is_err());
        arm_fsync.store(false, Ordering::Relaxed);
        assert_eq!(
            p.state().sessions().len(),
            2,
            "fsync failure happens after the record is in the WAL"
        );

        arm_rename.store(true, Ordering::Relaxed);
        assert!(p.compact(Vec::new).is_err());
        arm_rename.store(false, Ordering::Relaxed);
        let stats = p.stats();
        assert_eq!(stats.generation, 0, "aborted compaction keeps generation");
        assert!(
            !snap_path(&dir, 1).exists() && !dir.join("snap-1.tmp").exists(),
            "aborted compaction leaves no snapshot or temp file"
        );
        p.compact(Vec::new).unwrap();
        assert_eq!(p.stats().generation, 1);

        // Everything recovered on reopen despite the injected turbulence.
        drop(p);
        let (_p, state, _) = Persist::open(&dir, Durability::Always).unwrap();
        assert_eq!(state.sessions().len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    /// Demoting a live store to `Never` stops the fsync stream — the
    /// degradation ladder's escape hatch when the disk misbehaves.
    #[test]
    fn set_durability_demotes_a_live_store() {
        let dir = temp_dir("demote");
        let (p, _, _) = Persist::open(&dir, Durability::Always).unwrap();
        p.append(&submit(0)).unwrap();
        let fsyncs = p.stats().fsyncs_total;
        assert!(fsyncs > 0);
        p.set_durability(Durability::Never);
        assert_eq!(p.durability(), Durability::Never);
        for i in 1..10 {
            p.append(&submit(i)).unwrap();
            assert_eq!(p.stats().fsyncs_total, fsyncs, "no fsync after demotion");
        }
        assert_eq!(p.stats().durability, Durability::Never);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sync_under_never_does_not_fsync() {
        let dir = temp_dir("never-sync");
        let (p, _, _) = Persist::open(&dir, Durability::Never).unwrap();
        for i in 0..3 {
            p.append(&submit(i)).unwrap();
        }
        p.sync().unwrap();
        assert_eq!(p.stats().fsyncs_total, 0, "a clean shutdown's flush");
        drop(p);
        fs::remove_dir_all(&dir).unwrap();

        // Nor on a store the ladder demoted with records still unsynced.
        let (p, _, _) = Persist::open(&dir, Durability::Batch).unwrap();
        p.append(&submit(0)).unwrap();
        p.set_durability(Durability::Never);
        p.sync().unwrap();
        assert_eq!(p.stats().fsyncs_total, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn durability_policies_count_fsyncs() {
        let dir = temp_dir("fsync");
        let (p, _, _) = Persist::open(&dir, Durability::Always).unwrap();
        for i in 0..3 {
            p.append(&submit(i)).unwrap();
            assert_eq!(p.stats().fsyncs_total, i + 1, "one fsync per append");
        }
        drop(p);
        fs::remove_dir_all(&dir).unwrap();

        let (p, _, _) = Persist::open(&dir, Durability::Never).unwrap();
        for i in 0..200 {
            p.append(&submit(i)).unwrap();
            assert_eq!(p.stats().fsyncs_total, 0);
        }
        drop(p);
        fs::remove_dir_all(&dir).unwrap();

        let (p, _, _) = Persist::open(&dir, Durability::Batch).unwrap();
        for i in 0..(BATCH_RECORDS * 2) {
            p.append(&submit(i)).unwrap();
            // The sync lands on the batch's last record, not before.
            assert_eq!(p.stats().fsyncs_total, (i + 1) / BATCH_RECORDS, "i={i}");
        }
        p.sync().unwrap(); // nothing pending → no extra fsync
        assert_eq!(p.stats().fsyncs_total, 2);
        fs::remove_dir_all(dir).unwrap();
    }
}
