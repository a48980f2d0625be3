//! The durable, shippable update log (WAL) behind replica self-healing.
//!
//! `log` gives every mutation a binary codec; this module gives the codec
//! a **disk contract** and a **wire bundle** so a replica that missed
//! acknowledged `UPDATE`s can replay its way back instead of waiting for
//! an operator restart. Three artifacts live in one WAL directory:
//!
//! * `update.wal` — an append-only record stream. Each record is framed
//!   `[u32 payload_len][payload][u64 fnv64(payload)]`; the payload is a
//!   record kind (staged op vs. epoch commit), the epoch it belongs to,
//!   and the ops as an embedded `PLOG` blob ([`crate::ops_to_bytes`]).
//!   Appends are `fdatasync`ed **before** the serving layer acks the
//!   `UPDATE` — an acknowledged op is on disk, period.
//! * `base.snap` — the compacted base snapshot (a `PTIC` model blob
//!   stamped with its epoch), rewritten atomically (tmp + rename + dir
//!   sync) whenever the log crosses the [`WalOptions`] size/ops bounds.
//!   The snapshot is written *before* the log is rewritten, so a crash
//!   between the two steps leaves records the opener can skip (their
//!   epoch is ≤ the snapshot's), never a gap.
//! * the recovery rule — on open, an **incomplete frame at EOF is a torn
//!   tail** (the crash interrupted an append) and is truncated away; a
//!   complete frame whose checksum or payload does not verify is
//!   **corruption** and fails loudly ([`WalError::Corrupt`]). Silent
//!   skipping is exactly the bug a WAL exists to prevent.
//!
//! Epoch semantics mirror the serving layer: a `Staged` record is one op
//! acknowledged while epoch `e` was current; a `Commit` record marks the
//! swap *to* epoch `e`, folding
//! every staged record since the previous commit (possibly none — an
//! epoch-only swap is a commit with an empty batch). Replay is therefore
//! a pure fold: base model + committed batches → [`ModelOverlay`] →
//! [`ModelOverlay::compact`], bit-identical to the peer that took the
//! same ops live (index repair is bit-identical to a rebuild, so the
//! final model determines the final index).
//!
//! [`SyncBundle`] is the same history in wire form: the `SYNC
//! <from_epoch>` admin verb streams the suffix a stale replica needs,
//! hex-armored to fit the one-line text protocol.

use crate::log::{ops_from_bytes, ops_to_bytes, UpdateOp};
use crate::overlay::{ModelOverlay, UpdateError};
use pitex_model::TicModel;
use pitex_support::codec::{frame_record, DecodeError, Decoder, Encoder, Records};
use pitex_support::obs::AtomicHistogram;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const WAL_MAGIC: [u8; 4] = *b"PWAL";
const WAL_VERSION: u32 = 1;
const SNAP_MAGIC: [u8; 4] = *b"PSNP";
const SNAP_VERSION: u32 = 1;
const BUNDLE_MAGIC: [u8; 4] = *b"PSYN";
const BUNDLE_VERSION: u32 = 1;

/// WAL header: magic + version + `u64` base epoch.
const WAL_HEADER_LEN: u64 = 4 + 4 + 8;

/// Errors from the durable log.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure (open, append, fsync, rename).
    Io(std::io::Error),
    /// A *complete* record failed its checksum or did not decode — the
    /// log is damaged mid-stream and must not be trusted. The offset is
    /// the byte position of the bad record's frame.
    Corrupt { offset: u64, detail: String },
    /// Header-level damage (bad magic/version on the log or snapshot).
    Decode(DecodeError),
    /// Replaying the committed ops was rejected by the overlay — the log
    /// disagrees with the model it claims to extend.
    Replay(UpdateError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "wal corrupt at byte {offset}: {detail}")
            }
            WalError::Decode(e) => write!(f, "wal decode error: {e}"),
            WalError::Replay(e) => write!(f, "wal replay rejected: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<DecodeError> for WalError {
    fn from(e: DecodeError) -> Self {
        WalError::Decode(e)
    }
}

/// Compaction bounds: when the log exceeds either, the serving layer
/// folds it into a fresh `base.snap`. A server runs with the defaults;
/// tests and benches construct tighter bounds.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Compact once `update.wal` exceeds this many bytes (default 64 MiB).
    pub max_bytes: u64,
    /// Compact once the log holds this many committed ops (default 65536).
    pub max_ops: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self { max_bytes: 64 * 1024 * 1024, max_ops: 65_536 }
    }
}

/// One committed epoch transition: the ops folded by the swap *to*
/// `epoch` (empty for an epoch-only swap).
#[derive(Clone, Debug, PartialEq)]
pub struct CommittedBatch {
    /// The epoch this batch's commit swapped the replica to.
    pub epoch: u64,
    /// The staged ops the swap folded, in acknowledgement order.
    pub ops: Vec<UpdateOp>,
}

/// What [`Wal::open`] recovered from disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Epoch of the base snapshot the log extends.
    pub base_epoch: u64,
    /// The compacted base model, if a `base.snap` exists.
    pub base_model: Option<TicModel>,
    /// Committed batches in epoch order (`base_epoch + 1 ..`).
    pub committed: Vec<CommittedBatch>,
    /// Acknowledged-but-uncommitted ops (staged after the last commit).
    pub pending: Vec<UpdateOp>,
    /// Bytes of torn tail truncated away on open (0 = clean shutdown).
    pub truncated_bytes: u64,
}

impl WalRecovery {
    /// The epoch the recovered replica should resume serving at.
    pub fn epoch(&self) -> u64 {
        self.committed.last().map_or(self.base_epoch, |b| b.epoch)
    }

    /// Total committed ops in the recovered log.
    pub fn committed_ops(&self) -> u64 {
        self.committed.iter().map(|b| b.ops.len() as u64).sum()
    }
}

enum RecordKind {
    Staged,
    Commit,
}

fn record_payload(kind: RecordKind, epoch: u64, ops: &[UpdateOp]) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::new());
    enc.u8(match kind {
        RecordKind::Staged => 0,
        RecordKind::Commit => 1,
    });
    enc.u64(epoch);
    let plog = ops_to_bytes(ops);
    let mut buf = enc.into_inner();
    buf.extend_from_slice(&plog);
    buf
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    // Rename durability needs the directory synced too; best-effort on
    // platforms where opening a directory for sync is not supported.
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Writes `base.snap` atomically: tmp file + fdatasync + rename + dir sync.
fn write_snapshot(dir: &Path, model: &TicModel, epoch: u64) -> Result<(), WalError> {
    let mut enc = Encoder::new(Vec::new());
    enc.header(SNAP_MAGIC, SNAP_VERSION);
    enc.u64(epoch);
    let model_bytes = pitex_model::serial::to_bytes(model);
    let mut buf = enc.into_inner();
    buf.extend_from_slice(&(model_bytes.len() as u64).to_le_bytes());
    buf.extend_from_slice(&model_bytes);

    let tmp = dir.join("base.snap.tmp");
    let path = dir.join("base.snap");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    Ok(())
}

fn read_snapshot(dir: &Path) -> Result<Option<(u64, TicModel)>, WalError> {
    let path = dir.join("base.snap");
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(WalError::Io(e)),
    };
    let mut dec = Decoder::new(bytes.as_slice());
    dec.header(SNAP_MAGIC, SNAP_VERSION)?;
    let epoch = dec.u64()?;
    let len = dec.u64()? as usize;
    let offset = (4 + 4 + 8 + 8) as usize;
    if bytes.len() < offset + len {
        return Err(WalError::Decode(DecodeError::UnexpectedEof {
            needed: offset + len,
            remaining: bytes.len(),
        }));
    }
    let model = pitex_model::serial::from_bytes(&bytes[offset..offset + len])
        .map_err(|e| WalError::Corrupt { offset: offset as u64, detail: e.to_string() })?;
    Ok(Some((epoch, model)))
}

/// Lock-free timing histograms the WAL records into (microseconds): the
/// full append (write + sync), the `fdatasync` alone — the number that
/// bounds `UPDATE` ack latency — and compactions. The serving layer hands
/// a clone to [`Wal::set_timings`] and exports the same histograms
/// through `STATS`/`METRICS`, so fsync stalls show up next to query
/// latency instead of hiding under the admin lock.
#[derive(Clone, Debug, Default)]
pub struct WalTimings {
    pub append: Arc<AtomicHistogram>,
    pub fsync: Arc<AtomicHistogram>,
    pub compact: Arc<AtomicHistogram>,
}

/// The open, append-only durable log. See the module docs for the disk
/// contract; the serving layer owns one of these under its admin lock.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    options: WalOptions,
    bytes: u64,
    committed_ops: u64,
    timings: WalTimings,
}

impl Wal {
    /// Opens (or creates) the WAL in `dir`, recovering its history.
    ///
    /// Recovery rules, in order:
    /// * a missing or empty `update.wal` is a fresh log (epoch from
    ///   `base.snap`, or the caller's boot epoch via `default_epoch`);
    /// * an incomplete frame at EOF is a torn tail: truncated and synced;
    /// * a complete frame with a bad checksum or undecodable payload is
    ///   corruption: [`WalError::Corrupt`], the replica must not serve;
    /// * committed batches at or below the snapshot epoch are skipped
    ///   (the crash window between snapshot write and log rewrite).
    pub fn open(
        dir: impl AsRef<Path>,
        default_epoch: u64,
        options: WalOptions,
    ) -> Result<(Self, WalRecovery), WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let snapshot = read_snapshot(&dir)?;
        let path = dir.join("update.wal");
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let snap_epoch = snapshot.as_ref().map(|(e, _)| *e);
        let (base_epoch, records, truncated) = if bytes.is_empty() {
            // Fresh log: stamp the header now so every future open sees it.
            let base = snap_epoch.unwrap_or(default_epoch);
            let mut enc = Encoder::new(Vec::new());
            enc.header(WAL_MAGIC, WAL_VERSION);
            enc.u64(base);
            let header = enc.into_inner();
            file.write_all(&header)?;
            file.sync_data()?;
            (base, Vec::new(), 0)
        } else {
            let mut dec = Decoder::new(bytes.as_slice());
            dec.header(WAL_MAGIC, WAL_VERSION)?;
            let header_base = dec.u64()?;
            let (records, keep_len) = scan_records(&bytes, WAL_HEADER_LEN as usize)?;
            let truncated = bytes.len() as u64 - keep_len as u64;
            if truncated > 0 {
                file.set_len(keep_len as u64)?;
                file.sync_data()?;
            }
            // A snapshot written after this log's header wins (crash
            // between compaction's two steps): skip covered batches below.
            (snap_epoch.unwrap_or(header_base).max(header_base), records, truncated)
        };

        // Fold the raw record stream into committed batches + pending.
        let mut committed = Vec::new();
        let mut staged: Vec<UpdateOp> = Vec::new();
        for (kind, epoch, ops) in records {
            match kind {
                0 => staged.extend(ops),
                1 => {
                    if epoch > base_epoch {
                        committed.push(CommittedBatch { epoch, ops: std::mem::take(&mut staged) });
                    } else {
                        // Covered by the snapshot: drop the batch.
                        staged.clear();
                    }
                }
                _ => unreachable!("scan_records validates kinds"),
            }
        }

        let committed_ops = committed.iter().map(|b| b.ops.len() as u64).sum();
        let file_len = file.metadata()?.len();
        let wal = Self {
            dir,
            file,
            options,
            bytes: file_len,
            committed_ops,
            timings: WalTimings::default(),
        };
        let recovery = WalRecovery {
            base_epoch,
            base_model: snapshot.map(|(_, m)| m),
            committed,
            pending: staged,
            truncated_bytes: truncated,
        };
        Ok((wal, recovery))
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Installs the timing histograms appends/fsyncs/compactions record
    /// into (the default set is recorded but unobserved).
    pub fn set_timings(&mut self, timings: WalTimings) {
        self.timings = timings;
    }

    /// Appends one acknowledged-but-uncommitted op and syncs. Call this
    /// **before** acking the `UPDATE` — the fsync is the ack's warrant.
    pub fn append_staged(&mut self, epoch: u64, op: &UpdateOp) -> Result<(), WalError> {
        self.append(RecordKind::Staged, epoch, std::slice::from_ref(op))
    }

    /// Appends the commit marker for the swap to `epoch` and syncs.
    pub fn append_commit(&mut self, epoch: u64, folded: u64) -> Result<(), WalError> {
        self.append(RecordKind::Commit, epoch, &[])?;
        self.committed_ops += folded;
        Ok(())
    }

    fn append(&mut self, kind: RecordKind, epoch: u64, ops: &[UpdateOp]) -> Result<(), WalError> {
        let buf = frame_record(&record_payload(kind, epoch, ops));
        let started = Instant::now();
        self.file.write_all(&buf)?;
        let pre_sync = Instant::now();
        self.file.sync_data()?;
        self.timings.fsync.record(pre_sync.elapsed().as_micros() as u64);
        self.timings.append.record(started.elapsed().as_micros() as u64);
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// Whether the log has crossed either compaction bound.
    pub fn should_compact(&self) -> bool {
        self.bytes > self.options.max_bytes || self.committed_ops >= self.options.max_ops
    }

    /// Committed ops currently in the log (resets on [`Self::compact`]).
    pub fn committed_ops(&self) -> u64 {
        self.committed_ops
    }

    /// Folds the log into a new base snapshot at `epoch` (the compacted
    /// `model`), then rewrites the log to just a header plus re-staged
    /// `pending` ops. Snapshot first, log second: a crash in between
    /// leaves stale-but-skippable records, never a hole.
    pub fn compact(
        &mut self,
        model: &TicModel,
        epoch: u64,
        pending: &[UpdateOp],
    ) -> Result<(), WalError> {
        let started = Instant::now();
        write_snapshot(&self.dir, model, epoch)?;

        let mut enc = Encoder::new(Vec::new());
        enc.header(WAL_MAGIC, WAL_VERSION);
        enc.u64(epoch);
        let mut buf = enc.into_inner();
        for op in pending {
            buf.extend_from_slice(&frame_record(&record_payload(
                RecordKind::Staged,
                epoch,
                std::slice::from_ref(op),
            )));
        }
        let tmp = self.dir.join("update.wal.tmp");
        let path = self.dir.join("update.wal");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        sync_dir(&self.dir)?;
        self.file = OpenOptions::new().read(true).append(true).open(&path)?;
        self.bytes = buf.len() as u64;
        self.committed_ops = 0;
        self.timings.compact.record(started.elapsed().as_micros() as u64);
        Ok(())
    }
}

/// Scans the framed record stream starting at `offset`. Returns the
/// decoded `(kind, epoch, ops)` triples and the byte length of the valid
/// prefix (anything past it is a torn tail for the caller to truncate).
#[allow(clippy::type_complexity)]
fn scan_records(
    bytes: &[u8],
    offset: usize,
) -> Result<(Vec<(u8, u64, Vec<UpdateOp>)>, usize), WalError> {
    let mut records = Vec::new();
    let mut frames = Records::new(bytes, offset);
    for frame in &mut frames {
        let (pos, payload) = frame.map_err(|bad| WalError::Corrupt {
            offset: bad.offset as u64,
            detail: format!(
                "record checksum mismatch (stored {:#018x}, computed {:#018x})",
                bad.stored, bad.computed
            ),
        })?;
        let corrupt = |detail| WalError::Corrupt { offset: pos as u64, detail };
        let mut dec = Decoder::new(payload);
        let kind = dec.u8().map_err(|e| corrupt(format!("record kind unreadable: {e}")))?;
        if kind > 1 {
            return Err(corrupt(format!("unknown record kind {kind}")));
        }
        let epoch = dec.u64().map_err(|e| corrupt(format!("record epoch unreadable: {e}")))?;
        let ops = ops_from_bytes(&payload[1 + 8..])
            .map_err(|e| corrupt(format!("record ops blob unreadable: {e}")))?;
        records.push((kind, epoch, ops));
    }
    Ok((records, frames.end()))
}

/// Replays committed batches over a base model: one overlay fold, one
/// compaction. Deterministic, so the result is bit-identical to a peer
/// that folded the same batches one swap at a time.
pub fn replay(
    base: Arc<TicModel>,
    batches: &[CommittedBatch],
) -> Result<(TicModel, u64), WalError> {
    let mut overlay = ModelOverlay::new(base);
    let mut replayed = 0u64;
    for batch in batches {
        for op in &batch.ops {
            overlay.apply(op.clone()).map_err(WalError::Replay)?;
            replayed += 1;
        }
    }
    Ok((overlay.compact(), replayed))
}

/// The `SYNC <from_epoch>` reply body: the history suffix a stale
/// replica needs to replay its way to `epoch`, plus the donor's
/// acknowledged-but-uncommitted ops so the rejoiner's overlay matches.
#[derive(Clone, Debug, PartialEq)]
pub struct SyncBundle {
    /// The donor's base (compacted) epoch: requests below this cannot be
    /// served — the history was folded away.
    pub base_epoch: u64,
    /// The donor's current epoch (== last record's epoch, or
    /// `base_epoch` with no records).
    pub epoch: u64,
    /// Committed batches with `epoch > from_epoch`, in order.
    pub records: Vec<CommittedBatch>,
    /// The donor's pending (staged, unacked-by-commit) ops.
    pub pending: Vec<UpdateOp>,
}

impl SyncBundle {
    /// Binary form (magic `PSYN`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new(Vec::new());
        enc.header(BUNDLE_MAGIC, BUNDLE_VERSION);
        enc.u64(self.base_epoch);
        enc.u64(self.epoch);
        enc.u64(self.records.len() as u64);
        let mut buf = enc.into_inner();
        for batch in &self.records {
            buf.extend_from_slice(&batch.epoch.to_le_bytes());
            let blob = ops_to_bytes(&batch.ops);
            buf.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            buf.extend_from_slice(&blob);
        }
        let blob = ops_to_bytes(&self.pending);
        buf.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        buf.extend_from_slice(&blob);
        buf
    }

    /// Decodes [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        dec.header(BUNDLE_MAGIC, BUNDLE_VERSION)?;
        let base_epoch = dec.u64()?;
        let epoch = dec.u64()?;
        let count = dec.u64()? as usize;
        let mut pos = (4 + 4 + 8 + 8 + 8) as usize;
        let take_blob = |pos: &mut usize| -> Result<Vec<UpdateOp>, DecodeError> {
            if bytes.len() < *pos + 8 {
                return Err(DecodeError::UnexpectedEof {
                    needed: *pos + 8,
                    remaining: bytes.len(),
                });
            }
            let len = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap()) as usize;
            *pos += 8;
            if bytes.len() < *pos + len {
                return Err(DecodeError::CorruptLength {
                    declared: len,
                    remaining: bytes.len() - *pos,
                });
            }
            let ops = ops_from_bytes(&bytes[*pos..*pos + len])?;
            *pos += len;
            Ok(ops)
        };
        let mut records = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            if bytes.len() < pos + 8 {
                return Err(DecodeError::UnexpectedEof { needed: pos + 8, remaining: bytes.len() });
            }
            let batch_epoch = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            pos += 8;
            let ops = take_blob(&mut pos)?;
            records.push(CommittedBatch { epoch: batch_epoch, ops });
        }
        let pending = take_blob(&mut pos)?;
        Ok(Self { base_epoch, epoch, records, pending })
    }

    /// Hex armor for the one-line wire protocol.
    pub fn to_hex(&self) -> String {
        let bytes = self.to_bytes();
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            out.push_str(&format!("{b:02x}"));
        }
        out
    }

    /// Decodes [`Self::to_hex`].
    pub fn from_hex(hex: &str) -> Result<Self, String> {
        if hex.len() % 2 != 0 {
            return Err("sync bundle hex has odd length".to_string());
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        let raw = hex.as_bytes();
        for pair in raw.chunks(2) {
            let hi = (pair[0] as char).to_digit(16).ok_or("bad hex digit in sync bundle")?;
            let lo = (pair[1] as char).to_digit(16).ok_or("bad hex digit in sync bundle")?;
            bytes.push((hi * 16 + lo) as u8);
        }
        Self::from_bytes(&bytes).map_err(|e| format!("sync bundle decode: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pitex-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ops() -> Vec<UpdateOp> {
        vec![
            UpdateOp::AddUser,
            UpdateOp::AddEdge { src: 0, dst: 7, topics: vec![(0, 0.5)] },
            UpdateOp::DetachTag { tag: 2 },
        ]
    }

    #[test]
    fn fresh_wal_recovers_empty() {
        let dir = tmp_dir("fresh");
        let (wal, rec) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        assert_eq!(rec.base_epoch, 1);
        assert!(rec.committed.is_empty() && rec.pending.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
        assert!(!wal.should_compact());
        drop(wal);
        // Reopen sees the same fresh state (the header persisted).
        let (_, rec) = Wal::open(&dir, 9, WalOptions::default()).unwrap();
        assert_eq!(rec.base_epoch, 1, "boot epoch comes from the header, not the caller");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_then_commit_round_trips() {
        let dir = tmp_dir("roundtrip");
        let sample = ops();
        {
            let (mut wal, _) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            for op in &sample {
                wal.append_staged(1, op).unwrap();
            }
            wal.append_commit(2, sample.len() as u64).unwrap();
            wal.append_staged(2, &UpdateOp::AddUser).unwrap();
        }
        let (_, rec) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        assert_eq!(rec.base_epoch, 1);
        assert_eq!(rec.epoch(), 2);
        assert_eq!(rec.committed, vec![CommittedBatch { epoch: 2, ops: sample }]);
        assert_eq!(rec.pending, vec![UpdateOp::AddUser]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            wal.append_staged(1, &UpdateOp::AddUser).unwrap();
            wal.append_commit(2, 1).unwrap();
        }
        let path = dir.join("update.wal");
        let full = std::fs::read(&path).unwrap();
        // Chop mid-frame: the commit record loses its checksum bytes.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (_, rec) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        assert_eq!(rec.truncated_bytes as usize, full.len() - 3 - expected_keep(&full));
        assert!(rec.committed.is_empty(), "the torn commit never happened");
        assert_eq!(rec.pending, vec![UpdateOp::AddUser], "the fsynced staged op survives");
        // The truncation is durable: a third open sees a clean log.
        let (_, rec) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Byte length of the valid prefix of `full` minus its final record.
    fn expected_keep(full: &[u8]) -> usize {
        let (_, keep) = scan_records(&full[..full.len() - 3], WAL_HEADER_LEN as usize).unwrap();
        keep
    }

    #[test]
    fn mid_record_corruption_fails_loudly() {
        let dir = tmp_dir("corrupt");
        {
            let (mut wal, _) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            wal.append_staged(1, &UpdateOp::AddUser).unwrap();
            wal.append_commit(2, 1).unwrap();
        }
        let path = dir.join("update.wal");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the *first* record (mid-file).
        let idx = WAL_HEADER_LEN as usize + 5;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&dir, 1, WalOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_into_snapshot_and_resets_log() {
        let dir = tmp_dir("compact");
        let base = Arc::new(TicModel::paper_example());
        let (mut wal, _) = Wal::open(&dir, 1, WalOptions { max_bytes: 1, max_ops: 1 }).unwrap();
        wal.append_staged(1, &UpdateOp::AddUser).unwrap();
        wal.append_commit(2, 1).unwrap();
        assert!(wal.should_compact());

        let mut overlay = ModelOverlay::new(base.clone());
        overlay.apply(UpdateOp::AddUser).unwrap();
        let folded = overlay.compact();
        wal.compact(&folded, 2, &[UpdateOp::DetachTag { tag: 0 }]).unwrap();
        assert!(!wal.should_compact() || wal.bytes > 1, "ops counter reset");
        assert_eq!(wal.committed_ops(), 0);
        drop(wal);

        let (_, rec) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        assert_eq!(rec.base_epoch, 2);
        assert!(rec.committed.is_empty());
        assert_eq!(rec.pending, vec![UpdateOp::DetachTag { tag: 0 }]);
        let snap = rec.base_model.expect("base.snap written");
        assert_eq!(snap.graph().num_nodes(), base.graph().num_nodes() + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_ahead_of_log_skips_covered_batches() {
        // Simulate the crash window: snapshot at epoch 3, log still holds
        // batches for epochs 2 and 3 plus one for epoch 4.
        let dir = tmp_dir("skip");
        let base = Arc::new(TicModel::paper_example());
        {
            let (mut wal, _) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
            wal.append_staged(1, &UpdateOp::AddUser).unwrap();
            wal.append_commit(2, 1).unwrap();
            wal.append_commit(3, 0).unwrap();
            wal.append_staged(3, &UpdateOp::DetachTag { tag: 1 }).unwrap();
            wal.append_commit(4, 1).unwrap();
        }
        let mut overlay = ModelOverlay::new(base);
        overlay.apply(UpdateOp::AddUser).unwrap();
        write_snapshot(&dir, &overlay.compact(), 3).unwrap();

        let (_, rec) = Wal::open(&dir, 1, WalOptions::default()).unwrap();
        assert_eq!(rec.base_epoch, 3);
        assert_eq!(
            rec.committed,
            vec![CommittedBatch { epoch: 4, ops: vec![UpdateOp::DetachTag { tag: 1 }] }]
        );
        assert_eq!(rec.epoch(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_matches_overlay_fold() {
        let base = Arc::new(TicModel::paper_example());
        let batches = vec![
            CommittedBatch { epoch: 2, ops: vec![UpdateOp::AddUser] },
            CommittedBatch {
                epoch: 3,
                ops: vec![UpdateOp::AddEdge { src: 7, dst: 0, topics: vec![(1, 0.3)] }],
            },
        ];
        let (replayed, n) = replay(base.clone(), &batches).unwrap();
        assert_eq!(n, 2);
        let mut overlay = ModelOverlay::new(base);
        for batch in &batches {
            for op in &batch.ops {
                overlay.apply(op.clone()).unwrap();
            }
        }
        let oracle = overlay.compact();
        assert_eq!(
            pitex_model::serial::to_bytes(&replayed),
            pitex_model::serial::to_bytes(&oracle)
        );
    }

    #[test]
    fn replay_rejects_invalid_history() {
        let base = Arc::new(TicModel::paper_example());
        let batches =
            vec![CommittedBatch { epoch: 2, ops: vec![UpdateOp::RemoveEdge { src: 0, dst: 0 }] }];
        assert!(matches!(replay(base, &batches), Err(WalError::Replay(_))));
    }

    #[test]
    fn sync_bundle_round_trips_through_hex() {
        let bundle = SyncBundle {
            base_epoch: 3,
            epoch: 5,
            records: vec![
                CommittedBatch { epoch: 4, ops: ops() },
                CommittedBatch { epoch: 5, ops: vec![] },
            ],
            pending: vec![UpdateOp::AddUser],
        };
        assert_eq!(SyncBundle::from_bytes(&bundle.to_bytes()).unwrap(), bundle);
        assert_eq!(SyncBundle::from_hex(&bundle.to_hex()).unwrap(), bundle);
        assert!(SyncBundle::from_hex("abc").is_err(), "odd length");
        assert!(SyncBundle::from_hex("zz").is_err(), "bad digit");
        assert!(SyncBundle::from_hex("00ff").is_err(), "bad magic");
    }
}
