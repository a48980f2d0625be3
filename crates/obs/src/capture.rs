//! Workload capture: a lock-light sampled request recorder flushed to a
//! compact binary workload log (`PWRK` framing over [`crate::codec`]).
//!
//! Where the flight recorder keeps the last N requests *in memory* for
//! post-hoc inspection, capture writes a durable trace of (a sample of)
//! everything a server admitted — timestamp, verb, user, `k`, requested
//! and resolved backend, outcome, latency, trace id, and the answer
//! itself — so a production run can later be replayed open-loop at its
//! original pace (`pitex replay`) and the replayed answers verified
//! bit-identically against what was served.
//!
//! # On-disk format
//!
//! ```text
//! [magic "PWRK"][u32 version][u64 anchor_us]     file header
//! [u32 len][payload][u64 fnv64(payload)]         one frame per record
//! ```
//!
//! All integers little-endian, the same framing discipline as the update
//! WAL (`PWAL`): every record carries its own checksum, an incomplete
//! frame at the tail is a *torn tail* (the process died mid-flush —
//! tolerated, reported as truncated bytes), while a complete frame whose
//! checksum or payload does not decode is *corruption* and refuses
//! loudly. `anchor_us` is the process-wide wall-clock anchor (below) at
//! the moment the log was created.
//!
//! # One wall clock per process
//!
//! [`clock_anchor`] pairs a monotonic [`Instant`] origin with the wall
//! clock read *once* at first use; [`wall_now_us`] derives every later
//! timestamp from that single pair. Capture records, flight-recorder
//! entries and the trace-id seed all stamp through it, so a `PWRK` log, a
//! `FLIGHT` dump and a `TRACE` timeline from the same run can be
//! correlated offline without per-subsystem clock skew.

use crate::codec::{frame_record, DecodeError, Decoder, Encoder, Records};
use crate::{knob, Lookup};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Magic tag identifying a PITEX workload log.
pub const CAPTURE_MAGIC: [u8; 4] = *b"PWRK";
/// Current workload-log format version.
pub const CAPTURE_VERSION: u32 = 1;

/// Frames buffered in memory are flushed to the file once their encoded
/// size crosses this threshold (or on `CAPTURE off`/`rotate`/drop).
const FLUSH_BYTES: usize = 64 * 1024;

/// The process-wide wall-clock anchor: a monotonic origin paired with the
/// wall clock (microseconds since `UNIX_EPOCH`) read once, at first use.
/// Every timestamp the observability layer emits derives from this pair.
pub fn clock_anchor() -> (Instant, u64) {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    *ANCHOR.get_or_init(|| {
        let wall = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), wall)
    })
}

/// Microseconds since `UNIX_EPOCH`, measured as a monotonic offset from
/// the shared [`clock_anchor`] — immune to wall-clock steps after boot,
/// and consistent across capture, flight and trace within one process.
pub fn wall_now_us() -> u64 {
    let (origin, wall) = clock_anchor();
    wall.saturating_add(origin.elapsed().as_micros() as u64)
}

/// One captured request: what was asked, how it was handled, and what was
/// answered. `tags`/`spread_bits` carry the answer so `pitex replay
/// --verify` can check a replayed run bit-for-bit against the recording
/// (spread travels as raw `f64` bits — exact equality, no formatting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Wall-clock microseconds since `UNIX_EPOCH` at admission
    /// ([`wall_now_us`]).
    pub ts_us: u64,
    /// The request's trace id (minted at admission; joins this record to
    /// `FLIGHT` entries and `TRACE` timelines).
    pub trace_id: u64,
    /// Protocol verb (`QUERY`, `EXPLAIN`, `TRACE`).
    pub verb: String,
    /// Query user.
    pub user: u32,
    /// Requested tag-set size.
    pub k: u32,
    /// Requested backend (`auto`, `lazy`, …; `-` when the server default
    /// applied).
    pub backend: String,
    /// The concrete backend that answered (`-` when the request never
    /// reached one).
    pub resolved: String,
    /// `ok`, `cached`, `busy`, `deadline`, `error`, …
    pub outcome: String,
    /// Server-side handling time in microseconds.
    pub us: u64,
    /// The answered tag set (empty unless the outcome carried one).
    pub tags: Vec<u32>,
    /// The answered spread as raw `f64` bits (0 when no answer).
    pub spread_bits: u64,
}

impl CaptureRecord {
    /// The answered spread as an `f64`.
    pub fn spread(&self) -> f64 {
        f64::from_bits(self.spread_bits)
    }
}

/// Encodes one record's payload (frame body, checksum excluded).
pub fn encode_record(record: &CaptureRecord) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::new());
    enc.u64(record.ts_us);
    enc.u64(record.trace_id);
    enc.str(&record.verb);
    enc.u32(record.user);
    enc.u32(record.k);
    enc.str(&record.backend);
    enc.str(&record.resolved);
    enc.str(&record.outcome);
    enc.u64(record.us);
    enc.u32_slice(&record.tags);
    enc.u64(record.spread_bits);
    enc.into_inner()
}

/// Decodes one record payload (inverse of [`encode_record`]).
pub fn decode_record(payload: &[u8]) -> Result<CaptureRecord, DecodeError> {
    let mut dec = Decoder::new(payload);
    Ok(CaptureRecord {
        ts_us: dec.u64()?,
        trace_id: dec.u64()?,
        verb: dec.str()?,
        user: dec.u32()?,
        k: dec.u32()?,
        backend: dec.str()?,
        resolved: dec.str()?,
        outcome: dec.str()?,
        us: dec.u64()?,
        tags: dec.u32_slice()?,
        spread_bits: dec.u64()?,
    })
}

/// The file header: magic, version, and the recording process's
/// wall-clock anchor.
fn header_bytes(anchor_us: u64) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::new());
    enc.header(CAPTURE_MAGIC, CAPTURE_VERSION);
    enc.u64(anchor_us);
    enc.into_inner()
}

/// Why a workload log failed to load. A torn tail is *not* an error (the
/// reader reports it as [`CaptureLog::truncated_bytes`]); anything else —
/// bad header, checksum mismatch, undecodable payload — is.
#[derive(Debug)]
pub enum CaptureError {
    /// The file header did not validate (wrong magic/version/truncated).
    Header(DecodeError),
    /// A complete frame failed its checksum or would not decode.
    Corrupt { offset: usize, detail: String },
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Header(e) => write!(f, "workload log header: {e}"),
            CaptureError::Corrupt { offset, detail } => {
                write!(f, "workload log corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for CaptureError {}

/// A decoded workload log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureLog {
    /// The recording process's wall-clock anchor (µs since `UNIX_EPOCH`).
    pub anchor_us: u64,
    /// Every intact record, in capture order.
    pub records: Vec<CaptureRecord>,
    /// Bytes of torn tail ignored at the end of the file (0 for a cleanly
    /// flushed log).
    pub truncated_bytes: usize,
}

/// Decodes a `PWRK` workload log from raw file bytes. An incomplete frame
/// at the tail is tolerated (torn tail: the recorder died mid-flush); a
/// complete frame that fails its checksum or does not decode refuses
/// loudly with [`CaptureError::Corrupt`].
pub fn read_log(bytes: &[u8]) -> Result<CaptureLog, CaptureError> {
    let mut dec = Decoder::new(bytes);
    dec.header(CAPTURE_MAGIC, CAPTURE_VERSION).map_err(CaptureError::Header)?;
    let anchor_us = dec.u64().map_err(CaptureError::Header)?;
    let mut frames = Records::new(bytes, 4 + 4 + 8);
    let mut records = Vec::new();
    for frame in &mut frames {
        let (offset, payload) = frame.map_err(|bad| CaptureError::Corrupt {
            offset: bad.offset,
            detail: format!("checksum mismatch in a {}-byte record", bad.len),
        })?;
        let record = decode_record(payload)
            .map_err(|e| CaptureError::Corrupt { offset, detail: e.to_string() })?;
        records.push(record);
    }
    Ok(CaptureLog { anchor_us, records, truncated_bytes: bytes.len() - frames.end() })
}

/// Capture knobs, read from the environment once at server boot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CaptureOptions {
    /// Workload-log path (`PITEX_OBS_CAPTURE`); unset disables capture
    /// entirely (the recorder becomes a no-op).
    pub path: Option<PathBuf>,
    /// Sampling rate (`PITEX_OBS_CAPTURE_RATE`): record 1 in `rate`
    /// admitted requests. 0 or 1 (the default) records every request.
    pub rate: u64,
}

impl CaptureOptions {
    /// Reads `PITEX_OBS_CAPTURE` / `PITEX_OBS_CAPTURE_RATE`, falling back
    /// to disabled / record-everything when unset; a rate that is not a
    /// whole number is refused.
    pub fn from_env(lookup: Lookup<'_>) -> std::io::Result<Self> {
        let path = lookup("PITEX_OBS_CAPTURE").filter(|v| !v.is_empty());
        let rate = knob(lookup, "PITEX_OBS_CAPTURE_RATE")?.unwrap_or(1);
        Ok(Self { path: path.map(PathBuf::from), rate })
    }
}

struct Sink {
    file: File,
    /// Encoded frames not yet written to `file`.
    buffer: Vec<u8>,
    /// Frames currently in `buffer` (for loss accounting on a failed
    /// flush).
    pending: u64,
}

impl Sink {
    fn flush(&mut self) -> std::io::Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let result = self.file.write_all(&self.buffer).and_then(|()| self.file.flush());
        // Clear the buffer either way: on failure the frames are lost (the
        // caller counts them), and retrying a partial write would corrupt
        // the frame stream anyway. Torn tails are the reader's problem to
        // tolerate, duplicated bytes are not.
        self.buffer.clear();
        self.pending = 0;
        result
    }
}

/// A lock-light sampled request recorder writing the `PWRK` workload log.
///
/// The hot path is: one relaxed `fetch_add` for the sampling decision,
/// record construction and encoding on the caller's thread, then one
/// short mutex hold to append the encoded frame to the write buffer
/// (actual file I/O happens only when the buffer crosses the 64 KiB flush threshold).
/// Recording never fails the request: I/O errors are counted in
/// [`dropped`](Self::dropped) and the server keeps serving.
pub struct CaptureRecorder {
    inner: Option<Inner>,
}

struct Inner {
    path: PathBuf,
    rate: u64,
    enabled: AtomicBool,
    seq: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    rotations: AtomicU64,
    sink: Mutex<Sink>,
}

impl CaptureRecorder {
    /// A recorder with no sink: every operation is a no-op. What a server
    /// without `PITEX_OBS_CAPTURE` runs with.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Opens (creating or truncating) the workload log and writes its
    /// header. With no path configured, returns the no-op recorder.
    pub fn new(options: CaptureOptions) -> std::io::Result<Self> {
        let Some(path) = options.path else {
            return Ok(Self::disabled());
        };
        let file = Self::create_log(&path)?;
        Ok(Self {
            inner: Some(Inner {
                path,
                rate: options.rate.max(1),
                enabled: AtomicBool::new(true),
                seq: AtomicU64::new(0),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                rotations: AtomicU64::new(0),
                sink: Mutex::new(Sink { file, buffer: Vec::new(), pending: 0 }),
            }),
        })
    }

    fn create_log(path: &Path) -> std::io::Result<File> {
        let mut file = File::create(path)?;
        file.write_all(&header_bytes(clock_anchor().1))?;
        Ok(file)
    }

    /// Whether a sink is configured at all (a `CAPTURE on` can succeed).
    pub fn configured(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether recording is currently on.
    pub fn enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.enabled.load(Ordering::Relaxed))
    }

    /// The workload-log path, when configured.
    pub fn path(&self) -> Option<&Path> {
        self.inner.as_ref().map(|i| i.path.as_path())
    }

    /// Records sampled into the log since boot (buffered counts as
    /// recorded; frames lost to I/O errors move to `dropped`).
    pub fn recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.recorded.load(Ordering::Relaxed))
    }

    /// Sampled records lost to sink I/O errors.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Turns recording on or off (`CAPTURE on|off`). Turning it off
    /// flushes the buffer so the log is complete on disk.
    pub fn set_enabled(&self, on: bool) {
        let Some(inner) = &self.inner else { return };
        inner.enabled.store(on, Ordering::Relaxed);
        if !on {
            self.flush();
        }
    }

    /// Records one request summary if the sampler selects it. The record
    /// is only *built* (closure) when selected, so sampled-out requests
    /// pay one `fetch_add` and nothing else. Never fails the request.
    pub fn record(&self, make: impl FnOnce() -> CaptureRecord) {
        let Some(inner) = &self.inner else { return };
        if !inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let n = inner.seq.fetch_add(1, Ordering::Relaxed);
        if inner.rate > 1 && n % inner.rate != 0 {
            return;
        }
        let framed = frame_record(&encode_record(&make()));
        let Ok(mut sink) = inner.sink.lock() else { return };
        sink.buffer.extend_from_slice(&framed);
        sink.pending += 1;
        inner.recorded.fetch_add(1, Ordering::Relaxed);
        if sink.buffer.len() >= FLUSH_BYTES {
            let pending = sink.pending;
            if sink.flush().is_err() {
                inner.recorded.fetch_sub(pending, Ordering::Relaxed);
                inner.dropped.fetch_add(pending, Ordering::Relaxed);
            }
        }
    }

    /// Flushes buffered frames to the file (best-effort; losses are
    /// counted in [`dropped`](Self::dropped)).
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        let Ok(mut sink) = inner.sink.lock() else { return };
        let pending = sink.pending;
        if sink.flush().is_err() {
            inner.recorded.fetch_sub(pending, Ordering::Relaxed);
            inner.dropped.fetch_add(pending, Ordering::Relaxed);
        }
    }

    /// `CAPTURE rotate`: flushes and renames the current log to
    /// `<path>.<n>` (first free suffix), then starts a fresh log (new
    /// header, same anchor) at the configured path. Returns the rotated
    /// file's path.
    pub fn rotate(&self) -> std::io::Result<PathBuf> {
        let Some(inner) = &self.inner else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "no capture path configured",
            ));
        };
        let mut sink = inner
            .sink
            .lock()
            .map_err(|_| std::io::Error::other("capture sink poisoned by a panic"))?;
        let pending = sink.pending;
        if sink.flush().is_err() {
            inner.recorded.fetch_sub(pending, Ordering::Relaxed);
            inner.dropped.fetch_add(pending, Ordering::Relaxed);
        }
        let mut n = inner.rotations.load(Ordering::Relaxed) + 1;
        let rotated = loop {
            let candidate = PathBuf::from(format!("{}.{n}", inner.path.display()));
            if !candidate.exists() {
                break candidate;
            }
            n += 1;
        };
        std::fs::rename(&inner.path, &rotated)?;
        sink.file = Self::create_log(&inner.path)?;
        inner.rotations.store(n, Ordering::Relaxed);
        Ok(rotated)
    }
}

impl Drop for CaptureRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pitex-capture-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("workload.pwrk")
    }

    fn record(i: u64) -> CaptureRecord {
        CaptureRecord {
            ts_us: 1_700_000_000_000_000 + i,
            trace_id: 0xabc0 + i,
            verb: "QUERY".into(),
            user: i as u32,
            k: 2,
            backend: "auto".into(),
            resolved: "lazy".into(),
            outcome: "ok".into(),
            us: 100 + i,
            tags: vec![2, 3],
            spread_bits: (2.0575f64).to_bits(),
        }
    }

    #[test]
    fn records_round_trip_the_payload_codec() {
        for rec in [
            record(0),
            CaptureRecord { tags: Vec::new(), spread_bits: 0, outcome: "busy".into(), ..record(1) },
            CaptureRecord { verb: "TRACE".into(), backend: "-".into(), ..record(2) },
        ] {
            assert_eq!(decode_record(&encode_record(&rec)).unwrap(), rec);
        }
    }

    #[test]
    fn recorder_writes_a_readable_log() {
        let path = tmp_path("roundtrip");
        let rec =
            CaptureRecorder::new(CaptureOptions { path: Some(path.clone()), rate: 1 }).unwrap();
        for i in 0..10 {
            rec.record(|| record(i));
        }
        rec.flush();
        let log = read_log(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(log.records.len(), 10);
        assert_eq!(log.truncated_bytes, 0);
        assert_eq!(log.anchor_us, clock_anchor().1);
        assert_eq!(log.records[3], record(3));
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn sampling_rate_keeps_one_in_n() {
        let path = tmp_path("sampled");
        let rec =
            CaptureRecorder::new(CaptureOptions { path: Some(path.clone()), rate: 4 }).unwrap();
        for i in 0..40 {
            rec.record(|| record(i));
        }
        rec.flush();
        let log = read_log(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(log.records.len(), 10, "1 in 4 of 40");
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn disabling_stops_recording_and_flushes() {
        let path = tmp_path("toggle");
        let rec =
            CaptureRecorder::new(CaptureOptions { path: Some(path.clone()), rate: 1 }).unwrap();
        rec.record(|| record(0));
        rec.set_enabled(false);
        rec.record(|| record(1));
        let log = read_log(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(log.records.len(), 1, "the record after `off` is not written");
        rec.set_enabled(true);
        rec.record(|| record(2));
        rec.flush();
        let log = read_log(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(log.records.len(), 2);
    }

    #[test]
    fn rotation_preserves_the_old_log_and_starts_fresh() {
        let path = tmp_path("rotate");
        let rec =
            CaptureRecorder::new(CaptureOptions { path: Some(path.clone()), rate: 1 }).unwrap();
        rec.record(|| record(0));
        let rotated = rec.rotate().unwrap();
        assert_eq!(rotated, PathBuf::from(format!("{}.1", path.display())));
        rec.record(|| record(1));
        rec.flush();
        let old = read_log(&std::fs::read(&rotated).unwrap()).unwrap();
        let new = read_log(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(old.records.len(), 1);
        assert_eq!(new.records.len(), 1);
        assert_eq!(new.records[0], record(1));
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp_path("torn");
        let rec =
            CaptureRecorder::new(CaptureOptions { path: Some(path.clone()), rate: 1 }).unwrap();
        rec.record(|| record(0));
        rec.flush();
        drop(rec);
        // Append a frame that claims 64 payload bytes but provides 7.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7]);
        let log = read_log(&bytes).unwrap();
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.truncated_bytes, 11);
    }

    #[test]
    fn corruption_refuses_loudly() {
        let path = tmp_path("corrupt");
        let rec =
            CaptureRecorder::new(CaptureOptions { path: Some(path.clone()), rate: 1 }).unwrap();
        rec.record(|| record(0));
        rec.record(|| record(1));
        rec.flush();
        drop(rec);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 20; // inside the second frame's payload
        bytes[mid] ^= 0xff;
        let err = read_log(&bytes).unwrap_err();
        assert!(matches!(err, CaptureError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = CaptureRecorder::disabled();
        assert!(!rec.configured());
        assert!(!rec.enabled());
        rec.record(|| unreachable!("a disabled recorder must not build records"));
        rec.flush();
        assert_eq!(rec.recorded(), 0);
        assert!(rec.rotate().is_err());
    }

    #[test]
    fn wall_clock_is_anchored_and_monotonic() {
        let (origin, wall) = clock_anchor();
        assert_eq!(clock_anchor(), (origin, wall), "anchor is read once");
        let a = wall_now_us();
        let b = wall_now_us();
        assert!(b >= a);
        assert!(a >= wall);
    }
}
