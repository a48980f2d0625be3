//! The flight recorder: an always-on, lock-light ring buffer of the last
//! N request summaries, plus a threshold-triggered slow-query log. When a
//! node misbehaves, `FLIGHT` dumps what it was *just* doing — no need to
//! have had tracing enabled in advance.

use crate::{knob, Lookup};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One recorded request summary. Verb/backend/outcome are `&'static str`
/// so recording never allocates beyond the slot write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    pub trace_id: u64,
    /// Wall-clock microseconds since `UNIX_EPOCH` at admission, stamped
    /// through the shared [`crate::capture::wall_now_us`] anchor so
    /// flight entries line up with `PWRK` capture records and `TRACE`
    /// timelines from the same process.
    pub ts_us: u64,
    pub verb: &'static str,
    pub user: u32,
    pub k: usize,
    pub backend: &'static str,
    /// `ok`, `busy`, `deadline`, `error`, …
    pub outcome: &'static str,
    pub us: u64,
}

/// Flight-recorder knobs, read from the environment once at server boot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsOptions {
    /// Ring capacity (default 256; 0 disables recording entirely). Not an
    /// environment knob: unit tests size small rings with it.
    pub flight_capacity: usize,
    /// Slow-query threshold in microseconds (`PITEX_OBS_SLOW_US`,
    /// default 0 = disabled): requests at or over it are copied into the
    /// separate slow log, which survives ring churn.
    pub slow_us: u64,
}

impl Default for ObsOptions {
    fn default() -> Self {
        Self { flight_capacity: 256, slow_us: 0 }
    }
}

impl ObsOptions {
    /// The defaults with the slow-query threshold read from
    /// `PITEX_OBS_SLOW_US` (unset: off; not a whole number: refused).
    pub fn from_env(lookup: Lookup<'_>) -> std::io::Result<Self> {
        let slow_us = knob(lookup, "PITEX_OBS_SLOW_US")?;
        Ok(Self { slow_us: slow_us.unwrap_or(0), ..Self::default() })
    }
}

struct Slot {
    entry: Mutex<Option<FlightEntry>>,
}

/// How many slow-log entries are retained (oldest evicted first).
const SLOW_LOG_CAP: usize = 64;

/// A fixed-capacity ring of the most recent request summaries.
///
/// Lock-light by construction: writers claim a slot with one relaxed
/// `fetch_add` on the cursor, then take that slot's *own* mutex — two
/// writers contend only when the ring has wrapped all the way around
/// between them, and readers only block the one slot they are copying.
/// No allocation on the record path.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    cursor: AtomicU64,
    recorded: AtomicU64,
    slow_us: u64,
    slow: Mutex<VecDeque<FlightEntry>>,
    slow_count: AtomicU64,
}

impl FlightRecorder {
    pub fn new(options: ObsOptions) -> Self {
        let mut slots = Vec::with_capacity(options.flight_capacity);
        for _ in 0..options.flight_capacity {
            slots.push(Slot { entry: Mutex::new(None) });
        }
        Self {
            slots,
            cursor: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            slow_us: options.slow_us,
            slow: Mutex::new(VecDeque::new()),
            slow_count: AtomicU64::new(0),
        }
    }

    /// Records one request summary. A poisoned slot mutex (a panic while
    /// holding it) just skips the write — the recorder must never take a
    /// request down with it.
    pub fn record(&self, entry: FlightEntry) {
        if self.slow_us > 0 && entry.us >= self.slow_us {
            self.slow_count.fetch_add(1, Ordering::Relaxed);
            if let Ok(mut slow) = self.slow.lock() {
                if slow.len() == SLOW_LOG_CAP {
                    slow.pop_front();
                }
                slow.push_back(entry.clone());
            }
        }
        if self.slots.is_empty() {
            return;
        }
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        if let Ok(mut guard) = self.slots[slot].entry.lock() {
            *guard = Some(entry);
            self.recorded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total entries recorded into the ring since boot.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Requests that crossed the slow threshold since boot.
    pub fn slow_count(&self) -> u64 {
        self.slow_count.load(Ordering::Relaxed)
    }

    /// The ring contents, oldest first. A best-effort snapshot: entries
    /// recorded mid-dump may or may not appear.
    pub fn dump(&self) -> Vec<FlightEntry> {
        let len = self.slots.len();
        if len == 0 {
            return Vec::new();
        }
        let cursor = self.cursor.load(Ordering::Relaxed) as usize;
        let mut out = Vec::new();
        for i in 0..len {
            let slot = (cursor + i) % len;
            if let Ok(guard) = self.slots[slot].entry.lock() {
                if let Some(entry) = guard.as_ref() {
                    out.push(entry.clone());
                }
            }
        }
        out
    }

    /// The retained slow-query entries, oldest first.
    pub fn slow_queries(&self) -> Vec<FlightEntry> {
        self.slow.lock().map(|s| s.iter().cloned().collect()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace_id: u64, us: u64) -> FlightEntry {
        FlightEntry {
            trace_id,
            ts_us: crate::capture::wall_now_us(),
            verb: "QUERY",
            user: 7,
            k: 5,
            backend: "lazy",
            outcome: "ok",
            us,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_entries() {
        let rec = FlightRecorder::new(ObsOptions { flight_capacity: 4, slow_us: 0 });
        for i in 0..10u64 {
            rec.record(entry(i, 100));
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        let ids: Vec<u64> = dump.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest first, only the last capacity survive");
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn zero_capacity_disables_the_ring() {
        let rec = FlightRecorder::new(ObsOptions { flight_capacity: 0, slow_us: 50 });
        rec.record(entry(1, 100));
        assert!(rec.dump().is_empty());
        assert_eq!(rec.recorded(), 0);
        // …but the slow log still works.
        assert_eq!(rec.slow_count(), 1);
        assert_eq!(rec.slow_queries().len(), 1);
    }

    #[test]
    fn slow_log_triggers_at_threshold_and_is_bounded() {
        let rec = FlightRecorder::new(ObsOptions { flight_capacity: 8, slow_us: 500 });
        rec.record(entry(1, 499));
        rec.record(entry(2, 500));
        rec.record(entry(3, 9_000));
        assert_eq!(rec.slow_count(), 2);
        let slow: Vec<u64> = rec.slow_queries().iter().map(|e| e.trace_id).collect();
        assert_eq!(slow, vec![2, 3]);
        for i in 0..(SLOW_LOG_CAP as u64 + 10) {
            rec.record(entry(100 + i, 1_000));
        }
        assert_eq!(rec.slow_queries().len(), SLOW_LOG_CAP);
        assert_eq!(rec.slow_queries().last().unwrap().trace_id, 100 + SLOW_LOG_CAP as u64 + 9);
    }

    #[test]
    fn slow_threshold_zero_disables_the_slow_log() {
        let rec = FlightRecorder::new(ObsOptions { flight_capacity: 4, slow_us: 0 });
        rec.record(entry(1, u64::MAX));
        assert_eq!(rec.slow_count(), 0);
        assert!(rec.slow_queries().is_empty());
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let rec = std::sync::Arc::new(FlightRecorder::new(ObsOptions {
            flight_capacity: 16,
            slow_us: 0,
        }));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    rec.record(entry(t * 1_000 + i, 10));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 2_000);
        assert_eq!(rec.dump().len(), 16);
    }
}
