//! Rolling multi-resolution time series over the metrics registry.
//!
//! Point-in-time metrics cannot answer "when did p99 start climbing?" —
//! by the time an operator looks, the spike is averaged into the
//! since-boot aggregate. A [`TimeSeriesStore`] keeps the recent past in
//! fixed-size ring buffers at two resolutions, each kept for its one
//! reader: [`FAST_SLOTS`] 1-tick windows (2 minutes at the default 1 s
//! tick) for `pitex top`'s sparklines, and [`MID_SLOTS`] 10-tick windows
//! (an hour) for the SLO engine's burn windows. A background sampler calls
//! [`TimeSeriesStore::tick`] with the server's full stats-field export;
//! the store classifies each field through the registration [`SCHEMA`](crate::metrics::SCHEMA):
//!
//! * **counters** are stored as per-window *deltas* (a rate series — the
//!   since-boot total is already in the live export);
//! * **gauges** keep the last value observed in the window;
//! * **histograms** are stored as per-window *snapshot deltas* (the
//!   bucket-wise difference of the cumulative histogram), so a window's
//!   p50/p99 is exact **for that window** — percentiles of the recent
//!   past, not of the whole run, and never an average of percentiles;
//! * **labels** are skipped (no time dimension).
//!
//! Derived quantile fields (`lat_p99_us` and friends, declared with
//! [`MergeRule::Quantile`]) are served by quantiling the matching
//! histogram ring per window, inheriting the exactness above.
//!
//! The store is lock-light by construction rather than by cleverness: the
//! single sampler thread is the only writer, readers (the `SERIES` verb)
//! are rare, and the serving hot path never touches the store at all — it
//! keeps writing the same atomic counters it always has; the sampler
//! *reads* those atomics once a tick.

use crate::hist::LatencyHistogram;
use crate::metrics::{capture_for, pattern_subst, spec_for, MergeRule, MetricKind};
use crate::{knob, Lookup};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::Mutex;
use std::time::Duration;

/// Windows in the fast ring: two minutes at the default tick.
pub const FAST_SLOTS: usize = 120;

/// Windows in the mid ring: an hour at the default tick.
pub const MID_SLOTS: usize = 360;

/// Tuning knobs for a [`TimeSeriesStore`], resolved once at boot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TsOptions {
    /// Sampler tick interval (`PITEX_OBS_TS_TICK_MS`, default 1000).
    pub tick: Duration,
}

impl Default for TsOptions {
    fn default() -> Self {
        Self { tick: Duration::from_millis(1000) }
    }
}

impl TsOptions {
    /// The defaults with the tick read from `PITEX_OBS_TS_TICK_MS` (a zero
    /// tick counts as 1 ms); a set value that is not a whole number of
    /// milliseconds is refused.
    pub fn from_env(lookup: Lookup<'_>) -> io::Result<Self> {
        let tick = knob(lookup, "PITEX_OBS_TS_TICK_MS")?;
        Ok(tick.map_or_else(Self::default, |ms| Self { tick: Duration::from_millis(ms.max(1)) }))
    }
}

/// The two ring resolutions, named by how fresh they are rather than by
/// wall-clock width — window widths scale with the configured tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesRes {
    /// 1 tick per window, [`FAST_SLOTS`] windows.
    Fast,
    /// 10 ticks per window, [`MID_SLOTS`] windows.
    Mid,
}

/// Every resolution, ring-array order.
pub const ALL_RES: [SeriesRes; 2] = [SeriesRes::Fast, SeriesRes::Mid];

impl SeriesRes {
    /// Ticks aggregated into one window at this resolution.
    pub fn window_ticks(self) -> u64 {
        match self {
            SeriesRes::Fast => 1,
            SeriesRes::Mid => 10,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SeriesRes::Fast => "fast",
            SeriesRes::Mid => "mid",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        ALL_RES.into_iter().find(|res| res.name() == s)
    }

    fn slots(self) -> usize {
        match self {
            SeriesRes::Fast => FAST_SLOTS,
            SeriesRes::Mid => MID_SLOTS,
        }
    }
}

/// What shape a field's points take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-window deltas of a monotone counter.
    Counter,
    /// Last-in-window value of a gauge.
    Gauge,
    /// Per-window histogram snapshots.
    Hist,
}

impl SeriesKind {
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Hist => "hist",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(SeriesKind::Counter),
            "gauge" => Some(SeriesKind::Gauge),
            "hist" => Some(SeriesKind::Hist),
            _ => None,
        }
    }
}

/// One field's completed windows at one resolution, oldest first.
#[derive(Clone, Debug, PartialEq)]
pub enum SeriesPoints {
    Scalar(Vec<f64>),
    Hist(Vec<LatencyHistogram>),
}

impl SeriesPoints {
    pub fn len(&self) -> usize {
        match self {
            SeriesPoints::Scalar(v) => v.len(),
            SeriesPoints::Hist(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`TimeSeriesStore::series`] answer: the ring contents plus enough
/// metadata (tick width, window width) for a consumer to lay the points on
/// a time axis.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesDump {
    pub field: String,
    pub res: SeriesRes,
    pub tick_ms: u64,
    pub window_ticks: u64,
    pub kind: SeriesKind,
    pub points: SeriesPoints,
}

/// Per-ring state for one field: the completed windows plus the window
/// currently accumulating.
// A histogram field's rings hold *only* the large variant, so boxing it
// would buy no memory back — just an allocation per sealed window.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum RingData {
    Counter { acc: u64, points: VecDeque<u64> },
    Gauge { last: f64, points: VecDeque<f64> },
    Hist { acc: LatencyHistogram, points: VecDeque<LatencyHistogram> },
}

impl RingData {
    fn seal(&mut self, cap: usize) {
        match self {
            RingData::Counter { acc, points } => {
                points.push_back(std::mem::take(acc));
                while points.len() > cap {
                    points.pop_front();
                }
            }
            RingData::Gauge { last, points } => {
                // Gauges carry across windows: an idle window reports the
                // last known level, not zero.
                points.push_back(*last);
                while points.len() > cap {
                    points.pop_front();
                }
            }
            RingData::Hist { acc, points } => {
                points.push_back(std::mem::take(acc));
                while points.len() > cap {
                    points.pop_front();
                }
            }
        }
    }
}

/// Last absolute value seen for a field, for delta kinds.
// Same trade as [`RingData`]: a hist field's `prev` IS the large variant.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum Prev {
    Counter(u64),
    Gauge,
    Hist(LatencyHistogram),
}

#[derive(Clone, Debug)]
struct FieldSeries {
    kind: SeriesKind,
    prev: Prev,
    rings: [RingData; ALL_RES.len()],
}

#[derive(Debug, Default)]
struct Inner {
    tick_no: u64,
    fields: BTreeMap<String, FieldSeries>,
}

/// The rolling time-series store. One writer (the sampler thread) and
/// occasional readers share a single mutex; see the module docs for why
/// that is cheap.
#[derive(Debug)]
pub struct TimeSeriesStore {
    options: TsOptions,
    inner: Mutex<Inner>,
}

impl TimeSeriesStore {
    pub fn new(options: TsOptions) -> Self {
        Self { options, inner: Mutex::new(Inner::default()) }
    }

    pub fn options(&self) -> &TsOptions {
        &self.options
    }

    /// Ticks absorbed so far.
    pub fn ticks(&self) -> u64 {
        self.inner.lock().unwrap().tick_no
    }

    /// Absorbs one sampler pass over the full stats-field export. Fields
    /// are classified through the [`SCHEMA`](crate::metrics::SCHEMA); unregistered or label fields
    /// are skipped. A field appearing for the first time establishes its
    /// baseline (its first delta is zero — a sampler attaching to a warm
    /// server must not report the whole history as one spike).
    pub fn tick<'a>(&self, fields: impl IntoIterator<Item = (&'a str, &'a str)>) {
        let mut inner = self.inner.lock().unwrap();
        for (name, value) in fields {
            let Some(spec) = spec_for(name) else { continue };
            // Derived quantiles are recomputed from the histogram ring at
            // read time; storing their point-in-time (since-boot) values
            // would silently reintroduce the averaged-percentile bug.
            if matches!(spec.merge, MergeRule::Quantile { .. }) {
                continue;
            }
            match spec.kind {
                MetricKind::Label => continue,
                MetricKind::Counter => {
                    let Ok(cur) = value.parse::<u64>() else { continue };
                    let entry = inner
                        .fields
                        .entry(name.to_string())
                        .or_insert_with(|| field_series(SeriesKind::Counter, Prev::Counter(cur)));
                    let Prev::Counter(prev) = &mut entry.prev else { continue };
                    let delta = cur.saturating_sub(*prev);
                    *prev = cur;
                    for ring in entry.rings.iter_mut() {
                        if let RingData::Counter { acc, .. } = ring {
                            *acc += delta;
                        }
                    }
                }
                MetricKind::Gauge => {
                    let Ok(cur) = value.parse::<f64>() else { continue };
                    let entry = inner
                        .fields
                        .entry(name.to_string())
                        .or_insert_with(|| field_series(SeriesKind::Gauge, Prev::Gauge));
                    for ring in entry.rings.iter_mut() {
                        if let RingData::Gauge { last, .. } = ring {
                            *last = cur;
                        }
                    }
                }
                MetricKind::Histogram => {
                    let Ok(cur) = LatencyHistogram::from_wire(value) else { continue };
                    let entry = inner
                        .fields
                        .entry(name.to_string())
                        .or_insert_with(|| field_series(SeriesKind::Hist, Prev::Hist(cur.clone())));
                    let Prev::Hist(prev) = &mut entry.prev else { continue };
                    let delta = hist_delta(prev, &cur);
                    *prev = cur;
                    for ring in entry.rings.iter_mut() {
                        if let RingData::Hist { acc, .. } = ring {
                            acc.merge(&delta);
                        }
                    }
                }
            }
        }
        inner.tick_no += 1;
        let tick_no = inner.tick_no;
        for res in ALL_RES {
            if tick_no % res.window_ticks() == 0 {
                for series in inner.fields.values_mut() {
                    series.rings[res as usize].seal(res.slots());
                }
            }
        }
    }

    /// The completed windows of `field` at `res`, oldest first. `None`
    /// when the field has never been sampled (and, for derived quantiles,
    /// when its backing histogram has not been). A known field with no
    /// completed windows yet returns an empty dump, not `None`.
    pub fn series(&self, field: &str, res: SeriesRes) -> Option<SeriesDump> {
        let inner = self.inner.lock().unwrap();
        let dump = |name: &str| -> Option<(SeriesKind, SeriesPoints)> {
            let entry = inner.fields.get(name)?;
            let points = match &entry.rings[res as usize] {
                RingData::Counter { points, .. } => {
                    SeriesPoints::Scalar(points.iter().map(|&v| v as f64).collect())
                }
                RingData::Gauge { points, .. } => {
                    SeriesPoints::Scalar(points.iter().copied().collect())
                }
                RingData::Hist { points, .. } => {
                    SeriesPoints::Hist(points.iter().cloned().collect())
                }
            };
            Some((entry.kind, points))
        };
        let (kind, points) = match spec_for(field).map(|s| s.merge) {
            // `lat_p99_us` & co: quantile the histogram ring per window —
            // exact per-window percentiles.
            Some(MergeRule::Quantile { hist, q }) => {
                let spec = spec_for(field).expect("matched above");
                let hist_field = pattern_subst(hist, &capture_for(spec, field));
                let (_, points) = dump(&hist_field)?;
                let SeriesPoints::Hist(hists) = points else { return None };
                (
                    SeriesKind::Gauge,
                    SeriesPoints::Scalar(hists.iter().map(|h| h.quantile(q) as f64).collect()),
                )
            }
            _ => dump(field)?,
        };
        Some(SeriesDump {
            field: field.to_string(),
            res,
            tick_ms: self.options.tick.as_millis() as u64,
            window_ticks: res.window_ticks(),
            kind,
            points,
        })
    }

    /// Every field the store has sampled so far (sorted).
    pub fn field_names(&self) -> Vec<String> {
        self.inner.lock().unwrap().fields.keys().cloned().collect()
    }
}

fn field_series(kind: SeriesKind, prev: Prev) -> FieldSeries {
    let ring = |res: SeriesRes| match kind {
        SeriesKind::Counter => {
            RingData::Counter { acc: 0, points: VecDeque::with_capacity(res.slots()) }
        }
        SeriesKind::Gauge => {
            RingData::Gauge { last: 0.0, points: VecDeque::with_capacity(res.slots()) }
        }
        SeriesKind::Hist => RingData::Hist {
            acc: LatencyHistogram::new(),
            points: VecDeque::with_capacity(res.slots()),
        },
    };
    FieldSeries { kind, prev, rings: ALL_RES.map(ring) }
}

/// Bucket-wise `cur - prev`, saturating: a histogram that shrank (server
/// restart behind a stable connection) baselines rather than underflows.
fn hist_delta(prev: &LatencyHistogram, cur: &LatencyHistogram) -> LatencyHistogram {
    let mut buckets = [0u64; crate::hist::NUM_BUCKETS];
    for (i, slot) in buckets.iter_mut().enumerate() {
        *slot = cur.buckets()[i].saturating_sub(prev.buckets()[i]);
    }
    LatencyHistogram::from_buckets(buckets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TimeSeriesStore {
        TimeSeriesStore::new(TsOptions { tick: Duration::from_millis(10) })
    }

    fn scalar(dump: &SeriesDump) -> Vec<f64> {
        match &dump.points {
            SeriesPoints::Scalar(v) => v.clone(),
            other => panic!("expected scalar points, got {other:?}"),
        }
    }

    #[test]
    fn counters_become_per_window_deltas() {
        let store = tiny();
        // First tick establishes the baseline (the counter was already at
        // 100 when the sampler attached).
        store.tick([("requests", "100")]);
        store.tick([("requests", "103")]);
        store.tick([("requests", "110")]);
        let dump = store.series("requests", SeriesRes::Fast).unwrap();
        assert_eq!(dump.kind, SeriesKind::Counter);
        assert_eq!((dump.tick_ms, dump.window_ticks), (10, 1));
        assert_eq!(scalar(&dump), vec![0.0, 3.0, 7.0]);
    }

    #[test]
    fn fast_ring_evicts_oldest() {
        let store = tiny();
        store.tick([("requests", "0")]);
        for i in 1..=FAST_SLOTS as u64 + 2 {
            store.tick([("requests", i.to_string().as_str())]);
        }
        let dump = store.series("requests", SeriesRes::Fast).unwrap();
        // FAST_SLOTS + 3 completed windows: the first three, the zero
        // baseline among them, fell off.
        assert_eq!(scalar(&dump), vec![1.0; FAST_SLOTS]);
    }

    #[test]
    fn mid_ring_aggregates_ten_ticks() {
        let store = tiny();
        for i in 0..20u64 {
            let v = (i * 2).to_string();
            store.tick([("requests", v.as_str())]);
        }
        let dump = store.series("requests", SeriesRes::Mid).unwrap();
        assert_eq!(dump.window_ticks, 10);
        // Baseline tick contributes 0; ticks 2..=10 contribute 2 each
        // (18), then 2 * 10 = 20 for the second full window.
        assert_eq!(scalar(&dump), vec![18.0, 20.0]);
        // Past MID_SLOTS windows the oldest, the 18, falls off.
        for i in 20..(MID_SLOTS as u64 + 1) * 10 {
            let v = (i * 2).to_string();
            store.tick([("requests", v.as_str())]);
        }
        let dump = store.series("requests", SeriesRes::Mid).unwrap();
        assert_eq!(scalar(&dump), vec![20.0; MID_SLOTS]);
    }

    #[test]
    fn gauges_keep_the_last_value_and_carry_over_idle_windows() {
        let store = tiny();
        store.tick([("cache_len", "5")]);
        store.tick([("cache_len", "9")]);
        store.tick(std::iter::empty::<(&str, &str)>()); // absent this tick: gauge carries
        let dump = store.series("cache_len", SeriesRes::Fast).unwrap();
        assert_eq!(dump.kind, SeriesKind::Gauge);
        assert_eq!(scalar(&dump), vec![5.0, 9.0, 9.0]);
    }

    #[test]
    fn histograms_snapshot_per_window_and_quantiles_derive() {
        let store = tiny();
        // Cumulative wire strings: 4 samples in bucket 3 ([4,7]), then 4
        // more in bucket 10 ([512,1023]).
        store.tick([("lat_hist", "-")]);
        store.tick([("lat_hist", "3:4")]);
        store.tick([("lat_hist", "3:4,10:4")]);
        let dump = store.series("lat_hist", SeriesRes::Fast).unwrap();
        assert_eq!(dump.kind, SeriesKind::Hist);
        let SeriesPoints::Hist(points) = &dump.points else { panic!() };
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].count(), 0);
        assert_eq!(points[1].to_wire(), "3:4");
        assert_eq!(points[2].to_wire(), "10:4", "window sees only its own samples");

        // The derived p99 series quantiles each window independently: the
        // second window's p99 is in bucket 3, the third in bucket 10 —
        // not a blend.
        let p99 = store.series("lat_p99_us", SeriesRes::Fast).unwrap();
        assert_eq!(p99.kind, SeriesKind::Gauge);
        let points = scalar(&p99);
        assert_eq!(points[0], 0.0);
        assert!(points[1] <= 7.0, "second window p99 within bucket 3: {points:?}");
        assert!(points[2] >= 512.0, "third window p99 within bucket 10: {points:?}");
    }

    #[test]
    fn unknown_and_label_fields_are_skipped() {
        let store = tiny();
        store.tick([("backend", "lazy"), ("made_up_field", "7")]);
        store.tick([("backend", "lazy")]);
        assert!(store.series("backend", SeriesRes::Fast).is_none());
        assert!(store.series("made_up_field", SeriesRes::Fast).is_none());
        assert!(store.field_names().is_empty());
    }

    #[test]
    fn counter_reset_baselines_instead_of_underflowing() {
        let store = tiny();
        store.tick([("requests", "50")]);
        store.tick([("requests", "60")]);
        store.tick([("requests", "3")]); // restarted server behind the same address
        let dump = store.series("requests", SeriesRes::Fast).unwrap();
        assert_eq!(scalar(&dump), vec![0.0, 10.0, 0.0]);
    }

    #[test]
    fn env_knobs_parse() {
        let tick = |value: Option<&str>| {
            TsOptions::from_env(&|key: &str| {
                assert_eq!(key, "PITEX_OBS_TS_TICK_MS");
                value.map(str::to_string)
            })
        };
        assert_eq!(tick(Some("250")).unwrap().tick, Duration::from_millis(250));
        assert_eq!(tick(Some("0")).unwrap().tick, Duration::from_millis(1));
        assert_eq!(tick(None).unwrap(), TsOptions::default());
        let err = tick(Some("25ms")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("PITEX_OBS_TS_TICK_MS"), "{err}");
    }
}
