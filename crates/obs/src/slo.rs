//! SLO burn-rate health evaluation over the rolling time series.
//!
//! An SLO turns "is it healthy?" from a judgement call into arithmetic: a
//! target fraction of requests must be good (non-error for the
//! availability objective, under a latency threshold for the latency
//! objective). The *burn rate* is how fast the error budget is being
//! spent — `bad_fraction / (1 - target)` — so a burn of 1.0 exactly
//! exhausts the budget over the objective period, 10.0 exhausts it ten
//! times as fast.
//!
//! Following the SRE multi-window recipe, every objective is evaluated
//! over two windows of the [`TimeSeriesStore`]'s **mid** ring: a fast
//! window (default ≈5 minutes) that reacts quickly, and a slow window
//! (default ≈1 hour) that confirms the problem is sustained. The verdict:
//!
//! * **page** — fast burn ≥ page threshold *and* slow burn ≥ 1.0: the
//!   budget is burning fast and it is not a blip;
//! * **warn** — fast burn ≥ warn threshold *or* slow burn ≥ 1.0: worth a
//!   look, not worth a wake-up;
//! * **ok** — otherwise.
//!
//! Every non-ok verdict carries its evidence — the window that tripped,
//! the burn rate, and the offending field — because "degraded" without a
//! pointer is a question, not an answer. The router re-evaluates shard
//! verdicts under shard-named origins and appends its own, so the cluster
//! verdict names the worst shard outright.

use crate::hist::LatencyHistogram;
use crate::timeseries::{SeriesPoints, SeriesRes, TimeSeriesStore, MID_SLOTS};
use crate::{bad_knob, knob, Lookup};
use std::{fmt, io};

/// Availability target: good = non-error fraction of requests.
pub const AVAIL_TARGET: f64 = 0.999;

/// Latency threshold in µs — a request slower than this is "bad" for the
/// latency objective.
pub const LATENCY_THRESHOLD_US: u64 = 100_000;

/// Latency target: fraction of requests that must beat the threshold.
pub const LATENCY_TARGET: f64 = 0.999;

/// Fast-window burn rate that yields `warn`.
pub const WARN_BURN: f64 = 2.0;

/// Fast-window burn rate that (with a confirming slow window) yields
/// `page`.
pub const PAGE_BURN: f64 = 10.0;

/// Window geometry, resolved once at boot. The targets and burn
/// thresholds are constants ([`AVAIL_TARGET`], [`LATENCY_THRESHOLD_US`],
/// [`LATENCY_TARGET`], [`WARN_BURN`], [`PAGE_BURN`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloOptions {
    /// Fast window, in mid-ring windows (`PITEX_SLO_FAST_WINDOWS`,
    /// default 30 ≈ 5 minutes at the default 10 s mid window).
    pub fast_windows: usize,
    /// Slow window, in mid-ring windows (`PITEX_SLO_SLOW_WINDOWS`,
    /// default 360 ≈ 1 hour).
    pub slow_windows: usize,
}

impl Default for SloOptions {
    fn default() -> Self {
        Self { fast_windows: 30, slow_windows: 360 }
    }
}

impl SloOptions {
    /// Reads `PITEX_SLO_FAST_WINDOWS` / `PITEX_SLO_SLOW_WINDOWS`, keeping
    /// the defaults when unset; a zero window counts as one. A value that
    /// is not a whole number, or one above the [`MID_SLOTS`] windows the
    /// mid ring holds, is refused rather than quietly shortened.
    pub fn from_env(lookup: Lookup<'_>) -> io::Result<Self> {
        let windows = |key: &str, default: usize| match knob(lookup, key)? {
            None => Ok(default),
            Some(n) if n > MID_SLOTS as u64 => {
                let why = format!("is more than the {MID_SLOTS} windows the mid ring holds");
                Err(bad_knob(key, &n.to_string(), &why))
            }
            Some(n) => Ok(n.max(1) as usize),
        };
        let d = Self::default();
        Ok(Self {
            fast_windows: windows("PITEX_SLO_FAST_WINDOWS", d.fast_windows)?,
            slow_windows: windows("PITEX_SLO_SLOW_WINDOWS", d.slow_windows)?,
        })
    }
}

/// One hop's names: the fields a shard or a router registers and exports
/// the same way under different names, and what its messages and threads
/// call it. Registration, the shared `STATS` fields and the SLO engine
/// (`requests`, `errors`, `lat_hist`) all read this one table.
#[derive(Debug)]
pub struct HopNames {
    /// What messages call the hop (`admin verbs are disabled on this …`).
    pub hop: &'static str,
    /// What a `SERIES` miss calls a field.
    pub field: &'static str,
    /// Thread-name prefix.
    pub threads: &'static str,
    pub requests: &'static str,
    pub ok: &'static str,
    pub busy: &'static str,
    pub errors: &'static str,
    /// A hop without it books a missed deadline under `errors`.
    pub deadline: Option<&'static str>,
    /// Completed replies whose connection died first, where counted.
    pub conn_aborted: Option<&'static str>,
    /// Latency of the `OK` replies, and its p50 / p90 / p99 fields.
    pub lat_hist: &'static str,
    pub lat_quantiles: [&'static str; 3],
    pub lat_mean: Option<&'static str>,
    pub uptime_s: &'static str,
    pub flight_recorded: &'static str,
    pub slow_queries: &'static str,
    pub capture_records: &'static str,
    pub capture_dropped: &'static str,
}

/// The shard's names.
pub static SHARD_NAMES: HopNames = HopNames {
    hop: "server",
    field: "field",
    threads: "pitex",
    requests: "requests",
    ok: "ok",
    busy: "busy",
    errors: "errors",
    deadline: Some("deadline"),
    conn_aborted: Some("conn_aborted"),
    lat_hist: "lat_hist",
    lat_quantiles: ["lat_p50_us", "lat_p90_us", "lat_p99_us"],
    lat_mean: Some("lat_mean_us"),
    uptime_s: "uptime_s",
    flight_recorded: "flight_recorded",
    slow_queries: "slow_queries",
    capture_records: "capture_records",
    capture_dropped: "capture_dropped",
};

/// The router's names.
pub static ROUTER_NAMES: HopNames = HopNames {
    hop: "router",
    field: "router field",
    threads: "pitex-router",
    requests: "router_requests",
    ok: "router_ok",
    busy: "router_busy",
    errors: "router_errors",
    deadline: None,
    conn_aborted: None,
    lat_hist: "router_lat_hist",
    lat_quantiles: ["router_lat_p50_us", "router_lat_p90_us", "router_lat_p99_us"],
    lat_mean: None,
    uptime_s: "router_uptime_s",
    flight_recorded: "router_flight_recorded",
    slow_queries: "router_slow_queries",
    capture_records: "router_capture_records",
    capture_dropped: "router_capture_dropped",
};

/// Health status, ordered by severity (`Ok < Warn < Page`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloStatus {
    Ok,
    Warn,
    Page,
}

impl SloStatus {
    pub fn name(self) -> &'static str {
        match self {
            SloStatus::Ok => "ok",
            SloStatus::Warn => "warn",
            SloStatus::Page => "page",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(SloStatus::Ok),
            "warn" => Some(SloStatus::Warn),
            "page" => Some(SloStatus::Page),
            _ => None,
        }
    }
}

impl fmt::Display for SloStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One objective's verdict, with the evidence that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct SloVerdict {
    /// Objective name: `availability` or `latency`.
    pub name: String,
    pub status: SloStatus,
    /// Which window tripped: `fast`, `slow`, or `-` when ok.
    pub window: String,
    /// The tripping window's burn rate (the fast burn when ok).
    pub burn: f64,
    /// The registry field the objective watched.
    pub field: String,
    /// Where the evidence came from: `self` on a shard, `shardN` or
    /// `router` in a merged cluster verdict.
    pub origin: String,
}

/// The whole component's verdict: worst status across objectives, plus
/// every per-objective verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthVerdict {
    pub status: SloStatus,
    /// Origin of the worst non-ok verdict (`-` when everything is ok).
    pub worst: String,
    pub slos: Vec<SloVerdict>,
}

impl HealthVerdict {
    /// Folds a set of per-objective verdicts into a component verdict.
    pub fn from_slos(slos: Vec<SloVerdict>) -> Self {
        let mut status = SloStatus::Ok;
        let mut worst = "-".to_string();
        let mut worst_burn = f64::NEG_INFINITY;
        for v in &slos {
            let beats = v.status > status
                || (v.status == status && v.status != SloStatus::Ok && v.burn > worst_burn);
            if beats {
                status = v.status;
                worst_burn = v.burn;
                worst = v.origin.clone();
            }
        }
        Self { status, worst, slos }
    }
}

/// Evaluates both objectives against `store` and folds them into a
/// component verdict with origin `self`.
pub fn evaluate(store: &TimeSeriesStore, options: &SloOptions, inputs: &HopNames) -> HealthVerdict {
    let slos =
        vec![availability_verdict(store, options, inputs), latency_verdict(store, options, inputs)];
    HealthVerdict::from_slos(slos)
}

fn availability_verdict(
    store: &TimeSeriesStore,
    options: &SloOptions,
    inputs: &HopNames,
) -> SloVerdict {
    let bad_fraction = |windows: usize| -> Option<f64> {
        let requests = tail_sum(store, inputs.requests, windows)?;
        let errors = tail_sum(store, inputs.errors, windows)?;
        if requests <= 0.0 {
            return None;
        }
        Some((errors / requests).clamp(0.0, 1.0))
    };
    verdict(
        "availability",
        inputs.errors,
        AVAIL_TARGET,
        bad_fraction(options.fast_windows),
        bad_fraction(options.slow_windows),
    )
}

fn latency_verdict(store: &TimeSeriesStore, options: &SloOptions, inputs: &HopNames) -> SloVerdict {
    let bad_fraction = |windows: usize| -> Option<f64> {
        let merged = tail_hist(store, inputs.lat_hist, windows)?;
        if merged.count() == 0 {
            return None;
        }
        Some(fraction_above(&merged, LATENCY_THRESHOLD_US))
    };
    verdict(
        "latency",
        inputs.lat_hist,
        LATENCY_TARGET,
        bad_fraction(options.fast_windows),
        bad_fraction(options.slow_windows),
    )
}

/// Applies the multi-window rule to one objective's fast/slow bad
/// fractions. `None` (no traffic yet) counts as a clean window — an idle
/// service is a healthy service.
fn verdict(
    name: &str,
    field: &str,
    target: f64,
    fast_bad: Option<f64>,
    slow_bad: Option<f64>,
) -> SloVerdict {
    let budget = (1.0 - target).max(f64::EPSILON);
    let fast_burn = fast_bad.unwrap_or(0.0) / budget;
    let slow_burn = slow_bad.unwrap_or(0.0) / budget;
    let (status, window, burn) = if fast_burn >= PAGE_BURN && slow_burn >= 1.0 {
        (SloStatus::Page, "fast", fast_burn)
    } else if fast_burn >= WARN_BURN {
        (SloStatus::Warn, "fast", fast_burn)
    } else if slow_burn >= 1.0 {
        (SloStatus::Warn, "slow", slow_burn)
    } else {
        (SloStatus::Ok, "-", fast_burn)
    };
    SloVerdict {
        name: name.to_string(),
        status,
        window: window.to_string(),
        burn,
        field: field.to_string(),
        origin: "self".to_string(),
    }
}

/// Sum of the last `windows` mid-ring points of a counter field.
fn tail_sum(store: &TimeSeriesStore, field: &str, windows: usize) -> Option<f64> {
    let dump = store.series(field, SeriesRes::Mid)?;
    let SeriesPoints::Scalar(points) = dump.points else { return None };
    let start = points.len().saturating_sub(windows);
    Some(points[start..].iter().sum())
}

/// Merge of the last `windows` mid-ring snapshots of a histogram field.
fn tail_hist(store: &TimeSeriesStore, field: &str, windows: usize) -> Option<LatencyHistogram> {
    let dump = store.series(field, SeriesRes::Mid)?;
    let SeriesPoints::Hist(points) = dump.points else { return None };
    let start = points.len().saturating_sub(windows);
    let mut merged = LatencyHistogram::new();
    for h in &points[start..] {
        merged.merge(h);
    }
    Some(merged)
}

/// Fraction of recorded samples strictly above `threshold`, with linear
/// interpolation inside the straddling bucket (the same uniform-in-bucket
/// model as [`LatencyHistogram::quantile`]).
pub fn fraction_above(hist: &LatencyHistogram, threshold: u64) -> f64 {
    let total = hist.count();
    if total == 0 {
        return 0.0;
    }
    let mut above = 0u64;
    let mut straddle = 0.0f64;
    for (bucket, &n) in hist.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        let lower = crate::hist::bucket_lower_bound(bucket);
        let upper = crate::hist::bucket_upper_bound(bucket);
        if lower > threshold {
            above += n;
        } else if upper > threshold {
            // Bucket straddles the threshold: assume uniform occupancy.
            let width = (upper - lower) as f64 + 1.0;
            let above_width = (upper - threshold) as f64;
            straddle += n as f64 * (above_width / width);
        }
    }
    ((above as f64 + straddle) / total as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TsOptions;
    use std::time::Duration as StdDuration;

    fn store() -> TimeSeriesStore {
        TimeSeriesStore::new(TsOptions { tick: StdDuration::from_millis(10) })
    }

    fn options() -> SloOptions {
        SloOptions { fast_windows: 3, slow_windows: 6 }
    }

    /// Pushes one *mid* window's worth of ticks with the given cumulative
    /// field values repeated (counters only move on the first tick).
    fn push_window(store: &TimeSeriesStore, requests: u64, errors: u64, hist: &LatencyHistogram) {
        let requests = requests.to_string();
        let errors = errors.to_string();
        let hist = hist.to_wire();
        for _ in 0..SeriesRes::Mid.window_ticks() {
            store.tick([
                ("requests", requests.as_str()),
                ("errors", errors.as_str()),
                ("lat_hist", hist.as_str()),
            ]);
        }
    }

    fn fast_hist(samples: u64) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for _ in 0..samples {
            h.record(500); // well under the default 100 ms threshold
        }
        h
    }

    #[test]
    fn idle_store_is_ok() {
        let verdict = evaluate(&store(), &options(), &SHARD_NAMES);
        assert_eq!(verdict.status, SloStatus::Ok);
        assert_eq!(verdict.worst, "-");
        assert_eq!(verdict.slos.len(), 2);
        assert!(verdict.slos.iter().all(|v| v.status == SloStatus::Ok && v.window == "-"));
    }

    #[test]
    fn healthy_traffic_is_ok() {
        let store = store();
        let mut hist = LatencyHistogram::new();
        let mut requests = 0;
        for _ in 0..6 {
            requests += 1000;
            hist.merge(&fast_hist(1000));
            push_window(&store, requests, 0, &hist);
        }
        let verdict = evaluate(&store, &options(), &SHARD_NAMES);
        assert_eq!(verdict.status, SloStatus::Ok, "verdict: {verdict:?}");
    }

    #[test]
    fn sustained_errors_page_with_evidence() {
        let store = store();
        let mut requests = 0;
        let mut errors = 0;
        let hist = fast_hist(0);
        for _ in 0..6 {
            requests += 1000;
            errors += 100; // 10% errors: burn 100x against a 0.1% budget
            push_window(&store, requests, errors, &hist);
        }
        let verdict = evaluate(&store, &options(), &SHARD_NAMES);
        assert_eq!(verdict.status, SloStatus::Page);
        assert_eq!(verdict.worst, "self");
        let avail = verdict.slos.iter().find(|v| v.name == "availability").unwrap();
        assert_eq!(avail.status, SloStatus::Page);
        assert_eq!(avail.window, "fast");
        assert_eq!(avail.field, "errors");
        assert!(avail.burn > 50.0, "burn: {}", avail.burn);
    }

    #[test]
    fn slow_latency_pages_and_names_the_histogram() {
        let store = store();
        let opts = options();
        let mut hist = LatencyHistogram::new();
        let mut requests = 0;
        for _ in 0..6 {
            requests += 100;
            for _ in 0..100 {
                hist.record(1_000_000); // 1 s — 10x over the threshold
            }
            push_window(&store, requests, 0, &hist);
        }
        let verdict = evaluate(&store, &opts, &SHARD_NAMES);
        assert_eq!(verdict.status, SloStatus::Page);
        let lat = verdict.slos.iter().find(|v| v.name == "latency").unwrap();
        assert_eq!(lat.status, SloStatus::Page);
        assert_eq!(lat.field, "lat_hist");
        assert_eq!(lat.window, "fast");
    }

    #[test]
    fn short_blip_warns_but_does_not_page() {
        let store = store();
        let opts = SloOptions { fast_windows: 1, slow_windows: 6 };
        let mut hist = LatencyHistogram::new();
        let mut requests = 0;
        // Five clean high-traffic windows, then one window with a burst of
        // slow requests: the fast window burns way past the page
        // threshold, but the slow window has budget left — the
        // multi-window rule holds the page and emits a warn instead.
        for _ in 0..5 {
            requests += 10_000;
            hist.merge(&fast_hist(10_000));
            push_window(&store, requests, 0, &hist);
        }
        requests += 1000;
        hist.merge(&fast_hist(970));
        for _ in 0..30 {
            hist.record(1_000_000);
        }
        push_window(&store, requests, 0, &hist);
        let verdict = evaluate(&store, &opts, &SHARD_NAMES);
        let lat = verdict.slos.iter().find(|v| v.name == "latency").unwrap();
        assert_eq!(lat.status, SloStatus::Warn, "verdict: {verdict:?}");
        assert_eq!(lat.window, "fast");
        assert!(lat.burn >= PAGE_BURN, "fast window alone would have paged: {}", lat.burn);
    }

    #[test]
    fn merged_cluster_verdict_names_the_worst_origin() {
        let ok = SloVerdict {
            name: "availability".into(),
            status: SloStatus::Ok,
            window: "-".into(),
            burn: 0.1,
            field: "errors".into(),
            origin: "shard0".into(),
        };
        let warm = SloVerdict {
            name: "latency".into(),
            status: SloStatus::Page,
            window: "fast".into(),
            burn: 12.0,
            field: "lat_hist".into(),
            origin: "shard1".into(),
        };
        let hot = SloVerdict { burn: 40.0, origin: "shard2".into(), ..warm.clone() };
        let verdict = HealthVerdict::from_slos(vec![ok, warm, hot]);
        assert_eq!(verdict.status, SloStatus::Page);
        assert_eq!(verdict.worst, "shard2", "higher burn wins the tie");
    }

    #[test]
    fn fraction_above_interpolates_within_the_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(600); // bucket 10 = [512, 1023]
        }
        let f = fraction_above(&h, 767); // midpoint of the bucket
        assert!((f - 0.5).abs() < 0.01, "fraction: {f}");
        assert_eq!(fraction_above(&h, 1023), 0.0);
        assert_eq!(fraction_above(&h, 100), 1.0);
    }

    #[test]
    fn window_knobs_parse_and_refuse_what_the_mid_ring_cannot_hold() {
        let read = |fast: Option<&str>, slow: Option<&str>| {
            SloOptions::from_env(&|key: &str| match key {
                "PITEX_SLO_FAST_WINDOWS" => fast.map(str::to_string),
                "PITEX_SLO_SLOW_WINDOWS" => slow.map(str::to_string),
                other => panic!("unexpected knob {other}"),
            })
        };
        assert_eq!(read(None, None).unwrap(), SloOptions::default());
        let max = MID_SLOTS.to_string();
        let opts = read(Some("0"), Some(max.as_str())).unwrap();
        assert_eq!((opts.fast_windows, opts.slow_windows), (1, MID_SLOTS), "zero counts as one");
        for (fast, slow, named) in [
            (None, Some("720"), "PITEX_SLO_SLOW_WINDOWS"),
            (Some("361"), None, "PITEX_SLO_FAST_WINDOWS"),
            (Some("5m"), None, "PITEX_SLO_FAST_WINDOWS"),
            (None, Some(""), "PITEX_SLO_SLOW_WINDOWS"),
        ] {
            let err = read(fast, slow).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    #[test]
    fn status_orders_and_parses() {
        assert!(SloStatus::Ok < SloStatus::Warn && SloStatus::Warn < SloStatus::Page);
        for s in [SloStatus::Ok, SloStatus::Warn, SloStatus::Page] {
            assert_eq!(SloStatus::parse(s.name()), Some(s));
        }
        assert_eq!(SloStatus::parse("bogus"), None);
    }
}
