//! Observability primitives for the PITEX serving stack.
//!
//! This crate sits *below* `pitex_support` (which re-exports it as
//! `pitex_support::obs`) and depends only on the vendored [`bytes`] shim,
//! so every layer — the WAL, the planner, the server, the router — can
//! record into it without new edges in the crate graph. The pieces:
//!
//! * [`metrics`] — a **typed metrics registry**: named counters, gauges
//!   and histograms whose *merge semantics* (sum across shards, max,
//!   must-agree, decision-weighted mean, histogram merge, …) are declared
//!   in one static [`metrics::SCHEMA`] table. The shard `STATS` reply,
//!   the router's scatter-gather aggregation ([`metrics::MergedFields`])
//!   and the Prometheus-style `METRICS` text exposition
//!   ([`metrics::render_prometheus`]) are all derived from that one
//!   table, so a field can no longer be exported on one side and
//!   silently dropped on the other.
//! * [`trace`] — per-request **trace spans**: a 64-bit trace id minted at
//!   admission, a span recorder, and a whitespace-free wire encoding so
//!   the `TRACE` verb can return the timeline (and the router can splice
//!   shard-side spans into its own).
//! * [`flight`] — an always-on **flight recorder**: a lock-light ring
//!   buffer of the last N request summaries plus a threshold-triggered
//!   slow-query log (`PITEX_OBS_SLOW_US`), dumped by the `FLIGHT` verb
//!   and the `pitex top` live view.
//! * [`capture`] — **workload capture**: a sampled request recorder
//!   (`PITEX_OBS_CAPTURE`/`PITEX_OBS_CAPTURE_RATE`, the `CAPTURE` verb)
//!   flushed to the binary `PWRK` workload log that `pitex replay` feeds
//!   from, plus the process-wide wall-clock anchor every observability
//!   timestamp derives from.
//!
//! [`hist::LatencyHistogram`] lives here (moved from `pitex_support`,
//! which still re-exports it) because the registry's histogram merge and
//! the atomic hot-path recorder share its bucket layout — and so does
//! [`codec`] (same arrangement), because the `PWRK` log encodes through
//! it from below `pitex_support` in the crate graph.

pub mod capture;
pub mod codec;
pub mod flight;
pub mod hist;
pub mod metrics;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use capture::{
    read_log, wall_now_us, CaptureError, CaptureLog, CaptureOptions, CaptureRecord, CaptureRecorder,
};
pub use flight::{FlightEntry, FlightRecorder, ObsOptions};
pub use hist::{AtomicHistogram, LatencyHistogram};
pub use metrics::{
    parse_prometheus, render_prometheus, spec_for, Counter, Ewma, FieldSet, Gauge, MergeRule,
    MergedFields, MetricKind, PromSample, Registry,
};
pub use slo::{
    evaluate as evaluate_slos, fraction_above, HealthVerdict, HopNames, SloOptions, SloStatus,
    SloVerdict, ROUTER_NAMES, SHARD_NAMES,
};
pub use timeseries::{SeriesDump, SeriesKind, SeriesPoints, SeriesRes, TimeSeriesStore, TsOptions};
pub use trace::{
    format_trace_id, mint_trace_id, parse_trace_id, spans_from_wire, spans_to_wire, Span,
    SpanRecorder,
};

/// Where a hop's boot reads its environment knobs: [`env()`] in a server,
/// a table in a test, because concurrent tests share the process
/// environment.
pub type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The process environment as a [`Lookup`].
pub fn env(key: &str) -> Option<String> {
    std::env::var_os(key).map(|value| value.to_string_lossy().into_owned())
}

/// Knob `key` as a whole number: `None` when unset, and an `InvalidInput`
/// error naming the variable when it is set to anything else.
pub fn knob(lookup: Lookup<'_>, key: &str) -> std::io::Result<Option<u64>> {
    let Some(value) = lookup(key) else { return Ok(None) };
    let n = value.parse().map_err(|_| bad_knob(key, &value, "is not a whole number"))?;
    Ok(Some(n))
}

/// The boot error for knob `key` set to `value`: `why` says what is wrong.
pub(crate) fn bad_knob(key: &str, value: &str, why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{key}={value:?} {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_keep_defaults_when_unset_and_refuse_what_does_not_parse() {
        let set = |value: &'static str| move |_: &str| Some(value.to_string());
        assert_eq!(knob(&|_| None, "PITEX_OBS_SLOW_US").unwrap(), None);
        assert_eq!(knob(&set("50000"), "PITEX_OBS_SLOW_US").unwrap(), Some(50_000));
        assert_eq!(ObsOptions::from_env(&|_| None).unwrap(), ObsOptions::default());
        assert_eq!(CaptureOptions::from_env(&|_| None).unwrap().rate, 1);
        for value in ["", "-1", "5ms", "1e3", " 7"] {
            let err = ObsOptions::from_env(&set(value)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("PITEX_OBS_SLOW_US"), "{err}");
        }
        let rate = |key: &str| (key == "PITEX_OBS_CAPTURE_RATE").then(|| "every".to_string());
        let err = CaptureOptions::from_env(&rate).unwrap_err();
        assert!(err.to_string().contains("PITEX_OBS_CAPTURE_RATE"), "{err}");
    }
}
