//! The hop-local observability verbs. A shard and a router answer
//! `FLIGHT`, `CAPTURE` and `SERIES` from their *own* recorders and rings,
//! book every query-shaped request into them, and tick their own sampler,
//! so both [`Service`](super::Service)s call these with their own state.

use super::POLL;
use crate::protocol::{CaptureAction, ErrorCode, FlightReply, FlightWireEntry, Response};
use pitex_support::obs::timeseries::{SeriesRes, TimeSeriesStore};
use pitex_support::obs::{
    wall_now_us, CaptureRecord, CaptureRecorder, Counter, FlightEntry, FlightRecorder,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The flight-recorder outcome tag for a ready-to-send response.
fn outcome_of(response: &Response) -> &'static str {
    match response {
        Response::Busy => "busy",
        Response::Err { code: ErrorCode::Deadline, .. } => "deadline",
        Response::Err { .. } => "error",
        _ => "ok",
    }
}

/// One `QUERY`, `EXPLAIN` or `TRACE` as a hop's recorders book it.
pub struct RequestRecord {
    pub trace_id: u64,
    pub verb: &'static str,
    pub user: u32,
    pub k: usize,
    /// The backend the client asked for; `-` when it left the choice to
    /// the hop.
    pub requested: &'static str,
    /// The backend that answered; `-` when this hop does not know it.
    pub resolved: &'static str,
    /// Handling time, admission to reply.
    pub us: u64,
}

/// Books one request into the hop's flight ring (and, past the
/// `PITEX_OBS_SLOW_US` threshold, its slow-query log) and — when sampled —
/// into its workload-capture log. Both stamp the same admission timestamp
/// off the shared wall-clock anchor, so replayed arrival schedules
/// reproduce when requests *arrived*. The outcome and the answer are read
/// off `response`. `flight_backend` is what the ring shows as the backend:
/// a shard names the resolved one, a router the requested one or `auto`.
pub fn record_request(
    flight: &FlightRecorder,
    capture: &CaptureRecorder,
    record: &RequestRecord,
    flight_backend: &'static str,
    response: &Response,
) {
    let ts_us = wall_now_us().saturating_sub(record.us);
    let outcome = outcome_of(response);
    flight.record(FlightEntry {
        trace_id: record.trace_id,
        ts_us,
        verb: record.verb,
        user: record.user,
        k: record.k,
        backend: flight_backend,
        outcome,
        us: record.us,
    });
    capture.record(|| {
        let (tags, spread) = match response {
            Response::Ok(r) => (r.tags.clone(), r.spread),
            Response::Explained(r) => (r.tags.clone(), r.spread),
            Response::Traced(r) => (r.tags.clone(), r.spread),
            _ => (Vec::new(), 0.0),
        };
        CaptureRecord {
            ts_us,
            trace_id: record.trace_id,
            verb: record.verb.to_string(),
            user: record.user,
            k: record.k as u32,
            backend: record.requested.to_string(),
            resolved: record.resolved.to_string(),
            outcome: outcome.to_string(),
            us: record.us,
            tags,
            spread_bits: spread.to_bits(),
        }
    });
}

/// `FLIGHT` (admin): dump the flight recorder — the newest ring entries
/// (capped so the reply stays one line) plus the slow-query log.
pub fn flight(recorder: &FlightRecorder) -> Response {
    /// Newest ring entries included in the reply; the ring itself may be
    /// larger (`PITEX_OBS_FLIGHT`), but the reply must stay a single
    /// protocol line.
    const FLIGHT_REPLY_CAP: usize = 64;
    let wire = |e: &FlightEntry| FlightWireEntry {
        trace_id: e.trace_id,
        verb: e.verb.to_string(),
        user: e.user,
        k: e.k,
        backend: e.backend.to_string(),
        outcome: e.outcome.to_string(),
        us: e.us,
        ts_us: e.ts_us,
    };
    let dump = recorder.dump();
    let newest = dump.len().saturating_sub(FLIGHT_REPLY_CAP);
    Response::Flight(FlightReply {
        recorded: recorder.recorded(),
        slow_count: recorder.slow_count(),
        entries: dump[newest..].iter().map(wire).collect(),
        slow: recorder.slow_queries().iter().map(wire).collect(),
    })
}

/// `CAPTURE` (admin): control the hop's workload-capture recorder.
/// `on`/`off` toggle sampling (off flushes, so the log is complete on
/// disk); `rotate` renames the current log aside and starts a fresh one.
/// All three report the recorder's state. A hop booted without
/// `PITEX_OBS_CAPTURE` has no sink to control and answers
/// `ERR BAD_REQUEST`.
pub fn capture(recorder: &CaptureRecorder, errors: &Counter, action: CaptureAction) -> Response {
    if !recorder.configured() {
        errors.inc();
        let message = "no capture path configured (set PITEX_OBS_CAPTURE)".to_string();
        return Response::Err { code: ErrorCode::BadRequest, message };
    }
    match action {
        CaptureAction::On => recorder.set_enabled(true),
        CaptureAction::Off => recorder.set_enabled(false),
        CaptureAction::Rotate => {
            if let Err(e) = recorder.rotate() {
                errors.inc();
                let message = format!("capture rotate failed: {e}");
                return Response::Err { code: ErrorCode::Internal, message };
            }
        }
    }
    Response::Captured {
        enabled: recorder.enabled(),
        recorded: recorder.recorded(),
        dropped: recorder.dropped(),
    }
}

/// `SERIES <field> [res]`: one ring's dump (default resolution: fast). A
/// field the sampler has never seen — unregistered, or a hop younger than
/// one tick — answers `ERR BAD_REQUEST` naming the field; `what` is how
/// the hop calls its fields. The caller books the error: a scrape's miss
/// is not a protocol error.
pub fn series(
    store: &TimeSeriesStore,
    what: &str,
    field: &str,
    res: Option<SeriesRes>,
) -> Response {
    match store.series(field, res.unwrap_or(SeriesRes::Fast)) {
        Some(dump) => Response::Series(dump.into()),
        None => Response::Err {
            code: ErrorCode::BadRequest,
            message: format!("unknown or never-sampled {what} {field:?}"),
        },
    }
}

/// The background sampler: once per configured tick (`PITEX_OBS_TS_TICK_MS`)
/// it snapshots every field `fields` reports into the rolling time-series
/// rings. It sleeps in small increments so shutdown stays prompt, and it
/// re-anchors after each sample instead of replaying boundaries it slept
/// through — an idle machine that oversleeps gets one fresh sample, not a
/// burst of stale ones. The serving hot path is untouched: it keeps bumping
/// the same atomics it always has, and this thread reads them once a tick.
pub fn sampler_loop(
    stop: &AtomicBool,
    store: &TimeSeriesStore,
    fields: impl Fn() -> Vec<(String, String)>,
) {
    let tick = store.options().tick;
    let mut next = Instant::now() + tick;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(POLL.min(next - now));
            continue;
        }
        let fields = fields();
        store.tick(fields.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        next = Instant::now() + tick;
    }
}
