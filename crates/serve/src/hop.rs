//! The hop runtime: the process a shard ([`crate::server`]) and a cluster
//! router (`pitex_cluster::router`) both run around their [`Service`].
//!
//! A hop is a listener, a front end that only moves bytes, a sampler
//! thread, and one obs bundle — all held here once, so each hop's own code
//! is its verbs:
//!
//! * [`Hop`] — the bundle, read from the environment once at boot: the
//!   metric [`Registry`] with the request counters and the `OK`-latency
//!   histogram registered under the hop's [`HopNames`], the flight and
//!   capture recorders, the rolling time-series, the SLO options, the boot
//!   instant, the stop flag and the connection threads.
//! * [`Hop::admit`] and [`Hop::call`] — the one switch for the hop-local
//!   verbs (`PING`, `QUIT`, `SHUTDOWN`, `SERIES`, `FLIGHT`, `CAPTURE`),
//!   the admin gate, and the booking of `requests`. Everything else is the
//!   closure the hop passes in.
//! * [`Hop::finish`] — the one outcome booking of a `QUERY`, `EXPLAIN` or
//!   `TRACE`: the counters, the latency, the flight ring and the capture
//!   log.
//! * [`Hop::fields`] — the `STATS` fields both hops export alike.
//! * [`Hop::start`] and [`HopHandle`] — the front end and the sampler, and
//!   the handle that stops and reaps them.

use crate::conn::blocking::{self, ConnThreads};
use crate::conn::{event_loop, Admit, Handled, ReplyTo, Service, Wire, WireCounters, POLL};
use crate::protocol::{CaptureAction, ErrorCode, FlightReply, FlightWireEntry, Request, Response};
use pitex_support::obs::slo::{self, HealthVerdict, HopNames, SloOptions};
use pitex_support::obs::timeseries::{SeriesRes, TimeSeriesStore, TsOptions};
use pitex_support::obs::{
    env, wall_now_us, AtomicHistogram, CaptureOptions, CaptureRecord, CaptureRecorder, Counter,
    FieldSet, FlightEntry, FlightRecorder, ObsOptions, Registry,
};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

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

/// The flight-recorder outcome tag for a ready-to-send response.
fn outcome_of(response: &Response) -> &'static str {
    match response {
        Response::Busy => "busy",
        Response::Err { code: ErrorCode::Deadline, .. } => "deadline",
        Response::Err { .. } => "error",
        _ => "ok",
    }
}

/// What a shard and a router both run: see the module docs.
pub struct Hop {
    names: &'static HopNames,
    /// Whether the admin verbs are served.
    admin: bool,
    /// Every metric the hop exports as registered; the hop's own verbs
    /// register theirs here too.
    pub registry: Registry,
    pub(crate) requests: Counter,
    pub(crate) ok: Counter,
    pub busy: Counter,
    pub errors: Counter,
    pub(crate) deadline: Option<Counter>,
    conn_aborted: Option<Counter>,
    /// Handling time of the `OK` replies, in microseconds, and its sum.
    latency: Arc<AtomicHistogram>,
    latency_sum_us: Counter,
    /// Ring of recent request summaries + slow-query log (`FLIGHT`).
    pub(crate) flight: FlightRecorder,
    /// Sampled PWRK workload recorder (`CAPTURE on|off|rotate`).
    capture: CaptureRecorder,
    /// Rolling rings over the hop's own fields (`SERIES`, `GET /series`,
    /// the SLO engine).
    timeseries: TimeSeriesStore,
    slo: SloOptions,
    pub(crate) started: Instant,
    stop: AtomicBool,
    conns: ConnThreads,
}

/// Spawns a named hop thread.
pub fn spawn(name: String, run: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(run)
}

/// Binds `addr` (port 0 picks an ephemeral port) for [`Hop::start`].
pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

impl Hop {
    /// Reads the obs options from the environment — `capture` overrides
    /// `PITEX_OBS_CAPTURE` — and registers the request counters and the
    /// latency histogram under `names`. A knob set to a value it cannot
    /// take, or a capture path that cannot be opened, is a boot error
    /// naming it, not a silent default: the operator asked for something.
    pub fn new(
        names: &'static HopNames,
        capture: Option<CaptureOptions>,
        admin: bool,
    ) -> std::io::Result<Hop> {
        let capture = match capture {
            Some(capture) => capture,
            None => CaptureOptions::from_env(&env)?,
        };
        let capture = CaptureRecorder::new(capture)?;
        let registry = Registry::new();
        Ok(Hop {
            names,
            admin,
            requests: registry.counter(names.requests),
            ok: registry.counter(names.ok),
            busy: registry.counter(names.busy),
            deadline: names.deadline.map(|name| registry.counter(name)),
            errors: registry.counter(names.errors),
            conn_aborted: names.conn_aborted.map(|name| registry.counter(name)),
            latency: registry.histogram(names.lat_hist),
            latency_sum_us: Counter::new(),
            registry,
            flight: FlightRecorder::new(ObsOptions::from_env(&env)?),
            capture,
            timeseries: TimeSeriesStore::new(TsOptions::from_env(&env)?),
            slo: SloOptions::from_env(&env)?,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            conns: ConnThreads::default(),
        })
    }

    /// The counters the connection core books wire-level outcomes under.
    pub fn counters(&self) -> WireCounters<'_> {
        WireCounters {
            requests: &self.requests,
            errors: &self.errors,
            busy: &self.busy,
            conn_aborted: self.conn_aborted.as_ref(),
        }
    }

    /// `false` once a stop was requested.
    pub fn running(&self) -> bool {
        !self.stop.load(Ordering::SeqCst)
    }

    /// Admission: `PING` answers inline, the query verbs go to `query`,
    /// everything else is blocking work for [`call`](Self::call). A request
    /// answered or deferred here is booked under `requests` here — before
    /// its reply can leave, which only the admitting thread writes.
    pub fn admit(
        &self,
        request: Request,
        to: &ReplyTo,
        query: impl FnOnce(Request, &ReplyTo) -> Admit,
    ) -> Admit {
        let admitted = match request {
            Request::Ping => Admit::Inline(Handled::Reply(Response::Pong, false)),
            r @ (Request::Query(_) | Request::Explain(_) | Request::Trace(_)) => query(r, to),
            other => return Admit::Blocking(other),
        };
        if !matches!(admitted, Admit::Blocking(_)) {
            self.requests.inc();
        }
        admitted
    }

    /// The one switch behind every blocking request: books `requests`,
    /// answers the hop-local verbs, holds the admin gate, and hands every
    /// other verb to the hop's own switch, `own`. An HTTP scrape is not a
    /// protocol request: it books neither `requests` nor, for a ring it
    /// misses, `errors`.
    pub fn call(
        &self,
        request: Request,
        wire: Wire,
        own: impl FnOnce(Request) -> Handled,
    ) -> Handled {
        let scrape = wire == Wire::Http;
        if !scrape {
            self.requests.inc();
        }
        let response = match request {
            Request::Quit => return Handled::Reply(Response::Bye, true),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                return Handled::Reply(Response::Bye, true);
            }
            // A field the sampler has never seen — unregistered, or a hop
            // younger than one tick — answers an error naming it.
            Request::Series { field, res } => {
                match self.timeseries.series(&field, res.unwrap_or(SeriesRes::Fast)) {
                    Some(dump) => Response::Series(dump.into()),
                    None => {
                        let message =
                            format!("unknown or never-sampled {} {field:?}", self.names.field);
                        if !scrape {
                            self.errors.inc();
                        }
                        Response::Err { code: ErrorCode::BadRequest, message }
                    }
                }
            }
            r if r.spec().admin && !self.admin => {
                let message = format!("admin verbs are disabled on this {}", self.names.hop);
                self.error(ErrorCode::AdminDenied, message)
            }
            Request::Flight => self.flight(),
            // Each hop owns its log (a shard records the resolved-backend
            // view, a router the front door), so cluster-wide capture is
            // per process: each is toggled over its own admin socket.
            Request::Capture(action) => self.capture(action),
            other => return own(other),
        };
        Handled::Reply(response, false)
    }

    /// Books an error reply under `errors` and builds it.
    pub fn error(&self, code: ErrorCode, message: String) -> Response {
        self.errors.inc();
        Response::Err { code, message }
    }

    /// The one outcome booking of a query verb: `ok` and its latency,
    /// `busy`, `deadline` where the hop counts it and `errors` otherwise.
    /// Then the flight ring (and, past `PITEX_OBS_SLOW_US`, the slow-query
    /// log) and — when sampled — the capture log, both stamped with the
    /// admission time off the shared wall-clock anchor, so replayed
    /// arrival schedules reproduce when requests *arrived*.
    /// `shown` is what the ring shows as the backend: a shard names the
    /// resolved one, a router the requested one or `auto`.
    pub fn finish(&self, record: &RequestRecord, shown: &'static str, reply: Response) -> Response {
        match &reply {
            Response::Ok(_) | Response::Explained(_) | Response::Traced(_) => {
                self.ok.inc();
                self.latency.record(record.us);
                self.latency_sum_us.add(record.us);
            }
            Response::Busy => self.busy.inc(),
            Response::Err { code: ErrorCode::Deadline, .. } => {
                self.deadline.as_ref().unwrap_or(&self.errors).inc()
            }
            _ => self.errors.inc(),
        }
        let ts_us = wall_now_us().saturating_sub(record.us);
        let outcome = outcome_of(&reply);
        self.flight.record(FlightEntry {
            trace_id: record.trace_id,
            ts_us,
            verb: record.verb,
            user: record.user,
            k: record.k,
            backend: shown,
            outcome,
            us: record.us,
        });
        self.capture.record(|| {
            let (tags, spread) = match &reply {
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
        reply
    }

    /// `FLIGHT` (admin): the newest ring entries (capped so the reply stays
    /// one line) plus the slow-query log.
    fn flight(&self) -> Response {
        /// Newest ring entries included; the ring itself is larger (256).
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
        let dump = self.flight.dump();
        let newest = dump.len().saturating_sub(FLIGHT_REPLY_CAP);
        Response::Flight(FlightReply {
            recorded: self.flight.recorded(),
            slow_count: self.flight.slow_count(),
            entries: dump[newest..].iter().map(wire).collect(),
            slow: self.flight.slow_queries().iter().map(wire).collect(),
        })
    }

    /// `CAPTURE` (admin): `on`/`off` toggle sampling (off flushes, so the
    /// log is complete on disk); `rotate` renames the current log aside and
    /// starts a fresh one. All three report the recorder's state. A hop
    /// booted without `PITEX_OBS_CAPTURE` has no sink to control.
    fn capture(&self, action: CaptureAction) -> Response {
        let recorder = &self.capture;
        if !recorder.configured() {
            let message = "no capture path configured (set PITEX_OBS_CAPTURE)".to_string();
            return self.error(ErrorCode::BadRequest, message);
        }
        match action {
            CaptureAction::On => recorder.set_enabled(true),
            CaptureAction::Off => recorder.set_enabled(false),
            CaptureAction::Rotate => {
                if let Err(e) = recorder.rotate() {
                    return self.error(ErrorCode::Internal, format!("capture rotate failed: {e}"));
                }
            }
        }
        Response::Captured {
            enabled: recorder.enabled(),
            recorded: recorder.recorded(),
            dropped: recorder.dropped(),
        }
    }

    /// `OK` replies per second since boot.
    pub fn ok_per_s(&self) -> f64 {
        self.ok.get() as f64 / self.started.elapsed().as_secs_f64().max(1e-9)
    }

    /// The hop's own SLO verdict (origin `self`) over its rings.
    pub fn health(&self) -> HealthVerdict {
        slo::evaluate(&self.timeseries, &self.slo, self.names)
    }

    /// The fields every hop exports alike, under its names: uptime, the
    /// latency quantiles (and the exact mean, where exported), the
    /// recorders' totals, then every registered metric.
    pub fn fields(&self, fields: &mut FieldSet) {
        let names = self.names;
        fields.push(names.uptime_s, format!("{:.1}", self.started.elapsed().as_secs_f64()));
        let latency = self.latency.snapshot();
        for (name, q) in names.lat_quantiles.into_iter().zip([0.50, 0.90, 0.99]) {
            fields.push(name, latency.quantile(q));
        }
        if let Some(name) = names.lat_mean {
            let mean = self.latency_sum_us.get() as f64 / latency.count().max(1) as f64;
            fields.push(name, format!("{mean:.1}"));
        }
        fields.push(names.flight_recorded, self.flight.recorded());
        fields.push(names.slow_queries, self.flight.slow_count());
        fields.push(names.capture_records, self.capture.recorded());
        fields.push(names.capture_dropped, self.capture.dropped());
        fields.extend_from_registry(&self.registry);
    }

    /// Starts the front end on `listener` — the epoll loop when
    /// `event_loop` (it falls back to the thread-per-connection driver by
    /// itself where there is no poller), that driver otherwise — and the
    /// sampler over `fields`. `threads` are the hop's own (workers,
    /// prober); the handle reaps them with the rest.
    pub fn start<S: Service>(
        self: &Arc<Self>,
        listener: TcpListener,
        service: S,
        event_loop: bool,
        fields: impl Fn() -> Vec<(String, String)> + Send + 'static,
        mut threads: Vec<JoinHandle<()>>,
    ) -> std::io::Result<HopHandle> {
        let addr = listener.local_addr()?;
        let prefix = self.names.threads;
        let hop = self.clone();
        threads.push(spawn(format!("{prefix}-sampler"), move || hop.sample(fields))?);
        let hop = self.clone();
        let front = if event_loop { "evloop" } else { "acceptor" };
        threads.push(spawn(format!("{prefix}-{front}"), move || {
            let conn_thread = format!("{prefix}-conn");
            if event_loop {
                event_loop::run(service, listener, &hop.conns, &conn_thread);
            } else {
                blocking::accept_loop(service, &listener, &hop.conns, &conn_thread);
            }
        })?);
        Ok(HopHandle { addr, hop: self.clone(), threads })
    }

    /// The sampler: once per configured tick (`PITEX_OBS_TS_TICK_MS`) it
    /// snapshots every field `fields` reports into the rolling rings. It
    /// sleeps in small increments so shutdown stays prompt, and it
    /// re-anchors after each sample instead of replaying boundaries it
    /// slept through — an idle machine that oversleeps gets one fresh
    /// sample, not a burst of stale ones. The serving hot path only bumps
    /// atomics; this thread reads them once a tick.
    fn sample(&self, fields: impl Fn() -> Vec<(String, String)>) {
        let tick = self.timeseries.options().tick;
        let mut next = Instant::now() + tick;
        while self.running() {
            let now = Instant::now();
            if now < next {
                std::thread::sleep(POLL.min(next - now));
                continue;
            }
            let fields = fields();
            self.timeseries.tick(fields.iter().map(|(k, v)| (k.as_str(), v.as_str())));
            next = Instant::now() + tick;
        }
    }
}

/// A running hop: its address, a shutdown switch, and the thread reaper.
/// [`ServerHandle`](crate::ServerHandle) and `pitex_cluster::RouterHandle`
/// name this type.
pub struct HopHandle {
    addr: SocketAddr,
    hop: Arc<Hop>,
    threads: Vec<JoinHandle<()>>,
}

impl HopHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop (idempotent; also triggered by the
    /// `SHUTDOWN` verb). In-flight requests finish and get their replies;
    /// a router leaves its shards running.
    pub fn shutdown(&self) {
        self.hop.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        !self.hop.running()
    }

    /// Blocks until the hop has fully stopped and reaps every thread.
    /// Returns `Err` with the panic payload if any of them panicked.
    pub fn join(self) -> std::thread::Result<()> {
        let mut result = Ok(());
        for thread in self.threads {
            if let Err(panic) = thread.join() {
                result = Err(panic);
            }
        }
        result.and(self.hop.conns.join())
    }

    /// Convenience for tests and the CLI: shut down, then join.
    pub fn stop(self) -> std::thread::Result<()> {
        self.shutdown();
        self.join()
    }
}
