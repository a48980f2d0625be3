//! The scatter-gather router: one TCP front-end over many shards.
//!
//! The router speaks **exactly** the `pitex_serve` line protocol, so a
//! cluster is a drop-in replacement for a single server — `pitex client`
//! (and anything scripted over `nc`) cannot tell the difference. Per verb:
//!
//! * `QUERY u k [timeout_us] [backend]` / `EXPLAIN …` / `TRACE …` — routed
//!   to the shard owning `u` ([`ShardMap::shard_of`]) through the
//!   health-gated connection pools ([`ShardPools`]): a dead replica costs a
//!   transparent failover, a saturated shard answers `BUSY`, and the reply
//!   line is forwarded verbatim — including the backend operand (`auto`
//!   plans shard-side, where the artifacts and the latency EWMAs live) and
//!   the `EXPLAINED` decision trace; a `TRACED` timeline comes back spliced
//!   into the router's own. Within the owning shard the replica is
//!   picked by hashing `(user, k)` over the *healthy* replicas
//!   ([`ShardPools::call_keyed`]), so identical queries warm one replica's
//!   result cache instead of spraying cold misses round-robin.
//! * `STATS` / `EPOCH` — scattered to every shard and merged: monotone
//!   counters add, latency *histograms* merge bucket-wise (via the
//!   `lat_hist` field; percentiles themselves do not add), and the epochs
//!   must agree — a mixed-epoch scatter answers `ERR INTERNAL` instead of
//!   fabricating a coherent-looking aggregate.
//! * `UPDATE <op>` — forwarded to every replica of the *owning* shard
//!   (edge ops are anchored at their source user); tag-space and
//!   vertex-count ops (`ATTACH_TAG`, `DETACH_TAG`, `ADD_USER`) change what
//!   every shard may be asked, so they broadcast to all shards.
//! * `RELOAD` — the epoch barrier. Phase 1 sends `PREPARE` to every
//!   replica (fold + index repair run shard-side; queries keep flowing).
//!   Phase 2 takes the router's write gate — no scatter or query is in
//!   flight past it — sends the cheap `COMMIT` swaps back-to-back, and
//!   releases. Every forwarded read holds the read side of that gate, so
//!   a reader never observes two shards answering from different epochs
//!   *through this router*: reads happen strictly before or strictly
//!   after the commit wave.
//! * `HEALTH` — scattered to every shard and merged into the *cluster*
//!   verdict: each shard's per-objective verdicts come back re-originated
//!   as `shard<N>`, the router appends its own burn-rate verdicts (origin
//!   `router`, over its front-door counters and hop latency), and the
//!   overall status is the worst across all origins — `worst=` names the
//!   component an operator should look at first. An unreachable shard
//!   contributes a synthetic paging `reachability` verdict: the moment
//!   health reporting matters most is when a shard is down.
//! * `SERIES` — answered from the router's *own* rolling time-series (a
//!   local sampler thread ticks the router's registry fields; shard rings
//!   are queried per shard, where they live).
//! * `GET /metrics`, `/health`, `/series?…` — HTTP requests on this same
//!   port *are* the `METRICS`, `HEALTH` and `SERIES` verbs (the connection
//!   core, `pitex_serve::conn`, decodes all three wires to one `Request`):
//!   the cluster-merged Prometheus exposition, the cluster health verdict
//!   (`503` on page), and the router's local ring dumps.
//! * `PFRM` binary frames — the same core sniffs the frame magic exactly
//!   as it does on a shard: same verbs, requests matched to replies by id,
//!   so `ServeClient::connect_binary` and `pitex client --binary` talk to
//!   a router as transparently as to a shard.
//! * `PING` is answered locally; `SHUTDOWN` stops the router (shards are
//!   managed by their own admins).
//! * `CAPTURE on|off|rotate` — controls the *router's* PWRK workload
//!   recorder (`PITEX_OBS_CAPTURE`): the front-door arrival stream, which
//!   is what `pitex replay` wants for whole-cluster replays. Shards keep
//!   their own recorders with the resolved-backend view.
//!
//! The router trusts the map, not a directory service: everything is a
//! pure function of the `ShardMap` file, and the only cluster-wide state
//! is the epoch the barrier maintains.

use crate::pool::{CallError, PoolOptions, ShardPools};
use crate::shardmap::ShardMap;
use pitex_live::UpdateOp;
use pitex_serve::conn::blocking::{self, ConnThreads};
use pitex_serve::conn::verbs::{self, RequestRecord};
use pitex_serve::conn::{Admit, Handled, ReplyTo, Service, Wire, WireCounters, POLL};
use pitex_serve::{ErrorCode, ReloadReply, Request, Response, StatsReply, TraceReply};
use pitex_support::obs::slo::{self, HealthVerdict, SloOptions, SloStatus, SloVerdict};
use pitex_support::obs::timeseries::{TimeSeriesStore, TsOptions};
use pitex_support::obs::{
    mint_trace_id, render_prometheus, AtomicHistogram, CaptureOptions, CaptureRecorder, Counter,
    FieldSet, FlightRecorder, MergedFields, ObsOptions, Registry, SpanRecorder,
};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Router::spawn`]. The `PITEX_CLUSTER_*` environment
/// variables (see [`RouterOptions::with_env`]) override the defaults.
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// Connection-pool tuning (failover, health gating, shedding).
    pub pool: PoolOptions,
    /// How often the prober thread re-`PING`s down-marked replicas.
    pub probe_interval: Duration,
    /// Whether admin verbs (`UPDATE`, `RELOAD`, `EPOCH`) are forwarded;
    /// when false they answer `ERR ADMIN_DENIED` at the router.
    pub admin: bool,
    /// Workload-capture override for tests and embedders; `None` reads
    /// `PITEX_OBS_CAPTURE` / `PITEX_OBS_CAPTURE_RATE` from the environment
    /// at spawn. The router records the *front-door* view (resolved
    /// backend unknown here); shards record their own logs.
    pub capture: Option<CaptureOptions>,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            pool: PoolOptions::default(),
            probe_interval: Duration::from_millis(200),
            admin: true,
            capture: None,
        }
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

impl RouterOptions {
    /// Applies the `PITEX_CLUSTER_*` environment overrides:
    /// `PITEX_CLUSTER_MAX_IN_FLIGHT` (per-shard concurrency before `BUSY`),
    /// `PITEX_CLUSTER_IDLE_CONNS` (pooled idle connections per replica),
    /// `PITEX_CLUSTER_PROBE_MS` (prober interval), `PITEX_CLUSTER_COOLDOWN_MS`
    /// (down-replica cooldown), `PITEX_CLUSTER_CONNECT_TIMEOUT_MS`,
    /// `PITEX_CLUSTER_BINARY` (`0` drops the shard hop back to the text
    /// protocol).
    pub fn with_env(mut self) -> Self {
        if let Some(v) = env_u64("PITEX_CLUSTER_MAX_IN_FLIGHT") {
            self.pool.max_in_flight = v as usize;
        }
        if let Some(v) = env_u64("PITEX_CLUSTER_IDLE_CONNS") {
            self.pool.idle_per_replica = v as usize;
        }
        if let Some(v) = env_u64("PITEX_CLUSTER_PROBE_MS") {
            self.probe_interval = Duration::from_millis(v);
        }
        if let Some(v) = env_u64("PITEX_CLUSTER_COOLDOWN_MS") {
            self.pool.probe_cooldown = Duration::from_millis(v);
        }
        if let Some(v) = env_u64("PITEX_CLUSTER_CONNECT_TIMEOUT_MS") {
            self.pool.connect_timeout = Duration::from_millis(v);
        }
        if let Ok(v) = std::env::var("PITEX_CLUSTER_BINARY") {
            self.pool.binary = v != "0";
        }
        self
    }
}

/// Router-side counters (shard counters live on the shards; `STATS` merges
/// both views) — typed handles registered in the router's [`Registry`], so
/// the export list *is* the registration list.
#[derive(Debug)]
struct Counters {
    requests: Counter,
    ok: Counter,
    busy: Counter,
    errors: Counter,
    scatters: Counter,
    updates: Counter,
    reloads: Counter,
}

impl Counters {
    fn register(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("router_requests"),
            ok: registry.counter("router_ok"),
            busy: registry.counter("router_busy"),
            errors: registry.counter("router_errors"),
            scatters: registry.counter("router_scatters"),
            updates: registry.counter("router_updates"),
            reloads: registry.counter("router_reloads"),
        }
    }
}

struct Shared {
    stop: AtomicBool,
    map: ShardMap,
    pools: ShardPools,
    options: RouterOptions,
    /// The scatter/commit gate: every forwarded read holds `read`, the
    /// commit wave of a reload holds `write`. This is what makes "no
    /// mixed-epoch scatter" a guarantee instead of a probability.
    epoch_gate: RwLock<()>,
    /// Serializes admin verbs (`UPDATE`, `RELOAD`) through this router so
    /// an update can never land inside another admin's prepare window.
    admin_serial: Mutex<()>,
    /// The typed metric registry behind `STATS`/`METRICS`: the router's
    /// own counters, the pool's adopted probe/failover/catch-up counters
    /// and the hop-latency histogram all export off this one table.
    registry: Registry,
    counters: Counters,
    /// Router-observed `QUERY` service time (shard round-trip included).
    latency: Arc<AtomicHistogram>,
    /// Rolling time-series over the router's *own* fields (`SERIES`,
    /// `GET /series`): a local sampler thread ticks once per configured
    /// interval — no per-tick network scatter to the shards.
    timeseries: TimeSeriesStore,
    /// SLO thresholds for the router's own burn-rate verdicts.
    slo: SloOptions,
    /// Ring of recent request summaries + slow-query log (`FLIGHT`).
    flight: FlightRecorder,
    /// Sampled PWRK workload recorder (`CAPTURE on|off|rotate` — applied
    /// to this router process; shards control their own recorders).
    capture: CaptureRecorder,
    started: Instant,
    /// Connection threads spawned by the acceptor, reaped on `join`.
    conns: ConnThreads,
}

/// Namespace for [`Router::spawn`].
pub struct Router;

impl Router {
    /// Binds `addr` (port 0 picks an ephemeral port), spawns the acceptor
    /// and the health-prober, and returns immediately. Shards are *not*
    /// contacted eagerly — a router can boot before its shards and heal as
    /// they come up.
    pub fn spawn(
        map: ShardMap,
        addr: impl ToSocketAddrs,
        options: RouterOptions,
    ) -> std::io::Result<RouterHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let pools = ShardPools::new(&map, options.pool);
        let registry = Registry::new();
        let counters = Counters::register(&registry);
        // The pool's probe/failover/catch-up counters are shared handles
        // adopted into the same registry — no polling bridge.
        for (name, counter) in pools.counters() {
            registry.adopt_counter(name, &counter);
        }
        let latency = registry.histogram("router_lat_hist");
        let capture =
            CaptureRecorder::new(options.capture.clone().unwrap_or_else(CaptureOptions::from_env))?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            map,
            pools,
            options,
            epoch_gate: RwLock::new(()),
            admin_serial: Mutex::new(()),
            registry,
            counters,
            latency,
            timeseries: TimeSeriesStore::new(TsOptions::from_env()),
            slo: SloOptions::from_env(),
            flight: FlightRecorder::new(ObsOptions::from_env()),
            capture,
            started: Instant::now(),
            conns: ConnThreads::default(),
        });

        let mut threads = Vec::with_capacity(3);
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new().name("pitex-router-acceptor".to_string()).spawn(
                    move || {
                        let service = RouterService(shared.clone());
                        blocking::accept_loop(
                            service,
                            &listener,
                            &shared.conns,
                            "pitex-router-conn",
                        )
                    },
                )?,
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("pitex-router-prober".to_string())
                    .spawn(move || prober_loop(&shared))?,
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new().name("pitex-router-sampler".to_string()).spawn(
                    move || {
                        // The router's *own* fields only: a tick must stay
                        // cheap and local, so it does not scatter to the
                        // shards — shard rings are read shard-side.
                        verbs::sampler_loop(&shared.stop, &shared.timeseries, || {
                            router_fields(&shared, 0).into_fields()
                        })
                    },
                )?,
            );
        }
        Ok(RouterHandle { addr, shared, threads: Mutex::new(threads) })
    }
}

/// A running router: its address, a shutdown switch, and the thread reaper.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl RouterHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop (idempotent; also triggered by a client's
    /// `SHUTDOWN`). The shard servers are untouched.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Blocks until the router has fully stopped and reaps every thread.
    /// Returns `Err` with the panic payload if any router thread panicked.
    pub fn join(self) -> std::thread::Result<()> {
        let mut result = Ok(());
        for thread in self.threads.lock().unwrap().drain(..) {
            if let Err(panic) = thread.join() {
                result = Err(panic);
            }
        }
        result.and(self.shared.conns.join())
    }

    /// Convenience for tests and the CLI: shut down, then join.
    pub fn stop(self) -> std::thread::Result<()> {
        self.shutdown();
        self.join()
    }
}

fn prober_loop(shared: &Arc<Shared>) {
    let mut last_probe = Instant::now();
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(POLL.min(shared.options.probe_interval));
        if last_probe.elapsed() >= shared.options.probe_interval {
            // Catch-up drives a stale replica through UPDATE/PREPARE/COMMIT
            // barriers of its own; serializing with the router's admin
            // verbs keeps a concurrent UPDATE broadcast or RELOAD wave
            // from interleaving with (and double-applying into) a replay.
            let _admin = shared.admin_serial.lock().unwrap();
            shared.pools.probe();
            last_probe = Instant::now();
        }
    }
}

fn internal(shared: &Shared, message: String) -> Response {
    shared.counters.errors.inc();
    Response::Err { code: ErrorCode::Internal, message }
}

/// The router behind the connection core's [`Service`] seam: `PING` is
/// answered inline, every other verb is a blocking call into the shard
/// pools.
#[derive(Clone)]
struct RouterService(Arc<Shared>);

impl Service for RouterService {
    fn counters(&self) -> WireCounters<'_> {
        let c = &self.0.counters;
        WireCounters { requests: &c.requests, errors: &c.errors, busy: &c.busy, conn_aborted: None }
    }

    fn tick(&mut self) -> bool {
        !self.0.stop.load(Ordering::SeqCst)
    }

    fn admit(&mut self, request: Request, _to: &ReplyTo) -> Admit {
        match request {
            Request::Ping => {
                self.0.counters.requests.inc();
                Admit::Inline(Handled::Reply(Response::Pong, false))
            }
            other => Admit::Blocking(other),
        }
    }

    fn call(&mut self, request: Request, wire: Wire) -> Handled {
        handle_request(&self.0, request, wire == Wire::Http)
    }
}

/// Dispatches one request. A `scrape` (an HTTP `GET`) is not a protocol
/// request: it books neither `requests` nor, for a ring it misses,
/// `errors`.
fn handle_request(shared: &Arc<Shared>, request: Request, scrape: bool) -> Handled {
    if !scrape {
        shared.counters.requests.inc();
    }
    let reply = |response: Response, close: bool| Handled::Reply(response, close);
    let denied = || {
        shared.counters.errors.inc();
        let message = "admin verbs are disabled on this router".to_string();
        Handled::Reply(Response::Err { code: ErrorCode::AdminDenied, message }, false)
    };
    match request {
        Request::Ping => reply(Response::Pong, false),
        Request::Quit => reply(Response::Bye, true),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            reply(Response::Bye, true)
        }
        // Planning happens on the owning shard, where the artifacts and
        // latency EWMAs live.
        request @ (Request::Query(_) | Request::Explain(_) | Request::Trace(_)) => {
            reply(route_query(shared, request), false)
        }
        Request::Stats => reply(handle_stats(shared), false),
        Request::Metrics => handle_metrics(shared),
        // The router's *local* rings (its own counters, hop latency, pool
        // health) — shard rings are per shard, where the samples live; ask
        // a shard directly for its history.
        Request::Series { field, res } => {
            let response = verbs::series(&shared.timeseries, "router field", &field, res);
            if !scrape && matches!(response, Response::Err { .. }) {
                shared.counters.errors.inc();
            }
            reply(response, false)
        }
        Request::Health => reply(handle_health(shared), false),
        Request::Update(_)
        | Request::Reload
        | Request::Prepare
        | Request::Commit
        | Request::Epoch
        | Request::Sync { .. }
        | Request::Discard
        | Request::Flight
        | Request::Capture(_)
            if !shared.options.admin =>
        {
            denied()
        }
        Request::Flight => reply(verbs::flight(&shared.flight), false),
        // CAPTURE controls *this router's* recorder: each hop owns its log
        // (shards record the resolved-backend view, the router the front
        // door), so cluster-wide capture is per-process — set
        // `PITEX_OBS_CAPTURE` on every process, toggle each over its own
        // admin socket.
        Request::Capture(action) => {
            reply(verbs::capture(&shared.capture, &shared.counters.errors, action), false)
        }
        Request::Update(op) => reply(handle_update(shared, op), false),
        Request::Reload => reply(handle_reload(shared), false),
        Request::Prepare | Request::Commit => {
            shared.counters.errors.inc();
            let message =
                "PREPARE/COMMIT are shard-level; RELOAD at the router runs the cluster barrier"
                    .to_string();
            reply(Response::Err { code: ErrorCode::BadRequest, message }, false)
        }
        Request::Sync { .. } | Request::Discard => {
            shared.counters.errors.inc();
            let message = "SYNC/DISCARD are shard-level; the router's prober runs replica \
                           catch-up itself"
                .to_string();
            reply(Response::Err { code: ErrorCode::BadRequest, message }, false)
        }
        Request::Epoch => reply(handle_epoch(shared), false),
    }
}

/// The splitmix64 finalizer (same mix the shard map uses), keying replica
/// affinity on `(user, k)` — the result-cache key minus the backend, so an
/// `auto` query and its resolved-backend repeats share a favorite replica.
fn affinity_key(user: u32, k: usize) -> u64 {
    let mut x = (u64::from(user) << 32) ^ (k as u64);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Routes `QUERY`, `EXPLAIN` and `TRACE` to the shard owning the user,
/// with cache-affine replica choice, and forwards the shard's reply
/// verbatim — the cluster is a drop-in for a single server, error codes
/// included. `TRACE` differs in two places only: the trace id minted (or
/// echoed) here is stamped on the forwarded request, and the shard's
/// timeline comes back spliced into the router's own — a `route` span, a
/// `net` span for the part of the hop the shard cannot see (pool checkout,
/// serialization, both network legs), and the shard's spans re-based under
/// a `shard.` prefix. One trace id, one timeline, two processes.
fn route_query(shared: &Arc<Shared>, mut request: Request) -> Response {
    let (verb, q, trace_id) = match &mut request {
        Request::Query(q) => ("QUERY", *q, None),
        Request::Explain(q) => ("EXPLAIN", *q, None),
        Request::Trace(t) => {
            ("TRACE", t.query, Some(*t.trace_id.get_or_insert_with(mint_trace_id)))
        }
        _ => unreachable!("route_query routes only the query verbs"),
    };
    // Read side of the epoch gate: a query is never in flight across the
    // commit wave of a reload.
    let _gate = shared.epoch_gate.read().unwrap();
    let started = Instant::now();
    let shard = shared.map.shard_of(q.user);
    let routed = Instant::now();
    let outcome = shared
        .pools
        .call_keyed(shard, affinity_key(q.user, q.k), |client| client.request(&request));
    let us = started.elapsed().as_micros() as u64;
    let internal = |message| Response::Err { code: ErrorCode::Internal, message };
    let response = match (outcome, trace_id) {
        (Ok(Response::Traced(reply)), Some(id)) if reply.trace_id == id => {
            let mut spans = SpanRecorder::starting_at(started);
            let hop_start = spans.offset_us(routed);
            spans.record_at("route", 0, hop_start);
            // The shard accounts for `reply.us` of the hop; the rest is the
            // network + pool overhead only the router can see.
            let net_us = us.saturating_sub(hop_start).saturating_sub(reply.us);
            spans.record_at("net", hop_start, net_us);
            for span in &reply.spans {
                let start_us = hop_start + net_us + span.start_us;
                spans.record_at(&format!("shard.{}", span.name), start_us, span.dur_us);
            }
            Response::Traced(TraceReply { us, spans: spans.finish(), ..reply })
        }
        (Ok(Response::Traced(reply)), Some(id)) => {
            internal(format!("shard answered trace {} for trace {id}", reply.trace_id))
        }
        (Ok(response @ (Response::Busy | Response::Err { .. })), _) => response,
        (Ok(other), Some(_)) => internal(format!("unexpected TRACE reply: {other:?}")),
        (Ok(response), None) => response,
        (Err(CallError::Saturated), _) => Response::Busy,
        (Err(CallError::Unavailable(detail)), _) => internal(detail),
    };
    match &response {
        Response::Ok(_) | Response::Explained(_) | Response::Traced(_) => {
            shared.counters.ok.inc();
            shared.latency.record(us);
        }
        Response::Busy => shared.counters.busy.inc(),
        _ => shared.counters.errors.inc(),
    }
    // The router sees the front door, not the owning shard's planner: the
    // resolved backend is known only when the reply names it.
    let resolved = match &response {
        Response::Explained(r) => r.backend.cli_name(),
        _ => "-",
    };
    let requested = q.backend.map(|b| b.cli_name());
    let record = RequestRecord {
        trace_id: trace_id.unwrap_or_else(mint_trace_id),
        verb,
        user: q.user,
        k: q.k,
        requested: requested.unwrap_or("-"),
        resolved,
        us,
    };
    // The flight entry keeps the ring's `auto` display for an unset
    // backend; the capture record keeps the wire-level `-` so a replay
    // re-issues the request exactly as it arrived.
    let flight_backend = requested.unwrap_or("auto");
    verbs::record_request(&shared.flight, &shared.capture, &record, flight_backend, &response);
    response
}

fn handle_epoch(shared: &Arc<Shared>) -> Response {
    let _gate = shared.epoch_gate.read().unwrap();
    shared.counters.scatters.inc();
    let mut epochs = BTreeSet::new();
    for shard in 0..shared.pools.num_shards() {
        // Typed `request` rather than the `epoch()` sugar: a shard-side
        // protocol rejection (e.g. `serve --no-admin`) is a *reply*, not a
        // transport failure, and must neither mark the replica down nor be
        // rewrapped — it forwards verbatim.
        match shared.pools.call(shard, |client| client.request(&Request::Epoch)) {
            Ok(Response::Epoch(epoch)) => {
                epochs.insert(epoch);
            }
            Ok(Response::Err { code, message }) => {
                shared.counters.errors.inc();
                return Response::Err { code, message };
            }
            Ok(other) => {
                return internal(shared, format!("unexpected EPOCH reply: {other:?}"));
            }
            Err(CallError::Saturated) => {
                shared.counters.busy.inc();
                return Response::Busy;
            }
            Err(CallError::Unavailable(detail)) => return internal(shared, detail),
        }
    }
    if epochs.len() == 1 {
        Response::Epoch(*epochs.iter().next().unwrap())
    } else {
        internal(shared, format!("mixed epochs across shards: {epochs:?}"))
    }
}

/// Scatters `STATS` to every shard and folds the replies under the merge
/// rules the obs schema declares per field ([`MergedFields`]) — the
/// hand-maintained field table this replaces silently dropped any shard
/// field it forgot; now a field without a registered rule fails the merge
/// loudly, naming the field.
fn merged_shard_fields(shared: &Arc<Shared>) -> Result<Vec<(String, String)>, String> {
    let mut merged = MergedFields::new();
    for shard in 0..shared.pools.num_shards() {
        // Scatter policy: down-marked replicas are skipped (not re-dialed
        // per request — a blackholed peer would stall every scatter by the
        // connect timeout) and are simply absent from the aggregate;
        // `replicas_up` reports how many pass the health gate.
        for outcome in
            shared.pools.broadcast(shard, false, |client| client.request(&Request::Stats))
        {
            if let Ok(Response::Stats(stats)) = outcome.outcome {
                merged.absorb(stats.iter())?;
            }
        }
    }
    if merged.replies() == 0 {
        return Err("no shard replica reachable".to_string());
    }
    let replies = merged.replies();
    // `finish` recomputes quantiles off the merged histograms and ratios
    // off the merged sums, and turns must-agree divergence (e.g. an admin
    // reloaded one shard behind the router's back) into an error instead
    // of a coherent-looking aggregate.
    let mut fields = merged.finish()?;
    fields.extend(router_fields(shared, replies).into_fields());
    Ok(fields)
}

/// The router's own portion of the `STATS`/`METRICS` field list: cluster
/// topology, the hop-latency distribution, the flight recorder's totals,
/// and everything registered in the registry (router verb counters plus
/// the pool's adopted probe/failover/catch-up counters).
fn router_fields(shared: &Shared, replies: u64) -> FieldSet {
    let mut fields = FieldSet::new();
    fields.push("shards", shared.map.num_shards());
    let (up, total) = shared.pools.replica_health();
    fields.push("replicas", total);
    fields.push("replicas_up", up);
    fields.push("replies", replies);
    fields.push("router_uptime_s", format!("{:.1}", shared.started.elapsed().as_secs_f64()));
    let hist = shared.latency.snapshot();
    fields.push("router_lat_p50_us", hist.quantile(0.50));
    fields.push("router_lat_p90_us", hist.quantile(0.90));
    fields.push("router_lat_p99_us", hist.quantile(0.99));
    fields.push("router_flight_recorded", shared.flight.recorded());
    fields.push("router_slow_queries", shared.flight.slow_count());
    fields.push("router_capture_records", shared.capture.recorded());
    fields.push("router_capture_dropped", shared.capture.dropped());
    fields.extend_from_registry(&shared.registry);
    fields
}

fn handle_stats(shared: &Arc<Shared>) -> Response {
    let _gate = shared.epoch_gate.read().unwrap();
    shared.counters.scatters.inc();
    match merged_shard_fields(shared) {
        Ok(fields) => Response::Stats(StatsReply::new(fields)),
        Err(message) => internal(shared, message),
    }
}

/// `METRICS` at the router: the same merged field list `STATS` reports,
/// rendered as Prometheus text exposition — one scrape endpoint for the
/// whole cluster.
fn handle_metrics(shared: &Arc<Shared>) -> Handled {
    let _gate = shared.epoch_gate.read().unwrap();
    shared.counters.scatters.inc();
    match merged_shard_fields(shared) {
        Ok(fields) => Handled::Raw(render_prometheus(fields.into_iter())),
        Err(message) => Handled::Reply(internal(shared, message), false),
    }
}

/// `HEALTH` at the router: the cluster verdict — see [`cluster_health`].
fn handle_health(shared: &Arc<Shared>) -> Response {
    let _gate = shared.epoch_gate.read().unwrap();
    shared.counters.scatters.inc();
    Response::Health(cluster_health(shared))
}

/// Scatters `HEALTH` to every shard and merges: shard verdicts come back
/// re-originated as `shard<N>`, the router's own burn-rate verdicts (over
/// its front-door counters and hop-latency histogram) append as `router`,
/// and the fold picks the worst origin. A shard with no reachable replica
/// — or one answering something other than `HEALTHY` (an old binary) —
/// contributes a synthetic paging `reachability` verdict instead of
/// silently vanishing from the aggregate: the moment health matters most
/// is when a shard is down.
fn cluster_health(shared: &Arc<Shared>) -> HealthVerdict {
    let mut slos = Vec::new();
    for shard in 0..shared.pools.num_shards() {
        let origin = format!("shard{shard}");
        match shared.pools.call(shard, |client| client.request(&Request::Health)) {
            Ok(Response::Health(verdict)) => {
                slos.extend(verdict.slos.into_iter().map(|mut v| {
                    v.origin = origin.clone();
                    v
                }));
            }
            _ => slos.push(SloVerdict {
                name: "reachability".to_string(),
                status: SloStatus::Page,
                window: "-".to_string(),
                burn: 0.0,
                field: "-".to_string(),
                origin,
            }),
        }
    }
    let own = slo::evaluate(&shared.timeseries, &shared.slo, slo::ROUTER_INPUTS);
    slos.extend(own.slos.into_iter().map(|mut v| {
        v.origin = "router".to_string();
        v
    }));
    HealthVerdict::from_slos(slos)
}

/// The shards an op must reach: edge mutations are anchored at their
/// source user's shard; tag-space and vertex-count mutations change what
/// *every* shard may be asked (`shard_of` is total over users, and tags
/// are global), so they go everywhere.
fn target_shards(map: &ShardMap, op: &UpdateOp) -> Vec<usize> {
    match op {
        UpdateOp::AddEdge { src, .. }
        | UpdateOp::RemoveEdge { src, .. }
        | UpdateOp::SetEdgeTopics { src, .. } => vec![map.shard_of(*src)],
        UpdateOp::AttachTag { .. } | UpdateOp::DetachTag { .. } | UpdateOp::AddUser => {
            (0..map.num_shards()).collect()
        }
    }
}

fn handle_update(shared: &Arc<Shared>, op: UpdateOp) -> Response {
    let _admin = shared.admin_serial.lock().unwrap();
    let _gate = shared.epoch_gate.read().unwrap();
    shared.counters.updates.inc();
    let mut last: Option<(u64, u64)> = None;
    for shard in target_shards(&shared.map, &op) {
        let mut reached = 0;
        for outcome in shared
            .pools
            .broadcast(shard, true, |client| client.request(&Request::Update(op.clone())))
        {
            match outcome.outcome {
                Ok(Response::Updated { epoch, pending }) => {
                    reached += 1;
                    last = Some((epoch, pending));
                }
                Ok(Response::Err { code, message }) => {
                    // The op itself was rejected (identical models reject
                    // identically); forward the shard's verdict verbatim.
                    shared.counters.errors.inc();
                    return Response::Err { code, message };
                }
                Ok(other) => {
                    return internal(
                        shared,
                        format!("unexpected UPDATE reply from {}: {other:?}", outcome.addr),
                    )
                }
                // An unreachable replica is skipped: it must resync (be
                // restarted from current artifacts) before rejoining.
                Err(_) => {}
            }
        }
        if reached == 0 {
            return internal(shared, format!("shard {shard}: no replica accepted the update"));
        }
    }
    match last {
        Some((epoch, pending)) => Response::Updated { epoch, pending },
        None => internal(shared, "update targeted no shard".to_string()),
    }
}

/// The cluster-wide reload barrier — see the module docs for the phases.
fn handle_reload(shared: &Arc<Shared>) -> Response {
    let _admin = shared.admin_serial.lock().unwrap();
    let num_shards = shared.pools.num_shards();

    // Phase 1: PREPARE everywhere. Slow (fold + repair) but non-blocking —
    // every shard keeps answering queries from its current epoch, and the
    // epoch gate stays open for readers. PREPARE is idempotent, so a
    // barrier that failed halfway is simply retried with another RELOAD.
    for shard in 0..num_shards {
        let mut prepared = 0;
        for outcome in
            shared.pools.broadcast(shard, true, |client| client.request(&Request::Prepare))
        {
            match outcome.outcome {
                Ok(Response::Prepared(_)) => prepared += 1,
                Ok(Response::Err { code, message }) => {
                    return internal(
                        shared,
                        format!(
                            "prepare failed on {} ({}: {message}); retry RELOAD once resolved",
                            outcome.addr,
                            code.as_str()
                        ),
                    )
                }
                Ok(other) => {
                    return internal(
                        shared,
                        format!("unexpected PREPARE reply from {}: {other:?}", outcome.addr),
                    )
                }
                Err(_) => {} // dead replica: resyncs out of band
            }
        }
        if prepared == 0 {
            return internal(shared, format!("shard {shard}: no replica reachable for PREPARE"));
        }
    }

    // Phase 2: the barrier. Take the write gate — every scatter and query
    // drains first and none starts until the wave is done — then commit
    // the cheap swaps back-to-back.
    let mut reply = ReloadReply::default();
    let mut epochs = BTreeSet::new();
    {
        let _gate = shared.epoch_gate.write().unwrap();
        for shard in 0..num_shards {
            let mut committed = 0;
            for outcome in
                shared.pools.broadcast(shard, true, |client| client.request(&Request::Commit))
            {
                match outcome.outcome {
                    Ok(Response::Reloaded(r)) => {
                        committed += 1;
                        epochs.insert(r.epoch);
                        // Per-shard folds/repairs add up to the cluster
                        // total (replicas of one shard do identical work;
                        // their counts are intentionally all included —
                        // the reply reports work done, not distinct ops).
                        reply.folded += r.folded;
                        reply.resampled += r.resampled;
                        reply.reused += r.reused;
                        reply.full |= r.full;
                    }
                    Ok(other) => {
                        return internal(
                            shared,
                            format!(
                                "commit failed on {} ({other:?}); cluster may be mixed-epoch — \
                                 retry RELOAD",
                                outcome.addr
                            ),
                        )
                    }
                    Err(_) => {}
                }
            }
            if committed == 0 {
                return internal(
                    shared,
                    format!(
                        "shard {shard}: no replica reachable for COMMIT; cluster may be \
                         mixed-epoch — retry RELOAD"
                    ),
                );
            }
        }
    }
    shared.counters.reloads.inc();
    // All shards entered this barrier at a common epoch (boot, or the
    // previous barrier) and every commit advances by one, so the post-wave
    // epochs agree unless someone reloaded a shard behind the router.
    reply.epoch = epochs.iter().next_back().copied().unwrap_or(0);
    if epochs.len() > 1 {
        return internal(
            shared,
            format!("post-commit epochs disagree ({epochs:?}): a shard was reloaded out of band"),
        );
    }
    Response::Reloaded(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
    use pitex_model::TicModel;
    use pitex_serve::{ServeClient, ServeOptions, Server, ServerHandle};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// One paper-model shard behind a router.
    fn cluster() -> (ServerHandle, RouterHandle) {
        let model = Arc::new(TicModel::paper_example());
        let handle =
            EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
        let shard = Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let map = ShardMap::new(vec![vec![shard.addr().to_string()]]).unwrap();
        let router = Router::spawn(map, ("127.0.0.1", 0), RouterOptions::default()).unwrap();
        (shard, router)
    }

    #[test]
    fn torn_trailing_line_is_not_forwarded() {
        let (shard, router) = cluster();
        // A client dying mid-write: the line never gets its newline, so the
        // router must not broadcast its truncated operand to the shards.
        let mut stream = TcpStream::connect(router.addr()).unwrap();
        stream.write_all(b"UPDATE SET_EDGE 0 1 0:0.9").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "", "a torn line is not answered");
        let stats = ServeClient::connect(shard.addr()).unwrap().stats().unwrap();
        assert_eq!(stats.get_u64("updates_pending"), Some(0));
        assert_eq!(stats.get_u64("updates_applied"), Some(0));
        router.stop().unwrap();
        shard.stop().unwrap();
    }

    #[test]
    fn http_header_flood_is_cut_off() {
        let (shard, router) = cluster();
        let mut stream = TcpStream::connect(router.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // A valid request line, then a newline-free header that never
        // ends: one 431 and a hang-up, not 16 MiB of buffered header.
        const CHUNKS: usize = 16 * 1024;
        let feeder = std::thread::spawn(move || {
            writer.write_all(b"GET /metrics HTTP/1.0\r\n").unwrap();
            let chunk = [b'h'; 1024];
            (0..CHUNKS).take_while(|_| writer.write_all(&chunk).is_ok()).count()
        });
        let mut reply = vec![0u8; 12];
        stream.read_exact(&mut reply).expect("one reply before the cut");
        assert_eq!(reply, b"HTTP/1.0 431");
        assert!(feeder.join().unwrap() < CHUNKS, "the router hung up on the flood");
        router.stop().unwrap();
        shard.stop().unwrap();
    }
}
