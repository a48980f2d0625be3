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
//! * `SERIES` — answered from the router's *own* rolling time-series (the
//!   hop runtime's sampler ticks the router's fields; shard rings are
//!   queried per shard, where they live).
//! * `GET /metrics`, `/health`, `/series?…` — HTTP requests on this same
//!   port *are* the `METRICS`, `HEALTH` and `SERIES` verbs (the connection
//!   core, `pitex_serve::conn`, decodes all three wires to one `Request`):
//!   the cluster-merged Prometheus exposition, the cluster health verdict
//!   (`503` on page), and the router's local ring dumps.
//! * `PFRM` binary frames — the same core sniffs the frame magic exactly
//!   as it does on a shard: same verbs, requests matched to replies by id,
//!   so `ServeClient::connect_binary` and `pitex client --binary` talk to
//!   a router as transparently as to a shard.
//! * `PING`, `QUIT`, `SHUTDOWN` (which stops the router, not the shards),
//!   `FLIGHT` and `CAPTURE on|off|rotate` are the hop-local verbs the
//!   router shares with a shard through the hop runtime
//!   ([`pitex_serve::hop`]): they act on the *router's* own recorders. Its
//!   PWRK log is the front-door arrival stream, which is what
//!   `pitex replay` wants for whole-cluster replays; shards keep their own
//!   logs with the resolved-backend view.
//!
//! The router trusts the map, not a directory service: everything is a
//! pure function of the `ShardMap` file, and the only cluster-wide state
//! is the epoch the barrier maintains. Nor does it read the environment:
//! [`RouterOptions`] arrive whole from the caller (`pitex router` sets
//! them from its flags), and the hop runtime reads the obs knobs at spawn.

use crate::pool::{CallError, PoolOptions, ShardPools};
use crate::shardmap::ShardMap;
use pitex_live::UpdateOp;
use pitex_serve::conn::{Admission, Admit, Handled, ReplyTo, Service, Wire, WireCounters, POLL};
use pitex_serve::hop::{self, Hop, HopHandle, RequestRecord};
use pitex_serve::{ErrorCode, ReloadReply, Request, Response, StatsReply, TraceReply};
use pitex_support::obs::slo::{HealthVerdict, SloStatus, SloVerdict, ROUTER_NAMES};
use pitex_support::obs::{
    mint_trace_id, render_prometheus, CaptureOptions, Counter, FieldSet, MergedFields, Registry,
    SpanRecorder,
};
use std::collections::BTreeSet;
use std::io::{Error, ErrorKind};
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Router::spawn`]; `pitex router` sets some of them
/// from its flags. `pool.max_in_flight`, `pool.connect_timeout` and
/// `probe_interval` must be non-zero: zero would shed every query, fail
/// every dial, or spin the prober, so [`Router::spawn`] refuses it.
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

impl RouterOptions {
    /// `InvalidInput` naming the first field that is zero but must not be.
    fn check(&self) -> std::io::Result<()> {
        let zero = [
            ("pool.max_in_flight", self.pool.max_in_flight == 0),
            ("pool.connect_timeout", self.pool.connect_timeout.is_zero()),
            ("probe_interval", self.probe_interval.is_zero()),
        ];
        match zero.into_iter().find(|&(_, zero)| zero) {
            Some((field, _)) => {
                let message = format!("RouterOptions::{field} must be non-zero");
                Err(Error::new(ErrorKind::InvalidInput, message))
            }
            None => Ok(()),
        }
    }
}

/// The router's own counters (shard counters live on the shards; `STATS`
/// merges both views), registered in its hop's registry next to the
/// request counters and the hop-latency histogram.
#[derive(Debug)]
struct Counters {
    scatters: Counter,
    updates: Counter,
    reloads: Counter,
}

impl Counters {
    fn register(registry: &Registry) -> Self {
        Self {
            scatters: registry.counter("router_scatters"),
            updates: registry.counter("router_updates"),
            reloads: registry.counter("router_reloads"),
        }
    }
}

struct Shared {
    /// The hop runtime: the registry behind `STATS`/`METRICS` (the request
    /// counters, the hop-latency histogram — router-observed `QUERY`
    /// service time, shard round-trip included — and the pool's adopted
    /// probe/failover/catch-up counters), the recorders, the rings.
    hop: Arc<Hop>,
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
    counters: Counters,
}

/// Namespace for [`Router::spawn`].
pub struct Router;

impl Router {
    /// Binds `addr` (port 0 picks an ephemeral port), spawns the acceptor
    /// and the health-prober, and returns immediately. Shards are *not*
    /// contacted eagerly — a router can boot before its shards and heal as
    /// they come up. Options that would break routing are refused with
    /// `InvalidInput` (see [`RouterOptions`]).
    pub fn spawn(
        map: ShardMap,
        addr: impl ToSocketAddrs,
        options: RouterOptions,
    ) -> std::io::Result<RouterHandle> {
        options.check()?;
        let listener = hop::bind(addr)?;
        let hop = Arc::new(Hop::new(&ROUTER_NAMES, options.capture.clone(), options.admin)?);
        let pools = ShardPools::new(&map, options.pool);
        // The pool's probe/failover/catch-up counters are shared handles
        // adopted into the same registry — no polling bridge.
        for (name, counter) in pools.counters() {
            hop.registry.adopt_counter(name, &counter);
        }
        let shared = Arc::new(Shared {
            counters: Counters::register(&hop.registry),
            hop,
            map,
            pools,
            options,
            epoch_gate: RwLock::new(()),
            admin_serial: Mutex::new(()),
        });
        let prober = {
            let shared = shared.clone();
            hop::spawn("pitex-router-prober".to_string(), move || prober_loop(&shared))?
        };
        // The router's *own* fields only: a tick must stay cheap and local,
        // so it does not scatter to the shards — shard rings are read
        // shard-side.
        let fields = {
            let shared = shared.clone();
            move || router_fields(&shared, 0).into_fields()
        };
        let service = RouterService(shared.clone());
        shared.hop.start(listener, service, false, fields, vec![prober])
    }
}

/// A running router: [`Router::spawn`]'s handle. Stopping it leaves the
/// shard servers running.
pub type RouterHandle = HopHandle;

fn prober_loop(shared: &Arc<Shared>) {
    let mut last_probe = Instant::now();
    while shared.hop.running() {
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
    shared.hop.error(ErrorCode::Internal, message)
}

/// The router behind the connection core's [`Service`] seam: every verb
/// past the hop runtime's is a blocking call into the shard pools.
#[derive(Clone)]
struct RouterService(Arc<Shared>);

impl Admission for RouterService {
    fn counters(&self) -> WireCounters<'_> {
        self.0.hop.counters()
    }

    fn tick(&mut self) -> bool {
        self.0.hop.running()
    }

    fn admit(&mut self, request: Request, to: &ReplyTo) -> Admit {
        self.0.hop.admit(request, to, |request, _| Admit::Blocking(request))
    }
}

impl Service for RouterService {
    fn call(&mut self, request: Request, wire: Wire) -> Handled {
        self.0.hop.call(request, wire, |request| handle_request(&self.0, request))
    }
}

/// The router's own verbs, behind the hop runtime's switch.
fn handle_request(shared: &Arc<Shared>, request: Request) -> Handled {
    let response = match request {
        // Planning happens on the owning shard, where the artifacts and
        // latency EWMAs live.
        request @ (Request::Query(_) | Request::Explain(_) | Request::Trace(_)) => {
            route_query(shared, request)
        }
        Request::Stats => return handle_stats(shared, false),
        Request::Metrics => return handle_stats(shared, true),
        Request::Health => handle_health(shared),
        Request::Update(op) => handle_update(shared, op),
        Request::Reload => handle_reload(shared),
        Request::Epoch => handle_epoch(shared),
        r @ (Request::Prepare | Request::Commit | Request::Sync { .. } | Request::Discard) => {
            let message = format!(
                "{} is shard-level: RELOAD at the router runs the cluster barrier, and the \
                 router's prober runs replica catch-up itself",
                r.spec().name
            );
            shared.hop.error(ErrorCode::BadRequest, message)
        }
        _ => unreachable!("answered by the hop runtime"),
    };
    Handled::Reply(response, false)
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
    let verb = request.spec().name;
    let (q, trace_id) = match &mut request {
        Request::Query(q) | Request::Explain(q) => (*q, None),
        Request::Trace(t) => (t.query, Some(*t.trace_id.get_or_insert_with(mint_trace_id))),
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
    shared.hop.finish(&record, flight_backend, response)
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
            Ok(Response::Err { code, message }) => return shared.hop.error(code, message),
            Ok(other) => {
                return internal(shared, format!("unexpected EPOCH reply: {other:?}"));
            }
            Err(CallError::Saturated) => {
                shared.hop.busy.inc();
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
/// topology, then the hop runtime's fields (uptime, the hop-latency
/// distribution, the recorders' totals, and everything registered: router
/// verb counters plus the pool's adopted probe/failover/catch-up counters).
fn router_fields(shared: &Shared, replies: u64) -> FieldSet {
    let mut fields = FieldSet::new();
    fields.push("shards", shared.map.num_shards());
    let (up, total) = shared.pools.replica_health();
    fields.push("replicas", total);
    fields.push("replicas_up", up);
    fields.push("replies", replies);
    shared.hop.fields(&mut fields);
    fields
}

/// `STATS` at the router, or `METRICS`: the same merged field list
/// rendered as Prometheus text exposition — one scrape endpoint for the
/// whole cluster.
fn handle_stats(shared: &Arc<Shared>, metrics: bool) -> Handled {
    let _gate = shared.epoch_gate.read().unwrap();
    shared.counters.scatters.inc();
    match merged_shard_fields(shared) {
        Ok(fields) if metrics => Handled::Raw(render_prometheus(fields.into_iter())),
        Ok(fields) => Handled::Reply(Response::Stats(StatsReply::new(fields)), false),
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
    let own = shared.hop.health();
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
                // The op itself was rejected (identical models reject
                // identically); forward the shard's verdict verbatim.
                Ok(Response::Err { code, message }) => return shared.hop.error(code, message),
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
        cluster_with(RouterOptions::default())
    }

    fn cluster_with(options: RouterOptions) -> (ServerHandle, RouterHandle) {
        let model = Arc::new(TicModel::paper_example());
        let handle =
            EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
        let shard = Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let map = ShardMap::new(vec![vec![shard.addr().to_string()]]).unwrap();
        let router = Router::spawn(map, ("127.0.0.1", 0), options).unwrap();
        (shard, router)
    }

    #[test]
    fn admin_verbs_can_be_disabled() {
        let options = RouterOptions { admin: false, ..RouterOptions::default() };
        let (shard, router) = cluster_with(options);
        let mut client = ServeClient::connect(router.addr()).unwrap();
        for line in [
            "UPDATE ADD_USER",
            "RELOAD",
            "PREPARE",
            "COMMIT",
            "EPOCH",
            "SYNC 0",
            "DISCARD",
            "FLIGHT",
            "CAPTURE on",
        ] {
            let reply = Response::parse(&client.roundtrip_line(line).unwrap()).unwrap();
            assert!(
                matches!(reply, Response::Err { code: ErrorCode::AdminDenied, .. }),
                "{line}: {reply:?}"
            );
        }
        // Queries still route to the shard, and no admin verb reached it.
        let Response::Ok(reply) = client.query(0, 2).unwrap() else { panic!("expected OK") };
        assert_eq!(reply.tags, vec![2, 3]);
        let stats = ServeClient::connect(shard.addr()).unwrap().stats().unwrap();
        assert_eq!(stats.get_u64("updates_pending"), Some(0));
        router.stop().unwrap();
        shard.stop().unwrap();
    }

    /// `Router::spawn` refuses `options` with `InvalidInput` naming
    /// `field`.
    fn refuses_zero(options: RouterOptions, field: &str) {
        let map = ShardMap::new(vec![vec!["127.0.0.1:1".to_string()]]).unwrap();
        let Err(e) = Router::spawn(map, ("127.0.0.1", 0), options) else {
            panic!("a zero {field} must be refused")
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains(field), "{e}");
    }

    #[test]
    fn metrics_without_a_reachable_shard_fails_fast_on_both_wires() {
        let map = ShardMap::new(vec![vec!["127.0.0.1:1".to_string()]]).unwrap();
        let router = Router::spawn(map, ("127.0.0.1", 0), RouterOptions::default()).unwrap();
        for binary in [false, true] {
            let addr = router.addr();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let result = ServeClient::connect_with(addr, None, binary)
                    .and_then(|mut client| client.metrics());
                let _ = tx.send(result.map_err(|e| e.to_string()));
            });
            let result = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("METRICS (binary: {binary}) still blocked after 5 s"));
            let err = result.expect_err("no shard answered, so no exposition");
            assert!(err.contains("Internal"), "binary: {binary}: {err}");
        }
        router.stop().unwrap();
    }

    #[test]
    fn zero_max_in_flight_is_refused() {
        let mut options = RouterOptions::default();
        options.pool.max_in_flight = 0;
        refuses_zero(options, "max_in_flight");
    }

    #[test]
    fn zero_connect_timeout_is_refused() {
        let mut options = RouterOptions::default();
        options.pool.connect_timeout = Duration::ZERO;
        refuses_zero(options, "connect_timeout");
    }

    #[test]
    fn zero_probe_interval_is_refused() {
        let options = RouterOptions { probe_interval: Duration::ZERO, ..RouterOptions::default() };
        refuses_zero(options, "probe_interval");
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
