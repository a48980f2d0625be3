//! The line-delimited text protocol `pitex serve` speaks.
//!
//! Every request and response is a single `\n`-terminated ASCII line of
//! whitespace-separated tokens — trivially scriptable (`nc`, `telnet`) and
//! dependency-free to parse. Requests:
//!
//! ```text
//! PING                              liveness probe
//! QUERY <user> <k> [timeout_us] [backend]
//!                                   a PITEX query (Def. 1); the optional
//!                                   backend overrides the server's method
//!                                   per request — `auto` asks the planner
//! EXPLAIN <user> <k> [timeout_us] [backend]
//!                                   run the query and report the planner's
//!                                   decision: chosen backend, predicted vs.
//!                                   actual cost, rejected alternatives
//! TRACE <user> <k> [timeout_us] [backend] [id=<hex>]
//!                                   run the query and return its span
//!                                   timeline; `id=` carries the trace id
//!                                   across the router→shard hop (minted
//!                                   at admission when absent)
//! STATS                             server counters and latency percentiles
//! METRICS                           Prometheus text exposition (the one
//!                                   multi-line reply: lines until `# EOF`)
//! SERIES <field> [fast|mid]         one registry field's rolling ring from
//!                                   the background sampler (default fast);
//!                                   counters come back as per-window
//!                                   deltas, histograms as per-window
//!                                   snapshots
//! HEALTH                            SLO burn-rate verdict: per-objective
//!                                   ok|warn|page with the evidence
//!                                   (window, burn rate, offending field);
//!                                   a router merges shard verdicts and
//!                                   names the worst shard
//! FLIGHT                            dump the flight recorder: the last N
//!                                   request summaries and the slow-query
//!                                   log (admin)
//! CAPTURE <on|off|rotate>           control the workload-capture recorder:
//!                                   pause/resume sampling into the `PWRK`
//!                                   log, or rotate the log file aside and
//!                                   start a fresh one (admin; capture must
//!                                   have been configured at boot via
//!                                   `PITEX_OBS_CAPTURE`)
//! UPDATE <op…>                      stage one model mutation (admin)
//! RELOAD                            fold staged ops, repair the index,
//!                                   swap the snapshot (admin)
//! PREPARE                           phase 1 of a coordinated reload: fold +
//!                                   repair into a staged snapshot, do NOT
//!                                   swap (admin)
//! COMMIT                            phase 2: swap the PREPAREd snapshot in
//!                                   (admin)
//! EPOCH                             current snapshot epoch (admin)
//! SYNC <from_epoch>                 stream the update-log suffix a stale
//!                                   replica needs to replay from
//!                                   `from_epoch` up to this server's
//!                                   epoch (admin)
//! DISCARD                           drop every staged-but-uncommitted op
//!                                   (and any PREPAREd snapshot) — how a
//!                                   rejoining replica yields its local
//!                                   pending state to a catch-up donor's
//!                                   (admin)
//! QUIT                              close this connection
//! SHUTDOWN                          gracefully stop the whole server
//! ```
//!
//! `PREPARE`/`COMMIT` split `RELOAD` so a cluster router can run an epoch
//! barrier: the slow half (fold + index repair) happens on every shard
//! first, then the cheap swaps are committed back-to-back — the window in
//! which two shards serve different epochs shrinks from "one repair each"
//! to "one atomic swap each".
//!
//! The `UPDATE` operand is the [`pitex_live::UpdateOp`] text grammar, e.g.
//! `UPDATE SET_EDGE 0 1 0:0.9` or `UPDATE DETACH_TAG 2`.
//!
//! Responses (one line per request, in order):
//!
//! ```text
//! PONG
//! OK user=<u> k=<k> tags=<t1,t2,..> spread=<f> cached=<0|1> us=<micros>
//! EXPLAINED user=<u> k=<k> backend=<name> predicted_us=<p> actual_us=<a>
//!           us=<total> degraded=<0|1> tags=<..> spread=<f>
//!           rejected=<name:pred:reason,..|->
//! TRACED trace_id=<hex> user=<u> k=<k> tags=<..> spread=<f> cached=<0|1>
//!        us=<micros> spans=<name:start:dur,..|->
//! STATS <key>=<value> ...
//! FLIGHTED n=<count> slow=<count> entries=<trace:verb:user:k:backend:outcome:us:ts;..|->
//!                                   newest last; `ts` is wall-clock µs at
//!                                   admission; the slow-log entries are
//!                                   appended after the ring entries
//! CAPTURED enabled=<0|1> recorded=<n> dropped=<n>
//!                                   capture recorder state after a CAPTURE
//!                                   verb (counts are since boot)
//! SERIESED field=<f> res=<fast|mid> tick_ms=<n> window_ticks=<n>
//!          kind=<counter|gauge|hist> n=<count> points=<p1;p2;..|->
//!                                   ring contents oldest-first; a point is
//!                                   a number (counter/gauge) or a
//!                                   histogram wire string (hist); `n=`
//!                                   disambiguates one empty histogram
//!                                   (`-`) from the empty list
//! HEALTHY status=<ok|warn|page> worst=<origin|->
//!         slos=<name:status:window:burn:field:origin;..|->
//!                                   the component verdict plus every
//!                                   per-objective verdict with evidence;
//!                                   `worst` is the origin of the worst
//!                                   non-ok verdict
//! UPDATED epoch=<e> pending=<n>     op staged; visible after RELOAD
//! RELOADED epoch=<e> folded=<n> resampled=<r> reused=<u> full=<0|1>
//! PREPARED epoch=<e> folded=<n> resampled=<r> reused=<u> full=<0|1>
//! EPOCH <e>
//! SYNCED epoch=<e> base=<b> records=<n> pending=<p> bundle=<hex>
//!                                   the committed batches after
//!                                   `from_epoch` plus staged ops, as a
//!                                   hex-armored [`SyncBundle`]
//! DISCARDED epoch=<e> dropped=<n>   staged ops dropped; epoch unchanged
//! BYE
//! BUSY                              load shed: the request queue was full
//! ERR <CODE> <message>              CODE ∈ BAD_REQUEST | UNKNOWN_USER |
//!                                          BAD_K | DEADLINE | INTERNAL |
//!                                          BAD_UPDATE | ADMIN_DENIED
//! ```
//!
//! `tags` are 0-based tag ids (the paper's `w3` is `2`); `-` marks the empty
//! set. Both sides of the protocol live here so the server, the client and
//! the tests share one parser.
//!
//! # One declaration per verb and per reply
//!
//! Every fact about a verb — its wire name, whether it is admin-gated,
//! whether a client may replay it after a lost connection — is one row of
//! [`VERBS`], read through [`Request::spec`] by the line codec, both hops'
//! admin guards and the client's retry test. Adding a verb is a `Request`
//! variant, its row, and its operands in [`Request::to_line`] and
//! [`Request::parse`].
//!
//! A keyed reply (`VERB key=value …`) is one field list in a `record!` or
//! `replies!` table below; `Response::to_line` and `Response::parse` are
//! both generated from it, so adding a reply field is one line there (plus
//! a `Value` impl if its type is new). The reading rules are the same
//! for every record: fields in declared order, tokens after the last
//! declared field ignored, `-` for an empty list. `SERIESED`, `SYNCED`,
//! `STATS`, `ERR`, `EPOCH` and the bare words stay hand-written on the
//! same reader and writer.

use pitex_core::plan::{RejectReason, RejectedPlan};
use pitex_core::{registry, EngineBackend};
use pitex_live::{SyncBundle, UpdateOp};
use pitex_model::TagId;
use pitex_support::obs::slo::{HealthVerdict, SloStatus, SloVerdict};
use pitex_support::obs::timeseries::{SeriesDump, SeriesKind, SeriesPoints, SeriesRes};
use pitex_support::obs::trace::{format_trace_id, parse_trace_id, spans_from_wire, spans_to_wire};
use pitex_support::obs::Span;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Ping,
    Query(QueryRequest),
    /// A query that additionally reports the planner's decision.
    Explain(QueryRequest),
    /// A query that additionally returns its span timeline (and echoes —
    /// or mints — its trace id).
    Trace(TraceRequest),
    Stats,
    /// Prometheus text exposition. The reply is the protocol's one
    /// multi-line response: raw exposition lines terminated by `# EOF`,
    /// written outside the [`Response`] enum.
    Metrics,
    /// Dump the flight recorder (admin-gated, like the other
    /// introspection-of-state verbs).
    Flight,
    /// One registry field's rolling ring from the background sampler
    /// (default resolution: fast). Unauthenticated, like `STATS` — it is
    /// how dashboards and `pitex top` see the recent past.
    Series {
        field: String,
        res: Option<SeriesRes>,
    },
    /// The SLO burn-rate verdict. Unauthenticated — it is what a load
    /// balancer or a stock Prometheus probes.
    Health,
    /// Control the workload-capture recorder (admin-gated).
    Capture(CaptureAction),
    /// Stage one mutation (admin-gated).
    Update(UpdateOp),
    /// Fold staged mutations into a fresh snapshot (admin-gated).
    Reload,
    /// Phase 1 of a two-phase reload: fold + repair without swapping
    /// (admin-gated).
    Prepare,
    /// Phase 2 of a two-phase reload: swap the prepared snapshot in
    /// (admin-gated).
    Commit,
    /// Read the current snapshot epoch (admin-gated).
    Epoch,
    /// Stream the update-log suffix after `from_epoch` (admin-gated) so a
    /// stale replica can replay its way back to the current epoch.
    Sync {
        from_epoch: u64,
    },
    /// Drop every staged-but-uncommitted op and any prepared snapshot
    /// (admin-gated) — the first step of replica catch-up, so a donor's
    /// history replay cannot double-apply the rejoiner's local pending.
    Discard,
    Quit,
    Shutdown,
}

/// Declares a fieldless enum with each variant's wire name beside it:
/// `as_str` and `parse` are both generated from the one list.
macro_rules! wire_enum {
    ($(#[$meta:meta])* pub enum $ty:ident {
        $($(#[$doc:meta])* $variant:ident = $name:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$doc])* $variant,)*
        }

        impl $ty {
            pub fn as_str(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }

            pub fn parse(s: &str) -> Option<$ty> {
                match s {
                    $($name => Some($ty::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

wire_enum! {
    /// The `CAPTURE` verb's operand: what to do to the workload recorder.
    pub enum CaptureAction {
        /// Resume sampling into the configured `PWRK` log.
        On = "on",
        /// Pause sampling and flush buffered records to disk.
        Off = "off",
        /// Rename the current log aside (`<path>.1`, `.2`, …) and start a
        /// fresh one; the reply counts carry over (they are since boot).
        Rotate = "rotate",
    }
}

/// The `QUERY`/`EXPLAIN` verbs' operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Query user (0-based vertex id).
    pub user: u32,
    /// Requested tag-set size.
    pub k: usize,
    /// Optional per-request deadline; the server default applies when absent.
    pub timeout_us: Option<u64>,
    /// Optional per-request backend override; the server's configured
    /// method applies when absent. `auto` defers to the cost-based planner.
    pub backend: Option<EngineBackend>,
}

impl QueryRequest {
    /// A plain `(user, k)` query under the server's defaults.
    pub fn new(user: u32, k: usize) -> Self {
        Self { user, k, timeout_us: None, backend: None }
    }
}

/// The `TRACE` verb's operands: a query plus an optional inbound trace id
/// (`id=<hex>`), which is how the router propagates the id it minted onto
/// the shard hop. Absent, the receiving server mints one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRequest {
    pub query: QueryRequest,
    pub trace_id: Option<u64>,
}

/// Everything a hop knows about one verb: one row of [`VERBS`].
#[derive(Debug)]
pub struct VerbSpec {
    /// The wire name: the request line's first token.
    pub name: &'static str,
    /// Refused with `ERR ADMIN_DENIED` by a hop started without admin
    /// verbs.
    pub admin: bool,
    /// Retried once by [`ServeClient`](crate::ServeClient) after a lost
    /// connection: replaying it cannot apply anything twice.
    pub idempotent: bool,
    /// A request of this verb, operands zeroed: what [`Request::spec`]
    /// matches by variant and [`Request::parse`] fills in.
    shape: Request,
}

const fn verb(name: &'static str, admin: bool, idempotent: bool, shape: Request) -> VerbSpec {
    VerbSpec { name, admin, idempotent, shape }
}

const NO_QUERY: QueryRequest = QueryRequest { user: 0, k: 0, timeout_us: None, backend: None };

/// One row per verb. The query verbs come first: they are what
/// [`Request::spec`] and [`Request::parse`] look up most.
#[rustfmt::skip]
pub static VERBS: [VerbSpec; 19] = [
    //    name        admin  idempotent
    verb("QUERY",     false, true,  Request::Query(NO_QUERY)),
    verb("EXPLAIN",   false, true,  Request::Explain(NO_QUERY)),
    verb("TRACE",     false, true,  Request::Trace(TraceRequest { query: NO_QUERY, trace_id: None })),
    verb("PING",      false, true,  Request::Ping),
    verb("STATS",     false, true,  Request::Stats),
    verb("METRICS",   false, false, Request::Metrics),
    verb("SERIES",    false, true,  Request::Series { field: String::new(), res: None }),
    verb("HEALTH",    false, true,  Request::Health),
    verb("FLIGHT",    true,  true,  Request::Flight),
    verb("CAPTURE",   true,  false, Request::Capture(CaptureAction::On)),
    verb("UPDATE",    true,  false, Request::Update(UpdateOp::AddUser)),
    verb("RELOAD",    true,  false, Request::Reload),
    verb("PREPARE",   true,  false, Request::Prepare),
    verb("COMMIT",    true,  false, Request::Commit),
    verb("EPOCH",     true,  false, Request::Epoch),
    verb("SYNC",      true,  true,  Request::Sync { from_epoch: 0 }),
    verb("DISCARD",   true,  false, Request::Discard),
    verb("QUIT",      false, false, Request::Quit),
    verb("SHUTDOWN",  false, false, Request::Shutdown),
];

impl Request {
    /// This request's verb row.
    pub fn spec(&self) -> &'static VerbSpec {
        let variant = std::mem::discriminant(self);
        VERBS
            .iter()
            .find(|spec| std::mem::discriminant(&spec.shape) == variant)
            .expect("every verb has a row in VERBS")
    }

    /// Serializes to a protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = String::from(self.spec().name);
        match self {
            Request::Query(q) | Request::Explain(q) => push_query_operands(&mut line, q),
            Request::Trace(t) => {
                push_query_operands(&mut line, &t.query);
                if let Some(id) = t.trace_id {
                    push_operand(&mut line, format_args!("id={}", format_trace_id(id)));
                }
            }
            Request::Series { field, res } => {
                push_operand(&mut line, field);
                if let Some(res) = res {
                    push_operand(&mut line, res.name());
                }
            }
            Request::Capture(action) => push_operand(&mut line, action.as_str()),
            Request::Update(op) => push_operand(&mut line, op.to_text()),
            Request::Sync { from_epoch } => push_operand(&mut line, from_epoch),
            _ => {}
        }
        line
    }

    /// Parses a request line. The error string is a human-readable reason
    /// suitable for an `ERR BAD_REQUEST` reply.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().ok_or("empty request")?;
        let spec = VERBS
            .iter()
            .find(|spec| spec.name == verb)
            .ok_or_else(|| format!("unknown verb {verb:?}"))?;
        let request =
            match &spec.shape {
                // One call site for both verbs: with one each, a `QUERY`
                // line parsed ~20 % slower.
                shape @ (Request::Query(_) | Request::Explain(_)) => {
                    let q = parse_query_operands(verb, &mut tokens)?;
                    if let Request::Query(_) = shape {
                        Request::Query(q)
                    } else {
                        Request::Explain(q)
                    }
                }
                Request::Trace(_) => {
                    // The optional trailing `id=<hex>` operand is peeled off
                    // before the shared query-operand parser runs.
                    let mut operands: Vec<&str> = tokens.by_ref().collect();
                    let trace_id = match operands.last().and_then(|t| t.strip_prefix("id=")) {
                        Some(hex) => {
                            operands.pop();
                            Some(parse_trace_id(hex)?)
                        }
                        None => None,
                    };
                    let mut operands = operands.into_iter();
                    let query = parse_query_operands(verb, &mut operands)?;
                    if operands.next().is_some() {
                        return Err("trailing tokens after TRACE".to_string());
                    }
                    Request::Trace(TraceRequest { query, trace_id })
                }
                Request::Series { .. } => {
                    let field = tokens.next().ok_or("SERIES needs <field> [fast|mid]")?;
                    let res = match tokens.next() {
                        Some(token) => Some(SeriesRes::parse(token).ok_or_else(|| {
                            format!("bad series resolution {token:?} (want fast|mid)")
                        })?),
                        None => None,
                    };
                    Request::Series { field: field.to_string(), res }
                }
                Request::Capture(_) => {
                    let action = tokens.next().ok_or("CAPTURE needs <on|off|rotate>")?;
                    Request::Capture(CaptureAction::parse(action).ok_or_else(|| {
                        format!("bad capture action {action:?} (want on|off|rotate)")
                    })?)
                }
                // UPDATE hands its whole operand to the op grammar (which
                // performs its own trailing-token check).
                Request::Update(_) => {
                    let rest = line.trim_start()[verb.len()..].strip_prefix(' ');
                    let rest = rest.ok_or("UPDATE needs an operation")?;
                    return Ok(Request::Update(UpdateOp::parse_text(rest)?));
                }
                Request::Sync { .. } => {
                    let from = tokens.next().ok_or("SYNC needs <from_epoch>")?;
                    let from_epoch =
                        from.parse().map_err(|_| format!("bad from_epoch {from:?} (want u64)"))?;
                    Request::Sync { from_epoch }
                }
                bare => bare.clone(),
            };
        if tokens.next().is_some() {
            return Err(format!("trailing tokens after {verb}"));
        }
        Ok(request)
    }
}

fn push_operand(line: &mut String, operand: impl Display) {
    let _ = write!(line, " {operand}");
}

fn push_query_operands(line: &mut String, q: &QueryRequest) {
    push_operand(line, q.user);
    push_operand(line, q.k);
    if let Some(t) = q.timeout_us {
        push_operand(line, t);
    }
    if let Some(b) = q.backend {
        push_operand(line, b.cli_name());
    }
}

/// `<user> <k> [timeout_us] [backend]` — timeout first when both optional
/// operands are present.
fn parse_query_operands<'a>(
    verb: &str,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<QueryRequest, String> {
    let user = tokens.next().ok_or_else(|| format!("{verb} needs <user> <k>"))?;
    let user: u32 = user.parse().map_err(|_| format!("bad user {user:?} (want u32)"))?;
    let k = tokens.next().ok_or_else(|| format!("{verb} needs <user> <k>"))?;
    let k: usize = k.parse().map_err(|_| format!("bad k {k:?} (want usize)"))?;
    let mut timeout_us = None;
    let mut backend = None;
    if let Some(token) = tokens.next() {
        if token.bytes().all(|b| b.is_ascii_digit()) {
            timeout_us =
                Some(token.parse().map_err(|_| format!("bad timeout_us {token:?} (want u64)"))?);
            if let Some(token) = tokens.next() {
                backend = Some(parse_backend_name(token)?);
            }
        } else {
            backend = Some(parse_backend_name(token)?);
        }
    }
    Ok(QueryRequest { user, k, timeout_us, backend })
}

/// Parses a wire backend name; the error names every valid method, sourced
/// from the backend registry so the listing can never drift.
pub fn parse_backend_name(token: &str) -> Result<EngineBackend, String> {
    EngineBackend::parse(token)
        .ok_or_else(|| format!("unknown backend {token:?} (valid: {})", registry::method_names()))
}

wire_enum! {
    /// Machine-readable error classes, mirrored by the CLI exit paths.
    pub enum ErrorCode {
        /// The request line did not parse.
        BadRequest = "BAD_REQUEST",
        /// The query user is outside the model's vertex range.
        UnknownUser = "UNKNOWN_USER",
        /// `k = 0` (a PITEX query selects at least one tag).
        BadK = "BAD_K",
        /// The per-request deadline elapsed before the query ran.
        Deadline = "DEADLINE",
        /// The server failed internally (e.g. a worker panicked).
        Internal = "INTERNAL",
        /// An `UPDATE` op parsed but was semantically invalid (unknown vertex,
        /// duplicate edge, bad probability, …).
        BadUpdate = "BAD_UPDATE",
        /// An admin verb (`UPDATE`/`RELOAD`/`EPOCH`) on a server started with
        /// admin verbs disabled.
        AdminDenied = "ADMIN_DENIED",
    }
}

/// A successful query reply.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// Echo of the query user.
    pub user: u32,
    /// The effective `k` (clamped to the tag vocabulary, as the engine does).
    pub k: usize,
    /// The selected tag set `W*` (0-based ids, ascending).
    pub tags: Vec<TagId>,
    /// Estimated spread `Ê[I(u|W*)]`.
    pub spread: f64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Server-side handling time in microseconds.
    pub us: u64,
}

/// The `TRACED` reply: a query answer plus its trace id and span timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReply {
    /// The request's trace id (inbound `id=` echoed, or minted here).
    pub trace_id: u64,
    /// Echo of the query user.
    pub user: u32,
    /// The effective `k`.
    pub k: usize,
    /// The selected tag set `W*`.
    pub tags: Vec<TagId>,
    /// Estimated spread.
    pub spread: f64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Total server-side handling time in microseconds.
    pub us: u64,
    /// Where those microseconds went, offsets relative to admission. A
    /// router splices shard-side spans in under a `shard.` name prefix.
    pub spans: Vec<Span>,
}

/// One flight-recorder entry as it crosses the wire (owned strings — the
/// in-memory recorder uses `&'static str`, but a router dump aggregates
/// foreign entries too).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightWireEntry {
    pub trace_id: u64,
    pub verb: String,
    pub user: u32,
    pub k: usize,
    pub backend: String,
    pub outcome: String,
    pub us: u64,
    /// Wall-clock microseconds since `UNIX_EPOCH` at admission (the shared
    /// observability anchor), so dumps line up with `PWRK` capture records.
    pub ts_us: u64,
}

/// The `FLIGHTED` reply: the recorder's ring (newest last, capped so the
/// reply stays a single line) and the slow-query log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightReply {
    /// Total entries ever recorded into the ring.
    pub recorded: u64,
    /// Total requests that crossed the slow threshold.
    pub slow_count: u64,
    /// The ring contents, oldest first.
    pub entries: Vec<FlightWireEntry>,
    /// The retained slow queries, oldest first.
    pub slow: Vec<FlightWireEntry>,
}

/// The `SERIESED` reply: one ring's contents plus the metadata a consumer
/// needs to lay the points on a time axis. Points stay wire-encoded
/// strings here — a number for counter/gauge series, a
/// [`LatencyHistogram`](pitex_support::obs::LatencyHistogram) wire string
/// for histogram series — so the protocol layer does not need to know
/// every shape.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesReply {
    pub field: String,
    pub res: SeriesRes,
    /// Sampler tick width in milliseconds.
    pub tick_ms: u64,
    /// Ticks per ring window (1 fast / 10 mid / 60 slow).
    pub window_ticks: u64,
    pub kind: SeriesKind,
    /// Completed windows, oldest first.
    pub points: Vec<String>,
}

impl SeriesReply {
    /// The points as numbers, for counter/gauge (and derived-quantile)
    /// series. Histogram points yield `None`.
    pub fn scalar_points(&self) -> Option<Vec<f64>> {
        self.points.iter().map(|p| p.parse().ok()).collect()
    }
}

impl From<SeriesDump> for SeriesReply {
    fn from(dump: SeriesDump) -> Self {
        let points = match &dump.points {
            SeriesPoints::Scalar(values) => {
                values.iter().map(|&v| crate::http::scalar_token(v)).collect()
            }
            SeriesPoints::Hist(hists) => hists.iter().map(|h| h.to_wire()).collect(),
        };
        Self {
            field: dump.field,
            res: dump.res,
            tick_ms: dump.tick_ms,
            window_ticks: dump.window_ticks,
            kind: dump.kind,
            points,
        }
    }
}

/// The `STATS` reply: ordered `key=value` pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReply {
    fields: BTreeMap<String, String>,
}

impl StatsReply {
    pub fn new(fields: impl IntoIterator<Item = (String, String)>) -> Self {
        Self { fields: fields.into_iter().collect() }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(|s| s.as_str())
    }

    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.fields.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// The `RELOADED` reply: what the snapshot swap did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReloadReply {
    /// Epoch now being served.
    pub epoch: u64,
    /// Staged ops folded into the new snapshot (0 = nothing to do, no swap).
    pub folded: u64,
    /// RR-Graphs resampled by incremental repair (θ on a full rebuild).
    pub resampled: u64,
    /// RR-Graphs reused from the previous index.
    pub reused: u64,
    /// Whether repair fell back to a full rebuild.
    pub full: bool,
}

/// The `EXPLAINED` reply: a query answer plus the planner's decision —
/// which backend ran, what it was predicted to cost, what it actually
/// cost, and every alternative that was rejected (with the reason).
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainReply {
    /// Echo of the query user.
    pub user: u32,
    /// The effective `k` (clamped to the tag vocabulary).
    pub k: usize,
    /// The concrete backend that answered (never `auto`).
    pub backend: EngineBackend,
    /// The planner's predicted service time for that backend.
    pub predicted_us: u64,
    /// Measured execution time on the worker (queue wait excluded).
    pub actual_us: u64,
    /// Total server-side handling time, queue wait included.
    pub us: u64,
    /// Whether the deadline budget forced a cheaper backend than the
    /// preferred one.
    pub degraded: bool,
    /// The selected tag set `W*`.
    pub tags: Vec<TagId>,
    /// Estimated spread.
    pub spread: f64,
    /// The alternatives the planner rejected.
    pub rejected: Vec<RejectedPlan>,
}

/// A parsed response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Pong,
    Ok(QueryReply),
    /// `EXPLAINED …` — see [`ExplainReply`].
    Explained(ExplainReply),
    /// `TRACED …` — see [`TraceReply`].
    Traced(TraceReply),
    Stats(StatsReply),
    /// `FLIGHTED …` — see [`FlightReply`].
    Flight(FlightReply),
    /// `SERIESED …` — see [`SeriesReply`].
    Series(SeriesReply),
    /// `HEALTHY …` — the SLO verdict, reusing the obs-layer
    /// [`HealthVerdict`] verbatim (burn rates round to two decimals on
    /// the wire).
    Health(HealthVerdict),
    /// `CAPTURED enabled=<0|1> recorded=<n> dropped=<n>` — capture
    /// recorder state after a `CAPTURE` verb (counts since boot).
    Captured {
        enabled: bool,
        recorded: u64,
        dropped: u64,
    },
    /// `UPDATED epoch=<serving epoch> pending=<staged ops>`.
    Updated {
        epoch: u64,
        pending: u64,
    },
    /// `RELOADED …` — see [`ReloadReply`].
    Reloaded(ReloadReply),
    /// `PREPARED …` — a reload staged but not yet swapped; `epoch` is the
    /// epoch still being served, the remaining fields describe the staged
    /// snapshot exactly as `RELOADED` would.
    Prepared(ReloadReply),
    /// `EPOCH <e>`.
    Epoch(u64),
    /// `SYNCED …` — the hex-armored catch-up history ([`SyncBundle`]).
    Synced(SyncBundle),
    /// `DISCARDED epoch=<e> dropped=<n>` — staged ops dropped, epoch
    /// unchanged.
    Discarded {
        epoch: u64,
        dropped: u64,
    },
    Bye,
    Busy,
    Err {
        code: ErrorCode,
        message: String,
    },
}

/// A reply field's value: how it prints after `key=` and how it reads
/// back (`None`: the token is not a value of this type). A list of values
/// prints them joined by `SEP`, or `-` when it is empty.
trait Value: Sized {
    const SEP: char = ',';
    fn put(&self, line: &mut String);
    fn take(token: &str) -> Option<Self>;
}

macro_rules! display_values {
    ($($t:ty $(; $sep:literal)?),*) => {$(
        impl Value for $t {
            $(const SEP: char = $sep;)?
            fn put(&self, line: &mut String) {
                let _ = write!(line, "{self}");
            }
            fn take(token: &str) -> Option<Self> {
                token.parse().ok()
            }
        }
    )*};
}

// `String` lists are `SERIESED` points.
display_values!(u32, u64, usize, f64, String; ';');

/// The names of the wire's enums.
macro_rules! named_values {
    ($($t:ty: $name:ident),*) => {$(
        impl Value for $t {
            fn put(&self, line: &mut String) {
                line.push_str(self.$name());
            }
            fn take(token: &str) -> Option<Self> {
                <$t>::parse(token)
            }
        }
    )*};
}

named_values!(
    EngineBackend: cli_name,
    RejectReason: as_str,
    SeriesRes: name,
    SeriesKind: name,
    SloStatus: name
);

/// A flag: `0` or `1`.
impl Value for bool {
    fn put(&self, line: &mut String) {
        line.push(if *self { '1' } else { '0' });
    }
    fn take(token: &str) -> Option<Self> {
        match token {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
}

/// An optional value: `-` when absent.
impl<T: Value> Value for Option<T> {
    fn put(&self, line: &mut String) {
        match self {
            Some(value) => value.put(line),
            None => line.push('-'),
        }
    }
    fn take(token: &str) -> Option<Self> {
        match token {
            "-" => Some(None),
            token => T::take(token).map(Some),
        }
    }
}

/// A trace id: 16 hex digits.
struct TraceId(u64);

impl Value for TraceId {
    fn put(&self, line: &mut String) {
        line.push_str(&format_trace_id(self.0));
    }
    fn take(token: &str) -> Option<Self> {
        parse_trace_id(token).ok().map(TraceId)
    }
}

impl<T: Value> Value for Vec<T> {
    fn put(&self, line: &mut String) {
        let Some((first, rest)) = self.split_first() else { return line.push('-') };
        first.put(line);
        for item in rest {
            line.push(T::SEP);
            item.put(line);
        }
    }
    fn take(token: &str) -> Option<Self> {
        match token {
            "-" => Some(Vec::new()),
            token => token.split(T::SEP).map(T::take).collect(),
        }
    }
}

impl Value for Vec<Span> {
    fn put(&self, line: &mut String) {
        line.push_str(&spans_to_wire(self));
    }
    fn take(token: &str) -> Option<Self> {
        spans_from_wire(token).ok()
    }
}

/// An SLO burn rate: two decimals on the wire.
struct Burn(f64);

impl Value for Burn {
    fn put(&self, line: &mut String) {
        let _ = write!(line, "{:.2}", self.0);
    }
    fn take(token: &str) -> Option<Self> {
        token.parse().ok().map(Burn)
    }
}

/// One part of an `entry!`, through its own `Value` or through `as Codec`.
macro_rules! part {
    (put $line:ident, $field:ident) => {
        $field.put($line)
    };
    (put $line:ident, $field:ident as $via:ident) => {
        $via(*$field).put($line)
    };
    (take $token:expr) => {
        Value::take($token)?
    };
    (take $token:expr, $via:ident) => {
        $via::take($token)?.0
    };
}

/// Declares each list element's `:`-separated parts, once, in wire order
/// (`[sep]` overrides the `,` between elements).
macro_rules! entry {
    ($($ty:ident $([$sep:literal])? { $($field:ident $(as $via:ident)?),* })*) => {$(
        impl Value for $ty {
            $(const SEP: char = $sep;)?
            fn put(&self, line: &mut String) {
                let $ty { $($field),* } = self;
                $(part!(put line, $field $(as $via)?); line.push(':');)*
                line.pop();
            }
            fn take(token: &str) -> Option<Self> {
                let mut parts = token.split(':');
                let entry = $ty { $($field: part!(take parts.next()? $(, $via)?)),* };
                parts.next().is_none().then_some(entry)
            }
        }
    )*};
}

entry! {
    RejectedPlan { backend, predicted_us, reason }
    FlightWireEntry [';'] { trace_id as TraceId, verb, user, k, backend, outcome, us, ts_us }
    SloVerdict [';'] { name, status, window, burn as Burn, field, origin }
}

/// Writes ` key=value`.
fn put<T: Value>(line: &mut String, key: &str, value: &T) {
    line.push(' ');
    line.push_str(key);
    line.push('=');
    value.put(line);
}

/// Reads a keyed reply's fields in declared order; whatever follows the
/// last one is ignored.
struct Reader<'a> {
    verb: &'a str,
    tokens: std::str::SplitAsciiWhitespace<'a>,
}

impl Reader<'_> {
    /// The next token's value, which must be keyed `key=`.
    fn take<T: Value>(&mut self, key: &str) -> Result<T, String> {
        let token = self.tokens.next().and_then(|t| t.strip_prefix(key)?.strip_prefix('='));
        let value = token.ok_or_else(|| format!("missing {key}="))?;
        T::take(value).ok_or_else(|| format!("bad {key} in {} reply", self.verb))
    }
}

/// A reply struct written as its fields, in the order `record!` lists them.
trait Record: Sized {
    fn put_fields(&self, line: &mut String);
    fn take_fields(reader: &mut Reader<'_>) -> Result<Self, String>;
}

/// One field of a `record!`/`replies!` list: `field` travels as `field=`,
/// `field: key` as `key=`, and `field as Codec` through `Codec`'s `Value`.
/// The wire key doubles as the local binding.
macro_rules! field {
    (put $line:ident, $field:ident) => {
        put($line, stringify!($field), $field)
    };
    (put $line:ident, $field:ident : $key:ident) => {
        put($line, stringify!($key), $key)
    };
    (put $line:ident, $field:ident as $via:ident) => {
        put($line, stringify!($field), &$via(*$field))
    };
    (take $reader:ident, $field:ident) => {
        let $field = $reader.take(stringify!($field))?;
    };
    (take $reader:ident, $field:ident : $key:ident) => {
        let $key = $reader.take(stringify!($key))?;
    };
    (take $reader:ident, $field:ident as $via:ident) => {
        let $field = $reader.take::<$via>(stringify!($field))?.0;
    };
}

/// Declares each reply struct's field list, once, in wire order.
macro_rules! record {
    ($($ty:ident { $($field:ident $(: $key:ident)? $(as $via:ident)?),* $(,)? })*) => {$(
        impl Record for $ty {
            fn put_fields(&self, line: &mut String) {
                let $ty { $($field $(: $key)?),* } = self;
                $(field!(put line, $field $(: $key)? $(as $via)?);)*
            }
            fn take_fields(reader: &mut Reader<'_>) -> Result<Self, String> {
                $(field!(take reader, $field $(: $key)? $(as $via)?);)*
                Ok($ty { $($field $(: $key)?),* })
            }
        }
    )*};
}

record! {
    QueryReply { user, k, tags, spread, cached, us }
    ExplainReply {
        user, k, backend, predicted_us, actual_us, us, degraded, tags, spread, rejected
    }
    TraceReply { trace_id as TraceId, user, k, tags, spread, cached, us, spans }
    FlightReply { recorded: n, slow_count: slow, entries, slow: slow_entries }
    HealthVerdict { status, worst, slos }
    ReloadReply { epoch, folded, resampled, reused, full }
}

/// Maps each keyed reply's verb to its [`Response`] variant: a `record!`
/// struct, or fields that live on the variant itself.
macro_rules! replies {
    (
        records { $($verb:literal => $variant:ident($ty:ident),)* }
        variants { $($inline_verb:literal => $inline:ident { $($field:ident),* },)* }
    ) => {
        impl Response {
            /// `to_line` for every keyed reply.
            fn put_record(&self, line: &mut String) {
                match self {
                    $(Response::$variant(record) => {
                        line.push_str($verb);
                        record.put_fields(line);
                    })*
                    $(Response::$inline { $($field),* } => {
                        line.push_str($inline_verb);
                        $(field!(put line, $field);)*
                    })*
                    other => unreachable!("{other:?} is written by hand"),
                }
            }

            /// `parse` for every keyed reply; `None` for any other verb.
            fn take_record(reader: &mut Reader<'_>) -> Result<Option<Response>, String> {
                Ok(Some(match reader.verb {
                    $($verb => Response::$variant($ty::take_fields(reader)?),)*
                    $($inline_verb => {
                        $(field!(take reader, $field);)*
                        Response::$inline { $($field),* }
                    })*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

replies! {
    records {
        "OK" => Ok(QueryReply),
        "EXPLAINED" => Explained(ExplainReply),
        "TRACED" => Traced(TraceReply),
        "FLIGHTED" => Flight(FlightReply),
        "HEALTHY" => Health(HealthVerdict),
        "RELOADED" => Reloaded(ReloadReply),
        "PREPARED" => Prepared(ReloadReply),
    }
    variants {
        "CAPTURED" => Captured { enabled, recorded, dropped },
        "UPDATED" => Updated { epoch, pending },
        "DISCARDED" => Discarded { epoch, dropped },
    }
}

impl Response {
    /// Serializes to a protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(128);
        match self {
            Response::Pong => line.push_str("PONG"),
            Response::Bye => line.push_str("BYE"),
            Response::Busy => line.push_str("BUSY"),
            Response::Err { code, message } => {
                let _ = write!(line, "ERR {} {message}", code.as_str());
            }
            Response::Epoch(epoch) => {
                let _ = write!(line, "EPOCH {epoch}");
            }
            Response::Stats(stats) => {
                line.push_str("STATS");
                for (key, value) in &stats.fields {
                    put(&mut line, key, value);
                }
            }
            Response::Series(r) => {
                line.push_str("SERIESED");
                put(&mut line, "field", &r.field);
                put(&mut line, "res", &r.res);
                put(&mut line, "tick_ms", &r.tick_ms);
                put(&mut line, "window_ticks", &r.window_ticks);
                put(&mut line, "kind", &r.kind);
                put(&mut line, "n", &r.points.len());
                put(&mut line, "points", &r.points);
            }
            Response::Synced(bundle) => {
                line.push_str("SYNCED");
                put(&mut line, "epoch", &bundle.epoch);
                put(&mut line, "base", &bundle.base_epoch);
                put(&mut line, "records", &bundle.records.len());
                put(&mut line, "pending", &bundle.pending.len());
                put(&mut line, "bundle", &bundle.to_hex());
            }
            record => record.put_record(&mut line),
        }
        line
    }

    /// Parses a response line (the client half of the protocol).
    pub fn parse(line: &str) -> Result<Response, String> {
        let line = line.trim_end();
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut reader = Reader { verb, tokens: rest.split_ascii_whitespace() };
        Ok(match verb {
            "PONG" => Response::Pong,
            "BYE" => Response::Bye,
            "BUSY" => Response::Busy,
            "ERR" => {
                let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
                let code =
                    ErrorCode::parse(code).ok_or_else(|| format!("unknown error code {code:?}"))?;
                Response::Err { code, message: message.to_string() }
            }
            "EPOCH" => {
                Response::Epoch(rest.trim().parse().map_err(|_| format!("bad epoch {rest:?}"))?)
            }
            "STATS" => {
                let mut fields = BTreeMap::new();
                for token in rest.split_ascii_whitespace() {
                    let (k, v) = token
                        .split_once('=')
                        .ok_or_else(|| format!("bad stats token {token:?}"))?;
                    fields.insert(k.to_string(), v.to_string());
                }
                Response::Stats(StatsReply { fields })
            }
            "SERIESED" => {
                let field = reader.take("field")?;
                let res = reader.take("res")?;
                let tick_ms = reader.take("tick_ms")?;
                let window_ticks = reader.take("window_ticks")?;
                let kind = reader.take("kind")?;
                // `n=` tells one empty histogram point (`-`) from no points.
                let n: usize = reader.take("n")?;
                let points: String = reader.take("points")?;
                let points: Vec<String> = match (n, points.as_str()) {
                    (0, "-") => Vec::new(),
                    (0, _) => return Err("bad points in SERIESED reply".to_string()),
                    _ => points.split(';').map(str::to_string).collect(),
                };
                if points.len() != n {
                    return Err(format!("SERIESED n={n} disagrees with {} points", points.len()));
                }
                Response::Series(SeriesReply { field, res, tick_ms, window_ticks, kind, points })
            }
            "SYNCED" => {
                // `base=`, `records=` and `pending=` are derived from the
                // bundle; `epoch=` is cross-checked against it.
                let epoch: u64 = reader.take("epoch")?;
                let _: (u64, usize, usize) =
                    (reader.take("base")?, reader.take("records")?, reader.take("pending")?);
                let bundle = SyncBundle::from_hex(&reader.take::<String>("bundle")?)?;
                if bundle.epoch != epoch {
                    return Err(format!(
                        "SYNCED epoch field {epoch} disagrees with bundle epoch {}",
                        bundle.epoch
                    ));
                }
                Response::Synced(bundle)
            }
            other => Response::take_record(&mut reader)?
                .ok_or_else(|| format!("unknown response verb {other:?}"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            (Request::Ping, "PING"),
            (Request::Stats, "STATS"),
            (Request::Reload, "RELOAD"),
            (Request::Prepare, "PREPARE"),
            (Request::Commit, "COMMIT"),
            (Request::Epoch, "EPOCH"),
            (Request::Quit, "QUIT"),
            (Request::Shutdown, "SHUTDOWN"),
            (Request::Query(QueryRequest::new(0, 2)), "QUERY 0 2"),
            (
                Request::Query(QueryRequest {
                    timeout_us: Some(2_000_000),
                    ..QueryRequest::new(41, 3)
                }),
                "QUERY 41 3 2000000",
            ),
            (
                Request::Query(QueryRequest {
                    backend: Some(EngineBackend::Auto),
                    ..QueryRequest::new(7, 2)
                }),
                "QUERY 7 2 auto",
            ),
            (
                Request::Query(QueryRequest {
                    timeout_us: Some(500),
                    backend: Some(EngineBackend::IndexEstPlus),
                    ..QueryRequest::new(7, 2)
                }),
                "QUERY 7 2 500 indexest+",
            ),
            (Request::Explain(QueryRequest::new(0, 2)), "EXPLAIN 0 2"),
            (
                Request::Explain(QueryRequest {
                    timeout_us: Some(1_000),
                    backend: Some(EngineBackend::Auto),
                    ..QueryRequest::new(3, 1)
                }),
                "EXPLAIN 3 1 1000 auto",
            ),
            (
                Request::Update(UpdateOp::AddEdge { src: 1, dst: 4, topics: vec![(0, 0.25)] }),
                "UPDATE ADD_EDGE 1 4 0:0.25",
            ),
            (Request::Update(UpdateOp::DetachTag { tag: 2 }), "UPDATE DETACH_TAG 2"),
            (Request::Update(UpdateOp::AddUser), "UPDATE ADD_USER"),
            (Request::Sync { from_epoch: 3 }, "SYNC 3"),
            (Request::Discard, "DISCARD"),
            (Request::Metrics, "METRICS"),
            (Request::Flight, "FLIGHT"),
            (Request::Series { field: "lat_hist".into(), res: None }, "SERIES lat_hist"),
            (
                Request::Series { field: "requests".into(), res: Some(SeriesRes::Fast) },
                "SERIES requests fast",
            ),
            (
                Request::Series { field: "lat_p99_us".into(), res: Some(SeriesRes::Mid) },
                "SERIES lat_p99_us mid",
            ),
            (Request::Health, "HEALTH"),
            (Request::Capture(CaptureAction::On), "CAPTURE on"),
            (Request::Capture(CaptureAction::Off), "CAPTURE off"),
            (Request::Capture(CaptureAction::Rotate), "CAPTURE rotate"),
            (
                Request::Trace(TraceRequest { query: QueryRequest::new(0, 2), trace_id: None }),
                "TRACE 0 2",
            ),
            (
                Request::Trace(TraceRequest {
                    query: QueryRequest {
                        timeout_us: Some(500),
                        backend: Some(EngineBackend::Lazy),
                        ..QueryRequest::new(7, 3)
                    },
                    trace_id: Some(0xdeadbeef12345678),
                }),
                "TRACE 7 3 500 lazy id=deadbeef12345678",
            ),
            (
                Request::Trace(TraceRequest {
                    query: QueryRequest::new(1, 1),
                    trace_id: Some(u64::MAX),
                }),
                "TRACE 1 1 id=ffffffffffffffff",
            ),
        ];
        for (request, line) in cases {
            assert_eq!(request.to_line(), line);
            assert_eq!(Request::parse(&request.to_line()), Ok(request));
        }
    }

    #[test]
    fn every_verb_has_one_row() {
        for (i, spec) in VERBS.iter().enumerate() {
            assert!(std::ptr::eq(spec.shape.spec(), spec), "{} shadowed", spec.name);
            assert!(VERBS[..i].iter().all(|earlier| earlier.name != spec.name), "{}", spec.name);
        }
        let admin: Vec<&str> = VERBS.iter().filter(|s| s.admin).map(|s| s.name).collect();
        assert_eq!(
            admin,
            [
                "FLIGHT", "CAPTURE", "UPDATE", "RELOAD", "PREPARE", "COMMIT", "EPOCH", "SYNC",
                "DISCARD"
            ]
        );
    }

    #[test]
    fn query_backend_operand_parses_with_and_without_timeout() {
        let Ok(Request::Query(q)) = Request::parse("QUERY 0 2 auto") else { panic!() };
        assert_eq!((q.timeout_us, q.backend), (None, Some(EngineBackend::Auto)));
        let Ok(Request::Query(q)) = Request::parse("QUERY 0 2 750 lazy") else { panic!() };
        assert_eq!((q.timeout_us, q.backend), (Some(750), Some(EngineBackend::Lazy)));
    }

    #[test]
    fn unknown_backend_error_lists_every_valid_method() {
        let err = Request::parse("QUERY 0 2 frob").expect_err("unknown backend must not parse");
        assert!(err.contains("unknown backend"), "{err}");
        for backend in EngineBackend::ALL {
            assert!(err.contains(backend.cli_name()), "{err} misses {}", backend.cli_name());
        }
        assert!(err.contains("auto"), "{err}");
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("", "empty"),
            ("FROB 1 2", "unknown verb"),
            ("QUERY", "needs"),
            ("QUERY 1", "needs"),
            ("QUERY x 2", "bad user"),
            ("QUERY 1 -3", "bad k"),
            ("QUERY 1 2 fast", "unknown backend"),
            ("QUERY 1 2 lt", "unknown backend"),
            ("QUERY 1 2 3 4", "unknown backend"),
            ("QUERY 1 2 3 lazy extra", "trailing"),
            ("EXPLAIN", "needs"),
            ("EXPLAIN 1 2 frob", "unknown backend"),
            ("PING PONG", "trailing"),
            ("UPDATE", "needs an operation"),
            ("UPDATE FROB 1", "unknown update op"),
            ("UPDATE ADD_EDGE 1", "needs"),
            ("RELOAD NOW", "trailing"),
            ("PREPARE 2", "trailing"),
            ("COMMIT fast", "trailing"),
            ("EPOCH 3", "trailing"),
            ("SYNC", "needs <from_epoch>"),
            ("SYNC x", "bad from_epoch"),
            ("SYNC 1 2", "trailing"),
            ("DISCARD all", "trailing"),
            ("TRACE", "needs"),
            ("TRACE 1", "needs"),
            ("TRACE 1 2 frob", "unknown backend"),
            ("TRACE 1 2 id=zz", "bad trace id"),
            ("TRACE 1 2 id=", "bad trace id"),
            ("TRACE 1 2 id=ff extra", "unknown backend"),
            ("METRICS now", "trailing"),
            ("FLIGHT all", "trailing"),
            ("SERIES", "needs <field>"),
            ("SERIES lat_hist hourly", "bad series resolution"),
            ("SERIES lat_hist slow", "bad series resolution"),
            ("SERIES lat_hist fast extra", "trailing"),
            ("HEALTH check", "trailing"),
            ("CAPTURE", "needs <on|off|rotate>"),
            ("CAPTURE maybe", "bad capture action"),
            ("CAPTURE on off", "trailing"),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line:?} -> {err:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            (Response::Pong, "PONG"),
            (Response::Bye, "BYE"),
            (Response::Busy, "BUSY"),
            (
                Response::Err { code: ErrorCode::Deadline, message: "deadline exceeded".into() },
                "ERR DEADLINE deadline exceeded",
            ),
            (
                Response::Ok(QueryReply {
                    user: 0,
                    k: 2,
                    tags: vec![2, 3],
                    spread: 2.0575,
                    cached: true,
                    us: 1234,
                }),
                "OK user=0 k=2 tags=2,3 spread=2.0575 cached=1 us=1234",
            ),
            (
                Response::Ok(QueryReply {
                    user: 5,
                    k: 1,
                    tags: vec![],
                    spread: 1.0,
                    cached: false,
                    us: 7,
                }),
                "OK user=5 k=1 tags=- spread=1 cached=0 us=7",
            ),
            (
                Response::Explained(ExplainReply {
                    user: 0,
                    k: 2,
                    backend: EngineBackend::Exact,
                    predicted_us: 4,
                    actual_us: 21,
                    us: 90,
                    degraded: false,
                    tags: vec![2, 3],
                    spread: 2.0575,
                    rejected: vec![
                        RejectedPlan {
                            backend: EngineBackend::Lazy,
                            predicted_us: Some(55),
                            reason: RejectReason::Costlier,
                        },
                        RejectedPlan {
                            backend: EngineBackend::IndexEstPlus,
                            predicted_us: None,
                            reason: RejectReason::MissingArtifact,
                        },
                    ],
                }),
                "EXPLAINED user=0 k=2 backend=exact predicted_us=4 actual_us=21 us=90 degraded=0 \
                 tags=2,3 spread=2.0575 rejected=lazy:55:costlier,indexest+:-:missing-index",
            ),
            (
                Response::Explained(ExplainReply {
                    user: 3,
                    k: 1,
                    backend: EngineBackend::Tim,
                    predicted_us: 12,
                    actual_us: 9,
                    us: 30,
                    degraded: true,
                    tags: vec![],
                    spread: 1.0,
                    rejected: vec![RejectedPlan {
                        backend: EngineBackend::Lazy,
                        predicted_us: Some(900_000),
                        reason: RejectReason::OverBudget,
                    }],
                }),
                "EXPLAINED user=3 k=1 backend=tim predicted_us=12 actual_us=9 us=30 degraded=1 \
                 tags=- spread=1 rejected=lazy:900000:over-budget",
            ),
            (
                Response::Stats(StatsReply::new([
                    ("requests".to_string(), "64".to_string()),
                    ("cache_hits".to_string(), "12".to_string()),
                ])),
                "STATS cache_hits=12 requests=64",
            ),
            (Response::Updated { epoch: 3, pending: 2 }, "UPDATED epoch=3 pending=2"),
            (
                Response::Reloaded(ReloadReply {
                    epoch: 4,
                    folded: 2,
                    resampled: 120,
                    reused: 440,
                    full: false,
                }),
                "RELOADED epoch=4 folded=2 resampled=120 reused=440 full=0",
            ),
            (
                Response::Reloaded(ReloadReply {
                    epoch: 9,
                    folded: 1,
                    resampled: 560,
                    reused: 0,
                    full: true,
                }),
                "RELOADED epoch=9 folded=1 resampled=560 reused=0 full=1",
            ),
            (
                Response::Prepared(ReloadReply {
                    epoch: 3,
                    folded: 2,
                    resampled: 40,
                    reused: 360,
                    full: false,
                }),
                "PREPARED epoch=3 folded=2 resampled=40 reused=360 full=0",
            ),
            (Response::Epoch(7), "EPOCH 7"),
            (
                Response::Synced(SyncBundle {
                    base_epoch: 1,
                    epoch: 3,
                    records: vec![
                        pitex_live::CommittedBatch { epoch: 2, ops: vec![UpdateOp::AddUser] },
                        pitex_live::CommittedBatch { epoch: 3, ops: vec![] },
                    ],
                    pending: vec![UpdateOp::DetachTag { tag: 1 }],
                }),
                "SYNCED epoch=3 base=1 records=2 pending=1 bundle=5053594e010000000100000000000000\
                 030000000000000002000000000000000200000000000000110000000000000050\
                 4c4f470100000001000000000000000503000000000000001000000000000000504c4f\
                 470100000000000000000000001500000000000000504c4f4701000000010000000000\
                 00000401000000",
            ),
            (
                Response::Synced(SyncBundle {
                    base_epoch: 5,
                    epoch: 5,
                    records: vec![],
                    pending: vec![],
                }),
                "SYNCED epoch=5 base=5 records=0 pending=0 bundle=5053594e01000000050000000000\
                 0000050000000000000000000000000000001000000000000000504c4f470100000000\
                 00000000000000",
            ),
            (Response::Discarded { epoch: 4, dropped: 3 }, "DISCARDED epoch=4 dropped=3"),
            (
                Response::Traced(TraceReply {
                    trace_id: 0xabc123,
                    user: 0,
                    k: 2,
                    tags: vec![2, 3],
                    spread: 2.0575,
                    cached: false,
                    us: 1234,
                    spans: vec![
                        Span { name: "plan".into(), start_us: 0, dur_us: 10 },
                        Span { name: "queue".into(), start_us: 10, dur_us: 40 },
                        Span { name: "shard.execute".into(), start_us: 50, dur_us: 1100 },
                    ],
                }),
                "TRACED trace_id=0000000000abc123 user=0 k=2 tags=2,3 spread=2.0575 cached=0 \
                 us=1234 spans=plan:0:10,queue:10:40,shard.execute:50:1100",
            ),
            (
                Response::Traced(TraceReply {
                    trace_id: u64::MAX,
                    user: 5,
                    k: 1,
                    tags: vec![],
                    spread: 1.0,
                    cached: true,
                    us: 9,
                    spans: vec![],
                }),
                "TRACED trace_id=ffffffffffffffff user=5 k=1 tags=- spread=1 cached=1 us=9 spans=-",
            ),
            (
                Response::Flight(FlightReply {
                    recorded: 1000,
                    slow_count: 2,
                    entries: vec![
                        FlightWireEntry {
                            trace_id: 7,
                            verb: "QUERY".into(),
                            user: 3,
                            k: 2,
                            backend: "lazy".into(),
                            outcome: "ok".into(),
                            us: 812,
                            ts_us: 1_722_000_000_000_000,
                        },
                        FlightWireEntry {
                            trace_id: 8,
                            verb: "TRACE".into(),
                            user: 4,
                            k: 1,
                            backend: "auto".into(),
                            outcome: "busy".into(),
                            us: 3,
                            ts_us: 1_722_000_000_000_812,
                        },
                    ],
                    slow: vec![FlightWireEntry {
                        trace_id: 9,
                        verb: "QUERY".into(),
                        user: 1,
                        k: 5,
                        backend: "exact".into(),
                        outcome: "ok".into(),
                        us: 95_000,
                        ts_us: 0,
                    }],
                }),
                "FLIGHTED n=1000 slow=2 entries=0000000000000007:QUERY:3:2:lazy:ok:812:\
                 1722000000000000;0000000000000008:TRACE:4:1:auto:busy:3:1722000000000812 \
                 slow_entries=0000000000000009:QUERY:1:5:exact:ok:95000:0",
            ),
            (
                Response::Flight(FlightReply::default()),
                "FLIGHTED n=0 slow=0 entries=- slow_entries=-",
            ),
            (
                Response::Series(SeriesReply {
                    field: "requests".into(),
                    res: SeriesRes::Fast,
                    tick_ms: 1000,
                    window_ticks: 1,
                    kind: SeriesKind::Counter,
                    points: vec!["0".into(), "12".into(), "9".into()],
                }),
                "SERIESED field=requests res=fast tick_ms=1000 window_ticks=1 kind=counter n=3 \
                 points=0;12;9",
            ),
            (
                Response::Series(SeriesReply {
                    field: "lat_hist".into(),
                    res: SeriesRes::Mid,
                    tick_ms: 1000,
                    window_ticks: 10,
                    // One empty histogram window (`-`) followed by a populated
                    // one — the case `n=` exists to disambiguate.
                    kind: SeriesKind::Hist,
                    points: vec!["-".into(), "3:4,10:2".into()],
                }),
                "SERIESED field=lat_hist res=mid tick_ms=1000 window_ticks=10 kind=hist n=2 \
                 points=-;3:4,10:2",
            ),
            (
                Response::Series(SeriesReply {
                    field: "lat_p99_us".into(),
                    res: SeriesRes::Mid,
                    tick_ms: 250,
                    window_ticks: 10,
                    kind: SeriesKind::Gauge,
                    points: vec![],
                }),
                "SERIESED field=lat_p99_us res=mid tick_ms=250 window_ticks=10 kind=gauge n=0 \
                 points=-",
            ),
            (
                Response::Health(HealthVerdict {
                    status: SloStatus::Ok,
                    worst: "-".into(),
                    slos: vec![SloVerdict {
                        name: "availability".into(),
                        status: SloStatus::Ok,
                        window: "-".into(),
                        burn: 0.25,
                        field: "errors".into(),
                        origin: "self".into(),
                    }],
                }),
                "HEALTHY status=ok worst=- slos=availability:ok:-:0.25:errors:self",
            ),
            (
                Response::Health(HealthVerdict {
                    status: SloStatus::Page,
                    worst: "shard1".into(),
                    slos: vec![
                        SloVerdict {
                            name: "latency".into(),
                            status: SloStatus::Page,
                            window: "fast".into(),
                            burn: 42.5,
                            field: "lat_hist".into(),
                            origin: "shard1".into(),
                        },
                        SloVerdict {
                            name: "availability".into(),
                            status: SloStatus::Warn,
                            window: "slow".into(),
                            burn: 1.75,
                            field: "router_errors".into(),
                            origin: "router".into(),
                        },
                    ],
                }),
                "HEALTHY status=page worst=shard1 slos=latency:page:fast:42.50:lat_hist:shard1;\
                 availability:warn:slow:1.75:router_errors:router",
            ),
            (
                Response::Health(HealthVerdict {
                    status: SloStatus::Ok,
                    worst: "-".into(),
                    slos: vec![],
                }),
                "HEALTHY status=ok worst=- slos=-",
            ),
            (
                Response::Captured { enabled: true, recorded: 512, dropped: 0 },
                "CAPTURED enabled=1 recorded=512 dropped=0",
            ),
            (
                Response::Captured { enabled: false, recorded: 0, dropped: 3 },
                "CAPTURED enabled=0 recorded=0 dropped=3",
            ),
        ];
        for (response, expected) in cases {
            assert_eq!(response.to_line(), expected);
            let line = response.to_line();
            assert_eq!(Response::parse(&line), Ok(response), "{line}");
        }
    }

    #[test]
    fn malformed_replies_follow_the_reading_rules() {
        let synced = |epoch: u64| {
            let bundle = SyncBundle { base_epoch: 5, epoch: 5, records: vec![], pending: vec![] };
            format!("SYNCED epoch={epoch} base=5 records=0 pending=0 bundle={}", bundle.to_hex())
        };
        for (line, needle) in [
            ("OK user=0 k=2 tags=2,3 spread=1 cached=1".to_string(), "missing us="),
            ("OK user=0 k=2 tags=2,3 spread=1 hit=1 us=7".into(), "missing cached="),
            ("OK user=0 k=2 tags=- spread=1 cached=2 us=7".into(), "bad cached in OK reply"),
            ("OK user=0 k=2 tags=2,x spread=1 cached=1 us=7".into(), "bad tags in OK reply"),
            (
                "SERIESED field=f res=fast tick_ms=1000 window_ticks=1 kind=counter n=2 points=-"
                    .into(),
                "SERIESED n=2 disagrees with 1 points",
            ),
            (synced(4), "SYNCED epoch field 4 disagrees with bundle epoch 5"),
            ("FROB x=1".into(), "unknown response verb"),
        ] {
            let err = Response::parse(&line).expect_err(&line);
            assert!(err.contains(needle), "{line:?} -> {err:?}");
        }
        // Tokens past the last declared field are ignored.
        assert_eq!(
            Response::parse("OK user=0 k=2 tags=2,3 spread=2.0575 cached=1 us=1234 extra=1 more"),
            Ok(Response::Ok(QueryReply {
                user: 0,
                k: 2,
                tags: vec![2, 3],
                spread: 2.0575,
                cached: true,
                us: 1234,
            }))
        );
        assert!(Response::parse(&synced(5)).is_ok());
    }

    #[test]
    fn error_codes_cover_the_wire_names() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownUser,
            ErrorCode::BadK,
            ErrorCode::Deadline,
            ErrorCode::Internal,
            ErrorCode::BadUpdate,
            ErrorCode::AdminDenied,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("NOPE"), None);
    }

    #[test]
    fn stats_reply_typed_getters() {
        let line = "STATS qps=123.5 requests=64 cache_hit_rate=0.75";
        let Response::Stats(stats) = Response::parse(line).unwrap() else {
            panic!("not a stats reply")
        };
        assert_eq!(stats.get_u64("requests"), Some(64));
        assert_eq!(stats.get_f64("qps"), Some(123.5));
        assert_eq!(stats.get_f64("cache_hit_rate"), Some(0.75));
        assert_eq!(stats.get("missing"), None);
    }

    #[test]
    fn err_with_empty_message_parses() {
        assert_eq!(
            Response::parse("ERR INTERNAL"),
            Ok(Response::Err { code: ErrorCode::Internal, message: String::new() })
        );
    }
}
