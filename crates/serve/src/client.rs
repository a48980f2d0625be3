//! Client-side protocol driver and a closed-loop load generator.
//!
//! [`ServeClient`] is a thin synchronous wrapper over one TCP connection:
//! one request line out, one response line in. [`LoadGen`] spins up `N`
//! such clients, each issuing its next request the moment the previous
//! response lands (closed loop), and reports aggregate throughput — the
//! measurement the `bench_serve` target and `pitex client --bench` print.

use crate::frame::{self, FrameBuf, WireReply, MAX_REPLY_FRAME_BYTES};
use crate::protocol::{
    CaptureAction, ExplainReply, FlightReply, QueryRequest, ReloadReply, Request, Response,
    SeriesReply, StatsReply, TraceReply, TraceRequest,
};
use pitex_core::EngineBackend;
use pitex_live::{SyncBundle, UpdateOp};
use pitex_support::obs::slo::HealthVerdict;
use pitex_support::obs::timeseries::SeriesRes;
use pitex_support::stats::{LatencyHistogram, OnlineStats};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The reply picker [`ServeClient::call`] takes: the payload of the one
/// variant a verb expects, or the reply it did not.
macro_rules! pick {
    ($variant:pat => $payload:expr) => {
        |reply| match reply {
            $variant => Ok($payload),
            other => Err(other),
        }
    };
}

/// A blocking client for the `pitex serve` protocol — the human-readable
/// text lines by default, or the pipelined `PFRM` binary framing
/// ([`connect_binary`](Self::connect_binary)); the server auto-detects
/// which one a connection speaks from its first bytes, so both dial the
/// same port.
///
/// The client remembers its resolved address and transparently reconnects
/// **once** per request when an *idempotent* verb (see
/// [`request`](Self::request)) hits a connection-level I/O error — a
/// restarted server (or a router replica swap) costs one retried
/// round-trip instead of killing the session. Non-idempotent verbs
/// (`UPDATE`, `RELOAD`, `SHUTDOWN`, …) are never retried: the first attempt
/// may have been applied before the connection died, and replaying it could
/// double-apply.
pub struct ServeClient {
    addr: std::net::SocketAddr,
    /// The dial timeout, reused by [`reconnect`](Self::reconnect).
    timeout: Option<Duration>,
    binary: bool,
    /// Next binary request id; replies are matched by id, so a stale reply
    /// left over from an abandoned request can never be mistaken for the
    /// current one.
    next_id: u64,
    frames: FrameBuf,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connects to a running server. A hostname that resolves to several
    /// addresses is tried in order (as `TcpStream::connect` does); the
    /// first address that answers is pinned for
    /// [`reconnect`](Self::reconnect).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::dial(addr, None, false)
    }

    /// Connects speaking the length-prefixed binary frame protocol —
    /// cheaper to encode/decode than text and the only mode that supports
    /// [`pipeline`](Self::pipeline)d requests.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::dial(addr, None, true)
    }

    /// Connects with an explicit timeout on the TCP dial — what a router's
    /// health-gated connection pool wants (a down replica must fail fast,
    /// not hang the probing request).
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Self> {
        Self::dial(addr, Some(timeout), false)
    }

    /// Connects with both knobs explicit: an optional dial timeout and the
    /// wire mode (`binary: true` for `PFRM` frames).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
        binary: bool,
    ) -> std::io::Result<Self> {
        Self::dial(addr, timeout, binary)
    }

    fn dial(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
        binary: bool,
    ) -> std::io::Result<Self> {
        let mut last_err = None;
        for addr in addr.to_socket_addrs()? {
            match Self::open(addr, timeout) {
                Ok((writer, reader)) => {
                    return Ok(Self {
                        addr,
                        timeout,
                        binary,
                        next_id: 1,
                        frames: FrameBuf::new(MAX_REPLY_FRAME_BYTES),
                        writer,
                        reader,
                    })
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address")))
    }

    fn open(
        addr: std::net::SocketAddr,
        timeout: Option<Duration>,
    ) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
        let writer = match timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        writer.set_nodelay(true).ok(); // request/response; don't batch
        let reader = BufReader::new(writer.try_clone()?);
        Ok((writer, reader))
    }

    /// The server address this client is (re)connecting to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether this client speaks the binary frame protocol.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Drops the current connection and dials the same address again (the
    /// wire mode and the dial timeout are kept; any half-received frame is
    /// discarded).
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let (writer, reader) = Self::open(self.addr, self.timeout)?;
        self.writer = writer;
        self.reader = reader;
        self.frames = FrameBuf::new(MAX_REPLY_FRAME_BYTES);
        Ok(())
    }

    /// Sends one raw line and reads one reply line (the protocol is strictly
    /// one response per request).
    pub fn roundtrip_line(&mut self, line: &str) -> std::io::Result<String> {
        // One write per request (see the server-side note on Nagle).
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(closed("server closed the connection"));
        }
        Ok(reply)
    }

    /// Sends one binary frame and reads reply frames until the one with a
    /// matching id arrives (stale replies from abandoned requests are
    /// skipped by id).
    fn roundtrip_frame(&mut self, id: u64, request: &Request) -> std::io::Result<WireReply> {
        self.writer.write_all(&frame::encode_request(id, request))?;
        self.read_reply(id)
    }

    fn read_reply(&mut self, id: u64) -> std::io::Result<WireReply> {
        loop {
            let (got, reply) = self.read_any_reply()?;
            if got == id {
                return Ok(reply);
            }
        }
    }

    /// Sends a typed request and parses the reply — over whichever wire
    /// mode the client was dialed with. An idempotent verb
    /// ([`VerbSpec::idempotent`](crate::protocol::VerbSpec::idempotent))
    /// survives one connection loss: the client reconnects and retries
    /// exactly once (see the type docs).
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        let idempotent = request.spec().idempotent;
        if self.binary {
            let id = self.next_id;
            self.next_id += 1;
            let reply = match self.roundtrip_frame(id, request) {
                Err(e) if idempotent && connection_lost(&e) => {
                    self.reconnect()?;
                    self.roundtrip_frame(id, request)?
                }
                other => other?,
            };
            return match reply {
                WireReply::Response(response) => Ok(response),
                WireReply::Raw(_) => Err(invalid("unexpected raw reply to a typed request")),
            };
        }
        let line = request.to_line();
        let reply = match self.roundtrip_line(&line) {
            Err(e) if idempotent && connection_lost(&e) => {
                self.reconnect()?;
                self.roundtrip_line(&line)?
            }
            other => other?,
        };
        Response::parse(&reply).map_err(invalid)
    }

    /// Issues a batch of requests **pipelined**: every request is written
    /// before any reply is read, so the batch costs one round-trip of
    /// queueing instead of `n`. Replies are matched back to requests by id
    /// (binary) or arrival order (text, whose replies are ordered) and
    /// returned in request order. Not retried on connection loss — part of
    /// the batch may already have been applied.
    pub fn pipeline(&mut self, requests: &[Request]) -> std::io::Result<Vec<Response>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        if self.binary {
            let first_id = self.next_id;
            self.next_id += requests.len() as u64;
            let mut batch = Vec::new();
            for (i, request) in requests.iter().enumerate() {
                batch.extend_from_slice(&frame::encode_request(first_id + i as u64, request));
            }
            self.writer.write_all(&batch)?;
            let mut replies: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
            let mut pending = requests.len();
            while pending > 0 {
                let reply = self.read_any_reply()?;
                let (id, wire) = reply;
                let Some(slot) =
                    id.checked_sub(first_id).and_then(|off| replies.get_mut(off as usize))
                else {
                    continue; // stale id from an earlier abandoned request
                };
                if slot.is_some() {
                    return Err(invalid(format!("duplicate reply for pipelined id {id}")));
                }
                let WireReply::Response(response) = wire else {
                    return Err(invalid("unexpected raw reply in a pipelined batch"));
                };
                *slot = Some(response);
                pending -= 1;
            }
            return Ok(replies.into_iter().map(|r| r.expect("pending hit zero")).collect());
        }
        let mut batch = String::new();
        for request in requests {
            batch.push_str(&request.to_line());
            batch.push('\n');
        }
        self.writer.write_all(batch.as_bytes())?;
        let mut replies = Vec::with_capacity(requests.len());
        for _ in requests {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(closed("server closed mid-batch"));
            }
            replies.push(Response::parse(&line).map_err(invalid)?);
        }
        Ok(replies)
    }

    /// Reads the next complete reply frame, whatever its id.
    fn read_any_reply(&mut self) -> std::io::Result<(u64, WireReply)> {
        use std::io::Read;
        loop {
            if let Some(payload) = self.frames.next_payload().map_err(frame_io)? {
                return frame::decode_response(&payload).map_err(frame_io);
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.reader.read(&mut chunk)?;
            if n == 0 {
                return Err(closed("server closed the connection"));
            }
            self.frames.extend(&chunk[..n]);
        }
    }

    /// `QUERY user k` with the server's default deadline and backend.
    pub fn query(&mut self, user: u32, k: usize) -> std::io::Result<Response> {
        self.request(&Request::Query(QueryRequest::new(user, k)))
    }

    /// `QUERY user k timeout_us`.
    pub fn query_with_timeout(
        &mut self,
        user: u32,
        k: usize,
        timeout_us: u64,
    ) -> std::io::Result<Response> {
        self.request(&Request::Query(QueryRequest {
            timeout_us: Some(timeout_us),
            ..QueryRequest::new(user, k)
        }))
    }

    /// `QUERY user k [timeout_us] backend` — per-request backend override
    /// (`EngineBackend::Auto` asks the server's planner).
    pub fn query_with_backend(
        &mut self,
        user: u32,
        k: usize,
        timeout_us: Option<u64>,
        backend: EngineBackend,
    ) -> std::io::Result<Response> {
        self.request(&Request::Query(QueryRequest {
            timeout_us,
            backend: Some(backend),
            ..QueryRequest::new(user, k)
        }))
    }

    /// `EXPLAIN user k [timeout_us] [backend]`, decoded: the query answer
    /// plus the planner's decision (chosen backend, predicted vs. actual
    /// cost, rejected alternatives). A protocol-level `ERR` surfaces as an
    /// I/O error.
    pub fn explain(
        &mut self,
        user: u32,
        k: usize,
        timeout_us: Option<u64>,
        backend: Option<EngineBackend>,
    ) -> std::io::Result<ExplainReply> {
        let request =
            Request::Explain(QueryRequest { timeout_us, backend, ..QueryRequest::new(user, k) });
        self.call(&request, pick!(Response::Explained(reply) => reply))
    }

    /// `TRACE user k [timeout_us] [backend] [id=…]`, decoded: the query
    /// answer plus the span timeline. Pass `trace_id` to adopt an id
    /// minted upstream (the router does this on the shard hop); `None`
    /// lets the server mint one.
    pub fn trace(
        &mut self,
        user: u32,
        k: usize,
        timeout_us: Option<u64>,
        backend: Option<EngineBackend>,
        trace_id: Option<u64>,
    ) -> std::io::Result<TraceReply> {
        let request = Request::Trace(TraceRequest {
            query: QueryRequest { timeout_us, backend, ..QueryRequest::new(user, k) },
            trace_id,
        });
        self.call(&request, pick!(Response::Traced(reply) => reply))
    }

    /// `METRICS`: the Prometheus text exposition. The reply is the one
    /// multi-line response in the protocol; it is read through to its
    /// `# EOF` terminator (and includes it). A first line that is a
    /// one-line reply (`ERR …`, `BUSY`) ends the read as an error.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        if self.binary {
            let id = self.next_id;
            self.next_id += 1;
            return match self.roundtrip_frame(id, &Request::Metrics)? {
                WireReply::Raw(text) => Ok(text),
                WireReply::Response(other) => {
                    Err(invalid(format!("expected raw exposition reply, got {other:?}")))
                }
            };
        }
        self.writer.write_all(b"METRICS\n")?;
        let mut text = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(closed("connection closed before # EOF"));
            }
            if text.is_empty() {
                if let Ok(other) = Response::parse(line.trim_end()) {
                    return Err(invalid(format!("expected raw exposition reply, got {other:?}")));
                }
            }
            let done = line.trim() == "# EOF";
            text.push_str(&line);
            if done {
                return Ok(text);
            }
        }
    }

    /// `FLIGHT` (admin): the flight-recorder dump — recent request
    /// summaries plus the slow-query log.
    pub fn flight(&mut self) -> std::io::Result<FlightReply> {
        self.call(&Request::Flight, pick!(Response::Flight(reply) => reply))
    }

    /// `STATS`, decoded (errors if the server answers anything else).
    pub fn stats(&mut self) -> std::io::Result<StatsReply> {
        self.call(&Request::Stats, pick!(Response::Stats(stats) => stats))
    }

    /// `SERIES <field> [res]`: one rolling-ring dump from the server's
    /// background sampler (default resolution: fast). Read-only, retried
    /// like the other idempotent verbs.
    pub fn series(&mut self, field: &str, res: Option<SeriesRes>) -> std::io::Result<SeriesReply> {
        self.call(
            &Request::Series { field: field.to_string(), res },
            pick!(Response::Series(reply) => reply),
        )
    }

    /// `HEALTH`: the SLO burn-rate verdict with its evidence. Read-only,
    /// retried like the other idempotent verbs.
    pub fn health(&mut self) -> std::io::Result<HealthVerdict> {
        self.call(&Request::Health, pick!(Response::Health(verdict) => verdict))
    }

    /// `PING` (errors unless the server answers `PONG`).
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.call(&Request::Ping, pick!(Response::Pong => ()))
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        self.request(&Request::Shutdown).map(|_| ())
    }

    /// `UPDATE <op>` (admin): stages one mutation; returns the serving
    /// epoch and the number of ops now pending. A server-side rejection
    /// (`ERR BAD_UPDATE` / `ERR ADMIN_DENIED`) surfaces as an error.
    pub fn update(&mut self, op: UpdateOp) -> std::io::Result<(u64, u64)> {
        self.call(
            &Request::Update(op),
            pick!(Response::Updated { epoch, pending } => (epoch, pending)),
        )
    }

    /// `RELOAD` (admin): folds pending updates into a fresh snapshot.
    pub fn reload(&mut self) -> std::io::Result<ReloadReply> {
        self.call(&Request::Reload, pick!(Response::Reloaded(reply) => reply))
    }

    /// `PREPARE` (admin): phase 1 of a two-phase reload — fold pending
    /// updates and repair the index into a staged snapshot without
    /// swapping. The reply's `epoch` is the epoch still being served.
    pub fn prepare(&mut self) -> std::io::Result<ReloadReply> {
        self.call(&Request::Prepare, pick!(Response::Prepared(reply) => reply))
    }

    /// `COMMIT` (admin): phase 2 — swap the `PREPARE`d snapshot in (a
    /// no-op reload reply if nothing was staged).
    pub fn commit(&mut self) -> std::io::Result<ReloadReply> {
        self.call(&Request::Commit, pick!(Response::Reloaded(reply) => reply))
    }

    /// `SYNC <from_epoch>` (admin): the committed history suffix past
    /// `from_epoch` plus the donor's staged ops — what a stale replica
    /// replays to catch up. Read-only on the donor, so it is retried like
    /// the other idempotent verbs.
    pub fn sync(&mut self, from_epoch: u64) -> std::io::Result<SyncBundle> {
        self.call(&Request::Sync { from_epoch }, pick!(Response::Synced(bundle) => bundle))
    }

    /// `DISCARD` (admin): drop every staged-but-uncommitted op and any
    /// PREPAREd snapshot; returns `(epoch, dropped)`. Not retried — like
    /// `UPDATE`, replaying it after a connection loss could discard ops
    /// staged in between.
    pub fn discard(&mut self) -> std::io::Result<(u64, u64)> {
        self.call(
            &Request::Discard,
            pick!(Response::Discarded { epoch, dropped } => (epoch, dropped)),
        )
    }

    /// `EPOCH` (admin): the epoch of the snapshot currently being served.
    pub fn epoch(&mut self) -> std::io::Result<u64> {
        self.call(&Request::Epoch, pick!(Response::Epoch(epoch) => epoch))
    }

    /// `CAPTURE on|off|rotate` (admin): controls the server's PWRK workload
    /// recorder; returns `(enabled, recorded, dropped)` after the action.
    /// Not retried on connection loss — `rotate` is not idempotent (a
    /// replay would rotate twice).
    pub fn capture(&mut self, action: CaptureAction) -> std::io::Result<(bool, u64, u64)> {
        let pick = pick!(Response::Captured { enabled, recorded, dropped } => (enabled, recorded, dropped));
        self.call(&Request::Capture(action), pick)
    }

    /// Sends `request` and hands the reply to `pick`, which returns the
    /// payload of the variant it expects or the reply it did not. An
    /// unexpected reply is an error: `PermissionDenied` for an `ERR`,
    /// `InvalidData` otherwise.
    fn call<T>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> std::io::Result<T> {
        pick(self.request(request)?).map_err(|got| {
            let kind = match got {
                Response::Err { .. } => std::io::ErrorKind::PermissionDenied,
                _ => std::io::ErrorKind::InvalidData,
            };
            let verb = request.spec().name;
            std::io::Error::new(kind, format!("unexpected reply to {verb}: {got:?}"))
        })
    }
}

/// Whether an I/O error means the TCP connection itself is gone (worth one
/// reconnect) rather than a protocol- or OS-level problem that a fresh
/// connection would not fix.
fn frame_io(e: crate::frame::FrameError) -> std::io::Error {
    invalid(e.to_string())
}

fn invalid(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

fn closed(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, message)
}

fn connection_lost(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::WriteZero
    )
}

/// A **closed-loop** load generator: `clients` connections, each issuing
/// `requests_per_client` queries back-to-back, the next request only after
/// the previous response lands.
///
/// Closed loops are the right tool for measuring *throughput capacity*,
/// but their latency numbers suffer **coordinated omission**: when the
/// server stalls, the generator stops offering load, so the stall is
/// counted once instead of once per request that *would have* arrived.
/// For tail-latency measurements use the open-loop replay engine
/// ([`crate::workload::Replay`], `pitex replay --rate`), which keeps
/// issuing on schedule and measures from the scheduled arrival time.
#[derive(Clone, Copy, Debug)]
pub struct LoadGen {
    /// Concurrent connections.
    pub clients: usize,
    /// Queries per connection.
    pub requests_per_client: usize,
    /// Query user for every request.
    pub user: u32,
    /// Query `k` for every request.
    pub k: usize,
    /// Optional per-request deadline forwarded to the server.
    pub timeout_us: Option<u64>,
    /// Optional per-request backend override (`auto` drives the planner).
    pub backend: Option<EngineBackend>,
    /// Speak the `PFRM` binary frame protocol instead of text lines.
    pub binary: bool,
    /// Requests pipelined per batch (1 = strict request/response). Depths
    /// above 1 require `binary`; latency is then recorded once per batch
    /// (the client-observed batch round-trip), not per request.
    pub pipeline: usize,
}

impl Default for LoadGen {
    fn default() -> Self {
        Self {
            clients: 4,
            requests_per_client: 16,
            user: 0,
            k: 2,
            timeout_us: None,
            backend: None,
            binary: false,
            pipeline: 1,
        }
    }
}

/// Aggregate outcome of one [`LoadGen::run`].
///
/// Latencies here are **closed-loop** (measured request-send to
/// response-read, with no backlog credit) — see the [`LoadGen`] docs for
/// why that understates tails under stalls.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Requests issued (clients × requests_per_client).
    pub requests: u64,
    /// `OK` replies.
    pub ok: u64,
    /// `OK` replies served from the result cache.
    pub cached: u64,
    /// `BUSY` (load-shed) replies.
    pub busy: u64,
    /// `ERR` replies of any code.
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Client-observed per-request latency in microseconds.
    pub latency_us: OnlineStats,
    /// The same latencies as a log₂ histogram, so percentiles (p50/p99)
    /// can be read — and compared against open-loop replay percentiles.
    pub latency_hist: LatencyHistogram,
}

impl LoadReport {
    fn empty(elapsed: Duration) -> Self {
        Self {
            requests: 0,
            ok: 0,
            cached: 0,
            busy: 0,
            errors: 0,
            elapsed,
            latency_us: OnlineStats::new(),
            latency_hist: LatencyHistogram::new(),
        }
    }

    /// Successful queries per second over the run.
    pub fn qps(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl LoadGen {
    /// Runs the closed loop to completion and aggregates the outcome.
    ///
    /// Every client issues exactly `requests_per_client` requests even when
    /// some are answered `BUSY` — shed requests are part of the workload.
    pub fn run(&self, addr: impl ToSocketAddrs) -> std::io::Result<LoadReport> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let clients = self.clients.max(1);
        let started = Instant::now();
        let mut outcomes: Vec<std::io::Result<LoadReport>> = Vec::with_capacity(clients);
        std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(clients);
            for _ in 0..clients {
                joins.push(scope.spawn(move || self.run_one_client(addr)));
            }
            for join in joins {
                outcomes.push(join.join().expect("load-gen client panicked"));
            }
        });
        let mut report = LoadReport::empty(started.elapsed());
        for outcome in outcomes {
            let one = outcome?;
            report.requests += one.requests;
            report.ok += one.ok;
            report.cached += one.cached;
            report.busy += one.busy;
            report.errors += one.errors;
            report.latency_us.merge(&one.latency_us);
            report.latency_hist.merge(&one.latency_hist);
        }
        Ok(report)
    }

    fn run_one_client(&self, addr: std::net::SocketAddr) -> std::io::Result<LoadReport> {
        let mut client = ServeClient::connect_with(addr, None, self.binary)?;
        let mut report = LoadReport::empty(Duration::ZERO);
        let request = Request::Query(QueryRequest {
            user: self.user,
            k: self.k,
            timeout_us: self.timeout_us,
            backend: self.backend,
        });
        let depth = self.pipeline.max(1);
        if depth > 1 && !self.binary {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "pipeline depth > 1 requires binary mode",
            ));
        }
        let mut remaining = self.requests_per_client;
        while remaining > 0 {
            let batch = depth.min(remaining);
            remaining -= batch;
            let t = Instant::now();
            let responses = if batch == 1 {
                vec![client.request(&request)?]
            } else {
                client.pipeline(&vec![request.clone(); batch])?
            };
            let us = t.elapsed().as_micros() as u64;
            report.latency_us.push(us as f64);
            report.latency_hist.record(us);
            for response in responses {
                report.requests += 1;
                match response {
                    Response::Ok(reply) => {
                        report.ok += 1;
                        if reply.cached {
                            report.cached += 1;
                        }
                    }
                    Response::Busy => report.busy += 1,
                    Response::Err { .. } => report.errors += 1,
                    other => return Err(invalid(format!("unexpected reply to QUERY: {other:?}"))),
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeOptions, Server};
    use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
    use pitex_model::TicModel;
    use std::sync::Arc;

    fn boot() -> crate::server::ServerHandle {
        let handle = EngineHandle::new(
            Arc::new(TicModel::paper_example()),
            EngineBackend::Exact,
            PitexConfig::default(),
        )
        .unwrap();
        Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap()
    }

    #[test]
    fn typed_client_round_trips() {
        let server = boot();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        client.ping().unwrap();
        let Response::Ok(reply) = client.query(0, 2).unwrap() else { panic!("expected OK") };
        assert_eq!(reply.tags, vec![2, 3]);
        let stats = client.stats().unwrap();
        assert_eq!(stats.get_u64("ok"), Some(1));
        server.stop().unwrap();
    }

    #[test]
    fn trace_metrics_and_flight_observe_a_query() {
        let server = boot();
        let mut client = ServeClient::connect(server.addr()).unwrap();

        // A forwarded trace id is adopted; spans cover the whole service.
        let traced = client.trace(0, 2, None, None, Some(0xabcd)).unwrap();
        assert_eq!(traced.trace_id, 0xabcd);
        assert_eq!(traced.tags, vec![2, 3]);
        assert!(!traced.cached);
        let names: Vec<&str> = traced.spans.iter().map(|s| s.name.as_str()).collect();
        for expected in ["plan", "cache", "queue", "execute"] {
            assert!(names.contains(&expected), "missing span {expected} in {names:?}");
        }
        for span in &traced.spans {
            assert!(
                span.start_us + span.dur_us <= traced.us + 1_000,
                "span {} overruns the total: {span:?} vs us={}",
                span.name,
                traced.us
            );
        }

        // A repeated trace hits the cache: no queue/execute spans, and a
        // freshly minted (distinct) id.
        let again = client.trace(0, 2, None, None, None).unwrap();
        assert!(again.cached);
        assert_ne!(again.trace_id, 0xabcd);
        let names: Vec<&str> = again.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["plan", "cache"]);

        // METRICS parses as Prometheus exposition and the connection
        // still frames the next request correctly.
        let text = client.metrics().unwrap();
        let samples = pitex_support::obs::parse_prometheus(&text).unwrap();
        let get = |name: &str| {
            samples.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("missing {name}"))
        };
        assert!(get("pitex_requests").value >= 2.0);
        assert!(get("pitex_flight_recorded").value >= 2.0);
        client.ping().unwrap();

        // The flight recorder saw both traces, ids intact.
        let flight = client.flight().unwrap();
        assert!(flight.recorded >= 2);
        assert!(flight
            .entries
            .iter()
            .any(|e| e.trace_id == 0xabcd && e.verb == "TRACE" && e.outcome == "ok"));
        server.stop().unwrap();
    }

    #[test]
    fn load_gen_reports_add_up() {
        let server = boot();
        let report = LoadGen { clients: 3, requests_per_client: 10, ..LoadGen::default() }
            .run(server.addr())
            .unwrap();
        assert_eq!(report.requests, 30);
        assert_eq!(report.ok + report.busy + report.errors, 30);
        assert!(report.ok >= 1);
        assert!(report.cached >= report.ok.saturating_sub(3), "all but first-per-key hits cache");
        assert!(report.qps() > 0.0);
        assert_eq!(report.latency_us.count(), 30);
        assert_eq!(report.latency_hist.count(), 30);
        assert!(report.latency_hist.quantile(0.99) >= report.latency_hist.quantile(0.5));
        server.stop().unwrap();
    }

    #[test]
    fn shutdown_via_client() {
        let server = boot();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        client.shutdown_server().unwrap();
        server.join().unwrap();
    }

    fn boot_at(addr: std::net::SocketAddr) -> crate::server::ServerHandle {
        let handle = EngineHandle::new(
            Arc::new(TicModel::paper_example()),
            EngineBackend::Exact,
            PitexConfig::default(),
        )
        .unwrap();
        Server::spawn(handle, addr, ServeOptions::default()).unwrap()
    }

    #[test]
    fn idempotent_requests_survive_a_server_restart() {
        let first = boot();
        let addr = first.addr();
        let mut client = ServeClient::connect(addr).unwrap();
        let Response::Ok(before) = client.query(0, 2).unwrap() else { panic!("expected OK") };
        assert_eq!(before.tags, vec![2, 3]);

        // Kill the server and boot a fresh one on the *same* address. The
        // client's next idempotent request lands on a dead socket, must
        // reconnect once, and succeed against the replacement.
        first.stop().unwrap();
        let second = boot_at(addr);
        let Response::Ok(after) = client.query(0, 2).unwrap() else {
            panic!("query after restart must succeed via reconnect")
        };
        assert_eq!(after.tags, vec![2, 3]);
        assert!(!after.cached, "the replacement server has a cold cache");
        client.ping().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.get_u64("ok"), Some(1), "only the retried query hit server two");
        second.stop().unwrap();
    }

    #[test]
    fn reconnect_keeps_the_dial_timeout() {
        let server = boot();
        let timeout = Some(Duration::from_millis(250));
        let mut client = ServeClient::connect_with(server.addr(), timeout, true).unwrap();
        client.reconnect().unwrap();
        assert_eq!(client.timeout, timeout);
        client.ping().unwrap();
        server.stop().unwrap();
    }

    #[test]
    fn non_idempotent_requests_are_not_replayed() {
        let first = boot();
        let addr = first.addr();
        let mut client = ServeClient::connect(addr).unwrap();
        client.ping().unwrap();
        first.stop().unwrap();
        let second = boot_at(addr);
        // UPDATE over the dead connection must surface the I/O error, not
        // silently replay against the replacement server.
        let err = client.update(UpdateOp::AddUser).expect_err("must not be retried");
        assert!(connection_lost(&err) || err.kind() == std::io::ErrorKind::ConnectionRefused);
        let mut probe = ServeClient::connect(addr).unwrap();
        let stats = probe.stats().unwrap();
        assert_eq!(stats.get_u64("updates_applied"), Some(0), "no ghost update applied");
        second.stop().unwrap();
    }
}
