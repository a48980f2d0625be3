//! The sans-I/O connection core: every wire rule of the serving tier, once.
//!
//! A [`Conn`] takes the bytes a peer sent ([`Conn::feed`]), hands back the
//! bytes to send ([`Conn::flush`] into any `Write`), and never sees a
//! socket — so a whole conversation can be driven from a `&[u8]` in a
//! test. Between the two sit:
//!
//! * **one sniffer** — the first bytes decide the wire: the 4-byte `PFRM`
//!   magic is the pipelined binary protocol, anything else is text (one
//!   mismatching byte decides, so a text client never waits on 4 bytes);
//! * **one decoder**, three codecs, one [`Request`] — `PFRM` frames,
//!   `\n`-terminated lines under the [`MAX_LINE_BYTES`] cap, and HTTP `GET`
//!   with a *bounded* header block (`GET /health` **is** `HEALTH`). A line
//!   is a request only once its `\n` has arrived: a torn tail at EOF is
//!   dropped, never executed;
//! * **one encoder per wire** from the same [`Handled`] — reply frame,
//!   reply line, HTTP status + body ([`ReplyTo::encode`]);
//! * **the connection rules** — replies matched by id on the binary wire
//!   and one request in flight on text/HTTP, the [`PIPELINE_CAP`], drain
//!   after `QUIT`/`SHUTDOWN`, half-close (buffered requests still answer),
//!   one `ERR` then hang-up for an over-long line / frame / header block,
//!   silent hang-up on a desynchronized frame stream, and the vectored
//!   out-queue.
//!
//! Behind the core is one seam, [`Service`]: `admit` answers a request
//! inline, defers it (the reply arrives later through the [`ReplySink`]),
//! or hands it back as blocking work. In front of it are two thin drivers
//! that only move bytes: the shard's epoll loop (many cores per thread;
//! blocking work goes to its slow lane) and [`blocking::serve`] (one core
//! per thread; blocking work runs in place), which carries the router,
//! every text/HTTP connection, and the shard's binary connections where
//! there is no poller.

use crate::frame::{self, could_be_frame, FrameBuf, FrameError, MAX_REQUEST_FRAME_BYTES};
use crate::http;
use crate::protocol::{ErrorCode, Request, Response};
use pitex_support::obs::timeseries::SeriesRes;
use pitex_support::obs::Counter;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Write};
use std::sync::Arc;
use std::time::Duration;

pub mod blocking;
pub mod event_loop;

/// Poll interval for stop-flag checks while blocked on I/O or a queue.
pub const POLL: Duration = Duration::from_millis(50);

/// Longest accepted request or header line, newline included. Far beyond
/// any legal request; a client that exceeds it (e.g. never sends a
/// newline) is answered once and disconnected instead of growing server
/// memory without bound.
pub const MAX_LINE_BYTES: usize = 4 * 1024;

/// Header lines an HTTP request may carry before its blank line. Scrapers
/// send a handful; the cap turns an endless header stream into one `431`.
pub const MAX_HEADER_LINES: usize = 64;

/// Requests one connection may have in flight (deferred or on the slow
/// lane); past it, further pipelined requests shed as `BUSY` exactly like a
/// full worker queue would.
pub const PIPELINE_CAP: usize = 1024;

/// `IoSlice`s handed to one `write_vectored` call. Linux caps a single
/// writev at `IOV_MAX` (1024); staying well under it keeps each syscall's
/// copy bounded.
const WRITEV_BATCH: usize = 64;

/// The drivers' read-buffer size.
pub const READ_CHUNK: usize = 16 * 1024;

const TEXT_PLAIN: &str = "text/plain; charset=utf-8";

/// The protocol a request arrived on — and its reply leaves on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// `PFRM` binary frames, pipelined, replies matched by id.
    Frame,
    /// The line protocol: one request line in, one reply line out.
    Line,
    /// A one-shot HTTP `GET`: answer and close. Scrapes are not protocol
    /// requests — a [`Service`] does not book them under `requests`.
    Http,
}

/// What a request produced: a single [`Response`] (plus whether to close
/// the connection after it), or a raw multi-line payload written verbatim
/// (the `METRICS` Prometheus exposition, whose `# EOF` terminator stands in
/// for the line protocol's one-reply-per-line framing).
#[derive(Debug)]
pub enum Handled {
    Reply(Response, bool),
    Raw(String),
}

/// Encoded reply bytes addressed to the connection `key`.
#[derive(Debug)]
pub struct Reply {
    pub key: usize,
    pub bytes: Vec<u8>,
    /// Hang up once everything up to and including this reply is flushed.
    pub close: bool,
}

/// Where a driver collects replies finished off its thread.
pub trait ReplySink: Send + Sync {
    fn push(&self, reply: Reply);
}

/// The return address of one admitted request: which connection, which
/// request id, which wire — and the driver's sink for a reply that is
/// finished on another thread.
#[derive(Clone)]
pub struct ReplyTo {
    key: usize,
    id: u64,
    wire: Wire,
    room: bool,
    sink: Arc<dyn ReplySink>,
}

impl ReplyTo {
    pub fn wire(&self) -> Wire {
        self.wire
    }

    /// Whether the connection is still under its [`PIPELINE_CAP`]; a
    /// [`Service`] must shed instead of deferring when it is not.
    pub fn has_room(&self) -> bool {
        self.room
    }

    /// The one encoder: `handled` as this request's wire spells it.
    pub fn encode(&self, handled: Handled) -> Reply {
        let (bytes, close) = match (self.wire, handled) {
            (Wire::Frame, Handled::Reply(response, close)) => {
                (frame::encode_response(self.id, &response), close)
            }
            (Wire::Frame, Handled::Raw(text)) => {
                (frame::encode_raw_response(self.id, &text), false)
            }
            (Wire::Line, Handled::Reply(response, close)) => {
                // One buffer per reply: a split line + '\n' would stall
                // ~40ms on the peer's delayed ACK under Nagle.
                let mut line = response.to_line();
                line.push('\n');
                (line.into_bytes(), close)
            }
            (Wire::Line, Handled::Raw(text)) => (text.into_bytes(), false),
            (Wire::Http, handled) => (http_response(&handled).into_bytes(), true),
        };
        Reply { key: self.key, bytes, close }
    }

    /// Encodes and hands the reply to the driver's sink — for requests
    /// finished off the connection's own thread.
    pub fn deliver(&self, handled: Handled) {
        self.sink.push(self.encode(handled));
    }
}

/// The HTTP rendering of a verb's reply: the exposition as `text/plain`,
/// `HEALTHY` and `SERIES` as JSON (`503` when the verdict pages), an `ERR`
/// as `500` when the hop itself failed and `404` when the thing asked for
/// does not exist.
fn http_response(handled: &Handled) -> String {
    match handled {
        Handled::Raw(text) => http::response("200 OK", "text/plain; version=0.0.4", text),
        Handled::Reply(Response::Health(verdict), _) => http::response(
            http::health_status_line(verdict.status),
            "application/json",
            &http::health_json(verdict),
        ),
        Handled::Reply(Response::Series(series), _) => {
            http::response("200 OK", "application/json", &http::series_json(series))
        }
        Handled::Reply(Response::Err { code, message }, _) => {
            let status = match code {
                ErrorCode::Internal => "500 Internal Server Error",
                _ => "404 Not Found",
            };
            http::response(status, TEXT_PLAIN, &format!("{message}\n"))
        }
        Handled::Reply(other, _) => {
            http::response("200 OK", TEXT_PLAIN, &format!("{}\n", other.to_line()))
        }
    }
}

/// If `line` is an HTTP request line (`GET <target> HTTP/…`), the target.
fn http_target(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("GET ")?;
    let (target, version) = rest.split_once(' ')?;
    version.starts_with("HTTP/").then_some(target)
}

/// The one HTTP route → verb mapping. `Err` carries the ready-to-send
/// response for a target that names no verb.
fn http_route(target: &str) -> Result<Request, String> {
    let (route, query) = target.split_once('?').unwrap_or((target, ""));
    match route {
        "/metrics" => Ok(Request::Metrics),
        "/health" => Ok(Request::Health),
        "/series" => {
            let mut field = None;
            let mut res = Some(SeriesRes::Fast);
            for pair in query.split('&') {
                match pair.split_once('=') {
                    Some(("field", v)) => field = Some(v),
                    Some(("res", v)) => res = SeriesRes::parse(v),
                    _ => {}
                }
            }
            let bad = |body| Err(http::response("400 Bad Request", TEXT_PLAIN, body));
            match (field, res) {
                (Some(field), Some(res)) => {
                    Ok(Request::Series { field: field.to_string(), res: Some(res) })
                }
                (None, _) => bad("missing ?field=<name>\n"),
                (_, None) => bad("bad ?res= (want fast|mid)\n"),
            }
        }
        _ => Err(http::response(
            "404 Not Found",
            TEXT_PLAIN,
            "try /metrics, /health or /series?field=<name>[&res=fast|mid]\n",
        )),
    }
}

/// A header line past [`MAX_LINE_BYTES`] or a block past
/// [`MAX_HEADER_LINES`] is answered with this, once.
fn headers_too_large() -> String {
    http::response("431 Request Header Fields Too Large", TEXT_PLAIN, "header block too large\n")
}

/// Books and builds the `ERR BAD_REQUEST` malformed input is answered with.
fn bad_request(counters: WireCounters<'_>, message: String) -> Handled {
    counters.requests.inc();
    counters.errors.inc();
    Handled::Reply(Response::Err { code: ErrorCode::BadRequest, message }, false)
}

/// What [`Admission::admit`] decided.
pub enum Admit {
    /// Answered on the spot.
    Inline(Handled),
    /// Running elsewhere; the reply arrives through the [`ReplyTo`] the
    /// service cloned.
    Deferred,
    /// Work that may block. The driver runs it with [`Service::call`] —
    /// in place on a thread-per-connection driver, on the slow lane of an
    /// event loop.
    Blocking(Request),
}

/// The counters a [`Service`] lends the core for the outcomes the wire
/// layer decides by itself (malformed, over-long, shed, undeliverable).
#[derive(Clone, Copy)]
pub struct WireCounters<'a> {
    pub requests: &'a Counter,
    pub errors: &'a Counter,
    pub busy: &'a Counter,
    /// Completed pipelined replies whose connection died first; `None` on
    /// a hop that does not export the count.
    pub conn_aborted: Option<&'a Counter>,
}

impl WireCounters<'_> {
    /// Books completed replies that can no longer be delivered.
    pub fn aborted(&self, replies: u64) {
        if let Some(counter) = self.conn_aborted {
            counter.add(replies);
        }
    }
}

/// The half of a [`Service`] a driver admits through. Object-safe: the
/// event loop admits through whatever [`Service::on_loop`] lends it.
pub trait Admission {
    fn counters(&self) -> WireCounters<'_>;

    /// Called by every driver thread at least once per [`POLL`] while it
    /// is idle: refresh per-thread state. `false` once the hop is stopping.
    fn tick(&mut self) -> bool;

    /// Must not block. A request it counts is booked under `requests`
    /// here; one it returns as [`Admit::Blocking`] is booked by `call`.
    fn admit(&mut self, request: Request, to: &ReplyTo) -> Admit;
}

/// What sits behind the connection core: a shard, a router, a test fake.
/// Every driver thread owns its own clone, so per-thread state (a pinned
/// snapshot) needs no lock.
pub trait Service: Admission + Clone + Send + 'static {
    /// Runs one request to completion, however long it takes.
    fn call(&mut self, request: Request, wire: Wire) -> Handled;

    /// The event loop's own thread runs every wake through this: `wake`
    /// runs one and reports whether the hop is still running. A service
    /// whose loop-thread admission borrows state pinned per epoch (the
    /// shard's inline engines) pins it in this frame and admits through
    /// what it lends `wake`. The default pins nothing.
    fn on_loop(&mut self, wake: &mut dyn FnMut(&mut dyn Admission) -> bool) {
        while wake(self) {}
    }
}

/// Text-side input: bytes not yet consumed as lines.
#[derive(Debug, Default)]
struct LineBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed; compacted once per `extend`.
    pos: usize,
}

impl LineBuf {
    fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete line, without its `\n`. `Ok(None)` until the
    /// `\n` has arrived — EOF does not turn a partial line into a request.
    /// `Err` once a line, terminated or not, is past [`MAX_LINE_BYTES`].
    fn next_line(&mut self) -> Result<Option<&[u8]>, ()> {
        let pending = &self.buf[self.pos..];
        match pending.iter().position(|&b| b == b'\n') {
            Some(end) if end < MAX_LINE_BYTES => {
                self.pos += end + 1;
                Ok(Some(&pending[..end]))
            }
            None if pending.len() <= MAX_LINE_BYTES => Ok(None),
            _ => Err(()),
        }
    }
}

/// One connection's protocol state machine. See the module docs.
pub struct Conn {
    /// The first bytes have not yet decided the wire.
    sniffing: bool,
    /// Sniffed bytes, then the text wires' input.
    text: LineBuf,
    /// The binary wire's input.
    frames: FrameBuf,
    /// An HTTP request whose header block is still arriving: the target and
    /// the header lines seen so far.
    http: Option<(String, usize)>,
    /// Encoded replies not yet (fully) written.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out[0]` already written.
    out_off: usize,
    /// Requests deferred or handed out as blocking, not yet completed.
    in_flight: usize,
    /// The peer half-closed. Requests already buffered are still admitted
    /// (their replies flush before the hang-up), but nothing more is read.
    eof: bool,
    /// Stop admitting (`QUIT`/`SHUTDOWN` admitted, or a fatal wire error):
    /// finish what is pending, then close.
    draining: bool,
    /// Close once `out` is flushed and `in_flight` drains to zero.
    close_after_flush: bool,
    /// The return address, re-stamped with each request's id and wire.
    to: ReplyTo,
}

impl Conn {
    /// A fresh connection whose off-thread replies come back through
    /// `sink`, addressed by `key`.
    pub fn new(key: usize, sink: Arc<dyn ReplySink>) -> Conn {
        Conn {
            sniffing: true,
            text: LineBuf::default(),
            frames: FrameBuf::new(MAX_REQUEST_FRAME_BYTES),
            http: None,
            out: VecDeque::new(),
            out_off: 0,
            in_flight: 0,
            eof: false,
            draining: false,
            close_after_flush: false,
            to: ReplyTo { key, id: 0, wire: Wire::Line, room: true, sink },
        }
    }

    /// Re-addresses the connection when it moves to another driver.
    pub fn rebind(&mut self, key: usize, sink: Arc<dyn ReplySink>) {
        self.to.key = key;
        self.to.sink = sink;
    }

    /// The sniffed protocol; `None` while fewer than 4 bytes all match the
    /// frame magic.
    pub fn wire(&self) -> Option<Wire> {
        (!self.sniffing).then_some(self.to.wire)
    }

    /// How much a driver should read at once: a full chunk on the binary
    /// wire, one line's worth otherwise — which is what bounds a text
    /// connection to `MAX_LINE_BYTES` + one read of buffered input.
    pub fn read_hint(&self) -> usize {
        match self.wire() {
            Some(Wire::Frame) => READ_CHUNK,
            _ => MAX_LINE_BYTES,
        }
    }

    /// Input bytes held but not yet consumed as requests.
    pub fn buffered(&self) -> usize {
        self.text.buffered() + self.frames.buffered()
    }

    /// Takes bytes the peer sent. The one protocol sniff happens here.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.wants_read() {
            return;
        }
        if !self.sniffing {
            return match self.to.wire {
                Wire::Frame => self.frames.extend(bytes),
                _ => self.text.extend(bytes),
            };
        }
        self.text.extend(bytes);
        let head = &self.text.buf[..self.text.buf.len().min(frame::MAGIC.len())];
        if !could_be_frame(head) {
            self.sniffing = false;
        } else if head.len() == frame::MAGIC.len() {
            // The magic is the head of the first frame.
            self.frames.extend(&std::mem::take(&mut self.text.buf));
            self.to.wire = Wire::Frame;
            self.sniffing = false;
        }
    }

    /// The peer half-closed: admit what is buffered, flush, hang up.
    pub fn eof(&mut self) {
        self.eof = true;
        self.close_after_flush = true;
    }

    /// Decodes and admits buffered requests until one needs blocking work
    /// — returned with its return address for the driver to run and
    /// [`complete`](Self::complete) — or until nothing more can be
    /// admitted (input exhausted, draining, or a text request in flight).
    pub fn admit_next<A: Admission + ?Sized>(
        &mut self,
        service: &mut A,
    ) -> Option<(ReplyTo, Request)> {
        while let Some(request) = self.decode(service.counters()) {
            self.to.room = self.in_flight < PIPELINE_CAP;
            match service.admit(request, &self.to) {
                Admit::Inline(handled) => self.queue(self.to.encode(handled)),
                Admit::Deferred => self.in_flight += 1,
                // The slow lane's queue is unbounded, so the cap applies
                // to blocking verbs too: without it one client could
                // queue arbitrarily many expensive verbs.
                Admit::Blocking(_) if !self.to.room => {
                    let counters = service.counters();
                    counters.requests.inc();
                    counters.busy.inc();
                    self.queue(self.to.encode(Handled::Reply(Response::Busy, false)));
                }
                Admit::Blocking(request) => {
                    // Requests pipelined behind a QUIT are never admitted,
                    // even while its BYE is still on the slow lane.
                    self.draining = matches!(request, Request::Quit | Request::Shutdown);
                    self.in_flight += 1;
                    return Some((self.to.clone(), request));
                }
            }
        }
        None
    }

    /// The reply to a deferred or blocking request.
    pub fn complete(&mut self, reply: Reply) {
        self.in_flight -= 1;
        self.queue(reply);
    }

    fn queue(&mut self, reply: Reply) {
        self.out.push_back(reply.bytes);
        if reply.close {
            self.hang_up();
        }
    }

    /// Stop admitting; close once what is owed has been written.
    fn hang_up(&mut self) {
        self.draining = true;
        self.close_after_flush = true;
    }

    /// Queues the one reply a fatal wire error gets; nothing more is read.
    fn reject(&mut self, handled: Handled) {
        let reply = self.to.encode(handled);
        self.queue(Reply { close: true, ..reply });
    }

    /// Queues a ready-made HTTP response for a request that names no verb.
    fn reject_http(&mut self, response: String) {
        self.queue(Reply { key: self.to.key, bytes: response.into(), close: true });
    }

    /// The one decoder: the next well-formed request on whichever wire
    /// was sniffed, stamping `self.to` with its id and wire. Malformed
    /// input is answered here; `None` when no request is ready.
    fn decode(&mut self, counters: WireCounters<'_>) -> Option<Request> {
        if self.draining || self.sniffing {
            return None;
        }
        match self.to.wire {
            Wire::Frame => self.decode_frame(counters),
            _ => self.decode_line(counters),
        }
    }

    fn decode_frame(&mut self, counters: WireCounters<'_>) -> Option<Request> {
        loop {
            let payload = match self.frames.next_payload() {
                Ok(payload) => payload?,
                Err(FrameError::Oversized { len, cap }) => {
                    // Mirror the over-long line: one ERR, then hang up. No
                    // request id is recoverable from the header.
                    self.to.id = 0;
                    let message = format!("frame payload of {len} bytes exceeds {cap} bytes");
                    self.reject(bad_request(counters, message));
                    return None;
                }
                Err(_) => {
                    // Desynchronized mid-stream: no reply can be framed
                    // reliably. Finish what was admitted, then close.
                    counters.errors.inc();
                    self.hang_up();
                    return None;
                }
            };
            match frame::decode_request(&payload) {
                Ok((id, request)) => {
                    self.to.id = id;
                    return Some(request);
                }
                Err(e) => {
                    self.to.id = frame::payload_id(&payload);
                    let message = format!("malformed binary request: {e}");
                    self.queue(self.to.encode(bad_request(counters, message)));
                }
            }
        }
    }

    fn decode_line(&mut self, counters: WireCounters<'_>) -> Option<Request> {
        // Text and HTTP answer in order, so one request at a time.
        while self.in_flight == 0 {
            let line = match self.text.next_line() {
                Ok(line) => line?,
                Err(()) if self.http.is_some() => {
                    self.reject_http(headers_too_large());
                    return None;
                }
                Err(()) => {
                    let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    self.reject(bad_request(counters, message));
                    return None;
                }
            };
            if let Some((target, seen)) = &mut self.http {
                if !line.iter().all(u8::is_ascii_whitespace) {
                    *seen += 1;
                    if *seen > MAX_HEADER_LINES {
                        self.reject_http(headers_too_large());
                        return None;
                    }
                    continue;
                }
                // The blank line: the request is complete.
                return match http_route(target) {
                    Ok(request) => Some(request),
                    Err(response) => {
                        self.reject_http(response);
                        None
                    }
                };
            }
            let Ok(line) = std::str::from_utf8(line) else {
                // Not text at all: hang up without a reply.
                self.hang_up();
                return None;
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(target) = http_target(line) {
                self.to.wire = Wire::Http;
                self.http = Some((target.to_string(), 0));
                continue;
            }
            match Request::parse(line) {
                Ok(request) => return Some(request),
                Err(reason) => self.queue(self.to.encode(bad_request(counters, reason))),
            }
        }
        None
    }

    /// The one vectored writer: as much of the out-queue as `writer`
    /// accepts, at most `WRITEV_BATCH` slices per call. `Ok(true)` =
    /// fully drained, `Ok(false)` = the writer would block.
    pub fn flush(&mut self, writer: &mut impl Write) -> std::io::Result<bool> {
        while !self.out.is_empty() {
            let mut slices = Vec::with_capacity(WRITEV_BATCH.min(self.out.len()));
            let mut iter = self.out.iter();
            let front = iter.next().expect("non-empty");
            slices.push(IoSlice::new(&front[self.out_off..]));
            for reply in iter.take(WRITEV_BATCH - 1) {
                slices.push(IoSlice::new(reply));
            }
            let mut written = match writer.write_vectored(&slices) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            while written > 0 {
                let remaining = self.out.front().expect("non-empty").len() - self.out_off;
                if written >= remaining {
                    written -= remaining;
                    self.out.pop_front();
                    self.out_off = 0;
                } else {
                    self.out_off += written;
                    written = 0;
                }
            }
        }
        Ok(true)
    }

    /// Whether the driver should keep reading from the peer.
    pub fn wants_read(&self) -> bool {
        !(self.draining || self.eof)
    }

    /// Whether replies are queued that [`flush`](Self::flush) has not
    /// written yet.
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Everything owed has been written and the connection is to close.
    pub fn finished(&self) -> bool {
        self.out.is_empty() && self.close_after_flush && self.in_flight == 0
    }

    /// Completed pipelined replies still queued — what a driver books
    /// under `conn_aborted` when the peer is gone.
    pub fn orphaned(&self) -> u64 {
        match self.wire() {
            Some(Wire::Frame) => self.out.len() as u64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_response, WireReply, HEADER_BYTES, MAGIC, MAX_REPLY_FRAME_BYTES};
    use crate::protocol::{QueryReply, QueryRequest, SeriesReply, StatsReply};
    use pitex_support::codec::Encoder;
    use pitex_support::obs::slo::HealthVerdict;
    use pitex_support::obs::timeseries::SeriesKind;
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Replies the fake's "workers" finished, as a driver's sink sees them.
    #[derive(Default)]
    struct Collected(Mutex<Vec<Reply>>);

    impl ReplySink for Collected {
        fn push(&self, reply: Reply) {
            self.0.lock().unwrap().push(reply);
        }
    }

    /// A shard-shaped fake: `PING` and even users answer inline, odd users
    /// are deferred (a "cache miss"), every other verb is blocking.
    #[derive(Clone, Default)]
    struct Fake {
        requests: Counter,
        errors: Counter,
        busy: Counter,
        deferred: Arc<Mutex<Vec<(ReplyTo, QueryRequest)>>>,
    }

    fn ok(q: &QueryRequest) -> Handled {
        let reply = QueryReply {
            user: q.user,
            k: q.k,
            tags: vec![q.user],
            spread: 1.5,
            cached: false,
            us: 7,
        };
        Handled::Reply(Response::Ok(reply), false)
    }

    impl Admission for Fake {
        fn counters(&self) -> WireCounters<'_> {
            WireCounters {
                requests: &self.requests,
                errors: &self.errors,
                busy: &self.busy,
                conn_aborted: None,
            }
        }

        fn tick(&mut self) -> bool {
            true
        }

        fn admit(&mut self, request: Request, to: &ReplyTo) -> Admit {
            match request {
                Request::Ping => Admit::Inline(Handled::Reply(Response::Pong, false)),
                Request::Query(q) if q.user % 2 == 0 => Admit::Inline(ok(&q)),
                Request::Query(q) => {
                    self.deferred.lock().unwrap().push((to.clone(), q));
                    Admit::Deferred
                }
                other => Admit::Blocking(other),
            }
        }
    }

    impl Service for Fake {
        fn call(&mut self, request: Request, _wire: Wire) -> Handled {
            match request {
                Request::Quit => Handled::Reply(Response::Bye, true),
                Request::Metrics => Handled::Raw("pitex_requests 3\n# EOF\n".to_string()),
                Request::Health => {
                    Handled::Reply(Response::Health(HealthVerdict::from_slos(Vec::new())), false)
                }
                Request::Series { field, res } if field == "requests" => {
                    let series = SeriesReply {
                        field,
                        res: res.unwrap_or(SeriesRes::Fast),
                        tick_ms: 1000,
                        window_ticks: 1,
                        kind: SeriesKind::Counter,
                        points: vec!["0".into(), "12".into()],
                    };
                    Handled::Reply(Response::Series(series), false)
                }
                Request::Series { field, .. } => {
                    let message = format!("unknown or never-sampled field {field:?}");
                    Handled::Reply(Response::Err { code: ErrorCode::BadRequest, message }, false)
                }
                _ => Handled::Reply(
                    Response::Stats(StatsReply::new([("ok".to_string(), "1".to_string())])),
                    false,
                ),
            }
        }
    }

    /// What a conversation came to: every byte written, whether the core
    /// asked to hang up, and the most input it ever held.
    #[derive(Debug, PartialEq)]
    struct Transcript {
        out: Vec<u8>,
        closed: bool,
        max_buffered: usize,
    }

    /// Drives one core over `input` the way the blocking driver would —
    /// reads of at most `read_hint`, cut additionally at every offset in
    /// `cuts` — with the deferred requests of a text wire completed at once
    /// and those of the binary wire only after the last byte, so the reply
    /// order does not depend on the fake's timing.
    fn converse(input: &[u8], cuts: &[usize]) -> Transcript {
        let sink = Arc::new(Collected::default());
        let mut conn = Conn::new(9, sink.clone());
        let mut service = Fake::default();
        let mut out = Vec::new();
        let mut max_buffered = 0;
        let settle = |conn: &mut Conn, service: &mut Fake, everything: bool| loop {
            while let Some((to, request)) = conn.admit_next(service) {
                let handled = service.call(request, to.wire());
                conn.complete(to.encode(handled));
            }
            if conn.in_flight() == 0 || (conn.wire() == Some(Wire::Frame) && !everything) {
                break;
            }
            for (to, q) in service.deferred.lock().unwrap().drain(..) {
                to.deliver(ok(&q));
            }
            for reply in sink.0.lock().unwrap().drain(..) {
                assert_eq!(reply.key, 9);
                conn.complete(reply);
            }
        };
        let mut pos = 0;
        while pos < input.len() && conn.wants_read() {
            let next_cut = cuts.iter().copied().find(|&c| c > pos).unwrap_or(input.len());
            let end = next_cut.min(pos + conn.read_hint()).min(input.len());
            conn.feed(&input[pos..end]);
            pos = end;
            max_buffered = max_buffered.max(conn.buffered());
            settle(&mut conn, &mut service, false);
            conn.flush(&mut out).unwrap();
            if conn.finished() {
                break;
            }
        }
        conn.eof();
        settle(&mut conn, &mut service, true);
        conn.flush(&mut out).unwrap();
        assert!(!conn.has_output());
        Transcript { out, closed: conn.finished(), max_buffered }
    }

    fn whole(input: &[u8]) -> Transcript {
        converse(input, &[])
    }

    fn byte_at_a_time(input: &[u8]) -> Transcript {
        converse(input, &(0..input.len()).collect::<Vec<_>>())
    }

    fn text_of(transcript: &Transcript) -> &str {
        std::str::from_utf8(&transcript.out).unwrap()
    }

    fn frames_of(transcript: &Transcript) -> Vec<(u64, WireReply)> {
        let mut buf = FrameBuf::new(MAX_REPLY_FRAME_BYTES);
        buf.extend(&transcript.out);
        let mut replies = Vec::new();
        while let Some(payload) = buf.next_payload().unwrap() {
            replies.push(decode_response(&payload).unwrap());
        }
        assert_eq!(buf.buffered(), 0, "no torn reply frame");
        replies
    }

    /// A pipelined burst: inline, a deferred miss, blocking, a malformed
    /// payload, and a `QUIT` with a frame behind it that is never admitted.
    fn frame_transcript() -> Vec<u8> {
        let mut corrupt = Encoder::new(Vec::new());
        corrupt.u64(5);
        corrupt.u8(200); // unknown tag
        let corrupt = corrupt.into_inner();
        let mut input = Vec::new();
        input.extend(frame::encode_request(1, &Request::Ping));
        input.extend(frame::encode_request(2, &Request::Query(QueryRequest::new(2, 1))));
        input.extend(frame::encode_request(3, &Request::Query(QueryRequest::new(3, 1))));
        input.extend(frame::encode_request(4, &Request::Stats));
        input.extend(MAGIC);
        input.extend((corrupt.len() as u32).to_le_bytes());
        input.extend(corrupt);
        input.extend(frame::encode_request(6, &Request::Metrics));
        input.extend(frame::encode_request(7, &Request::Quit));
        input.extend(frame::encode_request(8, &Request::Ping));
        input
    }

    /// Text lines: inline, deferred, unparseable, blank, blocking, then an
    /// over-long line with a request behind it that is never read.
    fn line_transcript() -> Vec<u8> {
        let mut input = b"PING\nQUERY 2 1\r\nQUERY 3 1\nGARBAGE\n\r\nSTATS\nMETRICS\n".to_vec();
        input.extend(vec![b'X'; MAX_LINE_BYTES + 10]);
        input.extend(b"\nPING\n");
        input
    }

    const HTTP_TRANSCRIPTS: [&str; 8] = [
        "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\nPING\n",
        "GET /series?field=requests&res=mid HTTP/1.0\r\n\r\n",
        "GET /series?field=nope HTTP/1.0\r\n\r\n",
        "GET /series HTTP/1.0\r\n\r\n",
        "GET /frobnicate HTTP/1.0\r\n\r\n",
        "PING\nGET /health HTTP/1.0\r\n\r\n",
        "GET /series?field=requests&res=hourly HTTP/1.0\r\n\r\n",
        "GET /series?field=requests&res=slow HTTP/1.0\r\n\r\n",
    ];

    #[test]
    fn request_lines_are_recognized() {
        assert_eq!(http_target("GET /metrics HTTP/1.1"), Some("/metrics"));
        assert_eq!(http_target("GET /series?field=qps HTTP/1.0"), Some("/series?field=qps"));
        assert_eq!(http_target("GET /metrics"), None, "no version token");
        assert_eq!(http_target("QUERY 0 2"), None);
        assert_eq!(http_target("PUT /metrics HTTP/1.1"), None);
    }

    #[test]
    fn frame_burst_answers_by_id_and_drains_after_quit() {
        let transcript = whole(&frame_transcript());
        let replies = frames_of(&transcript);
        let ids: Vec<u64> = replies.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [1, 2, 4, 5, 6, 7, 3], "the deferred miss lands last; 8 is never admitted");
        assert_eq!(replies[0].1, WireReply::Response(Response::Pong));
        assert!(matches!(&replies[3].1, WireReply::Response(Response::Err { code, .. })
            if *code == ErrorCode::BadRequest));
        assert!(matches!(&replies[4].1, WireReply::Raw(text) if text.ends_with("# EOF\n")));
        assert_eq!(replies[5].1, WireReply::Response(Response::Bye));
        assert!(transcript.closed);
    }

    #[test]
    fn lines_answer_in_order_and_an_over_long_one_hangs_up() {
        let transcript = whole(&line_transcript());
        let lines: Vec<&str> = text_of(&transcript).lines().collect();
        assert_eq!(lines[0], "PONG");
        assert!(lines[1].starts_with("OK user=2 "), "{lines:?}");
        assert!(
            lines[2].starts_with("OK user=3 "),
            "the deferred reply holds its place: {lines:?}"
        );
        assert!(lines[3].starts_with("ERR BAD_REQUEST"), "{lines:?}");
        assert!(lines[4].starts_with("STATS"), "{lines:?}");
        assert_eq!(&lines[5..7], ["pitex_requests 3", "# EOF"]);
        assert!(lines[7].contains("exceeds"), "{lines:?}");
        assert_eq!(lines.len(), 8, "nothing behind the over-long line is answered");
        assert!(transcript.closed);
    }

    #[test]
    fn http_routes_are_the_verbs() {
        let status = |input: &str| {
            let transcript = whole(input.as_bytes());
            assert!(transcript.closed, "{input}");
            text_of(&transcript).to_string()
        };
        let metrics = status(HTTP_TRANSCRIPTS[0]);
        assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
        assert!(metrics.ends_with("# EOF\n"), "nothing behind the scrape is answered: {metrics}");
        let series = status(HTTP_TRANSCRIPTS[1]);
        assert!(series.ends_with("\"res\":\"mid\",\"tick_ms\":1000,\"window_ticks\":1,\"kind\":\"counter\",\"points\":[0,12]}\n"), "{series}");
        assert!(status(HTTP_TRANSCRIPTS[2]).starts_with("HTTP/1.0 404 Not Found\r\n"));
        assert!(status(HTTP_TRANSCRIPTS[3]).starts_with("HTTP/1.0 400 Bad Request\r\n"));
        assert!(status(HTTP_TRANSCRIPTS[4]).starts_with("HTTP/1.0 404 Not Found\r\n"));
        let health = status(HTTP_TRANSCRIPTS[5]);
        assert!(health.starts_with("PONG\nHTTP/1.0 200 OK\r\n"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        for typo in [status(HTTP_TRANSCRIPTS[6]), status(HTTP_TRANSCRIPTS[7])] {
            assert!(typo.starts_with("HTTP/1.0 400 Bad Request\r\n"), "{typo}");
            assert!(typo.ends_with("(want fast|mid)\n"), "{typo}");
        }
    }

    #[test]
    fn a_line_without_its_newline_is_never_a_request() {
        for torn in [
            &b"UPDATE SET_EDGE 0 1 0:0.9"[..],
            b"PING\nSHUTDOWN",
            b"PF",
            b"GET /metrics HTTP/1.0\r\n",
        ] {
            let sink = Arc::new(Collected::default());
            let mut conn = Conn::new(0, sink);
            let mut service = Fake::default();
            conn.feed(torn);
            let mut admitted = 0;
            while let Some((to, request)) = conn.admit_next(&mut service) {
                assert_ne!(request, Request::Shutdown);
                assert!(!matches!(request, Request::Update(_)));
                conn.complete(to.encode(service.call(request, to.wire())));
                admitted += 1;
            }
            conn.eof();
            assert!(conn.admit_next(&mut service).is_none(), "EOF must not finish the line");
            assert_eq!(admitted, 0);
            let mut out = Vec::new();
            conn.flush(&mut out).unwrap();
            assert!(conn.finished());
        }
    }

    #[test]
    fn header_flood_is_cut_off_with_one_431() {
        // A newline-free header behind a valid request line: the core never
        // holds more than one line's cap plus one read of it.
        let mut input = b"GET /metrics HTTP/1.0\r\n".to_vec();
        input.extend(vec![b'h'; 1 << 20]);
        let transcript = whole(&input);
        assert!(text_of(&transcript).starts_with("HTTP/1.0 431 "), "{}", text_of(&transcript));
        assert!(transcript.closed);
        assert!(transcript.max_buffered <= 8 * 1024, "held {} bytes", transcript.max_buffered);

        // Endless short header lines hit the line-count cap instead.
        let mut input = b"GET /metrics HTTP/1.0\r\n".to_vec();
        for _ in 0..=MAX_HEADER_LINES {
            input.extend(b"X-Flood: 1\r\n");
        }
        input.extend(b"\r\n");
        let transcript = whole(&input);
        assert!(text_of(&transcript).starts_with("HTTP/1.0 431 "), "{}", text_of(&transcript));
        assert!(transcript.closed);
    }

    #[test]
    fn pipeline_cap_sheds_blocking_verbs_as_busy() {
        let sink = Arc::new(Collected::default());
        let mut conn = Conn::new(0, sink);
        let mut service = Fake::default();
        let mut input = Vec::new();
        for id in 0..PIPELINE_CAP as u64 {
            input.extend(frame::encode_request(id, &Request::Query(QueryRequest::new(1, 1))));
        }
        input.extend(frame::encode_request(9999, &Request::Stats));
        conn.feed(&input);
        assert!(conn.admit_next(&mut service).is_none(), "STATS past the cap is not handed out");
        assert_eq!(conn.in_flight(), PIPELINE_CAP);
        assert_eq!((service.requests.get(), service.busy.get()), (1, 1));
        let mut out = Vec::new();
        conn.flush(&mut out).unwrap();
        let (id, reply) = decode_response(&out[HEADER_BYTES..]).unwrap();
        assert_eq!((id, reply), (9999, WireReply::Response(Response::Busy)));
    }

    #[test]
    fn flush_survives_short_and_blocked_writers() {
        /// Accepts `budget` bytes per call, then would block once.
        struct Trickle {
            taken: Vec<u8>,
            budget: usize,
            blocked: bool,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.blocked = !self.blocked;
                if self.blocked {
                    return Err(ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.budget);
                self.taken.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut conn = whole_conn(b"PING\nQUERY 2 1\nPING\n");
        let mut expected = Vec::new();
        whole_conn(b"PING\nQUERY 2 1\nPING\n").flush(&mut expected).unwrap();
        let mut writer = Trickle { taken: Vec::new(), budget: 3, blocked: false };
        let mut rounds = 0;
        while !conn.flush(&mut writer).unwrap() {
            assert!(conn.has_output());
            rounds += 1;
        }
        assert!(rounds > 1);
        assert_eq!(writer.taken, expected);
    }

    /// A core that has admitted all of `input`, replies still queued.
    fn whole_conn(input: &[u8]) -> Conn {
        let mut conn = Conn::new(0, Arc::new(Collected::default()));
        conn.feed(input);
        assert!(conn.admit_next(&mut Fake::default()).is_none());
        conn
    }

    #[test]
    fn every_transcript_survives_byte_at_a_time_delivery() {
        let mut transcripts = vec![frame_transcript(), line_transcript()];
        transcripts.extend(HTTP_TRANSCRIPTS.iter().map(|t| t.as_bytes().to_vec()));
        for input in transcripts {
            let reference = whole(&input);
            let trickled = byte_at_a_time(&input);
            assert_eq!(trickled.out, reference.out);
            assert_eq!(trickled.closed, reference.closed);
        }
    }

    /// Inputs biased toward the sniffer's decision boundary: the magic, its
    /// proper prefixes, near misses, and a request line, then noise.
    fn garbage() -> impl Strategy<Value = Vec<u8>> {
        (0usize..8, proptest::collection::vec(0u8..=255, 0..6000)).prop_map(|(head, tail)| {
            let heads: [&[u8]; 8] =
                [b"", b"P", b"PF", b"PFR", b"PFRM", b"PFOO", b"GET / HTTP/1.0\r\n", b"PING\n"];
            [heads[head], &tail].concat()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_chunking_never_changes_the_conversation(
            which in 0..HTTP_TRANSCRIPTS.len() + 2,
            cuts in proptest::collection::vec(0usize..6000, 0..24),
        ) {
            let input = match which {
                0 => frame_transcript(),
                1 => line_transcript(),
                n => HTTP_TRANSCRIPTS[n - 2].as_bytes().to_vec(),
            };
            let mut cuts = cuts;
            cuts.sort_unstable();
            let reference = whole(&input);
            let chunked = converse(&input, &cuts);
            prop_assert_eq!(&chunked.out, &reference.out);
            prop_assert_eq!(chunked.closed, reference.closed);
        }

        #[test]
        fn prop_garbage_never_panics_missniffs_or_balloons(
            input in garbage(),
            cuts in proptest::collection::vec(0usize..6000, 0..12),
        ) {
            let mut cuts = cuts;
            cuts.sort_unstable();
            let transcript = converse(&input, &cuts);
            // The sniff is exactly the `could_be_frame` prefix rule.
            let head = &input[..input.len().min(MAGIC.len())];
            let mut conn = Conn::new(0, Arc::new(Collected::default()));
            conn.feed(&input[..input.len().min(MAX_LINE_BYTES)]);
            let expected = match (could_be_frame(head), head.len() == MAGIC.len()) {
                (true, true) => Some(Wire::Frame),
                (true, false) => None,
                (false, _) => Some(Wire::Line),
            };
            prop_assert_eq!(conn.wire(), expected);
            // Never more than one request's cap plus one read.
            let bound = match expected {
                Some(Wire::Frame) => HEADER_BYTES + MAX_REQUEST_FRAME_BYTES + READ_CHUNK,
                _ => MAX_LINE_BYTES + MAX_LINE_BYTES,
            };
            prop_assert!(transcript.max_buffered <= bound, "held {}", transcript.max_buffered);
            prop_assert!(transcript.closed, "EOF always ends the conversation");
        }
    }
}
