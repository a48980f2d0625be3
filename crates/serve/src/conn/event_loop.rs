//! The readiness-driven driver: many connection cores on one thread.
//!
//! One `pitex-evloop` thread owns the listener and every pipelined binary
//! connection behind an epoll-backed poller (the vendored [`polling`]
//! shim), registered **level-triggered**: interest stays armed across
//! deliveries, so the steady-state round trip costs no `epoll_ctl` at all
//! — the loop caches each connection's armed interest and issues a
//! `modify` only when it actually changes (a partial write, a drain, a
//! close). Like every driver it only moves bytes: the protocol lives in
//! the [`Conn`] core, the verbs behind the [`Service`]. What is this
//! driver's own:
//!
//! * **Hand-off** — a connection the core sniffs as text or HTTP leaves
//!   the loop for a [`blocking::serve`] thread, core and buffered bytes
//!   included: a scrape must not queue behind an admin fold on the single
//!   slow lane.
//! * **Slow lane** — what the service hands back as blocking work (admin
//!   folds, `STATS`/`EPOCH`/`HEALTH` scrapes) runs on one side thread so
//!   it can never stall the loop. No query verb is blocking work: `QUERY`,
//!   `EXPLAIN` and `TRACE` answer inline — a small miss included, which
//!   the shard runs on this thread under a certified work bound — or ride
//!   the worker pool.
//! * **Per-epoch frame** — the loop runs each wake through
//!   [`Service::on_loop`], so a service can pin per-epoch state (the
//!   shard's inline engines) on this thread's stack and admit through it.
//! * **Completion queue** — workers and the slow lane finish requests on
//!   their own threads and push the encoded reply to a mutex-guarded
//!   queue, waking the loop through the poller's `eventfd` notifier. A
//!   completion whose connection has since died is dropped and counted
//!   under `conn_aborted` — keys are monotonically assigned and never
//!   reused, so a late reply can never reach the wrong client.

use crate::conn::blocking::{self, ConnThreads};
use crate::conn::{
    Admission, Conn, Handled, Reply, ReplySink, ReplyTo, Service, Wire, POLL, READ_CHUNK,
};
use crate::protocol::{ErrorCode, Request, Response};
use polling::{Event, Events, PollMode, Poller};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The poller key reserved for the listener; connections start at 1.
const LISTENER_KEY: usize = 0;

/// What worker threads and the slow lane share with the loop: the poller
/// (for `notify`) and the completed-reply queue.
struct LoopShared {
    poller: Poller,
    completions: Mutex<Vec<Reply>>,
}

impl ReplySink for LoopShared {
    fn push(&self, reply: Reply) {
        self.completions.lock().unwrap().push(reply);
        // A failed wake-up is harmless: the loop also wakes on its POLL
        // timeout and drains the queue then.
        let _ = self.poller.notify();
    }
}

impl LoopShared {
    fn drain(&self) -> Vec<Reply> {
        std::mem::take(&mut *self.completions.lock().unwrap())
    }
}

/// One connection on the loop: its socket, its core, and the
/// `(readable, writable)` interest currently armed in the poller.
/// Registrations are level-triggered, so the interest only changes on a
/// partial write, a half-close, or a drain — the cache is what lets the
/// steady state skip `epoll_ctl` entirely.
struct Slot {
    stream: TcpStream,
    conn: Conn,
    armed: (bool, bool),
}

/// The loop's own state across wakes: everything but the admission, which
/// the service lends wake by wake ([`Service::on_loop`]).
struct Front<'a, S> {
    lp: &'a Arc<LoopShared>,
    listener: &'a TcpListener,
    threads: &'a ConnThreads,
    conn_thread: &'a str,
    slow_tx: mpsc::Sender<(ReplyTo, Request)>,
    /// What each hand-off thread's service is cloned from; it never
    /// admits, so nothing it would pin per wake is ever built.
    spare: S,
    slots: HashMap<usize, Slot>,
    next_key: usize,
    events: Events,
    dirty: Vec<usize>,
}

/// Runs the event loop until the service reports the hop stopping. Falls
/// back to the thread-per-connection driver when the platform has no
/// poller.
pub fn run<S: Service>(
    mut service: S,
    listener: TcpListener,
    threads: &ConnThreads,
    conn_thread: &str,
) {
    let registered = Poller::new().and_then(|poller| {
        // Level-triggered: as long as accepts are drained to `WouldBlock`
        // (they are — see `accept_burst`), the listener never needs
        // re-arming.
        // SAFETY: the listener is never dropped while registered and
        // waited on: it is closed only when `run` returns, after the last
        // `wait`, and closing it removes it from the epoll set.
        unsafe { poller.add_with_mode(&listener, Event::readable(LISTENER_KEY), PollMode::Level) }?;
        Ok(poller)
    });
    let Ok(poller) = registered else {
        return blocking::accept_loop(service, &listener, threads, conn_thread);
    };
    let lp = Arc::new(LoopShared { poller, completions: Mutex::new(Vec::new()) });

    let (slow_tx, slow_rx) = mpsc::channel();
    {
        let service = service.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name("pitex-slowlane".to_string())
            .spawn(move || slow_lane(service, &slow_rx))
        {
            threads.register(handle);
        }
    }

    let mut front = Front {
        lp: &lp,
        listener: &listener,
        threads,
        conn_thread,
        slow_tx,
        spare: service.clone(),
        slots: HashMap::new(),
        next_key: LISTENER_KEY + 1,
        events: Events::new(),
        dirty: Vec::new(),
    };
    service.on_loop(&mut |admission| front.wake(admission));
    // A binary SHUTDOWN's BYE rides the completion queue and may not have
    // been drained yet — deliver what is (or is about to be) queued and
    // flush before going down, so binary clients see an orderly reply
    // stream, not an abrupt EOF, exactly as text clients get their Bye
    // line before the stop.
    shutdown_flush(&lp, &mut front.slots);
}

impl<S: Service> Front<'_, S> {
    /// One wake: wait for readiness, deliver completions, admit what the
    /// ready connections sent, flush. `false` once the hop is stopping.
    fn wake(&mut self, service: &mut dyn Admission) -> bool {
        self.events.clear();
        let _ = self.lp.poller.wait(&mut self.events, Some(POLL));
        // Once per wake: refresh the per-thread state, the spare's too.
        self.spare.tick();
        if !service.tick() {
            return false;
        }

        self.dirty.clear();
        for reply in self.lp.drain() {
            match self.slots.get_mut(&reply.key) {
                Some(slot) => {
                    self.dirty.push(reply.key);
                    slot.conn.complete(reply);
                }
                // The connection died while its reply was being computed.
                None => service.counters().aborted(1),
            }
        }

        for event in self.events.iter() {
            if event.key == LISTENER_KEY {
                accept_burst(self.lp, self.listener, &mut self.slots, &mut self.next_key);
                continue;
            }
            let Some(slot) = self.slots.get_mut(&event.key) else { continue };
            match conn_event(service, &self.slow_tx, slot, event.readable) {
                Outcome::Keep => self.dirty.push(event.key),
                Outcome::HandOff => {
                    let Slot { stream, conn, .. } =
                        self.slots.remove(&event.key).expect("present above");
                    let _ = self.lp.poller.delete(&stream);
                    self.threads.spawn(self.conn_thread, self.spare.clone(), stream, Some(conn));
                }
                Outcome::Drop => drop_slot(self.lp, service, &mut self.slots, event.key),
            }
        }

        self.dirty.sort_unstable();
        self.dirty.dedup();
        for &key in &self.dirty {
            flush_and_rearm(self.lp, service, &mut self.slots, key);
        }
        true
    }
}

/// The last act before the loop exits on stop: give already-dispatched
/// requests a brief, bounded window to complete (the SHUTDOWN that set the
/// stop flag has its BYE in flight on the slow lane at this very moment),
/// deliver every queued completion, and best-effort flush each
/// connection's pending output. Writes are nonblocking; a peer that will
/// not take its reply is abandoned — shutdown never stalls on a client.
fn shutdown_flush(lp: &LoopShared, slots: &mut HashMap<usize, Slot>) {
    let deadline = Instant::now() + POLL;
    loop {
        for reply in lp.drain() {
            if let Some(slot) = slots.get_mut(&reply.key) {
                slot.conn.complete(reply);
            }
        }
        if !slots.values().any(|slot| slot.conn.in_flight() > 0) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for slot in slots.values_mut() {
        let _ = slot.conn.flush(&mut &slot.stream);
    }
}

/// The slow-lane thread: runs every blocking request with the service's
/// own handler, then queues the encoded reply back to the loop.
fn slow_lane<S: Service>(mut service: S, slow_rx: &mpsc::Receiver<(ReplyTo, Request)>) {
    loop {
        match slow_rx.recv_timeout(POLL) {
            Ok((to, request)) => to.deliver(service.call(request, to.wire())),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !service.tick() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Accepts until the listener would block. Draining fully is what lets the
/// level-triggered listener registration go without re-arms.
fn accept_burst(
    lp: &Arc<LoopShared>,
    listener: &TcpListener,
    slots: &mut HashMap<usize, Slot>,
    next_key: &mut usize,
) {
    while let Ok((stream, _peer)) = listener.accept() {
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let key = *next_key;
        *next_key += 1;
        // SAFETY: the stream is `delete`d before it is dropped — on
        // hand-off, in `drop_slot`, on retirement; the ones left when the
        // loop returns are closed after the last `wait`, which removes
        // them from the epoll set.
        if unsafe { lp.poller.add_with_mode(&stream, Event::readable(key), PollMode::Level) }
            .is_ok()
        {
            let conn = Conn::new(key, lp.clone());
            slots.insert(key, Slot { stream, conn, armed: (true, false) });
        }
    }
}

/// What one connection event resolved to.
enum Outcome {
    /// Still on the loop — flush and re-arm.
    Keep,
    /// Sniffed as text/HTTP: hand the connection to a blocking thread.
    HandOff,
    /// Dead (torn read): drop it.
    Drop,
}

/// Handles one readiness event on a connection: drain the socket into the
/// core and admit the whole burst.
fn conn_event(
    service: &mut dyn Admission,
    slow_tx: &mpsc::Sender<(ReplyTo, Request)>,
    slot: &mut Slot,
    readable: bool,
) -> Outcome {
    let Slot { stream, conn, .. } = slot;
    if !readable || !conn.wants_read() {
        return Outcome::Keep;
    }
    let mut buf = [0u8; READ_CHUNK];
    loop {
        let want = conn.read_hint();
        match (&*stream).read(&mut buf[..want]) {
            Ok(0) => {
                conn.eof();
                break;
            }
            Ok(n) => {
                conn.feed(&buf[..n]);
                // A short read means the socket buffer is drained — skip
                // the read that would only return `WouldBlock`. Safe
                // *because* the registration is level-triggered: bytes
                // arriving after this instant re-report on the next wait.
                if n < want {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Outcome::Drop,
        }
    }
    match conn.wire() {
        Some(Wire::Frame) => {}
        Some(_) => return Outcome::HandOff,
        // Still fewer than 4 bytes, all matching the magic: wait for more
        // unless the peer is gone (a torn prefix is never a request).
        None => return if conn.wants_read() { Outcome::Keep } else { Outcome::Drop },
    }
    while let Some((to, request)) = conn.admit_next(service) {
        if let Err(mpsc::SendError((to, _))) = slow_tx.send((to, request)) {
            let message = "server is shutting down".to_string();
            let response = Response::Err { code: ErrorCode::Internal, message };
            conn.complete(to.encode(Handled::Reply(response, false)));
        }
    }
    Outcome::Keep
}

/// Removes a dead connection, booking its undeliverable replies.
fn drop_slot(
    lp: &LoopShared,
    service: &dyn Admission,
    slots: &mut HashMap<usize, Slot>,
    key: usize,
) {
    if let Some(slot) = slots.remove(&key) {
        // Queued-but-unwritten frames are completed replies with nowhere
        // to go; in-flight ones are counted when their completion finds
        // the key gone.
        service.counters().aborted(slot.conn.orphaned());
        let _ = lp.poller.delete(&slot.stream);
    }
}

/// Flushes a touched connection and updates its level-triggered interest —
/// or retires it when it is done (or its peer is gone). The armed interest
/// is cached on the slot, so the steady state (reply flushed whole, still
/// reading) issues zero `epoll_ctl` calls.
fn flush_and_rearm(
    lp: &LoopShared,
    service: &dyn Admission,
    slots: &mut HashMap<usize, Slot>,
    key: usize,
) {
    let Some(slot) = slots.get_mut(&key) else { return };
    if slot.conn.flush(&mut &slot.stream).is_err() {
        return drop_slot(lp, service, slots, key);
    }
    if slot.conn.finished() {
        let slot = slots.remove(&key).expect("present above");
        let _ = lp.poller.delete(&slot.stream);
        return;
    }
    // `(readable, writable)`: writable only while a partial write is
    // stuck; with no interest at all, completions re-arm via the dirty
    // pass when they land.
    let want = (slot.conn.wants_read(), slot.conn.has_output());
    if want == slot.armed {
        return;
    }
    let interest = Event { key, readable: want.0, writable: want.1 };
    if lp.poller.modify_with_mode(&slot.stream, interest, PollMode::Level).is_ok() {
        slot.armed = want;
    } else {
        drop_slot(lp, service, slots, key);
    }
}
