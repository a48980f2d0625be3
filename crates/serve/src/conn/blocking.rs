//! The thread-per-connection driver: one [`Conn`] per thread, blocking
//! reads, blocking work run in place. It is the only driver a router has,
//! the one every text/HTTP connection of a shard is handed to, and the
//! shard's whole front end on a platform without a poller.

use super::{Conn, Reply, ReplySink, Service, POLL, READ_CHUNK};
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// The connection threads a hop has spawned, reaped on `join`.
#[derive(Default)]
pub struct ConnThreads {
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Set when a reaped thread had panicked, so `join` can still report it
    /// after the handle itself is gone.
    reaped_panic: AtomicBool,
}

impl ConnThreads {
    /// Tracks a spawned thread, reaping the finished ones as it goes so a
    /// long-lived hop over many short connections does not accumulate
    /// `JoinHandle`s forever.
    pub fn register(&self, handle: JoinHandle<()>) {
        let mut handles = self.handles.lock().unwrap();
        let mut live = Vec::with_capacity(handles.len() + 1);
        for thread in handles.drain(..) {
            if !thread.is_finished() {
                live.push(thread);
            } else if thread.join().is_err() {
                self.reaped_panic.store(true, Ordering::SeqCst);
            }
        }
        live.push(handle);
        *handles = live;
    }

    /// Joins every tracked thread; `Err` if any of them — now or reaped
    /// earlier — panicked.
    pub fn join(&self) -> std::thread::Result<()> {
        let mut result = Ok(());
        for thread in self.handles.lock().unwrap().drain(..) {
            if let Err(panic) = thread.join() {
                result = Err(panic);
            }
        }
        if result.is_ok() && self.reaped_panic.load(Ordering::SeqCst) {
            result = Err(Box::new("a connection thread panicked (reaped mid-run)"));
        }
        result
    }

    /// Serves `stream` on a fresh thread named `name`. `conn` carries the
    /// bytes another driver already read, if any.
    pub fn spawn<S: Service>(&self, name: &str, service: S, stream: TcpStream, conn: Option<Conn>) {
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || serve(service, stream, conn));
        // On a failed spawn the connection is simply dropped.
        if let Ok(handle) = thread {
            self.register(handle);
        }
    }
}

/// Accepts until `service` reports the hop stopping, one thread per
/// connection.
pub fn accept_loop<S: Service>(
    mut service: S,
    listener: &TcpListener,
    threads: &ConnThreads,
    name: &str,
) {
    while service.tick() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Request/response in single lines: never wait on Nagle.
                stream.set_nodelay(true).ok();
                threads.spawn(name, service.clone(), stream, None);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

struct ChannelSink(mpsc::Sender<Reply>);

impl ReplySink for ChannelSink {
    fn push(&self, reply: Reply) {
        // The receiver outlives every request its connection admitted.
        let _ = self.0.send(reply);
    }
}

/// Drives one connection to its end on the calling thread.
pub fn serve<S: Service>(mut service: S, stream: TcpStream, conn: Option<Conn>) {
    // Short read timeouts keep the thread responsive to shutdown while the
    // client is idle.
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let (tx, rx) = mpsc::channel();
    let sink = Arc::new(ChannelSink(tx));
    let mut conn = match conn {
        Some(mut conn) => {
            conn.rebind(0, sink);
            conn
        }
        None => Conn::new(0, sink),
    };
    let mut buf = [0u8; READ_CHUNK];
    loop {
        while let Some((to, request)) = conn.admit_next(&mut service) {
            let handled = service.call(request, to.wire());
            conn.complete(to.encode(handled));
        }
        // Deferred work finishes on other threads: collect all of it before
        // writing, so a pipelined burst still leaves in one vectored write.
        if conn.in_flight() > 0 {
            conn.complete(rx.recv().expect("the connection holds a sender"));
            continue;
        }
        if conn.flush(&mut &stream).is_err() {
            // The client died mid-burst: the answers were computed but can
            // never be delivered.
            service.counters().aborted(conn.orphaned());
            return;
        }
        if conn.finished() {
            return;
        }
        match (&stream).read(&mut buf[..conn.read_hint()]) {
            Ok(0) => conn.eof(),
            Ok(n) => conn.feed(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !service.tick() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}
