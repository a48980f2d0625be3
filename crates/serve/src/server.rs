//! The multi-threaded query server.
//!
//! Topology: the hop runtime ([`crate::hop`]: the front end that only moves
//! bytes — the epoll loop, or the thread-per-connection driver where there
//! is no poller — the sampler, the obs bundle and the hop-local verbs), the
//! `ShardService` behind the connection core's `Service` seam, and a fixed
//! pool of worker threads that each own a private
//! [`PitexEngine`] built from the shared [`EngineHandle`] (the engine's
//! `&mut self` memoisation stays single-threaded by construction).
//! Connections and workers meet at a *bounded* job queue: when it is full
//! the connection answers `BUSY` immediately instead of queueing
//! unboundedly — under overload the server sheds load and stays responsive
//! rather than building latency.
//!
//! Each request carries a deadline (client-supplied `timeout_us` or the
//! server default). A request that is still queued when its deadline passes
//! is answered `ERR DEADLINE` without running — protecting the pool from
//! doing work nobody is waiting for anymore.
//!
//! The `(user, k, backend)` result cache is consulted at admission,
//! *before* the queue: repeated queries never cost a queue slot or a
//! sampling pass. A miss is deferred to the workers unless it is smaller
//! than the hand-off: on the event loop's own thread, a miss whose backend
//! certifies a work bound ([`EngineHandle::work_bound`]) within what is
//! left of this wake's [`INLINE_WORK`] runs right there, on an engine the
//! loop pins per epoch, exactly as a worker would run it
//! (`queries_inline` counts them).
//!
//! Shutdown is graceful: `ServerHandle::shutdown` (or the `SHUTDOWN` verb)
//! stops the acceptor, lets workers drain in-flight jobs, unblocks idle
//! connections, and `join` reaps every thread.
//!
//! ## Live updates
//!
//! The server no longer freezes its snapshots at startup. A
//! [`pitex_live::SnapshotStore`] holds the current [`EngineHandle`] under a
//! monotone epoch; `UPDATE` stages typed mutations in a
//! [`pitex_live::ModelOverlay`], and `RELOAD` folds them into a fresh
//! model, repairs the RR-index incrementally
//! ([`pitex_live::repair_rr_index`]) and swaps the snapshot — all while
//! queries keep flowing against the old epoch (workers poll the epoch with
//! one atomic load between requests and rebuild their private engines
//! lazily). Swap-time cache coherence has two halves: (1) after the swap
//! the cache is swept with [`ShardedLru::invalidate_if`], scoped to the
//! users whose answers can actually change (everyone on a tag mutation or
//! full rebuild); (2) a result computed against an older epoch is never
//! inserted — the connection re-checks the epoch at insert time, and the
//! sweep runs after the swap, so the stale-insert race is closed from both
//! sides.

use crate::conn::{Admission, Admit, Handled, ReplyTo, Service, Wire, WireCounters, POLL};
use crate::hop::{self, Hop, HopHandle, RequestRecord};
use crate::protocol::{
    ErrorCode, ExplainReply, QueryReply, ReloadReply, Request, Response, StatsReply, TraceReply,
};
use pitex_core::plan::PlanDecision;
use pitex_core::registry::{self, CacheScope, INLINE_WORK};
use pitex_core::{EngineBackend, EngineHandle, PitexEngine};
use pitex_index::DelayMatIndex;
use pitex_live::{
    repair_rr_index, replay, CommittedBatch, ModelOverlay, RepairOptions, Snapshot, SnapshotStore,
    SyncBundle, UpdateOp, Wal, WalError, WalOptions, WalRecovery, WalTimings,
};
use pitex_model::{TagSet, TicModel};
use pitex_support::lru::ShardedLru;
use pitex_support::obs::slo::SHARD_NAMES;
use pitex_support::obs::{
    env, knob, mint_trace_id, render_prometheus, CaptureOptions, Counter, FieldSet, Gauge,
    Registry, SpanRecorder,
};
use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::spawn`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads, each with a private engine. At least 1.
    pub workers: usize,
    /// Bounded request-queue depth; a full queue answers `BUSY`.
    pub queue_depth: usize,
    /// Deadline applied when a `QUERY` carries no `timeout_us`. Must be
    /// non-zero (zero would refuse every such query): [`Server::spawn`]
    /// refuses it with `InvalidInput`.
    pub default_deadline: Duration,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Whether the admin verbs (`UPDATE`, `RELOAD`, `EPOCH`) are served;
    /// when false they answer `ERR ADMIN_DENIED`.
    pub admin: bool,
    /// Tuning for incremental index repair on `RELOAD` (threads and the
    /// dirty-fraction rebuild threshold). The sample budget and seed are
    /// not configurable here: they travel inside the index artifact, so a
    /// repair always runs under the parameters the index was built with.
    pub repair: RepairOptions,
    /// Directory for the durable update log (WAL). `None` disables
    /// durability: acked `UPDATE`s live only in memory, exactly as before.
    /// With a WAL, every `UPDATE` is fsynced before its ack, boot replays
    /// the recovered history (restoring the pre-crash epoch), and the log
    /// compacts into a base snapshot past the [`WalOptions`] bounds.
    pub wal: Option<PathBuf>,
    /// Workload-capture override for tests and embedders; `None` reads
    /// `PITEX_OBS_CAPTURE` / `PITEX_OBS_CAPTURE_RATE` from the
    /// environment at spawn.
    pub capture: Option<CaptureOptions>,
    /// Which driver fronts the server. `None` is the platform default:
    /// the epoll event loop (binary `PFRM` clients stay on it; text and
    /// HTTP clients are handed to per-connection threads) wherever a
    /// poller can be had, the thread-per-connection driver elsewhere.
    /// `Some(false)` forces the latter — the seam
    /// `binary_protocol_round_trips_on_the_blocking_acceptor` uses to
    /// exercise the portable fallback on Linux CI; `Some(true)` is the
    /// default spelled out (stackbench names it). Not an operator knob.
    pub event_loop: Option<bool>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            default_deadline: Duration::from_secs(5),
            cache_capacity: 1024,
            admin: true,
            repair: RepairOptions::default(),
            wal: None,
            capture: None,
            event_loop: None,
        }
    }
}

/// What the cache stores per `(user, k, backend)` key.
#[derive(Clone)]
struct CachedAnswer {
    tags: TagSet,
    spread: f64,
}

/// One queued `QUERY`, `EXPLAIN` or `TRACE`, ready for a worker. The
/// backend is already resolved (admission planned `auto` before the cache
/// probe, so the cache key and the execution agree).
struct Job {
    /// When the connection enqueued the job — the worker reports the
    /// dequeue delta back as the `queue` trace span.
    enqueued: Instant,
    sink: QuerySink,
}

/// A deferred request's way home. The worker finishes the request (cache,
/// counters, recording) and delivers the encoded reply through the
/// request's [`ReplyTo`], whichever driver holds the connection — no
/// thread blocks per in-flight request. A sink dropped without delivering
/// (worker pool drained at shutdown) still completes the request with an
/// error so the client is never left waiting on a swallowed id.
struct QuerySink {
    shared: Arc<Shared>,
    to: ReplyTo,
    ctx: Option<QueryCtx>,
}

impl QuerySink {
    fn ctx(&self) -> &QueryCtx {
        self.ctx.as_ref().expect("a queued request is undelivered")
    }

    fn deliver(mut self, reply: WorkerReply) {
        if let Some(ctx) = self.ctx.take() {
            let response = complete_query(&self.shared, ctx, reply);
            self.to.deliver(Handled::Reply(response, false));
        }
    }
}

impl Drop for QuerySink {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            // The shutdown race: every worker exited while this was queued.
            let message = "server is shutting down".to_string();
            let response =
                ctx.fail(&self.shared, Response::Err { code: ErrorCode::Internal, message });
            self.to.deliver(Handled::Reply(response, false));
        }
    }
}

/// Where a dispatched request's time went, as the worker measured it: the
/// enqueue instant and the queue wait (the `queue` trace span) and the
/// execution time (what feeds the planner EWMA, the `EXPLAIN` actual-cost
/// field and the `execute` trace span).
#[derive(Clone, Copy)]
struct Run {
    enqueued: Instant,
    queue_us: u64,
    exec_us: u64,
}

enum WorkerReply {
    /// A computed answer, stamped with the epoch it was computed under so
    /// completion can refuse to cache results from a superseded world.
    Done {
        tags: TagSet,
        spread: f64,
        epoch: u64,
        run: Run,
    },
    Deadline,
    Panicked,
    /// The resolved backend could not be constructed on this snapshot
    /// (only reachable if an admin swaps in a snapshot with fewer
    /// artifacts than the one the request was validated against).
    Unavailable(String),
}

/// The shard's own counters, registered in its hop's registry next to the
/// request counters and the latency histogram the hop runtime keeps.
struct Counters {
    worker_panics: Counter,
    /// Misses the event loop ran on its own thread.
    queries_inline: Counter,
    /// `UPDATE` ops accepted into the overlay since boot.
    updates_applied: Counter,
    /// Ops currently staged (mirrors `overlay.pending()` so `STATS` never
    /// has to take the overlay lock, which `RELOAD` holds across repair).
    updates_pending: Gauge,
    /// Snapshot swaps performed (`RELOAD`s that folded at least one op).
    reloads: Counter,
    /// Boot-time WAL replay: committed batches, ops, torn-tail bytes.
    wal_replayed_records: Counter,
    wal_replayed_ops: Counter,
    wal_truncated_bytes: Counter,
    wal_compactions: Counter,
    /// `SYNC` requests answered with a bundle.
    sync_served: Counter,
}

impl Counters {
    fn register(registry: &Registry) -> Self {
        Self {
            worker_panics: registry.counter("worker_panics"),
            queries_inline: registry.counter("queries_inline"),
            updates_applied: registry.counter("updates_applied"),
            updates_pending: registry.gauge("updates_pending"),
            reloads: registry.counter("reloads"),
            wal_replayed_records: registry.counter("wal_replayed_records"),
            wal_replayed_ops: registry.counter("wal_replayed_ops"),
            wal_truncated_bytes: registry.counter("wal_truncated_bytes"),
            wal_compactions: registry.counter("wal_compactions"),
            sync_served: registry.counter("sync_served"),
        }
    }
}

/// A reload that has been folded and repaired but not yet swapped in —
/// the `PREPARE` half of a two-phase (cluster-coordinated) reload.
struct StagedReload {
    new_model: Arc<TicModel>,
    handle: EngineHandle,
    affected: Option<Vec<u32>>,
    dirty_members: Option<Vec<u32>>,
    /// The `PREPARED`/`RELOADED` fields; `epoch` is stamped at reply time
    /// (current epoch while staged, the new epoch once committed).
    reply: ReloadReply,
}

/// Admin-verb state: staged-but-not-yet-folded mutations plus an optional
/// prepared (folded + repaired, not yet swapped) snapshot. One lock
/// serializes admin verbs against each other — the query path never
/// touches it.
struct AdminState {
    overlay: ModelOverlay,
    staged: Option<StagedReload>,
    /// The durable log, when the server was spawned with a WAL directory.
    /// Lives under the admin lock: every append happens while the op (or
    /// swap) that warrants it is being processed.
    wal: Option<Wal>,
    /// In-memory committed history for `SYNC`: every epoch transition
    /// since `history_base`, kept even without a WAL so a single healthy
    /// peer can heal a whole quarantined shard.
    history: Vec<CommittedBatch>,
    /// Epoch the history starts after — `SYNC <e>` with `e < history_base`
    /// cannot be served (the suffix was trimmed or compacted away).
    history_base: u64,
}

/// Everything the acceptor, connections and workers share.
struct Shared {
    hop: Arc<Hop>,
    /// The epoch-versioned snapshot currently being served.
    store: SnapshotStore,
    admin_state: Mutex<AdminState>,
    /// Mirrors `admin_state.staged.is_some()` so `STATS` never has to take
    /// the admin lock (a slow PREPARE holds it across index repair).
    prepared: AtomicBool,
    options: ServeOptions,
    cache: ShardedLru<(u32, usize, EngineBackend), CachedAnswer>,
    counters: Counters,
    /// The WAL's append/fsync/compaction histograms, read by `STATS`
    /// without the admin lock.
    wal_timings: WalTimings,
    /// Fault injection (`PITEX_OBS_STALL_US`, 0 = off): every query's
    /// execute phase sleeps this long on the worker. Exists so health
    /// drills — tests, CI, operators rehearsing an incident — can produce
    /// a sustained, attributable latency degradation on demand.
    stall_us: u64,
}

/// What boot-time WAL recovery hands to [`Server::spawn`]: the (possibly
/// replayed) engine handle, the epoch to resume at, and the history the
/// `SYNC` verb serves from.
struct BootState {
    handle: EngineHandle,
    wal: Option<Wal>,
    epoch: u64,
    history: Vec<CommittedBatch>,
    history_base: u64,
    pending: Vec<UpdateOp>,
    replayed_records: u64,
    replayed_ops: u64,
    truncated_bytes: u64,
}

/// WAL failures surface as boot errors: corruption must stop the server,
/// not demote it to an amnesiac fresh start.
fn wal_to_io(e: WalError) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, e.to_string())
}

/// Replays a recovered WAL over the engine the server was spawned with:
/// fold the committed batches over the recovered base (or the spawn
/// model when no `base.snap` exists), rebuild whatever indexes the
/// backend holds — incremental repair is bit-identical to a rebuild, so
/// the replayed replica converges to the same artifacts as a peer that
/// took the ops live — and resume at the recovered epoch.
fn restore_from_wal(
    handle: EngineHandle,
    recovery: WalRecovery,
    repair: &RepairOptions,
) -> std::io::Result<BootState> {
    let replayed_records = recovery.committed.len() as u64;
    let truncated_bytes = recovery.truncated_bytes;
    let epoch = recovery.epoch();
    let had_snapshot = recovery.base_model.is_some();
    let history = recovery.committed;
    let history_base = recovery.base_epoch;
    let pending = recovery.pending;

    let base: Arc<TicModel> = match recovery.base_model {
        Some(model) => Arc::new(model),
        None => handle.model().clone(),
    };
    // No compacted base and no committed mutations: the spawn model *is*
    // the recovered world — resume its epoch without rebuilding anything.
    if !had_snapshot && history.iter().all(|b| b.ops.is_empty()) {
        return Ok(BootState {
            handle,
            wal: None,
            epoch,
            history,
            history_base,
            pending,
            replayed_records,
            replayed_ops: 0,
            truncated_bytes,
        });
    }

    let (new_model, replayed_ops) = replay(base, &history).map_err(wal_to_io)?;
    let new_model = Arc::new(new_model);

    let rr_index = handle.rr_index().map(|old_rr| {
        let (repaired, _report) = repair_rr_index(old_rr, handle.model(), &new_model, repair);
        Arc::new(repaired)
    });
    let delay_index = handle.delay_index().map(|old| {
        Arc::new(DelayMatIndex::build_with_threads(
            &new_model,
            old.budget(),
            old.seed(),
            repair.threads.max(1),
        ))
    });
    let new_handle = EngineHandle::with_indexes(
        new_model,
        handle.backend(),
        rr_index,
        delay_index,
        *handle.config(),
    )
    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    new_handle.planner().inherit(handle.planner());

    Ok(BootState {
        handle: new_handle,
        wal: None,
        epoch,
        history,
        history_base,
        pending,
        replayed_records,
        replayed_ops,
        truncated_bytes,
    })
}

/// Namespace for [`Server::spawn`].
pub struct Server;

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port), spawns the acceptor
    /// and `options.workers` workers, and returns immediately.
    pub fn spawn(
        handle: EngineHandle,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> std::io::Result<ServerHandle> {
        let stall_us = knob(&env, "PITEX_OBS_STALL_US")?.unwrap_or(0);
        Ok(Self::spawn_stalled(handle, addr, options, stall_us)?.0)
    }

    /// [`spawn`](Self::spawn) with the stall injector set here instead of
    /// read from the process-wide environment, which concurrent tests share.
    fn spawn_stalled(
        handle: EngineHandle,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
        stall_us: u64,
    ) -> std::io::Result<(ServerHandle, Arc<Shared>)> {
        if options.default_deadline.is_zero() {
            let message = "ServeOptions::default_deadline must be non-zero";
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, message));
        }
        // The obs knobs are read here, so a value they cannot take refuses
        // the boot before the WAL directory is created or replayed.
        let hop = Arc::new(Hop::new(&SHARD_NAMES, options.capture.clone(), options.admin)?);
        let listener = hop::bind(addr)?;
        let workers = options.workers.max(1);
        let queue_depth = options.queue_depth.max(1);

        // With a WAL directory, recover the durable history before serving:
        // replay it over the recovered base, rebuild the indexes (repair is
        // bit-identical to a rebuild), and resume at the pre-crash epoch.
        // Corruption is a loud boot failure — a replica must not serve from
        // a log it cannot trust.
        let wal_boot = match &options.wal {
            Some(dir) => {
                let (wal, recovery) =
                    Wal::open(dir, 1, WalOptions::default()).map_err(wal_to_io)?;
                Some((wal, recovery))
            }
            None => None,
        };
        let boot = match wal_boot {
            Some((wal, recovery)) => {
                let boot = restore_from_wal(handle, recovery, &options.repair)?;
                BootState { wal: Some(wal), ..boot }
            }
            None => BootState {
                handle,
                wal: None,
                epoch: 1,
                history: Vec::new(),
                history_base: 1,
                pending: Vec::new(),
                replayed_records: 0,
                replayed_ops: 0,
                truncated_bytes: 0,
            },
        };
        let BootState {
            handle,
            mut wal,
            epoch,
            history,
            history_base,
            pending,
            replayed_records,
            replayed_ops,
            truncated_bytes,
        } = boot;

        // The WAL records its append/fsync/compaction timings into
        // histograms the stats path can read without the admin lock.
        let wal_timings = WalTimings::default();
        if let Some(wal) = wal.as_mut() {
            wal.set_timings(wal_timings.clone());
        }

        let mut overlay = ModelOverlay::new(handle.model().clone());
        for op in pending {
            // These ops were validated before they were acked and logged;
            // the recovered base they extend is the same world.
            overlay.apply(op).map_err(|e| {
                std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("wal pending op no longer applies: {e}"),
                )
            })?;
        }
        let pending_count = overlay.pending() as u64;
        let shared = Arc::new(Shared {
            counters: Counters::register(&hop.registry),
            hop,
            cache: ShardedLru::with_shards(options.cache_capacity, workers.max(4)),
            store: SnapshotStore::new_at(handle, epoch),
            admin_state: Mutex::new(AdminState {
                overlay,
                staged: None,
                wal,
                history,
                history_base,
            }),
            prepared: AtomicBool::new(false),
            options,
            wal_timings,
            stall_us,
        });
        shared.counters.wal_replayed_records.add(replayed_records);
        shared.counters.wal_replayed_ops.add(replayed_ops);
        shared.counters.wal_truncated_bytes.add(truncated_bytes);
        shared.counters.updates_pending.set(pending_count);

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(queue_depth);
        let job_rx = Arc::new(Mutex::new(job_rx));

        let threads = (0..workers)
            .map(|id| {
                let (shared, job_rx) = (shared.clone(), job_rx.clone());
                hop::spawn(format!("pitex-worker-{id}"), move || worker_loop(&shared, &job_rx))
            })
            .collect::<std::io::Result<_>>()?;
        let fields = {
            let shared = shared.clone();
            move || stats_fields(&shared)
        };
        let event_loop = shared.options.event_loop != Some(false);
        let service = ShardService::new(shared.clone(), job_tx);
        let handle = shared.hop.start(listener, service, event_loop, fields, threads)?;
        Ok((handle, shared))
    }
}

/// A running server: [`Server::spawn`]'s handle.
pub type ServerHandle = HopHandle;

/// Why [`run_worker_epoch`] returned.
enum WorkerExit {
    /// Shutdown / pool drained: exit the thread.
    Stop,
    /// The epoch advanced: rebuild the engine from the fresh snapshot, and
    /// first run the job that was dequeued after the swap (running it on
    /// the old engine would break read-your-writes for the admin who just
    /// reloaded). Boxed: a job is large, and a swap is rare.
    Rebuild(Option<Box<Job>>),
}

fn worker_loop(shared: &Arc<Shared>, job_rx: &Arc<Mutex<mpsc::Receiver<Job>>>) {
    // One engine per worker: the shared snapshots are immutable, all mutable
    // state (memoisation cache, sampler scratch) is private to this thread.
    // The engine borrows a pinned snapshot; after a swap the worker drops
    // both and rebuilds from the new one — between requests, never during.
    let mut carried: Option<Job> = None;
    loop {
        let snapshot = shared.store.current();
        match run_worker_epoch(shared, &snapshot, job_rx, carried.take()) {
            WorkerExit::Stop => return,
            WorkerExit::Rebuild(job) => carried = job.map(|job| *job),
        }
    }
}

/// Serves jobs against one pinned snapshot until the epoch advances or the
/// pool shuts down.
fn run_worker_epoch(
    shared: &Arc<Shared>,
    snapshot: &Snapshot,
    job_rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    carried: Option<Job>,
) -> WorkerExit {
    let mut engines = no_engines();
    let mut next_job = carried;
    loop {
        let job = match next_job.take() {
            Some(job) => job,
            None => {
                let received = {
                    let rx = job_rx.lock().unwrap();
                    rx.recv_timeout(POLL)
                };
                match received {
                    Ok(job) => job,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if !shared.hop.running() {
                            return WorkerExit::Stop;
                        }
                        if shared.store.epoch() != snapshot.epoch {
                            return WorkerExit::Rebuild(None);
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => return WorkerExit::Stop,
                }
            }
        };
        // A job enqueued by a connection that already saw a newer epoch
        // must not run against this engine: hand it to the next epoch.
        // (A connection only observes the new epoch after the swap, and
        // the channel hand-off orders that observation before this load.)
        if shared.store.epoch() != snapshot.epoch {
            return WorkerExit::Rebuild(Some(Box::new(job)));
        }
        let reply = execute(shared, snapshot, &mut engines, job.sink.ctx(), Some(job.enqueued));
        job.sink.deliver(reply);
    }
}

/// One engine slot per backend, built lazily and reused: a fixed server
/// populates exactly one; an `auto` server (or per-request overrides)
/// grows one per backend the planner actually picks, so each keeps its
/// own memoisation cache warm.
type Engines<'s> = Vec<Option<PitexEngine<'s>>>;

fn no_engines<'s>() -> Engines<'s> {
    let mut engines = Vec::new();
    engines.resize_with(EngineBackend::ALL.len(), || None);
    engines
}

/// Runs one admitted miss against `snapshot` on `engines` — a worker's,
/// or the event loop's own — as every miss runs: the deadline check, the
/// stall injection, the panic fence and the planner's observation.
/// `enqueued` is when a worker's job was queued; an inline run was never
/// queued and books a 0 µs wait.
fn execute<'s>(
    shared: &Shared,
    snapshot: &'s Snapshot,
    engines: &mut Engines<'s>,
    ctx: &QueryCtx,
    enqueued: Option<Instant>,
) -> WorkerReply {
    if Instant::now() >= ctx.deadline {
        // Completion counts the DEADLINE outcome — counting here too
        // would double-book it (likewise every error below).
        return WorkerReply::Deadline;
    }
    // Queue wait ends here: everything after (engine build included) is
    // work done *for* this request, booked under its execute span.
    let (enqueued, queue_us) = match enqueued {
        Some(at) => (at, at.elapsed().as_micros() as u64),
        None => (Instant::now(), 0),
    };
    let (user, k, backend) = (ctx.user, ctx.k, ctx.resolved);
    let slot = backend as usize;
    if engines[slot].is_none() {
        match snapshot.handle.engine_for(backend) {
            Ok(engine) => engines[slot] = Some(engine),
            Err(e) => return WorkerReply::Unavailable(e.to_string()),
        }
    }
    let engine = engines[slot].as_mut().expect("filled above");
    let started = Instant::now();
    // Fault injection for health drills: the stall lands inside the
    // measured execute window, so it surfaces in lat_hist, the planner
    // EWMAs and the per-request execute span — exactly like a real
    // slowdown would.
    if shared.stall_us > 0 {
        std::thread::sleep(Duration::from_micros(shared.stall_us));
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.query(user, k)));
    match outcome {
        Ok(result) => {
            let exec_us = started.elapsed().as_micros() as u64;
            // Feed the measurement back into the planner's EWMA — this
            // is how `auto` converges on what this machine really costs.
            snapshot.handle.planner().observe(backend, exec_us);
            WorkerReply::Done {
                tags: result.tags,
                spread: result.spread,
                epoch: snapshot.epoch,
                run: Run { enqueued, queue_us, exec_us },
            }
        }
        Err(_) => {
            shared.counters.worker_panics.inc();
            // The engine may hold poisoned internal state; drop it so the
            // next request on this backend rebuilds from the snapshot.
            engines[slot] = None;
            WorkerReply::Panicked
        }
    }
}

/// The event loop's own engines, pinned to one epoch for as long as the
/// loop runs in [`ShardService::on_loop`]'s frame, and the certified work
/// they have run since the loop last woke.
struct Lane<'s> {
    snapshot: &'s Snapshot,
    engines: Engines<'s>,
    spent: u64,
}

impl<'s> Lane<'s> {
    fn new(snapshot: &'s Snapshot) -> Self {
        Self { snapshot, engines: no_engines(), spent: 0 }
    }

    /// Whether `ctx` runs here, and if so its work is booked against this
    /// wake: the service is still pinned to this lane's epoch, no stall is
    /// injected, and the backend certifies a work bound within what is
    /// left of [`INLINE_WORK`]. Everything else rides the worker pool.
    fn admits(&mut self, shared: &Shared, pinned: &Snapshot, ctx: &QueryCtx) -> bool {
        if shared.stall_us > 0 || pinned.epoch != self.snapshot.epoch {
            return false;
        }
        match self.snapshot.handle.work_bound(ctx.resolved, ctx.user, ctx.k) {
            Some(work) if work <= INLINE_WORK - self.spent => {
                self.spent += work;
                true
            }
            _ => false,
        }
    }

    /// Runs an admitted miss on the loop thread, exactly as a worker would.
    fn run(&mut self, shared: &Shared, ctx: QueryCtx) -> Response {
        shared.counters.queries_inline.inc();
        let reply = execute(shared, self.snapshot, &mut self.engines, &ctx, None);
        complete_query(shared, ctx, reply)
    }
}

/// The shard behind the connection core's [`Service`] seam: `PING`, cache
/// hits and admission errors answer inline, and so, on the event loop's own
/// thread, does a miss whose certified work is smaller than the hand-off
/// ([`Lane`]); every other `QUERY`, `EXPLAIN` and `TRACE` is deferred to the
/// worker pool, every other verb is blocking work. Each driver thread owns
/// a clone, and with it a pinned snapshot it refreshes without a lock.
#[derive(Clone)]
struct ShardService {
    shared: Arc<Shared>,
    job_tx: mpsc::SyncSender<Job>,
    snapshot: Arc<Snapshot>,
}

impl ShardService {
    fn new(shared: Arc<Shared>, job_tx: mpsc::SyncSender<Job>) -> Self {
        let snapshot = shared.store.current();
        Self { shared, job_tx, snapshot }
    }

    /// Re-pins the snapshot when a swap landed since the last request: one
    /// atomic load on the fast path, one `Arc` clone after a swap.
    fn repin(&mut self) {
        if self.shared.store.epoch() != self.snapshot.epoch {
            self.snapshot = self.shared.store.current();
        }
    }

    /// Admission through the hop's switch; `lane` is the event loop's own.
    fn admit_with(&mut self, request: Request, to: &ReplyTo, lane: Option<&mut Lane<'_>>) -> Admit {
        self.repin();
        self.shared.hop.admit(request, to, |request, to| self.admit_query(request, to, lane))
    }

    /// Admission of `QUERY`, `EXPLAIN` and `TRACE`: a cache hit or an
    /// admission error answers inline, a miss runs on `lane` when it
    /// admits it and is deferred to the workers otherwise.
    fn admit_query(&self, request: Request, to: &ReplyTo, lane: Option<&mut Lane<'_>>) -> Admit {
        let shared = &self.shared;
        let inline = |response| Admit::Inline(Handled::Reply(response, false));
        let ctx = match prepare_query(shared, &self.snapshot, &request) {
            PreparedQuery::Ready(response) => return inline(response),
            PreparedQuery::Dispatch(ctx) if !to.has_room() => {
                return inline(ctx.fail(shared, Response::Busy));
            }
            PreparedQuery::Dispatch(ctx) => ctx,
        };
        if let Some(lane) = lane {
            if lane.admits(shared, &self.snapshot, &ctx) {
                return inline(lane.run(shared, ctx));
            }
        }
        let sink = QuerySink { shared: shared.clone(), to: to.clone(), ctx: Some(ctx) };
        match self.job_tx.try_send(Job { enqueued: Instant::now(), sink }) {
            Ok(()) => Admit::Deferred,
            // Full queue or a draining pool: shed the request. The ctx
            // comes back out of the sink so the shed is booked here, not
            // by its Drop.
            Err(mpsc::TrySendError::Full(mut job))
            | Err(mpsc::TrySendError::Disconnected(mut job)) => {
                let ctx = job.sink.ctx.take().expect("undelivered");
                inline(ctx.fail(shared, Response::Busy))
            }
        }
    }
}

impl Admission for ShardService {
    fn counters(&self) -> WireCounters<'_> {
        self.shared.hop.counters()
    }

    fn tick(&mut self) -> bool {
        // Re-pin on the idle path too: without this a silent connection
        // would keep the superseded model + index snapshot alive
        // arbitrarily long after a swap.
        self.repin();
        self.shared.hop.running()
    }

    fn admit(&mut self, request: Request, to: &ReplyTo) -> Admit {
        self.admit_with(request, to, None)
    }
}

impl Service for ShardService {
    fn call(&mut self, request: Request, wire: Wire) -> Handled {
        self.repin();
        self.shared.hop.call(request, wire, |request| handle_request(&self.shared, request))
    }

    /// One frame per epoch, as a worker pins one: the lane's engines
    /// borrow `pinned`, and a wake that re-pinned the service to a newer
    /// epoch ends the frame, so the next one rebuilds them. Each wake
    /// starts with the whole [`INLINE_WORK`] budget.
    fn on_loop(&mut self, wake: &mut dyn FnMut(&mut dyn Admission) -> bool) {
        loop {
            let pinned = self.snapshot.clone();
            let mut lane = Lane::new(&pinned);
            loop {
                lane.spent = 0;
                if !wake(&mut OnLoop { service: self, lane: &mut lane }) {
                    return;
                }
                if self.snapshot.epoch != pinned.epoch {
                    break;
                }
            }
        }
    }
}

/// The event loop's admission: the shard's, with its [`Lane`].
struct OnLoop<'f, 's> {
    service: &'f mut ShardService,
    lane: &'f mut Lane<'s>,
}

impl Admission for OnLoop<'_, '_> {
    fn counters(&self) -> WireCounters<'_> {
        self.service.counters()
    }

    fn tick(&mut self) -> bool {
        self.service.tick()
    }

    fn admit(&mut self, request: Request, to: &ReplyTo) -> Admit {
        self.service.admit_with(request, to, Some(self.lane))
    }
}

/// The shard's own blocking verbs, behind the hop runtime's switch.
fn handle_request(shared: &Arc<Shared>, request: Request) -> Handled {
    let response = match request {
        Request::Stats => Response::Stats(StatsReply::new(stats_fields(shared))),
        Request::Metrics => {
            return Handled::Raw(render_prometheus(stats_fields(shared).into_iter()))
        }
        Request::Health => Response::Health(shared.hop.health()),
        Request::Update(op) => handle_update(shared, op),
        Request::Reload => handle_reload(shared),
        Request::Prepare => handle_prepare(shared),
        Request::Commit => handle_commit(shared),
        Request::Epoch => Response::Epoch(shared.store.epoch()),
        Request::Sync { from_epoch } => handle_sync(shared, from_epoch),
        Request::Discard => handle_discard(shared),
        _ => unreachable!("answered by the hop runtime or at admission"),
    };
    Handled::Reply(response, false)
}

/// What a query-shaped verb asks for beyond the answer. `QUERY` carries
/// nothing, so its path allocates nothing only the other two need.
enum QueryKind {
    Query,
    /// Bypasses the result cache (the point is a real measurement) and
    /// reports the planner's decision next to the answer: chosen backend,
    /// predicted vs. actual cost, degradation flag, rejected alternatives.
    Explain(PlanDecision),
    /// Serves exactly like `QUERY`, cache included, while recording a span
    /// timeline — plan (admission + backend resolution), cache (the probe),
    /// queue (enqueue-to-dequeue wait) and execute (the engine run) — all
    /// against the admission instant, so the client can lay them on a
    /// single time axis.
    Trace(SpanRecorder),
}

/// One admitted `QUERY`, `EXPLAIN` or `TRACE`: everything its completion
/// needs, detached from the connection so a worker can finish it on its
/// own thread.
struct QueryCtx {
    kind: QueryKind,
    verb: &'static str,
    /// Minted at admission unless a `TRACE` forwarded one with `id=` (the
    /// cluster router does, to span the net hop).
    trace_id: u64,
    user: u32,
    /// The effective k (clamped to the tag vocabulary).
    k: usize,
    requested: &'static str,
    resolved: EngineBackend,
    accepted: Instant,
    timeout: Duration,
    deadline: Instant,
}

/// What admission made of a query-shaped verb: either the answer is
/// already in hand (errors and cache hits — counted and recorded), or the
/// request is ready to dispatch to a worker.
enum PreparedQuery {
    Ready(Response),
    Dispatch(QueryCtx),
}

/// The one admission of `QUERY`, `EXPLAIN` and `TRACE`: validate user, k
/// and deadline; resolve the backend — a per-request override beats the
/// server's configured method, and `auto` (either way) asks the planner
/// with the *remaining* deadline budget, so a tight deadline degrades to a
/// cheaper backend instead of burning itself on the preferred one; then
/// probe the result cache, except for `EXPLAIN`. A request rejected here
/// never ran and books 0 µs, whichever its verb.
fn prepare_query(shared: &Arc<Shared>, snapshot: &Snapshot, request: &Request) -> PreparedQuery {
    let accepted = Instant::now();
    let verb = request.spec().name;
    let (q, trace_id) = match request {
        Request::Query(q) | Request::Explain(q) => (*q, mint_trace_id()),
        Request::Trace(t) => (t.query, t.trace_id.unwrap_or_else(mint_trace_id)),
        _ => unreachable!("admit prepares only the query verbs"),
    };
    let requested = q.backend.map_or("-", |b| b.cli_name());
    let reject = |code: ErrorCode, message: String| {
        let record =
            RequestRecord { trace_id, verb, user: q.user, k: q.k, requested, resolved: "-", us: 0 };
        PreparedQuery::Ready(shared.hop.finish(&record, "-", Response::Err { code, message }))
    };
    let model = snapshot.handle.model();
    if q.k == 0 {
        return reject(ErrorCode::BadK, "k must be at least 1".to_string());
    }
    let nodes = model.graph().num_nodes();
    if (q.user as usize) >= nodes {
        let message = format!("user {} out of range (|V| = {nodes})", q.user);
        return reject(ErrorCode::UnknownUser, message);
    }
    let timeout =
        q.timeout_us.map(Duration::from_micros).unwrap_or(shared.options.default_deadline);
    let deadline =
        accepted.checked_add(timeout).unwrap_or_else(|| accepted + Duration::from_secs(86_400));
    // `timeout_us=0` (and any deadline that has already passed) fails fast
    // here, before spending a plan, a cache probe or a queue slot.
    if Instant::now() >= deadline {
        let message = format!("deadline of {timeout:?} elapsed before execution");
        return reject(ErrorCode::Deadline, message);
    }

    // The engine clamps k to the vocabulary; cache under the clamped key so
    // `k=99` and `k=|Ω|` share an entry.
    let k = q.k.min(model.num_tags());
    let backend = q.backend.unwrap_or_else(|| snapshot.handle.backend());
    let (resolved, decision) = if backend == EngineBackend::Auto {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let decision = snapshot.handle.plan(q.user, k, Some(remaining));
        (decision.chosen, Some(decision))
    } else {
        let rr = snapshot.handle.rr_index().is_some();
        let delay = snapshot.handle.delay_index().is_some();
        if !registry::available(backend, rr, delay) {
            let name = backend.cli_name();
            let message =
                format!("backend {name} needs a prebuilt index this server does not hold");
            return reject(ErrorCode::BadRequest, message);
        }
        (backend, None)
    };
    let kind = match request {
        // A forced backend still gets a (trivial) decision so the reply
        // can show what the planner would have predicted for it.
        Request::Explain(_) => QueryKind::Explain(decision.unwrap_or_else(|| PlanDecision {
            chosen: resolved,
            predicted_us: snapshot.handle.predicted_us(resolved, q.user, k),
            degraded: false,
            rejected: Vec::new(),
        })),
        Request::Trace(_) => {
            let mut spans = SpanRecorder::starting_at(accepted);
            spans.record_since("plan", accepted);
            QueryKind::Trace(spans)
        }
        _ => QueryKind::Query,
    };
    let mut ctx = QueryCtx {
        kind,
        verb,
        trace_id,
        user: q.user,
        k,
        requested,
        resolved,
        accepted,
        timeout,
        deadline,
    };

    // Cache under the *resolved* backend: `auto` queries share entries
    // with — and warm the cache for — the concrete backend they ran as.
    let key = (q.user, k, resolved);
    let hit = match &mut ctx.kind {
        QueryKind::Query => shared.cache.get(&key),
        QueryKind::Explain(_) => None,
        QueryKind::Trace(spans) => {
            let probe_start = Instant::now();
            let hit = shared.cache.get(&key);
            spans.record_since("cache", probe_start);
            hit
        }
    };
    match hit {
        Some(hit) => PreparedQuery::Ready(ctx.answer(shared, &hit.tags, hit.spread, None)),
        None => PreparedQuery::Dispatch(ctx),
    }
}

impl QueryCtx {
    fn record(&self, us: u64) -> RequestRecord {
        RequestRecord {
            trace_id: self.trace_id,
            verb: self.verb,
            user: self.user,
            k: self.k,
            requested: self.requested,
            resolved: self.resolved.cli_name(),
            us,
        }
    }

    /// The one error finisher of an admitted request: books a `BUSY` or
    /// `ERR` and hands it back.
    fn fail(&self, shared: &Shared, response: Response) -> Response {
        let record = self.record(self.accepted.elapsed().as_micros() as u64);
        shared.hop.finish(&record, record.resolved, response)
    }

    /// The one success finisher: shapes the answer as `OK`, `EXPLAINED` or
    /// `TRACED` by kind, and books it. `run` is the worker's measurement;
    /// `None` is a cache hit.
    fn answer(self, shared: &Shared, tags: &TagSet, spread: f64, run: Option<Run>) -> Response {
        let us = self.accepted.elapsed().as_micros() as u64;
        let record = self.record(us);
        let (user, k, tags, cached) = (self.user, self.k, tags.tags().to_vec(), run.is_none());
        let response = match self.kind {
            QueryKind::Query => Response::Ok(QueryReply { user, k, tags, spread, cached, us }),
            QueryKind::Explain(plan) => Response::Explained(ExplainReply {
                user,
                k,
                backend: self.resolved,
                predicted_us: plan.predicted_us,
                actual_us: run.map_or(0, |run| run.exec_us),
                us,
                degraded: plan.degraded,
                tags,
                spread,
                rejected: plan.rejected,
            }),
            QueryKind::Trace(mut spans) => {
                if let Some(run) = run {
                    // The worker measured the queue wait and the execution;
                    // re-base both onto this trace's origin.
                    let queue_start = spans.offset_us(run.enqueued);
                    spans.record_at("queue", queue_start, run.queue_us);
                    spans.record_at("execute", queue_start + run.queue_us, run.exec_us);
                }
                let trace_id = self.trace_id;
                let spans = spans.finish();
                Response::Traced(TraceReply { trace_id, user, k, tags, spread, cached, us, spans })
            }
        };
        shared.hop.finish(&record, record.resolved, response)
    }
}

/// The completion of a dispatched request: the worker's reply becomes the
/// wire response. An answer to `QUERY` or `TRACE` is cached with the
/// two-sided epoch check; `EXPLAIN` never inserts.
fn complete_query(shared: &Shared, ctx: QueryCtx, reply: WorkerReply) -> Response {
    let (code, message) = match reply {
        WorkerReply::Done { tags, spread, epoch, run } => {
            // Cache only results that are still current, and re-check
            // after the insert: a swap (plus its invalidation sweep) could
            // land between the pre-check and the insert, which would let a
            // stale answer slip in *after* the sweep. If the post-insert
            // check sees a newer epoch the entry is removed here; if the
            // swap lands after the check instead, the sweep — which runs
            // strictly after the epoch bump — removes it. One of the two
            // always runs after the insert, so no stale entry survives.
            let key = (ctx.user, ctx.k, ctx.resolved);
            if !matches!(ctx.kind, QueryKind::Explain(_)) && shared.store.epoch() == epoch {
                shared.cache.insert(key, CachedAnswer { tags: tags.clone(), spread });
                if shared.store.epoch() != epoch {
                    shared.cache.invalidate(&key);
                }
            }
            return ctx.answer(shared, &tags, spread, Some(run));
        }
        WorkerReply::Deadline => {
            (ErrorCode::Deadline, format!("deadline of {:?} elapsed while queued", ctx.timeout))
        }
        WorkerReply::Panicked => (ErrorCode::Internal, "query execution panicked".to_string()),
        WorkerReply::Unavailable(message) => (ErrorCode::Internal, message),
    };
    ctx.fail(shared, Response::Err { code, message })
}

/// `UPDATE`: validate and stage one op in the overlay. Nothing is visible
/// to queries until `RELOAD`.
fn handle_update(shared: &Arc<Shared>, op: UpdateOp) -> Response {
    let mut admin = shared.admin_state.lock().unwrap();
    if admin.staged.is_some() {
        // A prepared snapshot no longer reflects the overlay once new ops
        // land; rather than silently invalidating a barrier in flight,
        // refuse until the coordinator COMMITs (or RELOADs) it.
        let message = "a prepared reload is pending; COMMIT (or RELOAD) it first".to_string();
        return shared.hop.error(ErrorCode::BadUpdate, message);
    }
    match admin.overlay.apply(op.clone()) {
        Ok(()) => {
            // Durability before acknowledgement: the op hits the fsynced
            // log *before* the `UPDATED` reply. If the append fails the op
            // is rolled back out of the overlay — an unacked op must not
            // linger staged-but-not-durable, or a crash would silently
            // diverge this replica from what its clients were told.
            if let Some(wal) = admin.wal.as_mut() {
                if let Err(e) = wal.append_staged(shared.store.epoch(), &op) {
                    let kept: Vec<UpdateOp> = {
                        let ops = admin.overlay.ops();
                        ops[..ops.len() - 1].to_vec()
                    };
                    let mut overlay = ModelOverlay::new(admin.overlay.base().clone());
                    for prior in kept {
                        overlay.apply(prior).expect("previously validated ops re-apply");
                    }
                    admin.overlay = overlay;
                    let message = format!("wal append failed: {e}");
                    return shared.hop.error(ErrorCode::Internal, message);
                }
            }
            shared.counters.updates_applied.inc();
            let pending = admin.overlay.pending() as u64;
            shared.counters.updates_pending.set(pending);
            Response::Updated { epoch: shared.store.epoch(), pending }
        }
        Err(e) => shared.hop.error(ErrorCode::BadUpdate, e.to_string()),
    }
}

/// Folds the overlay's pending ops into a fresh model and repairs whatever
/// index the backend needs — everything a reload does *except* the swap.
/// The caller holds the admin lock. `Err` carries the ready-to-send error
/// response.
fn stage_reload(shared: &Arc<Shared>, overlay: &ModelOverlay) -> Result<StagedReload, Response> {
    let folded = overlay.pending() as u64;
    let new_model = Arc::new(overlay.compact());
    let affected = overlay.affected_users(&new_model);

    let snapshot = shared.store.current();
    let backend = snapshot.handle.backend();
    let config = *snapshot.handle.config();
    let repair_opts = shared.options.repair;

    let mut reply = ReloadReply { folded, ..ReloadReply::default() };
    // Membership of resampled RR-Graphs; `None` = the index was rebuilt
    // wholesale (or is rebuilt by construction, like DELAYMAT's counters).
    let mut dirty_members: Option<Vec<u32>> = Some(Vec::new());

    let rr_index = snapshot.handle.rr_index().map(|old_rr| {
        let (repaired, report) =
            repair_rr_index(old_rr, snapshot.handle.model(), &new_model, &repair_opts);
        reply.resampled = report.resampled;
        reply.reused = report.reused;
        reply.full = report.full_rebuild;
        dirty_members = if report.full_rebuild { None } else { Some(report.dirty_members) };
        Arc::new(repaired)
    });
    let delay_index = snapshot.handle.delay_index().map(|old| {
        // DELAYMAT keeps only per-user counters; "repair" is one pass of
        // the same per-draw sample stream (and re-counts everything). The
        // budget and seed come from the old counters themselves.
        let rebuilt = DelayMatIndex::build_with_threads(
            &new_model,
            old.budget(),
            old.seed(),
            repair_opts.threads.max(1),
        );
        reply.resampled = rebuilt.theta();
        reply.full = true;
        dirty_members = None;
        Arc::new(rebuilt)
    });

    match EngineHandle::with_indexes(new_model.clone(), backend, rr_index, delay_index, config) {
        Ok(handle) => {
            // Carry the learned per-backend latency EWMAs across the swap:
            // the machine did not change, only the model did, and resetting
            // the planner's warmup on every reload would make `auto`
            // briefly cost-blind.
            handle.planner().inherit(snapshot.handle.planner());
            Ok(StagedReload { new_model, handle, affected, dirty_members, reply })
        }
        Err(e) => Err(shared.hop.error(ErrorCode::Internal, e.to_string())),
    }
}

/// Swaps a staged snapshot in: the cheap half of a reload. The caller
/// holds the admin lock and has already `take`n the staged entry.
fn commit_staged(
    shared: &Arc<Shared>,
    admin: &mut AdminState,
    staged: StagedReload,
) -> ReloadReply {
    let StagedReload { new_model, handle, affected, dirty_members, mut reply } = staged;
    // The ops this swap folds (empty for an epoch-only swap): they become
    // the `SYNC` history entry for the new epoch, and the WAL's commit
    // record folds the staged records that precede it.
    let folded_ops = admin.overlay.ops().to_vec();
    reply.epoch = shared.store.swap(handle);

    // Sweep strictly after the swap: combined with the epoch check before
    // every cache insert, no stale answer can outlive this line. An
    // epoch-only swap (folded = 0: same world, next epoch) skips the sweep
    // — every cached answer is still true in the "new" world.
    if reply.folded > 0 {
        invalidate_cache(shared, affected, dirty_members);
    }

    admin.overlay = ModelOverlay::new(new_model.clone());
    admin.history.push(CommittedBatch { epoch: reply.epoch, ops: folded_ops });
    trim_history(admin);

    if let Some(wal) = admin.wal.as_mut() {
        // The commit record lands *after* the swap: a crash between the
        // two leaves this replica one epoch behind its own disk claims
        // nothing — boot replays to the last durable commit and the
        // prober heals the rest. A failed append is counted, not unswapped
        // (the swap already happened; the staged records are still there,
        // so recovery merely resumes one epoch back).
        if let Err(e) = wal.append_commit(reply.epoch, reply.folded) {
            log_wal_failure(shared, "commit", &e);
        } else if wal.should_compact() {
            // Pending is empty by construction: UPDATE is refused while a
            // reload is staged, and the overlay was reset just above.
            match wal.compact(&new_model, reply.epoch, &[]) {
                Ok(()) => {
                    shared.counters.wal_compactions.inc();
                    // The on-disk history was folded into `base.snap`;
                    // mirror that in the SYNC history so both tell the
                    // same story about how far back they can serve.
                    admin.history.clear();
                    admin.history_base = reply.epoch;
                }
                Err(e) => log_wal_failure(shared, "compaction", &e),
            }
        }
    }

    shared.prepared.store(false, Ordering::Relaxed);
    shared.counters.updates_pending.set(0);
    shared.counters.reloads.inc();
    reply
}

/// Books a non-fatal WAL failure (the swap already happened; recovery
/// degrades to "one epoch behind", which the prober heals).
fn log_wal_failure(shared: &Arc<Shared>, what: &str, e: &WalError) {
    shared.hop.errors.inc();
    eprintln!("pitex-serve: wal {what} failed: {e}");
}

/// Bounds the in-memory `SYNC` history by the same ops budget as the WAL
/// (plus a hard batch cap): a donor serves catch-up from RAM, so a
/// replica further behind than the window must resync from artifacts.
fn trim_history(admin: &mut AdminState) {
    const MAX_HISTORY_BATCHES: usize = 4096;
    let max_ops = WalOptions::default().max_ops;
    let mut total_ops: u64 = admin.history.iter().map(|b| b.ops.len() as u64).sum();
    while admin.history.len() > 1
        && (total_ops > max_ops || admin.history.len() > MAX_HISTORY_BATCHES)
    {
        let dropped = admin.history.remove(0);
        total_ops -= dropped.ops.len() as u64;
        admin.history_base = dropped.epoch;
    }
}

/// `RELOAD`: fold the staged ops into a fresh model, repair whatever index
/// the backend needs, swap the snapshot, and sweep the result cache —
/// `PREPARE` and `COMMIT` back to back under one admin-lock hold. Runs on
/// the requesting connection's thread — queries on every other connection
/// keep being answered from the old epoch throughout.
fn handle_reload(shared: &Arc<Shared>) -> Response {
    let mut admin = shared.admin_state.lock().unwrap();
    if let Some(staged) = admin.staged.take() {
        // A previously PREPAREd snapshot is committed as-is: UPDATE was
        // refused while it was staged, so the overlay cannot have moved.
        return Response::Reloaded(commit_staged(shared, &mut admin, staged));
    }
    if admin.overlay.pending() == 0 {
        let epoch = shared.store.epoch();
        return Response::Reloaded(ReloadReply { epoch, ..ReloadReply::default() });
    }
    match stage_reload(shared, &admin.overlay) {
        Ok(staged) => Response::Reloaded(commit_staged(shared, &mut admin, staged)),
        Err(response) => response,
    }
}

/// `PREPARE`: the slow half of a reload (fold + repair) without the swap.
/// Idempotent — a repeated PREPARE reports the already-staged snapshot.
/// With nothing pending, an *epoch-only* swap is staged (same world, next
/// epoch): a cluster-wide barrier must advance every shard so a
/// scatter-gather reader can verify all shards answer from the same epoch
/// even when this shard had nothing to fold.
fn handle_prepare(shared: &Arc<Shared>) -> Response {
    let mut admin = shared.admin_state.lock().unwrap();
    if let Some(staged) = &admin.staged {
        let mut reply = staged.reply;
        reply.epoch = shared.store.epoch();
        return Response::Prepared(reply);
    }
    if admin.overlay.pending() == 0 {
        let snapshot = shared.store.current();
        let staged = StagedReload {
            new_model: snapshot.handle.model().clone(),
            handle: snapshot.handle.clone(),
            affected: Some(Vec::new()),
            dirty_members: Some(Vec::new()),
            reply: ReloadReply::default(),
        };
        let epoch = snapshot.epoch;
        admin.staged = Some(staged);
        shared.prepared.store(true, Ordering::Relaxed);
        return Response::Prepared(ReloadReply { epoch, ..ReloadReply::default() });
    }
    match stage_reload(shared, &admin.overlay) {
        Ok(staged) => {
            let mut reply = staged.reply;
            reply.epoch = shared.store.epoch();
            admin.staged = Some(staged);
            shared.prepared.store(true, Ordering::Relaxed);
            Response::Prepared(reply)
        }
        Err(response) => response,
    }
}

/// `COMMIT`: swap the PREPAREd snapshot in. Without one this is a no-op
/// reload reply (the shard had nothing staged — see `handle_prepare`).
fn handle_commit(shared: &Arc<Shared>) -> Response {
    let mut admin = shared.admin_state.lock().unwrap();
    match admin.staged.take() {
        Some(staged) => Response::Reloaded(commit_staged(shared, &mut admin, staged)),
        None => {
            let epoch = shared.store.epoch();
            Response::Reloaded(ReloadReply { epoch, ..ReloadReply::default() })
        }
    }
}

/// `SYNC <from_epoch>`: the donor half of replica catch-up. Streams the
/// committed history suffix (every epoch transition past `from_epoch`)
/// plus the staged-but-uncommitted ops, so the rejoiner can replay its way
/// to this replica's exact state. A request from before the history window
/// (trimmed or compacted away) is refused — the caller must resync from
/// artifacts instead.
fn handle_sync(shared: &Arc<Shared>, from_epoch: u64) -> Response {
    let admin = shared.admin_state.lock().unwrap();
    if from_epoch < admin.history_base {
        let message = format!(
            "history starts at epoch {} (older epochs were compacted); \
             a replica at epoch {from_epoch} must resync from artifacts",
            admin.history_base
        );
        return shared.hop.error(ErrorCode::BadRequest, message);
    }
    let records: Vec<CommittedBatch> =
        admin.history.iter().filter(|b| b.epoch > from_epoch).cloned().collect();
    let bundle = SyncBundle {
        base_epoch: admin.history_base,
        epoch: shared.store.epoch(),
        records,
        pending: admin.overlay.ops().to_vec(),
    };
    shared.counters.sync_served.inc();
    Response::Synced(bundle)
}

/// `DISCARD`: drop every staged-but-uncommitted op (and any PREPAREd
/// snapshot). This is the first step of replica catch-up: the rejoiner
/// yields whatever it staged locally (e.g. pending ops restored from its
/// own WAL) so the donor's history replay cannot double-apply them. The
/// WAL is rewritten without the staged records — a crash after a DISCARD
/// must not resurrect the discarded ops.
fn handle_discard(shared: &Arc<Shared>) -> Response {
    let mut admin = shared.admin_state.lock().unwrap();
    let dropped = admin.overlay.pending() as u64;
    let snapshot = shared.store.current();
    admin.overlay = ModelOverlay::new(snapshot.handle.model().clone());
    admin.staged = None;
    if let Some(wal) = admin.wal.as_mut() {
        if let Err(e) = wal.compact(snapshot.handle.model(), snapshot.epoch, &[]) {
            log_wal_failure(shared, "discard rewrite", &e);
        }
    }
    shared.prepared.store(false, Ordering::Relaxed);
    shared.counters.updates_pending.set(0);
    Response::Discarded { epoch: snapshot.epoch, dropped }
}

/// Post-swap cache sweep. `affected` is the set of users whose *true*
/// answer can change (`None` = everyone, e.g. after a tag mutation);
/// `dirty_members` the members of resampled RR-Graphs (`None` = full
/// rebuild).
///
/// Each cached entry is judged under its *own* backend's
/// [`CacheScope`] from the registry (the cache may hold several backends'
/// answers at once — per-request overrides and `auto` resolution both mix
/// them), so a swap evicts exactly what each backend's locality argument
/// cannot save. See [`pitex_core::registry::CacheScope`] for the
/// per-backend reasoning.
fn invalidate_cache(
    shared: &Arc<Shared>,
    affected: Option<Vec<u32>>,
    dirty_members: Option<Vec<u32>>,
) {
    let affected: Option<BTreeSet<u32>> = affected.map(|users| users.into_iter().collect());
    let with_dirty: Option<BTreeSet<u32>> = match (&affected, dirty_members) {
        (Some(users), Some(members)) => {
            let mut set = users.clone();
            set.extend(members);
            Some(set)
        }
        _ => None,
    };
    shared.cache.invalidate_if(|&(user, _, backend), _| {
        let scope =
            registry::spec(backend).map(|s| s.cache_scope()).unwrap_or(CacheScope::Everything);
        let stale_in =
            |set: &Option<BTreeSet<u32>>| set.as_ref().map_or(true, |s| s.contains(&user));
        match scope {
            CacheScope::AffectedUsers => stale_in(&affected),
            CacheScope::AffectedPlusDirty => stale_in(&with_dirty),
            CacheScope::Everything => true,
        }
    });
}

/// Every field this server exports, built through the obs [`FieldSet`] so
/// each name is asserted against the registration schema (a field without
/// a declared kind + merge rule cannot ship). `STATS` and the `METRICS`
/// Prometheus exposition are two renderings of this one list.
fn stats_fields(shared: &Shared) -> Vec<(String, String)> {
    let cache = shared.cache.counters();
    let uptime = shared.hop.started.elapsed();
    let hit_rate = if cache.hits + cache.misses == 0 { 0.0 } else { cache.hit_rate() };
    let snapshot = shared.store.current();
    let mut fields = FieldSet::new();
    // Per-backend planner observability: how often `auto` chose each
    // backend, how often a deadline forced a degradation, and the current
    // latency EWMA per backend (0.0 until first observed).
    let planner = snapshot.handle.planner();
    for backend in EngineBackend::ALL {
        fields.push(format!("plan_{}", backend.cli_name()), planner.decisions(backend));
        fields.push(
            format!("ewma_{}_us", backend.cli_name()),
            format!("{:.1}", planner.ewma_us(backend).unwrap_or(0.0)),
        );
    }
    fields.push("plan_degraded", planner.degraded_count());
    fields.push("backend", snapshot.handle.backend().cli_name());
    fields.push("workers", shared.options.workers.max(1));
    fields.push("uptime_us", uptime.as_micros() as u64);
    fields.push("epoch", snapshot.epoch);
    fields.push("prepared", u8::from(shared.prepared.load(Ordering::Relaxed)));
    fields.push("wal", u8::from(shared.options.wal.is_some()));
    fields.push("cache_hits", cache.hits);
    fields.push("cache_misses", cache.misses);
    fields.push("cache_insertions", cache.insertions);
    fields.push("cache_evictions", cache.evictions);
    fields.push("cache_len", shared.cache.len());
    fields.push("cache_hit_rate", format!("{hit_rate:.4}"));
    fields.push("qps", format!("{:.2}", shared.hop.ok_per_s()));
    // WAL timing families (append = write + fsync, fsync alone bounds
    // UPDATE ack latency, compact = snapshot + rewrite).
    let wal_t = &shared.wal_timings;
    for (name, p99_name, hist) in [
        ("wal_append_hist", "wal_append_p99_us", &wal_t.append),
        ("wal_fsync_hist", "wal_fsync_p99_us", &wal_t.fsync),
        ("wal_compact_hist", "wal_compact_p99_us", &wal_t.compact),
    ] {
        let snap = hist.snapshot();
        fields.push(p99_name, snap.quantile(0.99));
        fields.push(name, snap.to_wire());
    }
    shared.hop.fields(&mut fields);
    fields.into_fields()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::MAX_LINE_BYTES;
    use crate::frame::{self, MAX_REQUEST_FRAME_BYTES};
    use crate::protocol::QueryRequest;
    use pitex_core::PitexConfig;
    use pitex_model::TicModel;
    use std::io::{BufRead, Write};
    use std::net::TcpStream;

    fn paper_handle() -> EngineHandle {
        EngineHandle::new(
            Arc::new(TicModel::paper_example()),
            EngineBackend::Exact,
            PitexConfig::default(),
        )
        .unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, line: &str) -> Response {
        use std::io::{BufRead, BufReader, Write};
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::parse(&reply).unwrap()
    }

    #[test]
    fn serves_the_paper_query_over_tcp() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(roundtrip(&mut stream, "PING"), Response::Pong);
        let Response::Ok(reply) = roundtrip(&mut stream, "QUERY 0 2") else {
            panic!("expected OK")
        };
        assert_eq!(reply.tags, vec![2, 3], "Fig. 2 ground truth");
        assert!(!reply.cached);
        // The same query again is a cache hit.
        let Response::Ok(reply) = roundtrip(&mut stream, "QUERY 0 2") else {
            panic!("expected OK")
        };
        assert!(reply.cached);
        assert_eq!(reply.tags, vec![2, 3]);
        assert_eq!(roundtrip(&mut stream, "QUIT"), Response::Bye);
        server.stop().unwrap();
    }

    #[test]
    fn zero_default_deadline_is_refused() {
        let options = ServeOptions { default_deadline: Duration::ZERO, ..ServeOptions::default() };
        let Err(e) = Server::spawn(paper_handle(), ("127.0.0.1", 0), options) else {
            panic!("a zero default deadline must be refused")
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains("default_deadline"), "{e}");
    }

    #[test]
    fn health_and_series_verbs_answer() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // An idle, just-booted server is healthy — both objectives ok.
        let Response::Health(verdict) = roundtrip(&mut stream, "HEALTH") else {
            panic!("expected HEALTHY")
        };
        assert_eq!(verdict.status, pitex_support::obs::slo::SloStatus::Ok);
        assert_eq!(verdict.worst, "-");
        assert_eq!(verdict.slos.len(), 2);
        // The sampler has not ticked yet at the default 1 s cadence, so
        // every field is still unsampled.
        let Response::Err { code, message } = roundtrip(&mut stream, "SERIES no_such_field") else {
            panic!("expected ERR")
        };
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(message.contains("no_such_field"), "{message}");
        server.stop().unwrap();
    }

    #[test]
    fn http_get_is_sniffed_on_the_protocol_port() {
        use std::io::Read;
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let scrape = |request: &str| -> String {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            reply
        };
        let metrics = scrape("GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("pitex_requests"), "{metrics}");
        assert!(metrics.trim_end().ends_with("# EOF"), "{metrics}");
        let health = scrape("GET /health HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200 OK\r\n"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        let missing = scrape("GET /series HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 400"), "{missing}");
        let lost = scrape("GET /frobnicate HTTP/1.0\r\n\r\n");
        assert!(lost.starts_with("HTTP/1.0 404"), "{lost}");
        // The line protocol is untouched on the same port.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(roundtrip(&mut stream, "PING"), Response::Pong);
        server.stop().unwrap();
    }

    #[test]
    fn fragmented_request_lines_reassemble() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Split one request across two writes with a pause longer than the
        // server's read-poll interval: the partial line must survive the
        // timed-out read (interactive `telnet` sessions type this slowly).
        stream.write_all(b"QUE").unwrap();
        std::thread::sleep(POLL * 3);
        stream.write_all(b"RY 0 2\n").unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let Response::Ok(reply) = Response::parse(&reply).unwrap() else {
            panic!("fragmented request must still answer OK, got {reply:?}")
        };
        assert_eq!(reply.tags, vec![2, 3]);
        server.stop().unwrap();
    }

    #[test]
    fn oversized_request_line_is_rejected_and_disconnected() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A newline-free flood must not grow server memory: one ERR, then
        // the connection closes.
        stream.write_all(&vec![b'Q'; MAX_LINE_BYTES + 1000]).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match Response::parse(&reply).unwrap() {
            Response::Err { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("exceeds"));
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "server closed the connection");
        server.stop().unwrap();
    }

    #[test]
    fn continuously_streaming_client_is_cut_off() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // Stream newline-free bytes without pausing; the per-line read
        // budget must cut this off at the cap rather than buffering it.
        let feeder = std::thread::spawn(move || {
            let chunk = [b'X'; 1024];
            for _ in 0..1024 {
                if writer.write_all(&chunk).is_err() {
                    break; // server hung up on us, as it should
                }
            }
        });
        let mut reader = std::io::BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match Response::parse(&reply).unwrap() {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected ERR, got {other:?}"),
        }
        feeder.join().unwrap();
        server.stop().unwrap();
    }

    #[test]
    fn torn_trailing_line_is_dropped_not_executed() {
        use std::io::Read;
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        // A client dying mid-write: the operand is truncated and the line
        // never gets its newline. FIN must not turn it into a request.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"UPDATE SET_EDGE 0 1 0:0.9").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "", "a torn line is not answered");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let Response::Stats(stats) = roundtrip(&mut stream, "STATS") else { panic!() };
        assert_eq!(stats.get_u64("updates_pending"), Some(0));
        assert_eq!(stats.get_u64("updates_applied"), Some(0));
        server.stop().unwrap();
    }

    #[test]
    fn http_header_flood_is_cut_off() {
        use std::io::Read;
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
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
        assert!(feeder.join().unwrap() < CHUNKS, "the server hung up on the flood");
        server.stop().unwrap();
    }

    #[test]
    fn error_paths_reply_with_codes() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for (line, code) in [
            ("GARBAGE", ErrorCode::BadRequest),
            ("QUERY 0", ErrorCode::BadRequest),
            ("QUERY 999 2", ErrorCode::UnknownUser),
            ("QUERY 0 0", ErrorCode::BadK),
            ("QUERY 6 1 0", ErrorCode::Deadline), // timeout_us = 0: expired on arrival
        ] {
            match roundtrip(&mut stream, line) {
                Response::Err { code: got, .. } => assert_eq!(got, code, "{line}"),
                other => panic!("{line}: expected ERR, got {other:?}"),
            }
        }
        server.stop().unwrap();
    }

    #[test]
    fn stats_expose_cache_and_latency() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        roundtrip(&mut stream, "QUERY 0 2");
        roundtrip(&mut stream, "QUERY 0 2");
        let Response::Stats(stats) = roundtrip(&mut stream, "STATS") else {
            panic!("expected STATS")
        };
        assert_eq!(stats.get_u64("ok"), Some(2));
        assert_eq!(stats.get_u64("cache_hits"), Some(1));
        assert_eq!(stats.get_u64("cache_misses"), Some(1));
        assert_eq!(stats.get_u64("worker_panics"), Some(0));
        assert!(stats.get_f64("qps").unwrap() > 0.0);
        assert!(stats.get_u64("lat_p99_us").unwrap() >= stats.get_u64("lat_p50_us").unwrap());
        server.stop().unwrap();
    }

    #[test]
    fn shutdown_verb_stops_the_server() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN"), Response::Bye);
        server.join().unwrap();
        // The listener is gone: a fresh connect must fail (possibly after
        // the OS drains the accept backlog, so poll briefly).
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match TcpStream::connect(addr) {
                Err(_) => break,
                Ok(_) if Instant::now() > deadline => panic!("listener still accepting"),
                Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    #[test]
    fn zero_cache_capacity_never_reports_cached() {
        let options = ServeOptions { cache_capacity: 0, ..ServeOptions::default() };
        let server = Server::spawn(paper_handle(), ("127.0.0.1", 0), options).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..3 {
            let Response::Ok(reply) = roundtrip(&mut stream, "QUERY 0 2") else {
                panic!("expected OK")
            };
            assert!(!reply.cached);
            assert_eq!(reply.tags, vec![2, 3]);
        }
        server.stop().unwrap();
    }

    #[test]
    fn capture_verb_requires_a_configured_sink() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        match roundtrip(&mut stream, "CAPTURE on") {
            Response::Err { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("PITEX_OBS_CAPTURE"), "{message}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        server.stop().unwrap();
    }

    #[test]
    fn capture_records_queries_into_a_replayable_log() {
        let dir = std::env::temp_dir().join(format!("pitex-serve-capture-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workload.pwrk");
        let options = ServeOptions {
            capture: Some(CaptureOptions { path: Some(path.clone()), rate: 1 }),
            ..ServeOptions::default()
        };
        let server = Server::spawn(paper_handle(), ("127.0.0.1", 0), options).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let Response::Ok(first) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        let Response::Ok(second) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert!(second.cached, "second query is a cache hit — and still captured");

        // `off` flushes, so the log is complete on disk.
        let Response::Captured { enabled, recorded, dropped } =
            roundtrip(&mut stream, "CAPTURE off")
        else {
            panic!("expected CAPTURED")
        };
        assert!(!enabled);
        assert_eq!((recorded, dropped), (2, 0));
        let log = pitex_support::obs::read_log(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.truncated_bytes, 0);
        let rec = &log.records[0];
        assert_eq!((rec.verb.as_str(), rec.user, rec.k), ("QUERY", 0, 2));
        assert_eq!((rec.backend.as_str(), rec.resolved.as_str()), ("-", "exact"));
        assert_eq!(rec.tags, first.tags, "the answer rides in the record");
        assert_eq!(rec.spread(), first.spread);
        assert!(rec.trace_id != 0 && rec.ts_us > 0);
        assert!(log.records[1].ts_us >= rec.ts_us, "admission timestamps are ordered");

        // While off, nothing is recorded; `on` resumes; `rotate` starts a
        // fresh log and preserves the old one.
        roundtrip(&mut stream, "QUERY 1 2");
        let Response::Captured { enabled, recorded, .. } = roundtrip(&mut stream, "CAPTURE on")
        else {
            panic!()
        };
        assert!(enabled);
        assert_eq!(recorded, 2, "the query while off was not captured");
        let Response::Captured { .. } = roundtrip(&mut stream, "CAPTURE rotate") else { panic!() };
        roundtrip(&mut stream, "QUERY 2 2");
        roundtrip(&mut stream, "CAPTURE off");
        let fresh = pitex_support::obs::read_log(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(fresh.records.len(), 1);
        assert_eq!(fresh.records[0].user, 2);
        let rotated = PathBuf::from(format!("{}.1", path.display()));
        let old = pitex_support::obs::read_log(&std::fs::read(&rotated).unwrap()).unwrap();
        assert_eq!(old.records.len(), 2);

        let Response::Stats(stats) = roundtrip(&mut stream, "STATS") else { panic!() };
        assert_eq!(stats.get_u64("capture_records"), Some(3));
        assert_eq!(stats.get_u64("capture_dropped"), Some(0));
        server.stop().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_reload_swaps_the_answer_and_the_epoch() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();

        let Response::Ok(before) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert_eq!(before.tags, vec![2, 3]);
        assert_eq!(roundtrip(&mut stream, "EPOCH"), Response::Epoch(1));

        // Detach the winning tags: the optimum must flip to {w1, w2}.
        let Response::Updated { epoch, pending } = roundtrip(&mut stream, "UPDATE DETACH_TAG 2")
        else {
            panic!("expected UPDATED")
        };
        assert_eq!((epoch, pending), (1, 1), "staged, not yet visible");
        roundtrip(&mut stream, "UPDATE DETACH_TAG 3");
        // Still the old answer (and a cache hit) pre-reload.
        let Response::Ok(staged) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert_eq!(staged.tags, vec![2, 3]);
        assert!(staged.cached);

        let Response::Reloaded(reloaded) = roundtrip(&mut stream, "RELOAD") else {
            panic!("expected RELOADED")
        };
        assert_eq!(reloaded.epoch, 2);
        assert_eq!(reloaded.folded, 2);
        assert_eq!(roundtrip(&mut stream, "EPOCH"), Response::Epoch(2));

        // Tag mutations invalidate every cached answer: the same query now
        // computes the new optimum.
        let Response::Ok(after) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert!(!after.cached, "stale answer must not be served");
        assert_eq!(after.tags, vec![0, 1], "detaching w3/w4 flips the optimum to {{w1, w2}}");

        let Response::Stats(stats) = roundtrip(&mut stream, "STATS") else { panic!() };
        assert_eq!(stats.get_u64("epoch"), Some(2));
        assert_eq!(stats.get_u64("updates_applied"), Some(2));
        assert_eq!(stats.get_u64("updates_pending"), Some(0));
        assert_eq!(stats.get_u64("reloads"), Some(1));
        server.stop().unwrap();
    }

    #[test]
    fn prepare_commit_is_a_two_phase_reload() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        roundtrip(&mut stream, "UPDATE DETACH_TAG 2");
        roundtrip(&mut stream, "UPDATE DETACH_TAG 3");

        // Phase 1 folds and repairs but does not swap.
        let Response::Prepared(p) = roundtrip(&mut stream, "PREPARE") else {
            panic!("expected PREPARED")
        };
        assert_eq!((p.epoch, p.folded), (1, 2), "still serving the old epoch");
        let Response::Ok(old) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert_eq!(old.tags, vec![2, 3], "old world until COMMIT");
        let Response::Stats(stats) = roundtrip(&mut stream, "STATS") else { panic!() };
        assert_eq!(stats.get_u64("prepared"), Some(1));

        // New mutations are refused while a snapshot is staged, and a
        // repeated PREPARE reports the same staged snapshot.
        match roundtrip(&mut stream, "UPDATE ADD_USER") {
            Response::Err { code, message } => {
                assert_eq!(code, ErrorCode::BadUpdate);
                assert!(message.contains("prepared"), "{message}");
            }
            other => panic!("UPDATE while staged must ERR, got {other:?}"),
        }
        let Response::Prepared(again) = roundtrip(&mut stream, "PREPARE") else { panic!() };
        assert_eq!(again, p, "PREPARE is idempotent");

        // Phase 2 swaps the staged world in.
        let Response::Reloaded(r) = roundtrip(&mut stream, "COMMIT") else {
            panic!("expected RELOADED")
        };
        assert_eq!((r.epoch, r.folded), (2, 2));
        let Response::Ok(new) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert_eq!(new.tags, vec![0, 1], "committed world serves the new optimum");
        let Response::Stats(stats) = roundtrip(&mut stream, "STATS") else { panic!() };
        assert_eq!(stats.get_u64("prepared"), Some(0));
        assert_eq!(stats.get_u64("reloads"), Some(1));

        // COMMIT with nothing staged is a no-op reload.
        let Response::Reloaded(noop) = roundtrip(&mut stream, "COMMIT") else { panic!() };
        assert_eq!((noop.epoch, noop.folded), (2, 0));
        server.stop().unwrap();
    }

    #[test]
    fn reload_commits_a_staged_prepare_as_is() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        roundtrip(&mut stream, "UPDATE DETACH_TAG 2");
        let Response::Prepared(_) = roundtrip(&mut stream, "PREPARE") else { panic!() };
        let Response::Reloaded(r) = roundtrip(&mut stream, "RELOAD") else { panic!() };
        assert_eq!((r.epoch, r.folded), (2, 1), "RELOAD commits the staged snapshot");
        server.stop().unwrap();
    }

    #[test]
    fn empty_prepare_stages_an_epoch_only_swap() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Warm the cache: it must survive an epoch-only swap untouched.
        roundtrip(&mut stream, "QUERY 0 2");
        let Response::Prepared(p) = roundtrip(&mut stream, "PREPARE") else { panic!() };
        assert_eq!((p.epoch, p.folded), (1, 0));
        let Response::Stats(stats) = roundtrip(&mut stream, "STATS") else { panic!() };
        assert_eq!(stats.get_u64("prepared"), Some(1));
        // The commit advances the epoch (so a cluster barrier leaves every
        // shard at the same epoch) but the world — and its cache — is the
        // same.
        let Response::Reloaded(r) = roundtrip(&mut stream, "COMMIT") else { panic!() };
        assert_eq!((r.epoch, r.folded), (2, 0), "idle shards still take the epoch bump");
        assert_eq!(roundtrip(&mut stream, "EPOCH"), Response::Epoch(2));
        let Response::Ok(reply) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert_eq!(reply.tags, vec![2, 3]);
        assert!(reply.cached, "an epoch-only swap must not flush the cache");
        server.stop().unwrap();
    }

    #[test]
    fn reload_without_updates_keeps_the_epoch() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let Response::Reloaded(r) = roundtrip(&mut stream, "RELOAD") else { panic!() };
        assert_eq!((r.epoch, r.folded), (1, 0));
        assert_eq!(roundtrip(&mut stream, "EPOCH"), Response::Epoch(1));
        server.stop().unwrap();
    }

    #[test]
    fn invalid_updates_answer_bad_update() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for (line, needle) in [
            ("UPDATE REMOVE_EDGE 1 0", "no edge"),
            ("UPDATE ADD_EDGE 0 1 0:0.5", "already exists"),
            ("UPDATE ADD_EDGE 0 99 0:0.5", "out of range"),
            ("UPDATE ATTACH_TAG 9 0:0.5", "out of range"),
            ("UPDATE ADD_EDGE 1 0 0:1.5", "outside (0, 1]"),
        ] {
            match roundtrip(&mut stream, line) {
                Response::Err { code, message } => {
                    assert_eq!(code, ErrorCode::BadUpdate, "{line}");
                    assert!(message.contains(needle), "{line}: {message}");
                }
                other => panic!("{line}: expected ERR BAD_UPDATE, got {other:?}"),
            }
        }
        server.stop().unwrap();
    }

    #[test]
    fn admin_verbs_can_be_disabled() {
        let options = ServeOptions { admin: false, ..ServeOptions::default() };
        let server = Server::spawn(paper_handle(), ("127.0.0.1", 0), options).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
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
            match roundtrip(&mut stream, line) {
                Response::Err { code, .. } => assert_eq!(code, ErrorCode::AdminDenied, "{line}"),
                other => panic!("{line}: expected ERR ADMIN_DENIED, got {other:?}"),
            }
        }
        // Plain serving is unaffected.
        let Response::Ok(reply) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert_eq!(reply.tags, vec![2, 3]);
        server.stop().unwrap();
    }

    #[test]
    fn edge_update_invalidates_only_affected_users() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Warm the cache for u1 (affected: reaches u6) and u7 (id 6, a
        // sink — unaffected by any edge out of u6).
        roundtrip(&mut stream, "QUERY 0 2");
        roundtrip(&mut stream, "QUERY 6 2");
        roundtrip(&mut stream, "UPDATE SET_EDGE 5 6 2:0.9");
        let Response::Reloaded(_) = roundtrip(&mut stream, "RELOAD") else { panic!() };
        // u7's cached answer survives the swap; u1's does not.
        let Response::Ok(sink) = roundtrip(&mut stream, "QUERY 6 2") else { panic!() };
        assert!(sink.cached, "unaffected user keeps their cache entry");
        let Response::Ok(hot) = roundtrip(&mut stream, "QUERY 0 2") else { panic!() };
        assert!(!hot.cached, "affected user is recomputed");
        server.stop().unwrap();
    }

    #[test]
    fn oversized_k_is_clamped_and_cached_once() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let Response::Ok(first) = roundtrip(&mut stream, "QUERY 0 99") else {
            panic!("expected OK")
        };
        assert_eq!(first.k, 4, "clamped to |Ω|");
        let Response::Ok(second) = roundtrip(&mut stream, "QUERY 0 4") else {
            panic!("expected OK")
        };
        assert!(second.cached, "k=99 and k=4 share a cache entry");
        server.stop().unwrap();
    }

    /// Reads exactly one binary reply frame off a raw stream. The caller
    /// owns `frames` so bytes of a *second* frame arriving in the same
    /// read are kept for the next call, not dropped with a local buffer.
    fn read_frame(
        stream: &mut TcpStream,
        frames: &mut crate::frame::FrameBuf,
    ) -> Option<(u64, crate::frame::WireReply)> {
        use std::io::Read;
        loop {
            if let Some(payload) = frames.next_payload().unwrap() {
                return Some(crate::frame::decode_response(&payload).unwrap());
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => frames.extend(&chunk[..n]),
                Err(e) => panic!("read failed mid-frame: {e}"),
            }
        }
    }

    fn binary_roundtrips(options: ServeOptions) {
        let server = Server::spawn(paper_handle(), ("127.0.0.1", 0), options).unwrap();
        let mut client = crate::client::ServeClient::connect_binary(server.addr()).unwrap();
        client.ping().unwrap();
        let Response::Ok(reply) = client.query(0, 2).unwrap() else { panic!("expected OK") };
        assert_eq!(reply.tags, vec![2, 3], "Fig. 2 ground truth over the binary wire");
        assert!(!reply.cached);
        let Response::Ok(reply) = client.query(0, 2).unwrap() else { panic!("expected OK") };
        assert!(reply.cached);
        // Non-query verbs answer over the same connection: typed STATS and
        // the raw METRICS exposition.
        let stats = client.stats().unwrap();
        assert_eq!(stats.get_u64("ok"), Some(2));
        assert_eq!(stats.get_u64("conn_aborted"), Some(0));
        let text = client.metrics().unwrap();
        assert!(text.contains("pitex_requests"), "{text}");
        assert!(text.trim_end().ends_with("# EOF"), "exposition keeps its terminator");
        client.ping().unwrap();
        server.stop().unwrap();
    }

    #[test]
    fn binary_protocol_round_trips_on_the_event_loop() {
        binary_roundtrips(ServeOptions { event_loop: Some(true), ..ServeOptions::default() });
    }

    #[test]
    fn binary_protocol_round_trips_on_the_blocking_acceptor() {
        binary_roundtrips(ServeOptions { event_loop: Some(false), ..ServeOptions::default() });
    }

    #[test]
    fn pipelined_batch_returns_every_reply_in_request_order() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut client = crate::client::ServeClient::connect_binary(server.addr()).unwrap();
        let mut batch = vec![Request::Ping];
        for user in 0..4 {
            batch.push(Request::Query(QueryRequest::new(user, 2)));
        }
        batch.push(Request::Ping);
        let replies = client.pipeline(&batch).unwrap();
        assert_eq!(replies.len(), batch.len());
        assert_eq!(replies[0], Response::Pong);
        assert_eq!(replies[5], Response::Pong);
        for (user, reply) in replies[1..5].iter().enumerate() {
            match reply {
                Response::Ok(ok) => assert_eq!(ok.user, user as u32),
                Response::Err { code, .. } => {
                    // Users past the paper model's population are unknown —
                    // the error still lands in this request's slot.
                    assert_eq!(*code, ErrorCode::UnknownUser, "user {user}");
                }
                other => panic!("unexpected reply for user {user}: {other:?}"),
            }
        }
        // The same batch again: the known users now hit the cache.
        let again = client.pipeline(&batch).unwrap();
        for reply in &again[1..5] {
            if let Response::Ok(ok) = reply {
                assert!(ok.cached);
            }
        }
        server.stop().unwrap();
    }

    #[test]
    fn text_and_binary_clients_share_one_port() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut text = TcpStream::connect(server.addr()).unwrap();
        let mut binary = crate::client::ServeClient::connect_binary(server.addr()).unwrap();
        // Interleave: text, binary, text, binary on concurrently open
        // connections.
        assert_eq!(roundtrip(&mut text, "PING"), Response::Pong);
        let Response::Ok(from_binary) = binary.query(0, 2).unwrap() else { panic!("expected OK") };
        assert_eq!(from_binary.tags, vec![2, 3]);
        let Response::Ok(from_text) = roundtrip(&mut text, "QUERY 0 2") else {
            panic!("expected OK")
        };
        assert_eq!(from_text.tags, vec![2, 3]);
        assert!(from_text.cached, "the binary client's answer is shared via the cache");
        binary.ping().unwrap();
        assert_eq!(roundtrip(&mut text, "QUIT"), Response::Bye);
        server.stop().unwrap();
    }

    #[test]
    fn oversized_frame_answers_one_err_and_disconnects() {
        use std::io::Write;
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let oversized = (MAX_REQUEST_FRAME_BYTES + 1) as u32;
        let mut header = Vec::from(crate::frame::MAGIC);
        header.extend_from_slice(&oversized.to_le_bytes());
        stream.write_all(&header).unwrap();
        let mut frames = crate::frame::FrameBuf::new(crate::frame::MAX_REPLY_FRAME_BYTES);
        let (id, reply) = read_frame(&mut stream, &mut frames).expect("one ERR before the cut");
        assert_eq!(id, 0, "no request id is recoverable from an oversized frame");
        match reply {
            crate::frame::WireReply::Response(Response::Err { code, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest)
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        assert!(
            read_frame(&mut stream, &mut frames).is_none(),
            "server hangs up after the oversized frame"
        );
        server.stop().unwrap();
    }

    #[test]
    fn near_magic_garbage_falls_back_to_text() {
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        // "PF" matches the magic's first two bytes; the third diverges, so
        // the sniffer must route the connection to the text protocol —
        // which then rejects the line as an unknown verb.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let Response::Err { code, .. } = roundtrip(&mut stream, "PFOO") else {
            panic!("expected ERR")
        };
        assert_eq!(code, ErrorCode::BadRequest);
        // The connection is still a working text session.
        assert_eq!(roundtrip(&mut stream, "PING"), Response::Pong);
        server.stop().unwrap();
    }

    #[test]
    fn binary_quit_flushes_bye_then_closes() {
        use std::io::Write;
        let server =
            Server::spawn(paper_handle(), ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&frame::encode_request(7, &Request::Ping)).unwrap();
        stream.write_all(&frame::encode_request(8, &Request::Quit)).unwrap();
        let mut frames = crate::frame::FrameBuf::new(crate::frame::MAX_REPLY_FRAME_BYTES);
        let (id, _) = read_frame(&mut stream, &mut frames).unwrap();
        assert_eq!(id, 7);
        let (id, reply) = read_frame(&mut stream, &mut frames).unwrap();
        assert_eq!(id, 8);
        assert!(matches!(reply, crate::frame::WireReply::Response(Response::Bye)));
        assert!(read_frame(&mut stream, &mut frames).is_none(), "QUIT closes after the flush");
        server.stop().unwrap();
    }

    #[test]
    fn dying_connection_counts_its_orphaned_replies() {
        use std::io::Write;
        // Slow every query down so the client is certain to be gone before
        // the single worker finishes the burst.
        std::env::set_var("PITEX_OBS_STALL_US", "100000");
        let server = Server::spawn(
            paper_handle(),
            ("127.0.0.1", 0),
            ServeOptions { workers: 1, ..ServeOptions::default() },
        )
        .unwrap();
        std::env::remove_var("PITEX_OBS_STALL_US");
        {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let mut burst = Vec::new();
            for (id, user) in [(1u64, 0u32), (2, 1), (3, 2), (4, 3)] {
                burst.extend_from_slice(&frame::encode_request(
                    id,
                    &Request::Query(QueryRequest::new(user, 2)),
                ));
            }
            stream.write_all(&burst).unwrap();
            // Drop the connection with the whole burst still in flight.
        }
        let mut probe = crate::client::ServeClient::connect_binary(server.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = probe.stats().unwrap();
            let aborted = stats.get_u64("conn_aborted").unwrap();
            let settled = stats.get_u64("ok").unwrap() + stats.get_u64("errors").unwrap() >= 4;
            if settled && aborted >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "orphaned replies never surfaced: aborted={aborted} stats={stats:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        server.stop().unwrap();
    }

    /// `QUERY`, `EXPLAIN` and `TRACE` run one admission and one completion,
    /// so every outcome books the same way for all three: the reply, the
    /// counter deltas from the end of the set-up to the end of the case
    /// (the blockers' completions included), the flight entry, and — on a
    /// miss or a hit — the cache traffic, which `EXPLAIN` never touches and
    /// `TRACE` touches like `QUERY`. The set-up synchronizes on replies, not
    /// sleeps: an inline `PONG` that overtakes a request proves the request
    /// was deferred.
    #[test]
    fn the_query_verbs_share_one_path() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Case {
            Miss,
            Hit,
            /// A full queue: the one worker stalled, the one queue slot
            /// taken.
            Busy,
            /// Queued behind a stalled worker past its own deadline.
            Deadline,
            ZeroK,
            UnknownUser,
        }
        use Case::*;
        /// `(case, flight outcome, [requests, ok, busy, errors, deadline])`.
        const TABLE: [(Case, &str, [u64; 5]); 6] = [
            (Miss, "ok", [1, 1, 0, 0, 0]),
            (Hit, "ok", [1, 1, 0, 0, 0]),
            (Busy, "busy", [1, 2, 1, 0, 0]),
            (Deadline, "deadline", [1, 1, 0, 0, 1]),
            (ZeroK, "error", [1, 0, 0, 1, 0]),
            (UnknownUser, "error", [1, 0, 0, 1, 0]),
        ];
        const STALL_US: u64 = 200_000;
        const TARGET: u64 = 1_000;
        for verb in ["QUERY", "EXPLAIN", "TRACE"] {
            for (case, flight_outcome, deltas) in TABLE {
                let name = format!("{verb} {case:?}");
                let stall_us = if matches!(case, Busy | Deadline) { STALL_US } else { 0 };
                // A second queue slot lets the deadline case queue behind
                // its blocker whether or not the worker has taken it yet.
                let queue_depth = if case == Deadline { 2 } else { 1 };
                let options = ServeOptions { workers: 1, queue_depth, ..ServeOptions::default() };
                let (server, shared) =
                    Server::spawn_stalled(paper_handle(), ("127.0.0.1", 0), options, stall_us)
                        .unwrap();
                let counts = || {
                    let c = &shared.hop;
                    let (busy, deadline) = (c.busy.get(), c.deadline.as_ref().unwrap().get());
                    [c.requests.get(), c.ok.get(), busy, c.errors.get(), deadline]
                };
                let cache = || {
                    let c = shared.cache.counters();
                    [c.hits, c.misses, c.insertions]
                };
                let mut stream = TcpStream::connect(server.addr()).unwrap();
                let mut frames = frame::FrameBuf::new(frame::MAX_REPLY_FRAME_BYTES);
                let mut writer = stream.try_clone().unwrap();
                let mut send = |id: u64, request: Request| {
                    writer.write_all(&frame::encode_request(id, &request)).unwrap();
                };
                let blocker = |user| Request::Query(QueryRequest::new(user, 2));

                // Warm the cache, or hold the worker (and fill the queue).
                let mut pending = vec![TARGET];
                match case {
                    Hit => send(1, blocker(0)),
                    Deadline => {
                        send(1, blocker(1));
                        send(2, Request::Ping);
                        pending.push(1);
                    }
                    Busy => {
                        send(1, blocker(1));
                        pending.push(1);
                        // The filler is queued, not shed, once the worker
                        // holds the blocker; until then it answers `BUSY`.
                        for id in (2..).step_by(2) {
                            send(id, blocker(2));
                            send(id + 1, Request::Ping);
                            let (first, _) = read_frame(&mut stream, &mut frames).unwrap();
                            if first == id + 1 {
                                pending.push(id);
                                break;
                            }
                            read_frame(&mut stream, &mut frames).unwrap();
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    _ => {}
                }
                if matches!(case, Hit | Deadline) {
                    read_frame(&mut stream, &mut frames).unwrap();
                }
                let before = counts();
                let (user, k) = match case {
                    ZeroK => (0, 0),
                    UnknownUser => (999, 2),
                    _ => (0, 2),
                };
                let timeout_us = (case == Deadline).then_some(STALL_US / 4);
                let q = QueryRequest { user, k, timeout_us, backend: None };
                let request = match verb {
                    "QUERY" => Request::Query(q),
                    "EXPLAIN" => Request::Explain(q),
                    _ => Request::Trace(crate::protocol::TraceRequest { query: q, trace_id: None }),
                };
                let cache_before = cache();
                send(TARGET, request);
                let mut reply = None;
                while !pending.is_empty() {
                    let (id, wire) = read_frame(&mut stream, &mut frames).expect(&name);
                    pending.retain(|&waiting| waiting != id);
                    if id == TARGET {
                        reply = Some(wire);
                    }
                }
                let Some(frame::WireReply::Response(reply)) = reply else {
                    panic!("{name}: no typed reply")
                };

                match (case, &reply) {
                    (Busy, Response::Busy) => {}
                    (Deadline, Response::Err { code: ErrorCode::Deadline, .. }) => {}
                    (ZeroK, Response::Err { code: ErrorCode::BadK, .. }) => {}
                    (UnknownUser, Response::Err { code: ErrorCode::UnknownUser, .. }) => {}
                    (Miss | Hit, Response::Ok(ok)) if verb == "QUERY" => {
                        assert_eq!(ok.cached, case == Hit, "{name}");
                    }
                    (Miss | Hit, Response::Explained(explained)) if verb == "EXPLAIN" => {
                        assert_eq!(explained.tags, vec![2, 3], "{name}");
                    }
                    (Miss | Hit, Response::Traced(traced)) if verb == "TRACE" => {
                        assert_eq!(traced.cached, case == Hit, "{name}");
                        let spans: Vec<&str> = traced.spans.iter().map(|s| &*s.name).collect();
                        let want: &[&str] = match case {
                            Hit => &["plan", "cache"],
                            _ => &["plan", "cache", "queue", "execute"],
                        };
                        assert_eq!(spans, want, "{name}");
                    }
                    _ => panic!("{name}: unexpected reply {reply:?}"),
                }
                if matches!(case, Miss | Hit) {
                    let want = match (verb, case) {
                        ("EXPLAIN", _) => [0, 0, 0],
                        (_, Hit) => [1, 0, 0],
                        _ => [0, 1, 1],
                    };
                    let got: Vec<u64> =
                        cache().iter().zip(cache_before).map(|(a, b)| a - b).collect();
                    assert_eq!(got, want, "{name}: [hits, misses, insertions]");
                }
                let got: Vec<u64> = counts().iter().zip(before).map(|(a, b)| a - b).collect();
                assert_eq!(got, deltas, "{name}: [requests, ok, busy, errors, deadline]");

                let flight = shared.hop.flight.dump();
                let entry = flight
                    .iter()
                    .rev()
                    .find(|e| e.verb == verb && (e.user, e.k) == (user, k))
                    .unwrap_or_else(|| panic!("{name}: no flight entry in {flight:?}"));
                assert_eq!(entry.outcome, flight_outcome, "{name}");
                if matches!(case, ZeroK | UnknownUser) {
                    assert_eq!(entry.us, 0, "{name}: rejected at admission, never ran");
                }
                server.stop().unwrap();
            }
        }
    }

    #[test]
    fn nothing_runs_inline_under_stall_injection() {
        let model = Arc::new(TicModel::paper_example());
        let budget = pitex_index::IndexBudget::Fixed(2_000);
        let index = Arc::new(pitex_index::RrIndex::build_with_threads(&model, budget, 3, 1));
        let handle = EngineHandle::with_indexes(
            model,
            EngineBackend::IndexEstPlus,
            Some(index),
            None,
            PitexConfig::default(),
        )
        .unwrap();
        for stall_us in [0, 1_000] {
            let options = ServeOptions { cache_capacity: 0, ..ServeOptions::default() };
            let (server, shared) =
                Server::spawn_stalled(handle.clone(), ("127.0.0.1", 0), options, stall_us).unwrap();
            let mut client = crate::client::ServeClient::connect_binary(server.addr()).unwrap();
            let small = (0..7).filter(|&u| handle.work_bound(handle.backend(), u, 1).is_some());
            let small = small.count() as u64;
            assert!(small > 0, "the paper example has small misses");
            for user in 0..7 {
                assert!(matches!(client.query(user, 1).unwrap(), Response::Ok(_)));
            }
            let inline = shared.counters.queries_inline.get();
            assert_eq!(inline, if stall_us == 0 { small } else { 0 }, "stall {stall_us} µs");
            server.stop().unwrap();
        }
    }
}
