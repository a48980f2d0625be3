//! # `pitex_serve` — the concurrent query-serving subsystem
//!
//! The paper frames PITEX as an *online service*: the RR-Graph index is
//! built offline (§6) precisely so that interactive per-user queries are
//! cheap. This crate is that service. It turns the batch-shaped engine into
//! a network server:
//!
//! * **Shared-engine runtime** — the server owns `Arc` snapshots of the
//!   model and indexes through [`pitex_core::EngineHandle`]; each worker
//!   thread builds a private [`pitex_core::PitexEngine`] from them, so the
//!   engine's `&mut self` memoisation needs no locks.
//! * **One connection core** ([`conn`]) — a sans-I/O per-connection state
//!   machine holding every wire rule once: the protocol sniff, the three
//!   codecs (`PFRM` frames, text lines, HTTP `GET`) to one `Request`,
//!   reply ordering, caps and close rules. The shard and the cluster
//!   router are two `Service`s behind it; the epoll loop and the blocking
//!   thread-per-connection driver only move bytes in front of it.
//! * **One hop runtime** ([`hop`]) — what the shard and the cluster
//!   router both run around their `Service`: the obs bundle (metric
//!   registry, flight and capture recorders, time-series rings, SLO
//!   options) read once at boot, the front end and the sampler thread, the
//!   one switch for the hop-local verbs (`PING`, `QUIT`, `SHUTDOWN`,
//!   `SERIES`, `FLIGHT`, `CAPTURE`) and the admin gate, the one outcome
//!   booking of a query verb, and the one [`hop::HopHandle`] both hops
//!   return.
//! * **Line protocol** ([`protocol`]) — `QUERY <user> <k>` in, one reply
//!   line out; scriptable with `nc` and spoken by `pitex client`.
//! * **Bounded queue + load shedding** ([`server`]) — a full request queue
//!   answers `BUSY` instead of growing; per-request deadlines answer
//!   `ERR DEADLINE` instead of running work nobody awaits.
//! * **Result cache** — a sharded LRU over `(user, k, backend)`
//!   ([`pitex_support::lru`]) consulted before any sampling; `STATS`
//!   exposes hit rates, throughput and latency percentiles.
//! * **Adaptive backend planning** — `QUERY` accepts an optional backend
//!   operand; `auto` (per request, or as the server's `--backend`) asks the
//!   cost-based planner ([`pitex_core::plan`]) to pick the cheapest
//!   suitable estimator for the query's shape and *remaining* deadline,
//!   degrading to a cheaper backend rather than burning the budget.
//!   Results are cached under the **resolved** backend, the `EXPLAIN` verb
//!   reports the decision (chosen backend, predicted vs. actual cost,
//!   rejected alternatives), and `STATS` exports per-backend decision
//!   counters and latency EWMAs (`plan_*`, `ewma_*_us`).
//! * **Client + load generator** ([`client`]) — the typed client (with
//!   one transparent reconnect-and-retry for the idempotent verbs
//!   `QUERY`/`STATS`/`PING`), and the closed-loop [`LoadGen`] behind
//!   `bench_serve` and `pitex client --bench`.
//! * **Workload capture + open-loop replay** ([`workload`]) — the server
//!   samples admitted requests into a PWRK workload log
//!   (`PITEX_OBS_CAPTURE`, the admin `CAPTURE on|off|rotate` verb);
//!   [`schedule_from_log`] replays a recording at recorded or scaled
//!   pace, [`SyntheticSchedule`] synthesizes Poisson/Zipf load, and
//!   [`Replay`] issues either **open-loop** — latency measured from the
//!   scheduled arrival, immune to the coordinated omission that makes
//!   closed-loop tails look flat — with `--verify` checking answers
//!   bit-identically against the recording and a per-phase
//!   (queue/plan/cache/execute/net) latency-attribution report.
//! * **Live updates** — `UPDATE` stages typed [`pitex_live::UpdateOp`]
//!   mutations, `RELOAD` folds them into a fresh snapshot with incremental
//!   RR-index repair and swaps it in under a new epoch (zero-downtime:
//!   queries keep flowing against the old snapshot), `EPOCH` reads the
//!   serving epoch; all three are admin-gated. `STATS` reports `epoch=`,
//!   `updates_applied=` and `reloads=`, and the result cache is swept
//!   per-user so no stale answer survives a mutation that touches it.
//! * **Cluster coordination** — `PREPARE`/`COMMIT` split `RELOAD` into its
//!   slow (fold + repair, no swap) and fast (atomic swap) halves, so the
//!   `pitex_cluster` router can run a two-phase epoch barrier across
//!   shards; `STATS` exports the raw latency buckets (`lat_hist=`) so a
//!   scatter-gather can merge distributions instead of averaging
//!   percentiles.
//! * **Durability + catch-up** — spawned with a WAL directory
//!   ([`ServeOptions::wal`]), every acknowledged `UPDATE` is fsynced to an
//!   epoch-stamped log *before* its ack, boot replays the recovered
//!   history (resuming the pre-crash epoch, torn tails truncated, loud
//!   error on corruption), and the log compacts into a base snapshot past
//!   the [`pitex_live::WalOptions`] bounds. The `SYNC <from_epoch>` verb streams the
//!   committed-history suffix as a [`pitex_live::SyncBundle`] so a stale
//!   replica (or the cluster prober acting for it) can replay its way
//!   back to the current epoch — bit-identically, because both folding
//!   and index repair are deterministic.
//!
//! ```
//! use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
//! use pitex_model::TicModel;
//! use pitex_serve::{Response, ServeClient, ServeOptions, Server};
//! use std::sync::Arc;
//!
//! // Boot a server on an ephemeral port around the paper's Fig. 2 model.
//! let model = Arc::new(TicModel::paper_example());
//! let handle = EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
//! let server = Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
//!
//! let mut client = ServeClient::connect(server.addr()).unwrap();
//! let Response::Ok(reply) = client.query(0, 2).unwrap() else { panic!() };
//! assert_eq!(reply.tags, vec![2, 3]); // W* = {w3, w4}
//!
//! server.stop().unwrap();
//! ```

pub mod client;
pub mod conn;
pub mod frame;
pub mod hop;
pub mod http;
pub mod protocol;
pub mod server;
pub mod workload;

pub use client::{LoadGen, LoadReport, ServeClient};
pub use protocol::{
    CaptureAction, ErrorCode, ExplainReply, FlightReply, FlightWireEntry, QueryReply, QueryRequest,
    ReloadReply, Request, Response, SeriesReply, StatsReply, TraceReply, TraceRequest,
};
pub use server::{ServeOptions, Server, ServerHandle};
pub use workload::{
    schedule_from_log, Expected, Replay, ReplayItem, ReplayReport, SyntheticSchedule,
};
