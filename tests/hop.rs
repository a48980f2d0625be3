//! The hop runtime seen from the wire: a shard (`pitex serve`) and a
//! router (`pitex router`) run the same process around their own verbs,
//! so the hop-local verbs must answer alike at both, book `requests` and
//! `errors` alike, and neither hop may gain or lose a `STATS` key.

use pitex::cluster::{Router, RouterHandle, RouterOptions, ShardMap};
use pitex::prelude::*;
use pitex::serve::{Response, ServeClient, ServeOptions, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn boot_shard() -> ServerHandle {
    let model = Arc::new(TicModel::paper_example());
    let handle = EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
    Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap()
}

fn boot_router(shard: &ServerHandle) -> RouterHandle {
    let map = ShardMap::new(vec![vec![shard.addr().to_string()]]).unwrap();
    Router::spawn(map, ("127.0.0.1", 0), RouterOptions::default()).unwrap()
}

fn stats_keys(addr: SocketAddr) -> Vec<String> {
    let stats = ServeClient::connect(addr).unwrap().stats().unwrap();
    let mut keys: Vec<String> = stats.iter().map(|(k, _)| k.to_string()).collect();
    keys.sort();
    keys
}

/// The shard's `STATS` keys, sorted.
const SHARD_KEYS: &[&str] = &[
    "backend",
    "busy",
    "cache_evictions",
    "cache_hit_rate",
    "cache_hits",
    "cache_insertions",
    "cache_len",
    "cache_misses",
    "capture_dropped",
    "capture_records",
    "conn_aborted",
    "deadline",
    "epoch",
    "errors",
    "ewma_delaymat_us",
    "ewma_exact_us",
    "ewma_indexest+_us",
    "ewma_indexest_us",
    "ewma_lazy_us",
    "ewma_mc_us",
    "ewma_rr_us",
    "ewma_tim_us",
    "flight_recorded",
    "lat_hist",
    "lat_mean_us",
    "lat_p50_us",
    "lat_p90_us",
    "lat_p99_us",
    "ok",
    "plan_degraded",
    "plan_delaymat",
    "plan_exact",
    "plan_indexest",
    "plan_indexest+",
    "plan_lazy",
    "plan_mc",
    "plan_rr",
    "plan_tim",
    "prepared",
    "qps",
    "queries_inline",
    "reloads",
    "requests",
    "slow_queries",
    "sync_served",
    "updates_applied",
    "updates_pending",
    "uptime_s",
    "uptime_us",
    "wal",
    "wal_append_hist",
    "wal_append_p99_us",
    "wal_compact_hist",
    "wal_compact_p99_us",
    "wal_compactions",
    "wal_fsync_hist",
    "wal_fsync_p99_us",
    "wal_replayed_ops",
    "wal_replayed_records",
    "wal_truncated_bytes",
    "worker_panics",
    "workers",
];

/// The router's `STATS` keys over an idle one-shard cluster, sorted: the
/// shard keys merged (a decision- or `ok`-weighted mean with no weight
/// yet, `lat_mean_us` and `ewma_*_us`, is left out) plus the router's own.
const ROUTER_KEYS: &[&str] = &[
    "backend",
    "busy",
    "cache_evictions",
    "cache_hit_rate",
    "cache_hits",
    "cache_insertions",
    "cache_len",
    "cache_misses",
    "capture_dropped",
    "capture_records",
    "conn_aborted",
    "deadline",
    "epoch",
    "errors",
    "flight_recorded",
    "lat_hist",
    "lat_p50_us",
    "lat_p90_us",
    "lat_p99_us",
    "ok",
    "plan_degraded",
    "plan_delaymat",
    "plan_exact",
    "plan_indexest",
    "plan_indexest+",
    "plan_lazy",
    "plan_mc",
    "plan_rr",
    "plan_tim",
    "prepared",
    "qps",
    "queries_inline",
    "reloads",
    "replicas",
    "replicas_up",
    "replies",
    "requests",
    "router_busy",
    "router_capture_dropped",
    "router_capture_records",
    "router_catchup_epochs",
    "router_catchup_ops",
    "router_catchup_replicas",
    "router_errors",
    "router_failovers",
    "router_flight_recorded",
    "router_lat_hist",
    "router_lat_p50_us",
    "router_lat_p90_us",
    "router_lat_p99_us",
    "router_ok",
    "router_probe_failures",
    "router_probes",
    "router_reloads",
    "router_requests",
    "router_scatters",
    "router_slow_queries",
    "router_updates",
    "router_uptime_s",
    "shards",
    "slow_queries",
    "sync_served",
    "updates_applied",
    "updates_pending",
    "uptime_s",
    "uptime_us",
    "wal",
    "wal_append_hist",
    "wal_append_p99_us",
    "wal_compact_hist",
    "wal_compact_p99_us",
    "wal_compactions",
    "wal_fsync_hist",
    "wal_fsync_p99_us",
    "wal_replayed_ops",
    "wal_replayed_records",
    "wal_truncated_bytes",
    "worker_panics",
    "workers",
];

#[test]
fn stats_key_sets_are_unchanged_at_both_hops() {
    let shard = boot_shard();
    let router = boot_router(&shard);
    assert_eq!(stats_keys(shard.addr()), SHARD_KEYS);
    assert_eq!(stats_keys(router.addr()), ROUTER_KEYS);
    router.stop().unwrap();
    shard.stop().unwrap();
}

/// What `addr` answers to one HTTP `GET`: the status line.
fn http_status(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply.lines().next().unwrap_or("").to_string()
}

/// `(requests, errors)` as a hop's own counters report them.
fn booked(addr: SocketAddr, prefix: &str) -> (u64, u64) {
    let stats = ServeClient::connect(addr).unwrap().stats().unwrap();
    let get = |name: &str| stats.get_u64(&format!("{prefix}{name}")).unwrap();
    (get("requests"), get("errors"))
}

/// One hop-local verb, sent as a text line or an HTTP `GET`.
enum Send {
    Line(&'static str),
    Get(&'static str),
}

#[test]
fn hop_local_verbs_answer_and_book_alike_at_both_hops() {
    use Send::*;
    /// `(request, reply shape, requests delta, errors delta)`. Each delta
    /// excludes the `STATS` that reads it, which books one request.
    const TABLE: [(Send, &str, u64, u64); 5] = [
        (Line("SERIES no_such_field"), "ERR BAD_REQUEST", 1, 1),
        (Get("/series?field=no_such_field"), "HTTP/1.0 404", 0, 0),
        (Line("CAPTURE on"), "ERR BAD_REQUEST", 1, 1),
        (Line("FLIGHT"), "FLIGHT", 1, 0),
        (Line("QUIT"), "BYE", 1, 0),
    ];
    let shard = boot_shard();
    let router = boot_router(&shard);
    for (addr, prefix) in [(shard.addr(), ""), (router.addr(), "router_")] {
        for (send, shape, requests, errors) in &TABLE {
            let before = booked(addr, prefix);
            let (what, reply) = match send {
                Line(line) => {
                    let mut client = ServeClient::connect(addr).unwrap();
                    (*line, client.roundtrip_line(line).unwrap())
                }
                Get(target) => (*target, http_status(addr, target)),
            };
            assert!(reply.starts_with(shape), "{prefix}hop, {what}: {reply}");
            let after = booked(addr, prefix);
            let delta = (after.0 - before.0 - 1, after.1 - before.1);
            assert_eq!(delta, (*requests, *errors), "{prefix}hop, {what}: (requests, errors)");
        }
    }
    router.stop().unwrap();
    shard.stop().unwrap();
}

#[test]
fn lat_mean_is_the_exact_mean_of_the_ok_replies() {
    const N: u64 = 12;
    let shard = boot_shard();
    let mut client = ServeClient::connect(shard.addr()).unwrap();
    let mut sum = 0;
    for i in 0..N {
        // Misses and hits alike: users 0..3 at k = 1, 2, 3.
        let Response::Ok(reply) = client.query((i % 4) as u32, 1 + (i / 4) as usize).unwrap()
        else {
            panic!("query {i} must answer OK")
        };
        sum += reply.us;
    }
    let stats = client.stats().unwrap();
    let hist =
        pitex::support::obs::LatencyHistogram::from_wire(stats.get("lat_hist").unwrap()).unwrap();
    assert_eq!(hist.count(), N);
    assert_eq!(stats.get("lat_mean_us"), Some(format!("{:.1}", sum as f64 / N as f64).as_str()));
    shard.stop().unwrap();
}
