//! End-to-end health suite: the ISSUE's acceptance scenario for the SLO
//! burn-rate engine, driven over real TCP against a 2-shard cluster.
//!
//! The drill: under clean load every hop (each shard directly, the router's
//! merged verdict) reports ok. Then one shard is booted with the
//! `PITEX_OBS_STALL_US` fault injector so every executed query stalls past
//! the latency objective's threshold, the cluster is driven with mixed
//! traffic, and the router's `HEALTH` must flip to `page` within the fast
//! window — naming the offending shard and the latency objective. The raw
//! HTTP surface must agree (`GET /health` 503 at the router, 200 at the
//! healthy shard, `GET /metrics` valid Prometheus text), and `pitex doctor`
//! must rank the stalled shard's latency burn first and attribute the time
//! to the `execute` phase.
//!
//! Timing knobs are shrunk via the environment (25 ms ticks, a 2-mid-window
//! fast window) so the page verdict lands in well under a second of wall
//! clock; [`ENV_LOCK`] serializes the env-touching tests.

use pitex::cluster::{Router, RouterOptions, ShardMap};
use pitex::prelude::*;
use pitex::serve::frame::{self, decode_response, FrameBuf, WireReply, MAX_REPLY_FRAME_BYTES};
use pitex::serve::{
    QueryRequest, Request, Response, ServeClient, ServeOptions, Server, ServerHandle, TraceRequest,
};
use pitex::support::obs::parse_prometheus;
use pitex::support::obs::slo::SloStatus;
use pitex::support::obs::timeseries::SeriesRes;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fig. 2: 7 users.
const USERS: u32 = 7;

/// Serializes tests that set process-wide environment variables.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A shard with the result cache OFF, so every query takes the execute
/// path — a cache hit would skip the injected stall and dilute the
/// latency histogram with microsecond replies.
fn boot_shard() -> ServerHandle {
    let model = Arc::new(TicModel::paper_example());
    let handle = EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
    let options = ServeOptions { cache_capacity: 0, ..ServeOptions::default() };
    Server::spawn(handle, ("127.0.0.1", 0), options).unwrap()
}

/// One blocking HTTP/1.0 GET over a raw socket (no client library):
/// returns `(status_code, body)`. The server closes after one response,
/// so reading to EOF captures the whole exchange.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\nAccept: */*\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) =
        raw.split_once("\r\n\r\n").unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, body.to_string())
}

#[test]
fn router_health_pages_on_a_stalled_shard_and_names_it() {
    let _guard = ENV_LOCK.lock().unwrap();

    // Shrink the sampler/SLO clocks: 25 ms ticks make a mid window 250 ms,
    // the fast window 500 ms, the slow window 2 s. The fixed 100 ms latency
    // threshold sits far above the exact engine's replies (and the front door's
    // occasional connection-setup hiccup) and far below the 250 ms
    // injected stall.
    std::env::set_var("PITEX_OBS_TS_TICK_MS", "25");
    std::env::set_var("PITEX_SLO_FAST_WINDOWS", "2");
    std::env::set_var("PITEX_SLO_SLOW_WINDOWS", "8");

    // shard0 healthy; shard1 booted under the stall injector (the knob is
    // read once at spawn, so scoping the set/remove to this boot confines
    // the fault to shard1).
    let shard0 = boot_shard();
    std::env::set_var("PITEX_OBS_STALL_US", "250000");
    let shard1 = boot_shard();
    std::env::remove_var("PITEX_OBS_STALL_US");

    let map = ShardMap::new(vec![vec![shard0.addr().to_string()], vec![shard1.addr().to_string()]])
        .unwrap();
    let router = Router::spawn(map.clone(), ("127.0.0.1", 0), RouterOptions::default()).unwrap();
    let router_addr = router.addr().to_string();

    let shard0_users: Vec<u32> = (0..USERS).filter(|&u| map.shard_of(u) == 0).collect();
    let shard1_users: Vec<u32> = (0..USERS).filter(|&u| map.shard_of(u) == 1).collect();
    assert!(
        !shard0_users.is_empty() && !shard1_users.is_empty(),
        "seed 42 must cut the 7 paper users across both shards (got {shard0_users:?} / {shard1_users:?})"
    );

    // ---- Phase 1: clean load on the healthy shard only; ok everywhere.
    let mut client = ServeClient::connect(&router_addr).unwrap();
    for _ in 0..20 {
        for &user in &shard0_users {
            client.query(user, 2).unwrap();
        }
    }
    // Let at least one mid window holding that traffic complete.
    std::thread::sleep(Duration::from_millis(600));
    for addr in [shard0.addr().to_string(), shard1.addr().to_string(), router_addr.clone()] {
        let verdict = ServeClient::connect(&addr).unwrap().health().unwrap();
        assert_eq!(
            verdict.status,
            SloStatus::Ok,
            "hop {addr} must be ok under clean load, got {verdict:?}"
        );
    }

    // ---- Phase 2: mixed traffic (every user) from a background driver.
    // Shard1's execute path now stalls 250 ms per query; shard0's replies
    // stay fast, so at the router the slow fraction is diluted and the
    // stalled *shard's* burn strictly dominates the router's own.
    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let stop = Arc::clone(&stop);
        let addr = router_addr.clone();
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(&addr).ok();
            while !stop.load(Ordering::SeqCst) {
                for user in 0..USERS {
                    match client.as_mut().map(|c| c.query(user, 2)) {
                        Some(Ok(_)) => {}
                        _ => client = ServeClient::connect(&addr).ok(),
                    }
                }
            }
        })
    };

    // The router's merged verdict must flip to page within the fast
    // window; poll with a generous wall-clock deadline.
    let deadline = Instant::now() + Duration::from_secs(15);
    let verdict = loop {
        let verdict = ServeClient::connect(&router_addr).unwrap().health().unwrap();
        if verdict.status == SloStatus::Page {
            break verdict;
        }
        assert!(
            Instant::now() < deadline,
            "router never paged on the stalled shard; last verdict {verdict:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };

    // The verdict names the stalled shard and the latency objective, with
    // the fast window and the shard's latency histogram as evidence.
    assert_eq!(verdict.worst, "shard1", "worst origin must be the stalled shard: {verdict:?}");
    let paging = verdict
        .slos
        .iter()
        .find(|s| s.origin == "shard1" && s.name == "latency")
        .unwrap_or_else(|| panic!("no shard1 latency verdict in {verdict:?}"));
    assert_eq!(paging.status, SloStatus::Page, "{verdict:?}");
    assert_eq!(paging.window, "fast", "{verdict:?}");
    assert_eq!(paging.field, "lat_hist", "{verdict:?}");
    assert!(paging.burn >= 10.0, "page burn must clear the page threshold: {verdict:?}");

    // The stalled shard pages directly too; the healthy shard stays ok.
    let direct = ServeClient::connect(shard1.addr()).unwrap().health().unwrap();
    assert_eq!(direct.status, SloStatus::Page, "{direct:?}");
    let healthy = ServeClient::connect(shard0.addr()).unwrap().health().unwrap();
    assert_eq!(healthy.status, SloStatus::Ok, "{healthy:?}");

    // ---- HTTP surface, while the burn is live.
    let (status, body) = http_get(&router_addr, "/metrics");
    assert_eq!(status, 200, "GET /metrics: {body}");
    let samples = parse_prometheus(&body).expect("router /metrics must be valid Prometheus text");
    assert!(
        samples.iter().any(|s| s.name == "pitex_router_requests"),
        "router exposition must carry pitex_router_requests: {body}"
    );

    let (status, body) = http_get(&router_addr, "/health");
    assert_eq!(status, 503, "a paging router must answer 503: {body}");
    assert!(body.contains("\"status\":\"page\""), "{body}");
    assert!(body.contains("shard1"), "503 body must name the offending shard: {body}");

    let (status, body) = http_get(&shard0.addr().to_string(), "/health");
    assert_eq!(status, 200, "the healthy shard must answer 200: {body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // ---- SERIES: the stalled shard's sampler has rolling points with
    // real traffic in them, at the tick width the env dialed in.
    let series = ServeClient::connect(shard1.addr())
        .unwrap()
        .series("requests", Some(SeriesRes::Fast))
        .unwrap();
    assert_eq!(series.tick_ms, 25);
    let points = series.scalar_points().expect("counter series must be scalar");
    assert!(
        points.iter().any(|&p| p > 0.0),
        "shard1 requests series must show the drive traffic: {points:?}"
    );

    // ---- pitex doctor: one-shot triage must rank the stalled shard's
    // latency burn first and attribute the time to the execute phase.
    // `--user` picks a shard1-owned key: with the cache off every trace
    // takes the (stalled) execute path being diagnosed.
    let map_path =
        std::env::temp_dir().join(format!("pitex-health-map-{}.txt", std::process::id()));
    std::fs::write(&map_path, map.to_text()).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_pitex"))
        .args([
            "doctor",
            "--addr",
            &router_addr,
            "--map",
            map_path.to_str().unwrap(),
            "--user",
            &shard1_users[0].to_string(),
            "--k",
            "3",
        ])
        .output()
        .expect("running pitex doctor");
    let _ = std::fs::remove_file(&map_path);
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "doctor failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let rank1 = stdout
        .lines()
        .skip_while(|l| !l.starts_with("diagnosis:"))
        .find(|l| l.trim_start().starts_with("1."))
        .unwrap_or_else(|| panic!("no ranked diagnosis in:\n{stdout}"));
    assert!(
        rank1.contains("shard1") && rank1.contains("latency"),
        "rank-1 diagnosis must blame shard1's latency objective: {rank1:?}\n{stdout}"
    );
    let phases_at = stdout
        .lines()
        .position(|l| l.starts_with("slowest phases at shard1"))
        .unwrap_or_else(|| panic!("doctor must trace the stalled shard:\n{stdout}"));
    let top_phase = stdout
        .lines()
        .nth(phases_at + 1)
        .unwrap_or_else(|| panic!("no phase lines after the trace header:\n{stdout}"));
    assert!(
        top_phase.contains("execute"),
        "the stalled execute phase must rank first: {top_phase:?}\n{stdout}"
    );

    stop.store(true, Ordering::SeqCst);
    driver.join().unwrap();

    for var in ["PITEX_OBS_TS_TICK_MS", "PITEX_SLO_FAST_WINDOWS", "PITEX_SLO_SLOW_WINDOWS"] {
        std::env::remove_var(var);
    }

    router.stop().expect("no router thread may panic");
    shard0.stop().expect("no shard thread may panic");
    shard1.stop().expect("no shard thread may panic");
}

/// `TRACE` and `EXPLAIN` ride the worker pool like `QUERY`: while both are
/// stalled in flight on one binary connection, another binary connection's
/// `STATS` and `EPOCH` — the verbs the event loop runs on its one slow lane,
/// the lane the router's shard hop uses — must not queue behind them.
#[test]
fn stalled_trace_and_explain_do_not_hold_up_stats_or_epoch() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("PITEX_OBS_STALL_US", "400000");
    let shard = boot_shard();
    std::env::remove_var("PITEX_OBS_STALL_US");
    // Both stalled verbs, then a PING, pipelined on one binary connection:
    // the inline PONG overtaking them proves both are admitted and in flight.
    let mut stream = TcpStream::connect(shard.addr()).unwrap();
    let query = QueryRequest::new(0, 2);
    let trace = Request::Trace(TraceRequest { query, trace_id: None });
    for (id, request) in [(1, trace), (2, Request::Explain(query)), (3, Request::Ping)] {
        stream.write_all(&frame::encode_request(id, &request)).unwrap();
    }
    let mut frames = FrameBuf::new(MAX_REPLY_FRAME_BYTES);
    let mut next_reply = || loop {
        if let Some(payload) = frames.next_payload().unwrap() {
            let (id, WireReply::Response(response)) = decode_response(&payload).unwrap() else {
                panic!("raw reply to a typed request")
            };
            return (id, response);
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the shard hung up");
        frames.extend(&chunk[..n]);
    };
    assert_eq!(next_reply(), (3, Response::Pong));

    let mut probe = ServeClient::connect_binary(shard.addr()).unwrap();
    let started = Instant::now();
    probe.stats().unwrap();
    let stats_took = started.elapsed();
    let started = Instant::now();
    assert_eq!(probe.request(&Request::Epoch).unwrap(), Response::Epoch(1));
    let epoch_took = started.elapsed();
    assert!(stats_took < Duration::from_millis(100), "STATS took {stats_took:?}");
    assert!(epoch_took < Duration::from_millis(100), "EPOCH took {epoch_took:?}");

    let mut replies = [next_reply(), next_reply()];
    replies.sort_by_key(|(id, _)| *id);
    let [(_, Response::Traced(traced)), (_, Response::Explained(explained))] = &replies else {
        panic!("expected TRACED and EXPLAINED: {replies:?}")
    };
    let spans: Vec<&str> = traced.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(spans, ["plan", "cache", "queue", "execute"]);
    assert!(traced.spans[3].dur_us >= 400_000, "the stall is in the execute span: {traced:?}");
    assert_eq!(explained.tags, traced.tags, "both ran the same query");
    assert!(explained.actual_us >= 400_000, "{explained:?}");
    shard.stop().expect("no shard thread may panic");
}

#[test]
fn replay_json_emits_a_machine_readable_report() {
    let _guard = ENV_LOCK.lock().unwrap();

    let server = boot_shard();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_pitex"))
        .args([
            "replay",
            "--addr",
            &server.addr().to_string(),
            "--rate",
            "400",
            "--requests",
            "40",
            "--users",
            "7",
            "--conns",
            "2",
            "--json",
        ])
        .output()
        .expect("running pitex replay --json");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "replay failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let body = stdout.trim();
    assert!(body.starts_with('{') && body.ends_with('}'), "not a JSON object: {body:?}");
    for key in ["\"sent\"", "\"ok\"", "\"qps\"", "\"latency\"", "\"p99_us\"", "\"phases\""] {
        assert!(body.contains(key), "missing {key} in {body}");
    }

    server.stop().expect("no server thread may panic");
}
