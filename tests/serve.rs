//! End-to-end serving suite: boots a real `pitex_serve` server on an
//! ephemeral loopback port and drives it with concurrent clients over TCP,
//! asserting the paper's Fig. 2 ground truth (`PITEX(u1, 2) = {w3, w4}`),
//! every protocol error path, result-cache behavior (via the `STATS` hit
//! counter), and a panic-free graceful shutdown.

use pitex::prelude::*;
use pitex::serve::{ErrorCode, Response, ServeClient, ServeOptions, Server, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

/// Fig. 2's optimum for `(u1, k = 2)`, as 0-based tag ids.
const PAPER_TAGS: [u32; 2] = [2, 3];

fn boot(options: ServeOptions) -> ServerHandle {
    let model = Arc::new(TicModel::paper_example());
    let handle = EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
    Server::spawn(handle, ("127.0.0.1", 0), options).unwrap()
}

/// The acceptance scenario: ≥ 4 concurrent clients, ≥ 64 total requests
/// mixing good queries with malformed / unknown-user / `k = 0` /
/// deadline-exceeded ones; every successful Fig. 2 answer must be exact,
/// repeats must hit the cache, and shutdown must reap every thread cleanly.
#[test]
fn concurrent_clients_agree_on_the_paper_answer() {
    let server = boot(ServeOptions { workers: 3, ..ServeOptions::default() });
    let addr = server.addr();

    const CLIENTS: usize = 6;
    const ROUNDS: usize = 12; // 6 clients x 12 rounds x ~2 requests > 64
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    // The Fig. 2 query, from every client, every round.
                    match client.query(0, 2).unwrap() {
                        Response::Ok(reply) => {
                            assert_eq!(
                                reply.tags, PAPER_TAGS,
                                "client {client_id} round {round}: wrong tags"
                            );
                            assert!(reply.spread > 1.5 && reply.spread < 2.5);
                            assert_eq!(reply.k, 2);
                        }
                        other => panic!("client {client_id}: expected OK, got {other:?}"),
                    }
                    // One error path per round, cycling through all four.
                    match round % 4 {
                        0 => {
                            let raw = client.roundtrip_line("EXPLODE 1 2").unwrap();
                            let Response::Err { code, .. } = Response::parse(&raw).unwrap() else {
                                panic!("malformed request must ERR")
                            };
                            assert_eq!(code, ErrorCode::BadRequest);
                        }
                        1 => match client.query(4_000_000, 2).unwrap() {
                            Response::Err { code, message } => {
                                assert_eq!(code, ErrorCode::UnknownUser);
                                assert!(message.contains("out of range"));
                            }
                            other => panic!("unknown user must ERR, got {other:?}"),
                        },
                        2 => match client.query(0, 0).unwrap() {
                            Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadK),
                            other => panic!("k = 0 must ERR, got {other:?}"),
                        },
                        _ => match client.query_with_timeout(6, 1, 0).unwrap() {
                            // timeout_us = 0: expired before it could run.
                            Response::Err { code, .. } => {
                                assert_eq!(code, ErrorCode::Deadline)
                            }
                            other => panic!("0us deadline must ERR, got {other:?}"),
                        },
                    }
                }
            });
        }
    });

    // Accounting: every request got exactly one reply, the books balance,
    // and the repeated Fig. 2 query was served from the cache.
    let mut client = ServeClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let requests = stats.get_u64("requests").unwrap();
    let ok = stats.get_u64("ok").unwrap();
    let busy = stats.get_u64("busy").unwrap();
    let deadline = stats.get_u64("deadline").unwrap();
    let errors = stats.get_u64("errors").unwrap();
    let total = (CLIENTS * ROUNDS * 2) as u64;
    assert!(total >= 64, "the scenario must exercise at least 64 requests");
    // +1 for the STATS request itself.
    assert_eq!(requests, total + 1, "every request is counted");
    assert_eq!(ok + busy + deadline + errors + 1, requests, "outcomes partition requests");
    assert_eq!(ok, (CLIENTS * ROUNDS) as u64, "every well-formed query succeeded");
    assert_eq!(deadline, (CLIENTS * ROUNDS / 4) as u64);
    assert_eq!(errors, (CLIENTS * ROUNDS / 4 * 3) as u64);
    let hits = stats.get_u64("cache_hits").unwrap();
    let misses = stats.get_u64("cache_misses").unwrap();
    assert!(hits >= ok - CLIENTS as u64, "repeats served from cache (hits = {hits})");
    assert!(misses >= 1 && misses <= CLIENTS as u64, "only first-arrivals miss");
    assert_eq!(stats.get_u64("worker_panics"), Some(0));

    // Graceful shutdown: every server thread joins without panic.
    server.stop().expect("no server thread may panic");
}

#[test]
fn repeated_query_is_served_from_the_cache() {
    let server = boot(ServeOptions::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let Response::Ok(first) = client.query(0, 2).unwrap() else { panic!("expected OK") };
    assert_eq!(first.tags, PAPER_TAGS);
    assert!(!first.cached, "first query computes");

    let Response::Ok(second) = client.query(0, 2).unwrap() else { panic!("expected OK") };
    assert_eq!(second.tags, PAPER_TAGS);
    assert!(second.cached, "identical query hits the cache");
    assert_eq!(second.spread, first.spread, "cached spread is bit-identical");

    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("cache_hits"), Some(1));
    assert_eq!(stats.get_u64("cache_misses"), Some(1));
    assert_eq!(stats.get_f64("cache_hit_rate"), Some(0.5));
    server.stop().unwrap();
}

#[test]
fn shutdown_verb_is_graceful_under_load() {
    let server = boot(ServeOptions { workers: 2, ..ServeOptions::default() });
    let addr = server.addr();
    // A few clients mid-conversation while another one pulls the plug.
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for _ in 0..5 {
                    // Replies may legitimately fail once shutdown lands.
                    if client.query(0, 2).is_err() {
                        return;
                    }
                }
            });
        }
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            let mut killer = ServeClient::connect(addr).unwrap();
            killer.shutdown_server().unwrap();
        });
    });
    server.join().expect("graceful shutdown must not panic any thread");
}

#[test]
fn every_sampling_backend_serves_the_paper_answer() {
    for backend in [EngineBackend::Exact, EngineBackend::Lazy, EngineBackend::Mc] {
        let model = Arc::new(TicModel::paper_example());
        let handle = EngineHandle::new(model, backend, PitexConfig::default()).unwrap();
        let server = Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let Response::Ok(reply) = client.query(0, 2).unwrap() else {
            panic!("{}: expected OK", backend.label())
        };
        assert_eq!(reply.tags, PAPER_TAGS, "{}", backend.label());
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("backend"), Some(backend.cli_name()));
        server.stop().unwrap();
    }
}

#[test]
fn index_backend_serves_from_shared_snapshots() {
    let model = Arc::new(TicModel::paper_example());
    let index = Arc::new(RrIndex::build(&model, IndexBudget::Fixed(3_000), 3));
    let handle = EngineHandle::with_indexes(
        model,
        EngineBackend::IndexEstPlus,
        Some(index),
        None,
        PitexConfig::default(),
    )
    .unwrap();
    let server = Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let Response::Ok(reply) = client.query(0, 2).unwrap() else { panic!("expected OK") };
    assert_eq!(reply.k, 2);
    assert!(reply.spread >= 1.0);
    server.stop().unwrap();
}

/// Snapshot swaps under load: concurrent clients hammer the same query
/// while an admin stages updates and reloads. Every reply must match one
/// of the two worlds *exactly* — the paper answer with its old-world
/// spread, or the post-update answer with its new-world spread. A torn
/// snapshot (old tags with new spread, or vice versa) fails the test, as
/// does any error or any stale answer after the swap completes.
#[test]
fn snapshot_swap_under_load_is_never_torn() {
    let server = boot(ServeOptions { workers: 3, ..ServeOptions::default() });
    let addr = server.addr();

    // Ground truth for both worlds from the exact evaluator.
    let old_model = TicModel::paper_example();
    let old_truth = PitexEngine::with_exact(&old_model, PitexConfig::default()).query(0, 2);
    let mut overlay = ModelOverlay::new(Arc::new(old_model));
    let ops = [
        UpdateOp::parse_text("DETACH_TAG 2").unwrap(),
        UpdateOp::parse_text("DETACH_TAG 3").unwrap(),
    ];
    overlay.apply_all(ops.iter().cloned()).unwrap();
    let new_model = overlay.compact();
    let new_truth = PitexEngine::with_exact(&new_model, PitexConfig::default()).query(0, 2);
    assert_ne!(old_truth.tags, new_truth.tags);

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 40;
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let old_truth = &old_truth;
            let new_truth = &new_truth;
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    let Response::Ok(reply) = client.query(0, 2).unwrap() else {
                        panic!("client {client_id} round {round}: query failed mid-swap")
                    };
                    let old_world =
                        reply.tags == old_truth.tags.tags() && reply.spread == old_truth.spread;
                    let new_world =
                        reply.tags == new_truth.tags.tags() && reply.spread == new_truth.spread;
                    assert!(
                        old_world || new_world,
                        "client {client_id} round {round}: torn answer {:?} spread {}",
                        reply.tags,
                        reply.spread
                    );
                }
            });
        }
        scope.spawn(move || {
            // Let the queriers get going, then mutate and swap mid-storm.
            std::thread::sleep(Duration::from_millis(5));
            let mut admin = ServeClient::connect(addr).unwrap();
            assert_eq!(admin.epoch().unwrap(), 1);
            for op in &ops {
                admin.update(op.clone()).unwrap();
            }
            let reloaded = admin.reload().unwrap();
            assert_eq!(reloaded.epoch, 2);
            assert_eq!(reloaded.folded, 2);
        });
    });

    // The swap completed: from here on only the new answer may be served,
    // and the epoch in STATS has advanced.
    let mut client = ServeClient::connect(addr).unwrap();
    for _ in 0..3 {
        let Response::Ok(reply) = client.query(0, 2).unwrap() else { panic!("expected OK") };
        assert_eq!(reply.tags, new_truth.tags.tags(), "stale answer after the swap");
        assert_eq!(reply.spread, new_truth.spread);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("epoch"), Some(2), "STATS must report the advanced epoch");
    assert_eq!(stats.get_u64("reloads"), Some(1));
    assert_eq!(stats.get_u64("updates_applied"), Some(2));
    server.stop().expect("no server thread may panic during swaps");
}

#[test]
fn load_shedding_accounts_for_every_request() {
    // A rendezvous-sized queue and one worker: under 8 pipelining clients
    // some requests may shed as BUSY, but none may vanish or hang.
    let server = boot(ServeOptions {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0, // every request must reach the worker pool
        ..ServeOptions::default()
    });
    let report = pitex::serve::LoadGen {
        clients: 8,
        requests_per_client: 8,
        user: 0,
        k: 2,
        ..pitex::serve::LoadGen::default()
    }
    .run(server.addr())
    .unwrap();
    assert_eq!(report.requests, 64);
    assert_eq!(report.ok + report.busy + report.errors, 64, "no request lost");
    assert!(report.ok >= 1);
    assert_eq!(report.errors, 0);
    assert_eq!(report.cached, 0, "cache disabled");
    server.stop().unwrap();
}

/// `pitex serve --deadline-ms 0` would refuse every query that carries no
/// `timeout_us` of its own, so the CLI refuses the flag instead of booting.
#[test]
fn serve_refuses_a_zero_default_deadline() {
    let dir = std::env::temp_dir().join(format!("pitex-serve-deadline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.bin");
    pitex::model::serial::save(&TicModel::paper_example(), &model_path).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_pitex"))
        .args(["serve", "--model", model_path.to_str().unwrap(), "--port", "0"])
        .args(["--deadline-ms", "0"])
        .output()
        .expect("running the pitex binary");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--deadline-ms must be at least 1"), "{stderr}");
}

/// Runs `pitex <args>` over the paper model with `envs` set, killing it if
/// it has not exited within 30 s (a server that boots never would), and
/// returns its exit code and stderr.
fn run_pitex_on_paper_model(tag: &str, args: &[&str], envs: &[(&str, &str)]) -> (i32, String) {
    let dir = std::env::temp_dir().join(format!("pitex-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.bin");
    pitex::model::serial::save(&TicModel::paper_example(), &model_path).unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pitex"))
        .args(args.iter().map(|a| a.replace("{model}", model_path.to_str().unwrap())))
        .envs(envs.iter().copied())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("running the pitex binary");
    let started = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > Duration::from_secs(30) {
            child.kill().unwrap();
            panic!("pitex {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (status.code().expect("exited, not signalled"), stderr)
}

/// A slow SLO window longer than the 360 windows the mid ring holds would
/// be evaluated over an hour instead of the two asked for; the server
/// refuses to boot and names the variable instead.
#[test]
fn serve_refuses_an_slo_window_the_mid_ring_cannot_hold() {
    let args = ["serve", "--model", "{model}", "--port", "0"];
    let (code, stderr) =
        run_pitex_on_paper_model("slo-window", &args, &[("PITEX_SLO_SLOW_WINDOWS", "720")]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("PITEX_SLO_SLOW_WINDOWS"), "{stderr}");
}

/// LT is not a backend: naming it is refused with the list of those that are.
#[test]
fn query_refuses_the_lt_backend_by_name() {
    let args = ["query", "--model", "{model}", "--user", "0", "--k", "2", "--backend", "lt"];
    let (code, stderr) = run_pitex_on_paper_model("backend-lt", &args, &[]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains(&pitex::core::registry::method_names()), "{stderr}");
}
