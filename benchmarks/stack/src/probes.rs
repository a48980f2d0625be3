//! The layer probes of a traced run: each crate's public functions timed
//! from outside, on the fixtures the workloads themselves set up.
//!
//! The probes do not depend on which workload the run is for (or on its
//! `--seed`): they walk `D0` → `D1` → `D2` → the served topology with the
//! workloads' own set-up functions at a fixed probe seed, so
//! `index.build_s` is the build `index_plus` pays in `setup_s`,
//! `index.decode_ms` the decode `serve_hit` pays, and so on. Timings are in
//! reference-speed units: a micro-probe is the median of three loops, each
//! bracketed by `cal()`.

use crate::cal::{self, Scaled};
use crate::fixtures::{self, config, Sizes, INDEX_BUDGET, INDEX_SEED, K};
use crate::harness::{self, Phases, Workload};
use crate::workloads::index_plus::IndexPlus;
use crate::workloads::live_repair::{self, LiveRepair};
use crate::workloads::online_lazy::OnlineLazy;
use crate::workloads::routed_miss::K_MISS;
use crate::workloads::serve_hit::CACHE_CAPACITY;
use crate::workloads::served::{self, Artifacts, Echo, Front, Shard};
use crate::{stats, trace};
use pitex_cluster::ShardMap;
use pitex_core::{BackendKind, EngineBackend, EngineHandle, PitexEngine, PlanInput, Planner};
use pitex_index::serial::rr_index_to_bytes;
use pitex_index::{DelayMatEstimator, DelayMatIndex, IndexEstimator, IndexPlusEstimator};
use pitex_live::{SnapshotStore, Wal, WalOptions};
use pitex_model::{BoundOracle, EdgeProbs, PosteriorEdgeProbs, TagSet, TicModel, TopicPosterior};
use pitex_sampling::{SamplingParams, SpreadEstimator};
use pitex_serve::frame::{self, FrameBuf, MAX_REQUEST_FRAME_BYTES};
use pitex_serve::{QueryReply, QueryRequest, Request, Response, ServeClient};
use pitex_support::obs::{
    render_prometheus, FlightEntry, FlightRecorder, LatencyHistogram, ObsOptions, Registry,
    TimeSeriesStore, TsOptions,
};
use pitex_support::ShardedLru;
use rand::Rng;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// The seed the probe fixtures draw their users and edges with.
const PROBE_SEED: u64 = 0x5eed;
/// Update ops of the `live` probe's traced mini-pass.
const LIVE_PROBE_OPS: usize = 6;

type Rows = Vec<(&'static str, f64)>;

/// Loop lengths are written for the full sizes; `--quick` shrinks them.
struct Prober {
    scale: f64,
}

impl Prober {
    /// Reference-speed seconds per call of `f`: the median of three loops
    /// of `iters` calls, each loop bracketed by `cal()`.
    fn per_call<T>(&self, iters: usize, mut f: impl FnMut() -> T) -> f64 {
        let iters = ((iters as f64 * self.scale) as usize).max(3);
        let loops: Vec<f64> = (0..3)
            .map(|_| {
                let ((), t) = cal::time_bracketed(|| {
                    for _ in 0..iters {
                        black_box(f());
                    }
                });
                t.reference / iters as f64
            })
            .collect();
        stats::median(&loops)
    }
}

/// One set-up of workload `W` at the probe seed, with its phases.
fn setup<W: Workload>(input: &W::Input, sizes: &Sizes) -> (W::State, Phases, Scaled) {
    let mut phases = Phases::default();
    let (state, scaled) = cal::time_bracketed(|| W::setup(input, sizes, PROBE_SEED, &mut phases));
    (state, phases, scaled)
}

/// A fixed, seeded series of `K`-tag sets (most of them infeasible, as in
/// a query's enumeration).
fn tag_sets(model: &TicModel) -> Vec<TagSet> {
    let mut rng = fixtures::workload_rng(PROBE_SEED, 10);
    let tags = model.num_tags() as u32;
    (0..64).map(|_| TagSet::new((0..K).map(|_| rng.gen_range(0..tags)).collect())).collect()
}

/// The user in the middle of a tier of `model`'s users ordered by cost.
fn middle_user(model: &TicModel, index: &pitex_index::RrIndex, heavy: bool) -> u32 {
    let ranked = fixtures::users_by_cost(model, index);
    let (heavy_tier, _, light_tier) = fixtures::tiers(&ranked);
    let tier = if heavy { heavy_tier } else { light_tier };
    tier[tier.len() / 2]
}

/// Every probe, in layer order. ~100 rows; together with the harness's and
/// the workload's own rows they are exactly `names::PER_LAYER`.
pub fn run_all(sizes: &Sizes) -> Rows {
    let p = Prober { scale: sizes.probe_scale };
    let mut rows = Rows::new();
    let stage = |name: &str, since: std::time::Instant| {
        println!("# probes: {name} took {:.2} s", since.elapsed().as_secs_f64());
        std::time::Instant::now()
    };
    let start = std::time::Instant::now();
    model_and_sampling(&p, sizes, &mut rows);
    let start = stage("model, sampling", start);
    let artifacts = index_and_core(&p, sizes, &mut rows);
    let start = stage("datasets, index, core", start);
    live(&p, sizes, &mut rows);
    let start = stage("live", start);
    serve_and_cluster(&p, &artifacts, &mut rows);
    drop(artifacts);
    let start = stage("serve, cluster", start);
    obs_and_support(&p, &mut rows);
    stage("obs, support", start);
    rows
}

/// `model` and `sampling` on the learned `D0` model of `online_lazy`.
fn model_and_sampling(p: &Prober, sizes: &Sizes, rows: &mut Rows) {
    let input = OnlineLazy::input(sizes);
    let (state, phases, scaled) = setup::<OnlineLazy>(&input, sizes);
    let model = &state.model;
    rows.push(("model.learn_s", phases.seconds("model.learn") * scaled.factor));

    let series = tag_sets(model);
    let mut at = 0;
    let posterior_s = p.per_call(20_000, || {
        at = (at + 1) % series.len();
        TopicPosterior::compute(model.tag_topic(), &series[at])
    });
    rows.push(("model.posterior_ns", posterior_s * 1e9));

    let oracle = BoundOracle::new(model.tag_topic());
    let mut tag = 0;
    let bound_s = p.per_call(20_000, || {
        tag = (tag + 1) % model.num_tags() as u32;
        oracle.bounded_posterior(&TagSet::from([tag]), K)
    });
    rows.push(("model.bound_posterior_ns", bound_s * 1e9));

    // The estimator probes ask about the op list's dearest user and the
    // tag set a query returns for it, so every estimate does real work.
    let user = state.dearest;
    let answer = PitexEngine::with_lazy(model, config()).query(user, K).tags;
    // One sweep computes and memoises p(e|W) for every seventh edge.
    let posterior = model.posterior(&answer);
    let mut cache = model.new_prob_cache();
    let edges: Vec<u32> = (0..model.graph().num_edges() as u32).step_by(7).collect();
    let sweep_s = p.per_call(200, || {
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        edges.iter().map(|&e| probs.prob(e)).sum::<f64>()
    });
    rows.push(("model.edge_prob_ns", sweep_s / edges.len() as f64 * 1e9));

    // One estimate at a fixed budget of 2 000 samples, per online sampler.
    let params =
        SamplingParams::enumeration(0.7, 1000.0, model.num_tags(), K).with_fixed_budget(2_000);
    for (name, kind) in [
        ("sampling.lazy_us_per_estimate", BackendKind::Lazy),
        ("sampling.rr_us_per_estimate", BackendKind::Rr),
        ("sampling.mc_us_per_estimate", BackendKind::Mc),
    ] {
        let mut estimator = kind.make(model);
        let estimate_s = p.per_call(30, || {
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            estimator.estimate(model.graph(), user, &mut probs, &params)
        });
        rows.push((name, estimate_s * 1e6));
    }
}

/// `datasets`, `graph`, `index` and `core` on `D1`, as `index_plus` sets it
/// up. Returns the encoded artifacts for the served probes.
fn index_and_core(p: &Prober, sizes: &Sizes, rows: &mut Rows) -> Artifacts {
    // The full `D1`, a short op list: the traced mini-pass below is the
    // exploration time of workloads that cannot trace their own.
    let few = Sizes { plus_heavy: 3, plus_mid: (8, 4), plus_light: (17, 8), ..*sizes };
    let (mut state, phases, scaled) = setup::<IndexPlus>(&(), &few);
    let (spans, ops) = harness::traced_pass::<IndexPlus>(&mut state);
    let ledger = trace::ledger(&spans, true);
    let factor = stats::mean(&ops.iter().map(|s| s.factor).collect::<Vec<_>>());
    let explore_s = trace::self_seconds(&ledger, "core.query") / ops.len().max(1) as f64 * factor;
    rows.push(("core.explore_self_us_per_op", explore_s * 1e6));
    let (model, index) = (&state.model, &state.index);
    let build_s = phases.seconds("index.build") * scaled.factor;
    rows.push(("datasets.generate_ms", phases.seconds("datasets.generate") * scaled.factor * 1e3));
    rows.push(("graph.nodes", model.graph().num_nodes() as f64));
    rows.push(("graph.edges", model.graph().num_edges() as f64));
    rows.push(("index.build_s", build_s));
    rows.push(("index.build_graphs_per_s", index.theta() as f64 / build_s));
    rows.push(("index.heap_mb", index.heap_bytes() as f64 / 1e6));
    rows.push(("index.bytes_per_graph", index.heap_bytes() as f64 / index.theta() as f64));
    rows.push(("model.heap_mb", model.heap_bytes() as f64 / 1e6));

    let (index_bytes, encode) = cal::time_bracketed(|| rr_index_to_bytes(index));
    rows.push(("index.encode_ms", encode.reference * 1e3));
    rows.push(("index.artifact_mb", index_bytes.len() as f64 / 1e6));
    let (model_bytes, encode) = cal::time_bracketed(|| pitex_model::serial::to_bytes(model));
    rows.push(("model.encode_ms", encode.reference * 1e3));

    // One estimate for the op list's dearest user of the tag set a query
    // returns for it, under the accuracy parameters a query runs with.
    let user = state.dearest;
    let answer = PitexEngine::with_index_plus(model, index, config()).query(user, K).tags;
    let posterior = model.posterior(&answer);
    let mut cache = model.new_prob_cache();
    let params =
        SamplingParams::best_effort(0.7, 1000.0, model.num_tags(), K).with_seed(config().seed);
    let mut plain = IndexEstimator::new(index);
    let est_s = p.per_call(300, || {
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        plain.estimate(model.graph(), user, &mut probs, &params)
    });
    rows.push(("index.est_us_per_estimate", est_s * 1e6));
    let mut plus = IndexPlusEstimator::new(index, model.edge_topics());
    let est_plus_s = p.per_call(300, || {
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        plus.estimate(model.graph(), user, &mut probs, &params)
    });
    rows.push(("index.est_plus_us_per_estimate", est_plus_s * 1e6));

    let planner = Planner::new(model, true, false, &config());
    let degree = model.graph().out_degree(user);
    let plan_s = p.per_call(50_000, || planner.plan(PlanInput { degree, k: K, budget_us: None }));
    rows.push(("core.plan_ns", plan_s * 1e9));
    let build_engine_s = p.per_call(200, || PitexEngine::with_index_plus(model, index, config()));
    rows.push(("core.engine_build_us", build_engine_s * 1e6));

    Artifacts { model: model_bytes, index: index_bytes }
}

/// `live` (and the delay-materialised index) on `D2`, as `live_repair`
/// sets it up: a traced mini-pass of a few update ops gives the per-step
/// times, the rest are called directly.
fn live(p: &Prober, sizes: &Sizes, rows: &mut Rows) {
    let few = Sizes { live_ops: LIVE_PROBE_OPS.min(sizes.live_ops), ..*sizes };
    let (mut state, _, _) = setup::<LiveRepair>(&(), &few);
    let (spans, ops) = harness::traced_pass::<LiveRepair>(&mut state);
    let ledger = trace::ledger(&spans, true);
    let factor = stats::mean(&ops.iter().map(|s| s.factor).collect::<Vec<_>>());
    let per_op =
        |name: &str| trace::total_seconds(&ledger, name) / ops.len().max(1) as f64 * factor;
    rows.push(("live.overlay_apply_ns", per_op("overlay.apply") * 1e9));
    rows.push(("live.compact_ms", per_op("compact") * 1e3));
    rows.push(("live.repair_ms", per_op("repair") * 1e3));
    rows.push(("live.first_query_ms", per_op("first_query") * 1e3));
    let reports = &state.reports;
    let n = reports.len().max(1) as f64;
    let theta: u64 = reports.iter().map(|r| r.theta).sum();
    rows.push((
        "live.repair_resampled_per_op",
        reports.iter().map(|r| r.resampled).sum::<u64>() as f64 / n,
    ));
    rows.push((
        "live.repair_reused_share",
        reports.iter().map(|r| r.reused).sum::<u64>() as f64 / theta.max(1) as f64,
    ));
    rows.push((
        "live.full_rebuild_share",
        reports.iter().filter(|r| r.full_rebuild).count() as f64 / n,
    ));

    // What the repair replaces: a from-scratch build on the mutated model.
    let op = live_repair::probe_op(&state);
    let (new_model, _, _) = live_repair::apply_and_repair(&state.base, &state.index, &op)
        .expect("the probe op applies");
    let (_, rebuild) = cal::time_bracketed(|| fixtures::build_index(&new_model));
    rows.push(("live.rebuild_ms", rebuild.reference * 1e3));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("wal_probe_{}", std::process::id()));
    let append_s = {
        let (mut wal, _) =
            Wal::open(&dir, 1, WalOptions::default()).expect("a fresh WAL directory");
        p.per_call(30, || wal.append_staged(1, &op).expect("WAL append"))
    };
    let _ = std::fs::remove_dir_all(&dir);
    rows.push(("live.wal_append_us", append_s * 1e6));

    let model = Arc::clone(&state.base);
    let (delay, build) = cal::time_bracketed(|| {
        DelayMatIndex::build_with_threads(&model, INDEX_BUDGET, INDEX_SEED, 1)
    });
    rows.push(("index.delay_build_s", build.reference));
    let user = middle_user(&model, &state.index, true);
    let answer = PitexEngine::with_index_plus(&model, &state.index, config()).query(user, K).tags;
    let posterior = model.posterior(&answer);
    let mut cache = model.new_prob_cache();
    let params =
        SamplingParams::best_effort(0.7, 1000.0, model.num_tags(), K).with_seed(config().seed);
    let mut estimator = DelayMatEstimator::new(&delay, model.edge_topics(), config().seed);
    let delay_s = p.per_call(100, || {
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        estimator.estimate(model.graph(), user, &mut probs, &params)
    });
    rows.push(("index.delay_us_per_estimate", delay_s * 1e6));

    let handle = EngineHandle::with_indexes(
        model,
        EngineBackend::IndexEstPlus,
        Some(Arc::new(state.index)),
        None,
        config(),
    )
    .expect("the index is provided");
    let store = SnapshotStore::new(handle.clone());
    let swap_s = p.per_call(20_000, || store.swap(handle.clone()));
    rows.push(("live.swap_us", swap_s * 1e6));
}

fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut body = Vec::new();
    stream.read_to_end(&mut body)
}

/// `serve`, `cluster` and the served side of `obs`, on shards booted from
/// the `D1` artifacts: one with the result cache (hits), one without
/// (misses), a router in front of each. From outside a round trip is
/// additive — `hit = floor_echo + ping_over_echo + hit_over_ping`,
/// `routed miss = hit + miss_over_hit + hop` — and with one request
/// outstanding nothing queues, so the differences are the attribution.
fn serve_and_cluster(p: &Prober, artifacts: &Artifacts, rows: &mut Rows) {
    let mut phases = Phases::default();
    let (decoded, scaled) = cal::time_bracketed(|| served::decode(artifacts, &mut phases));
    rows.push(("model.decode_ms", phases.seconds("model.decode") * scaled.factor * 1e3));
    rows.push(("index.decode_ms", phases.seconds("index.decode") * scaled.factor * 1e3));
    let (hit_shard, boot) = cal::time_bracketed(|| Shard::boot(&decoded, CACHE_CAPACITY));
    rows.push(("serve.boot_ms", boot.reference * 1e3));
    let miss_shard = Shard::boot(&decoded, 0);
    let hit_front = Front::boot(&[&hit_shard]);
    let miss_front = Front::boot(&[&miss_shard]);

    let connect =
        |addr, binary| ServeClient::connect_with(addr, None, binary).expect("loopback connect");
    let mut hit = connect(hit_shard.addr(), true);
    let mut hit_text = connect(hit_shard.addr(), false);
    let mut miss = connect(miss_shard.addr(), true);
    let mut routed_hit = connect(hit_front.addr(), true);
    let mut routed_miss = connect(miss_front.addr(), true);
    let mut echo = Echo::start().expect("loopback echo");
    // One cheap user, one tag: the engine's part of a miss is microseconds.
    let user = middle_user(&decoded.model, &decoded.index, false);
    let ok = |response: std::io::Result<Response>| match response {
        Ok(Response::Ok(reply)) => reply,
        other => panic!("probe query failed: {other:?}"),
    };
    ok(hit.query(user, K_MISS));
    ok(routed_hit.query(user, K_MISS));

    let floor = p.per_call(2_500, || echo.roundtrip().expect("echo")) * 1e6;
    let ping = p.per_call(2_500, || hit.ping().expect("ping")) * 1e6;
    let ping_text = p.per_call(2_500, || hit_text.ping().expect("ping")) * 1e6;
    let hit_us = p.per_call(2_500, || ok(hit.query(user, K_MISS))) * 1e6;
    let hit_text_us = p.per_call(2_500, || ok(hit_text.query(user, K_MISS))) * 1e6;
    let miss_us = p.per_call(2_000, || ok(miss.query(user, K_MISS))) * 1e6;
    let burst = vec![Request::Query(QueryRequest::new(user, K_MISS)); 16];
    let burst_us = p.per_call(300, || hit.pipeline(&burst).expect("pipelined burst")) * 1e6 / 16.0;
    rows.extend([
        ("serve.floor_echo_us", floor),
        ("serve.ping_binary_us", ping),
        ("serve.ping_text_us", ping_text),
        ("serve.hit_binary_us", hit_us),
        ("serve.hit_text_us", hit_text_us),
        ("serve.miss_binary_us", miss_us),
        ("serve.burst16_us_per_query", burst_us),
        ("serve.ping_over_echo_us", ping - floor),
        ("serve.hit_over_ping_us", hit_us - ping),
        ("serve.miss_over_hit_us", miss_us - hit_us),
    ]);

    // The codecs alone, server side: decode a request frame off the wire
    // buffer, encode its reply; parse a request line, format a reply line.
    let request = Request::Query(QueryRequest::new(user, K));
    let response = Response::Ok(QueryReply {
        user,
        k: K,
        tags: vec![3, 17, 29],
        spread: 1.234_567_890_123,
        cached: true,
        us: 7,
    });
    let wire = frame::encode_request(7, &request);
    let mut buffer = FrameBuf::new(MAX_REQUEST_FRAME_BYTES);
    let decode_s = p.per_call(200_000, || {
        buffer.extend(&wire);
        let payload = buffer.next_payload().expect("a valid frame").expect("a whole frame");
        frame::decode_request(&payload)
    });
    let encode_s = p.per_call(200_000, || frame::encode_response(7, &response));
    let line = request.to_line();
    let parse_s = p.per_call(200_000, || Request::parse(&line));
    let format_s = p.per_call(200_000, || response.to_line());
    rows.extend([
        ("serve.frame_decode_ns", decode_s * 1e9),
        ("serve.frame_encode_ns", encode_s * 1e9),
        ("serve.text_parse_ns", parse_s * 1e9),
        ("serve.text_format_ns", format_s * 1e9),
    ]);

    let stats_us = p.per_call(500, || hit.stats().expect("STATS")) * 1e6;
    let http_us = p.per_call(200, || http_get(hit_shard.addr(), "/metrics").expect("GET")) * 1e6;
    let traced_us =
        p.per_call(2_000, || hit.trace(user, K_MISS, None, None, None).expect("TRACE")) * 1e6;
    rows.extend([
        ("serve.stats_us", stats_us),
        ("serve.http_metrics_us", http_us),
        ("obs.trace_over_query_us", traced_us - hit_us),
    ]);

    let ping_router = p.per_call(2_500, || routed_hit.ping().expect("ping")) * 1e6;
    let hit_routed = p.per_call(2_500, || ok(routed_hit.query(user, K_MISS))) * 1e6;
    let miss_routed = p.per_call(2_000, || ok(routed_miss.query(user, K_MISS))) * 1e6;
    let scatter = p.per_call(300, || routed_miss.stats().expect("scatter STATS")) * 1e6;
    let two_shards =
        ShardMap::new(vec![vec!["127.0.0.1:1".to_string()], vec!["127.0.0.1:2".to_string()]])
            .expect("two shards");
    let mut id = 0u32;
    let lookup_s = p.per_call(1_000_000, || {
        id = id.wrapping_add(1);
        two_shards.shard_of(id)
    });
    rows.extend([
        ("cluster.ping_router_us", ping_router),
        ("cluster.hit_routed_us", hit_routed),
        ("cluster.miss_routed_us", miss_routed),
        ("cluster.hop_us", miss_routed - miss_us),
        ("cluster.scatter_stats_us", scatter),
        ("cluster.shard_lookup_ns", lookup_s * 1e9),
    ]);

    let shard_stats = hit.stats().expect("STATS");
    let hits = shard_stats.get_f64("cache_hits").unwrap_or(0.0);
    let misses = shard_stats.get_f64("cache_misses").unwrap_or(0.0);
    rows.push(("serve.cache_hit_share", hits / (hits + misses).max(1.0)));
    rows.push(("serve.conn_aborted", shard_stats.get_f64("conn_aborted").unwrap_or(0.0)));
    let router_stats = routed_miss.stats().expect("scatter STATS");
    rows.push((
        "cluster.failover_retries",
        router_stats.get_f64("router_failovers").unwrap_or(0.0),
    ));

    // Last, because it moves the miss shard to a new epoch: one edge
    // retune through the router, then the two-phase cluster RELOAD; and
    // the same again with the edge's old row restored.
    let target = decoded.model.graph().out_neighbors(user)[0];
    let retune = live_repair::retune(&decoded.model, user, target);
    let edge = decoded.model.graph().find_edge(user, target).expect("an out-edge of the user");
    let restore = pitex_live::UpdateOp::SetEdgeTopics {
        src: user,
        dst: target,
        topics: decoded.model.edge_topics().row(edge).collect(),
    };
    let barriers: Vec<f64> = [retune, restore]
        .into_iter()
        .map(|op| {
            let ((), t) = cal::time_bracketed(|| {
                routed_miss.update(op).expect("UPDATE through the router");
                routed_miss.reload().expect("cluster RELOAD");
            });
            t.reference
        })
        .collect();
    rows.push(("cluster.reload_barrier_ms", stats::mean(&barriers) * 1e3));
}

/// `obs` and `support` in isolation: what the serving hot path pays per
/// request for the always-on counters, and per cache probe.
fn obs_and_support(p: &Prober, rows: &mut Rows) {
    let registry = Registry::new();
    let requests = registry.counter("requests");
    let ok = registry.counter("ok");
    let hist = registry.histogram("lat_hist");
    let flight = FlightRecorder::new(ObsOptions::default());
    let mut n = 0u64;
    // The bundle the server runs per request: two counters, one histogram
    // record, one flight-ring write.
    let touch_s = p.per_call(500_000, || {
        n += 1;
        requests.inc();
        ok.inc();
        hist.record(n & 0xffff);
        flight.record(FlightEntry {
            trace_id: n,
            ts_us: 0,
            verb: "QUERY",
            user: 7,
            k: 2,
            backend: "auto",
            outcome: "ok",
            us: n & 0xffff,
        });
    });
    let record_s = p.per_call(1_000_000, || {
        n = (n + 37) & 0xffff;
        hist.record(n);
    });
    let mut latency = LatencyHistogram::new();
    for i in 0..512u64 {
        latency.record((i * 37) & 0xffff);
    }
    let fields: Vec<(String, String)> = [
        ("requests", "480213".to_string()),
        ("ok", "479004".to_string()),
        ("busy", "97".to_string()),
        ("errors", "12".to_string()),
        ("cache_hits", "301552".to_string()),
        ("qps", "812.5".to_string()),
        ("backend", "auto".to_string()),
        ("lat_hist", latency.to_wire()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let render_s = p.per_call(2_000, || render_prometheus(fields.iter().cloned()));
    let store = TimeSeriesStore::new(TsOptions::default());
    let tick_s =
        p.per_call(5_000, || store.tick(fields.iter().map(|(k, v)| (k.as_str(), v.as_str()))));
    rows.extend([
        ("obs.request_touch_ns", touch_s * 1e9),
        ("obs.hist_record_ns", record_s * 1e9),
        ("obs.prometheus_render_us", render_s * 1e6),
        ("obs.timeseries_tick_us", tick_s * 1e6),
    ]);

    // The result cache's shape: (user, k, backend) keys, a 4096-entry LRU,
    // a few hundred hot keys.
    let cache: ShardedLru<(u32, usize, u8), (Vec<u32>, f64)> = ShardedLru::new(CACHE_CAPACITY);
    for user in 0..256u32 {
        cache.insert((user, K, 7), (vec![3, 17, 29], 1.5));
    }
    let mut user = 0u32;
    let get_s = p.per_call(1_000_000, || {
        user = (user + 1) % 256;
        cache.get(&(user, K, 7))
    });
    let insert_s = p.per_call(500_000, || {
        user = user.wrapping_add(1);
        cache.insert((user, K, 7), (vec![3, 17, 29], 1.5));
    });
    rows.extend([("support.lru_get_ns", get_s * 1e9), ("support.lru_insert_ns", insert_s * 1e9)]);
}
