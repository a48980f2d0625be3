//! Live-update costs — the three numbers that decide whether online
//! updates are operable:
//!
//! * `live_update_apply` — overlay staging throughput (ops/sec into
//!   `ModelOverlay::apply`, the `UPDATE` verb's server-side cost);
//! * `live_repair_incremental` vs `live_rebuild_full` — repairing the
//!   RR-Graph index after one edge retune versus rebuilding it, plus the
//!   resampled-fraction that explains the gap;
//! * a swap-storm measurement — client-observed query latency while an
//!   admin loops `UPDATE` + `RELOAD` as fast as the server lets it,
//!   printed as p50/p99 against the no-storm baseline.
//!
//! The model is lastfm-like at scale 0.05 (see EXPERIMENTS.md); repair
//! runs with the default dirty threshold (0.25).

use criterion::{criterion_group, criterion_main, Criterion};
use pitex_bench::{banner, SEED};
use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
use pitex_index::{IndexBudget, RrIndex};
use pitex_live::{repair_rr_index, ModelOverlay, RepairOptions, UpdateOp};
use pitex_model::TicModel;
use pitex_serve::{Response, ServeClient, ServeOptions, Server};
use pitex_support::stats::LatencyHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn small_model() -> TicModel {
    use pitex_datasets::DatasetProfile;
    DatasetProfile::lastfm_like().scaled(0.05).generate()
}

fn bench_update_apply(c: &mut Criterion, model: &Arc<TicModel>) {
    // Retune every edge once per iteration batch: the op mix real systems
    // see most (probabilities re-learned from fresh logs).
    let edges: Vec<(u32, u32)> = model.graph().edges().map(|(_, s, t)| (s, t)).take(512).collect();
    let mut flip = 0u32;
    c.bench_function("live_update_apply_512_ops", |b| {
        b.iter(|| {
            flip = flip.wrapping_add(1);
            let mut overlay = ModelOverlay::new(model.clone());
            for &(s, t) in &edges {
                let p = 0.05 + (flip % 9) as f32 * 0.1;
                overlay
                    .apply(UpdateOp::SetEdgeTopics { src: s, dst: t, topics: vec![(0, p)] })
                    .unwrap();
            }
            overlay.pending()
        })
    });
}

fn bench_repair_vs_rebuild(
    c: &mut Criterion,
    model: &Arc<TicModel>,
    budget: IndexBudget,
    seed: u64,
    opts: &RepairOptions,
) {
    let old = RrIndex::build_with_threads(model, budget, seed, opts.threads);
    // One edge retune: the canonical small update.
    let (s, t) = model.graph().edge_endpoints(0);
    let mut overlay = ModelOverlay::new(model.clone());
    overlay.apply(UpdateOp::SetEdgeTopics { src: s, dst: t, topics: vec![(0, 0.97)] }).unwrap();
    let new_model = overlay.compact();

    let (_, report) = repair_rr_index(&old, model, &new_model, opts);
    c.bench_function("live_repair_incremental", |b| {
        b.iter(|| repair_rr_index(&old, model, &new_model, opts).0.theta())
    });
    c.bench_function("live_rebuild_full", |b| {
        b.iter(|| RrIndex::build_with_threads(&new_model, budget, seed, opts.threads).theta())
    });
    println!(
        "live: one edge retune dirties {} of {} graphs ({:.1}%{})",
        report.resampled,
        report.theta,
        100.0 * report.resampled as f64 / report.theta.max(1) as f64,
        if report.full_rebuild { ", fell back to full rebuild" } else { "" }
    );
}

/// Query p50/p99 while `UPDATE`+`RELOAD` churn as fast as the server
/// accepts them — the zero-downtime claim, measured.
fn swap_storm(model: &Arc<TicModel>, budget: IndexBudget, seed: u64, opts: &RepairOptions) {
    let index = Arc::new(RrIndex::build_with_threads(model, budget, seed, opts.threads));
    let handle = EngineHandle::with_indexes(
        model.clone(),
        EngineBackend::IndexEst,
        Some(index),
        None,
        PitexConfig::default(),
    )
    .unwrap();
    let options = ServeOptions { workers: 2, repair: *opts, ..ServeOptions::default() };
    let server = Server::spawn(handle, ("127.0.0.1", 0), options).unwrap();
    let addr = server.addr();
    let (s, t) = model.graph().edge_endpoints(0);

    let measure = |storm: bool| -> (u64, u64, u64) {
        let stop = AtomicBool::new(false);
        let mut histogram = LatencyHistogram::new();
        let mut swaps = 0u64;
        std::thread::scope(|scope| {
            let admin = storm.then(|| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut admin = ServeClient::connect(addr).unwrap();
                    let mut swaps = 0u64;
                    let mut flip = false;
                    while !stop.load(Ordering::Relaxed) {
                        flip = !flip;
                        let p = if flip { 0.9 } else { 0.8 };
                        let op = UpdateOp::SetEdgeTopics { src: s, dst: t, topics: vec![(0, p)] };
                        admin.update(op).unwrap();
                        admin.reload().unwrap();
                        swaps += 1;
                    }
                    swaps
                })
            });
            let mut client = ServeClient::connect(addr).unwrap();
            for _ in 0..400 {
                let t = Instant::now();
                match client.query(0, 2).unwrap() {
                    Response::Ok(_) | Response::Busy => {}
                    other => panic!("query failed during swap storm: {other:?}"),
                }
                histogram.record(t.elapsed().as_micros() as u64);
            }
            stop.store(true, Ordering::Relaxed);
            if let Some(admin) = admin {
                swaps = admin.join().unwrap();
            }
        });
        (histogram.quantile(0.50), histogram.quantile(0.99), swaps)
    };

    let (base_p50, base_p99, _) = measure(false);
    let (storm_p50, storm_p99, swaps) = measure(true);
    println!(
        "live: query latency p50/p99 {base_p50}/{base_p99}us quiet vs {storm_p50}/{storm_p99}us under {swaps} snapshot swaps"
    );
    server.stop().unwrap();
}

fn bench_live(c: &mut Criterion) {
    banner(
        "bench_live: online-update costs (overlay apply, repair vs rebuild, swap storm)",
        "lastfm-like model at scale 0.05; the default 0.25 dirty threshold gates repair",
    );
    let model = Arc::new(small_model());
    let budget = IndexBudget::PerVertex(4.0);
    let opts = RepairOptions::default();
    bench_update_apply(c, &model);
    bench_repair_vs_rebuild(c, &model, budget, SEED, &opts);
    swap_storm(&model, budget, SEED, &opts);
}

criterion_group!(benches, bench_live);
criterion_main!(benches);
