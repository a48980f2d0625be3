//! The adaptive planner — what `backend=auto` costs and how it degrades.
//!
//! * `plan_decision` — one full [`Planner::plan`] pass (cost every
//!   backend, rank, record): the pure planning overhead a `backend=auto`
//!   query pays before any sampling happens;
//! * `plan_auto_query` vs `plan_forced_query` — an end-to-end Fig. 2 query
//!   through [`EngineHandle::query_auto`] against the same query forced
//!   onto the backend the planner resolves to: the difference is the
//!   planner's *total* per-query overhead (decision + EWMA feedback);
//! * the printed **degradation sweep** — the planner's chosen backend as
//!   the deadline budget shrinks from 10 s to 10 µs, after the EWMAs have
//!   been warmed by real measurements: the regime boundaries (accurate →
//!   fallback) made visible.

use criterion::{criterion_group, criterion_main, Criterion};
use pitex_bench::banner;
use pitex_core::plan::PlanInput;
use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
use pitex_index::{DelayMatIndex, IndexBudget, RrIndex};
use pitex_model::TicModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn auto_handle() -> EngineHandle {
    let model = Arc::new(TicModel::paper_example());
    let rr = Arc::new(RrIndex::build(&model, IndexBudget::Fixed(3_000), 3));
    let delay = Arc::new(DelayMatIndex::build(&model, IndexBudget::Fixed(3_000), 3));
    EngineHandle::with_indexes(
        model,
        EngineBackend::Auto,
        Some(rr),
        Some(delay),
        PitexConfig::default(),
    )
    .unwrap()
}

fn bench_plan(c: &mut Criterion) {
    banner(
        "bench_plan: planner overhead vs. the forced-backend floor, degradation under deadlines",
        "Fig. 2 model with both index artifacts; EWMAs warmed by real queries",
    );
    let handle = auto_handle();

    // Warm every plannable backend's EWMA with real measurements so the
    // sweep below reflects observed costs, not static seeds.
    for backend in EngineBackend::ALL {
        if !handle.planner().available(backend) {
            continue;
        }
        for _ in 0..5 {
            let t = Instant::now();
            handle.engine_for(backend).unwrap().query(0, 2);
            handle.planner().observe(backend, t.elapsed().as_micros() as u64);
        }
    }

    c.bench_function("plan_decision", |b| {
        b.iter(|| handle.plan(0, 2, Some(Duration::from_millis(5))))
    });

    let resolved = handle.plan(0, 2, None).chosen;
    c.bench_function("plan_auto_query", |b| b.iter(|| handle.query_auto(0, 2, None).0.spread));
    c.bench_function("plan_forced_query", |b| {
        b.iter(|| handle.engine_for(resolved).unwrap().query(0, 2).spread)
    });

    // The headline numbers, measured directly so they can be printed.
    const N: u32 = 2_000;
    let t = Instant::now();
    for _ in 0..N {
        handle.plan(0, 2, Some(Duration::from_millis(5)));
    }
    let plan_ns = t.elapsed().as_nanos() as f64 / f64::from(N);
    let t = Instant::now();
    for _ in 0..N {
        handle.query_auto(0, 2, None);
    }
    let auto_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(N);
    let t = Instant::now();
    for _ in 0..N {
        handle.engine_for(resolved).unwrap().query(0, 2);
    }
    let forced_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(N);
    println!(
        "plan: decision {plan_ns:.0}ns; auto query {auto_us:.1}us vs forced {} {forced_us:.1}us \
         (overhead {:+.1}us/query)",
        resolved.label(),
        auto_us - forced_us
    );

    // Degradation sweep: what auto resolves to as the budget shrinks.
    println!("plan: degradation sweep (user 0, k 2, EWMAs warmed):");
    for budget_us in [10_000_000u64, 1_000_000, 100_000, 10_000, 1_000, 100, 10] {
        let decision =
            handle.planner().plan(PlanInput { degree: 2, k: 2, budget_us: Some(budget_us) });
        println!(
            "  budget {budget_us:>9}us -> {} (predicted {}us{})",
            decision.chosen.label(),
            decision.predicted_us,
            if decision.degraded { ", degraded" } else { "" }
        );
    }
}

criterion_group!(benches, bench_plan);
criterion_main!(benches);
