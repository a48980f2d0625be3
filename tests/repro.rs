//! The paper's orderings, checked through the `pitex repro` runner's own
//! experiment functions on small inputs. Every assertion is on a
//! deterministic count (spread, edges, samples, bytes), never on a time.

use pitex::bench::repro::{
    delta_sweep, epsilon_sweep, index_sizes, lazy_sparsity, stopping_rule, STAR_LEAVES, STAR_PROBS,
};
use pitex::bench::{group_figure, BenchEnv, SweepRow};
use pitex::prelude::{DatasetProfile, EngineBackend};

/// Two queries per cell over the four profiles at 5 % of the bench scale.
const TINY: BenchEnv = BenchEnv { scale: 0.05, queries: 2 };

/// §6.2: the edge-cut filter drops RR-Graphs without changing the answer.
#[test]
fn indexest_plus_matches_indexest_spread_and_visits_fewer_edges() {
    let methods = [EngineBackend::IndexEst, EngineBackend::IndexEstPlus];
    let rows = group_figure(&TINY, &methods, TINY.profiles(), 2);
    for pair in rows.chunks(2) {
        let (plain, plus) = (&pair[0], &pair[1]);
        assert_eq!((plain.method, plus.method), (methods[0], methods[1]));
        assert_eq!(
            plain.outcome.spread.mean(),
            plus.outcome.spread.mean(),
            "{}/{}: INDEXEST+ must return INDEXEST's spread",
            plain.dataset,
            plain.group.label()
        );
    }
    for profile in TINY.profiles() {
        let edges = |m: EngineBackend| -> f64 {
            let cells = rows.iter().filter(|r| r.dataset == profile.name && r.method == m);
            cells.map(|r| r.outcome.edges_visited.mean()).sum()
        };
        let (plain, plus) = (edges(methods[0]), edges(methods[1]));
        assert!(plus < plain, "{}: INDEXEST+ {plus} vs INDEXEST {plain} edges", profile.name);
    }
}

/// Fig. 13 on the Fig. 3(a) star: MC probes every leaf edge per instance,
/// LAZY only about the n·p that fire.
#[test]
fn mc_probes_every_edge_and_lazy_probes_about_the_firing_ones() {
    let n = STAR_LEAVES as f64;
    for (&p, [mc, _rr, lazy]) in STAR_PROBS.iter().zip(lazy_sparsity()) {
        assert_eq!(mc, n, "MC at p = {p}");
        if p >= 0.02 {
            let expected = n * p;
            assert!((lazy - expected).abs() <= 0.1 * expected, "LAZY {lazy} vs n·p {expected}");
        }
    }
}

/// LAZY's edges visited, in sweep order, for each dataset.
fn lazy_edges(rows: &[SweepRow]) -> Vec<(&'static str, Vec<f64>)> {
    let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for row in rows {
        if out.last().map_or(true, |(d, _)| *d != row.dataset) {
            out.push((row.dataset, Vec::new()));
        }
        out.last_mut().unwrap().1.push(row.outcome.edges_visited.mean());
    }
    out
}

/// Figs. 9 and 14: a looser ε needs fewer samples, a larger δ (the
/// confidence parameter of Eq. 2) more. Ten tags per profile keep LAZY's
/// ε = 0.3 cells within a debug build's budget (dblp-like at 50 tags
/// alone takes seconds in release).
#[test]
fn lazy_work_falls_with_epsilon_and_rises_with_delta() {
    let lazy = [EngineBackend::Lazy];
    let profiles = || TINY.profiles().into_iter().map(|p| p.with_tags(10)).collect();
    for (dataset, edges) in lazy_edges(&epsilon_sweep(&TINY, &lazy, profiles())) {
        assert!(edges.windows(2).all(|w| w[1] < w[0]), "{dataset}: ε sweep {edges:?}");
    }
    for (dataset, edges) in lazy_edges(&delta_sweep(&TINY, &lazy, profiles())) {
        assert!(edges.windows(2).all(|w| w[1] > w[0]), "{dataset}: δ sweep {edges:?}");
    }
}

/// §5.1's stopping rule: fewer samples than the fixed worst-case budget at
/// the same answer quality.
#[test]
fn adaptive_stopping_uses_fewer_samples_at_equal_spread() {
    let profile = DatasetProfile::lastfm_like().scaled(0.1);
    let [adaptive, fixed] = stopping_rule(&TINY, profile);
    let (a, f) = (adaptive.samples.mean(), fixed.samples.mean());
    assert!(a < f, "adaptive {a} vs fixed {f} samples per estimate");
    let (a, f) = (adaptive.spread.mean(), fixed.spread.mean());
    assert!((a - f).abs() <= 0.05 * f, "adaptive spread {a} vs fixed {f}");
}

/// Table 3: the RR-Graph artifact outweighs the model, which outweighs
/// the DELAYMAT counters.
#[test]
fn rr_index_outweighs_the_model_which_outweighs_delaymat() {
    let env = BenchEnv::default();
    for r in index_sizes(&env, env.profiles()) {
        assert!(r.rr_artifact_bytes > r.model_bytes, "{}: RR vs model", r.dataset);
        assert!(r.model_bytes > r.delay_artifact_bytes, "{}: model vs DELAYMAT", r.dataset);
    }
}

fn repro(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_pitex"))
        .arg("repro")
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn the_cli_prints_the_asked_tables_and_refuses_bad_settings() {
    let out = repro(&["--only", "table2,table3", "--scale", "0.05", "--queries", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Table 2: Statistics of Datasets"), "{stdout}");
    assert!(stdout.contains("Table 3: Index Sizes"), "{stdout}");
    assert!(!stdout.contains("Fig."), "only the asked artifacts print: {stdout}");

    for (args, flag) in [
        (["--scale", "abc"], "--scale"),
        (["--scale", "0"], "--scale"),
        (["--scale", "NaN"], "--scale"),
        (["--scale", "inf"], "--scale"),
        (["--queries", "0"], "--queries"),
        (["--only", "fig99"], "fig99"),
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    let stderr = String::from_utf8(repro(&["--only", "fig99"]).stderr).unwrap();
    assert!(stderr.contains("ablation-stopping-rule"), "lists the valid names: {stderr}");
}
