//! End-to-end reproduction of the paper's running example (Fig. 2,
//! Examples 1–9): every estimation backend must answer the PITEX query
//! `(u1, k = 2)` with `W* = {w3, w4}` and agree with the exact spread.

use pitex::prelude::*;

fn exact_spread_of(model: &TicModel, user: NodeId, tags: &TagSet) -> f64 {
    let mut engine = PitexEngine::with_exact(model, PitexConfig::default());
    engine.estimate_tag_set(user, tags)
}

#[test]
fn example1_value_is_exact() {
    let model = TicModel::paper_example();
    let spread = exact_spread_of(&model, 0, &TagSet::from([0, 1]));
    assert!((spread - 1.5125).abs() < 1e-6, "E[I(u1|{{w1,w2}})] = {spread}, paper says 1.5125");
}

#[test]
fn optimum_beats_every_other_pair_exactly() {
    let model = TicModel::paper_example();
    let best = exact_spread_of(&model, 0, &TagSet::from([2, 3]));
    for a in 0..4u32 {
        for b in (a + 1)..4u32 {
            if (a, b) == (2, 3) {
                continue;
            }
            let other = exact_spread_of(&model, 0, &TagSet::from([a, b]));
            assert!(best > other + 1e-9, "{{w{a},w{b}}} = {other} must be below W* = {best}");
        }
    }
}

#[test]
fn all_backends_find_w_star() {
    let model = TicModel::paper_example();
    let config = PitexConfig::default();
    let index = RrIndex::build(&model, IndexBudget::Fixed(40_000), 11);
    let delay = DelayMatIndex::build(&model, IndexBudget::Fixed(40_000), 11);

    let mut engines: Vec<PitexEngine> = vec![
        PitexEngine::with_exact(&model, config),
        PitexEngine::with_mc(&model, config),
        PitexEngine::with_rr(&model, config),
        PitexEngine::with_lazy(&model, config),
        PitexEngine::with_index(&model, &index, config),
        PitexEngine::with_index_plus(&model, &index, config),
        PitexEngine::with_delay(&model, &delay, config),
    ];
    let exact = exact_spread_of(&model, 0, &TagSet::from([2, 3]));
    for engine in engines.iter_mut() {
        let name = engine.backend_name();
        let result = engine.query(0, 2);
        assert_eq!(
            result.tags,
            TagSet::from([2, 3]),
            "{name} returned {} instead of the paper's W*",
            result.tags
        );
        assert!(
            (result.spread - exact).abs() < 0.35 * exact,
            "{name} spread {} too far from exact {exact}",
            result.spread
        );
    }
}

#[test]
fn tim_is_close_on_the_tree_like_example() {
    // The w3/w4-live subgraph is a tree plus one cross edge; TIM's
    // max-influence-path model slightly undercounts but must rank correctly.
    let model = TicModel::paper_example();
    let mut tim = PitexEngine::with_tim(&model, PitexConfig::default());
    let result = tim.query(0, 2);
    assert_eq!(result.tags, TagSet::from([2, 3]));
    let exact = exact_spread_of(&model, 0, &TagSet::from([2, 3]));
    assert!(result.spread <= exact + 1e-9, "trees never overcount");
    assert!(result.spread > 0.8 * exact);
}

#[test]
fn enumeration_and_best_effort_agree_on_every_user() {
    let model = TicModel::paper_example();
    for user in 0..7u32 {
        let mut enumerate = PitexEngine::with_exact(
            &model,
            PitexConfig { strategy: ExplorationStrategy::Enumerate, ..Default::default() },
        );
        let mut best_effort = PitexEngine::with_exact(
            &model,
            PitexConfig { strategy: ExplorationStrategy::BestEffort, ..Default::default() },
        );
        let a = enumerate.query(user, 2);
        let b = best_effort.query(user, 2);
        assert!((a.spread - b.spread).abs() < 1e-9, "user {user}");
    }
}

#[test]
fn example9_membership_counters() {
    // Example 9: θ(u5) = 0-ish — the isolated user appears only in its own
    // RR-Graphs; all counters sum to the total sampled graph sizes.
    let model = TicModel::paper_example();
    let index = RrIndex::build(&model, IndexBudget::Fixed(7_000), 5);
    let delay = DelayMatIndex::build(&model, IndexBudget::Fixed(7_000), 5);
    let total_from_graphs: usize = index.graphs().map(|g| g.num_nodes()).sum();
    let total_from_counts: u32 = (0..7u32).map(|u| delay.count(u)).sum();
    // Different seeds would give different samples; equal seeds must agree.
    assert_eq!(total_from_counts as usize, total_from_graphs);
    // u5 (id 4) has no in- or out-edges: only its own target draws count.
    let expected = 7_000.0 / 7.0;
    assert!((delay.count(4) as f64 - expected).abs() < 0.15 * expected);
}

#[test]
fn infeasible_combination_spreads_one() {
    // On a model where two tags share no topic, the pair is infeasible and
    // any engine must fall back to spread 1 for it.
    let model = TicModel::paper_example();
    let mut engine = PitexEngine::with_exact(&model, PitexConfig::default());
    // w1 supports {z1, z2}; w3/w4 support {z2, z3}; all pairs feasible in
    // Fig. 2 — so build the degenerate check directly on the posterior.
    assert!(!model.posterior(&TagSet::from([0, 2])).is_empty());
    let spread = engine.estimate_tag_set(0, &TagSet::from([0, 2]));
    assert!(spread >= 1.0);
}
