//! Integration tests for the Linear Threshold extension (footnote 1):
//! the LT backend must drive the full engine — best-effort pruning, top-N,
//! case study — exactly like the IC backends do.

use pitex::prelude::*;
use pitex::sampling::{exact_spread_lt, LtSampler};

#[test]
fn lt_engine_answers_the_paper_example() {
    let model = TicModel::paper_example();
    let mut engine = PitexEngine::with_lt(&model, PitexConfig::default());
    let result = engine.query(0, 2);
    assert_eq!(result.tags, TagSet::from([2, 3]));
    // The {w3,w4} subgraph from u1 is a tree (u1→u3→{u6}→u7 with the
    // u4 branch dead), where LT and IC coincide edge-by-edge.
    let mut ic = PitexEngine::with_exact(&model, PitexConfig::default());
    let ic_spread = ic.estimate_tag_set(0, &result.tags);
    assert!(
        (result.spread - ic_spread).abs() < 0.3 * ic_spread,
        "LT {} vs IC {}",
        result.spread,
        ic_spread
    );
}

#[test]
fn lt_sampler_agrees_with_exact_lt_on_model_probabilities() {
    let model = TicModel::paper_example();
    let tags = TagSet::from([2, 3]);
    let posterior = model.posterior(&tags);
    let mut cache = model.new_prob_cache();

    let mut probs =
        pitex::model::PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
    let exact = exact_spread_lt(model.graph(), 0, &mut probs);

    let params = SamplingParams::enumeration(0.7, 1000.0, 4, 2).with_fixed_budget(60_000);
    let mut sampler = LtSampler::new(model.graph().num_nodes());
    let mut probs =
        pitex::model::PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
    let est = sampler.estimate(model.graph(), 0, &mut probs, &params);
    assert!(
        (est.spread - exact).abs() < 0.05 * exact.max(1.0),
        "sampled {} vs exact {exact}",
        est.spread
    );
}

#[test]
fn lt_case_study_recovers_planted_truth() {
    // Kept small (k = 3, three areas) so the unoptimized test profile stays
    // fast; the full-size case study is covered by `tests/pipeline.rs` and
    // the `table4_case_study` bench.
    let cs = CaseStudy::generate(&CaseStudyConfig {
        num_areas: 3,
        community_size: 40,
        intra_edges: 3,
        inter_edges: 1,
        seed: 77,
    });
    let mut engine = PitexEngine::with_lt(&cs.model, PitexConfig::default());
    let mut total = 0.0;
    for r in &cs.researchers {
        let result = engine.query(r.user, 3);
        total += cs.accuracy(r, &result.tags);
    }
    let avg = total / cs.researchers.len() as f64;
    assert!(avg >= 0.8, "LT planted accuracy {avg}");
}

#[test]
fn lt_top_n_is_ordered_and_consistent() {
    let model = TicModel::paper_example();
    let mut engine = PitexEngine::with_lt(&model, PitexConfig::default());
    let ranking = engine.query_top_n(0, 2, 4).0;
    assert!(!ranking.is_empty());
    for pair in ranking.windows(2) {
        assert!(pair[0].1 >= pair[1].1);
    }
    assert_eq!(ranking[0].0, engine.query(0, 2).tags);
}

#[test]
fn lt_spread_never_exceeds_ic_on_shared_weights() {
    // With identical per-edge probabilities, LT's at-most-one-live-in-edge
    // constraint can only remove activation paths relative to IC, so on any
    // DAG the LT spread is ≤ the IC spread.
    use pitex::model::FixedEdgeProbs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    for seed in [3u64, 5, 8] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = pitex::graph::gen::random_dag(11, 0.3, &mut rng);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 0.4);
        let lt = exact_spread_lt(&g, 0, &mut probs);
        let ic = pitex::sampling::exact_spread(&g, 0, &mut probs);
        assert!(lt <= ic + 1e-9, "seed {seed}: LT {lt} > IC {ic}");
    }
}
