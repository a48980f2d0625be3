//! Cross-backend agreement on random small models: every estimator must
//! land within the sampling tolerance of the exact possible-world value,
//! for arbitrary users and tag sets — the empirical face of Theorem 2.

use pitex::model::genmodel::{mixed_prob, random_model, EdgeProbKind, ModelGenConfig};
use pitex::model::FixedEdgeProbs;
use pitex::prelude::*;
use pitex::sampling::exact_spread;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small random model whose positive-edge count stays within the exact
/// evaluator's enumeration budget for the users we query.
fn small_model(seed: u64) -> TicModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = pitex::graph::gen::random_dag(14, 0.18, &mut rng);
    let cfg = ModelGenConfig {
        num_topics: 4,
        num_tags: 8,
        density: 0.5,
        topics_per_edge: (1, 2),
        edge_prob: EdgeProbKind::Uniform { lo: 0.15, hi: 0.7 },
    };
    random_model(graph, &cfg, &mut rng)
}

#[test]
fn samplers_track_exact_values() {
    for seed in [1u64, 2, 3] {
        let model = small_model(seed);
        let mut exact = PitexEngine::with_exact(&model, PitexConfig::default());
        // Tight parameters so the sampled estimates concentrate.
        let config = PitexConfig { epsilon: 0.3, delta: 1000.0, ..Default::default() };
        let mut engines = [
            PitexEngine::with_mc(&model, config),
            PitexEngine::with_rr(&model, config),
            PitexEngine::with_lazy(&model, config),
        ];
        for user in [0u32, 1, 2] {
            for tags in [TagSet::from([0, 3]), TagSet::from([1, 5]), TagSet::from([2, 6, 7])] {
                let truth = exact.estimate_tag_set(user, &tags);
                for engine in engines.iter_mut() {
                    let est = engine.estimate_tag_set(user, &tags);
                    assert!(
                        (est - truth).abs() <= 0.3 * truth + 0.05,
                        "seed {seed} user {user} {tags} {}: {est} vs exact {truth}",
                        engine.backend_name()
                    );
                }
            }
        }
    }
}

/// LAZY is unbiased (Lemmas 6–7) on the adversarial probability mix:
/// exactly 0 and 1, subnormals (too small for `ln(1 − p)` to tell from 0)
/// and `1 − 2⁻²⁴`. For every user, the mean of `R` fixed-budget estimates
/// lies within 5 standard errors of the exact spread. `RARE` covers the
/// outcomes of probability about 2⁻²⁴ that `R · SAMPLES` draws cannot see
/// (one failing `1 − 2⁻²⁴` edge moves the truth by at most 2⁻²⁴ · |V|).
#[test]
fn lazy_is_unbiased_against_exact_on_mixed_probabilities() {
    const R: u64 = 200;
    const SAMPLES: u64 = 64;
    const RARE: f64 = 1e-4;
    for seed in 1u64..=8 {
        let mut rng = StdRng::seed_from_u64(seed);
        // At most 20 edges, so EXACT's budget of uncertain edges holds.
        let graph = pitex::graph::gen::erdos_renyi(8, 20, &mut rng);
        let probs =
            FixedEdgeProbs::new((0..graph.num_edges()).map(|_| mixed_prob(&mut rng)).collect());
        let mut lazy = LazySampler::new(graph.num_nodes());
        for user in 0..graph.num_nodes() as NodeId {
            let truth = exact_spread(&graph, user, &mut probs.clone());
            let estimates: Vec<f64> = (0..R)
                .map(|r| {
                    let params = SamplingParams::paper_defaults(1, 1)
                        .with_fixed_budget(SAMPLES)
                        .with_seed(seed << 32 | r);
                    lazy.estimate(&graph, user, &mut probs.clone(), &params).spread
                })
                .collect();
            let mean = estimates.iter().sum::<f64>() / R as f64;
            let var = estimates.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (R - 1) as f64;
            let se = (var / R as f64).sqrt();
            assert!(
                (mean - truth).abs() <= 5.0 * se + RARE,
                "seed {seed} user {user}: LAZY mean {mean} ± {se} vs exact {truth}"
            );
        }
    }
}

#[test]
fn index_backends_track_exact_values() {
    let model = small_model(7);
    let index = RrIndex::build(&model, IndexBudget::Fixed(120_000), 3);
    let delay = DelayMatIndex::build(&model, IndexBudget::Fixed(120_000), 3);
    let mut exact = PitexEngine::with_exact(&model, PitexConfig::default());
    let config = PitexConfig::default();
    let mut engines = [
        PitexEngine::with_index(&model, &index, config),
        PitexEngine::with_index_plus(&model, &index, config),
        PitexEngine::with_delay(&model, &delay, config),
    ];
    for user in [0u32, 2, 5] {
        for tags in [TagSet::from([0, 3]), TagSet::from([1, 5])] {
            let truth = exact.estimate_tag_set(user, &tags);
            for engine in engines.iter_mut() {
                let est = engine.estimate_tag_set(user, &tags);
                assert!(
                    (est - truth).abs() <= 0.25 * truth + 0.1,
                    "user {user} {tags} {}: {est} vs exact {truth}",
                    engine.backend_name()
                );
            }
        }
    }
}

#[test]
fn queries_pick_near_optimal_sets() {
    // Sampling noise may swap near-ties, but the chosen set's *exact*
    // spread must be within the (1−ε)/(1+ε) band of the exact optimum
    // (Theorem 2's statement).
    for seed in [11u64, 12] {
        let model = small_model(seed);
        let mut exact_engine = PitexEngine::with_exact(
            &model,
            PitexConfig { strategy: ExplorationStrategy::Enumerate, ..Default::default() },
        );
        let optimum = exact_engine.query(0, 2);
        let config = PitexConfig { epsilon: 0.3, ..Default::default() };
        for mut engine in
            [PitexEngine::with_mc(&model, config), PitexEngine::with_lazy(&model, config)]
        {
            let picked = engine.query(0, 2);
            let picked_exact = exact_engine.estimate_tag_set(0, &picked.tags);
            let band = (1.0 - 0.3) / (1.0 + 0.3);
            assert!(
                picked_exact >= band * optimum.spread - 1e-9,
                "seed {seed} {}: picked {} with exact spread {picked_exact}, optimum {} at {}",
                engine.backend_name(),
                picked.tags,
                optimum.tags,
                optimum.spread
            );
        }
    }
}

#[test]
fn strategies_agree_under_sampling_backend_with_same_seed() {
    // With a deterministic seed the same estimator produces the same
    // estimates, so enumeration and best-effort must return sets with the
    // same estimated spread value (the argmax may differ only on exact
    // ties).
    let model = small_model(21);
    for strategy in [ExplorationStrategy::Enumerate, ExplorationStrategy::BestEffort] {
        let config = PitexConfig { strategy, epsilon: 0.4, ..Default::default() };
        let mut a = PitexEngine::with_lazy(&model, config);
        let mut b = PitexEngine::with_lazy(&model, config);
        assert_eq!(a.query(1, 2).tags, b.query(1, 2).tags, "{strategy:?} must be deterministic");
    }
}
