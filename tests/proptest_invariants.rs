//! Property-based invariants spanning the whole stack.

use pitex::index::prune::CutFilter;
use pitex::index::rrgraph::ReachScratch;
use pitex::model::bound::BoundOracle;
use pitex::model::combi::KSubsets;
use pitex::model::genmodel::{random_model, EdgeProbKind, ModelGenConfig};
use pitex::model::{PosteriorEdgeProbs, TopicPosterior};
use pitex::prelude::*;
use pitex::support::EpochVisited;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_model(max_nodes: usize) -> impl Strategy<Value = TicModel> {
    (2usize..=max_nodes, 2usize..=5, 3usize..=8, 1u64..1_000_000, 0.2f64..0.9).prop_map(
        |(n, topics, tags, seed, density)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = pitex::graph::gen::random_dag(n, 0.25, &mut rng);
            let cfg = ModelGenConfig {
                num_topics: topics,
                num_tags: tags,
                density,
                topics_per_edge: (1, 2.min(topics)),
                edge_prob: EdgeProbKind::Uniform { lo: 0.05, hi: 0.9 },
            };
            random_model(graph, &cfg, &mut rng)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Posteriors are genuine probability distributions on their support.
    #[test]
    fn posterior_is_normalized(model in arb_model(10), raw_tags in proptest::collection::vec(0u32..8, 1..4)) {
        let tags = TagSet::new(raw_tags.into_iter().map(|t| t % model.num_tags() as u32).collect());
        let posterior = TopicPosterior::compute(model.tag_topic(), &tags);
        if !posterior.is_empty() {
            let sum: f64 = posterior.entries().iter().map(|&(_, w)| w).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Eq. 1 probabilities never exceed the per-edge maximum p(e).
    #[test]
    fn edge_probs_bounded_by_p_max(model in arb_model(10), raw_tags in proptest::collection::vec(0u32..8, 1..4)) {
        let tags = TagSet::new(raw_tags.into_iter().map(|t| t % model.num_tags() as u32).collect());
        let posterior = model.posterior(&tags);
        for (e, _, _) in model.graph().edges() {
            let p = posterior.edge_prob(model.edge_topics(), e);
            prop_assert!(p >= 0.0);
            prop_assert!(p <= model.edge_topics().p_max(e) as f64 + 1e-6);
        }
    }

    /// Lemma 8: the partial-set bound dominates every completion, on every
    /// edge, for every subset relationship.
    #[test]
    fn lemma8_bound_dominates(model in arb_model(8)) {
        let k = 3usize.min(model.num_tags());
        let oracle = BoundOracle::new(model.tag_topic());
        for partial_size in 0..k {
            for partial in KSubsets::new(model.num_tags() as u32, partial_size) {
                let w = TagSet::new(partial);
                let bounded = oracle.bounded_posterior(&w, k);
                for full in KSubsets::new(model.num_tags() as u32, k) {
                    let wp = TagSet::new(full);
                    if !w.is_subset_of(&wp) {
                        continue;
                    }
                    let posterior = model.posterior(&wp);
                    for (e, _, _) in model.graph().edges() {
                        let bound = bounded.edge_bound(model.edge_topics(), e);
                        let exact = posterior.edge_prob(model.edge_topics(), e);
                        prop_assert!(
                            bound >= exact - 1e-7,
                            "W={w} W'={wp} e={e}: {bound} < {exact}"
                        );
                    }
                }
            }
        }
    }

    /// Filter-and-verify (§6.2) returns exactly the same reachability
    /// outcomes as verifying every RR-Graph.
    #[test]
    fn cut_filter_is_sound_and_complete(
        model in arb_model(12),
        seed in 1u64..100_000,
        raw_tags in proptest::collection::vec(0u32..8, 1..4),
    ) {
        let tags = TagSet::new(raw_tags.into_iter().map(|t| t % model.num_tags() as u32).collect());
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(300), seed, 2);
        let posterior = model.posterior(&tags);
        let mut cache = model.new_prob_cache();
        for user in 0..model.graph().num_nodes() as u32 {
            let member: Vec<_> = index
                .graphs_containing(user)
                .iter()
                .map(|&g| index.graph(g as usize))
                .collect();
            // Ground truth: verify everything.
            let mut scratch = ReachScratch::new();
            let mut truth = Vec::new();
            for (pos, rr) in member.iter().enumerate() {
                let mut probs =
                    PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                let mut visits = 0u64;
                if rr.reaches_target(user, &mut probs, &mut scratch, &mut visits) {
                    truth.push(pos as u32);
                }
            }
            // Filtered: candidates ⊇ truth, and verification agrees.
            let filter = CutFilter::build(user, member.iter().copied(), model.edge_topics());
            let mut probs =
                PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let mut marks = EpochVisited::new(0);
            let mut candidates = Vec::new();
            filter.candidates(&mut probs, &mut marks, &mut candidates);
            for &t in &truth {
                prop_assert!(
                    candidates.contains(&t),
                    "user {user}: reachable graph {t} was filtered out"
                );
            }
        }
    }

    /// Delay-materialization recovery always contains the query user, and
    /// every recovered mark sits strictly below its edge's p(e).
    #[test]
    fn delay_recovery_invariants(model in arb_model(12), seed in 1u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut visited = EpochVisited::new(0);
        let users: Vec<u32> = model
            .graph()
            .nodes()
            .filter(|&v| model.graph().out_degree(v) > 0)
            .take(3)
            .collect();
        for user in users {
            let (rr, weight) = pitex::index::delay::recover_rr_graph(
                model.graph(),
                model.edge_topics(),
                user,
                &mut rng,
                &mut visited,
            );
            let rr = rr.as_ref();
            prop_assert!(rr.contains(user));
            prop_assert!(weight >= 1);
            for (_, e) in rr.edges() {
                prop_assert!(e.c < model.edge_topics().p_max(e.edge_id));
            }
        }
    }

    /// Best-effort exploration with an exact backend returns exactly the
    /// enumeration optimum (pruning must never discard the best set).
    #[test]
    fn best_effort_matches_enumeration(model in arb_model(9), k in 1usize..3) {
        let user = 0u32;
        let mut enumerate = PitexEngine::with_exact(
            &model,
            PitexConfig { strategy: ExplorationStrategy::Enumerate, ..Default::default() },
        );
        let mut best_effort = PitexEngine::with_exact(
            &model,
            PitexConfig { strategy: ExplorationStrategy::BestEffort, ..Default::default() },
        );
        let a = enumerate.query(user, k);
        let b = best_effort.query(user, k);
        prop_assert!((a.spread - b.spread).abs() < 1e-9, "enum {} vs best-effort {}", a.spread, b.spread);
    }

    /// Graph CSR invariants under random edge lists.
    #[test]
    fn graph_csr_roundtrip(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..120)) {
        let mut builder = GraphBuilder::new(30);
        for &(s, t) in &edges {
            builder.add_edge(s, t);
        }
        let g = builder.build();
        // Forward and reverse views describe the same edge set.
        let mut forward: Vec<(u32, u32)> = g.edges().map(|(_, s, t)| (s, t)).collect();
        let mut reverse: Vec<(u32, u32)> = g
            .nodes()
            .flat_map(|v| g.in_edges(v).map(move |(_, s)| (s, v)))
            .collect();
        forward.sort_unstable();
        reverse.sort_unstable();
        prop_assert_eq!(forward, reverse);
        // Degrees sum to edge counts.
        let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        // Binary round trip.
        let back = pitex::graph::io::from_bytes(&pitex::graph::io::to_bytes(&g)).unwrap();
        prop_assert_eq!(back, g);
    }
}
