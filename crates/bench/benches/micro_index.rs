//! Criterion micro-benchmarks for the index kernels: tag-aware reachability
//! (Def. 3), the compiled per-user view of §6.2 — its build on user switch,
//! its candidate scan and one whole INDEXEST+ estimate on it — RR-Graph
//! recovery (Algo. 4), and the index's write side: splice-repair after one
//! edge retune, and the artifact codec.

use criterion::{criterion_group, criterion_main, Criterion};
use pitex_datasets::{DatasetProfile, UserGroup, UserGroups};
use pitex_index::prune::CutFilter;
use pitex_index::rrgraph::ReachScratch;
use pitex_index::serial::{rr_index_from_bytes, rr_index_to_bytes};
use pitex_index::{delay, IndexBudget, IndexPlusEstimator, RrIndex};
use pitex_live::{repair_rr_index, ModelOverlay, RepairOptions, UpdateOp};
use pitex_model::{PosteriorEdgeProbs, TagSet};
use pitex_sampling::{SamplingParams, SpreadEstimator};
use pitex_support::EpochVisited;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

fn bench_index(c: &mut Criterion) {
    let model = Arc::new(DatasetProfile::lastfm_like().generate());
    let groups = UserGroups::from_graph(model.graph());
    let user = groups.members(UserGroup::Mid)[0];
    let index = RrIndex::build(&model, IndexBudget::PerVertex(4.0), 7);
    // A feasible set: the engine never estimates one whose posterior is
    // empty. Like most feasible 3-sets of this profile its posterior has one
    // topic, which reaches about a tenth of either view's cut edges.
    let tags = TagSet::from([3, 17, 21]);
    let posterior = model.posterior(&tags);
    let mut cache = model.new_prob_cache();

    let members_of = |user| -> Vec<_> {
        index.graphs_containing(user).iter().map(|&gid| index.graph(gid as usize)).collect()
    };
    let member_graphs = members_of(user);

    c.bench_function("tag_aware_reachability_all_members", |b| {
        let mut scratch = ReachScratch::new();
        b.iter(|| {
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let mut visits = 0u64;
            let mut hits = 0u32;
            for rr in &member_graphs {
                if rr.reaches_target(user, &mut probs, &mut scratch, &mut visits) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });

    // The view of one mid user and of the user in the most RR-Graphs: what
    // a user switch costs, and one estimate on the compiled view.
    let heavy = (0..index.num_nodes() as u32)
        .max_by_key(|&u| index.membership_count(u))
        .expect("the graph has users");
    let params = SamplingParams::best_effort(0.7, 1000.0, model.num_tags(), tags.len());
    for (tier, user) in [("mid", user), ("heavy", heavy)] {
        let graphs = members_of(user);
        c.bench_function(&format!("user_view_build_{tier}"), |b| {
            b.iter(|| {
                black_box(CutFilter::build(user, graphs.iter().copied(), model.edge_topics()))
            })
        });
        c.bench_function(&format!("user_view_estimate_{tier}"), |b| {
            let mut plus = IndexPlusEstimator::new(&index, model.edge_topics());
            b.iter(|| {
                let mut probs =
                    PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                black_box(plus.estimate(model.graph(), user, &mut probs, &params))
            })
        });
    }

    let filter = CutFilter::build(user, member_graphs.iter().copied(), model.edge_topics());
    c.bench_function("cut_filter_candidates", |b| {
        let mut marks = EpochVisited::new(0);
        let mut out = Vec::new();
        b.iter(|| {
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            filter.candidates(&mut probs, &mut marks, &mut out);
            black_box(out.len())
        })
    });

    c.bench_function("recover_rr_graph", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        let mut visited = EpochVisited::new(0);
        b.iter(|| {
            black_box(delay::recover_rr_graph(
                model.graph(),
                model.edge_topics(),
                user,
                &mut rng,
                &mut visited,
            ))
        })
    });

    // One edge retune (the mid user's first out-edge), repaired on one
    // thread: what the index layer adds to a `RELOAD`.
    let dst = model.graph().out_neighbors(user)[0];
    let mut overlay = ModelOverlay::new(model.clone());
    overlay.apply(UpdateOp::SetEdgeTopics { src: user, dst, topics: vec![(0, 0.97)] }).unwrap();
    let retuned = overlay.compact();
    let opts = RepairOptions { threads: 1, dirty_threshold: 1.0 };
    c.bench_function("index_repair_splice", |b| {
        b.iter(|| black_box(repair_rr_index(&index, &model, &retuned, &opts).0.theta()))
    });

    let bytes = rr_index_to_bytes(&index);
    c.bench_function("index_encode", |b| b.iter(|| black_box(rr_index_to_bytes(&index).len())));
    c.bench_function("index_decode", |b| {
        b.iter(|| black_box(rr_index_from_bytes(&bytes).expect("just encoded").theta()))
    });
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
