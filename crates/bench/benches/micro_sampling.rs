//! Criterion micro-benchmarks for the three online samplers on a fixed
//! (user, tag set): the per-estimation costs behind Figs. 7 and 13, plus
//! LAZY on the hub of Example 2 and geometric gap generation.

use criterion::{criterion_group, criterion_main, Criterion};
use pitex_core::BackendKind;
use pitex_datasets::{DatasetProfile, UserGroups};
use pitex_graph::gen;
use pitex_model::{FixedEdgeProbs, PosteriorEdgeProbs, TagSet};
use pitex_sampling::{geometric::geometric, LazySampler, SamplingParams, SpreadEstimator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sampling(c: &mut Criterion) {
    let model = DatasetProfile::lastfm_like().generate();
    let groups = UserGroups::from_graph(model.graph());
    let user = groups.members(pitex_datasets::UserGroup::Mid)[0];
    let tags = TagSet::from([3, 17, 29]);
    let posterior = model.posterior(&tags);
    let params =
        SamplingParams::enumeration(0.7, 1000.0, model.num_tags(), 3).with_fixed_budget(2_000);
    let mut cache = model.new_prob_cache();

    for kind in [BackendKind::Mc, BackendKind::Rr, BackendKind::Lazy] {
        let mut est = kind.make(&model);
        c.bench_function(&format!("estimate_2000_samples_{}", kind.label()), |b| {
            b.iter(|| {
                let mut probs =
                    PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                black_box(est.estimate(model.graph(), user, &mut probs, &params))
            })
        });
    }

    // Fig. 3(a): a root with n followers at p = 1/n fires about once per
    // sample whatever n is, so time per iteration / 20 000 ≈ time per fire
    // and its growth with n is what Lemma 7 says must stay small.
    let star_params = params.with_fixed_budget(20_000);
    for n in [16usize, 256, 4096] {
        let graph = gen::star_low_impact(n);
        let mut probs = FixedEdgeProbs::uniform(n, 1.0 / n as f64);
        let mut lazy = LazySampler::new(graph.num_nodes());
        c.bench_function(&format!("lazy_star_{n}"), |b| {
            b.iter(|| black_box(lazy.estimate(&graph, 0, &mut probs, &star_params)))
        });
    }

    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("geometric_draw_p01", |b| b.iter(|| black_box(geometric(0.01, &mut rng))));
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
