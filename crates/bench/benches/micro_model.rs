//! Criterion micro-benchmarks for the model kernels: posterior computation
//! (Eq. 1), lazy edge-probability evaluation, the Lemma-8 bound oracle, and
//! the ways a model comes into being — compaction of a staged retune (no
//! structural change: two components shared, one merged) and of a staged
//! edge insert (the CSR rebuilt too), and the binary codec.

use criterion::{criterion_group, criterion_main, Criterion};
use pitex_datasets::DatasetProfile;
use pitex_live::{ModelOverlay, UpdateOp};
use pitex_model::{serial, BoundOracle, PosteriorEdgeProbs, TagSet, TopicPosterior};
use std::hint::black_box;
use std::sync::Arc;

fn bench_model(c: &mut Criterion) {
    let model = DatasetProfile::lastfm_like().generate();
    let tags = TagSet::from([3, 17, 29]);

    c.bench_function("posterior_k3", |b| {
        b.iter(|| TopicPosterior::compute(black_box(model.tag_topic()), black_box(&tags)))
    });

    let posterior = model.posterior(&tags);
    let mut cache = model.new_prob_cache();
    let edge_ids: Vec<u32> = (0..model.graph().num_edges() as u32).step_by(7).collect();
    c.bench_function("edge_prob_cached_sweep", |b| {
        b.iter(|| {
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let mut acc = 0.0f64;
            for &e in &edge_ids {
                acc += pitex_model::EdgeProbs::prob(&mut probs, e);
            }
            black_box(acc)
        })
    });

    let oracle = BoundOracle::new(model.tag_topic());
    let partial = TagSet::from([3]);
    c.bench_function("lemma8_bounded_posterior", |b| {
        b.iter(|| oracle.bounded_posterior(black_box(&partial), 3))
    });

    c.bench_function("bound_oracle_build", |b| {
        b.iter(|| BoundOracle::new(black_box(model.tag_topic())))
    });

    let bytes = serial::to_bytes(&model);
    c.bench_function("model_encode", |b| b.iter(|| serial::to_bytes(black_box(&model))));
    c.bench_function("model_decode", |b| {
        b.iter(|| serial::from_bytes(black_box(&bytes)).expect("bytes of a valid model"))
    });

    // One staged op in the middle of the edge order, compacted over and over.
    let base = Arc::new(model);
    let (src, dst) = base.graph().edge_endpoints(base.graph().num_edges() as u32 / 2);
    let absent = (0..).find(|&t| t != src && base.graph().find_edge(src, t).is_none());
    let topics = vec![(0, 0.9)];
    for (name, op) in [
        ("model_compact_retune", UpdateOp::SetEdgeTopics { src, dst, topics: topics.clone() }),
        ("model_compact_add_edge", UpdateOp::AddEdge { src, dst: absent.unwrap(), topics }),
    ] {
        let mut overlay = ModelOverlay::new(Arc::clone(&base));
        overlay.apply(op).expect("the op is valid on the base");
        c.bench_function(name, |b| b.iter(|| black_box(&overlay).compact()));
    }
}

criterion_group!(benches, bench_model);
criterion_main!(benches);
