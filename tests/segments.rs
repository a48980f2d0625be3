//! The segment / chunk layout of `RrIndex`: what a repair shares with the
//! index it started from, the segment-boundary cases of build and splice,
//! and the v3 artifact under truncation and corruption.

use pitex::index::segment::{MEMBER_CHUNK_USERS, SEGMENT_DRAWS as S};
use pitex::index::serial::{rr_index_from_bytes, rr_index_to_bytes};
use pitex::live::repair_rr_index;
use pitex::model::genmodel::{random_model, EdgeProbKind, ModelGenConfig};
use pitex::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn build(model: &TicModel, budget: IndexBudget, threads: usize) -> RrIndex {
    RrIndex::build_with_threads(model, budget, 17, threads)
}

/// Everything a reader indexes by holds, the membership table matches the
/// graphs, and the index survives its own codec.
fn assert_structurally_valid(index: &RrIndex) {
    let mut memberships = 0;
    for (i, graph) in index.graphs().enumerate() {
        assert!(graph.contains(graph.target()), "graph {i}");
        assert!(graph.nodes().iter().all(|&v| (v as usize) < index.num_nodes()), "graph {i}");
        assert_eq!(graph.edges().count(), graph.num_edges(), "graph {i}");
        assert!(graph.edges().all(|(_, e)| (e.dst_local as usize) < graph.num_nodes()));
        memberships += graph.num_nodes();
    }
    for user in 0..index.num_nodes() as u32 {
        let ids = index.graphs_containing(user);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "user {user}: ids ascend");
        assert!(ids.iter().all(|&g| index.graph(g as usize).contains(user)), "user {user}");
        memberships -= ids.len();
    }
    assert_eq!(memberships, 0, "every membership is listed once");
    let bytes = rr_index_to_bytes(index);
    assert_eq!(rr_index_to_bytes(&rr_index_from_bytes(&bytes).unwrap()), bytes);
}

#[test]
fn a_single_retune_shares_every_clean_segment_and_chunk() {
    let model = Arc::new(DatasetProfile::lastfm_like().generate());
    let old = build(&model, IndexBudget::PerVertex(8.0), 2);
    assert!(old.segments().len() > 10 && old.member_chunks().len() > 3);
    // Retune an edge whose head sits in few graphs, so few draws are dirty.
    let (edge, _, head) = (model.graph().edges())
        .filter(|&(_, _, t)| old.membership_count(t) > 0)
        .min_by_key(|&(e, _, t)| (old.membership_count(t), e))
        .unwrap();
    let (src, _) = model.graph().edge_endpoints(edge);
    let new = if model.edge_topics().p_max(edge) < 0.5 { 0.97 } else { 0.03 };
    let mut overlay = ModelOverlay::new(model.clone());
    overlay.apply(UpdateOp::SetEdgeTopics { src, dst: head, topics: vec![(0, new)] }).unwrap();
    let new_model = overlay.compact();

    let opts = RepairOptions { threads: 1, dirty_threshold: 1.0 };
    let (repaired, report) = repair_rr_index(&old, &model, &new_model, &opts);
    let dirty = old.graphs_containing(head);
    assert_eq!(report.resampled, dirty.len() as u64);
    let mut rewritten = 0;
    for (s, (before, after)) in old.segments().iter().zip(repaired.segments()).enumerate() {
        if dirty.iter().all(|&draw| draw as usize / S != s) {
            assert!(Arc::ptr_eq(before, after), "segment {s} holds no dirty draw");
        }
        rewritten += usize::from(!Arc::ptr_eq(before, after));
    }
    assert!((1..=dirty.len()).contains(&rewritten), "{rewritten} segments for {dirty:?}");
    let mut shared_chunks = 0;
    for (k, (before, after)) in old.member_chunks().iter().zip(repaired.member_chunks()).enumerate()
    {
        if report.dirty_members.iter().all(|&v| v as usize / MEMBER_CHUNK_USERS != k) {
            assert!(Arc::ptr_eq(before, after), "chunk {k} holds no dirty member");
            shared_chunks += 1;
        }
    }
    assert!(shared_chunks > 0, "the retune dirtied every chunk: the test lost its teeth");
    let rebuilt = build(&new_model, IndexBudget::PerVertex(8.0), 1);
    assert_eq!(rr_index_to_bytes(&repaired), rr_index_to_bytes(&rebuilt));
}

#[test]
fn encode_decode_is_a_fixed_point() {
    let model = DatasetProfile::lastfm_like().scaled(0.3).generate();
    let index = build(&model, IndexBudget::PerVertex(4.0), 2);
    assert!(index.segments().len() > 1);
    let bytes = rr_index_to_bytes(&index);
    let back = rr_index_from_bytes(&bytes).unwrap();
    assert_eq!(rr_index_to_bytes(&back), bytes);
    assert!(back.graphs().eq(index.graphs()), "decoded graphs equal the built ones");
    for user in 0..index.num_nodes() as u32 {
        assert_eq!(back.graphs_containing(user), index.graphs_containing(user));
    }
    assert_eq!((back.theta(), back.seed(), back.budget()), (index.theta(), 17, index.budget()));
    assert_eq!(back.heap_bytes(), index.heap_bytes());
}

#[test]
fn a_torn_or_corrupt_artifact_never_panics() {
    let model = TicModel::paper_example();
    // Every prefix of a one-segment artifact.
    let bytes = rr_index_to_bytes(&build(&model, IndexBudget::Fixed(40), 1));
    for len in 0..bytes.len() {
        assert!(rr_index_from_bytes(&bytes[..len]).is_err(), "prefix of {len} bytes");
    }
    // Seeded single-byte corruptions of a two-segment one: rejected, or an
    // index no reader can trip over.
    let bytes = rr_index_to_bytes(&build(&model, IndexBudget::Fixed(S as u64 + 3), 1));
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let (mut rejected, mut survived) = (0, 0);
    for _ in 0..1_000 {
        let mut corrupt = bytes.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 1 << rng.gen_range(0..8u32);
        match rr_index_from_bytes(&corrupt) {
            Err(_) => rejected += 1,
            Ok(index) => {
                assert_structurally_valid(&index);
                survived += 1;
            }
        }
    }
    // Marks and edge ids are free-form; lengths, offsets and members are not.
    assert!(rejected > 100 && survived > 100, "{rejected} rejected, {survived} decoded");
}

fn arb_model() -> impl Strategy<Value = TicModel> {
    (6usize..=12, 2usize..=4, 1u64..1_000_000).prop_map(|(n, topics, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = pitex::graph::gen::random_dag(n, 0.3, &mut rng);
        let cfg = ModelGenConfig {
            num_topics: topics,
            num_tags: 4,
            density: 0.5,
            topics_per_edge: (1, 2),
            edge_prob: EdgeProbKind::Uniform { lo: 0.05, hi: 0.9 },
        };
        random_model(graph, &cfg, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// Chains of repairs over retunes, edge inserts and edge removals equal a
    /// rebuild — bytes and membership — for draw counts on either side of
    /// every segment boundary and for every thread count; and resampling
    /// the first and last slot of a segment reproduces the index.
    #[test]
    fn repair_chains_equal_a_rebuild_at_segment_boundaries(
        model in arb_model(),
        raw in proptest::collection::vec((0u8..3, 0u8..=255, 0u8..=255, 1u16..1000), 3..8),
        theta in 0usize..6,
    ) {
        let theta = [0, 1, S - 1, S, S + 1, 3 * S + 7][theta] as u64;
        let budget = IndexBudget::Fixed(theta);
        let n = model.graph().num_nodes() as u32;
        let mut model = Arc::new(model);
        let mut index = build(&model, budget, 1);
        let mut repairs = 0;
        for (i, &(kind, a, b, p)) in raw.iter().enumerate() {
            let edges = model.graph().num_edges() as u32;
            if edges == 0 {
                break;
            }
            // The first three ops retune an existing edge (always valid), so
            // every chain is at least three repairs long.
            let (src, dst) = model.graph().edge_endpoints(a as u32 % edges);
            let topics = vec![(0u16, p as f32 / 1000.0)];
            let op = match if i < 3 { 0 } else { kind } {
                0 => UpdateOp::SetEdgeTopics { src, dst, topics },
                1 => UpdateOp::RemoveEdge { src, dst },
                _ => UpdateOp::AddEdge { src: a as u32 % n, dst: b as u32 % n, topics },
            };
            let mut overlay = ModelOverlay::new(model.clone());
            if overlay.apply(op).is_err() {
                continue;
            }
            let next = Arc::new(overlay.compact());
            let opts = RepairOptions { threads: 1 + i % 3, dirty_threshold: 1.0 };
            let (repaired, report) = repair_rr_index(&index, &model, &next, &opts);
            prop_assert!(!report.full_rebuild);
            (model, index) = (next, repaired);
            repairs += 1;
        }
        prop_assert!(repairs >= 3 || model.graph().num_edges() == 0);

        let bytes = rr_index_to_bytes(&index);
        for threads in 1..=5 {
            let rebuilt = build(&model, budget, threads);
            prop_assert_eq!(&rr_index_to_bytes(&rebuilt), &bytes, "threads = {}", threads);
            for user in 0..n {
                prop_assert_eq!(rebuilt.graphs_containing(user), index.graphs_containing(user));
            }
        }
        let mut slots: Vec<u32> = [0, S - 1, S, 2 * S - 1, theta as usize - theta.min(1) as usize]
            .iter()
            .filter(|&&draw| (draw as u64) < theta)
            .map(|&draw| draw as u32)
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let (again, _) = index.splice(&model, &slots, None, 2);
        prop_assert_eq!(rr_index_to_bytes(&again), bytes);
    }
}
