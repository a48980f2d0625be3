//! Incremental RR-index repair.
//!
//! Rebuilding the RR-Graph index is the paper's own bottleneck (§6 reports
//! ~10⁴ seconds on twitter at ε = 0.1), so rebuilding it on every edge
//! update is a non-starter. This module resamples **only the dirty draws**
//! and splices them into the existing index.
//!
//! Soundness of the dirty test. Draw `i` is a pure function of
//! `(model, seed, i)` ([`pitex_index::sample_rr_graph_at`]): a reverse BFS
//! from the drawn target that probes the in-edges of every visited vertex,
//! consuming one RNG draw per probed edge with `p(e) > 0`. Replaying the
//! same stream on the mutated model diverges only when a *probed* edge
//! changed — and every probed edge's head is a visited vertex, i.e. a
//! member of the stored node set. So a graph can change **only if it
//! contains the head vertex of a mutated edge**, which is exactly what the
//! index's per-user membership lists return in O(dirty) — no scan over θ
//! graphs. (`RrIndex::graphs_containing` is also the table the estimators
//! compile a query user's view from, `index::prune::CutFilter`; a view is
//! a per-engine copy, so a repair has no estimator state to fix up.)
//!
//! Clean graphs are reused verbatim, and mostly not even touched: the index
//! keeps its graphs in `Arc`'d fixed-size segments (and its membership
//! table in `Arc`'d user-range chunks), [`RrIndex::splice`] rewrites only
//! the segments holding a dirty draw and shares the rest, so the repaired
//! and the old index — two live epochs of a serving shard — hold one copy
//! of everything clean. When an edge insert/removal shifted the CSR edge
//! ids, every segment's edge-id arena is remapped in one bulk pass. The
//! result is **bit-identical to a from-scratch `RrIndex::build` on the
//! mutated model** — a segment is a pure function of `(model, seed, s)`,
//! verified by property test — so determinism of `(model, budget, seed)`
//! survives any chain of repairs. Past a configurable dirty fraction (or
//! when the vertex count or sample budget changed, which re-targets every
//! draw) the repair falls back to a full rebuild.
//!
//! Cost per repair. Finding the changed heads is an O(|E|) block compare of
//! the two `p(e)` arrays when both models share the graph (every retune),
//! and a merge-join over both edge lists only when the graph changed. Each
//! rewritten membership chunk costs a `memcpy` plus O(its deltas), and each
//! rewritten segment the resampling of its dirty draws and two copies (into
//! the builder, then out of it at exact size).

use pitex_graph::{DiGraph, EdgeId};
use pitex_index::RrIndex;
use pitex_model::TicModel;
use std::sync::Arc;

/// Tuning for [`repair_rr_index`]. The sample budget and seed are *not*
/// options: they travel inside the index itself ([`RrIndex::budget`] /
/// [`RrIndex::seed`], persisted in the artifact), so a repair can never be
/// run under mismatched sampling parameters.
#[derive(Clone, Copy, Debug)]
pub struct RepairOptions {
    /// Worker threads for resampling / rebuilding (result-invariant;
    /// default: the available parallelism).
    pub threads: usize,
    /// Fall back to a full rebuild when more than this fraction of graphs
    /// is dirty (default 0.25; `pitex serve --dirty-threshold`).
    pub dirty_threshold: f64,
}

impl Default for RepairOptions {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            dirty_threshold: 0.25,
        }
    }
}

impl RepairOptions {
    /// Whether `t` is a dirty fraction, i.e. in `[0, 1]` (NaN is not): a
    /// NaN would disable the rebuild fallback, a negative value force it on
    /// every update.
    pub fn is_valid_threshold(t: f64) -> bool {
        (0.0..=1.0).contains(&t)
    }
}

/// What a repair did — the counters `RELOADED` replies and `bench_live`
/// report.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairReport {
    /// Graphs in the repaired index (= θ of the new budget).
    pub theta: u64,
    /// Graphs regenerated.
    pub resampled: u64,
    /// Graphs reused from the old index.
    pub reused: u64,
    /// Whether the repair degenerated to a full rebuild.
    pub full_rebuild: bool,
    /// Why it did, when it did.
    pub reason: Option<String>,
    /// Union of the member vertices of every resampled graph (old and new
    /// version), for membership-scoped cache invalidation. Empty after a
    /// full rebuild — the caller must treat everything as dirty then.
    pub dirty_members: Vec<u32>,
}

/// Old-model edge id of an edge the new model no longer has.
const REMOVED: u32 = u32::MAX;

/// The heads (target-side endpoints) of every edge whose generation-relevant
/// state differs between the two models — removed, added, or `p(e)` changed
/// — and, only if the edge set itself changed, the old → new edge id map.
/// Rows that change `p(e|z)` without moving `p(e) = max_z p(e|z)` do not
/// dirty generation (marks are drawn against `p(e)` alone) — query-time
/// tag-aware reachability re-reads `p(e|W)` from the live model anyway.
///
/// When both models share the graph (every update that only retunes edges
/// or tags), no id moved and the diff is a compare of the two `p(e)`
/// arrays, and nothing at all when they share the edge topics too. Else it
/// is one merge pass over the two (endpoint-sorted) edge lists.
fn diff_models(old: &TicModel, new: &TicModel) -> (Vec<u32>, Option<Vec<u32>>) {
    let ((old_graph, _, old_topics), (new_graph, _, new_topics)) = (old.shared(), new.shared());
    if Arc::ptr_eq(old_graph, new_graph) {
        if Arc::ptr_eq(old_topics, new_topics) {
            return (Vec::new(), None);
        }
        return (changed_heads(new_graph, old_topics.p_max_all(), new_topics.p_max_all()), None);
    }
    let mut heads = Vec::new();
    let mut id_map: Option<Vec<u32>> = None;
    let mut new_edges = new.graph().edges().peekable();
    for (e, s, t) in old.graph().edges() {
        // Edges only the new model has, sorting before this one.
        while let Some((_, _, nt)) = new_edges.next_if(|&(_, ns, nt)| (ns, nt) < (s, t)) {
            heads.push(nt);
            id_map.get_or_insert_with(|| (0..e).collect());
        }
        let kept = new_edges.next_if(|&(_, ns, nt)| (ns, nt) == (s, t)).map(|(ne, ..)| ne);
        if kept.map_or(true, |ne| old.edge_topics().p_max(e) != new.edge_topics().p_max(ne)) {
            heads.push(t);
        }
        if id_map.is_none() && kept != Some(e) {
            id_map = Some((0..e).collect());
        }
        if let Some(map) = &mut id_map {
            map.push(kept.unwrap_or(REMOVED));
        }
    }
    // Edges added behind the last old one shift no id.
    heads.extend(new_edges.map(|(_, _, nt)| nt));
    heads.sort_unstable();
    heads.dedup();
    (heads, id_map)
}

/// Heads of the edges of `graph` whose `p(e)` differs between `old` and
/// `new`, ascending. Blocks of 64 edges are screened by OR-ing the XOR of
/// their bits, a loop that vectorises; only a block that differs is
/// compared edge by edge.
fn changed_heads(graph: &DiGraph, old: &[f32], new: &[f32]) -> Vec<u32> {
    const BLOCK: usize = 64;
    let mut heads = Vec::new();
    for (block, (a, b)) in old.chunks(BLOCK).zip(new.chunks(BLOCK)).enumerate() {
        if a.iter().zip(b).fold(0, |bits, (x, y)| bits | (x.to_bits() ^ y.to_bits())) == 0 {
            continue;
        }
        let changed = a.iter().zip(b).enumerate().filter(|(_, (x, y))| x != y);
        heads.extend(changed.map(|(i, _)| graph.edge_target((block * BLOCK + i) as EdgeId)));
    }
    heads.sort_unstable();
    heads.dedup();
    heads
}

fn full_rebuild(
    old: &RrIndex,
    new_model: &TicModel,
    opts: &RepairOptions,
    reason: String,
) -> (RrIndex, RepairReport) {
    let index =
        RrIndex::build_with_threads(new_model, old.budget(), old.seed(), opts.threads.max(1));
    let theta = index.theta();
    let report = RepairReport {
        theta,
        resampled: theta,
        reused: 0,
        full_rebuild: true,
        reason: Some(reason),
        dirty_members: Vec::new(),
    };
    (index, report)
}

/// Repairs `old` (built from `old_model`) into the index of `new_model`
/// under the budget and seed the old index itself carries. The returned
/// index is bit-identical to
/// `RrIndex::build(new_model, old.budget(), old.seed())`.
pub fn repair_rr_index(
    old: &RrIndex,
    old_model: &TicModel,
    new_model: &TicModel,
    opts: &RepairOptions,
) -> (RrIndex, RepairReport) {
    let theta = old.budget().sample_count(new_model.graph().num_nodes(), new_model.num_tags());
    if new_model.graph().num_nodes() != old.num_nodes() {
        // gen_range(0..|V|) re-targets every draw.
        return full_rebuild(old, new_model, opts, "vertex count changed".to_string());
    }
    if theta != old.theta() {
        return full_rebuild(old, new_model, opts, "sample budget changed".to_string());
    }

    // Membership lookup: every graph containing the head of a changed edge.
    let (heads, edge_ids) = diff_models(old_model, new_model);
    let mut dirty: Vec<u32> = Vec::new();
    for head in heads {
        dirty.extend_from_slice(old.graphs_containing(head));
    }
    dirty.sort_unstable();
    dirty.dedup();
    let fraction = dirty.len() as f64 / theta.max(1) as f64;
    if fraction > opts.dirty_threshold {
        return full_rebuild(
            old,
            new_model,
            opts,
            format!("dirty fraction {fraction:.3} above threshold {}", opts.dirty_threshold),
        );
    }

    let (repaired, dirty_members) =
        old.splice(new_model, &dirty, edge_ids.as_deref(), opts.threads);
    let resampled = dirty.len() as u64;
    let report = RepairReport {
        theta,
        resampled,
        reused: theta - resampled,
        full_rebuild: false,
        reason: None,
        dirty_members,
    };
    (repaired, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::UpdateOp;
    use crate::overlay::ModelOverlay;
    use pitex_index::serial::rr_index_to_bytes;
    use pitex_index::IndexBudget;
    use pitex_model::genmodel::{random_model, ModelGenConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SEED: u64 = 11;

    fn build(model: &TicModel, budget: u64, threads: usize) -> RrIndex {
        RrIndex::build_with_threads(model, IndexBudget::Fixed(budget), SEED, threads)
    }

    fn opts() -> RepairOptions {
        RepairOptions { threads: 3, dirty_threshold: 0.5 }
    }

    fn mutate(ops: &[UpdateOp]) -> (TicModel, TicModel) {
        let base = Arc::new(TicModel::paper_example());
        let mut overlay = ModelOverlay::new(base.clone());
        overlay.apply_all(ops.iter().cloned()).unwrap();
        let new_model = overlay.compact();
        ((*base).clone(), new_model)
    }

    #[test]
    fn repair_matches_full_rebuild_bit_for_bit() {
        let cases: Vec<Vec<UpdateOp>> = vec![
            vec![UpdateOp::SetEdgeTopics { src: 0, dst: 1, topics: vec![(0, 0.9)] }],
            vec![UpdateOp::RemoveEdge { src: 5, dst: 6 }],
            vec![UpdateOp::AddEdge { src: 1, dst: 4, topics: vec![(1, 0.6)] }],
            vec![
                UpdateOp::SetEdgeTopics { src: 3, dst: 6, topics: vec![(2, 0.05)] },
                UpdateOp::AddEdge { src: 6, dst: 0, topics: vec![(0, 0.2)] },
                UpdateOp::RemoveEdge { src: 2, dst: 3 },
            ],
        ];
        for ops in cases {
            let (old_model, new_model) = mutate(&ops);
            // On the 7-node example even one mutated head dirties a large
            // fraction of graphs; disable the rebuild fallback so the test
            // exercises the incremental path.
            let opts = RepairOptions { dirty_threshold: 1.0, ..opts() };
            let old = build(&old_model, 400, 2);
            let (repaired, report) = repair_rr_index(&old, &old_model, &new_model, &opts);
            let rebuilt = build(&new_model, 400, 2);
            assert_eq!(
                rr_index_to_bytes(&repaired),
                rr_index_to_bytes(&rebuilt),
                "{ops:?}: repaired index must equal a from-scratch rebuild"
            );
            assert!(!report.full_rebuild, "{ops:?}");
            assert!(report.resampled < report.theta, "{ops:?}: {report:?}");
            assert_eq!(report.resampled + report.reused, report.theta);
        }
    }

    #[test]
    fn the_edge_id_map_exists_only_when_ids_moved() {
        let e = |m: &TicModel, s, t| m.graph().find_edge(s, t).unwrap();
        // A retune moves no id; neither does an edge sorting behind all others.
        let (old, new) =
            mutate(&[UpdateOp::SetEdgeTopics { src: 0, dst: 1, topics: vec![(0, 0.9)] }]);
        assert_eq!(diff_models(&old, &new), (vec![1], None));
        let (old, new) = mutate(&[UpdateOp::AddEdge { src: 6, dst: 0, topics: vec![(0, 0.2)] }]);
        assert_eq!(diff_models(&old, &new), (vec![0], None));
        // A removal and an insert in the middle shift every later id.
        let (old, new) = mutate(&[
            UpdateOp::RemoveEdge { src: 2, dst: 3 },
            UpdateOp::AddEdge { src: 1, dst: 4, topics: vec![(1, 0.6)] },
        ]);
        let (heads, map) = diff_models(&old, &new);
        let map = map.expect("the edge set changed");
        assert_eq!(heads, vec![3, 4]);
        assert_eq!(map.len(), old.graph().num_edges());
        for (id, s, t) in old.graph().edges() {
            let expected = if (s, t) == (2, 3) { REMOVED } else { e(&new, s, t) };
            assert_eq!(map[id as usize], expected, "edge {s} -> {t}");
        }

        // On a generated model, a shared graph takes the block compare, and
        // it finds what the merge-join finds over an unshared copy of it.
        let mut rng = StdRng::seed_from_u64(5);
        let graph = pitex_graph::gen::erdos_renyi(200, 2_000, &mut rng);
        let config = ModelGenConfig { num_topics: 4, num_tags: 6, ..Default::default() };
        let base = Arc::new(random_model(graph, &config, &mut rng));
        let num_edges = base.graph().num_edges() as u32;
        let picked: Vec<u32> = (0..40).map(|_| rng.gen_range(0..num_edges)).collect();
        let retune = |moves_p_max: bool| -> Vec<UpdateOp> {
            let retune_edge = |&edge: &u32| {
                let (src, dst) = base.graph().edge_endpoints(edge);
                let (z, p) =
                    base.edge_topics().row(edge).max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
                let p = match (moves_p_max, p < 0.5) {
                    (false, _) => p,
                    (true, true) => 0.9,
                    (true, false) => 0.1,
                };
                UpdateOp::SetEdgeTopics { src, dst, topics: vec![(z, p)] }
            };
            picked.iter().map(retune_edge).collect()
        };
        let mut heads: Vec<u32> =
            picked.iter().map(|&edge| base.graph().edge_target(edge)).collect();
        heads.sort_unstable();
        heads.dedup();
        let cases = [
            (retune(true), heads, false),
            (retune(false), vec![], false),
            (vec![UpdateOp::DetachTag { tag: 1 }], vec![], true),
        ];
        for (ops, heads, shares_edge_topics) in cases {
            let mut overlay = ModelOverlay::new(base.clone());
            overlay.apply_all(ops).unwrap();
            let new = overlay.compact();
            let ((graph, tags, topics), (new_graph, _, new_topics)) = (base.shared(), new.shared());
            assert!(Arc::ptr_eq(graph, new_graph), "no edge was added or removed");
            assert_eq!(Arc::ptr_eq(topics, new_topics), shares_edge_topics);
            let unshared = TicModel::from_shared(
                Arc::new((**graph).clone()),
                Arc::clone(tags),
                Arc::clone(topics),
            );
            let shared = diff_models(&base, &new);
            assert_eq!(shared, diff_models(&unshared, &new), "the merge-join disagrees");
            assert_eq!(shared, (heads, None));
        }
    }

    #[test]
    fn unchanged_p_max_resamples_nothing() {
        // Edge (0, 2) has rows z2:0.5, z3:0.5 — dropping z3 to 0.5 keeps
        // p_max at 0.5, so generation is untouched.
        let (old_model, new_model) =
            mutate(&[UpdateOp::SetEdgeTopics { src: 0, dst: 2, topics: vec![(1, 0.5), (2, 0.4)] }]);
        let old = build(&old_model, 300, 2);
        let (repaired, report) = repair_rr_index(&old, &old_model, &new_model, &opts());
        assert_eq!(report.resampled, 0);
        assert!(report.dirty_members.is_empty());
        assert_eq!(repaired.graphs().collect::<Vec<_>>(), old.graphs().collect::<Vec<_>>());
    }

    #[test]
    fn tag_only_mutations_resample_nothing() {
        let (old_model, new_model) = mutate(&[UpdateOp::DetachTag { tag: 2 }]);
        let old = build(&old_model, 300, 2);
        let (repaired, report) = repair_rr_index(&old, &old_model, &new_model, &opts());
        assert_eq!(report.resampled, 0);
        assert_eq!(rr_index_to_bytes(&repaired), rr_index_to_bytes(&build(&new_model, 300, 1)));
    }

    #[test]
    fn vertex_growth_forces_full_rebuild() {
        let (old_model, new_model) = mutate(&[UpdateOp::AddUser]);
        let old = build(&old_model, 300, 2);
        let (repaired, report) = repair_rr_index(&old, &old_model, &new_model, &opts());
        assert!(report.full_rebuild);
        assert!(report.reason.as_deref().unwrap().contains("vertex count"));
        assert_eq!(rr_index_to_bytes(&repaired), rr_index_to_bytes(&build(&new_model, 300, 4)));
    }

    #[test]
    fn dirty_threshold_triggers_full_rebuild() {
        // Mutating the head of (0, 2) dirties every graph containing u3 —
        // far above a 1% threshold on this tiny graph.
        let (old_model, new_model) =
            mutate(&[UpdateOp::SetEdgeTopics { src: 0, dst: 2, topics: vec![(1, 0.95)] }]);
        let opts = RepairOptions { dirty_threshold: 0.01, ..opts() };
        let old = build(&old_model, 300, 2);
        let (repaired, report) = repair_rr_index(&old, &old_model, &new_model, &opts);
        assert!(report.full_rebuild);
        assert!(report.reason.as_deref().unwrap().contains("dirty fraction"));
        assert_eq!(rr_index_to_bytes(&repaired), rr_index_to_bytes(&build(&new_model, 300, 2)));
    }

    #[test]
    fn dirty_members_cover_every_changed_graph() {
        let (old_model, new_model) =
            mutate(&[UpdateOp::SetEdgeTopics { src: 5, dst: 6, topics: vec![(2, 0.99)] }]);
        let old = build(&old_model, 500, 2);
        let (repaired, report) = repair_rr_index(&old, &old_model, &new_model, &opts());
        for (i, (a, b)) in old.graphs().zip(repaired.graphs()).enumerate() {
            if a != b {
                for &v in b.nodes() {
                    assert!(
                        report.dirty_members.contains(&v),
                        "graph {i}: member {v} of a changed graph missing from dirty_members"
                    );
                }
            }
        }
        assert!(report.resampled > 0);
    }

    #[test]
    fn repair_chains_compose() {
        // repair(repair(m0 -> m1) -> m2) == build(m2).
        let base = Arc::new(TicModel::paper_example());
        let mut o1 = ModelOverlay::new(base.clone());
        o1.apply(UpdateOp::SetEdgeTopics { src: 0, dst: 1, topics: vec![(0, 0.7)] }).unwrap();
        let m1 = Arc::new(o1.compact());
        let mut o2 = ModelOverlay::new(m1.clone());
        o2.apply(UpdateOp::RemoveEdge { src: 3, dst: 6 }).unwrap();
        let m2 = o2.compact();

        let opts = opts();
        let i0 = build(&base, 350, 2);
        let (i1, _) = repair_rr_index(&i0, &base, &m1, &opts);
        let (i2, _) = repair_rr_index(&i1, &m1, &m2, &opts);
        assert_eq!(rr_index_to_bytes(&i2), rr_index_to_bytes(&build(&m2, 350, 3)));
    }
}
