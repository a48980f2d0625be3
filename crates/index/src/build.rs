//! Offline RR-Graph index construction (Algo. 3, offline phase).

use crate::rrgraph::{position, RrGraph, RrGraphRef, Sampler};
use crate::segment::{
    build_membership, patch_membership, MemberChunk, Segment, SegmentBuilder, MEMBER_CHUNK_USERS,
    SEGMENT_DRAWS,
};
use pitex_graph::{EdgeId, NodeId};
use pitex_model::{combi, MaxEdgeProbs, TicModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// How many RR-Graphs to sample offline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IndexBudget {
    /// Eq. 7 of the paper: `θ = (2+ε)/ε²·|V|·(ln 2 + ln δ + ln φ_K)`.
    /// Guarantees the `(1−ε)/(1+ε)` ratio for every user and every `k ≤ K`
    /// simultaneously, but is far beyond practical index sizes (the paper's
    /// own Table 3 implies a much smaller effective θ); exposed for
    /// completeness and for tiny graphs.
    Theoretical { epsilon: f64, delta: f64, k_max: usize },
    /// `θ = c·|V|`: the practical default (c = 8). Accuracy degrades
    /// gracefully — estimates stay unbiased, only the confidence radius
    /// widens (documented in EXPERIMENTS.md).
    PerVertex(f64),
    /// An explicit sample count.
    Fixed(u64),
}

impl Default for IndexBudget {
    fn default() -> Self {
        IndexBudget::PerVertex(8.0)
    }
}

impl IndexBudget {
    /// Resolves the budget to a concrete sample count.
    pub fn sample_count(&self, num_nodes: usize, num_tags: usize) -> u64 {
        match *self {
            IndexBudget::Theoretical { epsilon, delta, k_max } => {
                let ln_total = (2.0f64).ln()
                    + delta.ln()
                    + combi::ln_phi(num_tags as u64, k_max as u64).max(0.0);
                let lambda = (2.0 + epsilon) / (epsilon * epsilon) * ln_total;
                (lambda * num_nodes as f64).ceil() as u64
            }
            IndexBudget::PerVertex(c) => (c * num_nodes as f64).ceil() as u64,
            IndexBudget::Fixed(n) => n,
        }
    }
}

/// The materialized RR-Graph index: θ sample graphs plus a per-user
/// membership table (`u → graphs containing u`), which is what lets the
/// online phase touch only the graphs `u` could possibly influence.
///
/// Both live in `Arc`'d fixed-size pieces (see [`crate::segment`]): segment
/// `s` holds draws `[S·s, S·(s + 1))` and is a pure function of
/// `(model, seed, s)`; chunk `k` holds the lists of users `[C·k, C·(k + 1))`.
/// Cloning an index, or repairing it through [`RrIndex::splice`], shares
/// every piece that did not change.
#[derive(Clone, Debug)]
pub struct RrIndex {
    num_nodes: usize,
    theta: u64,
    /// The budget and seed this index was sampled under. Carried (and
    /// persisted) with the index so incremental repair can reproduce the
    /// exact per-draw streams without the operator re-threading flags.
    budget: IndexBudget,
    seed: u64,
    segments: Vec<Arc<Segment>>,
    members: Vec<Arc<MemberChunk>>,
}

/// Segments of an index of `theta` draws over `num_nodes` vertices (an empty
/// graph has no vertex to target, hence no draw).
pub(crate) fn segment_count(num_nodes: usize, theta: u64) -> u64 {
    if num_nodes == 0 {
        0
    } else {
        theta.div_ceil(SEGMENT_DRAWS as u64)
    }
}

impl RrIndex {
    /// Builds the index with as many threads as available cores.
    pub fn build(model: &TicModel, budget: IndexBudget, seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::build_with_threads(model, budget, seed, threads)
    }

    /// Builds the index with an explicit thread count. Deterministic for a
    /// fixed `(model, budget, seed)` pair — every draw runs on its own
    /// seed-derived RNG stream (see [`sample_rr_graph_at`]) and threads are
    /// handed whole segments, so `threads` only controls parallelism, never
    /// the result. `pitex_live`'s incremental repair relies on this: it can
    /// resample a single dirty draw and still match a from-scratch rebuild
    /// bit for bit.
    pub fn build_with_threads(
        model: &TicModel,
        budget: IndexBudget,
        seed: u64,
        threads: usize,
    ) -> Self {
        let num_nodes = model.graph().num_nodes();
        let theta = budget.sample_count(num_nodes, model.num_tags());
        assert!(theta <= u32::MAX as u64, "graph ids are u32: θ = {theta} is too large");
        let per_thread = in_ranges(segment_count(num_nodes, theta), threads, |segments| {
            let (mut sampler, mut out) = (Sampler::default(), SegmentBuilder::default());
            let sample = |s: u64| {
                let first = s * SEGMENT_DRAWS as u64;
                for draw in first..theta.min(first + SEGMENT_DRAWS as u64) {
                    sample_draw(&mut sampler, model, seed, draw);
                    sampler.push_to(&mut out);
                }
                Arc::new(out.seal())
            };
            segments.map(sample).collect::<Vec<_>>()
        });
        Self::from_segments(num_nodes, theta, budget, seed, per_thread.concat())
    }

    /// The index over `segments`, its membership table derived from them.
    pub(crate) fn from_segments(
        num_nodes: usize,
        theta: u64,
        budget: IndexBudget,
        seed: u64,
        segments: Vec<Arc<Segment>>,
    ) -> Self {
        let members = build_membership(num_nodes, &segments);
        Self { num_nodes, theta, budget, seed, segments, members }
    }

    /// The index of `model`, given that only the draws in `dirty`
    /// (ascending) sample differently on it than on the model `self` was
    /// built from: those are resampled into rewritten segments, and every
    /// segment and membership chunk they leave untouched is shared with
    /// `self`. When the edge set changed, `edge_ids` maps old to new global
    /// edge ids and every segment is rewritten, through one bulk pass over
    /// its edge-id arena. Also returns the members, before and after, of
    /// every resampled graph (ascending).
    pub fn splice(
        &self,
        model: &TicModel,
        dirty: &[u32],
        edge_ids: Option<&[EdgeId]>,
        threads: usize,
    ) -> (RrIndex, Vec<NodeId>) {
        assert_eq!(model.graph().num_nodes(), self.num_nodes, "every draw would be re-targeted");
        assert!(dirty.windows(2).all(|d| d[0] < d[1]), "dirty draws must strictly ascend");
        let mut rewritten: Vec<usize> = match edge_ids {
            Some(_) => (0..self.segments.len()).collect(),
            None => dirty.iter().map(|&draw| draw as usize / SEGMENT_DRAWS).collect(),
        };
        rewritten.dedup();
        let dirty_of = |s: usize| {
            let from = |draw: usize| dirty.partition_point(|&d| (d as usize) < draw);
            &dirty[from(s * SEGMENT_DRAWS)..from((s + 1) * SEGMENT_DRAWS)]
        };
        let per_thread = in_ranges(rewritten.len() as u64, threads, |jobs| {
            let (mut sampler, mut out) = (Sampler::default(), SegmentBuilder::default());
            let (mut deltas, mut touched) = (Vec::new(), Vec::<NodeId>::new());
            let mut rewrite = |s: usize| {
                let old = &self.segments[s];
                let mut copied = 0;
                for &draw in dirty_of(s) {
                    let g = draw as usize % SEGMENT_DRAWS;
                    out.copy_graphs(old, copied..g, edge_ids);
                    copied = g + 1;
                    sample_draw(&mut sampler, model, self.seed, draw as u64);
                    sampler.push_to(&mut out);
                    let (before, after) = (old.graph(g), sampler.members());
                    touched.extend(before.nodes().iter().chain(after));
                    let left = before.nodes().iter().filter(|&&v| position(after, v).is_none());
                    deltas.extend(left.map(|&v| (v, draw, false)));
                    let joined = after.iter().filter(|&&v| !before.contains(v));
                    deltas.extend(joined.map(|&v| (v, draw, true)));
                }
                out.copy_graphs(old, copied..old.num_graphs(), edge_ids);
                Arc::new(out.seal())
            };
            let jobs = &rewritten[jobs.start as usize..jobs.end as usize];
            (jobs.iter().map(|&s| rewrite(s)).collect::<Vec<_>>(), deltas, touched)
        });
        let mut segments = self.segments.clone();
        let (mut deltas, mut touched) = (Vec::new(), Vec::new());
        let mut slots = rewritten.iter();
        for (fresh, of_deltas, of_touched) in per_thread {
            for (segment, &s) in fresh.into_iter().zip(&mut slots) {
                segments[s] = segment;
            }
            deltas.extend(of_deltas);
            touched.extend(of_touched);
        }
        touched.sort_unstable();
        touched.dedup();
        let members = patch_membership(&self.members, &mut deltas);
        (RrIndex { segments, members, ..*self }, touched)
    }

    /// Number of vertices of the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total offline samples θ (equals `graphs().len()`).
    pub fn theta(&self) -> u64 {
        self.theta
    }

    /// The sample budget this index was built under.
    pub fn budget(&self) -> IndexBudget {
        self.budget
    }

    /// The seed of this index's per-draw sample streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The RR-Graph of draw `i`.
    #[inline]
    pub fn graph(&self, i: usize) -> RrGraphRef<'_> {
        self.segments[i / SEGMENT_DRAWS].graph(i % SEGMENT_DRAWS)
    }

    /// All sampled RR-Graphs, in draw order.
    pub fn graphs(&self) -> impl ExactSizeIterator<Item = RrGraphRef<'_>> {
        let graphs: usize = self.segments.iter().map(|s| s.num_graphs()).sum();
        (0..graphs).map(|i| self.graph(i))
    }

    /// The shared segments, in draw order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The shared membership chunks, in user order.
    pub fn member_chunks(&self) -> &[Arc<MemberChunk>] {
        &self.members
    }

    /// Ids of the RR-Graphs containing `user` — the paper's `θ(u)`.
    #[inline]
    pub fn graphs_containing(&self, user: u32) -> &[u32] {
        let user = user as usize;
        self.members[user / MEMBER_CHUNK_USERS].list(user % MEMBER_CHUNK_USERS)
    }

    /// `θ(u)`: how many RR-Graphs contain `user` (Example 9).
    pub fn membership_count(&self, user: u32) -> usize {
        self.graphs_containing(user).len()
    }

    /// Exact heap footprint in bytes (Table 3's "size"): every segment and
    /// membership chunk, plus per piece its `Arc`'s two counters and its
    /// pointer in the index's table.
    pub fn heap_bytes(&self) -> u64 {
        let per_piece = 3 * std::mem::size_of::<usize>() as u64;
        let segments: u64 = self.segments.iter().map(|s| per_piece + s.heap_bytes()).sum();
        let chunks: u64 = self.members.iter().map(|c| per_piece + c.heap_bytes()).sum();
        segments + chunks
    }
}

/// Derives the independent RNG stream of draw number `draw` under the index
/// seed (a splitmix64 finalizer over the pair). Because every draw owns a
/// whole stream, RR-Graph `i` is a pure function of `(model, seed, i)` —
/// no draw depends on any other draw or on how draws were split across
/// threads. That independence is the contract `pitex_live::repair` builds
/// on: resampling exactly the dirty draws reproduces a full rebuild.
fn draw_rng(seed: u64, draw: u64) -> StdRng {
    let mut x = seed ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(x ^ (x >> 31))
}

/// Runs the `draw`-th sample of the `(model, seed)` index stream in
/// `sampler`: the target is drawn uniformly, then Def. 2's reverse BFS runs
/// on the same per-draw RNG. Both index builders and [`RrIndex::splice`]
/// sample through this, so all walk the exact same per-draw streams.
pub(crate) fn sample_draw(sampler: &mut Sampler, model: &TicModel, seed: u64, draw: u64) {
    let mut rng = draw_rng(seed, draw);
    let target = rng.gen_range(0..model.graph().num_nodes() as u32);
    let mut p_max = MaxEdgeProbs::new(model.edge_topics());
    sampler.sample(model.graph(), &mut p_max, target, &mut rng);
}

/// The `draw`-th RR-Graph of the `(model, seed)` index stream, on its own.
pub fn sample_rr_graph_at(model: &TicModel, seed: u64, draw: u64) -> RrGraph {
    let mut sampler = Sampler::default();
    sample_draw(&mut sampler, model, seed, draw);
    RrGraph::from_sampler(sampler)
}

/// Contiguous range `[lo, hi)` assigned to thread `t` of `threads` when
/// splitting `total` items.
fn split_range(t: u64, threads: u64, total: u64) -> Range<u64> {
    let per_thread = total / threads;
    let remainder = total % threads;
    let lo = t * per_thread + t.min(remainder);
    lo..lo + per_thread + u64::from(t < remainder)
}

/// `work` over `0..total` cut into one contiguous range per thread; the
/// results in range order. Runs inline, spawning nothing, when one thread is
/// asked for or there are fewer items than threads.
pub(crate) fn in_ranges<T: Send>(
    total: u64,
    threads: usize,
    work: impl Fn(Range<u64>) -> T + Sync,
) -> Vec<T> {
    let threads = threads.max(1) as u64;
    if threads == 1 || total < threads {
        return vec![work(0..total)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || work(split_range(t, threads, total))))
            .collect();
        handles.into_iter().map(|h| h.join().expect("index worker thread panicked")).collect()
    })
}

#[cfg(test)]
impl RrIndex {
    /// An index over hand-made graphs (one segment's worth at most).
    pub(crate) fn from_graphs(
        num_nodes: usize,
        theta: u64,
        budget: IndexBudget,
        seed: u64,
        graphs: &[RrGraph],
    ) -> Self {
        let mut out = SegmentBuilder::default();
        for graph in graphs {
            out.copy_graphs(&graph.0, 0..1, None);
        }
        Self::from_segments(num_nodes, theta, budget, seed, vec![Arc::new(out.seal())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitex_model::TicModel;

    #[test]
    fn budget_resolution() {
        assert_eq!(IndexBudget::Fixed(123).sample_count(1000, 50), 123);
        assert_eq!(IndexBudget::PerVertex(4.0).sample_count(1000, 50), 4000);
        let th = IndexBudget::Theoretical { epsilon: 0.7, delta: 1000.0, k_max: 10 }
            .sample_count(100, 50);
        // Λ = (2.7/0.49)·(ln 2 + ln 1000 + ln φ_10(50)) ≈ 5.51·(0.69+6.9+23.2)
        assert!(th > 100 * 100, "theoretical budget is intentionally huge: {th}");
    }

    #[test]
    fn membership_is_consistent_with_graph_contents() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(200), 7, 2);
        assert_eq!(index.theta(), 200);
        assert_eq!(index.graphs().len(), 200);
        for u in 0..model.graph().num_nodes() as u32 {
            for &gid in index.graphs_containing(u) {
                assert!(index.graph(gid as usize).contains(u));
            }
            let direct = index.graphs().filter(|g| g.contains(u)).count();
            assert_eq!(index.membership_count(u), direct);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads() {
        let model = TicModel::paper_example();
        let a = RrIndex::build_with_threads(&model, IndexBudget::Fixed(50), 11, 3);
        let b = RrIndex::build_with_threads(&model, IndexBudget::Fixed(50), 11, 3);
        assert_eq!(a.graphs().collect::<Vec<_>>(), b.graphs().collect::<Vec<_>>());
    }

    #[test]
    fn isolated_vertices_appear_only_as_their_own_targets() {
        // u5 (id 4) of the running example has no edges: θ(u5) counts only
        // draws where u5 itself was the target (Example 9 reports 0 for a
        // 5-draw index; with 700 draws it is ≈ 100).
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(700), 3, 2);
        for &gid in index.graphs_containing(4) {
            assert_eq!(index.graph(gid as usize).target(), 4);
        }
        let count = index.membership_count(4) as f64;
        assert!((count - 100.0).abs() < 40.0, "θ(u5) = {count} far from 700/7");
    }

    #[test]
    fn thread_split_covers_full_quota() {
        let model = TicModel::paper_example();
        for threads in 1..=5 {
            let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(17), 1, threads);
            assert_eq!(index.graphs().len(), 17, "threads = {threads}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_index() {
        // Per-draw RNG streams: the built index is a pure function of
        // (model, budget, seed); threads only split the work.
        let model = TicModel::paper_example();
        let reference = RrIndex::build_with_threads(&model, IndexBudget::Fixed(64), 13, 1);
        for threads in [2, 3, 4, 7] {
            let other = RrIndex::build_with_threads(&model, IndexBudget::Fixed(64), 13, threads);
            assert_eq!(
                reference.graphs().collect::<Vec<_>>(),
                other.graphs().collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn heap_bytes_is_the_exact_sum_of_the_arenas_and_tables() {
        // 600 draws over the 7 users: segments of 512 and 88 graphs, one
        // membership chunk. Every arena entry takes 4 bytes.
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(600), 7, 1);
        let nodes: usize = index.graphs().map(|g| g.num_nodes()).sum();
        let edges: usize = index.graphs().map(|g| g.num_edges()).sum();
        // Per segment: six boxed slices (16 B each), the Arc's two counters
        // and its pointer in the table; a graph table with one end entry,
        // the node arena, its CSR offsets with one end entry, three edge
        // arenas.
        let segments = 2 * (6 * 16 + 16 + 8) + 4 * ((600 + 2) + nodes + (nodes + 2) + 3 * edges);
        // The chunk: two boxed slices, counters and pointer; 7 + 1 list
        // offsets and one id per (graph, member) pair.
        let chunk = (2 * 16 + 16 + 8) + 4 * ((7 + 1) + nodes);
        assert_eq!((index.segments().len(), index.member_chunks().len()), (2, 1));
        assert_eq!(index.heap_bytes(), (segments + chunk) as u64);
    }

    #[test]
    fn sample_at_matches_the_built_index_position() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(32), 19, 3);
        for draw in [0u64, 1, 15, 31] {
            let lone = sample_rr_graph_at(&model, 19, draw);
            assert_eq!(lone.as_ref(), index.graph(draw as usize), "draw {draw}");
        }
    }
}
