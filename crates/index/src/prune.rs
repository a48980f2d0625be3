//! Edge-cut filtering on a compiled per-user view (§6.2) — the paper's
//! INDEXEST+, and the one filter→verify loop all three index estimators run.
//!
//! Verifying tag-aware reachability in every RR-Graph containing `u` means
//! one traversal per graph per tag set. The filter step picks, per RR-Graph,
//! a small **edge cut** such that `u` can reach the target only if at least
//! one cut edge is live (`p(e|W) ≥ c(e)`); if every cut edge is dead the
//! graph is pruned without traversal. Following Example 7, two candidate
//! cuts are compared — `u`'s out-edges inside the graph versus the target's
//! in-edges from `u`-reachable vertices — keeping the one with the higher
//! prune probability `Π_e c(e)/p(e)` (the chance that an independent
//! `p(e|W) ~ U[0, p(e)]` misses every mark).
//!
//! The paper builds the filter once per query user and reuses it for the
//! hundreds of tag sets of the query. [`CutFilter`] compiles more than the
//! cuts in that one pass — the BFS from `u` that finds the second cut
//! already walks everything a verification can ever touch:
//!
//! * **graphs** — per member graph only the subgraph reachable from `u`,
//!   renumbered in BFS order (so `u` is the graph's first node) and appended
//!   to shared arenas: one offsets entry per node, and per edge `dst` (arena
//!   node), `edge_local` and the mark `c`, each vertex's edges in stored
//!   order. A traversal is therefore the same DFS [`RrGraphRef::reaches_target`]
//!   runs — same edges probed, same count — over contiguous memory, with no
//!   per-graph `local_id` binary searches. Graphs whose target is `u` are
//!   hits by definition and collapse into a position list; graphs where `u`
//!   has no out-edge can never hit and are dropped.
//! * **edges** — every distinct global edge id of the view gets a dense
//!   local id, **cut edges first**. Per tag set the cut-edge prefix is
//!   evaluated by one sparse [`EdgeProbs::fill`] call over the cut edges'
//!   rows transposed by topic — an [`EdgeColumns`] block the estimators
//!   compile with the view — so the pass reads only the columns of the tag
//!   set's support and writes only the slots they reach (the others stay
//!   `p = 0`); the rest are probed lazily under an epoch stamp the first
//!   time a traversal meets them, because a heavy user's view holds
//!   several times more edges than one estimate touches.
//! * **inverted lists** — the chosen cuts' `(edge, c, graph)` triples,
//!   sorted once and flattened into `list_off` / `list_c` / `list_graph`:
//!   list `j` belongs to local edge `j` and is sorted by `c` ascending, so a
//!   query scans only the lists of the slots the fill touched, each only
//!   while `c(e) ≤ p(e|W)`, and every unvisited graph is pruned wholesale.
//!
//! The graphs an estimate traverses therefore come in the order the fill
//! touched their cut edges, not by position. Nothing depends on that order:
//! the estimators count hits as integers (DELAYMAT sums integer weights),
//! and graphs own disjoint ranges of the node arena, so each traversal
//! probes the same edges whichever runs first.

use crate::build::RrIndex;
use crate::estimate::IndexView;
use crate::rrgraph::RrGraphRef;
use pitex_graph::{DiGraph, EdgeId, NodeId};
use pitex_model::{EdgeColumns, EdgeProbs, EdgeTopics};
use pitex_sampling::{Estimate, SamplingParams, SpreadEstimator};
use pitex_support::EpochVisited;

/// Which edge cut each RR-Graph uses (the ablation knob behind Example 7's
/// selection heuristic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CutPolicy {
    /// Always the query user's out-edges inside the graph.
    UserOut,
    /// Always the target's in-edges from user-reachable vertices.
    TargetIn,
    /// Example 7: whichever cut has the higher prune probability
    /// `Π_e c(e)/p(e)` (the default).
    #[default]
    Best,
}

/// Arena node id of a target the user cannot reach in the stored graph.
const UNREACHABLE: u32 = u32::MAX;

/// One traversable graph of the view.
#[derive(Clone, Copy, Debug)]
struct ViewGraph {
    /// Position in the sequence the view was compiled from.
    pos: u32,
    /// Arena node of the user: the graph's first.
    start: u32,
    /// Arena node of the target, or [`UNREACHABLE`].
    target: u32,
}

/// The compiled view of one user over a set of RR-Graphs (see the module
/// docs): the user-reachable subgraphs, one cut per graph, and the cuts'
/// inverted lists. Built once per query user and reused for every candidate
/// tag set of the query. The default is the view over no graphs.
#[derive(Clone, Debug, Default)]
pub struct CutFilter {
    num_graphs: usize,
    /// Whether cuts were chosen; without them every graph is a candidate.
    filtered: bool,
    /// Positions of the graphs whose target is the user.
    self_hits: Vec<u32>,
    graphs: Vec<ViewGraph>,
    /// Node arena: node `v`'s edges are `adj_off[v]..adj_off[v + 1]`.
    adj_off: Vec<u32>,
    /// Edge arenas.
    dst: Vec<u32>,
    edge_local: Vec<u32>,
    c: Vec<f32>,
    /// Local edge id → global edge id; the first `num_list_edges` entries
    /// are the cut edges, ascending.
    edge_global: Vec<EdgeId>,
    num_list_edges: usize,
    /// Inverted list of local edge `j < num_list_edges`:
    /// `list_off[j]..list_off[j + 1]` into `list_c` (ascending) /
    /// `list_graph` (indices into `graphs`).
    list_off: Vec<u32>,
    list_c: Vec<f32>,
    list_graph: Vec<u32>,
    build: BuildScratch,
}

/// A member graph the first pass of [`CutFilter::compile`] kept: one the
/// user is a member of, not its target, with an out-edge.
#[derive(Clone, Copy, Debug)]
struct Resolved<'g> {
    pos: u32,
    rr: RrGraphRef<'g>,
    user_local: u32,
}

/// Graphs [`CutFilter::compile`] resolves before compiling them: enough
/// for the CPU to overlap their cache misses, few enough that their lines
/// are still cached when the second pass reads them.
const RESOLVE_BLOCK: usize = 64;

/// Buffers [`CutFilter::compile`] reuses from one user to the next.
#[derive(Clone, Debug, Default)]
struct BuildScratch {
    seen: EpochVisited,
    /// Stored local id → BFS rank, valid where `seen`.
    rank: Vec<u32>,
    queue: Vec<u32>,
    /// Global edge id of every arena edge.
    arena_edge: Vec<EdgeId>,
    cut2: Vec<(EdgeId, f32)>,
    cuts: Vec<(EdgeId, f32, u32)>,
    by_edge: Vec<(EdgeId, u32)>,
}

/// What one [`UserView::verify`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Verified {
    /// Graphs the filter did not rule out: the traversed ones plus those
    /// whose target is the user.
    pub(crate) candidates: u64,
    pub(crate) edges_visited: u64,
}

/// Example 7's prune probability `Π_e min(1, c(e)/p(e))` of one cut.
fn prune_prob(p_max: &EdgeTopics, cut: impl Iterator<Item = (EdgeId, f32)>) -> f64 {
    cut.map(|(e, c)| {
        let p = p_max.p_max(e) as f64;
        if p > 0.0 {
            (c as f64 / p).min(1.0)
        } else {
            1.0
        }
    })
    .product()
}

impl CutFilter {
    /// Builds the filter for `user` over `graphs` (positions into the
    /// sequence are the filter's graph ids). `p_max` supplies `p(e)`. Uses
    /// the paper's best-of-two cut selection.
    pub fn build<'g>(
        user: NodeId,
        graphs: impl Iterator<Item = RrGraphRef<'g>>,
        p_max: &EdgeTopics,
    ) -> Self {
        Self::build_with_policy(user, graphs, p_max, CutPolicy::Best)
    }

    /// [`CutFilter::build`] with an explicit cut-selection policy (used by
    /// the ablation bench to quantify Example 7's heuristic).
    pub fn build_with_policy<'g>(
        user: NodeId,
        graphs: impl Iterator<Item = RrGraphRef<'g>>,
        p_max: &EdgeTopics,
        policy: CutPolicy,
    ) -> Self {
        let mut filter = Self::default();
        filter.compile(user, graphs, Some((p_max, policy)));
        filter
    }

    /// Recompiles the view for `user` over `graphs` in place. Without
    /// `cuts` no inverted lists are built and every traversable graph is a
    /// candidate (plain INDEXEST).
    fn compile<'g>(
        &mut self,
        user: NodeId,
        graphs: impl Iterator<Item = RrGraphRef<'g>>,
        cuts: Option<(&EdgeTopics, CutPolicy)>,
    ) {
        self.num_graphs = 0;
        self.filtered = cuts.is_some();
        self.self_hits.clear();
        self.graphs.clear();
        self.adj_off.clear();
        self.adj_off.push(0);
        self.dst.clear();
        self.c.clear();
        self.build.arena_edge.clear();
        self.build.cuts.clear();

        // Two passes per block of graphs. Pass 1 resolves each graph: its
        // target, the user's local id and the user's out-edge range. No
        // graph's loads depend on another's, so the CPU overlaps their cache
        // misses, where a BFS between two graphs would wait for each graph's
        // in turn. Pass 2 compiles the graphs pass 1 kept, in order.
        let mut graphs = graphs.enumerate();
        let mut block = [None; RESOLVE_BLOCK];
        loop {
            let mut len = 0;
            for (pos, rr) in graphs.by_ref() {
                self.num_graphs += 1;
                let pos = pos as u32;
                if rr.target() == user {
                    self.self_hits.push(pos);
                    continue;
                }
                // Not a member, or a member with no way out: can never reach.
                let Some(user_local) = rr.local_id(user) else { continue };
                if rr.out_edges_local(user_local).len() > 0 {
                    block[len] = Some(Resolved { pos, rr, user_local });
                    len += 1;
                    if len == RESOLVE_BLOCK {
                        break;
                    }
                }
            }
            for &resolved in block[..len].iter().flatten() {
                self.compile_graph(resolved, cuts);
            }
            if len < RESOLVE_BLOCK {
                break;
            }
        }

        // Inverted lists: one sort of the (edge, c, graph) triples. The cut
        // edges take the local ids 0.., ascending.
        self.edge_global.clear();
        self.list_off.clear();
        self.list_c.clear();
        self.list_graph.clear();
        let build = &mut self.build;
        build
            .cuts
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        for &(e, c, slot) in &build.cuts {
            if self.edge_global.last() != Some(&e) {
                self.edge_global.push(e);
                self.list_off.push(self.list_c.len() as u32);
            }
            self.list_c.push(c);
            self.list_graph.push(slot);
        }
        self.list_off.push(self.list_c.len() as u32);

        // Local ids of the arena edges: a merge of the sorted arena edge ids
        // with the (sorted) cut edges; everything else is numbered after them.
        let num_list_edges = self.edge_global.len();
        self.num_list_edges = num_list_edges;
        build.by_edge.clear();
        build.by_edge.extend(build.arena_edge.iter().zip(0u32..).map(|(&e, i)| (e, i)));
        build.by_edge.sort_unstable();
        self.edge_local.clear();
        self.edge_local.resize(self.dst.len(), 0);
        let mut cut_cursor = 0usize;
        let mut run = (None, 0u32); // the edge id being numbered and its local id
        for &(e, i) in &build.by_edge {
            if run.0 != Some(e) {
                while cut_cursor < num_list_edges && self.edge_global[cut_cursor] < e {
                    cut_cursor += 1;
                }
                let local = if cut_cursor < num_list_edges && self.edge_global[cut_cursor] == e {
                    cut_cursor
                } else {
                    self.edge_global.push(e);
                    self.edge_global.len() - 1
                };
                run = (Some(e), local as u32);
            }
            self.edge_local[i as usize] = run.1;
        }
    }

    /// Appends one resolved graph to the view: its user-reachable subgraph
    /// to the arenas and, with `cuts`, its chosen cut to the build's
    /// `(edge, c, graph)` triples. Inlined into `compile`'s only call, once
    /// per member graph: out of line it measured slower.
    #[inline(always)]
    fn compile_graph(
        &mut self,
        Resolved { pos, rr, user_local }: Resolved,
        cuts: Option<(&EdgeTopics, CutPolicy)>,
    ) {
        let build = &mut self.build;
        let target_local = 0; // the target is every graph's first member

        // BFS from the user over the stored graph (marks ignored: stored
        // edges are the p_max-live superset), appending each dequeued
        // vertex's edges to the arenas. The target's in-edges met on the
        // way are the second cut.
        let start = (self.adj_off.len() - 1) as u32;
        build.seen.grow(rr.num_nodes());
        build.seen.reset();
        if build.rank.len() < rr.num_nodes() {
            build.rank.resize(rr.num_nodes(), 0);
        }
        build.queue.clear();
        build.cut2.clear();
        build.seen.insert(user_local);
        build.rank[user_local as usize] = 0;
        build.queue.push(user_local);
        let mut head = 0usize;
        while head < build.queue.len() {
            let v = build.queue[head];
            head += 1;
            for e in rr.out_edges_local(v) {
                if build.seen.insert(e.dst_local) {
                    build.rank[e.dst_local as usize] = build.queue.len() as u32;
                    build.queue.push(e.dst_local);
                }
                self.dst.push(start + build.rank[e.dst_local as usize]);
                self.c.push(e.c);
                build.arena_edge.push(e.edge_id);
                if e.dst_local == target_local {
                    build.cut2.push((e.edge_id, e.c));
                }
            }
            self.adj_off.push(self.dst.len() as u32);
        }
        let target = if build.seen.contains(target_local) {
            start + build.rank[target_local as usize]
        } else {
            UNREACHABLE
        };
        let slot = self.graphs.len() as u32;
        self.graphs.push(ViewGraph { pos, start, target });

        let Some((p_max, policy)) = cuts else { return };
        // Cut 1: the user's out-edges, the first arena edges of the graph.
        let cut1 = self.adj_off[start as usize] as usize..self.adj_off[start as usize + 1] as usize;
        let cut1 = cut1.map(|i| (build.arena_edge[i], self.c[i]));
        // Example 7's selection rule: higher Π c(e)/p(e) prunes more.
        let use_cut1 = match policy {
            CutPolicy::UserOut => true,
            CutPolicy::TargetIn if !build.cut2.is_empty() => false,
            _ => {
                build.cut2.is_empty()
                    || prune_prob(p_max, cut1.clone())
                        >= prune_prob(p_max, build.cut2.iter().copied())
            }
        };
        if use_cut1 {
            build.cuts.extend(cut1.map(|(e, c)| (e, c, slot)));
        } else {
            build.cuts.extend(build.cut2.iter().map(|&(e, c)| (e, c, slot)));
        }
    }

    /// Number of graphs the filter was built over.
    pub fn num_graphs(&self) -> usize {
        self.num_graphs
    }

    /// Heap footprint of the compiled view in bytes (its build buffers and
    /// the per-estimate scratch of the estimator holding it not counted).
    pub fn heap_bytes(&self) -> u64 {
        (self.self_hits.len() * 4
            + self.graphs.len() * 12
            + self.adj_off.len() * 4
            + self.dst.len() * 12
            + self.edge_global.len() * 4
            + self.list_off.len() * 4
            + self.list_c.len() * 8) as u64
    }

    /// Collects candidate graph positions for the current tag set into
    /// `out` (deduplicated): the graphs whose target is the user plus every
    /// graph with at least one live cut edge. All other graphs are
    /// certifiably unreachable. (The inspection entry point of tests and
    /// benches: it allocates its buffers per call and probes the cut edges
    /// one by one, where the estimators' own pass reuses its buffers and
    /// reads the cut edges' columns.)
    pub fn candidates(
        &self,
        probs: &mut dyn EdgeProbs,
        marks: &mut EpochVisited,
        out: &mut Vec<u32>,
    ) {
        let mut list_p = vec![0.0f32; self.num_list_edges];
        let mut touched = Vec::with_capacity(list_p.len());
        let cut_edges = EdgeColumns::edges_only(&self.edge_global[..list_p.len()]);
        probs.fill(&cut_edges, &mut list_p, &mut touched);
        out.clear();
        out.extend_from_slice(&self.self_hits);
        let first_slot = out.len();
        self.live_slots(&list_p, &touched, marks, out);
        for slot in &mut out[first_slot..] {
            *slot = self.graphs[*slot as usize].pos;
        }
    }

    /// Appends to `out` every graph (index into `graphs`) with a live cut
    /// edge under the cut-edge probabilities `list_p`, each once, in no
    /// particular order. Only the lists of the `touched` cut edges (see
    /// [`EdgeProbs::fill`]) are scanned: every other one has `p = 0`, and a
    /// cut edge of `p = 0` is dead to the filter.
    fn live_slots(
        &self,
        list_p: &[f32],
        touched: &[u32],
        marks: &mut EpochVisited,
        out: &mut Vec<u32>,
    ) {
        marks.grow(self.graphs.len());
        marks.reset();
        for &j in touched {
            let j = j as usize;
            let p = list_p[j];
            if p <= 0.0 {
                continue;
            }
            let list = self.list_off[j] as usize..self.list_off[j + 1] as usize;
            for (&c, &slot) in self.list_c[list.clone()].iter().zip(&self.list_graph[list]) {
                if c > p {
                    break; // sorted ascending: the rest are dead too
                }
                if marks.insert(slot) {
                    out.push(slot);
                }
            }
        }
    }
}

/// Per-estimate state of a [`UserView`].
#[derive(Debug, Default)]
struct VerifyScratch {
    /// `p(e|W)` of the cut edges, filled in bulk per tag set; all `+0.0`
    /// between estimates.
    list_p: Vec<f32>,
    /// The slots of `list_p` the current fill wrote; empty between estimates.
    touched: Vec<u32>,
    /// `(stamp, p(e|W))` of the other local edges, valid iff the stamp is
    /// the current `epoch`.
    lazy: Vec<(u32, f32)>,
    epoch: u32,
    /// Over the node arena; graphs own disjoint ranges of it, so one reset
    /// per estimate serves every traversal.
    visited: EpochVisited,
    stack: Vec<u32>,
    marks: EpochVisited,
    candidates: Vec<u32>,
}

/// The compiled view of the most recent query user plus the scratch one
/// estimate needs — what INDEXEST, INDEXEST+ and DELAYMAT each hold. A PITEX
/// query evaluates hundreds of tag sets for one user, so the view is
/// compiled on user switch and amortized (the paper constructs its filter
/// per query user, §6.2); all buffers are reused across users.
#[derive(Debug, Default)]
pub(crate) struct UserView {
    user: Option<NodeId>,
    filter: CutFilter,
    /// The cut edges' `p(e|z)` rows by topic, in local-id order.
    list_cols: EdgeColumns,
    scratch: VerifyScratch,
}

impl UserView {
    /// True when the view is compiled for `user`.
    pub(crate) fn is_for(&self, user: NodeId) -> bool {
        self.user == Some(user)
    }

    /// Compiles the view for `user` over `graphs`; see [`CutFilter::compile`].
    pub(crate) fn compile<'g>(
        &mut self,
        user: NodeId,
        graphs: impl Iterator<Item = RrGraphRef<'g>>,
        cuts: Option<(&EdgeTopics, CutPolicy)>,
    ) {
        self.filter.compile(user, graphs, cuts);
        self.user = Some(user);
        let num_list_edges = self.filter.num_list_edges;
        match cuts {
            Some((table, _)) => {
                self.list_cols.rebuild(table, &self.filter.edge_global[..num_list_edges]);
            }
            None => self.list_cols = EdgeColumns::default(),
        }
        let scratch = &mut self.scratch;
        scratch.list_p.clear();
        scratch.list_p.resize(num_list_edges, 0.0);
        scratch.touched.clear();
        scratch.lazy.clear();
        scratch.lazy.resize(self.filter.edge_global.len() - num_list_edges, (0, 0.0));
        scratch.epoch = 0;
        scratch.visited.grow(self.filter.adj_off.len() - 1);
    }

    /// Positions of the graphs whose target is the user: hits under every
    /// tag set, not reported through [`UserView::verify`]'s `on_hit`.
    pub(crate) fn self_hits(&self) -> &[u32] {
        &self.filter.self_hits
    }

    /// Filter-and-verify for one tag set: evaluates the cut edges in bulk,
    /// scans the inverted lists of those the fill touched for candidates
    /// and traverses those, calling `on_hit` with the position of every
    /// graph where the user reaches the target, in no particular order. The
    /// traversal is [`RrGraphRef::reaches_target`]'s DFS edge for edge, so
    /// `edges_visited` counts the same probes.
    pub(crate) fn verify(
        &mut self,
        probs: &mut dyn EdgeProbs,
        mut on_hit: impl FnMut(u32),
    ) -> Verified {
        let Self { filter, list_cols, scratch, .. } = self;
        let (list_edges, lazy_edges) = filter.edge_global.split_at(scratch.list_p.len());
        probs.fill(list_cols, &mut scratch.list_p, &mut scratch.touched);
        scratch.candidates.clear();
        if filter.filtered {
            let candidates = &mut scratch.candidates;
            filter.live_slots(&scratch.list_p, &scratch.touched, &mut scratch.marks, candidates);
        } else {
            scratch.candidates.extend(0..filter.graphs.len() as u32);
        }

        if scratch.epoch == u32::MAX {
            scratch.lazy.fill((0, 0.0));
            scratch.epoch = 0;
        }
        scratch.epoch += 1;
        scratch.visited.reset();
        let mut edges_visited = 0u64;
        for &slot in &scratch.candidates {
            let graph = filter.graphs[slot as usize];
            scratch.stack.clear();
            scratch.visited.insert(graph.start);
            scratch.stack.push(graph.start);
            'dfs: while let Some(v) = scratch.stack.pop() {
                let out =
                    filter.adj_off[v as usize] as usize..filter.adj_off[v as usize + 1] as usize;
                let edges = filter.dst[out.clone()]
                    .iter()
                    .zip(&filter.edge_local[out.clone()])
                    .zip(&filter.c[out]);
                for ((&dst, &local), &c) in edges {
                    if scratch.visited.contains(dst) {
                        continue;
                    }
                    edges_visited += 1;
                    let p = match (local as usize).checked_sub(list_edges.len()) {
                        None => scratch.list_p[local as usize],
                        Some(rest) => {
                            let memo = &mut scratch.lazy[rest];
                            if memo.0 != scratch.epoch {
                                *memo = (scratch.epoch, probs.prob(lazy_edges[rest]) as f32);
                            }
                            memo.1
                        }
                    };
                    if p >= c {
                        if dst == graph.target {
                            on_hit(graph.pos);
                            break 'dfs;
                        }
                        scratch.visited.insert(dst);
                        scratch.stack.push(dst);
                    }
                }
            }
        }
        for slot in scratch.touched.drain(..) {
            scratch.list_p[slot as usize] = 0.0;
        }
        let candidates = (filter.self_hits.len() + scratch.candidates.len()) as u64;
        Verified { candidates, edges_visited }
    }
}

/// INDEXEST+ — the RR-Graph index estimator with edge-cut filtering.
#[derive(Debug)]
pub struct IndexPlusEstimator<'a> {
    view: IndexView<'a>,
    edge_topics: &'a EdgeTopics,
    graphs_verified: u64,
    graphs_pruned: u64,
}

impl<'a> IndexPlusEstimator<'a> {
    pub fn new(index: &'a RrIndex, edge_topics: &'a EdgeTopics) -> Self {
        Self { view: IndexView::new(index), edge_topics, graphs_verified: 0, graphs_pruned: 0 }
    }

    /// `(verified, pruned)` member graphs across the estimator's lifetime:
    /// those whose reachability a traversal (or the user being the target)
    /// decided, and those the filter ruled out without one.
    pub fn prune_counts(&self) -> (u64, u64) {
        (self.graphs_verified, self.graphs_pruned)
    }
}

impl SpreadEstimator for IndexPlusEstimator<'_> {
    fn estimate(
        &mut self,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        _params: &SamplingParams,
    ) -> Estimate {
        let cuts = Some((self.edge_topics, CutPolicy::Best));
        let (estimate, candidates) = self.view.estimate(graph, user, probs, cuts);
        self.graphs_verified += candidates;
        self.graphs_pruned += estimate.samples_used - candidates;
        estimate
    }

    fn name(&self) -> &'static str {
        "INDEXEST+"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBudget;
    use crate::estimate::IndexEstimator;
    use crate::rrgraph::RrGraph;
    use pitex_model::{PosteriorEdgeProbs, TagSet, TicModel};

    /// The central soundness property: filtering must never change the
    /// estimate — pruned graphs are exactly the unreachable ones.
    #[test]
    fn filtered_estimate_equals_unfiltered() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(5_000), 23, 4);
        let params = SamplingParams::enumeration(0.7, 1000.0, 4, 2);
        let mut cache = model.new_prob_cache();

        for user in 0..model.graph().num_nodes() as u32 {
            for tags in [vec![0u32, 1], vec![2, 3], vec![0, 2], vec![1, 3], vec![0], vec![3]] {
                let w = TagSet::new(tags.clone());
                let posterior = model.posterior(&w);

                let mut plain = IndexEstimator::new(&index);
                let mut probs =
                    PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                let a = plain.estimate(model.graph(), user, &mut probs, &params).spread;

                let mut plus = IndexPlusEstimator::new(&index, model.edge_topics());
                let mut probs =
                    PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                let b = plus.estimate(model.graph(), user, &mut probs, &params).spread;

                assert!(
                    (a - b).abs() < 1e-12,
                    "user {user}, W {tags:?}: plain {a} vs filtered {b}"
                );
            }
        }
    }

    #[test]
    fn pruning_actually_prunes() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(5_000), 29, 4);
        let params = SamplingParams::enumeration(0.7, 1000.0, 4, 2);
        let mut cache = model.new_prob_cache();
        let mut plus = IndexPlusEstimator::new(&index, model.edge_topics());
        // {w1, w2} kills most of the graph (only z1/z2 edges survive):
        // plenty of RR-Graphs should be pruned without verification.
        let w = TagSet::from([0, 1]);
        let posterior = model.posterior(&w);
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        plus.estimate(model.graph(), 0, &mut probs, &params);
        let (verified, pruned) = plus.prune_counts();
        assert!(
            pruned > 0 && verified + pruned == index.graphs_containing(0).len() as u64,
            "expected some pruning, verified {verified} pruned {pruned}"
        );
    }

    #[test]
    fn example8_inverted_list_behaviour() {
        // Example 8: for user u3 with W = {w1, w2}, the list of edge
        // (u3,u4) is skipped entirely (p = 0) and only the cheap prefix of
        // (u3,u6)'s list is visited. We verify the filter yields exactly
        // the graphs with a live cut edge.
        let model = TicModel::paper_example();
        let e34 = model.graph().find_edge(2, 3).unwrap(); // p(e|{w1,w2}) = 0.25·? ...
        let e36 = model.graph().find_edge(2, 5).unwrap();
        // Under {w1,w2}: p(z|W) = (.5,.5,0); p(u3->u4) = 0.5·0.5 = 0.25;
        // p(u3->u6) = 0 (z3 only).
        let graphs = [
            RrGraph::from_parts(3, vec![2, 3], &[(2, 3, e34, 0.2)]), // live (0.25 ≥ 0.2)
            RrGraph::from_parts(3, vec![2, 3], &[(2, 3, e34, 0.3)]), // dead (0.25 < 0.3)
            RrGraph::from_parts(5, vec![2, 5], &[(2, 5, e36, 0.1)]), // dead (0 < 0.1)
        ];
        let filter = CutFilter::build(2, graphs.iter().map(RrGraph::as_ref), model.edge_topics());
        let w = TagSet::from([0, 1]);
        let posterior = model.posterior(&w);
        let mut cache = model.new_prob_cache();
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        let mut marks = EpochVisited::new(0);
        let mut out = Vec::new();
        filter.candidates(&mut probs, &mut marks, &mut out);
        assert_eq!(out, vec![0], "only the first graph's cut edge is live");
    }

    #[test]
    fn every_cut_policy_is_sound() {
        // Whatever cut is chosen, candidates must cover every reachable
        // graph (the ablation only trades filtering power, never safety).
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(2_000), 37, 4);
        let mut cache = model.new_prob_cache();
        for policy in [CutPolicy::UserOut, CutPolicy::TargetIn, CutPolicy::Best] {
            for user in [0u32, 2, 3] {
                let member: Vec<_> = index
                    .graphs_containing(user)
                    .iter()
                    .map(|&g| index.graph(g as usize))
                    .collect();
                let filter = CutFilter::build_with_policy(
                    user,
                    member.iter().copied(),
                    model.edge_topics(),
                    policy,
                );
                let w = TagSet::from([2, 3]);
                let posterior = model.posterior(&w);
                let mut probs =
                    PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                let mut marks = EpochVisited::new(0);
                let mut candidates = Vec::new();
                filter.candidates(&mut probs, &mut marks, &mut candidates);
                // Ground truth.
                let mut scratch = crate::rrgraph::ReachScratch::new();
                for (pos, rr) in member.iter().enumerate() {
                    let mut probs =
                        PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
                    let mut visits = 0u64;
                    if rr.reaches_target(user, &mut probs, &mut scratch, &mut visits) {
                        assert!(
                            candidates.contains(&(pos as u32)),
                            "{policy:?} filtered out reachable graph {pos} for user {user}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn user_as_target_is_always_candidate() {
        let model = TicModel::paper_example();
        let graphs = [RrGraph::from_parts(2, vec![2], &[])];
        let filter = CutFilter::build(2, graphs.iter().map(RrGraph::as_ref), model.edge_topics());
        let mut zero = pitex_model::FixedEdgeProbs::uniform(model.graph().num_edges(), 0.0);
        let mut marks = EpochVisited::new(0);
        let mut out = Vec::new();
        filter.candidates(&mut zero, &mut marks, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn filter_rebuilds_on_user_switch() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(2_000), 31, 4);
        let params = SamplingParams::enumeration(0.7, 1000.0, 4, 2);
        let mut cache = model.new_prob_cache();
        let mut plus = IndexPlusEstimator::new(&index, model.edge_topics());
        let w = TagSet::from([2, 3]);
        let posterior = model.posterior(&w);
        for user in [0u32, 2, 0, 5] {
            let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
            let est = plus.estimate(model.graph(), user, &mut probs, &params);
            assert!(est.spread >= 0.0);
        }
    }

    /// §6.2 read literally, one graph at a time and with nothing compiled:
    /// the positions whose chosen cut has a live edge (or whose target is
    /// the user). What `candidates` and `verify` must agree with.
    fn reference_candidates(
        user: NodeId,
        graphs: &[RrGraphRef],
        p_max: &EdgeTopics,
        policy: CutPolicy,
        probs: &mut dyn EdgeProbs,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        for (pos, rr) in graphs.iter().enumerate() {
            if rr.target() == user {
                out.push(pos as u32);
                continue;
            }
            let Some(user_local) = rr.local_id(user) else { continue };
            let target_local = rr.local_id(rr.target()).unwrap();
            let cut1: Vec<_> = rr.out_edges_local(user_local).map(|e| (e.edge_id, e.c)).collect();
            let mut reach = vec![user_local];
            let mut head = 0;
            while head < reach.len() {
                for e in rr.out_edges_local(reach[head]) {
                    if !reach.contains(&e.dst_local) {
                        reach.push(e.dst_local);
                    }
                }
                head += 1;
            }
            let cut2: Vec<_> = reach
                .iter()
                .flat_map(|&v| rr.out_edges_local(v))
                .filter(|e| e.dst_local == target_local)
                .map(|e| (e.edge_id, e.c))
                .collect();
            let cut = match policy {
                CutPolicy::UserOut if !cut1.is_empty() => cut1,
                CutPolicy::TargetIn if !cut2.is_empty() => cut2,
                _ if cut2.is_empty() => cut1,
                _ if cut1.is_empty() => cut2,
                _ if prune_prob(p_max, cut1.iter().copied())
                    >= prune_prob(p_max, cut2.iter().copied()) =>
                {
                    cut1
                }
                _ => cut2,
            };
            if cut.iter().any(|&(e, c)| probs.prob(e) >= c as f64) {
                out.push(pos as u32);
            }
        }
        out
    }

    /// Hits and probes of [`RrGraph::reaches_target`] over `positions`.
    fn reference_verify(
        user: NodeId,
        graphs: &[RrGraphRef],
        positions: &[u32],
        probs: &mut dyn EdgeProbs,
    ) -> (Vec<u32>, u64) {
        let mut scratch = crate::rrgraph::ReachScratch::new();
        let mut edges_visited = 0u64;
        let mut hits = Vec::new();
        for &pos in positions {
            if graphs[pos as usize].reaches_target(user, probs, &mut scratch, &mut edges_visited) {
                hits.push(pos);
            }
        }
        (hits, edges_visited)
    }

    /// `verify` on a view compiled with `cuts`, as sorted hit positions
    /// (the user-is-target graphs included) and the probe count.
    fn view_verify(
        view: &mut UserView,
        user: NodeId,
        graphs: &[RrGraphRef],
        cuts: Option<(&EdgeTopics, CutPolicy)>,
        probs: &mut dyn EdgeProbs,
    ) -> (Vec<u32>, u64) {
        view.compile(user, graphs.iter().copied(), cuts);
        let mut hits = view.self_hits().to_vec();
        let verified = view.verify(probs, |pos| hits.push(pos));
        hits.sort_unstable();
        (hits, verified.edges_visited)
    }

    #[test]
    fn view_equals_the_reference_under_every_policy() {
        use pitex_model::genmodel::{random_model, ModelGenConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let graph = pitex_graph::gen::preferential_attachment(120, 3, 0.3, &mut rng);
        let cfg =
            ModelGenConfig { num_topics: 6, num_tags: 12, density: 0.4, ..Default::default() };
        let model = random_model(graph, &cfg, &mut rng);
        let index = RrIndex::build_with_threads(&model, IndexBudget::PerVertex(6.0), 5, 2);
        let et = model.edge_topics();
        let mut cache = model.new_prob_cache();
        let mut view = UserView::default(); // one view: every compile reuses its buffers
        let mut marks = EpochVisited::new(0);
        let mut candidates = Vec::new();
        let mut pruned_somewhere = false;
        for user in (0..model.graph().num_nodes() as u32).step_by(7) {
            let graphs: Vec<RrGraphRef> =
                index.graphs_containing(user).iter().map(|&g| index.graph(g as usize)).collect();
            let all: Vec<u32> = (0..graphs.len() as u32).collect();
            for tags in [TagSet::from([0, 5]), TagSet::from([3]), TagSet::from([1, 2, 7])] {
                let posterior = model.posterior(&tags);
                let mut probs = PosteriorEdgeProbs::new(et, &posterior, &mut cache);
                let truth = reference_verify(user, &graphs, &all, &mut probs);
                // No cuts (INDEXEST): every graph is traversed.
                assert_eq!(view_verify(&mut view, user, &graphs, None, &mut probs), truth);
                for policy in [CutPolicy::UserOut, CutPolicy::TargetIn, CutPolicy::Best] {
                    let expected = reference_candidates(user, &graphs, et, policy, &mut probs);
                    let filter =
                        CutFilter::build_with_policy(user, graphs.iter().copied(), et, policy);
                    filter.candidates(&mut probs, &mut marks, &mut candidates);
                    candidates.sort_unstable();
                    assert_eq!(candidates, expected, "user {user} {tags} {policy:?}");
                    let (hits, edges_visited) =
                        reference_verify(user, &graphs, &expected, &mut probs);
                    assert_eq!(hits, truth.0, "filtering never changes the hits");
                    pruned_somewhere |= edges_visited < truth.1;
                    let cuts = Some((et, policy));
                    assert_eq!(
                        view_verify(&mut view, user, &graphs, cuts, &mut probs),
                        (hits, edges_visited),
                        "user {user} {tags} {policy:?}"
                    );
                }
            }
        }
        assert!(pruned_somewhere, "the filter saved no probe anywhere: the test lost its teeth");
    }

    #[test]
    fn hand_made_dead_ends_agree_with_the_reference() {
        // Edges 0..=3 all live. Graph 0: the user (2) reaches 3 and 4 but
        // never the target 9 — cut 2 is empty, the traversal runs dry.
        // Graph 1: the user is a member with no out-edge. Graph 2: the user
        // is not a member. Graph 3: a plain hit. Graph 4: user is target.
        let graphs = [
            RrGraph::from_parts(
                9,
                vec![2, 3, 4, 9],
                &[(2, 3, 0, 0.1), (3, 4, 1, 0.1), (2, 4, 2, 0.1)],
            ),
            RrGraph::from_parts(5, vec![2, 5, 6], &[(6, 5, 3, 0.1)]),
            RrGraph::from_parts(5, vec![5, 6], &[(6, 5, 3, 0.1)]),
            RrGraph::from_parts(4, vec![2, 4], &[(2, 4, 2, 0.1)]),
            RrGraph::from_parts(2, vec![2, 3], &[(3, 2, 1, 0.1)]),
        ];
        let graphs: Vec<RrGraphRef> = graphs.iter().map(RrGraph::as_ref).collect();
        let all: Vec<u32> = (0..graphs.len() as u32).collect();
        let et = EdgeTopics::new(vec![vec![(0, 0.5)]; 4], 1);
        let mut view = UserView::default();
        for p in [0.0, 0.05, 0.5] {
            let mut probs = pitex_model::FixedEdgeProbs::uniform(4, p);
            let truth = reference_verify(2, &graphs, &all, &mut probs);
            assert_eq!(view_verify(&mut view, 2, &graphs, None, &mut probs), truth, "p = {p}");
            for policy in [CutPolicy::UserOut, CutPolicy::TargetIn, CutPolicy::Best] {
                let kept = reference_candidates(2, &graphs, &et, policy, &mut probs);
                let expected = reference_verify(2, &graphs, &kept, &mut probs);
                let cuts = Some((&et, policy));
                assert_eq!(view_verify(&mut view, 2, &graphs, cuts, &mut probs), expected);
                assert_eq!(expected.0, truth.0, "p = {p} {policy:?}");
            }
        }
        let mut live = pitex_model::FixedEdgeProbs::uniform(4, 0.5);
        let (hits, edges_visited) = view_verify(&mut view, 2, &graphs, None, &mut live);
        assert_eq!(hits, vec![3, 4]);
        // Graph 0: the user's two edges (3 -> 4 leads to a visited vertex).
        assert_eq!(edges_visited, 2 + 1, "graph 0 probes two edges, graph 3 its one");
    }

    #[test]
    fn an_empty_view_verifies_nothing() {
        let mut view = UserView::default();
        let mut probs = pitex_model::FixedEdgeProbs::uniform(1, 1.0);
        view.compile(0, std::iter::empty(), None);
        assert_eq!(view.verify(&mut probs, |_| panic!("no graph")), Verified::default());
        let filter = CutFilter::build(0, std::iter::empty(), &EdgeTopics::new(vec![], 1));
        assert_eq!((filter.num_graphs(), filter.heap_bytes()), (0, 8));
    }
}
