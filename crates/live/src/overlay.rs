//! The mutable overlay over an immutable [`TicModel`] snapshot.
//!
//! Queries always run against immutable CSR/TIC snapshots (that is what
//! keeps the serving hot path lock-free), so updates cannot be applied in
//! place. Instead they are validated and *staged* here: the overlay records
//! the final state of every touched edge and tag on top of the base
//! snapshot, and [`ModelOverlay::compact`] folds base + overlay into a
//! fresh [`TicModel`] — a **pure function of `(snapshot, ops)`**, so two
//! replicas that apply the same log reach bit-identical models (and, with
//! the per-draw index sampling of `pitex_index`, bit-identical indexes).
//! The staged maps are kept in the model's own order (pairs by `(src, dst)`,
//! rows by topic), which makes the fold a merge: it copies the untouched
//! runs of a touched table, validates only the staged rows, and shares every
//! component nothing was staged for with the base.

use crate::log::{TopicRow, UpdateOp};
use pitex_graph::{DiGraph, EdgeId, NodeId};
use pitex_model::{EdgeTopics, SparseRows, TagId, TagTopicMatrix, TicModel, TopicId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why an [`UpdateOp`] was rejected. Rejected ops leave the overlay
/// untouched — the staged state is always valid.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateError {
    /// An endpoint is outside the (overlaid) vertex range.
    UnknownVertex { vertex: NodeId, num_nodes: usize },
    /// Self-loops carry no influence and are rejected outright.
    SelfLoop { vertex: NodeId },
    /// `AddEdge` for a pair that already exists (base or staged).
    EdgeExists { src: NodeId, dst: NodeId },
    /// `RemoveEdge`/`SetEdgeTopics` for a pair that does not exist.
    NoSuchEdge { src: NodeId, dst: NodeId },
    /// A tag id beyond the overlaid vocabulary (`AttachTag` may extend it
    /// by exactly one: `tag == |Ω|`).
    UnknownTag { tag: TagId, num_tags: usize },
    /// A topic id outside `0..|Z|` (the topic space is fixed per model).
    BadTopic { topic: TopicId, num_topics: usize },
    /// A probability outside `(0, 1]`.
    BadProb { prob: f32 },
    /// A topic row repeats a topic id.
    DuplicateTopic { topic: TopicId },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            UpdateError::UnknownVertex { vertex, num_nodes } => {
                write!(f, "vertex {vertex} out of range (|V| = {num_nodes})")
            }
            UpdateError::SelfLoop { vertex } => write!(f, "self-loop on vertex {vertex}"),
            UpdateError::EdgeExists { src, dst } => write!(f, "edge ({src}, {dst}) already exists"),
            UpdateError::NoSuchEdge { src, dst } => write!(f, "no edge ({src}, {dst})"),
            UpdateError::UnknownTag { tag, num_tags } => {
                write!(f, "tag {tag} out of range (|Omega| = {num_tags}; attach at id {num_tags} to grow)")
            }
            UpdateError::BadTopic { topic, num_topics } => {
                write!(f, "topic {topic} out of range (|Z| = {num_topics})")
            }
            UpdateError::BadProb { prob } => write!(f, "probability {prob} outside (0, 1]"),
            UpdateError::DuplicateTopic { topic } => write!(f, "topic {topic} repeated in row"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Staged mutations over a base snapshot. See the module docs.
#[derive(Clone, Debug)]
pub struct ModelOverlay {
    base: Arc<TicModel>,
    /// Every successfully applied op, in order (the log).
    ops: Vec<UpdateOp>,
    /// Final staged state per touched edge pair: `Some(row)` = present
    /// with that `p(e|z)` row, `None` = removed.
    edges: BTreeMap<(NodeId, NodeId), Option<TopicRow>>,
    /// Final staged `p(w|z)` row per touched tag.
    tags: BTreeMap<TagId, TopicRow>,
    /// Vertices appended beyond the base graph.
    added_users: u32,
    /// Tags appended beyond the base vocabulary.
    added_tags: u32,
}

impl ModelOverlay {
    /// An empty overlay over `base`.
    pub fn new(base: Arc<TicModel>) -> Self {
        Self {
            base,
            ops: Vec::new(),
            edges: BTreeMap::new(),
            tags: BTreeMap::new(),
            added_users: 0,
            added_tags: 0,
        }
    }

    /// The immutable snapshot underneath.
    pub fn base(&self) -> &Arc<TicModel> {
        &self.base
    }

    /// Number of staged ops.
    pub fn pending(&self) -> usize {
        self.ops.len()
    }

    /// The staged ops, in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// `|V|` including staged additions.
    pub fn num_nodes(&self) -> usize {
        self.base.graph().num_nodes() + self.added_users as usize
    }

    /// `|Ω|` including staged additions.
    pub fn num_tags(&self) -> usize {
        self.base.num_tags() + self.added_tags as usize
    }

    /// Whether the staged ops change the vertex count (which forces a full
    /// index rebuild: the target distribution of every draw changes).
    pub fn grows_vertices(&self) -> bool {
        self.added_users > 0
    }

    /// Whether any staged op touches the tag–topic matrix (which changes
    /// the posterior of *every* tag set, i.e. every user's answer).
    pub fn touches_tags(&self) -> bool {
        self.added_tags > 0 || !self.tags.is_empty()
    }

    /// Does the pair currently (base + staged) exist?
    fn edge_present(&self, src: NodeId, dst: NodeId) -> bool {
        match self.edges.get(&(src, dst)) {
            Some(state) => state.is_some(),
            // Staged vertices have no base edges (and are out of range for
            // the base CSR).
            None => {
                (src as usize) < self.base.graph().num_nodes()
                    && self.base.graph().find_edge(src, dst).is_some()
            }
        }
    }

    fn check_vertex(&self, v: NodeId) -> Result<(), UpdateError> {
        if (v as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(UpdateError::UnknownVertex { vertex: v, num_nodes: self.num_nodes() })
        }
    }

    /// Validates a topic row and returns it as it is staged: in the
    /// ascending topic order the row arenas store.
    fn check_row(&self, topics: &TopicRow) -> Result<TopicRow, UpdateError> {
        let num_topics = self.base.num_topics();
        let mut seen: Vec<TopicId> = Vec::with_capacity(topics.len());
        for &(z, p) in topics {
            if (z as usize) >= num_topics {
                return Err(UpdateError::BadTopic { topic: z, num_topics });
            }
            if !(p > 0.0 && p <= 1.0) {
                return Err(UpdateError::BadProb { prob: p });
            }
            if seen.contains(&z) {
                return Err(UpdateError::DuplicateTopic { topic: z });
            }
            seen.push(z);
        }
        let mut row = topics.clone();
        row.sort_unstable_by_key(|&(z, _)| z);
        Ok(row)
    }

    /// Validates and stages one op. On `Err` the overlay is unchanged.
    pub fn apply(&mut self, op: UpdateOp) -> Result<(), UpdateError> {
        match &op {
            UpdateOp::AddEdge { src, dst, topics } => {
                self.check_vertex(*src)?;
                self.check_vertex(*dst)?;
                if src == dst {
                    return Err(UpdateError::SelfLoop { vertex: *src });
                }
                let row = self.check_row(topics)?;
                if self.edge_present(*src, *dst) {
                    return Err(UpdateError::EdgeExists { src: *src, dst: *dst });
                }
                self.edges.insert((*src, *dst), Some(row));
            }
            UpdateOp::RemoveEdge { src, dst } => {
                self.check_vertex(*src)?;
                self.check_vertex(*dst)?;
                if !self.edge_present(*src, *dst) {
                    return Err(UpdateError::NoSuchEdge { src: *src, dst: *dst });
                }
                self.edges.insert((*src, *dst), None);
            }
            UpdateOp::SetEdgeTopics { src, dst, topics } => {
                self.check_vertex(*src)?;
                self.check_vertex(*dst)?;
                let row = self.check_row(topics)?;
                if !self.edge_present(*src, *dst) {
                    return Err(UpdateError::NoSuchEdge { src: *src, dst: *dst });
                }
                self.edges.insert((*src, *dst), Some(row));
            }
            UpdateOp::AttachTag { tag, topics } => {
                let row = self.check_row(topics)?;
                let num_tags = self.num_tags();
                if (*tag as usize) > num_tags {
                    return Err(UpdateError::UnknownTag { tag: *tag, num_tags });
                }
                if (*tag as usize) == num_tags {
                    self.added_tags += 1;
                }
                self.tags.insert(*tag, row);
            }
            UpdateOp::DetachTag { tag } => {
                let num_tags = self.num_tags();
                if (*tag as usize) >= num_tags {
                    return Err(UpdateError::UnknownTag { tag: *tag, num_tags });
                }
                self.tags.insert(*tag, Vec::new());
            }
            UpdateOp::AddUser => {
                self.added_users += 1;
            }
        }
        self.ops.push(op);
        Ok(())
    }

    /// Stages a batch; stops at the first invalid op, reporting its
    /// position. Ops before the failure stay staged.
    pub fn apply_all(
        &mut self,
        ops: impl IntoIterator<Item = UpdateOp>,
    ) -> Result<usize, (usize, UpdateError)> {
        let mut applied = 0;
        for (i, op) in ops.into_iter().enumerate() {
            self.apply(op).map_err(|e| (i, e))?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Folds base + staged state into a fresh model. Deterministic: the
    /// result depends only on the base snapshot and the applied ops (edge
    /// ids are re-assigned in the CSR's canonical `(src, dst)` order, the
    /// same order a from-scratch build would use).
    ///
    /// The cost is what was staged, not what the model holds. A component
    /// nothing was staged for **is** the base's (`Arc::clone`): the graph
    /// unless the edge set or the vertex count changed, the tag matrix
    /// unless a tag op was staged, the edge topics unless an edge op was.
    /// A touched table is one merge — the staged map is already in the
    /// table's row order, so the untouched runs between staged rows are
    /// slice copies ([`SparseRows::copy_rows`]) and only the staged rows
    /// are validated anew.
    pub fn compact(&self) -> TicModel {
        let (graph, tag_topic, edge_topics) = self.base.shared();
        let (nodes, edges) = (graph.num_nodes(), graph.num_edges());

        // Each staged pair with its place in the base's edge order: its own
        // id, or the id it would be inserted at.
        let staged: Vec<((NodeId, NodeId), Staged)> = self
            .edges
            .iter()
            .map(|(&(src, dst), state)| {
                // A staged vertex sorts behind every base edge.
                let (at, replaces) = if (src as usize) < nodes {
                    let first = graph.out_edge_range(src).start as usize;
                    match graph.out_neighbors(src).binary_search(&dst) {
                        Ok(i) => (first + i, true),
                        Err(i) => (first + i, false),
                    }
                } else {
                    (edges, false)
                };
                ((src, dst), Staged { at, replaces, row: state.as_ref() })
            })
            .collect();

        let edge_set_changed = staged.iter().any(|(_, s)| s.replaces != s.row.is_some());
        let new_graph = if edge_set_changed || self.added_users > 0 {
            let mut next = 0;
            let end = ((0, 0), Staged { at: edges, replaces: false, row: None });
            let pairs = staged.iter().chain([&end]).flat_map(|&(pair, s)| {
                let untouched = next..s.at;
                next = s.at + usize::from(s.replaces);
                untouched.map(|e| graph.edge_endpoints(e as EdgeId)).chain(s.row.map(|_| pair))
            });
            Arc::new(DiGraph::from_sorted_pairs(self.num_nodes(), pairs))
        } else {
            Arc::clone(graph)
        };

        let new_edge_topics = if staged.is_empty() {
            Arc::clone(edge_topics)
        } else {
            let merged = merge_rows(edge_topics, staged.iter().map(|&(_, s)| s));
            Arc::new(EdgeTopics::from_rows(merged))
        };

        let new_tag_topic = if self.touches_tags() {
            // Appended tags (ids from the base's `|Ω|` up) are all staged.
            let tags = tag_topic.num_tags();
            let staged = self.tags.iter().map(|(&w, row)| {
                let w = w as usize;
                Staged { at: w.min(tags), replaces: w < tags, row: Some(row) }
            });
            let merged = merge_rows(tag_topic, staged);
            Arc::new(TagTopicMatrix::from_rows(merged, tag_topic.prior().to_vec()))
        } else {
            Arc::clone(tag_topic)
        };

        TicModel::from_shared(new_graph, new_tag_topic, new_edge_topics)
    }

    /// The set of users whose *true* answer can change under the staged
    /// ops, or `None` when that is every user (any tag mutation shifts the
    /// posterior of every tag set).
    ///
    /// A user `u`'s spread depends only on edges reachable from `u`, so an
    /// edge mutation `(x, y)` affects exactly the users that can reach `x`
    /// — computed by reverse BFS from `x` over the in-edges of the base
    /// *and* the compacted graph (an added edge creates reachability that
    /// only exists in the new graph; a removed one only in the old). When
    /// nothing structural was staged the two are one shared graph
    /// ([`Self::compact`]) and it is traversed once.
    /// `AddUser` affects nobody: the new vertex is isolated.
    pub fn affected_users(&self, new_model: &TicModel) -> Option<Vec<NodeId>> {
        if self.touches_tags() {
            return None;
        }
        // One multi-source reverse BFS per graph, seeded with every
        // mutation source at once (reachability to *any* source is what
        // matters, so the sources need no individual traversals).
        let mut affected: Vec<bool> = vec![false; self.num_nodes()];
        let mut queue: Vec<NodeId> = Vec::new();
        let mut seen: Vec<bool> = Vec::new();
        let (old, new) = (self.base.graph(), new_model.graph());
        for graph in [Some(old), (!std::ptr::eq(old, new)).then_some(new)].into_iter().flatten() {
            seen.clear();
            seen.resize(graph.num_nodes(), false);
            queue.clear();
            for &(src, _) in self.edges.keys() {
                // A staged vertex does not exist in the base graph.
                if (src as usize) < graph.num_nodes() && !seen[src as usize] {
                    seen[src as usize] = true;
                    queue.push(src);
                }
            }
            while let Some(v) = queue.pop() {
                affected[v as usize] = true;
                for (_, u) in graph.in_edges(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        queue.push(u);
                    }
                }
            }
        }
        Some((0..self.num_nodes() as NodeId).filter(|&v| affected[v as usize]).collect())
    }
}

/// A staged row and its place in a base table: in front of base row `at`,
/// or instead of it when `replaces`. `row: None` puts nothing there (a
/// removed edge).
#[derive(Clone, Copy)]
struct Staged<'a> {
    at: usize,
    replaces: bool,
    row: Option<&'a TopicRow>,
}

/// `base` with the `staged` rows, ascending in `at`, merged in.
fn merge_rows<'a>(
    base: &SparseRows,
    staged: impl Iterator<Item = Staged<'a>> + Clone,
) -> SparseRows {
    let (rows, entries) = staged
        .clone()
        .filter_map(|s| s.row)
        .fold((0, 0), |(rows, entries), row| (rows + 1, entries + row.len()));
    let mut merged =
        SparseRows::with_capacity(base.num_topics(), base.num_rows() + rows, base.nnz() + entries);
    let mut next = 0;
    for s in staged {
        merged.copy_rows(base, next..s.at);
        if let Some(row) = s.row {
            merged.push_row(row).expect("apply validated and sorted the row");
        }
        next = s.at + usize::from(s.replaces);
    }
    merged.copy_rows(base, next..base.num_rows());
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitex_graph::GraphBuilder;
    use pitex_model::genmodel::{random_model, ModelGenConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay() -> ModelOverlay {
        ModelOverlay::new(Arc::new(TicModel::paper_example()))
    }

    /// The fold [`ModelOverlay::compact`] used to be, kept as the reference
    /// it is tested against: every edge's row cloned into a map keyed by
    /// pair, the edge list re-sorted through [`GraphBuilder`], all three
    /// components rebuilt by the validating constructors.
    fn reference_compact(o: &ModelOverlay) -> TicModel {
        let base_graph = o.base.graph();
        let base_et = o.base.edge_topics();

        let mut rows: BTreeMap<(NodeId, NodeId), TopicRow> = BTreeMap::new();
        for (e, s, t) in base_graph.edges() {
            match o.edges.get(&(s, t)) {
                Some(None) => {}
                Some(Some(row)) => {
                    rows.insert((s, t), row.clone());
                }
                None => {
                    rows.insert((s, t), base_et.row(e).collect());
                }
            }
        }
        for (&(s, t), state) in &o.edges {
            if let Some(row) = state {
                rows.insert((s, t), row.clone());
            }
        }

        let mut builder = GraphBuilder::new(o.num_nodes());
        for &(s, t) in rows.keys() {
            builder.add_edge(s, t);
        }
        let graph = builder.build();
        let edge_rows: Vec<TopicRow> =
            (0..graph.num_edges() as u32).map(|e| rows[&graph.edge_endpoints(e)].clone()).collect();
        let edge_topics = EdgeTopics::new(edge_rows, o.base.num_topics());

        let tt = o.base.tag_topic();
        let tag_rows: Vec<TopicRow> = (0..o.num_tags() as TagId)
            .map(|w| match o.tags.get(&w) {
                Some(row) => row.clone(),
                None => tt.row(w).collect(),
            })
            .collect();
        let tag_topic = TagTopicMatrix::new(tag_rows, tt.prior().to_vec());

        TicModel::new(graph, tag_topic, edge_topics)
    }

    /// Which of (graph, tag matrix, edge topics) `model` shares with `base`.
    fn shared_with(base: &TicModel, model: &TicModel) -> (bool, bool, bool) {
        let ((g0, t0, e0), (g1, t1, e1)) = (base.shared(), model.shared());
        (Arc::ptr_eq(g0, g1), Arc::ptr_eq(t0, t1), Arc::ptr_eq(e0, e1))
    }

    const TOPICS: usize = 4;

    /// 0–3 entries over distinct topics in whatever order the seed gives.
    fn decode_row(seed: u16) -> TopicRow {
        let mut row = TopicRow::new();
        for i in 0..(seed % 4) {
            let z = (seed >> (2 + 2 * i)) % TOPICS as u16;
            if row.iter().all(|&(seen, _)| seen != z) {
                row.push((z, ((seed.rotate_left(3 * i as u32) % 1000) + 1) as f32 / 1000.0));
            }
        }
        row
    }

    /// Decodes a tuple into an op over a base of `nodes` users and `tags`
    /// tags. Endpoints range a little past `nodes` (staged users); half of
    /// the edge ops aim at a base edge, so removals, retunes and re-adds of
    /// removed edges land.
    fn decode_op(base: &TicModel, (kind, a, b, seed): (u8, u8, u8, u16)) -> UpdateOp {
        let (nodes, edges) = (base.graph().num_nodes() as u32, base.graph().num_edges() as u32);
        let topics = decode_row(seed);
        let (src, dst) = if kind >= 6 && edges > 0 {
            base.graph().edge_endpoints((a as u32 * 256 + b as u32) % edges)
        } else {
            (a as u32 % (nodes + 3), b as u32 % (nodes + 3))
        };
        let tag = a as u32 % (base.num_tags() as u32 + 3);
        match kind {
            0 | 6 => UpdateOp::AddEdge { src, dst, topics },
            1 | 7 => UpdateOp::RemoveEdge { src, dst },
            2 | 8 => UpdateOp::SetEdgeTopics { src, dst, topics },
            3 => UpdateOp::AttachTag { tag, topics },
            4 => UpdateOp::DetachTag { tag },
            _ => UpdateOp::AddUser,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After every op of a random chain — adds, removals, retunes (empty
        /// and unsorted rows too), remove-then-re-add, edges on staged
        /// users, tag attach/detach/append, new users — on a random model,
        /// `compact` equals the reference fold component by component and
        /// byte for byte, and shares exactly the components nothing was
        /// staged for.
        #[test]
        fn compact_equals_the_reference_fold(
            model_seed in 0u64..u64::MAX,
            nodes in 2usize..14,
            density in 0.0f64..0.5,
            raw in proptest::collection::vec((0u8..9, 0u8..=255, 0u8..=255, 0u16..=u16::MAX), 1..40),
        ) {
            let mut rng = StdRng::seed_from_u64(model_seed);
            let graph = pitex_graph::gen::erdos_renyi(
                nodes,
                (density * (nodes * (nodes - 1)) as f64) as usize,
                &mut rng,
            );
            let config = ModelGenConfig { num_topics: TOPICS, num_tags: 5, ..Default::default() };
            let base = Arc::new(random_model(graph, &config, &mut rng));
            let mut o = ModelOverlay::new(Arc::clone(&base));
            for tuple in raw {
                if o.apply(decode_op(&base, tuple)).is_err() {
                    continue;
                }
                let (new, want) = (o.compact(), reference_compact(&o));
                prop_assert_eq!(new.graph(), want.graph(), "{:?}", o.ops());
                prop_assert_eq!(new.edge_topics(), want.edge_topics(), "{:?}", o.ops());
                prop_assert_eq!(new.tag_topic(), want.tag_topic(), "{:?}", o.ops());
                prop_assert_eq!(
                    pitex_model::serial::to_bytes(&new),
                    pitex_model::serial::to_bytes(&want)
                );
                let same_graph = want.graph() == base.graph();
                prop_assert_eq!(
                    shared_with(&base, &new),
                    (same_graph, !o.touches_tags(), o.edges.is_empty()),
                    "{:?}",
                    o.ops()
                );
            }
        }
    }

    /// Sharing is a contract, not an accident: per op kind, exactly the
    /// components nothing was staged for are the base's own.
    #[test]
    fn compact_shares_the_components_nothing_was_staged_for() {
        let row = || vec![(2, 0.7), (0, 0.3)];
        let cases = [
            ("empty overlay", vec![], (true, true, true)),
            (
                "retune",
                vec![UpdateOp::SetEdgeTopics { src: 0, dst: 1, topics: row() }],
                (true, true, false),
            ),
            (
                "remove, then re-add",
                vec![
                    UpdateOp::RemoveEdge { src: 0, dst: 1 },
                    UpdateOp::AddEdge { src: 0, dst: 1, topics: row() },
                ],
                (true, true, false),
            ),
            (
                "tag ops",
                vec![
                    UpdateOp::AttachTag { tag: 1, topics: row() },
                    UpdateOp::AttachTag { tag: 4, topics: vec![] },
                    UpdateOp::DetachTag { tag: 0 },
                ],
                (true, false, true),
            ),
            (
                "add edge",
                vec![UpdateOp::AddEdge { src: 1, dst: 4, topics: row() }],
                (false, true, false),
            ),
            ("remove edge", vec![UpdateOp::RemoveEdge { src: 5, dst: 6 }], (false, true, false)),
            ("add user", vec![UpdateOp::AddUser], (false, true, true)),
        ];
        for (what, ops, want) in cases {
            let mut o = overlay();
            o.apply_all(ops).unwrap();
            assert_eq!(shared_with(o.base(), &o.compact()), want, "{what}");
        }
    }

    #[test]
    fn empty_overlay_compacts_to_the_base() {
        let o = overlay();
        let compacted = o.compact();
        assert_eq!(compacted.graph(), o.base().graph());
        assert_eq!(compacted.edge_topics(), o.base().edge_topics());
        assert_eq!(compacted.tag_topic(), o.base().tag_topic());
    }

    #[test]
    fn add_remove_set_edge_round_trip() {
        let mut o = overlay();
        // u2 (id 1) has no out-edges in Fig. 2; give it one, retune it,
        // and drop an original edge.
        o.apply(UpdateOp::AddEdge { src: 1, dst: 4, topics: vec![(0, 0.3)] }).unwrap();
        o.apply(UpdateOp::SetEdgeTopics { src: 1, dst: 4, topics: vec![(2, 0.7)] }).unwrap();
        o.apply(UpdateOp::RemoveEdge { src: 5, dst: 6 }).unwrap();
        let m = o.compact();
        assert_eq!(m.graph().num_edges(), 7); // 7 - 1 + 1
        let e = m.graph().find_edge(1, 4).unwrap();
        assert_eq!(m.edge_topics().row(e).collect::<Vec<_>>(), vec![(2, 0.7)]);
        assert_eq!(m.graph().find_edge(5, 6), None);
        assert_eq!(o.pending(), 3);
    }

    #[test]
    fn edge_validation_catches_everything() {
        let mut o = overlay();
        let add = |s, d| UpdateOp::AddEdge { src: s, dst: d, topics: vec![(0, 0.5)] };
        assert_eq!(
            o.apply(add(0, 99)),
            Err(UpdateError::UnknownVertex { vertex: 99, num_nodes: 7 })
        );
        assert_eq!(o.apply(add(3, 3)), Err(UpdateError::SelfLoop { vertex: 3 }));
        assert_eq!(o.apply(add(0, 1)), Err(UpdateError::EdgeExists { src: 0, dst: 1 }));
        assert_eq!(
            o.apply(UpdateOp::RemoveEdge { src: 1, dst: 0 }),
            Err(UpdateError::NoSuchEdge { src: 1, dst: 0 })
        );
        assert_eq!(
            o.apply(UpdateOp::AddEdge { src: 1, dst: 0, topics: vec![(9, 0.5)] }),
            Err(UpdateError::BadTopic { topic: 9, num_topics: 3 })
        );
        assert_eq!(
            o.apply(UpdateOp::AddEdge { src: 1, dst: 0, topics: vec![(0, 1.5)] }),
            Err(UpdateError::BadProb { prob: 1.5 })
        );
        assert_eq!(
            o.apply(UpdateOp::AddEdge { src: 1, dst: 0, topics: vec![(0, 0.2), (0, 0.3)] }),
            Err(UpdateError::DuplicateTopic { topic: 0 })
        );
        assert_eq!(o.pending(), 0, "rejected ops are not staged");
        // Removing a staged edge and re-adding it works.
        o.apply(UpdateOp::RemoveEdge { src: 0, dst: 1 }).unwrap();
        assert_eq!(
            o.apply(UpdateOp::SetEdgeTopics { src: 0, dst: 1, topics: vec![(0, 0.9)] }),
            Err(UpdateError::NoSuchEdge { src: 0, dst: 1 })
        );
        o.apply(add(0, 1)).unwrap();
        let m = o.compact();
        let e = m.graph().find_edge(0, 1).unwrap();
        assert_eq!(m.edge_topics().row(e).collect::<Vec<_>>(), vec![(0, 0.5)]);
    }

    #[test]
    fn tag_attach_detach_and_growth() {
        let mut o = overlay();
        assert_eq!(
            o.apply(UpdateOp::AttachTag { tag: 6, topics: vec![] }),
            Err(UpdateError::UnknownTag { tag: 6, num_tags: 4 })
        );
        o.apply(UpdateOp::AttachTag { tag: 4, topics: vec![(0, 0.5), (2, 0.5)] }).unwrap();
        assert_eq!(o.num_tags(), 5);
        o.apply(UpdateOp::DetachTag { tag: 2 }).unwrap();
        let m = o.compact();
        assert_eq!(m.num_tags(), 5);
        assert_eq!(m.tag_topic().row_len(2), 0, "detached row is empty");
        assert_eq!(m.tag_topic().row(4).collect::<Vec<_>>(), vec![(0, 0.5), (2, 0.5)]);
        assert!(o.touches_tags());
        // A detached tag makes sets containing it infeasible.
        assert!(m.posterior(&pitex_model::TagSet::from([2])).is_empty());
    }

    #[test]
    fn add_user_appends_isolated_vertices() {
        let mut o = overlay();
        o.apply(UpdateOp::AddUser).unwrap();
        o.apply(UpdateOp::AddUser).unwrap();
        assert!(o.grows_vertices());
        o.apply(UpdateOp::AddEdge { src: 7, dst: 8, topics: vec![(1, 0.4)] }).unwrap();
        let m = o.compact();
        assert_eq!(m.graph().num_nodes(), 9);
        assert!(m.graph().find_edge(7, 8).is_some());
    }

    #[test]
    fn affected_users_is_reachability_to_the_edge_source() {
        let mut o = overlay();
        // Mutate (5, 6): u6 (id 5) is reached by u1, u3, u4 (0, 2, 3).
        o.apply(UpdateOp::SetEdgeTopics { src: 5, dst: 6, topics: vec![(2, 0.9)] }).unwrap();
        let m = o.compact();
        assert_eq!(o.affected_users(&m), Some(vec![0, 2, 3, 5]));
    }

    #[test]
    fn affected_users_sees_added_reachability() {
        let mut o = overlay();
        // New edge (1, 3): u2 gains reachability to u4's subtree, and u1
        // reaches u2. The mutation site is src = 1.
        o.apply(UpdateOp::AddEdge { src: 1, dst: 3, topics: vec![(0, 0.8)] }).unwrap();
        let m = o.compact();
        assert_eq!(o.affected_users(&m), Some(vec![0, 1]));
    }

    #[test]
    fn tag_ops_affect_everyone() {
        let mut o = overlay();
        o.apply(UpdateOp::DetachTag { tag: 0 }).unwrap();
        let m = o.compact();
        assert_eq!(o.affected_users(&m), None);
    }

    #[test]
    fn add_user_affects_nobody() {
        let mut o = overlay();
        o.apply(UpdateOp::AddUser).unwrap();
        let m = o.compact();
        assert_eq!(o.affected_users(&m), Some(vec![]));
    }

    #[test]
    fn apply_all_reports_the_failing_position() {
        let mut o = overlay();
        let err = o
            .apply_all([
                UpdateOp::AddUser,
                UpdateOp::RemoveEdge { src: 1, dst: 0 },
                UpdateOp::AddUser,
            ])
            .unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(o.pending(), 1, "ops before the failure stay staged");
    }

    #[test]
    fn compaction_is_a_pure_function_of_snapshot_and_ops() {
        let ops = [
            UpdateOp::AddEdge { src: 1, dst: 4, topics: vec![(0, 0.3), (1, 0.2)] },
            UpdateOp::RemoveEdge { src: 0, dst: 1 },
            UpdateOp::DetachTag { tag: 1 },
            UpdateOp::AddUser,
        ];
        let build = || {
            let mut o = overlay();
            o.apply_all(ops.iter().cloned()).unwrap();
            o.compact()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.edge_topics(), b.edge_topics());
        assert_eq!(a.tag_topic(), b.tag_topic());
    }
}
