//! Compressed-sparse-row directed graph with stable, shared edge ids.

/// Dense vertex identifier (`0..n`).
pub type NodeId = u32;

/// Dense edge identifier (`0..m`), assigned in forward-CSR order: edges are
/// sorted by `(src, dst)` and the id of an edge equals its position in the
/// forward adjacency arrays. The reverse adjacency stores the *same* ids, so
/// per-edge side data (influence probabilities, random marks `c(e)`) is a
/// plain `Vec` indexed by `EdgeId` regardless of traversal direction.
pub type EdgeId = u32;

/// An immutable directed graph in CSR form with forward and reverse
/// adjacency.
///
/// Parallel edges are merged at build time (the influence model attaches a
/// single probability vector per ordered pair) and self-loops are dropped
/// (a user trivially "influences" themself — the IC process of §3.1 seeds
/// the query user as already active).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    num_nodes: u32,
    // Forward CSR: out-edges of v live at out_targets[out_offsets[v]..out_offsets[v+1]].
    // The edge id of the j-th entry is exactly j.
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    // Reverse CSR: in-edges of v live at in_sources[in_offsets[v]..in_offsets[v+1]],
    // carrying the forward edge id in in_edge_ids.
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    in_edge_ids: Vec<EdgeId>,
    // edge_sources[e] = source of edge e (targets are implicit in out_targets[e]).
    edge_sources: Vec<NodeId>,
}

impl DiGraph {
    /// Builds the graph on `num_nodes` vertices whose edges are exactly
    /// `pairs`, which must already be the canonical edge list: strictly
    /// ascending `(src, dst)` (so duplicate-free), loop-free, endpoints
    /// below `num_nodes`. One pass over the stream plus a counting sort
    /// for the reverse adjacency, O(|V| + |E|); edge ids are stream
    /// positions. This is the one place a CSR is assembled —
    /// [`GraphBuilder::build`] sorts and dedups into it, the binary
    /// decoder and `pitex_live`'s compaction feed it directly. The error
    /// names the broken rule.
    pub fn try_from_sorted_pairs(
        num_nodes: usize,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<DiGraph, &'static str> {
        if num_nodes >= u32::MAX as usize {
            return Err("node ids must fit in u32");
        }
        let n = num_nodes;
        let pairs = pairs.into_iter();
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        let mut edge_sources: Vec<NodeId> = Vec::with_capacity(pairs.size_hint().0);
        let mut out_targets: Vec<NodeId> = Vec::with_capacity(pairs.size_hint().0);
        let mut prev = None;
        for pair @ (s, t) in pairs {
            if s.max(t) as usize >= n {
                return Err("edge endpoint out of range");
            }
            if s == t {
                return Err("self-loop");
            }
            if prev.is_some_and(|prev| prev >= pair) {
                return Err("edges not strictly ascending by (src, dst)");
            }
            prev = Some(pair);
            out_offsets[s as usize + 1] += 1;
            in_offsets[t as usize + 1] += 1;
            edge_sources.push(s);
            out_targets.push(t);
        }
        let m = out_targets.len();
        assert!(m < u32::MAX as usize, "edge ids must fit in u32");
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }

        // Reverse CSR via counting sort over targets.
        let mut cursor = in_offsets[..n].to_vec();
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_edge_ids = vec![0 as EdgeId; m];
        for (e, (&s, &t)) in edge_sources.iter().zip(&out_targets).enumerate() {
            let pos = cursor[t as usize] as usize;
            cursor[t as usize] += 1;
            in_sources[pos] = s;
            in_edge_ids[pos] = e as EdgeId;
        }

        Ok(DiGraph {
            num_nodes: n as u32,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_edge_ids,
            edge_sources,
        })
    }

    /// [`Self::try_from_sorted_pairs`] for pairs the program itself put in
    /// order.
    ///
    /// # Panics
    /// With the broken rule if the stream is not a canonical edge list.
    pub fn from_sorted_pairs(
        num_nodes: usize,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> DiGraph {
        Self::try_from_sorted_pairs(num_nodes, pairs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all vertex ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes
    }

    /// Source vertex of edge `e`.
    #[inline]
    pub fn edge_source(&self, e: EdgeId) -> NodeId {
        self.edge_sources[e as usize]
    }

    /// Target vertex of edge `e`.
    #[inline]
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        self.out_targets[e as usize]
    }

    /// Endpoint pair `(src, dst)` of edge `e`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.edge_source(e), self.edge_target(e))
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.out_offsets[v + 1] - self.out_offsets[v]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.in_offsets[v + 1] - self.in_offsets[v]) as usize
    }

    /// Out-edges of `v` as `(EdgeId, target)` pairs.
    ///
    /// The edge id range is contiguous, which the lazy sampler exploits to
    /// arm geometric timers for all out-edges of a newly visited vertex.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let v = v as usize;
        let lo = self.out_offsets[v] as usize;
        let hi = self.out_offsets[v + 1] as usize;
        (lo..hi).map(move |j| (j as EdgeId, self.out_targets[j]))
    }

    /// Contiguous edge-id range of `v`'s out-edges.
    #[inline]
    pub fn out_edge_range(&self, v: NodeId) -> std::ops::Range<u32> {
        let v = v as usize;
        self.out_offsets[v]..self.out_offsets[v + 1]
    }

    /// Out-neighbor slice of `v` (targets only).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize]
    }

    /// In-edges of `v` as `(EdgeId, source)` pairs.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let v = v as usize;
        let lo = self.in_offsets[v] as usize;
        let hi = self.in_offsets[v + 1] as usize;
        (lo..hi).map(move |j| (self.in_edge_ids[j], self.in_sources[j]))
    }

    /// Looks up the id of edge `(src, dst)` by binary search over `src`'s
    /// sorted out-neighbor slice.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        let lo = self.out_offsets[src as usize] as usize;
        let hi = self.out_offsets[src as usize + 1] as usize;
        let slice = &self.out_targets[lo..hi];
        slice.binary_search(&dst).ok().map(|j| (lo + j) as EdgeId)
    }

    /// All edges as `(EdgeId, src, dst)` in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        (0..self.num_edges() as u32).map(move |e| {
            let (s, t) = self.edge_endpoints(e);
            (e, s, t)
        })
    }

    /// Vertices sorted by descending out-degree (ties by ascending id).
    ///
    /// The evaluation (§7.1) buckets query users into high (top 1%),
    /// mid (top 1–10%) and low (rest) out-degree groups from this order.
    pub fn nodes_by_out_degree_desc(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.num_nodes).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(self.out_degree(v)), v));
        order
    }

    /// Builds the transposed graph (every edge reversed). Edge ids are
    /// re-assigned; this is a debugging/testing helper, not used on hot paths.
    pub fn transpose(&self) -> DiGraph {
        let mut builder = GraphBuilder::new(self.num_nodes());
        for (_, s, t) in self.edges() {
            builder.add_edge(t, s);
        }
        builder.build()
    }

    /// Approximate heap footprint in bytes (for Table 3-style reporting).
    pub fn heap_bytes(&self) -> u64 {
        (self.out_offsets.len() * 4
            + self.out_targets.len() * 4
            + self.in_offsets.len() * 4
            + self.in_sources.len() * 4
            + self.in_edge_ids.len() * 4
            + self.edge_sources.len() * 4) as u64
    }
}

/// Incremental builder producing a [`DiGraph`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes < u32::MAX as usize, "node ids must fit in u32");
        Self { num_nodes, edges: Vec::new() }
    }

    /// Creates a builder that grows the vertex set on demand.
    pub fn new_auto() -> Self {
        Self { num_nodes: 0, edges: Vec::new() }
    }

    /// Number of vertices currently declared.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges added so far (before dedup).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Pre-allocates room for `n` more edges.
    pub fn reserve_edges(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Adds a directed edge, growing the vertex set if needed.
    /// Self-loops are silently dropped; duplicates are merged at build time.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) {
        if src == dst {
            return;
        }
        let hi = src.max(dst) as usize + 1;
        if hi > self.num_nodes {
            self.num_nodes = hi;
        }
        self.edges.push((src, dst));
    }

    /// Finalizes into a [`DiGraph`]; O(|V| + |E| log |E|).
    pub fn build(mut self) -> DiGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        DiGraph::from_sorted_pairs(self.num_nodes, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn edge_ids_are_forward_csr_positions() {
        let g = diamond();
        for (e, s, t) in g.edges() {
            assert_eq!(g.find_edge(s, t), Some(e));
            assert_eq!(g.edge_endpoints(e), (s, t));
        }
    }

    #[test]
    fn reverse_adjacency_shares_edge_ids() {
        let g = diamond();
        for v in g.nodes() {
            for (e, src) in g.in_edges(v) {
                assert_eq!(g.edge_source(e), src);
                assert_eq!(g.edge_target(e), v);
            }
        }
    }

    #[test]
    fn duplicates_and_self_loops_are_removed() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.find_edge(1, 1), None);
    }

    #[test]
    fn auto_builder_grows_vertex_set() {
        let mut b = GraphBuilder::new_auto();
        b.add_edge(5, 2);
        let g = b.build();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.out_degree(5), 1);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn transpose_reverses_all_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for (_, s, d) in g.edges() {
            assert!(t.find_edge(d, s).is_some());
        }
    }

    #[test]
    fn out_degree_ordering() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.nodes_by_out_degree_desc(), vec![1, 2, 0]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn from_sorted_pairs_equals_the_builder() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for (n, m) in [(2, 0), (2, 1), (9, 0), (12, 30), (40, 400), (200, 300)] {
            let built = crate::gen::erdos_renyi(n, m, &mut rng);
            let pairs: Vec<_> = built.edges().map(|(_, s, t)| (s, t)).collect();
            assert_eq!(DiGraph::from_sorted_pairs(n, pairs), built, "n = {n}, m = {m}");
        }
        assert_eq!(DiGraph::from_sorted_pairs(0, []), GraphBuilder::new(0).build());
    }

    #[test]
    fn from_sorted_pairs_rejects_what_is_not_a_canonical_edge_list() {
        let cases = [
            (vec![(0, 2), (0, 1)], "not strictly ascending"),
            (vec![(1, 0), (0, 2)], "not strictly ascending"),
            (vec![(0, 1), (0, 1)], "not strictly ascending"),
            (vec![(0, 1), (2, 2)], "self-loop"),
            (vec![(0, 3)], "out of range"),
            (vec![(7, 0)], "out of range"),
        ];
        for (pairs, rule) in cases {
            let error = DiGraph::try_from_sorted_pairs(3, pairs.clone()).unwrap_err();
            assert!(error.contains(rule), "{pairs:?}: {error}");
            let panic = std::panic::catch_unwind(|| DiGraph::from_sorted_pairs(3, pairs))
                .expect_err("the panicking form must refuse the same stream");
            assert_eq!(panic.downcast_ref::<String>().map(String::as_str), Some(error));
        }
    }

    #[test]
    fn isolated_vertices_have_zero_degrees() {
        let g = GraphBuilder::new(10).build();
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
        }
    }
}
