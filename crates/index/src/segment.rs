//! The index's storage: RR-Graphs in shared fixed-size [`Segment`]s and the
//! `user → graph ids` membership table in shared user-range
//! [`MemberChunk`]s. Both are immutable once built and held behind `Arc`s,
//! so a repaired index shares every segment and chunk it did not have to
//! rewrite with the index it was repaired from.

use crate::rrgraph::{position, RrGraphRef};
use pitex_graph::{EdgeId, NodeId};
use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;

/// Draws per segment: segment `s` owns draws `[S·s, S·(s + 1))`.
pub const SEGMENT_DRAWS: usize = 512;
/// Users per membership chunk: chunk `k` owns users `[C·k, C·(k + 1))`.
pub const MEMBER_CHUNK_USERS: usize = 256;

/// Up to [`SEGMENT_DRAWS`] consecutive RR-Graphs as flat arenas. Every
/// buffer is a boxed slice, so capacity = length and
/// [`Segment::heap_bytes`] is exact.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Graph `g`'s members are `nodes[node_start[g]..node_start[g + 1]]`,
    /// the target first and the rest ascending.
    pub(crate) node_start: Box<[u32]>,
    pub(crate) nodes: Box<[NodeId]>,
    /// One forward CSR over the whole node arena (`nodes.len() + 1`
    /// entries): the edges of arena node `i` are `offsets[i]..offsets[i + 1]`
    /// of the edge arenas, so a graph's edges are contiguous too.
    pub(crate) offsets: Box<[u32]>,
    /// Edge arenas: destination (local id within its graph), global edge
    /// id and the mark `c(e)`.
    pub(crate) dst_local: Box<[u32]>,
    pub(crate) edge_id: Box<[EdgeId]>,
    pub(crate) c: Box<[f32]>,
}

impl Segment {
    /// Number of graphs held.
    pub fn num_graphs(&self) -> usize {
        self.node_start.len() - 1
    }

    /// The `g`-th graph of the segment.
    #[inline]
    pub fn graph(&self, g: usize) -> RrGraphRef<'_> {
        let nodes = self.node_start[g] as usize..self.node_start[g + 1] as usize;
        let offsets = &self.offsets[nodes.start..=nodes.end];
        let edges = offsets[0] as usize..offsets[nodes.len()] as usize;
        RrGraphRef {
            nodes: &self.nodes[nodes],
            offsets,
            dst_local: &self.dst_local[edges.clone()],
            edge_id: &self.edge_id[edges.clone()],
            c: &self.c[edges],
        }
    }

    /// Exact heap footprint: the struct plus every arena entry (all 4 bytes).
    pub fn heap_bytes(&self) -> u64 {
        let entries = self.node_start.len() + self.nodes.len() + self.offsets.len();
        (size_of::<Self>() + 4 * (entries + 3 * self.c.len())) as u64
    }
}

/// Growable arenas a worker appends graphs to. [`SegmentBuilder::seal`]
/// copies them out at their exact size and keeps the buffers for the
/// worker's next segment, so building allocates per segment, not per graph.
#[derive(Debug)]
pub(crate) struct SegmentBuilder {
    node_start: Vec<u32>,
    nodes: Vec<NodeId>,
    offsets: Vec<u32>,
    dst_local: Vec<u32>,
    edge_id: Vec<EdgeId>,
    c: Vec<f32>,
    /// Source local id per edge / write cursor per node of the graph
    /// being pushed.
    src_local: Vec<u32>,
    cursor: Vec<u32>,
}

impl Default for SegmentBuilder {
    fn default() -> Self {
        Self {
            node_start: vec![0],
            nodes: Vec::new(),
            offsets: vec![0],
            dst_local: Vec::new(),
            edge_id: Vec::new(),
            c: Vec::new(),
            src_local: Vec::new(),
            cursor: Vec::new(),
        }
    }
}

impl SegmentBuilder {
    /// Appends the graph of `target` over `members` (distinct, containing
    /// the target, any order — reordered in place) and `edges` as
    /// `(src, dst, edge id, mark)` between members. A vertex's edges keep
    /// the order they are listed in.
    pub(crate) fn push_graph(
        &mut self,
        target: NodeId,
        members: &mut [NodeId],
        edges: &[(NodeId, NodeId, EdgeId, f32)],
    ) {
        let at = members.iter().position(|&v| v == target).expect("the target is a member");
        members.swap(0, at);
        members[1..].sort_unstable();
        let local = |v| position(members, v).expect("edge endpoint must be a member node");
        let (first_node, first_edge) = (self.nodes.len(), self.c.len());
        let (end_node, end_edge) = (first_node + members.len(), first_edge + edges.len());
        assert!(end_node.max(end_edge) < u32::MAX as usize, "a segment's arenas are u32-indexed");

        // Counting sort of the edges by source: counts, shifted by one, are
        // prefix-summed into the absolute start of every node's edges.
        self.nodes.extend_from_slice(members);
        self.node_start.push(end_node as u32);
        self.offsets.resize(end_node + 1, 0);
        self.src_local.clear();
        for &(s, ..) in edges {
            let s = local(s);
            self.src_local.push(s);
            self.offsets[first_node + s as usize + 1] += 1;
        }
        for i in first_node..end_node {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[first_node..end_node]);
        self.dst_local.resize(end_edge, 0);
        self.edge_id.resize(end_edge, 0);
        self.c.resize(end_edge, 0.0);
        for (&(_, t, e, c), &s) in edges.iter().zip(&self.src_local) {
            let at = self.cursor[s as usize] as usize;
            self.cursor[s as usize] += 1;
            self.dst_local[at] = local(t);
            self.edge_id[at] = e;
            self.c[at] = c;
        }
    }

    /// Appends `graphs` of `from` as slice copies. With `edge_ids` (old →
    /// new global edge id) the edge-id arena is passed through the map.
    pub(crate) fn copy_graphs(
        &mut self,
        from: &Segment,
        graphs: Range<usize>,
        edge_ids: Option<&[EdgeId]>,
    ) {
        let nodes = from.node_start[graphs.start] as usize..from.node_start[graphs.end] as usize;
        let edges = from.offsets[nodes.start] as usize..from.offsets[nodes.end] as usize;
        let (end_node, end_edge) = (self.nodes.len() + nodes.len(), self.c.len() + edges.len());
        assert!(end_node.max(end_edge) < u32::MAX as usize, "a segment's arenas are u32-indexed");
        // Wrapping: the shift is "negative" when graphs move towards the
        // front of their segment.
        let node_shift = (self.nodes.len() as u32).wrapping_sub(nodes.start as u32);
        let edge_shift = (self.c.len() as u32).wrapping_sub(edges.start as u32);
        let starts = &from.node_start[graphs.start + 1..=graphs.end];
        self.node_start.extend(starts.iter().map(|&v| v.wrapping_add(node_shift)));
        self.nodes.extend_from_slice(&from.nodes[nodes.clone()]);
        let offsets = &from.offsets[nodes.start + 1..=nodes.end];
        self.offsets.extend(offsets.iter().map(|&v| v.wrapping_add(edge_shift)));
        self.dst_local.extend_from_slice(&from.dst_local[edges.clone()]);
        self.c.extend_from_slice(&from.c[edges.clone()]);
        match edge_ids {
            None => self.edge_id.extend_from_slice(&from.edge_id[edges]),
            Some(map) => self.edge_id.extend(from.edge_id[edges].iter().map(|&e| map[e as usize])),
        }
    }

    /// The segment of everything pushed since the last seal.
    pub(crate) fn seal(&mut self) -> Segment {
        let segment = Segment {
            node_start: self.node_start.as_slice().into(),
            nodes: self.nodes.as_slice().into(),
            offsets: self.offsets.as_slice().into(),
            dst_local: self.dst_local.as_slice().into(),
            edge_id: self.edge_id.as_slice().into(),
            c: self.c.as_slice().into(),
        };
        self.node_start.truncate(1);
        self.offsets.truncate(1);
        self.nodes.clear();
        self.dst_local.clear();
        self.edge_id.clear();
        self.c.clear();
        segment
    }
}

/// The membership lists of up to [`MEMBER_CHUNK_USERS`] consecutive users.
#[derive(Clone, Debug)]
pub struct MemberChunk {
    /// The `i`-th user's graph ids are `ids[offsets[i]..offsets[i + 1]]`,
    /// ascending.
    pub(crate) offsets: Box<[u32]>,
    pub(crate) ids: Box<[u32]>,
}

impl MemberChunk {
    #[inline]
    pub(crate) fn list(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Exact heap footprint: the struct plus every 4-byte table entry.
    pub fn heap_bytes(&self) -> u64 {
        (size_of::<Self>() + 4 * (self.offsets.len() + self.ids.len())) as u64
    }
}

/// The membership table of `segments` by counting sort over users, written
/// straight into the chunks.
pub(crate) fn build_membership(
    num_nodes: usize,
    segments: &[Arc<Segment>],
) -> Vec<Arc<MemberChunk>> {
    // Per user: first its count, then its write position in its chunk.
    let mut cursor = vec![0u32; num_nodes];
    for segment in segments {
        for &v in segment.nodes.iter() {
            cursor[v as usize] += 1;
        }
    }
    let mut chunks: Vec<MemberChunk> = cursor
        .chunks_mut(MEMBER_CHUNK_USERS)
        .map(|counts| {
            let mut offsets = vec![0u32];
            for (count, end) in counts.iter_mut().zip(1..) {
                let start = offsets[end - 1];
                offsets.push(start.checked_add(*count).expect("a chunk's lists are u32-indexed"));
                *count = start;
            }
            let ids = vec![0u32; offsets[counts.len()] as usize];
            MemberChunk { offsets: offsets.into(), ids: ids.into() }
        })
        .collect();
    for (s, segment) in segments.iter().enumerate() {
        for g in 0..segment.num_graphs() {
            let id = (s * SEGMENT_DRAWS + g) as u32;
            for &v in segment.graph(g).nodes() {
                let at = &mut cursor[v as usize];
                chunks[v as usize / MEMBER_CHUNK_USERS].ids[*at as usize] = id;
                *at += 1;
            }
        }
    }
    chunks.into_iter().map(Arc::new).collect()
}

/// `old` with `deltas` applied — `(user, graph id, joined)`: the user joined
/// or left that graph. Only the chunks of users with a delta are rewritten.
pub(crate) fn patch_membership(
    old: &[Arc<MemberChunk>],
    deltas: &mut [(NodeId, u32, bool)],
) -> Vec<Arc<MemberChunk>> {
    deltas.sort_unstable();
    let mut chunks = old.to_vec();
    let mut rest = &*deltas;
    while let Some(&(user, ..)) = rest.first() {
        let k = user as usize / MEMBER_CHUNK_USERS;
        let (mut of_chunk, tail) =
            rest.split_at(rest.partition_point(|d| (d.0 as usize) < (k + 1) * MEMBER_CHUNK_USERS));
        rest = tail;
        let before = &old[k];
        let mut offsets = vec![0u32];
        let mut ids = Vec::with_capacity(before.ids.len() + of_chunk.len());
        for i in 0..before.offsets.len() - 1 {
            let user = (k * MEMBER_CHUNK_USERS + i) as u32;
            let (of_user, later) = of_chunk.split_at(of_chunk.partition_point(|d| d.0 == user));
            of_chunk = later;
            // One merge of the two ascending runs: a delta on a listed id is
            // the user leaving that graph, every other one a graph it joined.
            let mut changes = of_user.iter().map(|d| d.1).peekable();
            for &id in before.list(i) {
                while let Some(joined) = changes.next_if(|&change| change < id) {
                    ids.push(joined);
                }
                if changes.next_if_eq(&id).is_none() {
                    ids.push(id);
                }
            }
            ids.extend(changes);
            offsets.push(u32::try_from(ids.len()).expect("a chunk's lists are u32-indexed"));
        }
        chunks[k] = Arc::new(MemberChunk { offsets: offsets.into(), ids: ids.into() });
    }
    chunks
}
