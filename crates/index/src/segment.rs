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
/// or left that graph. Only the chunks of users with a delta are rewritten,
/// and in those only the lists of users with a delta are merged: each run
/// of untouched users between them is one slice copy and one shift of its
/// offsets.
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
        // Each join adds an id and each leave drops one: the new length is
        // `old + joins − leaves = old + 2 · joins − deltas`.
        let len = before.ids.len() + 2 * of_chunk.iter().filter(|d| d.2).count() - of_chunk.len();
        let mut offsets = Vec::with_capacity(before.offsets.len());
        let mut ids = Vec::with_capacity(len);
        offsets.push(0);
        // Appends the lists of `users`, which have no delta. Wrapping: the
        // shift is "negative" once the lists before them shrank.
        let copy = |users: Range<usize>, offsets: &mut Vec<u32>, ids: &mut Vec<u32>| {
            let span = before.offsets[users.start] as usize..before.offsets[users.end] as usize;
            let shift = (ids.len() as u32).wrapping_sub(span.start as u32);
            ids.extend_from_slice(&before.ids[span]);
            let ends = &before.offsets[users.start + 1..=users.end];
            offsets.extend(ends.iter().map(|&end| end.wrapping_add(shift)));
        };
        let mut next = 0;
        while let Some(&(user, ..)) = of_chunk.first() {
            let (of_user, later) = of_chunk.split_at(of_chunk.partition_point(|d| d.0 == user));
            of_chunk = later;
            let i = user as usize % MEMBER_CHUNK_USERS;
            copy(next..i, &mut offsets, &mut ids);
            next = i + 1;
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
            offsets.push(ids.len() as u32);
        }
        copy(next..before.offsets.len() - 1, &mut offsets, &mut ids);
        // Every offset is at most the total, so one check covers them all.
        assert!(u32::try_from(ids.len()).is_ok(), "a chunk's lists are u32-indexed");
        debug_assert_eq!(ids.len(), len, "every leave is of a listed id, every join of a new one");
        chunks[k] = Arc::new(MemberChunk { offsets: offsets.into(), ids: ids.into() });
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Three full membership chunks and a partial one.
    const USERS: usize = 3 * MEMBER_CHUNK_USERS + 37;
    /// A full segment and a partial one.
    const GRAPHS: usize = SEGMENT_DRAWS + 88;

    /// Edge-less graphs over the member sets, the first member the target.
    fn segments(graphs: &[Vec<NodeId>]) -> Vec<Arc<Segment>> {
        let segment = |of_segment: &[Vec<NodeId>]| {
            let mut out = SegmentBuilder::default();
            for members in of_segment {
                out.push_graph(members[0], &mut members.clone(), &[]);
            }
            Arc::new(out.seal())
        };
        graphs.chunks(SEGMENT_DRAWS).map(segment).collect()
    }

    #[test]
    fn a_patched_table_equals_the_table_built_from_the_patched_graphs() {
        let chunk = MEMBER_CHUNK_USERS as NodeId;
        // A user whose list empties, one joining below all its listed ids
        // (the first user of a chunk) and one above all of them (the last).
        let (emptied, low, high) = (3 * chunk + 2, chunk, 2 * chunk - 1);
        // First and last users of chunks, two adjacent users, the last user.
        let last = USERS as NodeId - 1;
        let toggled = [0, chunk - 1, chunk + 44, chunk + 45, 3 * chunk - 1, 3 * chunk, last];
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let random_graph = |rng: &mut StdRng| {
                let mut members: Vec<NodeId> = (0..rng.gen_range(1..40usize))
                    .map(|_| rng.gen_range(0..USERS as NodeId))
                    .filter(|v| ![emptied, low, high].contains(v))
                    .collect();
                members.push(1);
                members.sort_unstable();
                members.dedup();
                members
            };
            let mut old: Vec<Vec<NodeId>> = (0..GRAPHS).map(|_| random_graph(&mut rng)).collect();
            for (g, v) in
                [(10, emptied), (20, emptied), (300, low), (301, low), (5, high), (9, high)]
            {
                old[g].push(v);
            }
            let mut new = old.clone();
            for _ in 0..30 {
                new[rng.gen_range(0..GRAPHS)] = random_graph(&mut rng);
            }
            new[10].retain(|&v| v != emptied);
            new[20].retain(|&v| v != emptied);
            new[0].push(low);
            new[GRAPHS - 1].push(high);
            for v in toggled {
                match new[40].iter().position(|&m| m == v) {
                    Some(0) => {} // the target stays
                    Some(at) => drop(new[40].remove(at)),
                    None => new[40].push(v),
                }
            }

            let mut deltas = Vec::new();
            for (id, (before, after)) in old.iter().zip(&new).enumerate() {
                let left = before.iter().filter(|v| !after.contains(v));
                deltas.extend(left.map(|&v| (v, id as u32, false)));
                let joined = after.iter().filter(|v| !before.contains(v));
                deltas.extend(joined.map(|&v| (v, id as u32, true)));
            }
            let patched = patch_membership(&build_membership(USERS, &segments(&old)), &mut deltas);
            let rebuilt = build_membership(USERS, &segments(&new));
            assert_eq!(patched.len(), rebuilt.len());
            for (k, (a, b)) in patched.iter().zip(&rebuilt).enumerate() {
                assert_eq!((&a.offsets, &a.ids), (&b.offsets, &b.ids), "seed {seed}, chunk {k}");
            }
            let list = |v: NodeId| {
                let v = v as usize;
                rebuilt[v / MEMBER_CHUNK_USERS].list(v % MEMBER_CHUNK_USERS)
            };
            assert!(list(emptied).is_empty(), "seed {seed}");
            assert_eq!(list(low)[0], 0, "seed {seed}");
            assert_eq!(list(high).last(), Some(&(GRAPHS as u32 - 1)), "seed {seed}");
        }
    }
}
