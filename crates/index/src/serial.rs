//! Index persistence (Table 3 compares on-disk sizes of the two schemes).

use crate::build::{segment_count, IndexBudget, RrIndex};
use crate::delay::DelayMatIndex;
use crate::segment::{Segment, SEGMENT_DRAWS};
use pitex_support::codec::{DecodeError, Decoder, Encoder};
use std::sync::Arc;

const RR_MAGIC: [u8; 4] = *b"PRRI";
const DELAY_MAGIC: [u8; 4] = *b"PDLY";
// PRRI v3: header + one dump per segment, each arena a length-prefixed
// little-endian slice — the in-memory layout, so decoding is a bulk read
// plus validation. v2 (per-graph node and edge lists; since v2 the build
// budget and seed are persisted so repair reads them off the artifact) and
// v1 (shared RNG stream) files fail loudly with BadVersion.
const RR_VERSION: u32 = 3;
const DELAY_VERSION: u32 = 2;
/// Least bytes a segment dump takes: its six length prefixes.
const MIN_SEGMENT_BYTES: usize = 6 * 8;

fn encode_budget(enc: &mut Encoder<Vec<u8>>, budget: IndexBudget) {
    match budget {
        IndexBudget::PerVertex(c) => {
            enc.u8(0);
            enc.f64(c);
        }
        IndexBudget::Fixed(n) => {
            enc.u8(1);
            enc.u64(n);
        }
        IndexBudget::Theoretical { epsilon, delta, k_max } => {
            enc.u8(2);
            enc.f64(epsilon);
            enc.f64(delta);
            enc.u64(k_max as u64);
        }
    }
}

fn decode_budget(dec: &mut Decoder<&[u8]>) -> Result<IndexBudget, DecodeError> {
    Ok(match dec.u8()? {
        0 => IndexBudget::PerVertex(dec.f64()?),
        1 => IndexBudget::Fixed(dec.u64()?),
        2 => IndexBudget::Theoretical {
            epsilon: dec.f64()?,
            delta: dec.f64()?,
            k_max: dec.u64()? as usize,
        },
        _ => return Err(DecodeError::Invalid("unknown index budget tag")),
    })
}

/// Errors from index persistence.
#[derive(Debug)]
pub enum IndexIoError {
    Io(std::io::Error),
    Decode(DecodeError),
}

impl std::fmt::Display for IndexIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexIoError::Io(e) => write!(f, "i/o error: {e}"),
            IndexIoError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for IndexIoError {}

impl From<std::io::Error> for IndexIoError {
    fn from(e: std::io::Error) -> Self {
        IndexIoError::Io(e)
    }
}

impl From<DecodeError> for IndexIoError {
    fn from(e: DecodeError) -> Self {
        IndexIoError::Decode(e)
    }
}

/// Which index scheme a serialized artifact holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// A full RR-Graph index (`PRRI`).
    Rr,
    /// A delay-materialized counter index (`PDLY`).
    Delay,
}

/// Sniffs an artifact's scheme by magic without decoding it — what
/// `pitex query --backend auto --index FILE` uses to load whichever index
/// kind it was handed (`None`: neither magic, not an index file).
pub fn index_kind(bytes: &[u8]) -> Option<IndexKind> {
    match bytes.get(..4) {
        Some(magic) if magic == RR_MAGIC => Some(IndexKind::Rr),
        Some(magic) if magic == DELAY_MAGIC => Some(IndexKind::Delay),
        _ => None,
    }
}

/// Serializes a full RR-Graph index.
pub fn rr_index_to_bytes(index: &RrIndex) -> Vec<u8> {
    let segments = index.segments();
    let arenas: u64 = segments.iter().map(|s| s.heap_bytes()).sum();
    let mut enc = Encoder::new(Vec::with_capacity(64 + arenas as usize));
    enc.header(RR_MAGIC, RR_VERSION);
    enc.u32(index.num_nodes() as u32);
    enc.u64(index.theta());
    encode_budget(&mut enc, index.budget());
    enc.u64(index.seed());
    enc.u64(segments.len() as u64);
    for segment in segments {
        enc.u32_slice(&segment.node_start);
        enc.u32_slice(&segment.nodes);
        enc.u32_slice(&segment.offsets);
        enc.u32_slice(&segment.dst_local);
        enc.u32_slice(&segment.edge_id);
        enc.f32_slice(&segment.c);
    }
    enc.into_inner()
}

fn check(holds: bool, broken: &'static str) -> Result<(), DecodeError> {
    if holds {
        Ok(())
    } else {
        Err(DecodeError::Invalid(broken))
    }
}

/// Reads one segment dump of `graphs` graphs over vertices `0..num_nodes`
/// and checks everything a reader indexes by, so no accessor can panic on
/// what this returns.
fn decode_segment(
    dec: &mut Decoder<&[u8]>,
    graphs: usize,
    num_nodes: usize,
) -> Result<Segment, DecodeError> {
    let segment = Segment {
        node_start: dec.u32_slice()?.into(),
        nodes: dec.u32_slice()?.into(),
        offsets: dec.u32_slice()?.into(),
        dst_local: dec.u32_slice()?.into(),
        edge_id: dec.u32_slice()?.into(),
        c: dec.f32_slice()?.into(),
    };
    let Segment { node_start, nodes, offsets, dst_local, edge_id, c } = &segment;
    check(node_start.len() == graphs + 1, "segment graph count")?;
    check(node_start[0] == 0 && node_start[graphs] as usize == nodes.len(), "graph table range")?;
    check(node_start.windows(2).all(|g| g[0] < g[1]), "graph without a target")?;
    check(offsets.len() == nodes.len() + 1 && offsets[0] == 0, "edge offset count")?;
    check(offsets.windows(2).all(|o| o[0] <= o[1]), "edge offsets not monotone")?;
    let edges = offsets[nodes.len()] as usize;
    check([dst_local.len(), edge_id.len(), c.len()] == [edges; 3], "edge arena lengths")?;
    for g in node_start.windows(2) {
        let (first, end) = (g[0] as usize, g[1] as usize);
        let (target, others) = (nodes[first], &nodes[first + 1..end]);
        check(others.windows(2).all(|v| v[0] < v[1]), "members not strictly ascending")?;
        check((target.max(nodes[end - 1]) as usize) < num_nodes, "member out of range")?;
        check(others.binary_search(&target).is_err(), "target listed twice")?;
        let of_graph = &dst_local[offsets[first] as usize..offsets[end] as usize];
        check(of_graph.iter().all(|&dst| (dst as usize) < end - first), "edge leaves its graph")?;
    }
    Ok(segment)
}

/// Deserializes a full RR-Graph index (the membership table is rebuilt).
/// Fails on — never panics over, nor allocates for — a torn or corrupt
/// artifact.
pub fn rr_index_from_bytes(bytes: &[u8]) -> Result<RrIndex, IndexIoError> {
    let mut dec = Decoder::new(bytes);
    dec.header(RR_MAGIC, RR_VERSION)?;
    let num_nodes = dec.u32()? as usize;
    let theta = dec.u64()?;
    let budget = decode_budget(&mut dec)?;
    let seed = dec.u64()?;
    let count = dec.u64()?;
    let remaining = bytes.len();
    if count > (remaining / MIN_SEGMENT_BYTES) as u64 {
        return Err(DecodeError::CorruptLength { declared: count as usize, remaining }.into());
    }
    check(theta <= u32::MAX as u64 && count == segment_count(num_nodes, theta), "segment count")?;
    let mut segments = Vec::with_capacity(count as usize);
    for first in (0..theta).step_by(SEGMENT_DRAWS).take(count as usize) {
        let graphs = (theta - first).min(SEGMENT_DRAWS as u64) as usize;
        segments.push(Arc::new(decode_segment(&mut dec, graphs, num_nodes)?));
    }
    Ok(RrIndex::from_segments(num_nodes, theta, budget, seed, segments))
}

/// Serializes a delay-materialized index.
pub fn delay_index_to_bytes(index: &DelayMatIndex) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::new());
    enc.header(DELAY_MAGIC, DELAY_VERSION);
    enc.u32(index.num_nodes() as u32);
    enc.u64(index.theta());
    encode_budget(&mut enc, index.budget());
    enc.u64(index.seed());
    enc.u32_slice(index.counts());
    enc.into_inner()
}

/// Deserializes a delay-materialized index.
pub fn delay_index_from_bytes(bytes: &[u8]) -> Result<DelayMatIndex, IndexIoError> {
    let mut dec = Decoder::new(bytes);
    dec.header(DELAY_MAGIC, DELAY_VERSION)?;
    let num_nodes = dec.u32()? as usize;
    let theta = dec.u64()?;
    let budget = decode_budget(&mut dec)?;
    let seed = dec.u64()?;
    let counts = dec.u32_slice()?;
    Ok(DelayMatIndex::from_counts(num_nodes, theta, budget, seed, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBudget;
    use pitex_model::TicModel;

    #[test]
    fn rr_index_round_trip() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(500), 61, 2);
        let back = rr_index_from_bytes(&rr_index_to_bytes(&index)).unwrap();
        assert_eq!(back.theta(), index.theta());
        assert_eq!(back.graphs().collect::<Vec<_>>(), index.graphs().collect::<Vec<_>>());
        for u in 0..model.graph().num_nodes() as u32 {
            assert_eq!(back.graphs_containing(u), index.graphs_containing(u));
        }
    }

    #[test]
    fn delay_index_round_trip() {
        let model = TicModel::paper_example();
        let index = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(500), 67, 2);
        let back = delay_index_from_bytes(&delay_index_to_bytes(&index)).unwrap();
        assert_eq!(back, index);
    }

    #[test]
    fn formats_are_not_interchangeable() {
        let model = TicModel::paper_example();
        let delay = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(10), 1, 1);
        let bytes = delay_index_to_bytes(&delay);
        assert!(rr_index_from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_inputs_fail_cleanly() {
        let model = TicModel::paper_example();
        let index = RrIndex::build_with_threads(&model, IndexBudget::Fixed(50), 3, 1);
        let mut bytes = rr_index_to_bytes(&index);
        bytes.truncate(bytes.len() / 3);
        assert!(rr_index_from_bytes(&bytes).is_err());
    }

    /// A v3 header for `theta` draws over 7 vertices, up to the segment count.
    fn header(version: u32, budget_tag: u8, theta: u64, segments: u64) -> Vec<u8> {
        let mut enc = Encoder::new(Vec::new());
        enc.header(RR_MAGIC, version);
        enc.u32(7);
        enc.u64(theta);
        enc.u8(budget_tag);
        enc.u64(theta);
        enc.u64(1);
        enc.u64(segments);
        enc.into_inner()
    }

    #[test]
    fn stale_versions_and_lying_headers_are_named() {
        let decode = |bytes: &[u8]| match rr_index_from_bytes(bytes) {
            Err(IndexIoError::Decode(e)) => e,
            other => panic!("expected a decode error, got {other:?}"),
        };
        assert_eq!(
            decode(&header(2, 1, 5, 1)),
            DecodeError::BadVersion { expected: 3, found: 2 },
            "a v2 artifact is refused by version, not misread"
        );
        assert_eq!(decode(&header(3, 9, 5, 1)), DecodeError::Invalid("unknown index budget tag"));
        // A segment count the file cannot hold is refused before anything
        // is allocated for it; one that disagrees with θ is invalid.
        assert!(matches!(
            decode(&header(3, 1, u32::MAX as u64, u32::MAX as u64 / 512 + 1)),
            DecodeError::CorruptLength { .. }
        ));
        let mut two_for_one = header(3, 1, 5, 2);
        two_for_one.resize(two_for_one.len() + 2 * MIN_SEGMENT_BYTES, 0);
        assert_eq!(decode(&two_for_one), DecodeError::Invalid("segment count"));
    }

    #[test]
    fn index_kind_sniffs_by_magic() {
        let model = TicModel::paper_example();
        let full = RrIndex::build_with_threads(&model, IndexBudget::Fixed(50), 3, 1);
        let delay = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(50), 3, 1);
        assert_eq!(index_kind(&rr_index_to_bytes(&full)), Some(IndexKind::Rr));
        assert_eq!(index_kind(&delay_index_to_bytes(&delay)), Some(IndexKind::Delay));
        assert_eq!(index_kind(b"GARBAGE!"), None);
        assert_eq!(index_kind(b"PR"), None, "too short to carry a magic");
    }

    #[test]
    fn delay_size_reflects_scheme_economy() {
        // Table 3's point: the delay index is orders of magnitude smaller.
        let model = TicModel::paper_example();
        let full = RrIndex::build_with_threads(&model, IndexBudget::Fixed(5_000), 5, 2);
        let delay = DelayMatIndex::build_with_threads(&model, IndexBudget::Fixed(5_000), 5, 2);
        let full_bytes = rr_index_to_bytes(&full).len();
        let delay_bytes = delay_index_to_bytes(&delay).len();
        assert!(delay_bytes * 100 < full_bytes, "delay {delay_bytes}B vs full {full_bytes}B");
    }
}
