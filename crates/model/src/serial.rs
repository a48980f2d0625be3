//! Binary persistence for complete TIC models.
//!
//! `pitex-datasets` caches generated profiles between benchmark runs; this
//! module round-trips a [`TicModel`] (graph + tag–topic matrix + edge
//! topics) through the workspace codec.

use crate::edge_topics::EdgeTopics;
use crate::ids::TopicId;
use crate::rows::{RowError, SparseRows};
use crate::tag_topic::TagTopicMatrix;
use crate::tic::TicModel;
use pitex_support::codec::{DecodeError, Decoder, Encoder};

const MAGIC: [u8; 4] = *b"PTIC";
const VERSION: u32 = 1;

/// Errors from model persistence. `Row`: row `row` of a topic table breaks
/// a row invariant.
#[derive(Debug)]
pub enum ModelIoError {
    Io(std::io::Error),
    Decode(DecodeError),
    Graph(pitex_graph::io::GraphIoError),
    Row { row: usize, error: RowError },
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "i/o error: {e}"),
            ModelIoError::Decode(e) => write!(f, "decode error: {e}"),
            ModelIoError::Graph(e) => write!(f, "graph error: {e}"),
            ModelIoError::Row { row, error } => write!(f, "invalid topic row {row}: {error}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

impl From<DecodeError> for ModelIoError {
    fn from(e: DecodeError) -> Self {
        ModelIoError::Decode(e)
    }
}

impl From<pitex_graph::io::GraphIoError> for ModelIoError {
    fn from(e: pitex_graph::io::GraphIoError) -> Self {
        ModelIoError::Graph(e)
    }
}

/// Wire size of one row entry (`u32` topic + `f32` probability) and of a
/// row's `u32` length prefix.
const ENTRY_BYTES: usize = 8;
const ROW_PREFIX_BYTES: usize = 4;

fn encode_sparse_rows(enc: &mut Encoder<Vec<u8>>, rows: &SparseRows) {
    enc.u64(rows.num_rows() as u64);
    for r in 0..rows.num_rows() as u32 {
        let (topics, probs) = rows.row_slices(r);
        enc.u32(topics.len() as u32);
        for (&z, &p) in topics.iter().zip(probs) {
            enc.u32(z as u32);
            enc.f32(p);
        }
    }
}

/// Decodes a row table straight into an arena, every row through
/// [`SparseRows::push_row`]. Nothing is sized by a length field beyond what
/// the remaining bytes can hold.
fn decode_sparse_rows(
    dec: &mut Decoder<&[u8]>,
    num_topics: usize,
) -> Result<SparseRows, ModelIoError> {
    let declared = dec.u64()?;
    let remaining = dec.remaining();
    if declared > (remaining / ROW_PREFIX_BYTES) as u64 {
        return Err(DecodeError::CorruptLength { declared: declared as usize, remaining }.into());
    }
    let count = declared as usize;
    // Two upper bounds on the entries to come: the bytes left once every
    // row's prefix is paid for, and `|Z|` per row.
    let entries = ((remaining - count * ROW_PREFIX_BYTES) / ENTRY_BYTES)
        .min(count.saturating_mul(num_topics));
    let mut rows = SparseRows::with_capacity(num_topics, count, entries);
    let mut row: Vec<(TopicId, f32)> = Vec::new();
    for r in 0..count {
        let len = dec.u32()?;
        row.clear();
        for _ in 0..len {
            let z = TopicId::try_from(dec.u32()?)
                .map_err(|_| DecodeError::Invalid("topic id does not fit its type"))?;
            row.push((z, dec.f32()?));
        }
        rows.push_row(&row).map_err(|error| ModelIoError::Row { row: r, error })?;
    }
    Ok(rows)
}

/// Serializes a model to bytes: header, the length-prefixed graph blob
/// ([`pitex_graph::io::to_bytes`]), `u32` `|Z|`, the prior as an `f32`
/// slice, then the tag rows and the edge rows — each table a `u64` row
/// count followed by, per row, a `u32` length and that many
/// `(u32 topic, f32 probability)` entries in ascending topic order.
pub fn to_bytes(model: &TicModel) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::new());
    enc.header(MAGIC, VERSION);

    let graph_bytes = pitex_graph::io::to_bytes(model.graph());
    enc.u64(graph_bytes.len() as u64);
    let mut enc = {
        let mut buf = enc.into_inner();
        buf.extend_from_slice(&graph_bytes);
        Encoder::new(buf)
    };

    let tt = model.tag_topic();
    enc.u32(tt.num_topics() as u32);
    let prior: Vec<f32> = tt.prior().iter().map(|&p| p as f32).collect();
    enc.f32_slice(&prior);
    encode_sparse_rows(&mut enc, tt);
    encode_sparse_rows(&mut enc, model.edge_topics());
    enc.into_inner()
}

/// Deserializes a model written by [`to_bytes`]. The input is untrusted:
/// every edge, row and the prior are validated on the way in (the graph by
/// [`pitex_graph::io::from_bytes`], rows by [`SparseRows::push_row`]), so
/// damaged bytes give an `Err` or a model that satisfies every invariant
/// [`TicModel::new`] asserts — never a panic. What has no redundancy in
/// the format cannot be checked: a damaged node count, or a damaged
/// probability that still lies in `(0, 1]`, decodes.
pub fn from_bytes(bytes: &[u8]) -> Result<TicModel, ModelIoError> {
    let mut dec = Decoder::new(bytes);
    dec.header(MAGIC, VERSION)?;
    let graph_len = dec.u64()?;
    // The graph blob is embedded verbatim; split it off manually.
    let rest = &bytes[bytes.len() - dec.remaining()..];
    if graph_len > rest.len() as u64 {
        return Err(ModelIoError::Decode(DecodeError::CorruptLength {
            declared: graph_len as usize,
            remaining: rest.len(),
        }));
    }
    let (graph_bytes, rest) = rest.split_at(graph_len as usize);
    let graph = pitex_graph::io::from_bytes(graph_bytes)?;
    let mut dec = Decoder::new(rest);

    let num_topics = dec.u32()? as usize;
    let prior: Vec<f64> = dec.f32_slice()?.into_iter().map(f64::from).collect();
    if prior.len() != num_topics {
        return Err(DecodeError::Invalid("the prior does not cover every topic").into());
    }
    // Renormalize to absorb f32 rounding so the TagTopicMatrix validator
    // (sum within 1e-6) accepts a round-tripped prior.
    let total: f64 = prior.iter().sum();
    if !(total > 0.0 && total.is_finite() && prior.iter().all(|&p| p >= 0.0)) {
        return Err(DecodeError::Invalid("the prior is not a distribution").into());
    }
    let prior: Vec<f64> = prior.into_iter().map(|p| p / total).collect();
    let tag_rows = decode_sparse_rows(&mut dec, num_topics)?;
    let edge_rows = decode_sparse_rows(&mut dec, num_topics)?;
    if edge_rows.num_rows() != graph.num_edges() {
        return Err(DecodeError::Invalid("edge-topic rows do not cover every edge").into());
    }

    let tag_topic = TagTopicMatrix::from_rows(tag_rows, prior);
    Ok(TicModel::new(graph, tag_topic, EdgeTopics::from_rows(edge_rows)))
}

/// Writes a model to a file.
pub fn save<P: AsRef<std::path::Path>>(model: &TicModel, path: P) -> Result<(), ModelIoError> {
    std::fs::write(path, to_bytes(model))?;
    Ok(())
}

/// Reads a model from a file.
pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<TicModel, ModelIoError> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genmodel::{random_model, ModelGenConfig};
    use crate::ids::TagSet;
    use pitex_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_example_round_trips() {
        let model = TicModel::paper_example();
        let bytes = to_bytes(&model);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.graph(), model.graph());
        assert_eq!(back.edge_topics(), model.edge_topics());
        assert_eq!(back.tag_topic().num_tags(), model.tag_topic().num_tags());
        // Posterior semantics survive the round trip.
        let w = TagSet::from([0, 1]);
        let e = model.graph().find_edge(0, 1).unwrap();
        assert!((back.edge_prob(e, &w) - model.edge_prob(e, &w)).abs() < 1e-6);
    }

    #[test]
    fn random_model_round_trips() {
        let mut rng = StdRng::seed_from_u64(17);
        let graph = gen::preferential_attachment(150, 2, 0.3, &mut rng);
        let model = random_model(graph, &ModelGenConfig::default(), &mut rng);
        let back = from_bytes(&to_bytes(&model)).unwrap();
        assert_eq!(back.graph(), model.graph());
        assert_eq!(back.edge_topics(), model.edge_topics());
    }

    #[test]
    fn corrupted_input_fails_cleanly() {
        let model = TicModel::paper_example();
        let mut bytes = to_bytes(&model);
        bytes.truncate(bytes.len() / 2);
        assert!(from_bytes(&bytes).is_err());
        assert!(from_bytes(b"junk").is_err());
    }

    /// `Err`, or a model the panicking constructors accept unchanged.
    fn decode_is_sound(bytes: &[u8], what: &str) -> Option<TicModel> {
        let decoded = std::panic::catch_unwind(|| from_bytes(bytes))
            .unwrap_or_else(|_| panic!("{what}: the decoder panicked"));
        let model = decoded.ok()?;
        let (tt, et) = (model.tag_topic(), model.edge_topics());
        let tag_rows = (0..tt.num_tags() as u32).map(|w| tt.row(w).collect()).collect();
        let edge_rows = (0..et.num_edges() as u32).map(|e| et.row(e).collect()).collect();
        let rebuilt = TicModel::new(
            model.graph().clone(),
            TagTopicMatrix::new(tag_rows, tt.prior().to_vec()),
            EdgeTopics::new(edge_rows, model.num_topics()),
        );
        assert_eq!(rebuilt.tag_topic(), tt, "{what}");
        assert_eq!(rebuilt.edge_topics(), et, "{what}");
        Some(model)
    }

    /// Every single-bit flip and every prefix of a model file decodes to an
    /// `Err` or to a valid model, and a flipped endpoint never moves `|V|`.
    /// Bits of the node count itself are flipped only while the count stays
    /// ≤ 2²⁰: the format has nothing to check a count against.
    #[test]
    fn damaged_files_never_panic_the_decoder() {
        let mut rng = StdRng::seed_from_u64(29);
        let config = ModelGenConfig { num_topics: 5, num_tags: 6, ..ModelGenConfig::default() };
        let generated = random_model(gen::erdos_renyi(24, 50, &mut rng), &config, &mut rng);
        for model in [TicModel::paper_example(), generated] {
            let bytes = to_bytes(&model);
            let n = model.graph().num_nodes();
            // 8 header + 8 graph length, then the graph's 8 header + u32 n.
            let node_count = 24..28;
            assert_eq!(bytes[node_count.clone()], (n as u32).to_le_bytes());
            for len in 0..bytes.len() {
                assert!(decode_is_sound(&bytes[..len], "prefix").is_none(), "prefix {len} decoded");
            }
            for bit in 0..bytes.len() * 8 {
                let in_count = node_count.contains(&(bit / 8));
                if in_count && n ^ (1 << (bit - node_count.start * 8)) > 1 << 20 {
                    continue;
                }
                let mut damaged = bytes.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                if let Some(decoded) = decode_is_sound(&damaged, &format!("bit {bit}")) {
                    assert!(in_count || decoded.graph().num_nodes() == n, "bit {bit} moved |V|");
                }
            }
        }
    }

    #[test]
    fn malformed_tables_are_errors() {
        let model = TicModel::paper_example();
        let graph = pitex_graph::io::to_bytes(model.graph());
        // A file around the real graph: `|Z|`, prior, tag rows, edge rows.
        let file = |num_topics: u32, prior: &[f32], tags: &[&[(u32, f32)]], edges: usize| {
            let mut enc = Encoder::new(Vec::new());
            enc.header(MAGIC, VERSION);
            enc.u64(graph.len() as u64);
            let mut buf = enc.into_inner();
            buf.extend_from_slice(&graph);
            let mut enc = Encoder::new(buf);
            enc.u32(num_topics);
            enc.f32_slice(prior);
            enc.u64(tags.len() as u64);
            for row in tags {
                enc.u32(row.len() as u32);
                for &(z, p) in *row {
                    enc.u32(z);
                    enc.f32(p);
                }
            }
            enc.u64(edges as u64);
            for _ in 0..edges {
                enc.u32(0);
            }
            from_bytes(&enc.into_inner()).map(|m| m.num_tags())
        };
        let uniform = [0.5f32, 0.5];
        assert_eq!(file(2, &uniform, &[&[(0, 0.5), (1, 1.0)], &[]], 7).unwrap(), 2);
        for (what, result) in [
            ("row count != edge count", file(2, &uniform, &[], 6)),
            ("topic id that does not fit", file(2, &uniform, &[&[(65_536, 0.5)]], 7)),
            ("topic id out of range", file(2, &uniform, &[&[(2, 0.5)]], 7)),
            ("unsorted row", file(2, &uniform, &[&[(1, 0.5), (0, 0.5)]], 7)),
            ("repeated topic", file(2, &uniform, &[&[(1, 0.5), (1, 0.5)]], 7)),
            ("zero probability", file(2, &uniform, &[&[(0, 0.0)]], 7)),
            ("probability above one", file(2, &uniform, &[&[(0, 1.5)]], 7)),
            ("NaN probability", file(2, &uniform, &[&[(0, f32::NAN)]], 7)),
            ("zero prior sum", file(2, &[0.0, 0.0], &[], 7)),
            ("negative prior entry", file(2, &[1.5, -0.5], &[], 7)),
            ("infinite prior", file(2, &[f32::INFINITY, 0.5], &[], 7)),
            ("NaN prior", file(2, &[f32::NAN, 0.5], &[], 7)),
            ("prior shorter than |Z|", file(3, &uniform, &[], 7)),
            ("no topics at all", file(0, &[], &[], 7)),
        ] {
            assert!(result.is_err(), "{what} decoded");
        }
        // A row count no remaining byte could back sizes nothing.
        let mut bytes = to_bytes(&model);
        // The edge table: a count, 7 row prefixes, 8 entries.
        let tail = bytes.len() - (8 + 7 * 4 + 8 * 8);
        bytes[tail..tail + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes),
            Err(ModelIoError::Decode(DecodeError::CorruptLength { .. }))
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pitex-model-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let model = TicModel::paper_example();
        save(&model, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.graph(), model.graph());
        let _ = std::fs::remove_file(&path);
    }
}
