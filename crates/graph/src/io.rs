//! Graph persistence: a human-readable edge list and a compact binary form.
//!
//! The edge-list format matches what SNAP-style datasets ship (`src dst` per
//! line, `#` comments), so real networks can be dropped in next to the
//! synthetic profiles. The binary format uses the workspace codec and is what
//! `pitex-datasets` caches between benchmark runs.

use crate::csr::{DiGraph, GraphBuilder};
use pitex_support::codec::{DecodeError, Decoder, Encoder};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"PGRF";
const VERSION: u32 = 1;

/// Errors from graph I/O.
#[derive(Debug)]
pub enum GraphIoError {
    Io(std::io::Error),
    Decode(DecodeError),
    Parse { line: usize, content: String },
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::Decode(e) => write!(f, "decode error: {e}"),
            GraphIoError::Parse { line, content } => {
                write!(f, "cannot parse edge on line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<std::io::Error> for GraphIoError {
    fn from(e: std::io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

impl From<DecodeError> for GraphIoError {
    fn from(e: DecodeError) -> Self {
        GraphIoError::Decode(e)
    }
}

/// Reads a whitespace-separated `src dst` edge list; `#`-prefixed lines are
/// comments. Vertex ids must be dense-ish `u32`s (the graph spans `0..=max`).
pub fn read_edge_list<R: Read>(reader: R) -> Result<DiGraph, GraphIoError> {
    let reader = BufReader::new(reader);
    let mut builder = GraphBuilder::new_auto();
    let mut line_buf = String::new();
    let mut reader = reader;
    let mut line_no = 0usize;
    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u32> { tok.and_then(|t| t.parse().ok()) };
        match (parse(parts.next()), parse(parts.next())) {
            (Some(s), Some(t)) => builder.add_edge(s, t),
            _ => return Err(GraphIoError::Parse { line: line_no, content: line.to_string() }),
        }
    }
    Ok(builder.build())
}

/// Writes the graph as a `src dst` edge list with a descriptive header.
pub fn write_edge_list<W: Write>(graph: &DiGraph, writer: W) -> Result<(), GraphIoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# pitex graph: {} nodes, {} edges", graph.num_nodes(), graph.num_edges())?;
    for (_, s, t) in graph.edges() {
        writeln!(w, "{s} {t}")?;
    }
    w.flush()?;
    Ok(())
}

/// Serializes the graph to the compact binary format: header, `u32` node
/// count, then the edges in id order — strictly ascending `(src, dst)` —
/// as a length-prefixed `u32` slice of sources and one of targets.
pub fn to_bytes(graph: &DiGraph) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::with_capacity(16 + graph.num_edges() * 8));
    enc.header(MAGIC, VERSION);
    enc.u32(graph.num_nodes() as u32);
    let sources: Vec<u32> = graph.edges().map(|(_, s, _)| s).collect();
    let targets: Vec<u32> = graph.edges().map(|(_, _, t)| t).collect();
    enc.u32_slice(&sources);
    enc.u32_slice(&targets);
    enc.into_inner()
}

/// Deserializes a graph written by [`to_bytes`]. Every edge is checked
/// against the declared node count and the canonical order
/// ([`DiGraph::try_from_sorted_pairs`]), so a damaged endpoint is an
/// `Err`, never a different vertex set. The node count itself has nothing
/// to be checked against (isolated vertices are legal and the format
/// carries no checksum): a damaged count decodes to a graph with that many
/// vertices, and the CSR offset tables are sized by it.
pub fn from_bytes(bytes: &[u8]) -> Result<DiGraph, GraphIoError> {
    let mut dec = Decoder::new(bytes);
    dec.header(MAGIC, VERSION)?;
    let n = dec.u32()? as usize;
    let sources = dec.u32_slice()?;
    let targets = dec.u32_slice()?;
    if sources.len() != targets.len() {
        return Err(GraphIoError::Decode(DecodeError::CorruptLength {
            declared: sources.len(),
            remaining: targets.len(),
        }));
    }
    let graph = DiGraph::try_from_sorted_pairs(n, sources.into_iter().zip(targets));
    graph.map_err(|broken| DecodeError::Invalid(broken).into())
}

/// Convenience: write the binary format to a file path.
pub fn save<P: AsRef<Path>>(graph: &DiGraph, path: P) -> Result<(), GraphIoError> {
    std::fs::write(path, to_bytes(graph))?;
    Ok(())
}

/// Convenience: read the binary format from a file path.
pub fn load<P: AsRef<Path>>(path: P) -> Result<DiGraph, GraphIoError> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn edge_list_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::erdos_renyi(50, 200, &mut rng);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_ignores_comments_and_blanks() {
        let text = "# a comment\n\n0 1\n  1 2  \n# trailing\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_reports_parse_errors_with_line() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphIoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn binary_round_trip() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = gen::preferential_attachment(300, 2, 0.2, &mut rng);
        let g2 = from_bytes(&to_bytes(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(from_bytes(b"nope").is_err());
        let mut bytes = to_bytes(&gen::path(4));
        bytes.truncate(bytes.len() - 3);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn binary_rejects_a_damaged_edge_list() {
        let file = |n: u32, pairs: &[(u32, u32)]| {
            let mut enc = Encoder::new(Vec::new());
            enc.header(MAGIC, VERSION);
            enc.u32(n);
            enc.u32_slice(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
            enc.u32_slice(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
            from_bytes(&enc.into_inner())
        };
        assert_eq!(file(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(), gen::path(4));
        for (pairs, what) in [
            (&[(0, 1), (1, 2), (2, 4)], "endpoint = n"),
            (&[(0, 1), (1 << 31, 2), (2, 3)], "endpoint far out of range"),
            (&[(0, 1), (1, 1), (2, 3)], "self-loop"),
            (&[(0, 1), (0, 1), (2, 3)], "duplicate"),
            (&[(0, 1), (2, 3), (1, 2)], "descending"),
        ] {
            let err = file(4, pairs).expect_err(what);
            assert!(matches!(err, GraphIoError::Decode(DecodeError::Invalid(_))), "{what}: {err}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pitex-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = gen::cycle(9);
        save(&g, &path).unwrap();
        let g2 = load(&path).unwrap();
        assert_eq!(g, g2);
        let _ = std::fs::remove_file(&path);
    }
}
