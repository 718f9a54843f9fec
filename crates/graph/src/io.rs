//! SNAP-format edge-list I/O.
//!
//! The paper's datasets (Table I) come from the SNAP collection, distributed
//! as whitespace-separated edge lists with `#` comment headers. This module
//! reads and writes that format (optionally with a third weight column) so
//! real datasets can replace the synthetic stand-ins without code changes.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::{CsrError, CsrGraph};

/// Errors arising while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number and text.
    Parse(usize, String),
    /// Every line parsed, but the weights overflow `f64` once summed: a
    /// merged parallel edge, a vertex strength or the total weight `2W` is
    /// not finite.
    WeightOverflow(CsrError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(line, text) => write!(f, "parse error on line {line}: {text:?}"),
            IoError::WeightOverflow(e) => write!(f, "invalid edge weights: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Options controlling edge-list parsing.
#[derive(Debug, Clone)]
pub struct ReadOptions {
    /// Build a directed graph (SNAP's soc-Pokec and LiveJournal are directed;
    /// Amazon/DBLP/YouTube/Orkut are undirected).
    pub directed: bool,
    /// Drop self-loops while reading.
    pub drop_self_loops: bool,
    /// Default weight for 2-column lines.
    pub default_weight: f64,
}

impl Default for ReadOptions {
    fn default() -> Self {
        Self {
            directed: false,
            drop_self_loops: true,
            default_weight: 1.0,
        }
    }
}

/// Reads a SNAP edge list from any reader. Vertex ids are densified: arbitrary
/// (possibly sparse) external ids are relabeled to `0..n` in first-seen order.
/// Returns the graph and the external-id table (`result.1[i]` is the original
/// id of internal vertex `i`).
pub fn read_edge_list<R: Read>(
    reader: R,
    opts: &ReadOptions,
) -> Result<(CsrGraph, Vec<u64>), IoError> {
    let reader = BufReader::new(reader);
    let mut remap: HashMap<u64, u32> = HashMap::new();
    let mut external: Vec<u64> = Vec::new();
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();

    let intern = |id: u64, remap: &mut HashMap<u64, u32>, external: &mut Vec<u64>| -> u32 {
        *remap.entry(id).or_insert_with(|| {
            external.push(id);
            (external.len() - 1) as u32
        })
    };

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(IoError::Parse(lineno + 1, line));
        };
        let u: u64 = a
            .parse()
            .map_err(|_| IoError::Parse(lineno + 1, line.clone()))?;
        let v: u64 = b
            .parse()
            .map_err(|_| IoError::Parse(lineno + 1, line.clone()))?;
        let w: f64 = match it.next() {
            Some(ws) => ws
                .parse()
                .map_err(|_| IoError::Parse(lineno + 1, line.clone()))?,
            None => opts.default_weight,
        };
        // The builder accepts only finite, positive weights.
        if !(w.is_finite() && w > 0.0) {
            return Err(IoError::Parse(lineno + 1, line));
        }
        let ui = intern(u, &mut remap, &mut external);
        let vi = intern(v, &mut remap, &mut external);
        edges.push((ui, vi, w));
    }

    let n = external.len();
    let mut builder = if opts.directed {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::undirected(n)
    }
    .drop_self_loops(opts.drop_self_loops);
    builder.reserve(edges.len());
    builder.extend_edges(edges);
    let graph = builder.try_build().map_err(IoError::WeightOverflow)?;
    Ok((graph, external))
}

/// Reads an edge list from a file path. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    opts: &ReadOptions,
) -> Result<(CsrGraph, Vec<u64>), IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, opts)
}

/// Writes a graph as a SNAP-style edge list (tab-separated, weight column
/// included when any weight differs from 1.0). Undirected edges are written
/// once with `u <= v`.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> io::Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(
        out,
        "# infomap-asa edge list: {} nodes, {} edges, {}",
        graph.num_nodes(),
        graph.num_edges(),
        if graph.is_directed() {
            "directed"
        } else {
            "undirected"
        }
    )?;
    let weighted = graph.arcs().any(|(_, _, w)| w != 1.0);
    for (u, v, w) in graph.arcs() {
        if !graph.is_directed() && v < u {
            continue;
        }
        if weighted {
            writeln!(out, "{u}\t{v}\t{w}")?;
        } else {
            writeln!(out, "{u}\t{v}")?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SAMPLE: &str = "\
# Directed graph: example
# FromNodeId ToNodeId
0 1
1 2
2 0
10 0
";

    #[test]
    fn reads_snap_format() {
        let (g, ext) = read_edge_list(SAMPLE.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(ext, vec![0, 1, 2, 10]);
    }

    #[test]
    fn directed_read() {
        let opts = ReadOptions {
            directed: true,
            ..Default::default()
        };
        let (g, _) = read_edge_list(SAMPLE.as_bytes(), &opts).unwrap();
        assert!(g.is_directed());
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(0), 2);
    }

    #[test]
    fn weighted_column_parsed() {
        let (g, _) =
            read_edge_list("0 1 2.5\n1 2 0.5\n".as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(g.out_neighbors(0).iter().next().unwrap().weight, 2.5);
    }

    #[test]
    fn bad_line_reports_position() {
        let err =
            read_edge_list("0 1\nnot numbers\n".as_bytes(), &ReadOptions::default()).unwrap_err();
        match err {
            IoError::Parse(2, _) => {}
            other => panic!("expected parse error on line 2, got {other}"),
        }
    }

    #[test]
    fn bad_weights_report_their_line() {
        for bad in ["nan", "inf", "0", "-3"] {
            // A comment, a blank line and a self-loop before the bad line
            // all count toward its line number.
            let text = format!("# header\n\n0 0 1\n0 1 1\n1 2 {bad}\n2 0 1\n");
            match read_edge_list(text.as_bytes(), &ReadOptions::default()) {
                Err(IoError::Parse(5, line)) => assert_eq!(line, format!("1 2 {bad}")),
                other => panic!("weight {bad}: expected a parse error on line 5, got {other:?}"),
            }
        }
    }

    #[test]
    fn overflowing_weight_sums_are_typed_errors() {
        // (lines, directed, overflows): a merged parallel edge, a vertex
        // strength, and the total weight, each past `f64::MAX` from finite
        // weights.
        let cases = [
            ("0 1 1e308\n0 1 1e308\n", true, true),
            ("0 1 1e308\n1 0 1e308\n", false, true),
            ("0 1 1e308\n0 2 1e308\n", true, true),
            ("0 1 1e308\n2 3 1e308\n", true, true),
            // One undirected edge counts twice in `2W`.
            ("0 1 1e308\n", false, true),
            ("0 1 1e308\n", true, false),
        ];
        for (text, directed, overflows) in cases {
            match read_edge_list(text.as_bytes(), &options(directed)) {
                Err(IoError::WeightOverflow(e)) if overflows => {
                    assert!(e.to_string().contains("overflows"), "{e}");
                }
                Ok(_) if !overflows => {}
                other => panic!("{text:?} directed {directed}: got {other:?}"),
            }
        }
    }

    #[test]
    fn round_trip() {
        let (g, _) = read_edge_list(SAMPLE.as_bytes(), &ReadOptions::default()).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, _) = read_edge_list(buf.as_slice(), &ReadOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let (g, _) = read_edge_list("0 0\n0 1\n".as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    /// External ids the hostile-input properties draw from, the largest
    /// two at the top of the `u64` range.
    const IDS: [u64; 6] = [0, 7, 42, 1 << 40, u64::MAX - 1, u64::MAX];

    fn options(directed: bool) -> ReadOptions {
        ReadOptions {
            directed,
            ..ReadOptions::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Repeated arcs (and, undirected, both orientations of an edge)
        // merge into one arc carrying the summed weight. Integer weights
        // keep the sums exact in any order.
        #[test]
        fn duplicate_arcs_merge_to_summed_weight(
            lines in prop::collection::vec((0usize..6, 0usize..6, 0u32..8), 0..60),
            directed in any::<bool>(),
        ) {
            let mut text = String::from("# duplicates\n");
            let mut want: HashMap<(u64, u64), f64> = HashMap::new();
            let mut seen = Vec::new();
            for &(a, b, w) in &lines {
                let (u, v) = (IDS[a], IDS[b]);
                // Weight 0 stands for a two-column line (default weight 1).
                match w {
                    0 => text.push_str(&format!("{u}\t{v}\n")),
                    _ => text.push_str(&format!("{u} {v}  {w}\n")),
                }
                for id in [u, v] {
                    if !seen.contains(&id) {
                        seen.push(id);
                    }
                }
                if u != v {
                    let key = if directed { (u, v) } else { (u.min(v), u.max(v)) };
                    *want.entry(key).or_default() += f64::from(w.max(1));
                }
            }
            let (g, ext) = read_edge_list(text.as_bytes(), &options(directed)).unwrap();
            prop_assert_eq!(&ext, &seen);
            prop_assert_eq!(g.is_directed(), directed);
            let per_edge = if directed { 1 } else { 2 };
            prop_assert_eq!(g.num_arcs(), per_edge * want.len());
            for (u, v, w) in g.arcs() {
                let (eu, ev) = (ext[u as usize], ext[v as usize]);
                let key = if directed { (eu, ev) } else { (eu.min(ev), eu.max(ev)) };
                prop_assert_eq!(want.get(&key).copied(), Some(w));
            }
        }

        // Ids at the top of the `u64` range intern in first-seen order and
        // map back to themselves through the external-id table.
        #[test]
        fn ids_near_u64_max_round_trip(
            lines in prop::collection::vec((0u64..40, 0u64..40), 1..80),
        ) {
            let ids: Vec<(u64, u64)> =
                lines.iter().map(|&(a, b)| (u64::MAX - a, u64::MAX - b)).collect();
            let text: String = ids.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
            let opts = ReadOptions {
                directed: true,
                drop_self_loops: false,
                ..ReadOptions::default()
            };
            let (g, ext) = read_edge_list(text.as_bytes(), &opts).unwrap();
            let mut first_seen = Vec::new();
            for &(u, v) in &ids {
                for id in [u, v] {
                    if !first_seen.contains(&id) {
                        first_seen.push(id);
                    }
                }
            }
            prop_assert_eq!(&ext, &first_seen);
            let internal = |id: u64| ext.iter().position(|&e| e == id).unwrap() as u32;
            for &(u, v) in &ids {
                let (iu, iv) = (internal(u), internal(v));
                prop_assert!(g.out_neighbors(iu).targets().contains(&iv));
            }
        }

        // One past `u64::MAX` is a parse error on its own line, wherever
        // it sits and whichever column holds it.
        #[test]
        fn id_past_u64_max_is_a_parse_error(
            before in prop::collection::vec(0u32..3, 0..20),
            column in 0u32..2,
        ) {
            let mut text = String::new();
            for &kind in &before {
                text.push_str(match kind {
                    0 => "# comment\n",
                    1 => "\n",
                    _ => "18446744073709551615 1\n",
                });
            }
            let bad = match column {
                0 => "18446744073709551616 3",
                _ => "3 18446744073709551616",
            };
            text.push_str(&format!("{bad}\n0 1\n"));
            match read_edge_list(text.as_bytes(), &ReadOptions::default()) {
                Err(IoError::Parse(line, got)) => {
                    prop_assert_eq!(line, before.len() + 1);
                    prop_assert_eq!(got, bad);
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }

        // Lines of hostile tokens, and raw bytes, return `Ok` or a typed
        // error under every option set; they never panic.
        #[test]
        fn hostile_input_never_panics(
            lines in prop::collection::vec(prop::collection::vec(0usize..18, 0..5), 0..30),
            bytes in prop::collection::vec(any::<u8>(), 0..200),
            directed in any::<bool>(),
            drop_self_loops in any::<bool>(),
        ) {
            const TOKENS: [&str; 18] = [
                "0", "1", "18446744073709551615", "18446744073709551616", "-1", "nan",
                "inf", "1e308", "1e-320", "0.0", "abc", "#", "%", "\t", "3.5", "0x10",
                "+5", "1 2 3 4",
            ];
            let text: String = lines
                .iter()
                .map(|l| l.iter().map(|&t| TOKENS[t]).collect::<Vec<_>>().join(" ") + "\n")
                .collect();
            let opts = ReadOptions {
                directed,
                drop_self_loops,
                ..ReadOptions::default()
            };
            for input in [text.as_bytes(), &bytes] {
                if let Ok((g, ext)) = read_edge_list(input, &opts) {
                    prop_assert_eq!(g.num_nodes(), ext.len());
                }
            }
        }
    }
}
