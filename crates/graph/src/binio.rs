//! Compact binary serialization of graphs and partitions.
//!
//! The harness regenerates large synthetic stand-ins for every experiment
//! binary; caching them as binary CSR dumps makes repeated runs start in
//! milliseconds. The format is little-endian, versioned, and
//! self-describing enough to fail loudly on mismatch:
//!
//! ```text
//! magic "ASAG" | version u32 (= 2) | num_nodes u32 | directed u8 (0 or 1) |
//! directed:   out section, then in section (the transpose)
//! undirected: one upper-triangle section (row u holds only targets >= u)
//! section = arcs u64 | offsets [u64; num_nodes + 1] | targets [u32; arcs] |
//!           weights [f64; arcs]
//! ```
//!
//! Every row is strictly increasing by target. An undirected graph is
//! stored once, as its upper triangle, and the reader mirrors it back into
//! symmetric rows, so no file can describe an asymmetric undirected graph.
//! The reader treats its input as hostile: every length is bounded by the
//! bytes remaining before anything is allocated, and arrays that break a
//! [`CsrGraph`] invariant are rejected with [`io::ErrorKind::InvalidData`].
//!
//! Partitions serialize as `magic "ASAP" | version u32 (= 1) | len u32 |
//! labels [u32]`.

use std::io::{self, Read, Write};

use crate::csr::{CsrArrays, CsrGraph};
use crate::partition::Partition;

const GRAPH_MAGIC: &[u8; 4] = b"ASAG";
const PARTITION_MAGIC: &[u8; 4] = b"ASAP";
const GRAPH_VERSION: u32 = 2;
const PARTITION_VERSION: u32 = 1;

fn invalid(why: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.into())
}

fn put_section(buf: &mut Vec<u8>, offsets: &[u64], targets: &[u32], weights: &[f64]) {
    buf.reserve(8 + offsets.len() * 8 + targets.len() * 12);
    buf.extend_from_slice(&(targets.len() as u64).to_le_bytes());
    for &x in offsets {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    for &t in targets {
        buf.extend_from_slice(&t.to_le_bytes());
    }
    for &w in weights {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// The rows of an undirected graph cut to their targets `>= row`.
fn upper_triangle(graph: &CsrGraph) -> CsrArrays {
    let (offsets, targets, weights) = graph.out_csr();
    let mut upper: CsrArrays = (Vec::with_capacity(offsets.len()), Vec::new(), Vec::new());
    upper.0.push(0);
    for u in graph.nodes() {
        let (lo, hi) = (
            offsets[u as usize] as usize,
            offsets[u as usize + 1] as usize,
        );
        let mid = lo + targets[lo..hi].partition_point(|&v| v < u);
        upper.1.extend_from_slice(&targets[mid..hi]);
        upper.2.extend_from_slice(&weights[mid..hi]);
        upper.0.push(upper.1.len() as u64);
    }
    upper
}

/// A cursor over an in-memory blob that never reads past its end.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated blob",
            ));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn bytes<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes()?))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes()?))
    }

    /// `count` little-endian elements of `N` bytes each, parsed in bulk.
    /// The byte length is checked against what remains before the output
    /// is allocated.
    fn array<const N: usize, T>(
        &mut self,
        count: u64,
        parse: fn([u8; N]) -> T,
    ) -> io::Result<Vec<T>> {
        let len = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(N))
            .ok_or_else(|| invalid("array length overflows"))?;
        Ok(self
            .take(len)?
            .chunks_exact(N)
            .map(|c| parse(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    fn section(&mut self, num_nodes: u32) -> io::Result<CsrArrays> {
        let arcs = self.u64()?;
        let offsets = self.array(u64::from(num_nodes) + 1, u64::from_le_bytes)?;
        let targets = self.array(arcs, u32::from_le_bytes)?;
        let weights = self.array(arcs, f64::from_le_bytes)?;
        Ok((offsets, targets, weights))
    }
}

/// Serializes a graph to a writer.
pub fn write_graph<W: Write>(graph: &CsrGraph, mut writer: W) -> io::Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(GRAPH_MAGIC);
    buf.extend_from_slice(&GRAPH_VERSION.to_le_bytes());
    buf.extend_from_slice(&(graph.num_nodes() as u32).to_le_bytes());
    buf.push(graph.is_directed() as u8);
    if graph.is_directed() {
        let (oo, ot, ow) = graph.out_csr();
        put_section(&mut buf, oo, ot, ow);
        let (io_, it, iw) = graph.in_csr();
        put_section(&mut buf, io_, it, iw);
    } else {
        let (uo, ut, uw) = upper_triangle(graph);
        put_section(&mut buf, &uo, &ut, &uw);
    }
    writer.write_all(&buf)
}

/// Deserializes a graph written by [`write_graph`]. A malformed blob
/// returns an error of kind `InvalidData` or `UnexpectedEof`; it never
/// panics.
pub fn read_graph<R: Read>(mut reader: R) -> io::Result<CsrGraph> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut r = Reader(&raw);
    if r.take(4).ok() != Some(&GRAPH_MAGIC[..]) {
        return Err(invalid("bad graph magic"));
    }
    let version = r.u32()?;
    if version != GRAPH_VERSION {
        return Err(invalid(format!("unsupported graph blob version {version}")));
    }
    let num_nodes = r.u32()?;
    let directed = match r.bytes::<1>()? {
        [0] => false,
        [1] => true,
        [b] => return Err(invalid(format!("bad directed flag {b}"))),
    };
    let out = r.section(num_nodes)?;
    let transpose = if directed {
        Some(r.section(num_nodes)?)
    } else {
        None
    };
    if !r.0.is_empty() {
        return Err(invalid("trailing bytes after graph blob"));
    }
    let graph = match transpose {
        Some(t) => CsrGraph::try_from_csr_parts(num_nodes, out, Some(t)),
        None => CsrGraph::try_from_upper_triangle(num_nodes, out),
    };
    graph.map_err(|e| invalid(format!("invalid graph blob: {e}")))
}

/// Serializes a partition to a writer.
pub fn write_partition<W: Write>(partition: &Partition, mut writer: W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(12 + partition.len() * 4);
    buf.extend_from_slice(PARTITION_MAGIC);
    buf.extend_from_slice(&PARTITION_VERSION.to_le_bytes());
    buf.extend_from_slice(&(partition.len() as u32).to_le_bytes());
    for &l in partition.labels() {
        buf.extend_from_slice(&l.to_le_bytes());
    }
    writer.write_all(&buf)
}

/// Deserializes a partition written by [`write_partition`]. Every label
/// must be below the partition's length, as the densified labels a
/// [`Partition`] holds are; a malformed blob returns an error of kind
/// `InvalidData` or `UnexpectedEof` and never panics.
pub fn read_partition<R: Read>(mut reader: R) -> io::Result<Partition> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut r = Reader(&raw);
    if raw.len() < 12 || r.take(4)? != &PARTITION_MAGIC[..] {
        return Err(invalid("bad partition magic"));
    }
    let version = r.u32()?;
    if version != PARTITION_VERSION {
        return Err(invalid(format!(
            "unsupported partition blob version {version}"
        )));
    }
    let len = r.u32()?;
    let labels = r.array(u64::from(len), u32::from_le_bytes)?;
    if !r.0.is_empty() {
        return Err(invalid("trailing bytes after partition blob"));
    }
    if labels.iter().any(|&l| l >= len) {
        return Err(invalid("partition label out of range"));
    }
    Ok(Partition::from_labels(labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, planted_partition, PlantedConfig};
    use crate::GraphBuilder;

    #[test]
    fn graph_round_trip() {
        let g = barabasi_albert(500, 3, 7);
        let mut blob = Vec::new();
        write_graph(&g, &mut blob).unwrap();
        let back = read_graph(blob.as_slice()).unwrap();
        assert_eq!(g.num_nodes(), back.num_nodes());
        assert_eq!(g.num_edges(), back.num_edges());
        assert_eq!(
            g.arcs().collect::<Vec<_>>(),
            back.arcs().collect::<Vec<_>>()
        );
        assert_eq!(g.is_directed(), back.is_directed());
    }

    #[test]
    fn directed_round_trip() {
        use crate::builder::GraphBuilder;
        let mut b = GraphBuilder::directed(4);
        b.add_edge(0, 1, 2.5);
        b.add_edge(3, 0, 1.0);
        let g = b.build();
        let mut blob = Vec::new();
        write_graph(&g, &mut blob).unwrap();
        let back = read_graph(blob.as_slice()).unwrap();
        assert!(back.is_directed());
        assert_eq!(back.in_degree(0), 1);
        assert_eq!(back.out_neighbors(0).iter().next().unwrap().weight, 2.5);
    }

    #[test]
    fn partition_round_trip() {
        let (_, p) = planted_partition(
            &PlantedConfig {
                communities: 3,
                community_size: 10,
                k_in: 4.0,
                k_out: 1.0,
            },
            2,
        );
        let mut blob = Vec::new();
        write_partition(&p, &mut blob).unwrap();
        let back = read_partition(blob.as_slice()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn corrupt_blobs_rejected() {
        assert!(read_graph(&b"nope"[..]).is_err());
        assert!(read_partition(&b"ASAPxxxx"[..]).is_err());
        // Truncated after the header.
        let g = barabasi_albert(50, 2, 1);
        let mut blob = Vec::new();
        write_graph(&g, &mut blob).unwrap();
        blob.truncate(blob.len() / 2);
        assert!(read_graph(blob.as_slice()).is_err());
    }

    #[test]
    fn partition_labels_beyond_len_are_invalid_data() {
        let mut blob = Vec::new();
        blob.extend_from_slice(PARTITION_MAGIC);
        for x in [PARTITION_VERSION, 3, 0, 0xFFFF_FFF0, 1] {
            blob.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(blob.len(), 24);
        let err = read_partition(blob.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let mut trailing = Vec::new();
        write_partition(&Partition::singletons(3), &mut trailing).unwrap();
        trailing.push(0);
        let err = read_partition(trailing.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn every_partition_bit_flip_returns() {
        let mut blob = Vec::new();
        write_partition(&Partition::from_labels(vec![0, 1, 0, 2, 1]), &mut blob).unwrap();
        for bit in 0..blob.len() * 8 {
            let mut flipped = blob.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(p) = read_partition(flipped.as_slice()) {
                assert!(p.labels().iter().all(|&l| (l as usize) < p.len()));
            }
        }
    }

    #[test]
    fn version_checked() {
        let g = barabasi_albert(20, 2, 1);
        let mut blob = Vec::new();
        write_graph(&g, &mut blob).unwrap();
        blob[4] = 99; // clobber version
        let err = read_graph(blob.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    /// Reads `blob`, which must return rather than panic. A graph it
    /// accepts must satisfy every [`CsrGraph`] invariant.
    fn read_checked(blob: &[u8]) -> bool {
        match read_graph(blob) {
            Ok(g) => {
                let parts =
                    |(o, t, w): (&[u64], &[u32], &[f64])| (o.to_vec(), t.to_vec(), w.to_vec());
                let transpose = g.is_directed().then(|| parts(g.in_csr()));
                let n = g.num_nodes() as u32;
                assert!(CsrGraph::try_from_csr_parts(n, parts(g.out_csr()), transpose).is_ok());
                true
            }
            Err(e) => {
                let kind = e.kind();
                assert!(
                    matches!(
                        kind,
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "{kind:?}"
                );
                false
            }
        }
    }

    /// A 3-node graph with the edges 0–1 and 1–2.
    fn small_blob(directed: bool) -> Vec<u8> {
        use crate::builder::GraphBuilder;
        let mut b = if directed {
            GraphBuilder::directed(3)
        } else {
            GraphBuilder::undirected(3)
        };
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 2, 2.0);
        let mut blob = Vec::new();
        write_graph(&b.build(), &mut blob).unwrap();
        blob
    }

    /// A header followed by raw sections, for hand-made malformed blobs.
    fn raw_blob(num_nodes: u32, directed: bool, sections: &[(&[u64], &[u32], &[f64])]) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(GRAPH_MAGIC);
        blob.extend_from_slice(&GRAPH_VERSION.to_le_bytes());
        blob.extend_from_slice(&num_nodes.to_le_bytes());
        blob.push(directed as u8);
        for &(o, t, w) in sections {
            put_section(&mut blob, o, t, w);
        }
        blob
    }

    #[test]
    fn every_single_bit_flip_returns() {
        for directed in [false, true] {
            let blob = small_blob(directed);
            let mut accepted = 0;
            for bit in 0..blob.len() * 8 {
                let mut flipped = blob.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                accepted += usize::from(read_checked(&flipped));
            }
            // Flipping a low weight bit of the upper triangle still
            // describes a valid undirected graph.
            assert!(directed || accepted > 0);
        }
    }

    #[test]
    fn huge_lengths_are_errors_not_allocations() {
        for arcs in [0x1555_5555_5555_5556u64, u64::MAX, u64::MAX / 4 + 1] {
            let mut blob = small_blob(false);
            blob[13..21].copy_from_slice(&arcs.to_le_bytes());
            assert!(read_graph(blob.as_slice()).is_err(), "arcs {arcs:#x}");
        }
        let mut blob = small_blob(true);
        blob[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_graph(blob.as_slice()).is_err());
    }

    #[test]
    fn malformed_rows_are_invalid_data() {
        let bad = [
            // Duplicated target in row 0.
            raw_blob(2, false, &[(&[0, 2, 2], &[1, 1], &[1.0, 1.0])]),
            // Lower-triangle target in an undirected blob.
            raw_blob(2, false, &[(&[0, 0, 1], &[0], &[1.0])]),
            // Offsets that run backwards.
            raw_blob(2, false, &[(&[0, 1, 0], &[1], &[1.0])]),
            // Target out of range.
            raw_blob(2, false, &[(&[0, 1, 1], &[7], &[1.0])]),
            // A NaN weight.
            raw_blob(2, false, &[(&[0, 1, 1], &[1], &[f64::NAN])]),
            // An in-section that is not the transpose of the out-section.
            raw_blob(
                2,
                true,
                &[(&[0, 1, 1], &[1], &[1.0]), (&[0, 1, 1], &[1], &[1.0])],
            ),
        ];
        for blob in &bad {
            let err = read_graph(blob.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        let mut trailing = small_blob(false);
        trailing.push(0);
        assert_eq!(
            read_graph(trailing.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn undirected_blob_stores_the_upper_triangle_once() {
        let g = barabasi_albert(300, 4, 3);
        assert!(!g.is_directed());
        let mut blob = Vec::new();
        write_graph(&g, &mut blob).unwrap();
        let header = 13 + 8 + (g.num_nodes() + 1) * 8;
        assert_eq!(blob.len(), header + g.num_edges() * 12);
        let back = read_graph(blob.as_slice()).unwrap();
        assert_eq!(
            g.arcs().collect::<Vec<_>>(),
            back.arcs().collect::<Vec<_>>()
        );
        assert_eq!(g.fingerprint(), back.fingerprint());
    }

    #[test]
    fn upper_triangle_whose_mirrored_total_overflows_is_an_error() {
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(0, 1, 1.0);
        let mut blob = Vec::new();
        write_graph(&b.build(), &mut blob).unwrap();
        // The one stored weight is the blob's last eight bytes. It is
        // finite, but the mirrored rows hold it twice.
        let at = blob.len() - 8;
        blob[at..].copy_from_slice(&1e308f64.to_le_bytes());
        let err = read_graph(blob.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"), "{err}");
    }
}
