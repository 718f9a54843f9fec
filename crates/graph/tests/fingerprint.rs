//! The fingerprint contract: `CsrGraph::fingerprint` is memoized on the
//! graph, but its value is exactly FNV-1a over the graph's own arrays on
//! every constructor path, and the byte stream never changes (cache keys,
//! home shards and delta-chain heads all derive from it).

use std::sync::Arc;

use asa_graph::binio::{read_graph, write_graph};
use asa_graph::{degree_order, renumber, CsrGraph, DeltaGraph, EdgeDelta, Fnv64, GraphBuilder};

/// A weighted graph with a 2-cycle, a self-loop and an isolated vertex.
const ARCS: &[(u32, u32, f64)] = &[
    (0, 1, 1.0),
    (1, 2, 2.5),
    (2, 0, 0.5),
    (3, 4, 1.0),
    (4, 3, 3.0),
    (2, 3, 1.5),
    (4, 4, 0.25),
];

fn build(directed: bool) -> CsrGraph {
    let mut b = if directed {
        GraphBuilder::directed(6)
    } else {
        GraphBuilder::undirected(6)
    };
    for &(u, v, w) in ARCS {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// The fingerprint byte stream, restated from the public arrays: node
/// count, directedness, then the out-adjacency offsets, targets and weight
/// bits, each as a little-endian u64.
fn reference(g: &CsrGraph) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(g.num_nodes() as u64);
    h.write_u64(u64::from(g.is_directed()));
    let (offsets, targets, weights) = g.out_csr();
    offsets.iter().for_each(|&o| h.write_u64(o));
    targets.iter().for_each(|&t| h.write_u64(u64::from(t)));
    weights.iter().for_each(|&w| h.write_f64(w));
    h.finish()
}

/// The first call fills the memo and the second reads it: both must equal
/// the reference.
fn assert_memo_matches(g: &CsrGraph, path: &str) {
    let want = reference(g);
    assert_eq!(g.fingerprint(), want, "{path}: first call");
    assert_eq!(g.fingerprint(), want, "{path}: memoized call");
}

#[test]
fn fingerprint_values_are_pinned() {
    // Recorded before the fingerprint was memoized; a change here moves
    // every cache key, home shard and chain head.
    assert_eq!(build(true).fingerprint(), 0x0eae_efec_0821_990e);
    assert_eq!(build(false).fingerprint(), 0xc2cc_fb3f_b316_10c4);
}

#[test]
fn memo_matches_the_arrays_on_every_constructor_path() {
    for directed in [true, false] {
        let g = build(directed);
        let tag = if directed { "directed" } else { "undirected" };
        assert_memo_matches(&g, &format!("builder {tag}"));

        let mut blob = Vec::new();
        write_graph(&g, &mut blob).unwrap();
        let back = read_graph(blob.as_slice()).unwrap();
        assert_memo_matches(&back, &format!("binio {tag}"));
        assert_eq!(back.fingerprint(), g.fingerprint());

        let parts = |(o, t, w): (&[u64], &[u32], &[f64])| (o.to_vec(), t.to_vec(), w.to_vec());
        let transpose = directed.then(|| parts(g.in_csr()));
        let raw = CsrGraph::try_from_csr_parts(6, parts(g.out_csr()), transpose).unwrap();
        assert_memo_matches(&raw, &format!("try_from_csr_parts {tag}"));

        let perm = degree_order(&g);
        let renumbered = renumber(&g, &perm);
        assert_memo_matches(&renumbered, &format!("renumber {tag}"));
        assert_ne!(renumbered.fingerprint(), g.fingerprint());

        let mut dg = DeltaGraph::new(Arc::new(g));
        let mut delta = EdgeDelta::new();
        delta.insert(5, 0, 2.0).delete(1, 2);
        let head = dg.apply(&delta);
        let merged = dg.materialize();
        assert_memo_matches(&merged, &format!("materialize {tag}"));
        dg.rebase(Arc::new(dg.materialize()));
        let base = Arc::clone(dg.base());
        assert_memo_matches(&base, &format!("compact {tag}"));
        assert_eq!(base.fingerprint(), merged.fingerprint());
        // Compaction rebases the overlay without moving the chain head.
        assert_eq!(dg.chain_fingerprint(), head);
    }
}
