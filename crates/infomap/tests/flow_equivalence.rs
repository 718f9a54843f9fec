//! Equivalence: the one-CSR flow network equals the two-direction build.
//!
//! On undirected input, `FlowNetwork::from_graph` builds the flow rows in
//! one pass over the graph's symmetric rows and stores no in-CSR, and
//! `coarsen` of a symmetric network merges each super-edge once and
//! mirrors it. Both must equal, bit for bit, what the general arc-list
//! path (`FlowNetwork::from_arcs*`, which counting-sorts both directions
//! and byte-compares them) builds from the two-direction arc emission:
//! node flows, out- and in-rows, both per-node totals and the symmetry
//! flag.
//!
//! Graphs carry self-loops, isolated vertices, parallel edges merged by
//! the builder, and weights spanning twelve orders of magnitude. The large
//! case spans several coarsening chunks; CI runs this suite at
//! `RAYON_NUM_THREADS=1` and `8`, and the thread count must not change a
//! bit.

use asa_graph::{CsrGraph, GraphBuilder, NodeId, Partition};
use asa_infomap::pagerank::undirected_stationary;
use asa_infomap::{FlowNetwork, InfomapConfig};
use proptest::prelude::*;

/// An undirected graph from raw triples: `(u, v, mantissa, exponent)`
/// gives weight `mantissa · 2^(exponent − 20)`. Self-loops stay, repeated
/// pairs merge in the builder, and vertices no triple names are isolated.
fn build_graph(edges: &[(u32, u32, u32, u32)], nodes: u32) -> CsrGraph {
    let mut b = GraphBuilder::undirected(nodes as usize);
    for &(u, v, m, e) in edges {
        let w = f64::from(m) * 2f64.powi(e as i32 - 20);
        b.add_edge(u % nodes, v % nodes, w);
    }
    b.build()
}

/// The two-direction flow build: every edge emitted once per direction
/// with the value its lower endpoint's scale gives, then assembled by the
/// general arc-list path.
fn reference_flow(g: &CsrGraph) -> FlowNetwork {
    let node_flow = undirected_stationary(g);
    let mut arcs = Vec::new();
    for u in g.nodes() {
        let s = g.out_weight(u);
        if s <= 0.0 {
            continue;
        }
        let scale = node_flow[u as usize] / s;
        for e in g.out_neighbors(u).iter() {
            if u < e.target {
                let f = e.weight * scale;
                arcs.push((u, e.target, f));
                arcs.push((e.target, u, f));
            }
        }
    }
    FlowNetwork::from_arcs(g.num_nodes() as u32, node_flow, arcs)
}

/// The two-direction coarsening: per 8192-node chunk, the cross-module
/// arcs seen from their lower community, sorted by (src, dst, flow bits)
/// and merged, then emitted in both directions and assembled by the
/// general arc-list path.
fn reference_coarsen(f: &FlowNetwork, p: &Partition) -> FlowNetwork {
    const CHUNK: usize = 8192;
    let m = p.num_communities();
    let mut node_flow = vec![0.0f64; m];
    let mut node_weight = vec![0u64; m];
    for u in 0..f.num_nodes() as NodeId {
        let c = p.community_of(u) as usize;
        node_flow[c] += f.node_flow(u);
        node_weight[c] += f.node_weight(u);
    }
    let mut arcs = Vec::new();
    for lo in (0..f.num_nodes()).step_by(CHUNK) {
        let hi = (lo + CHUNK).min(f.num_nodes());
        let mut triples: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for u in lo as NodeId..hi as NodeId {
            let cu = p.community_of(u);
            for (v, fl) in f.out_arcs(u) {
                let cv = p.community_of(v);
                if cu < cv {
                    triples.push((cu, cv, fl));
                }
            }
        }
        triples.sort_unstable_by_key(|&(s, t, fl)| (s, t, fl.to_bits()));
        let mut merged: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for (s, t, fl) in triples {
            match merged.last_mut() {
                Some(last) if last.0 == s && last.1 == t => last.2 += fl,
                _ => merged.push((s, t, fl)),
            }
        }
        let mirrored: Vec<_> = merged.iter().map(|&(s, t, fl)| (t, s, fl)).collect();
        arcs.extend(merged);
        arcs.extend(mirrored);
    }
    FlowNetwork::from_arcs_weighted(m as u32, node_flow, node_weight, arcs)
}

fn bits(arcs: impl Iterator<Item = (NodeId, f64)>) -> Vec<(NodeId, u64)> {
    arcs.map(|(v, f)| (v, f.to_bits())).collect()
}

/// Asserts two flow networks are equal bit for bit.
fn assert_same(a: &FlowNetwork, b: &FlowNetwork) {
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(a.num_arcs(), b.num_arcs());
    assert_eq!(a.is_symmetric(), b.is_symmetric());
    for u in 0..a.num_nodes() as NodeId {
        assert_eq!(
            a.node_flow(u).to_bits(),
            b.node_flow(u).to_bits(),
            "node flow {u}"
        );
        assert_eq!(a.node_weight(u), b.node_weight(u), "node weight {u}");
        assert_eq!(bits(a.out_arcs(u)), bits(b.out_arcs(u)), "out-row {u}");
        assert_eq!(bits(a.in_arcs(u)), bits(b.in_arcs(u)), "in-row {u}");
        assert_eq!(a.out_flow_total(u).to_bits(), b.out_flow_total(u).to_bits());
        assert_eq!(a.in_flow_total(u).to_bits(), b.in_flow_total(u).to_bits());
    }
}

/// Asserts a network is symmetric and its in-direction is its out-rows.
fn assert_one_csr(f: &FlowNetwork) {
    assert!(f.is_symmetric());
    for u in 0..f.num_nodes() as NodeId {
        assert_eq!(bits(f.in_arcs(u)), bits(f.out_arcs(u)));
        assert_eq!(f.in_flow_total(u).to_bits(), f.out_flow_total(u).to_bits());
        assert_eq!(f.in_degree(u), f.out_degree(u));
    }
}

/// Every stored arc of `f` (both directions appear, as rows hold them).
fn arc_list(f: &FlowNetwork) -> Vec<(NodeId, NodeId, f64)> {
    (0..f.num_nodes() as NodeId)
        .flat_map(|u| f.out_arcs(u).map(move |(v, fl)| (u, v, fl)))
        .collect()
}

/// A compact partition of `n` vertices into at most `k` modules.
fn partition(labels: &[u32], n: usize, k: u32) -> Partition {
    Partition::from_labels((0..n).map(|u| labels[u % labels.len()] % k).collect())
}

fn check_coarsen(f: &FlowNetwork, p: &Partition) {
    let c = f.coarsen(p);
    assert_one_csr(&c);
    assert_same(&c, &reference_coarsen(f, p));
    let weights = (0..c.num_nodes() as NodeId)
        .map(|u| c.node_weight(u))
        .collect();
    let again = FlowNetwork::from_arcs_weighted(
        c.num_nodes() as u32,
        c.node_flows().to_vec(),
        weights,
        arc_list(&c),
    );
    assert_same(&c, &again);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn undirected_from_graph_matches_two_direction_build(
        edges in prop::collection::vec((0u32..80, 0u32..80, 1u32..1000, 0u32..40), 0..300),
        nodes in 1u32..80,
    ) {
        let g = build_graph(&edges, nodes);
        let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        assert_same(&f, &reference_flow(&g));
        assert_one_csr(&f);
    }

    #[test]
    fn symmetric_coarsen_matches_two_direction_build(
        edges in prop::collection::vec((0u32..80, 0u32..80, 1u32..1000, 0u32..40), 1..300),
        nodes in 2u32..80,
        labels in prop::collection::vec(0u32..1000, 1..80),
        k in 1u32..20,
    ) {
        let g = build_graph(&edges, nodes);
        let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let p = partition(&labels, f.num_nodes(), k);
        check_coarsen(&f, &p);
        // A second level coarsens a coarsened network.
        let c = f.coarsen(&p);
        let q = partition(&labels[labels.len() / 2..], c.num_nodes(), k.div_ceil(2));
        check_coarsen(&c, &q);
    }
}

/// Several coarsening chunks, so chunk partials merge across chunks and
/// rayon's thread count could matter if the merge order depended on it.
#[test]
fn multi_chunk_coarsen_matches_two_direction_build() {
    let n = 20_000u32;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let edges: Vec<_> = (0..120_000)
        .map(|_| {
            let r = next();
            let u = (r % u64::from(n)) as u32;
            // Mostly local edges, some long-range ones.
            let v = if r >> 60 == 0 {
                ((r >> 20) % u64::from(n)) as u32
            } else {
                (u + ((r >> 20) % 64) as u32) % n
            };
            (u, v, ((r >> 40) % 1000 + 1) as u32, ((r >> 52) % 40) as u32)
        })
        .collect();
    let g = build_graph(&edges, n);
    let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
    assert_same(&f, &reference_flow(&g));
    let labels: Vec<u32> = (0..n).map(|u| u / 37 + (next() % 3) as u32).collect();
    let p = Partition::from_labels(labels);
    check_coarsen(&f, &p);
}

/// A directed graph whose arcs all come in reciprocal pairs keeps a
/// correct transpose: PageRank flows differ per direction, so the network
/// is not symmetric, and every out-arc appears as the matching in-arc.
#[test]
fn reciprocal_directed_graph_keeps_its_transpose() {
    let mut b = GraphBuilder::directed(7);
    for &(u, v, w) in &[
        (0, 1, 1.0),
        (1, 2, 4.0),
        (2, 0, 2.0),
        (2, 3, 1.0),
        (3, 4, 3.0),
        (4, 5, 1.0),
        (5, 6, 0.5),
    ] {
        b.add_edge(u, v, w);
        b.add_edge(v, u, w);
    }
    let f = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
    assert!(!f.is_symmetric());
    let mut transposed = 0;
    for u in 0..7 {
        for (v, fl) in f.out_arcs(u) {
            assert!(f
                .in_arcs(v)
                .any(|(s, g)| s == u && g.to_bits() == fl.to_bits()));
            transposed += 1;
        }
        let in_sum: f64 = f.in_arcs(u).map(|(_, fl)| fl).sum();
        assert_eq!(in_sum.to_bits(), f.in_flow_total(u).to_bits());
    }
    assert_eq!(transposed, 14);
    let in_arcs: usize = (0..7).map(|u| f.in_degree(u)).sum();
    assert_eq!(in_arcs, 14);
    // A coarsening of it stays directed, with a consistent transpose.
    let c = f.coarsen(&Partition::from_labels(vec![0, 0, 0, 1, 1, 2, 2]));
    for u in 0..c.num_nodes() as NodeId {
        for (v, fl) in c.out_arcs(u) {
            assert!(c
                .in_arcs(v)
                .any(|(s, g)| s == u && g.to_bits() == fl.to_bits()));
        }
    }
}

/// Reciprocal arcs with equal flows (a uniform bidirected cycle) are
/// detected as symmetric by the general path and keep one CSR.
#[test]
fn reciprocal_uniform_directed_cycle_collapses_to_one_csr() {
    let n = 6;
    let mut b = GraphBuilder::directed(n);
    for u in 0..n as u32 {
        let v = (u + 1) % n as u32;
        b.add_edge(u, v, 1.0);
        b.add_edge(v, u, 1.0);
    }
    let f = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
    assert_one_csr(&f);
    assert_eq!(f.num_arcs(), 2 * n);
}
