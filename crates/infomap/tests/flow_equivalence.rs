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
//! On directed input, the in-rows are the counting-pass transpose of the
//! merged out-rows (`asa_graph::csr::transpose`). `from_graph` and
//! `coarsen` must equal, bit for bit, a test-local arc-list build that
//! buckets the out-arcs into rows, then the reversed out-arcs into the
//! in-rows, sorting and merging every row: node flows, both row
//! directions, both totals and the symmetry flag. A pinned codelength and
//! partition hash of one directed R-MAT run guard the whole directed path.
//!
//! Graphs carry self-loops, isolated or dangling vertices, parallel edges
//! merged by the builder, reciprocal pairs, and weights spanning twelve
//! orders of magnitude. The large cases span several coarsening chunks; CI
//! runs this suite at `RAYON_NUM_THREADS=1` and `8`, and the thread count
//! must not change a bit.

use asa_graph::generators::{rmat, RmatConfig};
use asa_graph::{fnv1a64, CsrArrays, CsrGraph, GraphBuilder, NodeId, Partition};
use asa_infomap::pagerank::{pagerank, undirected_stationary};
use asa_infomap::{detect_communities, FlowNetwork, InfomapConfig};
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

/// A directed graph from raw triples, as [`build_graph`]. Vertices below
/// `dangling` emit no arcs, so unless a self-loop is all they have they
/// are dangling. An even mantissa adds the reciprocal arc as well.
fn build_digraph(edges: &[(u32, u32, u32, u32)], nodes: u32, dangling: u32) -> CsrGraph {
    let mut b = GraphBuilder::directed(nodes as usize);
    for &(u, v, m, e) in edges {
        let w = f64::from(m) * 2f64.powi(e as i32 - 20);
        let (u, v) = (u % nodes, v % nodes);
        if u >= dangling {
            b.add_edge(u, v, w);
        }
        if m % 2 == 0 && v >= dangling {
            b.add_edge(v, u, w);
        }
    }
    b.build()
}

/// The arc-list CSR build: bucket arcs by source in stream order, sort
/// each row by (target, flow bits) and merge duplicate targets by summing.
fn merged_rows(n: usize, arcs: &[(NodeId, NodeId, f64)]) -> CsrArrays {
    let mut rows: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
    for &(u, v, f) in arcs {
        rows[u as usize].push((v, f));
    }
    let (mut offsets, mut targets, mut flows) = (vec![0u64], Vec::new(), Vec::new());
    for mut row in rows {
        row.sort_by_key(|&(v, f)| (v, f.to_bits()));
        let start = targets.len();
        for (v, f) in row {
            if targets.len() > start && targets.last() == Some(&v) {
                *flows.last_mut().unwrap() += f;
            } else {
                targets.push(v);
                flows.push(f);
            }
        }
        offsets.push(targets.len() as u64);
    }
    (offsets, targets, flows)
}

fn row((offsets, targets, flows): &CsrArrays, u: usize) -> Vec<(NodeId, u64)> {
    let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
    (lo..hi).map(|i| (targets[i], flows[i].to_bits())).collect()
}

fn row_sum((offsets, _, flows): &CsrArrays, u: usize) -> f64 {
    flows[offsets[u] as usize..offsets[u + 1] as usize]
        .iter()
        .sum()
}

/// A directed flow network as the arc-list path builds it.
struct DirectedReference {
    node_flow: Vec<f64>,
    node_weight: Vec<u64>,
    out: CsrArrays,
    inn: CsrArrays,
}

impl DirectedReference {
    /// Self-loops dropped, out-rows merged from `arcs`, in-rows merged from
    /// the reversed out-rows.
    fn new(node_flow: Vec<f64>, node_weight: Vec<u64>, arcs: &[(NodeId, NodeId, f64)]) -> Self {
        let n = node_flow.len();
        let arcs: Vec<_> = arcs.iter().copied().filter(|a| a.0 != a.1).collect();
        let out = merged_rows(n, &arcs);
        let (offsets, targets, flows) = &out;
        let reversed: Vec<_> = (0..n)
            .flat_map(|u| {
                (offsets[u] as usize..offsets[u + 1] as usize)
                    .map(move |i| (targets[i], u as NodeId, flows[i]))
            })
            .collect();
        let inn = merged_rows(n, &reversed);
        Self {
            node_flow,
            node_weight,
            out,
            inn,
        }
    }

    /// Asserts `f` equals this build bit for bit; symmetric exactly when
    /// both row directions are byte-equal.
    fn assert_matches(&self, f: &FlowNetwork) {
        let n = self.node_flow.len();
        assert_eq!(f.num_nodes(), n);
        assert_eq!(f.num_arcs(), self.out.1.len());
        let symmetric = (0..n).all(|u| row(&self.out, u) == row(&self.inn, u));
        assert_eq!(f.is_symmetric(), symmetric);
        for u in 0..n {
            let id = u as NodeId;
            assert_eq!(f.node_flow(id).to_bits(), self.node_flow[u].to_bits());
            assert_eq!(f.node_weight(id), self.node_weight[u]);
            assert_eq!(bits(f.out_arcs(id)), row(&self.out, u), "out-row {u}");
            assert_eq!(bits(f.in_arcs(id)), row(&self.inn, u), "in-row {u}");
            assert_eq!(
                f.out_flow_total(id).to_bits(),
                row_sum(&self.out, u).to_bits()
            );
            assert_eq!(
                f.in_flow_total(id).to_bits(),
                row_sum(&self.inn, u).to_bits()
            );
        }
    }
}

/// The directed flow build: PageRank node flows, `F(u→v) = w · p_u / s_u`
/// for every arc of a source with positive strength.
fn reference_directed_flow(g: &CsrGraph) -> DirectedReference {
    let cfg = InfomapConfig::default();
    let node_flow = pagerank(g, cfg.teleport, cfg.pagerank_tol, cfg.pagerank_max_iters).rank;
    let mut arcs = Vec::new();
    for u in g.nodes() {
        let s = g.out_weight(u);
        if s > 0.0 {
            let scale = node_flow[u as usize] / s;
            arcs.extend(
                g.out_neighbors(u)
                    .iter()
                    .map(|e| (u, e.target, e.weight * scale)),
            );
        }
    }
    DirectedReference::new(node_flow, vec![1; g.num_nodes()], &arcs)
}

/// The directed coarsening: per 8192-node chunk, every cross-module arc,
/// sorted by (src, dst, flow bits) and merged, then built by the arc-list
/// path.
fn reference_directed_coarsen(f: &FlowNetwork, p: &Partition) -> DirectedReference {
    const CHUNK: usize = 8192;
    let m = p.num_communities();
    let mut node_flow = vec![0.0f64; m];
    let mut node_weight = vec![0u64; m];
    for u in 0..f.num_nodes() as NodeId {
        let c = p.community_of(u) as usize;
        node_flow[c] += f.node_flow(u);
        node_weight[c] += f.node_weight(u);
    }
    let mut arcs: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for lo in (0..f.num_nodes()).step_by(CHUNK) {
        let hi = (lo + CHUNK).min(f.num_nodes());
        let mut triples: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for u in lo as NodeId..hi as NodeId {
            let cu = p.community_of(u);
            for (v, fl) in f.out_arcs(u) {
                let cv = p.community_of(v);
                if cu != cv {
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
        arcs.extend(merged);
    }
    DirectedReference::new(node_flow, node_weight, &arcs)
}

/// Coarsens `f` by `p` and checks the result against the reference for
/// its kind: the two-direction build when `f` is symmetric, else the
/// directed arc-list build. Returns the coarse network.
fn check_directed_coarsen(f: &FlowNetwork, p: &Partition) -> FlowNetwork {
    let c = f.coarsen(p);
    if f.is_symmetric() {
        check_coarsen(f, p);
    } else {
        reference_directed_coarsen(f, p).assert_matches(&c);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn directed_from_graph_and_coarsen_match_arc_list_build(
        edges in prop::collection::vec((0u32..80, 0u32..80, 1u32..1000, 0u32..40), 0..300),
        nodes in 1u32..80,
        dangling in 0u32..12,
        labels in prop::collection::vec(0u32..1000, 1..80),
        k in 1u32..20,
    ) {
        let g = build_digraph(&edges, nodes, dangling);
        let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        reference_directed_flow(&g).assert_matches(&f);
        let p = partition(&labels, f.num_nodes(), k);
        let c = check_directed_coarsen(&f, &p);
        // A second level coarsens a coarsened network.
        let q = partition(&labels[labels.len() / 2..], c.num_nodes(), k.div_ceil(2));
        check_directed_coarsen(&c, &q);
    }

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

/// A directed graph of several coarsening chunks, with dangling vertices,
/// self-loops and reciprocal pairs: `from_graph` and two coarsening levels
/// equal the arc-list build.
#[test]
fn multi_chunk_directed_coarsen_matches_arc_list_build() {
    let n = 20_000u32;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let edges: Vec<_> = (0..100_000)
        .map(|_| {
            let r = next();
            let u = (r % u64::from(n)) as u32;
            let v = if r >> 60 == 0 {
                ((r >> 20) % u64::from(n)) as u32
            } else {
                (u + ((r >> 20) % 64) as u32) % n
            };
            (u, v, ((r >> 40) % 1000 + 1) as u32, ((r >> 52) % 40) as u32)
        })
        .collect();
    let g = build_digraph(&edges, n, 500);
    assert!(!g.dangling_nodes().is_empty());
    let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
    assert!(!f.is_symmetric());
    reference_directed_flow(&g).assert_matches(&f);
    let labels: Vec<u32> = (0..n).map(|u| u / 2 + (next() % 2) as u32).collect();
    let p = Partition::from_labels(labels);
    assert!(p.num_communities() > 8192);
    let c = check_directed_coarsen(&f, &p);
    assert!(!c.is_symmetric());
    let q = Partition::from_labels((0..c.num_nodes() as u32).map(|u| u / 29).collect());
    check_directed_coarsen(&c, &q);
}

/// The codelength bits and a partition hash (FNV-1a over the labels'
/// little-endian bytes) of one seeded directed R-MAT run with 1,579
/// dangling vertices. A change to PageRank's summation order, the
/// directed in-rows or directed coarsening moves them; such a change
/// needs new committed baselines, not a new pin.
#[test]
fn directed_rmat_detection_is_pinned() {
    let cfg = RmatConfig {
        directed: true,
        ..RmatConfig::graph500(12, 8)
    };
    let g = rmat(&cfg, 7);
    assert_eq!((g.num_nodes(), g.num_arcs()), (4096, 28628));
    assert_eq!(g.dangling_nodes().len(), 1579);
    let r = detect_communities(&g, &InfomapConfig::default());
    let bytes: Vec<u8> = r
        .partition
        .labels()
        .iter()
        .flat_map(|l| l.to_le_bytes())
        .collect();
    assert_eq!(r.num_communities(), 1722);
    assert_eq!(
        r.codelength.to_bits(),
        0x4021_7fb5_c862_100c,
        "{}",
        r.codelength
    );
    assert_eq!(fnv1a64(&bytes), 0x3c6e_f59a_f60b_e0d7);
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
