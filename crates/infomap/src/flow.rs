//! The random walker's flow network.
//!
//! Infomap's map equation is a function of *flows*: the stationary visit
//! rate `p_α` of each vertex and the per-arc flow `F(α→β)` of the walker.
//! `FindBestCommunity` accumulates these flows per neighbouring module, and
//! `Convert2SuperNode` aggregates them into super-edges. Representing the
//! coarse levels directly as flow networks (rather than re-deriving flows
//! from a coarsened weighted graph) keeps flows exactly conserved across
//! levels for directed graphs, where PageRank does not compose under
//! aggregation.

use asa_graph::csr::{expand_upper_triangle, splice_rows, transpose};
use asa_graph::{CsrArrays, CsrGraph, NodeId, Partition};
use rayon::prelude::*;

use crate::config::InfomapConfig;
use crate::pagerank::{pagerank, undirected_stationary, ISOLATED_FLOW};

/// One stored arc direction: `(offsets, targets, flows)` CSR arrays.
#[derive(Debug, Clone)]
struct ArcRows(CsrArrays);

impl ArcRows {
    #[inline]
    fn row(&self, u: NodeId) -> (&[NodeId], &[f64]) {
        let (offsets, targets, flows) = &self.0;
        let (lo, hi) = (
            offsets[u as usize] as usize,
            offsets[u as usize + 1] as usize,
        );
        (&targets[lo..hi], &flows[lo..hi])
    }

    /// Σ of each row's flows, added in row order.
    fn totals(&self) -> Vec<f64> {
        (0..self.0 .0.len() as NodeId - 1)
            .map(|u| self.row(u).1.iter().sum())
            .collect()
    }
}

/// A weighted-flow digraph with both adjacency directions and per-node
/// visit rates. Self-loop flow (walker staying on a supernode) is dropped:
/// it never crosses a module boundary, so it affects neither exit flows nor
/// move decisions.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    num_nodes: u32,
    out: ArcRows,
    /// The in-arcs, stored only when they differ from the out-arcs. `None`
    /// is the symmetric case (undirected flow models and their
    /// coarsenings): every in-row is the out-row, byte for byte, so one CSR
    /// serves both directions and kernels accumulate one direction and
    /// reuse the sums for the other.
    transpose: Option<ArcRows>,
    node_flow: Vec<f64>,
    /// Original-vertex count per node: 1 at the vertex level, member count
    /// for supernodes. Needed by the recorded-teleportation map equation,
    /// whose exit term depends on module sizes in *original* vertices.
    node_weight: Vec<u64>,
    /// Σ of out-arc flows per node (excludes self-loops).
    out_total: Vec<f64>,
    /// Σ of in-arc flows per node.
    in_total: Vec<f64>,
}

impl FlowNetwork {
    /// Derives the flow network of a graph.
    ///
    /// * Undirected: `p_α = s_α / 2W` (analytic stationary distribution) and
    ///   `F(α→β) = w_αβ / 2W`, symmetric.
    /// * Directed: `p` from PageRank with teleport `cfg.teleport`, and
    ///   `F(α→β) = p_α · w_αβ / s_α` (unrecorded teleportation).
    pub fn from_graph(graph: &CsrGraph, cfg: &InfomapConfig) -> Self {
        let n = graph.num_nodes();
        let directed = graph.is_directed();
        let node_flow = if directed {
            pagerank(
                graph,
                cfg.teleport,
                cfg.pagerank_tol,
                cfg.pagerank_max_iters,
            )
            .rank
        } else {
            undirected_stationary(graph)
        };

        // One pass over the graph's sorted, duplicate-free rows. An arc's
        // flow is its weight times its source's scale `p / s`. Undirected:
        // both arcs of an edge take the scale of the edge's lower endpoint,
        // F(α→β) = F(β→α) = w/2W, rather than each its own (which rounds
        // differently), so the rows are byte-symmetric and serve as the
        // in-rows too. Self-loops are skipped, and so are arcs whose scaling
        // endpoint has no positive strength.
        let scale: Vec<Option<f64>> = graph
            .nodes()
            .map(|u| {
                let s = graph.out_weight(u);
                (s > 0.0).then(|| node_flow[u as usize] / s)
            })
            .collect();
        let mut out: CsrArrays = (
            Vec::with_capacity(n + 1),
            Vec::with_capacity(graph.num_arcs()),
            Vec::with_capacity(graph.num_arcs()),
        );
        out.0.push(0);
        for u in graph.nodes() {
            let row = graph.out_neighbors(u);
            for (&v, &w) in row.targets().iter().zip(row.weights()) {
                let by = if directed { u } else { u.min(v) };
                if let Some(scale) = scale[by as usize].filter(|_| v != u) {
                    out.1.push(v);
                    out.2.push(w * scale);
                }
            }
            out.0.push(out.1.len() as u64);
        }
        let weights = vec![1u64; n];
        if directed {
            Self::from_out_rows(node_flow, weights, out)
        } else {
            Self::assemble(node_flow, weights, out, None)
        }
    }

    /// Assembles a flow network from explicit flow arcs (self-loops are
    /// dropped; parallel arcs are summed), with every node weight 1.
    pub fn from_arcs(
        num_nodes: u32,
        node_flow: Vec<f64>,
        arcs: Vec<(NodeId, NodeId, f64)>,
    ) -> Self {
        let weights = vec![1u64; num_nodes as usize];
        Self::from_arcs_weighted(num_nodes, node_flow, weights, arcs)
    }

    /// [`FlowNetwork::from_arcs`] with explicit per-node original-vertex
    /// weights.
    pub fn from_arcs_weighted(
        num_nodes: u32,
        node_flow: Vec<f64>,
        node_weight: Vec<u64>,
        mut arcs: Vec<(NodeId, NodeId, f64)>,
    ) -> Self {
        assert_eq!(node_flow.len(), num_nodes as usize);
        assert_eq!(node_weight.len(), num_nodes as usize);
        arcs.retain(|&(u, v, _)| u != v);
        // Counting-sort arcs into rows (O(m)), then sort and duplicate-merge
        // each small row (O(Σ d·log d)). A global comparison sort here was
        // the dominant cost of flow-network construction on the dense
        // stand-ins — large enough to distort the Fig. 2a kernel shares.
        let out = rows_to_merged_csr(num_nodes, arcs.into_iter());
        Self::from_out_rows(node_flow, node_weight, out)
    }

    /// The network over merged, sorted `out` rows, with their transpose as
    /// the in-rows. Rows with unique, sorted targets transpose by one
    /// counting pass into rows of the same kind. When the transpose equals
    /// `out` bit for bit, the network is symmetric and keeps only `out`.
    fn from_out_rows(node_flow: Vec<f64>, node_weight: Vec<u64>, out: CsrArrays) -> Self {
        let t = transpose(&out.0, &out.1, &out.2);
        let symmetric = out.0 == t.0
            && out.1 == t.1
            && (out.2.iter().zip(&t.2)).all(|(a, b)| a.to_bits() == b.to_bits());
        Self::assemble(node_flow, node_weight, out, (!symmetric).then_some(t))
    }

    /// The network over `out` rows, with `transpose` as its in-rows, or
    /// symmetric (in-rows = out-rows) when `transpose` is `None`.
    fn assemble(
        node_flow: Vec<f64>,
        node_weight: Vec<u64>,
        out: CsrArrays,
        transpose: Option<CsrArrays>,
    ) -> Self {
        let (out, transpose) = (ArcRows(out), transpose.map(ArcRows));
        let out_total = out.totals();
        let in_total = transpose
            .as_ref()
            .map_or_else(|| out_total.clone(), ArcRows::totals);
        Self {
            num_nodes: node_flow.len() as u32,
            out,
            transpose,
            node_flow,
            node_weight,
            out_total,
            in_total,
        }
    }

    /// The flow network of the undirected `graph`, patched from `self`,
    /// the network of the graph before one batch of edits, in O(n + m)
    /// copying instead of a rebuild. Every flow of an undirected graph is
    /// its weight times one normalizer, `flow_per_weight` =
    /// `(1 − ISOLATED_FLOW · isolated) / 2W` (see
    /// [`undirected_stationary`]), and an edit changes `2W`. So every arc
    /// and visit rate the batch left alone is `self`'s times `factor`, the
    /// ratio of the new normalizer to the old, except that an isolated
    /// vertex keeps [`ISOLATED_FLOW`]. The arcs in `changed` (sorted,
    /// mirrored: every arc the batch named) take their new weight times
    /// `flow_per_weight`; the vertices in `touched` (every endpoint) take
    /// their new strength times it, and their row totals are summed again.
    ///
    /// The result matches [`FlowNetwork::from_graph`] on `graph` to a few
    /// roundings per batch since the last build, not bit for bit.
    pub(crate) fn patched_undirected(
        &self,
        graph: &CsrGraph,
        changed: &[(NodeId, NodeId)],
        touched: &[NodeId],
        flow_per_weight: f64,
        factor: f64,
    ) -> FlowNetwork {
        debug_assert!(self.is_symmetric() && !graph.is_directed());
        let patches: Vec<_> = (changed.iter().filter(|&&(u, v)| u != v))
            .map(|&(u, v)| (u, v, graph.arc_weight(u, v).map(|w| w * flow_per_weight)))
            .collect();
        let (offsets, targets, flows) = &self.out.0;
        let out = ArcRows(splice_rows((offsets, targets, flows), patches, |f| {
            f * factor
        }));
        let isolated = |u: NodeId| graph.out_degree(u) == 0;
        let mut node_flow: Vec<f64> = (self.node_flow.iter().enumerate())
            .map(|(u, &p)| {
                if isolated(u as NodeId) {
                    ISOLATED_FLOW
                } else {
                    p * factor
                }
            })
            .collect();
        let mut out_total: Vec<f64> = self.out_total.iter().map(|&f| f * factor).collect();
        for &u in touched {
            if !isolated(u) {
                node_flow[u as usize] = graph.out_weight(u) * flow_per_weight;
            }
            out_total[u as usize] = out.row(u).1.iter().sum();
        }
        FlowNetwork {
            num_nodes: self.num_nodes,
            out,
            transpose: None,
            node_flow,
            node_weight: self.node_weight.clone(),
            in_total: out_total.clone(),
            out_total,
        }
    }

    /// The flow of arc `u → v`, or 0 when there is none.
    pub(crate) fn arc_flow(&self, u: NodeId, v: NodeId) -> f64 {
        let (targets, flows) = self.out.row(u);
        targets.binary_search(&v).map_or(0.0, |i| flows[i])
    }

    /// Aggregates the network by a partition: the paper's
    /// `Convert2SuperNode` kernel. Supernode flow is the sum of member
    /// flows; cross-module arcs merge into super-arcs with accumulated
    /// flow; intra-module flow becomes (dropped) self-loop flow.
    ///
    /// The partition must be compact (labels `0..num_communities`).
    pub fn coarsen(&self, partition: &Partition) -> FlowNetwork {
        assert_eq!(partition.len(), self.num_nodes as usize);
        let m = partition.num_communities();
        let mut node_flow = vec![0.0f64; m];
        let mut node_weight = vec![0u64; m];
        for u in 0..self.num_nodes as usize {
            let c = partition.community_of(u as u32) as usize;
            node_flow[c] += self.node_flow[u];
            node_weight[c] += self.node_weight[u];
        }
        // Sort-based super-arc aggregation: each fixed-size node chunk
        // collects its cross-module (src, dst, flow) triples, sorts them,
        // and pre-merges duplicates locally in parallel; the counting-sort
        // CSR build in `rows_to_merged_csr` completes the global merge.
        // Chunk boundaries depend only on the node count, so the arc
        // stream — and hence flow summation order — is independent of
        // thread count. The simulated cost of Convert2SuperNode is not
        // part of the paper's hash-operation measurements (Fig. 2 charges
        // hash time inside FindBestCommunity only).
        const CHUNK: usize = 8192;
        let n = self.num_nodes as usize;
        // On symmetric networks, visit each underlying edge once (from its
        // lower-community direction): the triples are then the upper
        // triangle of the super-arc rows.
        let symmetric = self.is_symmetric();
        let arcs: Vec<(NodeId, NodeId, f64)> = (0..n.div_ceil(CHUNK))
            .into_par_iter()
            .map(|ci| {
                let (lo, hi) = (ci * CHUNK, ((ci + 1) * CHUNK).min(n));
                let mut triples: Vec<(NodeId, NodeId, f64)> = Vec::new();
                for u in lo as u32..hi as u32 {
                    let cu = partition.community_of(u);
                    for (v, f) in self.out_arcs(u) {
                        let cv = partition.community_of(v);
                        if cu != cv && !(symmetric && cu > cv) {
                            triples.push((cu, cv, f));
                        }
                    }
                }
                // Secondary key = flow bits: equal-pair contributions merge
                // in a deterministic value order.
                triples.sort_unstable_by_key(|&(s, t, f)| (s, t, f.to_bits()));
                let mut merged: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(triples.len());
                for (s, t, f) in triples {
                    match merged.last_mut() {
                        Some(last) if last.0 == s && last.1 == t => last.2 += f,
                        _ => merged.push((s, t, f)),
                    }
                }
                merged
            })
            .flatten()
            .collect();
        let (o, t, f) = rows_to_merged_csr(m as u32, arcs.into_iter());
        if !symmetric {
            return Self::from_out_rows(node_flow, node_weight, (o, t, f));
        }
        // Mirror the merged upper triangle: both arcs of a super-edge carry
        // its one merged value, so the coarse network is byte-symmetric and
        // stores one CSR, and every level keeps the SPA one-direction fast
        // path.
        let out = expand_upper_triangle(&o, &t, &f);
        Self::assemble(node_flow, node_weight, out, None)
    }

    /// Number of nodes (vertices or supernodes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of stored (non-self) flow arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out.0 .1.len()
    }

    /// True when in-arcs mirror out-arcs exactly (undirected flow models),
    /// so per-module in-flow sums equal the out-flow sums bit-for-bit. A
    /// symmetric network stores one CSR: the in-direction accessors return
    /// the out-rows.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.transpose.is_none()
    }

    /// The stored in-rows: the transpose, or the out-rows when symmetric.
    #[inline]
    fn in_rows(&self) -> &ArcRows {
        self.transpose.as_ref().unwrap_or(&self.out)
    }

    /// Visit rate of node `u`.
    #[inline]
    pub fn node_flow(&self, u: NodeId) -> f64 {
        self.node_flow[u as usize]
    }

    /// All node visit rates.
    #[inline]
    pub fn node_flows(&self) -> &[f64] {
        &self.node_flow
    }

    /// Number of original vertices node `u` stands for.
    #[inline]
    pub fn node_weight(&self, u: NodeId) -> u64 {
        self.node_weight[u as usize]
    }

    /// The per-node quantities the move evaluation consumes.
    #[inline]
    pub fn node_summary(&self, u: NodeId) -> crate::mapeq::NodeSummary {
        crate::mapeq::NodeSummary {
            flow: self.node_flow[u as usize],
            weight: self.node_weight[u as usize],
            out_total: self.out_total[u as usize],
            in_total: self.in_total[u as usize],
        }
    }

    /// Σ of `u`'s outgoing arc flows.
    #[inline]
    pub fn out_flow_total(&self, u: NodeId) -> f64 {
        self.out_total[u as usize]
    }

    /// Σ of `u`'s incoming arc flows.
    #[inline]
    pub fn in_flow_total(&self, u: NodeId) -> f64 {
        self.in_total[u as usize]
    }

    /// Out-degree (distinct flow targets).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.row(u).0.len()
    }

    /// In-degree (distinct flow sources).
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_rows().row(u).0.len()
    }

    /// Raw CSR row of `u`'s outgoing arcs: `(targets, flows)` slices. The
    /// vectorized sweep kernel consumes rows in this form so the label
    /// gather and flow reads compile to unrolled indexed loads (and so the
    /// next row can be software-prefetched before it is iterated).
    #[inline]
    pub fn out_arc_slices(&self, u: NodeId) -> (&[NodeId], &[f64]) {
        self.out.row(u)
    }

    /// Raw CSR row of `u`'s incoming arcs: `(sources, flows)` slices.
    #[inline]
    pub fn in_arc_slices(&self, u: NodeId) -> (&[NodeId], &[f64]) {
        self.in_rows().row(u)
    }

    /// Outgoing `(target, flow)` arcs of `u`.
    #[inline]
    pub fn out_arcs(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (targets, flows) = self.out_arc_slices(u);
        targets.iter().copied().zip(flows.iter().copied())
    }

    /// Incoming `(source, flow)` arcs of `u`.
    #[inline]
    pub fn in_arcs(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (sources, flows) = self.in_arc_slices(u);
        sources.iter().copied().zip(flows.iter().copied())
    }

    /// Total flow over all arcs (the walker's probability of moving along a
    /// link per step; < 1 when self-loops or dangling mass exist).
    pub fn total_arc_flow(&self) -> f64 {
        self.out.0 .2.iter().sum()
    }
}

/// Counting-sorts arcs by source into CSR rows, then sorts each row by
/// target and merges duplicate targets by summing flows.
fn rows_to_merged_csr<I>(num_nodes: u32, arcs: I) -> CsrArrays
where
    I: Iterator<Item = (NodeId, NodeId, f64)> + Clone,
{
    let n = num_nodes as usize;
    let mut raw_offsets = vec![0u64; n + 1];
    let mut count = 0usize;
    for (u, _, _) in arcs.clone() {
        raw_offsets[u as usize + 1] += 1;
        count += 1;
    }
    for i in 0..n {
        raw_offsets[i + 1] += raw_offsets[i];
    }
    let mut cursor = raw_offsets.clone();
    let mut raw_targets = vec![0 as NodeId; count];
    let mut raw_flows = vec![0f64; count];
    for (u, v, f) in arcs {
        let slot = cursor[u as usize] as usize;
        raw_targets[slot] = v;
        raw_flows[slot] = f;
        cursor[u as usize] += 1;
    }

    // Per-row sort + merge into the final arrays.
    let mut offsets = vec![0u64; n + 1];
    let mut targets = Vec::with_capacity(count);
    let mut flows = Vec::with_capacity(count);
    let mut idx: Vec<u32> = Vec::new();
    for u in 0..n {
        let (lo, hi) = (raw_offsets[u] as usize, raw_offsets[u + 1] as usize);
        let row_t = &raw_targets[lo..hi];
        let row_f = &raw_flows[lo..hi];
        idx.clear();
        idx.extend(0..(hi - lo) as u32);
        // Secondary key = flow bits: parallel-arc duplicates then merge in
        // a deterministic value order, so a mirrored arc stream (both
        // directions of each edge) merges into byte-symmetric rows.
        idx.sort_unstable_by_key(|&i| (row_t[i as usize], row_f[i as usize].to_bits()));
        for &i in &idx {
            let (t, f) = (row_t[i as usize], row_f[i as usize]);
            match targets.last() {
                Some(&last) if last == t && targets.len() > offsets[u] as usize => {
                    *flows.last_mut().unwrap() += f;
                }
                _ => {
                    targets.push(t);
                    flows.push(f);
                }
            }
        }
        offsets[u + 1] = targets.len() as u64;
    }
    (offsets, targets, flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asa_graph::GraphBuilder;

    fn two_triangles() -> CsrGraph {
        // Two triangles joined by one bridge edge.
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        b.build()
    }

    #[test]
    fn undirected_flows_symmetric_and_conserved() {
        let g = two_triangles();
        let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        assert_eq!(f.num_nodes(), 6);
        // node flows sum to 1
        let sum: f64 = f.node_flows().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Each arc flow = w / 2W = 1/14; symmetric.
        for u in 0..6u32 {
            for (v, fw) in f.out_arcs(u) {
                assert!((fw - 1.0 / 14.0).abs() < 1e-12);
                let back: f64 = f
                    .out_arcs(v)
                    .find(|&(t, _)| t == u)
                    .map(|(_, fw)| fw)
                    .unwrap();
                assert!((back - fw).abs() < 1e-12);
            }
        }
        // out_total equals node_flow for undirected, loop-free graphs.
        for u in 0..6u32 {
            assert!((f.out_flow_total(u) - f.node_flow(u)).abs() < 1e-12);
        }
    }

    #[test]
    fn directed_flows_follow_pagerank() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 0, 1.0);
        let g = b.build();
        let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        // Cycle: p uniform, each arc carries p_u = 1/3.
        for u in 0..3u32 {
            assert!((f.out_flow_total(u) - 1.0 / 3.0).abs() < 1e-6);
            assert_eq!(f.out_degree(u), 1);
            assert_eq!(f.in_degree(u), 1);
        }
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 0, 5.0);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 1.0);
        let g = b.build();
        let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        assert_eq!(f.out_degree(0), 1);
        assert!(f.out_arcs(0).all(|(t, _)| t == 1));
    }

    #[test]
    fn coarsen_conserves_flow() {
        let g = two_triangles();
        let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let c = f.coarsen(&p);
        assert_eq!(c.num_nodes(), 2);
        let nf: f64 = c.node_flows().iter().sum();
        assert!((nf - 1.0).abs() < 1e-12);
        // Only the bridge crosses: flow 1/14 each direction.
        assert_eq!(c.num_arcs(), 2);
        assert!((c.out_flow_total(0) - 1.0 / 14.0).abs() < 1e-12);
        assert!((c.in_flow_total(1) - 1.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn coarsen_merges_parallel_superarcs() {
        // Path 0-1-2-3 partitioned {0,1},{2,3}: two cross arcs merge... the
        // cut has one edge (1,2) but flows both ways: 2 directed arcs.
        let mut b = GraphBuilder::undirected(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        let g = b.build();
        let f = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        let c = f.coarsen(&p);
        assert_eq!(c.num_arcs(), 2);
        // Cross flow each way = 1/6 (W=3, arc weight sum = 6).
        assert!((c.out_flow_total(0) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn from_arcs_merges_duplicates() {
        let f = FlowNetwork::from_arcs(
            2,
            vec![0.5, 0.5],
            vec![(0, 1, 0.1), (0, 1, 0.2), (1, 1, 9.0)],
        );
        assert_eq!(f.num_arcs(), 1);
        assert!((f.out_flow_total(0) - 0.3).abs() < 1e-12);
        assert_eq!(f.out_degree(1), 0); // self-loop dropped
    }
}
