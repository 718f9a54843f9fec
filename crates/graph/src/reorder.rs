//! Vertex renumbering for cache-friendly sweep schedules.
//!
//! The Infomap local-move sweep walks vertices and scatters flow into
//! per-module slots indexed by neighbour labels. When vertex ids are
//! assigned in input order (whatever the dataset shipped), consecutive
//! sweep iterations jump across unrelated CSR rows and label ranges. A
//! degree-ordered renumbering places high-degree hubs — whose rows and
//! label neighbourhoods are touched by the most sweep iterations — in a
//! dense, low id range, so their adjacency and label lines stay resident
//! while the long tail streams past.
//!
//! The permutation is explicit and invertible: detectors run on the
//! renumbered graph and map the final partition back with
//! [`VertexPermutation::map_partition_back`], so renumbering is invisible
//! to callers except for speed. The structural fingerprint *does* change
//! (ids are part of the byte stream); quality metrics do not — the
//! renumbered graph is isomorphic by construction.

use crate::csr::{CsrGraph, NodeId};
use crate::partition::Partition;

/// An explicit vertex bijection `old id -> new id` plus its inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPermutation {
    /// `forward[old] = new`.
    forward: Vec<NodeId>,
    /// `inverse[new] = old`.
    inverse: Vec<NodeId>,
}

impl VertexPermutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let forward: Vec<NodeId> = (0..n as NodeId).collect();
        Self {
            inverse: forward.clone(),
            forward,
        }
    }

    /// Builds a permutation from its forward map (`forward[old] = new`).
    ///
    /// # Panics
    /// Panics if `forward` is not a bijection on `0..forward.len()`.
    pub fn from_forward(forward: Vec<NodeId>) -> Self {
        let n = forward.len();
        let mut inverse = vec![NodeId::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            assert!(
                (new as usize) < n && inverse[new as usize] == NodeId::MAX,
                "forward map is not a bijection on 0..{n} (old {old} -> new {new})"
            );
            inverse[new as usize] = old as NodeId;
        }
        Self { forward, inverse }
    }

    /// Number of vertices the permutation acts on.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is over the empty vertex set.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// New id of old vertex `u`.
    #[inline]
    pub fn apply(&self, u: NodeId) -> NodeId {
        self.forward[u as usize]
    }

    /// Old id of new vertex `v`.
    #[inline]
    pub fn invert(&self, v: NodeId) -> NodeId {
        self.inverse[v as usize]
    }

    /// The forward map (`forward[old] = new`).
    pub fn forward(&self) -> &[NodeId] {
        &self.forward
    }

    /// The inverse map (`inverse[new] = old`).
    pub fn inverse(&self) -> &[NodeId] {
        &self.inverse
    }

    /// Maps a partition of the *renumbered* graph back onto original
    /// vertex ids: `result[old] = partition[forward[old]]`, densified in
    /// first-seen order ([`Partition::from_labels`]). Co-membership — and
    /// with it community sizes and any label-insensitive quality metric —
    /// is preserved exactly.
    pub fn map_partition_back(&self, partition: &Partition) -> Partition {
        assert_eq!(partition.len(), self.len(), "partition/permutation size");
        let labels = partition.labels();
        Partition::from_labels(
            self.forward
                .iter()
                .map(|&new| labels[new as usize])
                .collect(),
        )
    }
}

/// The degree-ordered permutation of `graph`: new ids are assigned by
/// descending total degree (out + in), ties broken by ascending old id so
/// the result is deterministic.
pub fn degree_order(graph: &CsrGraph) -> VertexPermutation {
    let n = graph.num_nodes();
    let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
    by_degree.sort_by_key(|&u| (std::cmp::Reverse(graph.total_degree(u)), u));
    // `by_degree[new] = old` is exactly the inverse map.
    let mut forward = vec![0 as NodeId; n];
    for (new, &old) in by_degree.iter().enumerate() {
        forward[old as usize] = new as NodeId;
    }
    VertexPermutation {
        forward,
        inverse: by_degree,
    }
}

/// Applies `perm` to `graph`, producing the isomorphic renumbered graph:
/// vertex `u` becomes `perm.apply(u)` and every adjacency row is relabeled
/// and re-sorted by target id. Arc weights are moved, never recombined, so
/// flow computations on the renumbered graph see the exact same multiset
/// of weighted arcs.
pub fn renumber(graph: &CsrGraph, perm: &VertexPermutation) -> CsrGraph {
    assert_eq!(graph.num_nodes(), perm.len(), "graph/permutation size");
    let (oo, ot, ow) = graph.out_csr();
    let out = permute_csr(oo, ot, ow, perm);
    // An undirected graph's in-rows are its out-rows: permute one CSR.
    let transpose = graph.is_directed().then(|| {
        let (io, it, iw) = graph.in_csr();
        permute_csr(io, it, iw, perm)
    });
    CsrGraph::from_sorted_parts(graph.num_nodes() as NodeId, out, transpose)
}

/// Relabels one CSR direction under `perm`: row `new` is old row
/// `perm.invert(new)` with targets mapped forward and re-sorted ascending
/// (weights carried along pairwise).
fn permute_csr(
    offsets: &[u64],
    targets: &[NodeId],
    weights: &[f64],
    perm: &VertexPermutation,
) -> (Vec<u64>, Vec<NodeId>, Vec<f64>) {
    let n = perm.len();
    let mut new_offsets = Vec::with_capacity(n + 1);
    let mut new_targets = Vec::with_capacity(targets.len());
    let mut new_weights = Vec::with_capacity(weights.len());
    let mut row: Vec<(NodeId, f64)> = Vec::new();
    new_offsets.push(0u64);
    for new in 0..n as NodeId {
        let old = perm.invert(new) as usize;
        let (s, e) = (offsets[old] as usize, offsets[old + 1] as usize);
        row.clear();
        row.extend(
            targets[s..e]
                .iter()
                .zip(&weights[s..e])
                .map(|(&t, &w)| (perm.apply(t), w)),
        );
        // Old rows are deduplicated and perm is a bijection, so targets
        // stay unique — sorting by target alone is deterministic.
        row.sort_unstable_by_key(|&(t, _)| t);
        new_targets.extend(row.iter().map(|&(t, _)| t));
        new_weights.extend(row.iter().map(|&(_, w)| w));
        new_offsets.push(new_targets.len() as u64);
    }
    (new_offsets, new_targets, new_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Deterministic LCG test graph (undirected, weighted).
    fn test_graph(n: u32, arcs: u32, directed: bool) -> CsrGraph {
        let mut b = if directed {
            GraphBuilder::directed(n as usize)
        } else {
            GraphBuilder::undirected(n as usize)
        };
        let mut s = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..arcs {
            let u = (rng() % n as u64) as u32;
            let v = (rng() % n as u64) as u32;
            if u != v {
                b.add_edge(u, v, 1.0 + (rng() % 8) as f64 * 0.25);
            }
        }
        b.build()
    }

    /// Weighted directed modularity of `partition` on `graph` — a quality
    /// functional that only sees community labels and arc weights, so it
    /// must be invariant under renumber + map-back.
    fn modularity(graph: &CsrGraph, partition: &Partition) -> f64 {
        let total: f64 = graph.total_arc_weight();
        let mut q = 0.0;
        for (u, v, w) in graph.arcs() {
            if partition.community_of(u) == partition.community_of(v) {
                q += w / total;
            }
        }
        for u in graph.nodes() {
            let c = partition.community_of(u);
            for v in graph.nodes() {
                if partition.community_of(v) == c {
                    q -= (graph.out_weight(u) / total) * (graph.in_weight(v) / total);
                }
            }
        }
        q
    }

    #[test]
    fn permutation_round_trips() {
        let g = test_graph(100, 400, false);
        let perm = degree_order(&g);
        assert_eq!(perm.len(), g.num_nodes());
        for u in 0..g.num_nodes() as NodeId {
            assert_eq!(perm.invert(perm.apply(u)), u);
            assert_eq!(perm.apply(perm.invert(u)), u);
        }
        // from_forward rebuilds the identical inverse.
        let rebuilt = VertexPermutation::from_forward(perm.forward().to_vec());
        assert_eq!(rebuilt, perm);
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn from_forward_rejects_non_bijection() {
        VertexPermutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn degree_order_is_monotone_and_deterministic() {
        let g = test_graph(200, 900, true);
        let perm = degree_order(&g);
        let degs: Vec<usize> = (0..g.num_nodes() as NodeId)
            .map(|new| g.total_degree(perm.invert(new)))
            .collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "degree-descending");
        assert_eq!(perm, degree_order(&g), "deterministic");
        // Ties broken by ascending old id.
        for w in 0..g.num_nodes().saturating_sub(1) {
            let (a, b) = (perm.invert(w as NodeId), perm.invert(w as NodeId + 1));
            if g.total_degree(a) == g.total_degree(b) {
                assert!(a < b, "tie at new ids {w},{} broke on old id", w + 1);
            }
        }
    }

    #[test]
    fn renumber_is_isomorphic() {
        for directed in [false, true] {
            let g = test_graph(120, 500, directed);
            let perm = degree_order(&g);
            let r = renumber(&g, &perm);
            assert_eq!(r.num_nodes(), g.num_nodes());
            assert_eq!(r.num_arcs(), g.num_arcs());
            assert_eq!(r.is_directed(), g.is_directed());
            // The weighted arc multiset is preserved under the relabeling.
            let mut orig: Vec<(NodeId, NodeId, u64)> = g
                .arcs()
                .map(|(u, v, w)| (perm.apply(u), perm.apply(v), w.to_bits()))
                .collect();
            let mut renum: Vec<(NodeId, NodeId, u64)> =
                r.arcs().map(|(u, v, w)| (u, v, w.to_bits())).collect();
            orig.sort_unstable();
            renum.sort_unstable();
            assert_eq!(orig, renum, "directed={directed}");
            // Degrees follow their vertex.
            for u in 0..g.num_nodes() as NodeId {
                assert_eq!(g.total_degree(u), r.total_degree(perm.apply(u)));
            }
        }
    }

    #[test]
    fn fingerprint_changes_but_quality_is_invariant() {
        let g = test_graph(80, 320, false);
        let perm = degree_order(&g);
        let r = renumber(&g, &perm);
        // Ids are part of the fingerprint byte stream: renumbering a graph
        // whose input order is not already degree-sorted must change it.
        assert_ne!(perm, VertexPermutation::identity(g.num_nodes()));
        assert_ne!(g.fingerprint(), r.fingerprint());
        // A partition found on the renumbered graph maps back with its
        // quality untouched (same labels, same weighted arcs).
        let part_renum =
            Partition::from_labels((0..r.num_nodes() as NodeId).map(|v| v % 7).collect());
        let part_orig = perm.map_partition_back(&part_renum);
        // Labels are densified on the way back; co-membership is what the
        // map equation sees, and it must survive the round trip exactly.
        for u in 0..g.num_nodes() as NodeId {
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(
                    part_orig.community_of(u) == part_orig.community_of(v),
                    part_renum.community_of(perm.apply(u))
                        == part_renum.community_of(perm.apply(v)),
                    "co-membership broke at ({u},{v})"
                );
            }
        }
        let mut sizes_o = part_orig.community_sizes();
        let mut sizes_r = part_renum.community_sizes();
        sizes_o.sort_unstable();
        sizes_r.sort_unstable();
        assert_eq!(sizes_o, sizes_r);
        let (qo, qr) = (modularity(&g, &part_orig), modularity(&r, &part_renum));
        assert!((qo - qr).abs() < 1e-12, "quality drifted: {qo} vs {qr}");
    }

    #[test]
    fn identity_renumber_is_identical_bytes() {
        let g = test_graph(60, 240, true);
        let r = renumber(&g, &VertexPermutation::identity(g.num_nodes()));
        assert_eq!(g.fingerprint(), r.fingerprint());
    }
}
