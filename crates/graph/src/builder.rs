//! Mutable edge-list accumulator that compiles to [`CsrGraph`].
//!
//! Parallel edges are merged by *summing* their weights, matching the paper's
//! `Convert2SuperNode` kernel: "If multiple vertices of one super node are
//! connected to another super node, a single super edge is created with
//! accumulated edge weights."

use crate::csr::{
    check_total_weight, expand_upper_triangle, transpose, CsrError, CsrGraph, NodeId,
};

/// Streaming graph builder.
///
/// Edges may be added in any order; `build` sorts, deduplicates (summing
/// weights of parallel edges) and produces both adjacency directions (one
/// symmetric CSR for an undirected graph).
///
/// ```
/// use asa_graph::GraphBuilder;
/// let mut b = GraphBuilder::undirected(4);
/// b.add_edge(0, 1, 1.0);
/// b.add_edge(1, 0, 2.0); // parallel to (0,1): weights merge to 3.0
/// b.add_edge(2, 3, 1.0);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.out_neighbors(0).iter().next().unwrap().weight, 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: u32,
    directed: bool,
    drop_self_loops: bool,
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl GraphBuilder {
    /// New builder for a directed graph with `num_nodes` vertices.
    pub fn directed(num_nodes: usize) -> Self {
        Self::new(num_nodes, true)
    }

    /// New builder for an undirected graph with `num_nodes` vertices.
    ///
    /// Each added edge `(u, v)` produces the two arcs `u→v` and `v→u`; the
    /// pair is normalized so `(u, v)` and `(v, u)` merge.
    pub fn undirected(num_nodes: usize) -> Self {
        Self::new(num_nodes, false)
    }

    fn new(num_nodes: usize, directed: bool) -> Self {
        assert!(num_nodes <= u32::MAX as usize, "node count exceeds u32");
        Self {
            num_nodes: num_nodes as u32,
            directed,
            drop_self_loops: false,
            edges: Vec::new(),
        }
    }

    /// Discard self-loops instead of storing them (SNAP social networks are
    /// loop-free; generators may emit loops that callers want dropped).
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Number of vertices this builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of raw (pre-merge) edges added so far.
    pub fn num_raw_edges(&self) -> usize {
        self.edges.len()
    }

    /// Reserve capacity for `n` additional edges.
    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Adds one weighted edge. For undirected builders the endpoint order is
    /// irrelevant.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the weight is not finite
    /// and positive.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "endpoint out of range"
        );
        assert!(
            weight.is_finite() && weight > 0.0,
            "edge weight must be finite and positive"
        );
        if u == v && self.drop_self_loops {
            return;
        }
        if self.directed || u <= v {
            self.edges.push((u, v, weight));
        } else {
            self.edges.push((v, u, weight));
        }
    }

    /// Adds every edge of an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId, f64)>>(&mut self, it: I) {
        for (u, v, w) in it {
            self.add_edge(u, v, w);
        }
    }

    /// Compiles the accumulated edges into an immutable [`CsrGraph`].
    ///
    /// # Panics
    /// Panics where [`GraphBuilder::try_build`] returns an error.
    pub fn build(self) -> CsrGraph {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`GraphBuilder::build`] that reports an overflowing weight instead
    /// of panicking: every added weight is finite, but parallel edges can
    /// merge, and weights can sum, past `f64::MAX`. Errors when the total
    /// weight (`2W` for an undirected graph), which bounds every merged
    /// weight and vertex strength, is not finite.
    pub fn try_build(mut self) -> Result<CsrGraph, CsrError> {
        // Merge parallel edges: sort by (u, v) and fold equal keys.
        self.edges.sort_unstable_by_key(|a| (a.0, a.1));
        let mut merged: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(self.edges.len());
        for (u, v, w) in self.edges.drain(..) {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => merged.push((u, v, w)),
            }
        }

        // The merged list is sorted by (source, target), so counting its
        // sources gives the out rows (the upper triangle for undirected
        // input) already sorted.
        let n = self.num_nodes as usize;
        let mut offsets = vec![0u64; n + 1];
        for &(u, _, _) in &merged {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = merged.iter().map(|a| a.1).collect();
        let weights: Vec<f64> = merged.iter().map(|a| a.2).collect();
        if self.directed {
            let transpose = transpose(&offsets, &targets, &weights);
            check_total_weight(&weights)?;
            check_total_weight(&transpose.2)?;
            Ok(CsrGraph::from_sorted_parts(
                self.num_nodes,
                (offsets, targets, weights),
                Some(transpose),
            ))
        } else {
            let rows = expand_upper_triangle(&offsets, &targets, &weights);
            check_total_weight(&rows.2)?;
            Ok(CsrGraph::from_sorted_parts(self.num_nodes, rows, None))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_edges_merge() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 1, 2.5);
        let g = b.build();
        assert_eq!(g.num_arcs(), 1);
        assert_eq!(g.out_neighbors(0).iter().next().unwrap().weight, 3.5);
    }

    #[test]
    fn undirected_normalizes_endpoints() {
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(1, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_neighbors(0).iter().next().unwrap().weight, 2.0);
    }

    #[test]
    fn drop_self_loops_works() {
        let mut b = GraphBuilder::undirected(2).drop_self_loops(true);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rows_are_sorted() {
        let mut b = GraphBuilder::directed(5);
        for v in [4, 2, 3, 1] {
            b.add_edge(0, v, 1.0);
        }
        let g = b.build();
        let row: Vec<u32> = g.out_neighbors(0).iter().map(|e| e.target).collect();
        assert_eq!(row, vec![1, 2, 3, 4]);
        // in-adjacency of each target contains 0
        for v in 1..5 {
            assert_eq!(g.in_neighbors(v).iter().next().unwrap().target, 0);
        }
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::undirected(3).build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert!(g.out_neighbors(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn bad_weight_rejected() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 1, f64::NAN);
    }

    #[test]
    fn extend_edges_bulk() {
        let mut b = GraphBuilder::directed(3);
        b.extend_edges(vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        assert_eq!(b.num_raw_edges(), 3);
        let g = b.build();
        assert_eq!(g.num_arcs(), 3);
    }
}
