//! The exhaustive oracle as a law: on every random graph of 3–9 vertices,
//! undirected and directed, multilevel Infomap never reports a codelength
//! below the true optimum that `exhaustive_best_partition` finds by
//! enumerating every set partition, and the codelength it reports is the
//! one a from-scratch recompute gives for the partition it returns.
//!
//! The law bounds Infomap from below only. How far above the optimum the
//! greedy optimizer may land is not asserted.

use asa_graph::{CsrGraph, GraphBuilder};
use asa_infomap::exhaustive::exhaustive_best_partition;
use asa_infomap::mapeq::codelength;
use asa_infomap::{detect_communities, FlowNetwork, InfomapConfig};
use proptest::prelude::*;

/// Builds a graph from raw edge triples on `nodes` vertices, dropping
/// self-loops, so isolated and dangling vertices occur too.
fn build_graph(edges: &[(u32, u32, u32)], nodes: u32, directed: bool) -> CsrGraph {
    let mut b = if directed {
        GraphBuilder::directed(nodes as usize)
    } else {
        GraphBuilder::undirected(nodes as usize)
    };
    for &(u, v, w) in edges {
        let (u, v) = (u % nodes, v % nodes);
        if u != v {
            b.add_edge(u, v, f64::from(w));
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn multilevel_never_beats_the_exhaustive_optimum(
        edges in prop::collection::vec((0u32..9, 0u32..9, 1u32..5), 2..24),
        nodes in 3u32..10,
        directed in any::<bool>(),
    ) {
        let graph = build_graph(&edges, nodes, directed);
        let cfg = InfomapConfig::default();
        let result = detect_communities(&graph, &cfg);
        let flow = FlowNetwork::from_graph(&graph, &cfg);
        let optimum = exhaustive_best_partition(&flow, 10).codelength;
        prop_assert!(
            result.codelength >= optimum - 1e-9,
            "multilevel {} below the exhaustive optimum {}",
            result.codelength,
            optimum
        );
        let fresh = codelength(&flow, &result.partition);
        prop_assert!(
            (fresh - result.codelength).abs() <= 1e-9 * fresh.abs().max(1.0),
            "reported {} vs recomputed {}",
            result.codelength,
            fresh
        );
    }
}
