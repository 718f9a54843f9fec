//! Equivalence: the sweep-kernel execution paths are interchangeable.
//!
//! The hash reference ([`asa_infomap::driver::HashEngine`], the generic
//! kernel over `ChainedAccumulator` — the paper's Algorithm 1 on its
//! Baseline hash table), the Native column of Tables III/IV (that engine
//! on a 1- and a 2-thread pool), the host SPA kernel, and the distributed
//! engine at 1 and 3 ranks must produce identical partitions and 0-ULP
//! codelengths on every network — the fast paths are pure perf
//! substitutions. As an absolute
//! anchor, every reported codelength must also match a from-scratch
//! recomputation on the returned partition.
//!
//! Random weighted graphs, symmetric (undirected) and asymmetric
//! (directed), run under degraded configurations too: recorded
//! teleportation, single outer loop, and tiny sweep budgets. CI runs this
//! suite at `RAYON_NUM_THREADS=1` and `8`.

use asa_graph::{CsrGraph, GraphBuilder, Partition};
use asa_infomap::driver::{run_with_engine, HashEngine};
use asa_infomap::instrumented::native_infomap;
use asa_infomap::mapeq::{self, plogp, MapState};
use asa_infomap::{
    detect_communities, detect_communities_distributed_cancellable, CancelToken, FlowNetwork,
    InfomapConfig,
};
use asa_obs::Obs;
use proptest::prelude::*;

/// Builds a graph from raw proptest edge triples, dropping self-loops.
/// Node count is fixed so dangling vertices (no sampled edges) appear too.
fn build_graph(edges: &[(u32, u32, u32)], nodes: u32, directed: bool) -> CsrGraph {
    let mut b = if directed {
        GraphBuilder::directed(nodes as usize)
    } else {
        GraphBuilder::undirected(nodes as usize)
    };
    for &(u, v, w) in edges {
        let (u, v) = (u % nodes, v % nodes);
        if u != v {
            b.add_edge(u, v, f64::from(w) * 0.25);
        }
    }
    b.build()
}

/// The codelength of `partition` recomputed from scratch on `graph`'s flow
/// network, independent of the optimizer's incremental bookkeeping.
fn recomputed_codelength(graph: &CsrGraph, cfg: &InfomapConfig, partition: &Partition) -> f64 {
    let flow = FlowNetwork::from_graph(graph, cfg);
    if cfg.recorded_teleport {
        let node_plogp = flow.node_flows().iter().copied().map(plogp).sum();
        MapState::with_options(&flow, partition, node_plogp, cfg.teleport_mode()).codelength()
    } else {
        mapeq::codelength(&flow, partition)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // hash == native (1 and 2 cores) == SPA == distributed (1 and 3 ranks):
    // identical partitions, codelengths equal to the bit, and equal to a
    // from-scratch recomputation within 1e-9 relative.
    #[test]
    fn three_paths_bit_identical(
        edges in prop::collection::vec((0u32..90, 0u32..90, 1u32..6), 60..400),
        nodes in 30u32..90,
        directed in any::<bool>(),
        recorded in any::<bool>(),
        outer in 1usize..3,
        max_sweeps in prop::sample::select(vec![2usize, 5, 20]),
    ) {
        let graph = build_graph(&edges, nodes, directed);
        let cfg = InfomapConfig {
            recorded_teleport: recorded,
            outer_loops: outer,
            max_sweeps,
            ..InfomapConfig::default()
        };
        let (obs, none) = (Obs::disabled(), CancelToken::none());
        let hash = run_with_engine(&graph, &cfg, &mut HashEngine::default(), &obs, &none);
        let spa = detect_communities(&graph, &cfg);
        prop_assert_eq!(hash.partition.labels(), spa.partition.labels());
        prop_assert_eq!(hash.codelength.to_bits(), spa.codelength.to_bits());

        let fresh = recomputed_codelength(&graph, &cfg, &spa.partition);
        prop_assert!(
            (fresh - spa.codelength).abs() <= 1e-9 * spa.codelength.abs().max(1.0),
            "reported {} vs recomputed {}",
            spa.codelength,
            fresh
        );

        // The Native column: the hash reference on a `cores`-thread pool.
        for cores in [1usize, 2] {
            let native = native_infomap(&graph, &cfg, cores);
            prop_assert_eq!(native.partition.labels(), spa.partition.labels());
            prop_assert_eq!(native.codelength.to_bits(), spa.codelength.to_bits());
        }

        // The distributed engine decides on the host engine.
        for ranks in [1usize, 3] {
            let (dist, _) =
                detect_communities_distributed_cancellable(&graph, &cfg, ranks, &obs, &none);
            prop_assert_eq!(dist.partition.labels(), spa.partition.labels());
            prop_assert_eq!(dist.codelength.to_bits(), spa.codelength.to_bits());
        }
    }

    // The degree-ordered renumbering entry point returns a partition of
    // the original ids whose codelength matches a direct run on the
    // renumbered graph (mapping back relabels vertices, not modules).
    #[test]
    fn renumbered_detection_is_consistent(
        edges in prop::collection::vec((0u32..70, 0u32..70, 1u32..4), 50..300),
        nodes in 25u32..70,
        directed in any::<bool>(),
    ) {
        let graph = build_graph(&edges, nodes, directed);
        let cfg = InfomapConfig::default();
        let via_entry = asa_infomap::detect_communities_renumbered(&graph, &cfg);
        let perm = asa_graph::degree_order(&graph);
        let renumbered = asa_graph::renumber(&graph, &perm);
        let direct = detect_communities(&renumbered, &cfg);
        prop_assert_eq!(via_entry.codelength.to_bits(), direct.codelength.to_bits());
        prop_assert_eq!(via_entry.partition.len(), graph.num_nodes());
        for u in 0..graph.num_nodes() as u32 {
            prop_assert_eq!(
                via_entry.partition.community_of(u) ==
                    via_entry.partition.community_of((u + 1) % nodes),
                direct.partition.community_of(perm.apply(u)) ==
                    direct.partition.community_of(perm.apply((u + 1) % nodes))
            );
        }
    }
}
