//! Cross-crate property-based tests (proptest).
//!
//! These pin the semantic contracts that the whole reproduction rests on:
//! every accumulation device is an exact key→sum map regardless of
//! capacity; graphs round-trip through the SNAP format; the map equation's
//! incremental deltas agree with full recomputation on arbitrary networks;
//! quality metrics respect their ranges.

use proptest::prelude::*;

use infomap_asa::asa::{AsaAccumulator, AsaConfig};
use infomap_asa::graph::io::{read_edge_list, write_edge_list, ReadOptions};
use infomap_asa::graph::{GraphBuilder, Partition};
use infomap_asa::hashsim::{ChainedAccumulator, LinearProbeAccumulator};
use infomap_asa::infomap::flow::FlowNetwork;
use infomap_asa::infomap::kernel::DualSpa;
use infomap_asa::infomap::mapeq::{codelength, module_flows_of, MapState};
use infomap_asa::infomap::InfomapConfig;
use infomap_asa::simarch::accum::{FlowAccumulator, OracleAccumulator};
use infomap_asa::simarch::events::NullSink;

/// Runs a key/value stream through any accumulator and returns the sorted
/// gathered pairs.
fn run_device<A: FlowAccumulator>(acc: &mut A, stream: &[(u32, f64)]) -> Vec<(u32, f64)> {
    let mut sink = NullSink;
    acc.begin(&mut sink);
    for &(k, v) in stream {
        acc.accumulate(k, v, &mut sink);
    }
    let mut out = Vec::new();
    acc.gather(&mut out, &mut sink);
    out.sort_by_key(|a| a.0);
    out
}

fn pairs_equal(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && (x.1 - y.1).abs() < 1e-9 * (1.0 + x.1.abs()))
}

fn stream_strategy() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((0u32..200, 0.001f64..10.0), 0..400)
}

/// `(key, value)` pairs.
type Pairs = Vec<(u32, f64)>;

/// Runs a key/value stream through the host kernel's [`DualSpa`]: the
/// stream becomes the out-arcs of vertex 0 of a directed star whose leaf
/// `i` carries label `stream[i].0`, so `accumulate` adds the arc flows
/// per key in stream order. Returns the gathered lanes and the oracle's
/// sums over the same `(label, arc flow)` stream.
fn run_dual_spa(spa: &mut DualSpa, stream: &[(u32, f64)]) -> (Pairs, Pairs) {
    let mut b = GraphBuilder::directed(stream.len() + 1);
    for (i, &(_, v)) in stream.iter().enumerate() {
        b.add_edge(0, i as u32 + 1, v);
    }
    let flow = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
    let mut labels = vec![0u32];
    labels.extend(stream.iter().map(|&(k, _)| k));
    let arcs: Pairs = flow
        .out_arcs(0)
        .map(|(v, f)| (labels[v as usize], f))
        .collect();
    spa.accumulate(&flow, &labels, 0, false);
    spa.gather(flow.is_symmetric(), false);
    let lanes = spa.lanes();
    let got = lanes
        .keys
        .iter()
        .copied()
        .zip(lanes.out.iter().copied())
        .collect();
    (got, run_device(&mut OracleAccumulator::default(), &arcs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chained_hash_is_exact(stream in stream_strategy()) {
        let oracle = run_device(&mut OracleAccumulator::default(), &stream);
        let got = run_device(&mut ChainedAccumulator::new(), &stream);
        prop_assert!(pairs_equal(&oracle, &got));
    }

    #[test]
    fn linear_probe_is_exact(stream in stream_strategy()) {
        let oracle = run_device(&mut OracleAccumulator::default(), &stream);
        let got = run_device(&mut LinearProbeAccumulator::new(), &stream);
        prop_assert!(pairs_equal(&oracle, &got));
    }

    #[test]
    fn asa_is_exact_for_any_cam_capacity(
        stream in stream_strategy(),
        cam_entries in 1usize..64,
    ) {
        let oracle = run_device(&mut OracleAccumulator::default(), &stream);
        let mut asa = AsaAccumulator::new(AsaConfig {
            cam_bytes: cam_entries * 16,
            entry_bytes: 16,
            ..AsaConfig::paper_default()
        });
        let got = run_device(&mut asa, &stream);
        prop_assert!(
            pairs_equal(&oracle, &got),
            "CAM of {cam_entries} entries corrupted sums"
        );
    }

    #[test]
    fn spa_is_exact_for_any_capacity(
        stream in stream_strategy(),
        extra_capacity in 0usize..300,
    ) {
        // The SPA contract: the host kernel's dense stamped slots behave
        // exactly like a BTreeMap<u32, f64> for any capacity admitting the
        // keys. Both add per-key values in arrival order, so the sums must
        // be bit-identical, not merely close.
        let mut spa = DualSpa::default();
        spa.ensure_capacity(200 + extra_capacity);
        let (got, oracle) = run_dual_spa(&mut spa, &stream);
        prop_assert_eq!(oracle.len(), got.len());
        for (o, g) in oracle.iter().zip(got.iter()) {
            prop_assert_eq!(o.0, g.0);
            prop_assert_eq!(o.1.to_bits(), g.1.to_bits(), "key {} sum diverged", o.0);
        }
    }

    #[test]
    fn spa_survives_reuse_across_rounds(
        rounds in prop::collection::vec(stream_strategy(), 1..5),
    ) {
        // One SPA reused across rounds (as the decision phase drives it)
        // must match fresh BTreeMap oracles every round.
        let mut spa = DualSpa::default();
        spa.ensure_capacity(200);
        for stream in &rounds {
            let (got, oracle) = run_dual_spa(&mut spa, stream);
            prop_assert_eq!(&oracle, &got);
        }
    }

    #[test]
    fn devices_survive_reuse_across_rounds(
        rounds in prop::collection::vec(stream_strategy(), 1..5),
    ) {
        // Reusing one device across many vertices must behave like fresh
        // oracles each round (this is how the kernel drives devices).
        let mut chained = ChainedAccumulator::new();
        let mut probe = LinearProbeAccumulator::new();
        let mut asa = AsaAccumulator::new(AsaConfig { cam_bytes: 8 * 16, entry_bytes: 16, ..AsaConfig::paper_default() });
        for stream in &rounds {
            let oracle = run_device(&mut OracleAccumulator::default(), stream);
            prop_assert!(pairs_equal(&oracle, &run_device(&mut chained, stream)));
            prop_assert!(pairs_equal(&oracle, &run_device(&mut probe, stream)));
            prop_assert!(pairs_equal(&oracle, &run_device(&mut asa, stream)));
        }
    }

    #[test]
    fn snap_io_round_trips(
        edges in prop::collection::vec((0u32..50, 0u32..50), 1..200),
    ) {
        let mut b = GraphBuilder::undirected(50).drop_self_loops(true);
        for &(u, v) in &edges {
            if u != v {
                b.add_edge(u, v, 1.0);
            }
        }
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, _) = read_edge_list(buf.as_slice(), &ReadOptions::default()).unwrap();
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        // Vertex count may shrink for isolated vertices (edge lists cannot
        // express them); edge multiset must survive.
        prop_assert!(g2.num_nodes() <= g.num_nodes());
    }

    #[test]
    fn delta_codelength_matches_recomputation(
        edges in prop::collection::vec((0u32..12, 0u32..12, 1u32..5), 5..60),
        labels in prop::collection::vec(0u32..4, 12),
        vertex in 0u32..12,
        target in 0u32..4,
    ) {
        let mut b = GraphBuilder::undirected(12).drop_self_loops(true);
        for &(u, v, w) in &edges {
            if u != v {
                b.add_edge(u, v, w as f64);
            }
        }
        let g = b.build();
        let flow = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        // Force 4 label slots even if some are unused.
        let mut padded = labels.clone();
        padded[0] = 0; padded[1] = 1; padded[2] = 2; padded[3] = 3;
        let partition = Partition::from_labels(padded);
        let old = partition.community_of(vertex);
        prop_assume!(old != target && (target as usize) < partition.num_communities());

        let state = MapState::new(&flow, &partition);
        let delta = state.delta_move(
            old,
            target,
            &flow.node_summary(vertex),
            module_flows_of(&flow, &partition, vertex, old),
            module_flows_of(&flow, &partition, vertex, target),
        );
        let l0 = state.codelength();
        let mut moved = partition.clone();
        moved.assign(vertex, target);
        let l1 = codelength(&flow, &moved);
        prop_assert!(
            (delta - (l1 - l0)).abs() < 1e-8,
            "delta {} vs recomputed {}",
            delta,
            l1 - l0
        );
    }

    #[test]
    fn nmi_and_ari_bounded(
        a in prop::collection::vec(0u32..6, 2..80),
    ) {
        use infomap_asa::baselines::{adjusted_rand_index, normalized_mutual_information};
        let b: Vec<u32> = a.iter().map(|&x| (x + 1) % 3).collect();
        let pa = Partition::from_labels(a.clone());
        let pb = Partition::from_labels(b);
        let nmi = normalized_mutual_information(&pa, &pb);
        prop_assert!((0.0..=1.0).contains(&nmi));
        let self_nmi = normalized_mutual_information(&pa, &pa);
        prop_assert!((self_nmi - 1.0).abs() < 1e-9);
        let ari = adjusted_rand_index(&pa, &pa);
        prop_assert!((ari - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partition_projection_composes(
        fine in prop::collection::vec(0u32..8, 1..60),
    ) {
        let p = Partition::from_labels(fine);
        let m = p.num_communities();
        let coarse = Partition::from_labels((0..m as u32).map(|c| c / 2).collect());
        let projected = p.project(&coarse);
        prop_assert_eq!(projected.len(), p.len());
        prop_assert!(projected.num_communities() <= m);
        // Vertices that shared a fine community still share the coarse one.
        for u in 0..p.len() as u32 {
            for v in 0..p.len() as u32 {
                if p.community_of(u) == p.community_of(v) {
                    prop_assert_eq!(projected.community_of(u), projected.community_of(v));
                }
            }
        }
    }
}
