//! Cross-crate integration tests: the full pipeline from graph generation
//! through community detection, device simulation, and quality scoring.

use infomap_asa::asa::AsaConfig;
use infomap_asa::baselines::{
    label_propagation, louvain, modularity, normalized_mutual_information, LouvainConfig,
};
use infomap_asa::graph::generators::{
    lfr_benchmark, planted_partition, synth_network, LfrConfig, PaperNetwork, PlantedConfig,
};
use infomap_asa::infomap::instrumented::{native_infomap, simulate_infomap, Device};
use infomap_asa::infomap::{detect_communities, InfomapConfig};
use infomap_asa::simarch::MachineConfig;

#[test]
fn spa_and_hash_paths_agree_end_to_end() {
    // The host kernel is a pure perf substitution: the hash reference
    // engine through the same multi-level schedule must yield the
    // identical partition and codelength, bit for bit.
    use infomap_asa::infomap::driver::HashEngine;
    use infomap_asa::infomap::schedule::optimize_multilevel;
    use infomap_asa::infomap::FlowNetwork;
    let (graph, _) = planted_partition(
        &PlantedConfig {
            communities: 8,
            community_size: 40,
            k_in: 11.0,
            k_out: 1.2,
        },
        29,
    );
    let cfg = InfomapConfig::default();
    let spa = detect_communities(&graph, &cfg);
    let flow = FlowNetwork::from_graph(&graph, &cfg);
    let hash = optimize_multilevel(&flow, &cfg, &mut HashEngine::default());
    assert_eq!(spa.partition.labels(), hash.partition.labels());
    assert_eq!(spa.codelength.to_bits(), hash.codelength.to_bits());
    assert_eq!(spa.levels.len(), hash.levels.len());
}

#[test]
fn infomap_recovers_planted_communities() {
    let (graph, truth) = planted_partition(
        &PlantedConfig {
            communities: 10,
            community_size: 50,
            k_in: 12.0,
            k_out: 1.0,
        },
        1,
    );
    let result = detect_communities(&graph, &InfomapConfig::default());
    let nmi = normalized_mutual_information(&result.partition, &truth);
    assert!(nmi > 0.95, "NMI {nmi} below expectation");
    assert!(result.codelength < result.initial_codelength);
}

#[test]
fn infomap_beats_or_matches_louvain_on_lfr() {
    // The paper's core quality claim (Section I, refs [1], [18]).
    let mut infomap_total = 0.0;
    let mut louvain_total = 0.0;
    for (seed, mu) in [(11u64, 0.2f64), (12, 0.35), (13, 0.5)] {
        let lfr = lfr_benchmark(
            &LfrConfig {
                n: 1200,
                mu,
                ..Default::default()
            },
            seed,
        );
        let im = detect_communities(&lfr.graph, &InfomapConfig::default());
        let lv = louvain(&lfr.graph, &LouvainConfig::default());
        infomap_total += normalized_mutual_information(&im.partition, &lfr.ground_truth);
        louvain_total += normalized_mutual_information(&lv.partition, &lfr.ground_truth);
    }
    assert!(
        infomap_total >= louvain_total - 0.05,
        "Infomap NMI sum {infomap_total} fell behind Louvain {louvain_total}"
    );
}

#[test]
fn all_detectors_agree_on_disconnected_cliques() {
    use infomap_asa::graph::GraphBuilder;
    let mut b = GraphBuilder::undirected(9);
    for base in [0u32, 3, 6] {
        b.add_edge(base, base + 1, 1.0);
        b.add_edge(base + 1, base + 2, 1.0);
        b.add_edge(base + 2, base, 1.0);
    }
    let g = b.build();
    let im = detect_communities(&g, &InfomapConfig::default());
    let lv = louvain(&g, &LouvainConfig::default());
    let lp = label_propagation(&g, 20, 3);
    assert_eq!(im.num_communities(), 3);
    assert_eq!(lv.partition.num_communities(), 3);
    assert_eq!(lp.num_communities(), 3);
    assert!((normalized_mutual_information(&im.partition, &lv.partition) - 1.0).abs() < 1e-9);
    assert!((normalized_mutual_information(&im.partition, &lp) - 1.0).abs() < 1e-9);
}

#[test]
fn devices_produce_identical_partitions() {
    let (graph, _) = synth_network(PaperNetwork::Amazon, 512);
    let icfg = InfomapConfig::default();
    let mcfg = MachineConfig::baseline(2);

    let base = simulate_infomap(&graph, &icfg, &mcfg, Device::SoftwareHash);
    let probe = simulate_infomap(&graph, &icfg, &mcfg, Device::LinearProbe);
    let asa = simulate_infomap(
        &graph,
        &icfg,
        &mcfg,
        Device::Asa(AsaConfig::paper_default()),
    );
    let tiny = simulate_infomap(
        &graph,
        &icfg,
        &mcfg,
        Device::Asa(AsaConfig {
            cam_bytes: 128,
            entry_bytes: 16,
            ..AsaConfig::paper_default()
        }),
    );
    let native = native_infomap(&graph, &icfg, 2, Device::SoftwareHash);
    let host = detect_communities(&graph, &icfg);

    assert_eq!(base.partition.labels(), probe.partition.labels());
    assert_eq!(base.partition.labels(), asa.partition.labels());
    assert_eq!(base.partition.labels(), tiny.partition.labels());
    assert_eq!(base.partition.labels(), native.partition.labels());
    assert_eq!(base.partition.labels(), host.partition.labels());
    assert!((base.codelength - host.codelength).abs() < 1e-9);
}

#[test]
fn simulated_speedup_in_paper_band() {
    let (graph, _) = synth_network(PaperNetwork::Dblp, 256);
    let icfg = InfomapConfig::default();
    let mcfg = MachineConfig::baseline(1);
    let base = simulate_infomap(&graph, &icfg, &mcfg, Device::SoftwareHash);
    let asa = simulate_infomap(
        &graph,
        &icfg,
        &mcfg,
        Device::Asa(AsaConfig::paper_default()),
    );
    let speedup = base.hash_seconds() / asa.hash_seconds();
    // Paper: 3.28x - 5.56x across networks. Allow headroom for scale.
    assert!(
        (2.5..8.0).contains(&speedup),
        "hash speedup {speedup} outside the plausible band"
    );
    // Secondary metrics move the right way.
    assert!(base.total.instructions > asa.total.instructions);
    assert!(base.total.mispredictions > asa.total.mispredictions);
    assert!(base.total.cpi() > asa.total.cpi());
}

#[test]
fn modularity_and_codelength_prefer_the_same_structure() {
    let (graph, truth) = planted_partition(
        &PlantedConfig {
            communities: 6,
            community_size: 40,
            k_in: 10.0,
            k_out: 1.0,
        },
        21,
    );
    let im = detect_communities(&graph, &InfomapConfig::default());
    let q_detected = modularity(&graph, &im.partition);
    let q_truth = modularity(&graph, &truth);
    assert!(q_detected > 0.5);
    assert!((q_detected - q_truth).abs() < 0.1);
}

#[test]
fn recursive_detection_via_subgraphs() {
    use infomap_asa::graph::subgraph::community_subgraph;
    use infomap_asa::graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    // Two-scale structure: 3 super-communities, each containing 3 dense
    // cliques of 8 vertices connected by a few internal bridges; super-
    // communities connected by single weak links.
    let clique = 8usize;
    let per_super = 3usize;
    let supers = 3usize;
    let n = clique * per_super * supers;
    let mut b = GraphBuilder::undirected(n);
    let mut rng = SmallRng::seed_from_u64(7);
    for s in 0..supers {
        for c in 0..per_super {
            let base = (s * per_super + c) * clique;
            for i in 0..clique {
                for j in (i + 1)..clique {
                    b.add_edge((base + i) as u32, (base + j) as u32, 1.0);
                }
            }
        }
        // Intra-super bridges between cliques (several, so the super level
        // coheres).
        for c in 0..per_super {
            let a = (s * per_super + c) * clique;
            let d = (s * per_super + (c + 1) % per_super) * clique;
            for _ in 0..3 {
                b.add_edge(
                    (a + rng.gen_range(0..clique)) as u32,
                    (d + rng.gen_range(0..clique)) as u32,
                    1.0,
                );
            }
        }
    }
    // Weak inter-super links.
    for s in 0..supers {
        let a = s * per_super * clique;
        let d = ((s + 1) % supers) * per_super * clique;
        b.add_edge(a as u32, d as u32, 0.5);
    }
    let g = b.build();

    // Top level: Infomap finds some coarse partitioning; at minimum it must
    // not merge different super-communities' cliques.
    let top = detect_communities(&g, &InfomapConfig::default());
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            let (su, sv) = (
                u as usize / (clique * per_super),
                v as usize / (clique * per_super),
            );
            if top.partition.community_of(u) == top.partition.community_of(v) {
                assert_eq!(su, sv, "top level merged distinct super-communities");
            }
        }
    }

    // Recurse into the community containing vertex 0: detection inside the
    // subgraph must separate its cliques.
    let c0 = top.partition.community_of(0);
    let sub = community_subgraph(&g, &top.partition, c0);
    assert!(sub.graph.num_nodes() >= clique);
    let inner = detect_communities(&sub.graph, &InfomapConfig::default());
    // Vertices of the same clique stay together inside the community.
    for (i, &orig_i) in sub.original.iter().enumerate() {
        for (j, &orig_j) in sub.original.iter().enumerate() {
            if orig_i as usize / clique == orig_j as usize / clique {
                assert_eq!(
                    inner.partition.community_of(i as u32),
                    inner.partition.community_of(j as u32),
                    "clique split during recursive detection"
                );
            }
        }
    }
}

#[test]
fn scaling_cores_shrinks_barrier_time() {
    let (graph, _) = synth_network(PaperNetwork::Amazon, 512);
    let icfg = InfomapConfig::default();
    let t1 = simulate_infomap(
        &graph,
        &icfg,
        &MachineConfig::baseline(1),
        Device::SoftwareHash,
    )
    .total
    .cycles;
    let t4 = simulate_infomap(
        &graph,
        &icfg,
        &MachineConfig::baseline(4),
        Device::SoftwareHash,
    )
    .total
    .cycles;
    assert!(
        t4 < t1 * 0.5,
        "4 simulated cores should cut barrier cycles well below half: {t4} vs {t1}"
    );
}
