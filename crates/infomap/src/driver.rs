//! Multi-level Infomap driver (uninstrumented, wall-clock timed).
//!
//! Control flow lives in [`crate::schedule`]; this driver supplies the
//! host-parallel (rayon) decision engine and the public API.

use std::cell::Cell;
use std::time::Instant;

use asa_graph::CsrGraph;
use asa_hashsim::ChainedAccumulator;
use asa_obs::{Obs, Value};
use asa_simarch::events::NullSink;

use crate::cancel::CancelToken;
use crate::config::InfomapConfig;
use crate::find_best::{find_best_community, FindBestScratch, MoveDecision};
use crate::flow::FlowNetwork;
use crate::kernel::find_best_community_vec;
use crate::local_move::{parallel_decide, KernelCounters, ScratchPool};
use crate::result::InfomapResult;
use crate::schedule::{optimize_multilevel_cancellable, DecideEngine, SweepCtx};

/// The host-parallel decision engine: the dual-SPA kernel
/// ([`find_best_community_vec`]) over rayon chunks of the active set, with
/// pooled per-worker scratch. Its decision stream is bit-identical to
/// [`HashEngine`]'s.
#[derive(Debug, Default)]
pub struct HostEngine {
    scratch: ScratchPool,
    obs: Obs,
    /// Scratch-pool (hits, misses) at the previous sweep record, so each
    /// convergence record carries per-sweep deltas rather than lifetime
    /// totals. `Cell` because `sweep_fields` takes `&self`.
    scratch_seen: Cell<(u64, u64)>,
    /// Kernel counters at the previous sweep record (same delta scheme).
    kernel_seen: Cell<KernelCounters>,
}

impl HostEngine {
    /// A fresh engine. The configuration selects nothing: every host run
    /// takes the one kernel.
    pub fn from_config(_cfg: &InfomapConfig) -> Self {
        Self::default()
    }

    /// A fresh engine with a telemetry handle: the schedule will time
    /// decide/apply phases against it and emit per-sweep convergence
    /// records carrying this engine's scratch and kernel counters.
    pub fn with_obs(obs: &Obs) -> Self {
        Self {
            obs: obs.clone(),
            ..Self::default()
        }
    }
}

impl DecideEngine for HostEngine {
    fn decide(&mut self, ctx: &SweepCtx<'_>) -> Vec<MoveDecision> {
        parallel_decide(ctx, &self.scratch, |dual, u| {
            find_best_community_vec(ctx.flow, ctx.labels, ctx.state, u, dual)
        })
    }

    fn obs(&self) -> Obs {
        self.obs.clone()
    }

    fn sweep_fields(&self, fields: &mut Vec<(&'static str, Value)>) {
        fields.push(("path", Value::from("spa")));
        let (hits, misses) = self.scratch.stats();
        let (seen_h, seen_m) = self.scratch_seen.get();
        self.scratch_seen.set((hits, misses));
        let (dh, dm) = (hits - seen_h, misses - seen_m);
        fields.push(("scratch_hits", Value::from(dh)));
        fields.push(("scratch_misses", Value::from(dm)));
        if dh + dm > 0 {
            fields.push((
                "scratch_hit_rate",
                Value::from(dh as f64 / (dh + dm) as f64),
            ));
        }
        // Kernel counter deltas: SPA touched-list clears (the O(touched)
        // reset discipline) this sweep.
        let k = self.scratch.kernel_stats();
        let seen = self.kernel_seen.get();
        self.kernel_seen.set(k);
        fields.push((
            "spa_reset_calls",
            Value::from(k.spa_reset_calls - seen.spa_reset_calls),
        ));
        fields.push((
            "spa_reset_entries",
            Value::from(k.spa_reset_entries - seen.spa_reset_entries),
        ));
    }
}

/// The hash reference engine: the generic kernel
/// ([`find_best_community`]) over [`ChainedAccumulator`], the
/// `std::unordered_map` model the simulated Baseline runs, with a null
/// event sink — the paper's Algorithm 1 on the host — through the same
/// chunk driver as [`HostEngine`]. Never selected by configuration:
/// callers construct it explicitly as the equivalence oracle, as the
/// baseline the host kernel is benchmarked against, and as the Native
/// column of Tables III/IV ([`crate::instrumented::native_infomap`]).
#[derive(Debug, Default)]
pub struct HashEngine {
    scratch: ScratchPool<(ChainedAccumulator, FindBestScratch)>,
}

impl DecideEngine for HashEngine {
    fn decide(&mut self, ctx: &SweepCtx<'_>) -> Vec<MoveDecision> {
        parallel_decide(ctx, &self.scratch, |(acc, scratch), u| {
            find_best_community(
                ctx.flow,
                ctx.labels,
                ctx.state,
                u,
                acc,
                &mut NullSink,
                scratch,
            )
        })
    }
}

/// One full run on `graph` with `engine` as the decision phase: builds the
/// flow network (timed as PageRank), runs the multilevel schedule, and
/// assembles the [`InfomapResult`]. Spans `infomap` → `pagerank` /
/// `optimize` go to `obs`; `cancel` is polled at every sweep boundary.
/// Every host-side entry point ([`detect_communities_cancellable`], the
/// distributed engine, the hash reference and the Native column) goes
/// through here.
pub fn run_with_engine<E: DecideEngine>(
    graph: &CsrGraph,
    cfg: &InfomapConfig,
    engine: &mut E,
    obs: &Obs,
    cancel: &CancelToken,
) -> InfomapResult {
    run_keeping_flow(graph, cfg, engine, obs, cancel).1
}

/// [`run_with_engine`], returning the flow network the run was built on
/// beside its result (the incremental path keeps it across batches).
pub(crate) fn run_keeping_flow<E: DecideEngine>(
    graph: &CsrGraph,
    cfg: &InfomapConfig,
    engine: &mut E,
    obs: &Obs,
    cancel: &CancelToken,
) -> (FlowNetwork, InfomapResult) {
    let _run = obs.span("infomap");
    let t = Instant::now();
    let flow = {
        let _sp = obs.span("pagerank");
        FlowNetwork::from_graph(graph, cfg)
    };
    let pagerank = t.elapsed();
    let mut result = {
        let _sp = obs.span("optimize");
        optimize_multilevel_cancellable(&flow, cfg, engine, cancel)
    };
    result.timings.pagerank = pagerank;
    (flow, result)
}

/// Detects communities in `graph` with `cfg`, returning the partition,
/// codelength, level statistics, and kernel timings.
///
/// ```
/// use asa_graph::generators::{planted_partition, PlantedConfig};
/// use asa_infomap::{detect_communities, InfomapConfig};
///
/// let (graph, truth) = planted_partition(
///     &PlantedConfig { communities: 4, community_size: 30, k_in: 10.0, k_out: 0.5 },
///     42,
/// );
/// let result = detect_communities(&graph, &InfomapConfig::default());
/// assert_eq!(result.num_communities(), truth.num_communities());
/// ```
pub fn detect_communities(graph: &CsrGraph, cfg: &InfomapConfig) -> InfomapResult {
    detect_communities_cancellable(graph, cfg, &Obs::disabled(), &CancelToken::none())
}

/// [`detect_communities`] on the degree-ordered renumbering of `graph`:
/// the CSR is permuted so high-degree hubs occupy a dense low id range
/// (warm adjacency and label lines across a sweep chunk), the detector
/// runs on the isomorphic copy, and every returned partition is mapped
/// back to the original vertex ids. Codelength and community structure
/// are those of the renumbered run — bit-identical module *content*, but
/// the sweep visits vertices in a different order than an un-renumbered
/// run, so the partitions may differ the way any two legal sweep orders
/// may.
pub fn detect_communities_renumbered(graph: &CsrGraph, cfg: &InfomapConfig) -> InfomapResult {
    let perm = asa_graph::degree_order(graph);
    let renumbered = asa_graph::renumber(graph, &perm);
    let mut result = detect_communities(&renumbered, cfg);
    result.partition = perm.map_partition_back(&result.partition);
    for p in &mut result.level_partitions {
        *p = perm.map_partition_back(p);
    }
    result
}

/// [`detect_communities`] with telemetry and cooperative cancellation.
/// Phase spans (`infomap` → `pagerank`/`optimize` →
/// `level`/`refine` → `sweep` → `decide`/`apply`, plus `coarsen`/
/// `project`) and the per-sweep convergence records go to `obs`. The run
/// stops at the first sweep boundary after `cancel` trips (deadline,
/// manual cancel, or poll budget) and returns the best partition found so
/// far, flagged via [`InfomapResult::interrupted`]. With
/// `Obs::disabled()` and `CancelToken::none()` this is bit-for-bit the
/// plain run. The serving layer threads each request's deadline token
/// through this entry point.
pub fn detect_communities_cancellable(
    graph: &CsrGraph,
    cfg: &InfomapConfig,
    obs: &Obs,
    cancel: &CancelToken,
) -> InfomapResult {
    run_with_engine(graph, cfg, &mut HostEngine::with_obs(obs), obs, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asa_graph::generators::{lfr_benchmark, planted_partition, LfrConfig, PlantedConfig};
    use asa_graph::GraphBuilder;

    #[test]
    fn two_triangles_end_to_end() {
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        let result = detect_communities(&b.build(), &InfomapConfig::default());
        assert_eq!(result.num_communities(), 2);
        assert!(result.codelength < result.initial_codelength);
        assert!(result.compression() > 0.0);
    }

    #[test]
    fn renumbered_run_maps_partition_back() {
        let (g, truth) = planted_partition(
            &PlantedConfig {
                communities: 6,
                community_size: 30,
                k_in: 10.0,
                k_out: 0.5,
            },
            7,
        );
        let plain = detect_communities(&g, &InfomapConfig::default());
        let renum = detect_communities_renumbered(&g, &InfomapConfig::default());
        assert_eq!(renum.partition.len(), g.num_nodes());
        // Both sweep orders recover the well-separated planted structure,
        // and the mapped-back partition describes the original ids.
        assert_eq!(renum.num_communities(), truth.num_communities());
        assert_eq!(plain.num_communities(), renum.num_communities());
        assert!((renum.codelength - plain.codelength).abs() < 1e-9);
        for c in 0..truth.num_communities() as u32 {
            let members: Vec<u32> = (0..g.num_nodes() as u32)
                .filter(|&u| truth.community_of(u) == c)
                .collect();
            let label = renum.partition.community_of(members[0]);
            assert!(
                members
                    .iter()
                    .all(|&u| renum.partition.community_of(u) == label),
                "planted community {c} split after map-back"
            );
        }
    }

    #[test]
    fn planted_partition_recovered() {
        let (g, truth) = planted_partition(
            &PlantedConfig {
                communities: 8,
                community_size: 40,
                k_in: 12.0,
                k_out: 1.0,
            },
            11,
        );
        let result = detect_communities(&g, &InfomapConfig::default());
        assert_eq!(result.num_communities(), truth.num_communities());
        // Every planted community maps to exactly one detected community.
        let mut seen = std::collections::HashMap::new();
        for u in 0..g.num_nodes() as u32 {
            let t = truth.community_of(u);
            let d = result.partition.community_of(u);
            let entry = seen.entry(t).or_insert(d);
            assert_eq!(*entry, d, "vertex {u} split off its planted community");
        }
    }

    #[test]
    fn hierarchy_partitions_refine() {
        let lfr = lfr_benchmark(
            &LfrConfig {
                n: 500,
                mu: 0.25,
                ..Default::default()
            },
            9,
        );
        let result = detect_communities(&lfr.graph, &InfomapConfig::default());
        assert!(result.hierarchy_depth() >= 1);
        // Within the final outer pass, each successive level partition is a
        // coarsening of its predecessor (the last entry may additionally
        // carry refinement adjustments, so skip it in the nesting check).
        let check = &result.level_partitions[..result.level_partitions.len().saturating_sub(1)];
        for w in check.windows(2) {
            assert!(w[1].num_communities() <= w[0].num_communities());
            let mut map = std::collections::HashMap::new();
            for u in 0..w[0].len() as u32 {
                let fine = w[0].community_of(u);
                let coarse = w[1].community_of(u);
                let entry = map.entry(fine).or_insert(coarse);
                assert_eq!(*entry, coarse, "level partitions must nest");
            }
        }
        // The coarsest level is the final answer.
        assert_eq!(
            result.level_partitions.last().unwrap().labels(),
            result.partition.labels()
        );
    }

    #[test]
    fn codelength_decreases_with_levels() {
        let lfr = lfr_benchmark(
            &LfrConfig {
                n: 600,
                mu: 0.2,
                ..Default::default()
            },
            5,
        );
        let result = detect_communities(&lfr.graph, &InfomapConfig::default());
        assert!(result.codelength < result.initial_codelength);
        assert!(result.levels.len() >= 2, "expected multi-level coarsening");
        for w in result.levels.windows(2) {
            assert!(
                w[1].codelength_after <= w[0].codelength_after + 1e-9,
                "codelength increased across levels"
            );
        }
    }

    #[test]
    fn refinement_improves_or_matches_plain_multilevel() {
        let lfr = lfr_benchmark(
            &LfrConfig {
                n: 800,
                mu: 0.35,
                ..Default::default()
            },
            13,
        );
        let plain = detect_communities(
            &lfr.graph,
            &InfomapConfig {
                outer_loops: 1,
                ..Default::default()
            },
        );
        let refined = detect_communities(&lfr.graph, &InfomapConfig::default());
        assert!(refined.codelength <= plain.codelength + 1e-9);
    }

    #[test]
    fn directed_graph_supported() {
        // Two directed 3-cycles joined by weak links.
        let mut b = GraphBuilder::directed(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(u, v, 10.0);
        }
        b.add_edge(2, 3, 0.1);
        b.add_edge(5, 0, 0.1);
        let result = detect_communities(&b.build(), &InfomapConfig::default());
        assert_eq!(result.num_communities(), 2);
        let p = &result.partition;
        assert_eq!(p.community_of(0), p.community_of(1));
        assert_eq!(p.community_of(3), p.community_of(4));
        assert_ne!(p.community_of(0), p.community_of(3));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = GraphBuilder::undirected(1).build();
        let result = detect_communities(&g, &InfomapConfig::default());
        assert_eq!(result.partition.len(), 1);

        let mut b = GraphBuilder::undirected(2);
        b.add_edge(0, 1, 1.0);
        let result = detect_communities(&b.build(), &InfomapConfig::default());
        assert!(result.num_communities() <= 2);
    }

    #[test]
    fn recorded_teleport_mode_end_to_end() {
        let (g, truth) = planted_partition(
            &PlantedConfig {
                communities: 5,
                community_size: 40,
                k_in: 12.0,
                k_out: 1.0,
            },
            17,
        );
        let cfg = InfomapConfig {
            recorded_teleport: true,
            ..Default::default()
        };
        let result = detect_communities(&g, &cfg);
        assert_eq!(result.num_communities(), truth.num_communities());
        assert!(result.codelength < result.initial_codelength);
        // Encoding teleport steps costs bits: recorded codelength exceeds
        // the unrecorded one for the same structure.
        let unrec = detect_communities(&g, &InfomapConfig::default());
        assert!(result.codelength > unrec.codelength);
    }

    #[test]
    fn timings_populated() {
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 4,
                community_size: 50,
                k_in: 10.0,
                k_out: 1.0,
            },
            3,
        );
        let result = detect_communities(&g, &InfomapConfig::default());
        assert!(result.timings.find_best.as_nanos() > 0);
        assert!(result.timings.total().as_nanos() > 0);
        let level0 = &result.levels[0];
        assert_eq!(level0.sweep_seconds.len(), level0.sweeps);
        // Active set must shrink across level-0 sweeps.
        if level0.sweep_active.len() >= 2 {
            assert!(level0.sweep_active.last().unwrap() <= &level0.sweep_active[0]);
        }
    }
}
