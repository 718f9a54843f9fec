//! Distributed-memory emulation of the decision phase.
//!
//! HyPC-Map (the paper's substrate) is a *hybrid* parallel Infomap:
//! shared-memory threads within a node and distributed ranks across nodes
//! (Faysal et al. 2021; the distributed design follows Faysal &
//! Arifuzzaman 2019). [`DistEngine`] emulates the distributed layer on one
//! machine as a [`DecideEngine`], so the harness can report the
//! communication volumes a cluster run would incur:
//!
//! * each level's vertices are block-partitioned across `ranks`; a rank
//!   owns the moves of its slice of the active set, decided against the
//!   sweep's frozen labels — the ghost state a cluster rank would hold
//!   after the previous exchange,
//! * a superstep is one sweep: the applied moves are announced as
//!   `(vertex, new_label)` updates to every rank that borders the moved
//!   vertex,
//! * module statistics are refreshed by an emulated all-reduce whose byte
//!   volume is counted.
//!
//! Decisions use frozen state (exactly like the shared-memory phase) and
//! the schedule applies them in vertex order, so the ranks' decisions are
//! the host engine's: the emulation runs the decide phase on
//! [`HostEngine`], only the accounting follows the rank layout, and the
//! partition matches the shared-memory optimizer's bit for bit.

use std::cell::Cell;
use std::time::Duration;

use asa_graph::CsrGraph;
use asa_obs::{Counter, Gauge, Obs, Value};
use serde::{Deserialize, Serialize};

use crate::cancel::CancelToken;
use crate::config::InfomapConfig;
use crate::driver::{run_with_engine, HostEngine};
use crate::find_best::MoveDecision;
use crate::flow::FlowNetwork;
use crate::local_move::AppliedMoves;
use crate::result::InfomapResult;
use crate::schedule::{DecideEngine, SweepCtx};

/// Communication statistics of a distributed run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CommStats {
    /// Supersteps executed.
    pub supersteps: usize,
    /// Point-to-point label-update messages sent.
    pub messages: u64,
    /// Bytes in label-update messages (8 bytes per update).
    pub update_bytes: u64,
    /// Bytes moved by the per-superstep module-statistics all-reduce.
    pub allreduce_bytes: u64,
    /// Cut arcs (arcs crossing rank boundaries) — the static upper bound
    /// on per-superstep communication.
    pub cut_arcs: u64,
}

impl CommStats {
    /// Accumulates another run's (or level's) accounting into this one.
    pub fn absorb(&mut self, other: &CommStats) {
        self.supersteps += other.supersteps;
        self.messages += other.messages;
        self.update_bytes += other.update_bytes;
        self.allreduce_bytes += other.allreduce_bytes;
        self.cut_arcs += other.cut_arcs;
    }
}

/// The distributed decision engine: a [`DecideEngine`] the multilevel
/// schedule runs as its per-level parallel phase, emulating `ranks`
/// distributed processes.
///
/// Each sweep block-partitions the level's vertices across the ranks.
/// Decisions are per-vertex functions of frozen state and the schedule
/// applies them in vertex order, so the ranks' decisions are exactly the
/// host engine's: the engine delegates the decide to an inner
/// [`HostEngine`], and the decision stream — and so the partition and
/// codelength — is **bit-identical** to a plain host run.
///
/// What it adds is *accounting*: the communication a real cluster would
/// incur — label-update messages to subscribing ranks, the per-superstep
/// module-statistics all-reduce, and cut arcs per level layout —
/// accumulates in a [`CommStats`] and streams through `obs` counters
/// (`infomap.dist.*`).
pub struct DistEngine {
    ranks: usize,
    obs: Obs,
    comm: CommStats,
    /// The decide phase (its scratch pool is kept across sweeps).
    host: HostEngine,
    /// Node count the cached rank layout was built for (`usize::MAX`
    /// before the first sweep). Levels re-partition lazily: refinement
    /// passes return to the vertex-level node count and reuse its layout.
    layout_nodes: usize,
    ranges: Vec<std::ops::Range<usize>>,
    /// `(messages, update_bytes)` at the previous sweep record, so
    /// convergence records carry per-sweep deltas.
    seen: Cell<(u64, u64)>,
    c_messages: Counter,
    c_update_bytes: Counter,
    c_allreduce_bytes: Counter,
    c_supersteps: Counter,
    c_cut_arcs: Counter,
    /// Per-superstep allreduce volume as a level (the cumulative counter
    /// above only yields a rate). The allreduce shrinks as modules merge,
    /// so a scrape mid-run shows how far module count has collapsed.
    g_allreduce_step: Gauge,
}

impl std::fmt::Debug for DistEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistEngine")
            .field("ranks", &self.ranks)
            .field("comm", &self.comm)
            .finish()
    }
}

impl DistEngine {
    /// An engine emulating `ranks` distributed processes.
    pub fn new(ranks: usize) -> Self {
        Self::with_obs(ranks, &Obs::disabled())
    }

    /// [`DistEngine::new`] with a telemetry handle: communication
    /// accounting streams into `infomap.dist.*` counters as it accrues.
    pub fn with_obs(ranks: usize, obs: &Obs) -> Self {
        assert!(ranks >= 1);
        DistEngine {
            ranks,
            obs: obs.clone(),
            comm: CommStats::default(),
            host: HostEngine::default(),
            layout_nodes: usize::MAX,
            ranges: Vec::new(),
            seen: Cell::new((0, 0)),
            c_messages: obs.counter("infomap.dist.messages"),
            c_update_bytes: obs.counter("infomap.dist.update_bytes"),
            c_allreduce_bytes: obs.counter("infomap.dist.allreduce_bytes"),
            c_supersteps: obs.counter("infomap.dist.supersteps"),
            c_cut_arcs: obs.counter("infomap.dist.cut_arcs"),
            g_allreduce_step: obs.gauge("infomap.dist.allreduce.step_bytes"),
        }
    }

    /// Communication accounting accumulated so far. `cut_arcs` sums the
    /// cut of every rank layout built (one per level per outer pass) —
    /// the static per-superstep communication bound at each level.
    pub fn comm(&self) -> CommStats {
        self.comm
    }

    fn owner(&self, v: usize) -> usize {
        self.ranges.partition_point(|r| r.end <= v)
    }

    fn ensure_layout(&mut self, flow: &FlowNetwork) {
        let n = flow.num_nodes();
        if n == self.layout_nodes {
            return;
        }
        asa_simarch::machine::block_partition_into(n, self.ranks, &mut self.ranges);
        self.layout_nodes = n;
        let mut cut = 0u64;
        for v in 0..n as u32 {
            let owner = self.owner(v as usize);
            cut += flow
                .out_arcs(v)
                .filter(|&(t, _)| self.owner(t as usize) != owner)
                .count() as u64;
        }
        self.comm.cut_arcs += cut;
        self.c_cut_arcs.add(cut);
    }
}

impl DecideEngine for DistEngine {
    fn decide(&mut self, ctx: &SweepCtx<'_>) -> Vec<MoveDecision> {
        self.ensure_layout(ctx.flow);
        self.comm.supersteps += 1;
        self.c_supersteps.incr();
        let allreduce = (ctx.state.num_modules() * 16 * 2 * self.ranks) as u64;
        self.comm.allreduce_bytes += allreduce;
        self.c_allreduce_bytes.add(allreduce);
        self.g_allreduce_step.set(allreduce);

        self.host.decide(ctx)
    }

    fn after_sweep(&mut self, ctx: &SweepCtx<'_>, applied: &AppliedMoves, _elapsed: Duration) {
        // Exchange accounting: every applied move is announced to each
        // rank bordering the moved vertex (8 bytes per update).
        let mut messages = 0u64;
        let mut subs: Vec<usize> = Vec::new();
        for &v in &applied.moved {
            let owner = self.owner(v as usize);
            subs.clear();
            subs.extend(
                ctx.flow
                    .out_arcs(v)
                    .chain(ctx.flow.in_arcs(v))
                    .map(|(t, _)| self.owner(t as usize))
                    .filter(|&o| o != owner),
            );
            subs.sort_unstable();
            subs.dedup();
            messages += subs.len() as u64;
        }
        self.comm.messages += messages;
        self.comm.update_bytes += 8 * messages;
        self.c_messages.add(messages);
        self.c_update_bytes.add(8 * messages);
    }

    fn obs(&self) -> Obs {
        self.obs.clone()
    }

    fn sweep_fields(&self, fields: &mut Vec<(&'static str, Value)>) {
        fields.push(("path", Value::from("dist-spa")));
        fields.push(("ranks", Value::from(self.ranks as u64)));
        let (seen_m, seen_b) = self.seen.get();
        self.seen.set((self.comm.messages, self.comm.update_bytes));
        fields.push(("dist_messages", Value::from(self.comm.messages - seen_m)));
        fields.push((
            "dist_update_bytes",
            Value::from(self.comm.update_bytes - seen_b),
        ));
    }
}

/// Full multilevel community detection with the distributed engine as the
/// per-level parallel phase. Returns the result — bit-identical in
/// partition and codelength to [`crate::detect_communities_cancellable`] —
/// plus the communication accounting a cluster run of the same schedule
/// would incur.
pub fn detect_communities_distributed_cancellable(
    graph: &CsrGraph,
    cfg: &InfomapConfig,
    ranks: usize,
    obs: &Obs,
    cancel: &CancelToken,
) -> (InfomapResult, CommStats) {
    let mut engine = DistEngine::with_obs(ranks, obs);
    let result = run_with_engine(graph, cfg, &mut engine, obs, cancel);
    (result, engine.comm())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asa_graph::generators::{planted_partition, PlantedConfig};
    use asa_graph::GraphBuilder;

    fn planted_graph() -> CsrGraph {
        planted_partition(
            &PlantedConfig {
                communities: 6,
                community_size: 30,
                k_in: 10.0,
                k_out: 1.0,
            },
            5,
        )
        .0
    }

    fn run(graph: &CsrGraph, ranks: usize, cancel: &CancelToken) -> (InfomapResult, CommStats) {
        detect_communities_distributed_cancellable(
            graph,
            &InfomapConfig::default(),
            ranks,
            &Obs::disabled(),
            cancel,
        )
    }

    #[test]
    fn engine_pipeline_bit_identical_to_host() {
        // The engine runs the full multilevel schedule; partition and
        // codelength must be bit-identical to the host path for every
        // rank count — this is the contract a serving shard relies on.
        let g = planted_graph();
        let host = crate::detect_communities(&g, &InfomapConfig::default());
        for ranks in [1usize, 3, 4] {
            let (dist, comm) = run(&g, ranks, &CancelToken::none());
            assert_eq!(
                host.partition.labels(),
                dist.partition.labels(),
                "ranks={ranks}"
            );
            assert!(host.codelength.to_bits() == dist.codelength.to_bits());
            assert_eq!(host.levels.len(), dist.levels.len());
            assert!(comm.supersteps > 0);
            if ranks == 1 {
                assert_eq!(comm.messages, 0, "one rank never communicates");
            } else {
                assert!(comm.messages > 0, "ranks must exchange labels");
                assert_eq!(comm.update_bytes, 8 * comm.messages);
                assert!(comm.cut_arcs > 0);
            }
        }
    }

    #[test]
    fn comm_stats_are_pinned() {
        // The accounting is a pure function of the schedule and the rank
        // layout: (supersteps, messages, update bytes, all-reduce bytes,
        // cut arcs) on the planted graph, per rank count.
        let g = planted_graph();
        for (ranks, pin) in [
            (1usize, (16usize, 0u64, 0u64, 61_824u64, 0u64)),
            (3, (16, 190, 1_520, 185_472, 436)),
            (4, (16, 313, 2_504, 247_296, 1_034)),
        ] {
            let (_, c) = run(&g, ranks, &CancelToken::none());
            let got = (
                c.supersteps,
                c.messages,
                c.update_bytes,
                c.allreduce_bytes,
                c.cut_arcs,
            );
            assert_eq!(got, pin, "ranks={ranks}");
        }
    }

    #[test]
    fn communication_shrinks_over_supersteps() {
        // Messages are per moved vertex; as the optimization converges,
        // moves dry up, so total messages stay far below the worst case of
        // (cut arcs × supersteps).
        let (_, comm) = run(&planted_graph(), 4, &CancelToken::none());
        let worst = comm.cut_arcs * comm.supersteps as u64;
        assert!(comm.messages < worst / 2, "{comm:?}");
        assert!(comm.supersteps >= 2);
        assert_eq!(comm.update_bytes, 8 * comm.messages);
    }

    #[test]
    fn cancellation_truncates_supersteps() {
        let g = planted_graph();
        let (full, full_comm) = run(&g, 4, &CancelToken::none());
        assert!(!full.interrupted);
        assert!(full_comm.supersteps >= 2);
        let (cut, cut_comm) = run(&g, 4, &CancelToken::after_polls(1));
        assert!(cut.interrupted);
        assert_eq!(cut_comm.supersteps, 1, "stops at the superstep boundary");
        assert!(cut_comm.supersteps < full_comm.supersteps);
    }

    #[test]
    fn engine_counters_mirror_comm_stats() {
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 4,
                community_size: 25,
                k_in: 9.0,
                k_out: 1.0,
            },
            11,
        );
        let obs = Obs::new_enabled();
        let (_, comm) = detect_communities_distributed_cancellable(
            &g,
            &InfomapConfig::default(),
            3,
            &obs,
            &CancelToken::none(),
        );
        assert_eq!(obs.counter("infomap.dist.messages").value(), comm.messages);
        assert_eq!(
            obs.counter("infomap.dist.update_bytes").value(),
            comm.update_bytes
        );
        assert_eq!(
            obs.counter("infomap.dist.supersteps").value(),
            comm.supersteps as u64
        );
        assert_eq!(obs.counter("infomap.dist.cut_arcs").value(), comm.cut_arcs);
    }

    #[test]
    fn disconnected_cliques_need_no_messages() {
        // Two cliques fully contained in different ranks: no arc crosses a
        // rank boundary at any level, so no label update is ever sent.
        let mut b = GraphBuilder::undirected(8);
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)] {
            b.add_edge(u, v, 1.0);
        }
        for &(u, v) in &[(4, 5), (5, 6), (6, 7), (7, 4), (4, 6), (5, 7)] {
            b.add_edge(u, v, 1.0);
        }
        let (result, comm) = run(&b.build(), 2, &CancelToken::none());
        assert_eq!(comm.cut_arcs, 0);
        assert_eq!(comm.messages, 0);
        assert_eq!(result.num_communities(), 2);
    }
}
