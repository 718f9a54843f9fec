//! Local-move optimization: sweeps of `FindBestCommunity` over the vertex
//! set, HyPC-Map style.
//!
//! Each sweep (= one "iteration" in the paper's Tables III/IV) evaluates
//! every *active* vertex against a frozen snapshot of the module
//! assignment — that is the parallel phase — then applies the collected
//! moves sequentially, re-validating each delta against the live state so
//! the codelength decreases monotonically even when parallel decisions
//! were made on stale data. After a sweep, only vertices adjacent to an
//! applied move stay active, which is why per-iteration runtime shrinks
//! across iterations exactly as the paper's Table III shows.

use std::sync::Mutex;

use asa_graph::{NodeId, Partition};
use asa_simarch::accum::FlowAccumulator;
use asa_simarch::events::EventSink;
use rayon::prelude::*;
use rustc_hash::FxHashMap;

use crate::find_best::{FindBestScratch, MoveDecision};
use crate::flow::FlowNetwork;
use crate::kernel::{self, DualSpa};
use crate::mapeq::{module_flows_pair, MapState, ModTermCache};
use crate::schedule::SweepCtx;

/// Host-speed accumulator for uninstrumented runs: an `FxHashMap` with no
/// event emission. This is what the *algorithm* uses when we only care
/// about the answer (and about wall-clock kernel timings, Fig. 2a).
#[derive(Debug, Default)]
pub struct FastAccumulator {
    map: FxHashMap<u32, f64>,
}

impl FlowAccumulator for FastAccumulator {
    fn begin<S: EventSink>(&mut self, _sink: &mut S) {
        self.map.clear();
    }

    fn accumulate<S: EventSink>(&mut self, key: u32, value: f64, _sink: &mut S) {
        *self.map.entry(key).or_insert(0.0) += value;
    }

    fn gather<S: EventSink>(&mut self, out: &mut Vec<(u32, f64)>, _sink: &mut S) {
        out.clear();
        out.extend(self.map.drain());
    }

    fn name(&self) -> &'static str {
        "fast-host"
    }
}

/// Per-worker state the chunk driver ([`parallel_decide`]) checks out of
/// a [`ScratchPool`] once per chunk.
pub trait ChunkScratch: Default + Send {
    /// Readies the scratch for a sweep over a frozen state of `modules`
    /// modules. Called once per checkout, before the chunk's first vertex.
    fn begin(&mut self, modules: usize) {
        let _ = modules;
    }
}

/// Per-worker reusable state of the host kernel: the fused
/// dual-direction [`DualSpa`] and the per-module scan-term cache.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// The kernel's dense accumulator (32 bytes × level nodes).
    pub dual: DualSpa,
    /// Scan-term cache, invalidated once per checkout.
    pub cache: ModTermCache,
}

impl ChunkScratch for WorkerScratch {
    fn begin(&mut self, modules: usize) {
        // Module labels index the state arrays; the level's module count
        // bounds every key the kernel accumulates.
        self.dual.ensure_capacity(modules);
        self.cache.begin(modules);
    }
}

/// Scratch of the generic kernel over the hash accumulator: the
/// reference path ([`crate::driver::HashEngine`]).
impl ChunkScratch for (FastAccumulator, FindBestScratch) {}

/// A checkout pool of chunk scratches (each with its decision buffer)
/// shared across sweeps and levels. Sized lazily: at most one scratch per
/// concurrently running chunk ever exists, and each is reused for the
/// rest of the run.
#[derive(Debug)]
pub struct ScratchPool<W = WorkerScratch> {
    slots: Mutex<Vec<(W, Vec<MoveDecision>)>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl<W> Default for ScratchPool<W> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            hits: Default::default(),
            misses: Default::default(),
        }
    }
}

impl<W: ChunkScratch> ScratchPool<W> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn checkout(&self) -> (W, Vec<MoveDecision>) {
        use std::sync::atomic::Ordering;
        match self.slots.lock().unwrap().pop() {
            Some(slot) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                slot
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Default::default()
            }
        }
    }

    fn restore(&self, slot: (W, Vec<MoveDecision>)) {
        self.slots.lock().unwrap().push(slot);
    }

    /// Lifetime `(hits, misses)` of the checkout fast path — a hit reuses a
    /// warmed-up scratch, a miss allocates a fresh one.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Visits every pooled scratch. Call between sweeps, when all
    /// scratches are checked back in; checked-out ones are not visited.
    pub fn for_each(&self, mut f: impl FnMut(&W)) {
        for (w, _) in self.slots.lock().unwrap().iter() {
            f(w);
        }
    }
}

impl ScratchPool<WorkerScratch> {
    /// Aggregated kernel counters over every pooled scratch: the SPA
    /// touched-list clears (`reset_calls`/`reset_entries` — the O(touched)
    /// discipline the obs layer asserts) and the scan-term cache's
    /// `(fills, hits)`.
    pub fn kernel_stats(&self) -> KernelCounters {
        let mut out = KernelCounters::default();
        self.for_each(|ws| {
            let (calls, entries) = ws.dual.reset_stats();
            let (fills, hits) = ws.cache.stats();
            out.spa_reset_calls += calls;
            out.spa_reset_entries += entries;
            out.term_cache_fills += fills;
            out.term_cache_hits += hits;
        });
        out
    }
}

/// Lifetime kernel-counter aggregate of a [`ScratchPool`]; see
/// [`ScratchPool::kernel_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Touched-list stamp clears (one per vertex evaluated).
    pub spa_reset_calls: u64,
    /// Stamp entries cleared — Σ touched-set sizes, proving resets are
    /// O(touched) rather than O(communities).
    pub spa_reset_entries: u64,
    /// Scan-term cache misses (terms computed).
    pub term_cache_fills: u64,
    /// Scan-term cache hits (terms replayed).
    pub term_cache_hits: u64,
}

/// Decides `vertices` (a sorted slice of `ctx.active`) with `decide`,
/// appending the moving decisions to `out` in vertex order. The body of
/// one [`parallel_decide`] chunk and of one distributed rank.
pub(crate) fn decide_chunk<W: ChunkScratch>(
    ctx: &SweepCtx<'_>,
    vertices: &[NodeId],
    ws: &mut W,
    out: &mut Vec<MoveDecision>,
    decide: impl Fn(&mut W, NodeId) -> MoveDecision,
) {
    ws.begin(ctx.state.num_modules());
    for (i, &u) in vertices.iter().enumerate() {
        kernel::prefetch_ahead(ctx.flow, ctx.labels, vertices, i);
        let d = decide(ws, u);
        if d.best_module != ctx.labels[u as usize] {
            out.push(d);
        }
    }
}

fn decide_chunk_size(active_len: usize) -> usize {
    (active_len / (rayon::current_num_threads() * 8)).max(512)
}

/// The parallel decision phase: rayon chunks of `ctx.active`, each with a
/// scratch checked out of `pool` (so nothing is allocated after warm-up),
/// running `decide` per vertex. Returns the moving decisions ordered by
/// vertex id regardless of thread scheduling — per-vertex evaluations are
/// independent functions of the frozen snapshot.
pub fn parallel_decide<W, F>(
    ctx: &SweepCtx<'_>,
    pool: &ScratchPool<W>,
    decide: F,
) -> Vec<MoveDecision>
where
    W: ChunkScratch,
    F: Fn(&mut W, NodeId) -> MoveDecision + Sync,
{
    let chunk = decide_chunk_size(ctx.active.len());
    let collected: Mutex<Vec<MoveDecision>> = Mutex::new(Vec::new());
    ctx.active.par_chunks(chunk).for_each(|vertices| {
        let (mut ws, mut out) = pool.checkout();
        out.clear();
        decide_chunk(ctx, vertices, &mut ws, &mut out, &decide);
        if !out.is_empty() {
            collected.lock().unwrap().extend_from_slice(&out);
        }
        pool.restore((ws, out));
    });
    let mut decisions = collected.into_inner().unwrap();
    decisions.sort_unstable_by_key(|d| d.vertex);
    decisions
}

/// Result of applying one sweep's decisions.
#[derive(Debug, Clone)]
pub struct AppliedMoves {
    /// Number of moves actually applied after re-validation.
    pub applied: usize,
    /// The vertices that moved.
    pub moved: Vec<NodeId>,
}

/// Applies decisions in vertex order, re-validating each against the live
/// state (decisions were made against a stale snapshot). A move is applied
/// only if it still improves by more than `min_improvement` bits.
pub fn apply_decisions(
    flow: &FlowNetwork,
    partition: &mut Partition,
    state: &mut MapState,
    decisions: &[MoveDecision],
    min_improvement: f64,
) -> AppliedMoves {
    let mut moved = Vec::new();
    for d in decisions {
        let old = partition.community_of(d.vertex);
        let new = d.best_module;
        if old == new {
            continue;
        }
        let (flows_old, flows_new) = module_flows_pair(flow, partition, d.vertex, old, new);
        let node = flow.node_summary(d.vertex);
        let delta = state.delta_move(old, new, &node, flows_old, flows_new);
        if delta < -min_improvement {
            state.apply_move(old, new, &node, flows_old, flows_new);
            partition.assign(d.vertex, new);
            moved.push(d.vertex);
        }
    }
    AppliedMoves {
        applied: moved.len(),
        moved,
    }
}

/// The active set for the next sweep: every moved vertex plus its in- and
/// out-neighbours (their best module may have changed), deduplicated and
/// sorted.
pub fn next_active(flow: &FlowNetwork, moved: &[NodeId]) -> Vec<NodeId> {
    let mut mark = Vec::new();
    let mut out = Vec::new();
    next_active_into(flow, moved, &mut mark, &mut out);
    out
}

/// [`next_active`] into caller-owned buffers: `mark` is the dedup bitmap
/// (must be all-false, which this function restores before returning, so a
/// buffer can be threaded through every sweep) and `out` receives the
/// sorted active set. O(touched log touched) instead of an O(n) scan, and
/// allocation-free once the buffers are warm.
pub fn next_active_into(
    flow: &FlowNetwork,
    moved: &[NodeId],
    mark: &mut Vec<bool>,
    out: &mut Vec<NodeId>,
) {
    if mark.len() < flow.num_nodes() {
        mark.resize(flow.num_nodes(), false);
    }
    out.clear();
    let push = |mark: &mut [bool], out: &mut Vec<NodeId>, v: NodeId| {
        if !mark[v as usize] {
            mark[v as usize] = true;
            out.push(v);
        }
    };
    for &u in moved {
        push(mark, out, u);
        for (v, _) in flow.out_arcs(u) {
            push(mark, out, v);
        }
        for (v, _) in flow.in_arcs(u) {
            push(mark, out, v);
        }
    }
    out.sort_unstable();
    for &u in out.iter() {
        mark[u as usize] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfomapConfig;
    use crate::driver::{HashEngine, HostEngine};
    use crate::mapeq::codelength;
    use crate::schedule::DecideEngine;
    use asa_graph::generators::{planted_partition, PlantedConfig};
    use asa_graph::GraphBuilder;

    fn two_triangles_flow() -> FlowNetwork {
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        FlowNetwork::from_graph(&b.build(), &InfomapConfig::default())
    }

    fn ctx<'a>(
        flow: &'a FlowNetwork,
        labels: &'a [u32],
        state: &'a MapState,
        active: &'a [NodeId],
    ) -> SweepCtx<'a> {
        SweepCtx {
            flow,
            labels,
            state,
            active,
            outer: 0,
            level: 0,
            sweep: 0,
        }
    }

    fn sweep_once(
        flow: &FlowNetwork,
        partition: &mut Partition,
        state: &mut MapState,
        active: &[NodeId],
    ) -> AppliedMoves {
        let labels = partition.labels().to_vec();
        let decisions = HostEngine::default().decide(&ctx(flow, &labels, state, active));
        apply_decisions(flow, partition, state, &decisions, 1e-12)
    }

    #[test]
    fn sweeps_find_the_triangles() {
        let flow = two_triangles_flow();
        let mut partition = Partition::singletons(6);
        let mut state = MapState::new(&flow, &partition);
        let mut active: Vec<NodeId> = (0..6).collect();
        for _ in 0..10 {
            let l_before = state.codelength();
            let applied = sweep_once(&flow, &mut partition, &mut state, &active);
            assert!(state.codelength() <= l_before + 1e-12);
            if applied.applied == 0 {
                break;
            }
            active = next_active(&flow, &applied.moved);
        }
        partition.compact();
        assert_eq!(partition.num_communities(), 2);
        assert_eq!(partition.community_of(0), partition.community_of(1));
        assert_eq!(partition.community_of(0), partition.community_of(2));
        assert_eq!(partition.community_of(3), partition.community_of(4));
        assert_ne!(partition.community_of(0), partition.community_of(3));
    }

    #[test]
    fn codelength_monotone_on_planted_graph() {
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 6,
                community_size: 40,
                k_in: 10.0,
                k_out: 1.5,
            },
            7,
        );
        let flow = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let mut partition = Partition::singletons(g.num_nodes());
        let mut state = MapState::new(&flow, &partition);
        let mut active: Vec<NodeId> = (0..g.num_nodes() as u32).collect();
        let mut last = state.codelength();
        for _ in 0..15 {
            let applied = sweep_once(&flow, &mut partition, &mut state, &active);
            let now = state.codelength();
            assert!(now <= last + 1e-9, "codelength increased: {last} -> {now}");
            last = now;
            if applied.applied == 0 {
                break;
            }
            active = next_active(&flow, &applied.moved);
        }
        // Incremental state must agree with a fresh recomputation.
        let fresh = codelength(&flow, &partition);
        assert!((last - fresh).abs() < 1e-6, "drift: {last} vs {fresh}");
    }

    #[test]
    fn active_set_shrinks() {
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 4,
                community_size: 50,
                k_in: 12.0,
                k_out: 1.0,
            },
            5,
        );
        let flow = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let mut partition = Partition::singletons(g.num_nodes());
        let mut state = MapState::new(&flow, &partition);
        let mut active: Vec<NodeId> = (0..g.num_nodes() as u32).collect();
        let mut sizes = vec![active.len()];
        for _ in 0..6 {
            let applied = sweep_once(&flow, &mut partition, &mut state, &active);
            if applied.applied == 0 {
                break;
            }
            active = next_active(&flow, &applied.moved);
            sizes.push(active.len());
        }
        // The workload must shrink substantially after the first sweeps —
        // this is what produces the decreasing per-iteration runtimes of
        // Table III.
        assert!(
            sizes.last().unwrap() < &sizes[0],
            "active set never shrank: {sizes:?}"
        );
    }

    #[test]
    fn spa_path_matches_hash_path_decisions() {
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 6,
                community_size: 40,
                k_in: 10.0,
                k_out: 1.5,
            },
            21,
        );
        let flow = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let partition = Partition::singletons(g.num_nodes());
        let state = MapState::new(&flow, &partition);
        let active: Vec<NodeId> = (0..g.num_nodes() as u32).collect();
        let labels = partition.labels().to_vec();
        let ctx = ctx(&flow, &labels, &state, &active);
        let hash = HashEngine::default().decide(&ctx);
        let mut host = HostEngine::default();
        let spa = host.decide(&ctx);
        assert_eq!(hash, spa, "decision streams must be bit-identical");
        // A second sweep through the same pool reuses the scratches.
        let again = host.decide(&ctx);
        assert_eq!(hash, again);
    }

    #[test]
    fn next_active_into_reuses_buffers() {
        let flow = two_triangles_flow();
        let mut mark = Vec::new();
        let mut out = Vec::new();
        next_active_into(&flow, &[2], &mut mark, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(mark.iter().all(|&m| !m), "bitmap must be reset");
        next_active_into(&flow, &[4], &mut mark, &mut out);
        assert_eq!(out, vec![3, 4, 5]);
    }

    #[test]
    fn fast_accumulator_contract() {
        use asa_simarch::accum::{FlowAccumulator, OracleAccumulator};
        use asa_simarch::events::NullSink;
        let mut fast = FastAccumulator::default();
        let mut oracle = OracleAccumulator::default();
        let mut sink = NullSink;
        fast.begin(&mut sink);
        oracle.begin(&mut sink);
        for (k, v) in [(4u32, 1.0), (2, 0.5), (4, 2.0)] {
            fast.accumulate(k, v, &mut sink);
            oracle.accumulate(k, v, &mut sink);
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        fast.gather(&mut a, &mut sink);
        oracle.gather(&mut b, &mut sink);
        a.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(a, b);
    }
}
