//! Incremental Infomap over dynamic graphs: frontier-restricted
//! re-optimization seeded from the previous partition.
//!
//! A fresh multilevel run costs the full pipeline for every edit batch.
//! [`IncrementalState`] instead keeps the last partition, the merged CSR,
//! its flow network and the partition's module statistics alive and, on
//! an [`EdgeDelta`]:
//!
//! 1. **Patch** — folds the batch into the overlay, which moves the chain
//!    head and the exact total weight in O(Δ) ([`DeltaGraph::apply`]),
//!    then splices the batch's rows into the merged CSR
//!    ([`DeltaGraph::splice`]): only the rows holding an edited arc are
//!    rewritten, every other span is copied. For undirected graphs the
//!    flows are `w / 2W` up to one normalizer, read from the overlay's
//!    exact total rather than summed over the arcs, so an edit rescales
//!    every flow by one factor: the kept network is copied with that
//!    factor applied and only the edited arcs, their endpoints' visit
//!    rates and row totals are computed again; the kept module statistics
//!    rescale in O(modules) and move only by the edited arcs' exits. The
//!    node term `Σ plogp(p)` follows in O(Δ): every untouched flow with an
//!    arc is `f·p`, so its share is `f·S + f·log₂f·P` from the kept sums
//!    `S = Σ plogp(p)` and `P = Σ p`, and only the edited endpoints' terms
//!    are taken out and put back. No arc is re-derived from the graph and
//!    no module statistic is re-summed over the arcs. Directed flow is
//!    PageRank, which an edit moves everywhere by different amounts, so
//!    directed graphs rebuild the flow network and module statistics from
//!    the spliced CSR.
//! 2. **Touched frontier** — the endpoints of changed arcs plus the
//!    boundary vertices of their modules (members with an arc crossing
//!    the module boundary) form the initial active set. A symmetric
//!    network's in-rows are its out-rows, so only those are scanned.
//! 3. **Frontier-restricted sweeps** — the schedule's one sweep body
//!    (the same one multilevel levels and refinement run) over the
//!    frontier instead of every vertex, with the dual-SPA kernel through
//!    [`HostEngine`]. Each sweep the frontier *ripples* to the neighbors
//!    of whatever moved, so changes propagate exactly as far as they
//!    improve the map equation. The pass emits the same `decide`/`apply`
//!    spans and `sweep` records (`refine: true`) as a refinement pass.
//! 4. **Quality guard** — the incremental codelength is compared against
//!    the anchor (the codelength of the last full run) under a drift
//!    budget. Exceeding the budget — or a frontier that rippled across
//!    too much of the graph — triggers a full multilevel fallback on a
//!    freshly built flow network, bit-identical to
//!    [`crate::detect_communities`] on the merged graph, which also
//!    re-anchors the drift reference and reseeds the kept network and
//!    statistics. Both paths poll the [`CancelToken`] at sweep
//!    boundaries.
//!
//! The incremental pass never coarsens, so it can only refine locally;
//! the drift budget is what bounds the slow quality erosion this could
//! otherwise accumulate across many batches. The patched flows drift
//! from a rebuilt network by a few roundings per batch (and by the last
//! bits between the exact total and the arc-order sum a rebuild divides
//! by); the codelength the state reports stays within 1e-9 of a
//! from-scratch recomputation (`tests/incremental.rs`). Telemetry:
//! `incr.patch` (the overlay fold, the splice and the flow and statistics
//! patch) and `incr.frontier` spans,
//! `infomap.incr.frontier_size` / `infomap.incr.ripple_rounds`
//! gauges (plus flight-recorder instants) per batch and an
//! `infomap.incr.fallback` counter/instant when the guard fires.

use std::sync::Arc;
use std::time::Instant;

use asa_graph::delta::{DeltaGraph, EdgeDelta};
use asa_graph::{CsrError, CsrGraph, NodeId, Partition};
use asa_obs::Obs;

use crate::cancel::CancelToken;
use crate::config::InfomapConfig;
use crate::driver::{run_keeping_flow, HostEngine};
use crate::flow::FlowNetwork;
use crate::mapeq::{plogp, MapState};
use crate::pagerank::ISOLATED_FLOW;
use crate::result::{InfomapResult, KernelTimings, LevelInfo};
use crate::schedule::{sweep_pass, REFINE_LEVEL};

/// Knobs of the incremental path's quality guard.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Maximum tolerated relative codelength regression of an incremental
    /// pass against the anchor (the last full run): exceeding
    /// `anchor * (1 + drift_budget)` forces a full multilevel fallback.
    pub drift_budget: f64,
    /// Maximum fraction of vertices the rippling frontier may touch in
    /// one batch before the pass is declared non-local and falls back.
    pub frontier_budget: f64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            drift_budget: 0.01,
            frontier_budget: 0.5,
        }
    }
}

/// Why the quality guard replaced an incremental pass with a full run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Incremental codelength drifted past the anchor's budget.
    DriftExceeded,
    /// The frontier rippled across more than the budgeted fraction of
    /// the graph — a full run is no more expensive at that point.
    FrontierExploded,
}

impl FallbackReason {
    /// Stable lowercase name for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::DriftExceeded => "drift_exceeded",
            FallbackReason::FrontierExploded => "frontier_exploded",
        }
    }
}

/// Outcome of one [`IncrementalState::apply`] call.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome {
    /// The run's result on the merged graph. For an incremental pass the
    /// level statistics carry one frontier-restricted refinement entry;
    /// for a fallback they are the full multilevel breakdown.
    pub result: InfomapResult,
    /// `None` when the frontier-restricted pass was accepted; the
    /// guard's reason when a full multilevel run replaced it.
    pub fallback: Option<FallbackReason>,
    /// Initial frontier size (delta endpoints plus touched-module
    /// boundary vertices).
    pub frontier_size: usize,
    /// Sweeps the incremental pass executed before converging (frontier
    /// ripple rounds). Counts the attempted pass even when the guard
    /// then fell back.
    pub ripple_rounds: usize,
    /// Chain fingerprint identifying the produced graph version.
    pub chain_fingerprint: u64,
}

impl IncrementalOutcome {
    /// Whether the frontier-restricted pass was accepted.
    pub fn incremental(&self) -> bool {
        self.fallback.is_none()
    }
}

/// Live state of one dynamic graph: the delta overlay, the merged CSR,
/// its flow network, the current partition with its module statistics,
/// and the quality-guard anchor. See the module docs.
#[derive(Debug)]
pub struct IncrementalState {
    graph: DeltaGraph,
    /// Materialized merged CSR of the current version (what the flow
    /// network and any fallback run are built from).
    merged: Arc<CsrGraph>,
    /// Flow network of `merged`, patched batch by batch.
    flow: FlowNetwork,
    /// Module statistics of `partition` on `flow`.
    state: MapState,
    /// Undirected graphs: the flow per unit of arc weight `flow` was
    /// built or patched with, `(1 − ISOLATED_FLOW · isolated) / 2W`.
    flow_per_weight: f64,
    /// Undirected graphs: the node term's sums over the vertices of
    /// `flow` that have an arc, the flows a rescale multiplies.
    node_term: NodeTerm,
    /// Vertices of `merged` with no arc at all.
    isolated: usize,
    /// How much the rescales since `state` was last built can have grown
    /// a rounding error patched into it: the largest product of the
    /// factors that followed any batch, at least 1.
    rounding_gain: f64,
    /// Compact: labels `0..state.num_modules()`.
    partition: Partition,
    codelength: f64,
    /// Codelength of the last *full* run — the drift reference.
    anchor_codelength: f64,
    cfg: InfomapConfig,
    icfg: IncrementalConfig,
}

impl IncrementalState {
    /// Seeds the state with a full (cancellable) run on `base`. Returns
    /// the state plus that run's result.
    pub fn new(
        base: Arc<CsrGraph>,
        cfg: InfomapConfig,
        icfg: IncrementalConfig,
        obs: &Obs,
        cancel: &CancelToken,
    ) -> (Self, InfomapResult) {
        let mut engine = HostEngine::with_obs(obs);
        let (flow, result) = run_keeping_flow(&base, &cfg, &mut engine, obs, cancel);
        let graph = DeltaGraph::new(Arc::clone(&base));
        let isolated = base.nodes().filter(|&u| base.out_degree(u) == 0).count();
        let state = IncrementalState {
            flow_per_weight: flow_per_weight(isolated, base.total_arc_weight()),
            node_term: NodeTerm::of(&flow, &base),
            isolated,
            rounding_gain: 1.0,
            state: module_state(&flow, &result.partition, &cfg),
            graph,
            merged: base,
            flow,
            partition: result.partition.clone(),
            codelength: result.codelength,
            anchor_codelength: result.codelength,
            cfg,
            icfg,
        };
        (state, result)
    }

    /// The delta overlay (base + net patches).
    pub fn graph(&self) -> &DeltaGraph {
        &self.graph
    }

    /// The materialized merged graph of the current version.
    pub fn merged(&self) -> &Arc<CsrGraph> {
        &self.merged
    }

    /// The flow network the next batch's sweeps start from: the network
    /// of [`IncrementalState::merged`], patched rather than rebuilt, so it
    /// matches [`FlowNetwork::from_graph`] on that graph to a few
    /// roundings per batch, not bit for bit.
    pub fn flow(&self) -> &FlowNetwork {
        &self.flow
    }

    /// Current vertex→module assignment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Codelength of [`IncrementalState::partition`] on the current
    /// version, in bits.
    pub fn codelength(&self) -> f64 {
        self.codelength
    }

    /// The quality guard's drift reference (codelength of the last full
    /// run).
    pub fn anchor_codelength(&self) -> f64 {
        self.anchor_codelength
    }

    /// The Infomap configuration this state optimizes under.
    pub fn config(&self) -> &InfomapConfig {
        &self.cfg
    }

    /// Chain fingerprint of the current version.
    pub fn chain_fingerprint(&self) -> u64 {
        self.graph.chain_fingerprint()
    }

    /// The chain head `apply(delta)` would produce, or the error when the
    /// merged total weight would overflow `f64` or come within a small
    /// margin of it ([`DeltaGraph::fingerprint_after`]). A caller that takes deltas
    /// from outside checks this before [`IncrementalState::apply`], which
    /// does not.
    pub fn fingerprint_after(&self, delta: &EdgeDelta) -> Result<u64, CsrError> {
        self.graph.fingerprint_after(delta)
    }

    /// Rebases the overlay onto the merged CSR the state already holds, so
    /// compaction runs no merge. Chain identity — and therefore every
    /// cache entry keyed on it — is preserved.
    pub fn compact(&mut self) {
        let head = self.graph.chain_fingerprint();
        self.graph.rebase(Arc::clone(&self.merged));
        debug_assert_eq!(self.graph.chain_fingerprint(), head);
    }

    /// Applies one delta batch and re-optimizes. An empty delta is a
    /// strict no-op returning the identical partition. See the module
    /// docs for the algorithm and the quality-guard contract.
    pub fn apply(
        &mut self,
        delta: &EdgeDelta,
        obs: &Obs,
        cancel: &CancelToken,
    ) -> IncrementalOutcome {
        let _run = obs.span("infomap.incr");
        if delta.is_empty() {
            return IncrementalOutcome {
                result: self.snapshot_result(self.codelength, Vec::new(), KernelTimings::default()),
                fallback: None,
                frontier_size: 0,
                ripple_rounds: 0,
                chain_fingerprint: self.graph.chain_fingerprint(),
            };
        }
        let t = Instant::now();
        let chain = {
            let _sp = obs.span("incr.patch");
            let chain = self.graph.apply(delta);
            self.patch(delta);
            chain
        };
        let mut timings = KernelTimings {
            pagerank: t.elapsed(),
            ..KernelTimings::default()
        };

        // Touched frontier: endpoints of changed arcs plus the boundary
        // vertices of their modules.
        let active = {
            let _sp = obs.span("incr.frontier");
            initial_frontier(&self.flow, &self.partition, &delta.endpoints())
        };
        let frontier_size = active.len();
        obs.gauge("infomap.incr.frontier_size")
            .set(frontier_size as u64);
        obs.trace_instant("infomap.incr.frontier_size", "infomap");

        // Frontier-restricted sweeps over the previous partition: the
        // schedule's sweep body, minus coarsening, counting every vertex
        // the rippling frontier touches.
        let n = self.flow.num_nodes();
        let mut engine = HostEngine::with_obs(obs);
        let mut touched = vec![false; n];
        let mut touched_total = 0usize;
        let (info, interrupted) = sweep_pass(
            &mut engine,
            &self.flow,
            &mut self.partition,
            &mut self.state,
            active,
            (0, REFINE_LEVEL),
            &self.cfg,
            cancel,
            &mut timings,
            |active| {
                for &u in active {
                    if !touched[u as usize] {
                        touched[u as usize] = true;
                        touched_total += 1;
                    }
                }
            },
        );
        let ripple_rounds = info.sweeps;
        obs.gauge("infomap.incr.ripple_rounds")
            .set(ripple_rounds as u64);
        obs.trace_instant("infomap.incr.ripple_rounds", "infomap");

        let incremental_codelength = info.codelength_after;

        // Quality guard. A cancelled pass skips it: the fallback would be
        // cancelled immediately too, so the partial incremental answer is
        // the best available within the budget.
        let anchor = self.anchor_codelength;
        let drift_limit = anchor + self.icfg.drift_budget * anchor.abs();
        let fallback = if interrupted {
            None
        } else if incremental_codelength > drift_limit {
            Some(FallbackReason::DriftExceeded)
        } else if (touched_total as f64) > self.icfg.frontier_budget * n as f64 {
            Some(FallbackReason::FrontierExploded)
        } else {
            None
        };

        let result = match fallback {
            None => {
                self.compact_labels();
                self.codelength = incremental_codelength;
                self.snapshot_result(incremental_codelength, vec![info], timings)
            }
            Some(_) => {
                obs.counter("infomap.incr.fallback").incr();
                obs.trace_instant("infomap.incr.fallback", "infomap");
                let _sp = obs.span("incr.fallback");
                // A fresh flow network, as `detect_communities` builds it,
                // replaces the patched one: the fallback is that run, bit
                // for bit, and the kept state restarts from it.
                let (flow, mut full) =
                    run_keeping_flow(&self.merged, &self.cfg, &mut engine, obs, cancel);
                full.timings.pagerank += timings.pagerank;
                self.partition = full.partition.clone();
                self.reseed(flow);
                self.codelength = full.codelength;
                // Re-anchor: the full run is the new drift reference.
                self.anchor_codelength = full.codelength;
                full
            }
        };
        let interrupted = interrupted || result.interrupted;
        IncrementalOutcome {
            result: InfomapResult {
                interrupted,
                ..result
            },
            fallback,
            frontier_size,
            ripple_rounds,
            chain_fingerprint: chain,
        }
    }

    /// Brings the merged CSR, the flow network and the module statistics
    /// to the version `delta` (already folded into the overlay) produced.
    fn patch(&mut self, delta: &EdgeDelta) {
        let merged = Arc::new(self.graph.splice(&self.merged, delta));
        let prev = std::mem::replace(&mut self.merged, merged);
        let touched = delta.endpoints();
        // The node term's sums over the untouched vertices with an arc:
        // the touched ones' old terms come out here and their new ones go
        // back in once the flows are patched.
        let mut node_term = self.node_term;
        for &u in &touched {
            let was = prev.out_degree(u) == 0;
            if !was {
                node_term.remove(self.flow.node_flow(u));
            }
            let is = self.merged.out_degree(u) == 0;
            self.isolated = self.isolated + usize::from(is) - usize::from(was);
        }
        let was_empty = prev.num_arcs() == 0;
        // Free the old CSR (unless the overlay's base still holds it)
        // before the flow network is copied.
        drop(prev);
        // Directed flow is PageRank: an edit moves every visit rate by its
        // own amount, so there is no one factor to rescale by. An empty
        // graph's flow is uniform, not proportional to weight.
        if self.graph.is_directed() || was_empty || self.merged.num_arcs() == 0 {
            self.reseed(FlowNetwork::from_graph(&self.merged, &self.cfg));
            return;
        }
        let flow_per_weight = flow_per_weight(self.isolated, self.graph.total());
        let factor = flow_per_weight / self.flow_per_weight;
        let changed = delta.arcs(true);
        let flow = (self.flow).patched_undirected(
            &self.merged,
            &changed,
            &touched,
            flow_per_weight,
            factor,
        );
        // A link exit is patched by adding and taking away flows, so it
        // carries the rounding of the largest flow it ever held, and each
        // rescale scales that rounding with it: an exit patched while a
        // huge weight dwarfed it comes back ~1e18 times too coarse once
        // the weight leaves. Past `MAX_ROUNDING_GAIN` the statistics are
        // summed afresh from the patched flows, which are only ever
        // multiplied and so keep their relative precision.
        // The node term's sums rescale the same way and carry the same
        // rounding, so they are summed afresh with the statistics.
        self.rounding_gain = (self.rounding_gain * factor).max(1.0);
        if self.rounding_gain > MAX_ROUNDING_GAIN {
            self.state = module_state(&flow, &self.partition, &self.cfg);
            self.node_term = NodeTerm::of(&flow, &self.merged);
            self.rounding_gain = 1.0;
        } else {
            node_term.rescale(factor);
            for &u in touched.iter().filter(|&&u| self.merged.out_degree(u) != 0) {
                node_term.insert(flow.node_flow(u));
            }
            self.node_term = node_term;
            let node_plogp = node_term.plogp + self.isolated as f64 * plogp(ISOLATED_FLOW);
            (self.state).patch(
                &self.flow,
                &flow,
                &self.partition,
                &changed,
                factor,
                node_plogp,
            );
        }
        self.flow = flow;
        self.flow_per_weight = flow_per_weight;
    }

    /// Replaces the kept flow network by `flow`, a network built from
    /// scratch, and the module statistics by ones built on it. A directed
    /// network is rebuilt every batch and never rescaled, so only an
    /// undirected one takes the normalizer and node-term sums (over the
    /// arc-order total [`FlowNetwork::from_graph`] divided by).
    fn reseed(&mut self, flow: FlowNetwork) {
        self.state = module_state(&flow, &self.partition, &self.cfg);
        if !self.merged.is_directed() {
            self.flow_per_weight = flow_per_weight(self.isolated, self.merged.total_arc_weight());
            self.node_term = NodeTerm::of(&flow, &self.merged);
        }
        self.flow = flow;
        self.rounding_gain = 1.0;
    }

    /// Renumbers the partition densely after a pass emptied modules, and
    /// the module statistics with it.
    fn compact_labels(&mut self) {
        let map = self.partition.compact_with_map();
        (self.state).relabel(&map, self.partition.num_communities());
    }

    /// An [`InfomapResult`] describing the current partition with the
    /// given level breakdown.
    fn snapshot_result(
        &self,
        codelength: f64,
        levels: Vec<LevelInfo>,
        timings: KernelTimings,
    ) -> InfomapResult {
        let initial_codelength = levels.first().map_or(codelength, |l| l.codelength_before);
        InfomapResult {
            partition: self.partition.clone(),
            codelength,
            initial_codelength,
            levels,
            level_partitions: vec![self.partition.clone()],
            timings,
            interrupted: false,
        }
    }
}

/// The most a batch's rescale may grow the rounding already in the
/// patched module statistics (see [`IncrementalState::patch`]) before
/// they are rebuilt. Factors above 1 come from batches that shrink the
/// total weight; a stream whose edits balance keeps the gain near 1.
const MAX_ROUNDING_GAIN: f64 = 2.0;

/// Module statistics of `partition` on `flow`, with the node term of
/// `flow` itself summed exactly as a build does.
fn module_state(flow: &FlowNetwork, partition: &Partition, cfg: &InfomapConfig) -> MapState {
    let node_plogp = flow.node_flows().iter().copied().map(plogp).sum();
    MapState::with_options(flow, partition, node_plogp, cfg.teleport_mode())
}

/// Flow per unit of arc weight of an undirected graph with `isolated`
/// isolated vertices and total arc weight `total`, as
/// [`crate::pagerank::undirected_stationary`] distributes it. A build
/// passes the arc-order sum [`CsrGraph::total_arc_weight`] its network
/// divided by; a patch passes the overlay's exact total
/// ([`DeltaGraph::total`]), which needs no pass over the arcs and, unlike
/// a running sum, keeps the small weights through a huge one that comes
/// and goes. The two differ only in the arc-order sum's roundings.
fn flow_per_weight(isolated: usize, total: f64) -> f64 {
    (1.0 - ISOLATED_FLOW * isolated as f64) / total
}

/// `Σ plogp(p)` and `Σ p` over the node flows `p` of the vertices that
/// have an arc. A rescale by `f` multiplies every such flow, and
/// `plogp(f·p) = f·plogp(p) + f·log₂f·p`, so the sums follow it in O(1);
/// isolated vertices keep [`ISOLATED_FLOW`] and are counted apart.
#[derive(Debug, Clone, Copy)]
struct NodeTerm {
    plogp: f64,
    flow: f64,
}

impl NodeTerm {
    /// The sums over `flow`'s vertices that have an arc in `graph`.
    fn of(flow: &FlowNetwork, graph: &CsrGraph) -> Self {
        let mut term = NodeTerm {
            plogp: 0.0,
            flow: 0.0,
        };
        for u in graph.nodes().filter(|&u| graph.out_degree(u) != 0) {
            term.insert(flow.node_flow(u));
        }
        term
    }

    fn insert(&mut self, p: f64) {
        self.plogp += plogp(p);
        self.flow += p;
    }

    fn remove(&mut self, p: f64) {
        self.plogp -= plogp(p);
        self.flow -= p;
    }

    fn rescale(&mut self, factor: f64) {
        self.plogp = factor * self.plogp + factor * factor.log2() * self.flow;
        self.flow *= factor;
    }
}

/// The touched frontier: `endpoints` plus every boundary vertex (one
/// with an arc crossing the module boundary, in either direction) of the
/// modules those endpoints live in. Sorted, deduplicated.
fn initial_frontier(
    flow: &FlowNetwork,
    partition: &Partition,
    endpoints: &[NodeId],
) -> Vec<NodeId> {
    let labels = partition.labels();
    let modules = partition.num_communities();
    let mut touched_module = vec![false; modules];
    for &e in endpoints {
        touched_module[labels[e as usize] as usize] = true;
    }
    let mut frontier: Vec<NodeId> = endpoints.to_vec();
    // A symmetric network's in-rows are its out-rows.
    let symmetric = flow.is_symmetric();
    for u in 0..flow.num_nodes() as NodeId {
        let m = labels[u as usize];
        if !touched_module[m as usize] {
            continue;
        }
        let crosses = flow.out_arcs(u).any(|(v, _)| labels[v as usize] != m)
            || (!symmetric && flow.in_arcs(u).any(|(v, _)| labels[v as usize] != m));
        if crosses {
            frontier.push(u);
        }
    }
    frontier.sort_unstable();
    frontier.dedup();
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use asa_graph::generators::{planted_partition, PlantedConfig};
    use asa_graph::GraphBuilder;

    fn planted() -> Arc<CsrGraph> {
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 6,
                community_size: 40,
                k_in: 10.0,
                k_out: 1.0,
            },
            19,
        );
        Arc::new(g)
    }

    fn seed(base: Arc<CsrGraph>) -> IncrementalState {
        IncrementalState::new(
            base,
            InfomapConfig::default(),
            IncrementalConfig::default(),
            &Obs::disabled(),
            &CancelToken::none(),
        )
        .0
    }

    #[test]
    fn empty_delta_is_identity() {
        let mut st = seed(planted());
        let before_labels = st.partition().labels().to_vec();
        let before_head = st.chain_fingerprint();
        let out = st.apply(&EdgeDelta::new(), &Obs::disabled(), &CancelToken::none());
        assert!(out.incremental());
        assert_eq!(out.frontier_size, 0);
        assert_eq!(out.ripple_rounds, 0);
        assert_eq!(out.chain_fingerprint, before_head);
        assert_eq!(out.result.partition.labels(), &before_labels[..]);
        assert_eq!(st.partition().labels(), &before_labels[..]);
    }

    #[test]
    fn small_delta_stays_incremental_and_tracks_quality() {
        let base = planted();
        let mut st = seed(Arc::clone(&base));
        // Strengthen a handful of intra-community edges: local work only.
        let mut d = EdgeDelta::new();
        d.insert(0, 1, 0.5).insert(2, 3, 0.5).insert(40, 41, 0.5);
        let out = st.apply(&d, &Obs::disabled(), &CancelToken::none());
        assert!(out.incremental(), "local edit must not trigger fallback");
        assert!(out.frontier_size > 0);
        assert!(out.ripple_rounds >= 1);
        // Quality: within the drift budget of a fresh run on the merged
        // graph.
        let fresh = crate::detect_communities(st.merged(), st.config());
        let budget = st.icfg.drift_budget;
        assert!(
            st.codelength() <= fresh.codelength * (1.0 + budget) + 1e-9,
            "incremental {} vs fresh {}",
            st.codelength(),
            fresh.codelength
        );
    }

    #[test]
    fn destructive_delta_falls_back_and_reanchors() {
        // A chain of tiny cliques; the delta rewires it into one dense
        // blob, invalidating the old partition globally.
        let mut b = GraphBuilder::undirected(24);
        for c in 0..6u32 {
            let base = c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j, 8.0);
                }
            }
            b.add_edge(base, ((c + 1) % 6) * 4, 0.1);
        }
        let mut st = seed(Arc::new(b.build()));
        let mut d = EdgeDelta::new();
        for u in 0..24u32 {
            for v in (u + 1)..24 {
                if st.graph().arc_weight(u, v).is_none() {
                    d.insert(u, v, 6.0);
                }
            }
        }
        let out = st.apply(&d, &Obs::disabled(), &CancelToken::none());
        assert!(out.fallback.is_some(), "global rewire must fall back");
        // Fallback re-anchors the drift reference to its own codelength.
        assert_eq!(st.anchor_codelength(), st.codelength());
        // The fallback is bit-identical to a fresh run on the merged
        // graph (same flow, same deterministic schedule).
        let fresh = crate::detect_communities(st.merged(), st.config());
        assert_eq!(st.codelength().to_bits(), fresh.codelength.to_bits());
        assert_eq!(st.partition().labels(), fresh.partition.labels());
    }

    #[test]
    fn cancelled_apply_returns_valid_partial_state() {
        let base = planted();
        let mut st = seed(Arc::clone(&base));
        let mut d = EdgeDelta::new();
        for u in 0..60u32 {
            d.insert(u, (u + 97) % 240, 2.0);
        }
        let cancel = CancelToken::after_polls(1);
        let out = st.apply(&d, &Obs::disabled(), &cancel);
        assert!(out.result.interrupted);
        assert!(out.result.codelength.is_finite());
        assert_eq!(out.result.partition.len(), base.num_nodes());
        // State stays coherent for the next batch.
        assert_eq!(st.partition().len(), base.num_nodes());
    }

    #[test]
    fn compaction_preserves_chain_and_partition() {
        let mut st = seed(planted());
        let mut d = EdgeDelta::new();
        d.insert(5, 9, 1.0).delete(0, 1);
        let out = st.apply(&d, &Obs::disabled(), &CancelToken::none());
        let head = out.chain_fingerprint;
        let labels = st.partition().labels().to_vec();
        let merged_fp = st.merged().fingerprint();
        st.compact();
        assert_eq!(st.chain_fingerprint(), head);
        assert_eq!(st.partition().labels(), &labels[..]);
        assert_eq!(st.merged().fingerprint(), merged_fp);
    }
}
