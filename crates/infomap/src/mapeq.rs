//! The map equation: codelength of a partitioned flow network.
//!
//! Rosvall & Bergstrom's map equation (paper Eq. 1) in its expanded,
//! directly computable form:
//!
//! ```text
//! L(M) = plogp(q) − 2·Σ_i plogp(q_i) + Σ_i plogp(q_i + p_i) − Σ_α plogp(p_α)
//! ```
//!
//! with `plogp(x) = x·log₂x`, `q_i` the exit probability of module `i`,
//! `q = Σ q_i`, `p_i` the total visit rate of module `i`, and `p_α`
//! per-node visit rates (the last term is partition-independent).
//! [`MapState`] maintains the module-level quantities and supports O(1)
//! move deltas given the accumulated in/out flows that `FindBestCommunity`
//! produces — exactly the role of the `calc(outFlowToNewMod,
//! inFlowFromMod)` call in Algorithm 1.
//!
//! # Teleportation
//!
//! Two conventions for the exit probability are supported
//! ([`TeleportMode`]):
//!
//! * **Unrecorded** (default, modern Infomap): teleportation only shapes
//!   the stationary visit rates; module exits count link flow alone,
//!   `q_i = Σ_{α∈i, β∉i} F(α→β)`.
//! * **Recorded** (the original Rosvall 2008 formulation the paper's
//!   Eq. 1 describes): the random teleport step is itself encoded, adding
//!   `τ·(n−n_i)/n·p_i` to each module's exit and scaling link exits by
//!   `(1−τ)`. Node *weights* (how many original vertices a supernode
//!   stands for) keep `n_i` exact across coarsening levels.

use asa_graph::{NodeId, Partition};
use serde::{Deserialize, Serialize};

use crate::flow::FlowNetwork;

/// `x · log₂x`, extended continuously with `plogp(0) = 0`.
#[inline]
pub fn plogp(x: f64) -> f64 {
    if x > 1e-300 {
        x * x.log2()
    } else {
        0.0
    }
}

/// How teleportation enters the codelength. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum TeleportMode {
    /// Teleport steps are not encoded; exits are pure link flow.
    #[default]
    Unrecorded,
    /// Teleport steps are encoded with probability `tau` per step.
    Recorded {
        /// Teleportation probability τ.
        tau: f64,
    },
}

/// The flow summary of one candidate move, produced by the accumulation
/// device: a vertex's flow exchanged with one module.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModuleFlows {
    /// Σ flow from the vertex into members of the module.
    pub out_flow: f64,
    /// Σ flow from members of the module into the vertex.
    pub in_flow: f64,
}

/// Per-node quantities consumed by the move evaluation; see
/// [`FlowNetwork::node_summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSummary {
    /// Stationary visit rate `p_α`.
    pub flow: f64,
    /// Number of original vertices this node stands for (1 at the vertex
    /// level; member count for supernodes).
    pub weight: u64,
    /// Σ of outgoing arc flows (self-loops excluded).
    pub out_total: f64,
    /// Σ of incoming arc flows.
    pub in_total: f64,
}

/// One module's statistics and the scan terms derived from them, on one
/// cache line: a candidate evaluation reads exactly this record.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct ModuleRecord {
    /// Link exit flow (teleport-free part).
    link_exit: f64,
    /// Total visit rate `p_i`.
    flow: f64,
    /// Original-vertex count.
    nodes: u64,
    /// Effective exit `e_i` of the three fields above.
    e: f64,
    /// `plogp(e_i)`.
    plogp_e: f64,
    /// `plogp(e_i + p_i)`.
    plogp_ep: f64,
}

/// Module-level map-equation state for one level of the hierarchy.
///
/// Each module's record carries its effective exit and the two `plogp`
/// terms the scan needs, and the state carries `plogp(q)`. Only this
/// type's methods change a record's fields or `q`, and each rewrites the
/// derived terms from them, so every stored term is the value a fresh
/// evaluation gives, to the bit.
#[derive(Debug, Clone)]
pub struct MapState {
    mode: TeleportMode,
    records: Vec<ModuleRecord>,
    /// Total original-vertex count `n`.
    total_nodes: u64,
    /// `q = Σ_i q_i` over *effective* exits.
    total_exit: f64,
    /// `plogp(q)`.
    plogp_total_exit: f64,
    /// Partition-constant `Σ_α plogp(p_α)`.
    node_plogp: f64,
}

impl MapState {
    /// Builds module statistics for `partition` over `flow`, with the
    /// node-level term `Σ_α plogp(p_α)` taken from `flow` itself and
    /// unrecorded teleportation.
    ///
    /// When optimizing a *coarse* level of the hierarchy, use
    /// [`MapState::with_node_term`] and pass the original vertex-level term:
    /// a supernode stands for many vertices, so the within-module codebook
    /// must still be priced at vertex granularity. The term is
    /// partition-constant either way, so move deltas are unaffected — only
    /// reported absolute codelengths differ.
    ///
    /// The partition must be compact; module ids index the state arrays.
    pub fn new(flow: &FlowNetwork, partition: &Partition) -> Self {
        let node_plogp = flow.node_flows().iter().copied().map(plogp).sum();
        Self::with_options(flow, partition, node_plogp, TeleportMode::Unrecorded)
    }

    /// Like [`MapState::new`] but with an explicit node-level term (see
    /// there for when this matters).
    pub fn with_node_term(flow: &FlowNetwork, partition: &Partition, node_plogp: f64) -> Self {
        Self::with_options(flow, partition, node_plogp, TeleportMode::Unrecorded)
    }

    /// Full-control constructor: explicit node term and teleport mode.
    pub fn with_options(
        flow: &FlowNetwork,
        partition: &Partition,
        node_plogp: f64,
        mode: TeleportMode,
    ) -> Self {
        assert_eq!(flow.num_nodes(), partition.len());
        if let TeleportMode::Recorded { tau } = mode {
            assert!((0.0..1.0).contains(&tau), "tau must be in [0,1)");
        }
        let mut records = vec![ModuleRecord::default(); partition.num_communities()];
        for u in 0..flow.num_nodes() as u32 {
            let cu = partition.community_of(u) as usize;
            let r = &mut records[cu];
            r.flow += flow.node_flow(u);
            r.nodes += flow.node_weight(u);
            for (v, f) in flow.out_arcs(u) {
                if partition.community_of(v) as usize != cu {
                    r.link_exit += f;
                }
            }
        }
        let mut state = Self {
            mode,
            total_nodes: records.iter().map(|r| r.nodes).sum(),
            records,
            total_exit: 0.0,
            plogp_total_exit: 0.0,
            node_plogp,
        };
        state.refresh_all();
        state
    }

    /// Moves the state from `prev` to `flow`, the network
    /// [`FlowNetwork::patched_undirected`] made from it with `factor` and
    /// the arcs `changed`, for the same `partition`. Every link exit is
    /// `prev`'s times `factor`, less the changed arcs' scaled old
    /// contribution plus their new one: O(modules + changed · log d).
    /// Module flows are summed again from the node flows and `node_plogp`
    /// replaces the node term: O(n), no arc is read.
    pub(crate) fn patch(
        &mut self,
        prev: &FlowNetwork,
        flow: &FlowNetwork,
        partition: &Partition,
        changed: &[(NodeId, NodeId)],
        factor: f64,
        node_plogp: f64,
    ) {
        for r in &mut self.records {
            r.link_exit *= factor;
            r.flow = 0.0;
        }
        for &(u, v) in changed {
            let m = partition.community_of(u);
            if m != partition.community_of(v) {
                self.records[m as usize].link_exit +=
                    flow.arc_flow(u, v) - prev.arc_flow(u, v) * factor;
            }
        }
        for (u, &p) in flow.node_flows().iter().enumerate() {
            self.records[partition.community_of(u as NodeId) as usize].flow += p;
        }
        self.node_plogp = node_plogp;
        self.refresh_all();
    }

    /// Renumbers the modules: module `m` becomes `map[m]`, and a module
    /// `map` sends to `u32::MAX` or does not reach (an empty one) is
    /// dropped. This follows a [`Partition::compact_with_map`] of the
    /// partition the state describes. Records move whole, terms and all.
    pub(crate) fn relabel(&mut self, map: &[u32], modules: usize) {
        let mut records = vec![ModuleRecord::default(); modules];
        for (m, &to) in map.iter().enumerate().filter(|&(_, &to)| to != u32::MAX) {
            records[to as usize] = self.records[m];
        }
        self.records = records;
        self.set_total_exit(self.records.iter().map(|r| r.e).sum());
    }

    /// Rewrites module `m`'s derived terms from its own fields.
    fn refresh(&mut self, m: usize) {
        let r = self.records[m];
        let e = self.effective_exit(r.link_exit, r.flow, r.nodes);
        self.records[m] = ModuleRecord {
            e,
            plogp_e: plogp(e),
            plogp_ep: plogp(e + r.flow),
            ..r
        };
    }

    /// Refreshes every record, then sets `q` to the Σ of the effective
    /// exits in module order.
    fn refresh_all(&mut self) {
        for m in 0..self.records.len() {
            self.refresh(m);
        }
        self.set_total_exit(self.records.iter().map(|r| r.e).sum());
    }

    fn set_total_exit(&mut self, q: f64) {
        self.total_exit = q;
        self.plogp_total_exit = plogp(q);
    }

    /// Effective exit probability of a module with link exit `link`, visit
    /// rate `p`, and `n_i` member vertices.
    #[inline]
    fn effective_exit(&self, link: f64, p: f64, n_i: u64) -> f64 {
        match self.mode {
            TeleportMode::Unrecorded => link,
            TeleportMode::Recorded { tau } => {
                let n = self.total_nodes.max(1) as f64;
                tau * ((self.total_nodes - n_i) as f64 / n) * p + (1.0 - tau) * link
            }
        }
    }

    /// Panics unless every record's terms and the stored `plogp(q)` are,
    /// to the bit, a fresh evaluation of the record's own fields and `q`.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_terms_fresh(&self) {
        for (m, r) in self.records.iter().enumerate() {
            let e = self.effective_exit(r.link_exit, r.flow, r.nodes);
            let fresh = [e, plogp(e), plogp(e + r.flow)];
            let stored = [r.e, r.plogp_e, r.plogp_ep];
            assert_eq!(
                stored.map(f64::to_bits),
                fresh.map(f64::to_bits),
                "module {m}: stored terms {stored:?}, fresh {fresh:?}"
            );
        }
        assert_eq!(
            self.plogp_total_exit.to_bits(),
            plogp(self.total_exit).to_bits(),
            "stored plogp(q) is stale"
        );
    }

    /// Number of module slots (some may be empty after moves).
    pub fn num_modules(&self) -> usize {
        self.records.len()
    }

    /// The teleport convention in use.
    pub fn mode(&self) -> TeleportMode {
        self.mode
    }

    /// The partition-constant node term `Σ_α plogp(p_α)`.
    #[cfg(debug_assertions)]
    pub(crate) fn node_plogp(&self) -> f64 {
        self.node_plogp
    }

    /// Effective exit probability of module `m`.
    pub fn exit(&self, m: u32) -> f64 {
        self.records[m as usize].e
    }

    /// Link-only exit flow of module `m` (excludes any teleport term).
    pub fn link_exit(&self, m: u32) -> f64 {
        self.records[m as usize].link_exit
    }

    /// Hints the cache hierarchy to pull module `m`'s record, the one line
    /// a candidate evaluation reads.
    #[inline]
    pub fn prefetch_module(&self, m: u32) {
        if let Some(r) = self.records.get(m as usize) {
            crate::kernel::prefetch_read(r);
        }
    }

    /// Total visit rate of module `m`.
    pub fn flow(&self, m: u32) -> f64 {
        self.records[m as usize].flow
    }

    /// Original-vertex count of module `m`.
    pub fn nodes(&self, m: u32) -> u64 {
        self.records[m as usize].nodes
    }

    /// Total effective exit flow `q`.
    pub fn total_exit(&self) -> f64 {
        self.total_exit
    }

    /// Current codelength `L(M)` in bits.
    pub fn codelength(&self) -> f64 {
        let mut exit_sum = 0.0;
        let mut combined = 0.0;
        for r in &self.records {
            exit_sum += r.plogp_e;
            combined += r.plogp_ep;
        }
        self.plogp_total_exit - 2.0 * exit_sum + combined - self.node_plogp
    }

    /// The `(link_exit', p', n')` of both touched modules after moving a
    /// node, shared by [`MapState::delta_move`] and [`MapState::apply_move`].
    #[allow(clippy::type_complexity)]
    fn moved_stats(
        &self,
        old: u32,
        new: u32,
        node: &NodeSummary,
        flows_old: ModuleFlows,
        flows_new: ModuleFlows,
    ) -> ((f64, f64, u64), (f64, f64, u64)) {
        let (o, n) = (&self.records[old as usize], &self.records[new as usize]);
        // Leaving `old`: the node's arcs to outside-old stop exiting from
        // old, while old's arcs into the node start exiting.
        let link_o = o.link_exit - (node.out_total - flows_old.out_flow) + flows_old.in_flow;
        // Joining `new`: the node's arcs to outside-new now exit from new,
        // minus its arcs into new members; new's arcs into the node stop
        // exiting.
        let link_n = n.link_exit + (node.out_total - flows_new.out_flow) - flows_new.in_flow;
        (
            (link_o, o.flow - node.flow, o.nodes - node.weight),
            (link_n, n.flow + node.flow, n.nodes + node.weight),
        )
    }

    /// Codelength change (bits) of moving `node` from module `old` to
    /// module `new`, where `flows_old` / `flows_new` are its accumulated
    /// flow exchanges with those modules (the node's own self-arcs are
    /// excluded by construction). Negative = improvement.
    ///
    /// Every term is computed here from the modules' link exit, flow and
    /// node count, none read from the stored ones: this is the reference
    /// [`MoveEval::delta`] and the stored terms are checked against.
    pub fn delta_move(
        &self,
        old: u32,
        new: u32,
        node: &NodeSummary,
        flows_old: ModuleFlows,
        flows_new: ModuleFlows,
    ) -> f64 {
        if old == new {
            return 0.0;
        }
        let (o, n) = (&self.records[old as usize], &self.records[new as usize]);
        let (p_o, p_n) = (o.flow, n.flow);
        let ((lo2, po2, no2), (ln2, pn2, nn2)) =
            self.moved_stats(old, new, node, flows_old, flows_new);

        let e_o = self.effective_exit(o.link_exit, p_o, o.nodes);
        let e_n = self.effective_exit(n.link_exit, p_n, n.nodes);
        let e_o2 = self.effective_exit(lo2, po2, no2);
        let e_n2 = self.effective_exit(ln2, pn2, nn2);
        let q_new = self.total_exit + (e_o2 - e_o) + (e_n2 - e_n);

        plogp(q_new)
            - plogp(self.total_exit)
            - 2.0 * (plogp(e_o2) - plogp(e_o))
            - 2.0 * (plogp(e_n2) - plogp(e_n))
            + plogp(e_o2 + po2)
            - plogp(e_o + p_o)
            + plogp(e_n2 + pn2)
            - plogp(e_n + p_n)
    }

    /// Applies the move that [`MapState::delta_move`] evaluated, updating
    /// module statistics and their terms in O(1).
    pub fn apply_move(
        &mut self,
        old: u32,
        new: u32,
        node: &NodeSummary,
        flows_old: ModuleFlows,
        flows_new: ModuleFlows,
    ) {
        if old == new {
            return;
        }
        let (e_o, e_n) = (self.exit(old), self.exit(new));
        let (after_o, after_n) = self.moved_stats(old, new, node, flows_old, flows_new);
        for (m, (link_exit, flow, nodes)) in [(old, after_o), (new, after_n)] {
            let r = &mut self.records[m as usize];
            (r.link_exit, r.flow, r.nodes) = (link_exit, flow, nodes);
            self.refresh(m as usize);
        }
        let q = self.total_exit + (self.exit(old) - e_o) + (self.exit(new) - e_n);
        self.set_total_exit(q);
    }
}

/// Convenience: the codelength of `partition` on `flow` (builds a fresh
/// unrecorded-teleport [`MapState`]).
pub fn codelength(flow: &FlowNetwork, partition: &Partition) -> f64 {
    MapState::new(flow, partition).codelength()
}

/// Hoisted per-vertex state for one candidate scan: everything in
/// [`MapState::delta_move`] that depends only on the vertex's current
/// module and its accumulated `flows_old` is computed once here, so each
/// candidate evaluation pays exactly three `plogp` calls (for `q_new`,
/// `e_n2`, and `e_n2 + p_n2`) and reads the candidate's other terms from
/// its [`MapState`] record.
///
/// **Bit-exactness contract:** [`MoveEval::delta`] reproduces
/// [`MapState::delta_move`]'s result to the last ULP. Every arithmetic
/// operation of the original expression tree is performed on the same
/// operands in the same association order — constants are hoisted as
/// precomputed subexpression *values*, never re-associated — which the
/// `move_eval_bit_identical_to_delta_move` test locks down.
#[derive(Debug, Clone, Copy)]
pub struct MoveEval {
    old: u32,
    node_out_total: f64,
    node_flow: f64,
    node_weight: u64,
    /// `plogp(q)` of the frozen state.
    plogp_total_exit: f64,
    /// `2·(plogp(e_o2) − plogp(e_o))`.
    old_exit_pair: f64,
    /// `q + (e_o2 − e_o)`: the candidate-independent part of `q_new`.
    base_q: f64,
    /// `e_o` under the frozen state (needed to rebuild `q_new` exactly).
    e_o: f64,
    e_o2: f64,
    /// `plogp(e_o2 + p_o2)`.
    plogp_old_after: f64,
    /// `plogp(e_o + p_o)`.
    plogp_old_before: f64,
}

impl MoveEval {
    /// Hoists the old-module terms for vertex `node` currently in module
    /// `old` with accumulated exchange `flows_old`.
    pub fn new(state: &MapState, old: u32, node: &NodeSummary, flows_old: ModuleFlows) -> Self {
        let o = &state.records[old as usize];
        let link_o = o.link_exit - (node.out_total - flows_old.out_flow) + flows_old.in_flow;
        let po2 = o.flow - node.flow;
        let no2 = o.nodes - node.weight;
        let e_o2 = state.effective_exit(link_o, po2, no2);
        MoveEval {
            old,
            node_out_total: node.out_total,
            node_flow: node.flow,
            node_weight: node.weight,
            plogp_total_exit: state.plogp_total_exit,
            old_exit_pair: 2.0 * (plogp(e_o2) - o.plogp_e),
            base_q: state.total_exit + (e_o2 - o.e),
            e_o: o.e,
            e_o2,
            plogp_old_after: plogp(e_o2 + po2),
            plogp_old_before: o.plogp_ep,
        }
    }

    /// The module the vertex currently belongs to.
    #[inline]
    pub fn old_module(&self) -> u32 {
        self.old
    }

    /// Codelength delta (bits) of moving into module `new` with exchange
    /// `flows_new`; bit-identical to [`MapState::delta_move`].
    #[inline]
    pub fn delta(&self, state: &MapState, new: u32, flows_new: ModuleFlows) -> f64 {
        debug_assert_ne!(new, self.old);
        let n = &state.records[new as usize];
        let link_n = n.link_exit + (self.node_out_total - flows_new.out_flow) - flows_new.in_flow;
        let pn2 = n.flow + self.node_flow;
        let nn2 = n.nodes + self.node_weight;
        let e_n2 = state.effective_exit(link_n, pn2, nn2);
        // `q_new = q + (e_o2 − e_o) + (e_n2 − e_n)`: the first addition is
        // hoisted into `base_q`; the association order matches
        // `delta_move` exactly.
        let q_new = self.base_q + (e_n2 - n.e);
        debug_assert_eq!(
            q_new.to_bits(),
            (state.total_exit + (self.e_o2 - self.e_o) + (e_n2 - n.e)).to_bits()
        );
        plogp(q_new) - self.plogp_total_exit - self.old_exit_pair - 2.0 * (plogp(e_n2) - n.plogp_e)
            + self.plogp_old_after
            - self.plogp_old_before
            + plogp(e_n2 + pn2)
            - n.plogp_ep
    }
}

/// Accumulates, without any device model, the flow exchange between vertex
/// `u` and module `m` under `partition`. Test/oracle helper mirroring what
/// the accumulation device computes.
pub fn module_flows_of(
    flow: &FlowNetwork,
    partition: &Partition,
    u: NodeId,
    m: u32,
) -> ModuleFlows {
    let mut mf = ModuleFlows::default();
    for (v, f) in flow.out_arcs(u) {
        if partition.community_of(v) == m {
            mf.out_flow += f;
        }
    }
    for (v, f) in flow.in_arcs(u) {
        if partition.community_of(v) == m {
            mf.in_flow += f;
        }
    }
    mf
}

/// [`module_flows_of`] for two distinct modules in a single arc traversal.
/// Per-module additions happen in arc order, exactly as in the one-module
/// helper, so each returned sum is bit-identical to calling
/// [`module_flows_of`] twice at half the traversal cost.
pub fn module_flows_pair(
    flow: &FlowNetwork,
    partition: &Partition,
    u: NodeId,
    a: u32,
    b: u32,
) -> (ModuleFlows, ModuleFlows) {
    debug_assert_ne!(a, b, "modules must differ");
    let mut fa = ModuleFlows::default();
    let mut fb = ModuleFlows::default();
    for (v, f) in flow.out_arcs(u) {
        let c = partition.community_of(v);
        if c == a {
            fa.out_flow += f;
        } else if c == b {
            fb.out_flow += f;
        }
    }
    if flow.is_symmetric() {
        // The in-arc CSR is byte-identical to the out-arc CSR, so the in
        // sums replay the exact same additions — mirror instead of
        // re-traversing.
        fa.in_flow = fa.out_flow;
        fb.in_flow = fb.out_flow;
        return (fa, fb);
    }
    for (v, f) in flow.in_arcs(u) {
        let c = partition.community_of(v);
        if c == a {
            fa.in_flow += f;
        } else if c == b {
            fb.in_flow += f;
        }
    }
    (fa, fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfomapConfig;
    use asa_graph::generators::planted_partition;
    use asa_graph::generators::PlantedConfig;
    use asa_graph::GraphBuilder;

    fn two_triangles_flow() -> FlowNetwork {
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        FlowNetwork::from_graph(&b.build(), &InfomapConfig::default())
    }

    fn check_delta_everywhere(flow: &FlowNetwork, partition: &Partition, mode: TeleportMode) {
        let node_plogp: f64 = flow.node_flows().iter().copied().map(plogp).sum();
        let state = MapState::with_options(flow, partition, node_plogp, mode);
        let l0 = state.codelength();
        let m = partition.num_communities() as u32;
        for u in 0..flow.num_nodes() as u32 {
            let old = partition.community_of(u);
            for new in 0..m {
                if new == old {
                    continue;
                }
                let delta = state.delta_move(
                    old,
                    new,
                    &flow.node_summary(u),
                    module_flows_of(flow, partition, u, old),
                    module_flows_of(flow, partition, u, new),
                );
                let mut moved = partition.clone();
                moved.assign(u, new);
                let l1 = MapState::with_options(flow, &moved, node_plogp, mode).codelength();
                assert!(
                    (delta - (l1 - l0)).abs() < 1e-9,
                    "{mode:?} u={u} {old}->{new}: delta {delta} vs recompute {}",
                    l1 - l0
                );
            }
        }
    }

    #[test]
    fn plogp_properties() {
        assert_eq!(plogp(0.0), 0.0);
        assert_eq!(plogp(1.0), 0.0);
        assert!((plogp(0.5) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn good_partition_beats_bad() {
        let flow = two_triangles_flow();
        let good = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let bad = Partition::from_labels(vec![0, 1, 0, 1, 0, 1]);
        let singletons = Partition::singletons(6);
        let l_good = codelength(&flow, &good);
        let l_bad = codelength(&flow, &bad);
        let l_single = codelength(&flow, &singletons);
        assert!(l_good < l_bad, "{l_good} !< {l_bad}");
        assert!(l_good < l_single, "{l_good} !< {l_single}");
    }

    #[test]
    fn one_module_codelength_is_node_entropy() {
        let flow = two_triangles_flow();
        let uniform = Partition::uniform(6);
        // q = 0: L reduces to -Σ plogp(p_α) = H(p), the entropy of visit
        // rates.
        let entropy: f64 = -flow.node_flows().iter().copied().map(plogp).sum::<f64>();
        assert!((codelength(&flow, &uniform) - entropy).abs() < 1e-12);
    }

    #[test]
    fn delta_matches_recomputation_unrecorded() {
        let flow = two_triangles_flow();
        let partition = Partition::from_labels(vec![0, 0, 1, 1, 2, 2]);
        check_delta_everywhere(&flow, &partition, TeleportMode::Unrecorded);
    }

    #[test]
    fn delta_matches_recomputation_recorded() {
        let flow = two_triangles_flow();
        let partition = Partition::from_labels(vec![0, 0, 1, 1, 2, 2]);
        check_delta_everywhere(&flow, &partition, TeleportMode::Recorded { tau: 0.15 });
    }

    #[test]
    fn delta_matches_on_directed_random_graph_both_modes() {
        let mut b = GraphBuilder::directed(10);
        // Deterministic pseudo-random digraph.
        let mut x = 9u64;
        for _ in 0..40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 10) as u32;
            let v = ((x >> 13) % 10) as u32;
            if u != v {
                b.add_edge(u, v, 1.0 + (x % 3) as f64);
            }
        }
        let flow = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
        let labels: Vec<u32> = (0..10).map(|i| i % 3).collect();
        let partition = Partition::from_labels(labels);
        check_delta_everywhere(&flow, &partition, TeleportMode::Unrecorded);
        check_delta_everywhere(&flow, &partition, TeleportMode::Recorded { tau: 0.15 });
    }

    #[test]
    fn recorded_with_tau_zero_equals_unrecorded() {
        let flow = two_triangles_flow();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let node_plogp: f64 = flow.node_flows().iter().copied().map(plogp).sum();
        let a = MapState::with_options(&flow, &p, node_plogp, TeleportMode::Unrecorded);
        let b = MapState::with_options(&flow, &p, node_plogp, TeleportMode::Recorded { tau: 0.0 });
        assert!((a.codelength() - b.codelength()).abs() < 1e-12);
    }

    #[test]
    fn recorded_teleport_raises_exit_flow() {
        let flow = two_triangles_flow();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let node_plogp: f64 = flow.node_flows().iter().copied().map(plogp).sum();
        let unrec = MapState::with_options(&flow, &p, node_plogp, TeleportMode::Unrecorded);
        let rec =
            MapState::with_options(&flow, &p, node_plogp, TeleportMode::Recorded { tau: 0.15 });
        // Encoding teleport jumps adds exit probability to every module.
        assert!(rec.total_exit() > unrec.total_exit());
        assert!(rec.exit(0) > unrec.exit(0));
        // And the per-module member counts are tracked.
        assert_eq!(rec.nodes(0), 3);
        assert_eq!(rec.nodes(1), 3);
    }

    #[test]
    fn apply_move_keeps_state_consistent_both_modes() {
        let flow = two_triangles_flow();
        for mode in [
            TeleportMode::Unrecorded,
            TeleportMode::Recorded { tau: 0.2 },
        ] {
            let mut partition = Partition::from_labels(vec![0, 0, 1, 1, 2, 2]);
            let node_plogp: f64 = flow.node_flows().iter().copied().map(plogp).sum();
            let mut state = MapState::with_options(&flow, &partition, node_plogp, mode);
            // Move vertex 2 into module 0 (its triangle).
            let (u, old, new) = (2u32, 1u32, 0u32);
            state.apply_move(
                old,
                new,
                &flow.node_summary(u),
                module_flows_of(&flow, &partition, u, old),
                module_flows_of(&flow, &partition, u, new),
            );
            partition.assign(u, new);
            let fresh = MapState::with_options(&flow, &partition, node_plogp, mode);
            assert!(
                (state.codelength() - fresh.codelength()).abs() < 1e-9,
                "{mode:?} codelength drift"
            );
            assert!((state.total_exit() - fresh.total_exit()).abs() < 1e-12);
            for m in 0..3 {
                assert!((state.exit(m) - fresh.exit(m)).abs() < 1e-12);
                assert!((state.flow(m) - fresh.flow(m)).abs() < 1e-12);
                assert_eq!(state.nodes(m), fresh.nodes(m));
            }
        }
    }

    #[test]
    fn move_eval_bit_identical_to_delta_move() {
        // Undirected (symmetric flows) and directed pseudo-random graphs,
        // both teleport modes, every (vertex, candidate) pair, twice.
        let mut b = GraphBuilder::directed(12);
        let mut x = 17u64;
        for _ in 0..60 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 12) as u32;
            let v = ((x >> 13) % 12) as u32;
            if u != v {
                b.add_edge(u, v, 1.0 + (x % 5) as f64);
            }
        }
        let directed = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
        let dir_part = Partition::from_labels((0..12).map(|i| i % 4).collect());
        let cases = [
            (
                two_triangles_flow(),
                Partition::from_labels(vec![0, 0, 1, 1, 2, 2]),
            ),
            (directed, dir_part),
        ];
        for (flow, partition) in &cases {
            let node_plogp: f64 = flow.node_flows().iter().copied().map(plogp).sum();
            for mode in [
                TeleportMode::Unrecorded,
                TeleportMode::Recorded { tau: 0.15 },
            ] {
                let state = MapState::with_options(flow, partition, node_plogp, mode);
                let m = partition.num_communities() as u32;
                for u in 0..flow.num_nodes() as u32 {
                    let old = partition.community_of(u);
                    let node = flow.node_summary(u);
                    let flows_old = module_flows_of(flow, partition, u, old);
                    let eval = MoveEval::new(&state, old, &node, flows_old);
                    assert_eq!(eval.old_module(), old);
                    for pass in 0..2 {
                        for new in 0..m {
                            if new == old {
                                continue;
                            }
                            let mf = module_flows_of(flow, partition, u, new);
                            let a = state.delta_move(old, new, &node, flows_old, mf);
                            let b = eval.delta(&state, new, mf);
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{mode:?} u={u} {old}->{new} pass={pass}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn module_records_hold_fresh_terms_through_every_update() {
        // Random moves, one patch and one relabel, both teleport modes:
        // after each step every stored term is a fresh evaluation of its
        // record's own fields, to the bit.
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 4,
                community_size: 12,
                k_in: 6.0,
                k_out: 2.0,
            },
            5,
        );
        let cfg = InfomapConfig::default();
        let flow = FlowNetwork::from_graph(&g, &cfg);
        let n = flow.num_nodes() as u32;
        for mode in [
            TeleportMode::Unrecorded,
            TeleportMode::Recorded { tau: 0.15 },
        ] {
            let mut partition = Partition::from_labels((0..n).map(|u| u % 7).collect());
            let node_plogp: f64 = flow.node_flows().iter().copied().map(plogp).sum();
            let mut state = MapState::with_options(&flow, &partition, node_plogp, mode);
            state.assert_terms_fresh();
            let mut x = 3u64;
            let mut next = |bound: u32| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % bound as u64) as u32
            };
            // Moves into modules 0..3 only, enough to empty some of the
            // other four.
            for _ in 0..200 {
                let (u, new) = (next(n), next(3));
                let old = partition.community_of(u);
                if old == new {
                    continue;
                }
                let (fo, fn_) = module_flows_pair(&flow, &partition, u, old, new);
                state.apply_move(old, new, &flow.node_summary(u), fo, fn_);
                partition.assign(u, new);
                state.assert_terms_fresh();
            }

            // Reweight one edge and patch, as a stream batch does: every
            // module's link exit and flow is rescaled.
            let e = g.out_neighbors(0).into_iter().next().unwrap();
            let (v, w) = (e.target, e.weight);
            let mut b = GraphBuilder::undirected(n as usize);
            for (a, c, wa) in g.arcs().filter(|&(a, c, _)| a < c) {
                b.add_edge(a, c, if (a, c) == (0, v) { wa + 5.0 } else { wa });
            }
            let g2 = b.build();
            let factor = g.total_arc_weight() / g2.total_arc_weight();
            let (changed, touched) = (vec![(0, v), (v, 0)], vec![0, v]);
            let per_weight = 1.0 / g2.total_arc_weight();
            assert!((flow.arc_flow(0, v) - w / g.total_arc_weight()).abs() < 1e-15);
            let patched = flow.patched_undirected(&g2, &changed, &touched, per_weight, factor);
            let patched_plogp = patched.node_flows().iter().copied().map(plogp).sum();
            state.patch(&flow, &patched, &partition, &changed, factor, patched_plogp);
            state.assert_terms_fresh();

            let map = partition.compact_with_map();
            assert!(partition.num_communities() < 7, "no module emptied");
            state.relabel(&map, partition.num_communities());
            state.assert_terms_fresh();
            let fresh = MapState::with_options(&patched, &partition, patched_plogp, mode);
            assert!((state.codelength() - fresh.codelength()).abs() < 1e-9);
        }
    }

    #[test]
    fn ground_truth_near_optimal_on_planted_graph() {
        let (g, truth) = planted_partition(
            &PlantedConfig {
                communities: 4,
                community_size: 30,
                k_in: 12.0,
                k_out: 1.0,
            },
            3,
        );
        let flow = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let l_truth = codelength(&flow, &truth);
        let l_single = codelength(&flow, &Partition::singletons(g.num_nodes()));
        let l_uniform = codelength(&flow, &Partition::uniform(g.num_nodes()));
        assert!(l_truth < l_single);
        assert!(l_truth < l_uniform);
    }
}
