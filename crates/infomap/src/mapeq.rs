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

/// Module-level map-equation state for one level of the hierarchy.
#[derive(Debug, Clone)]
pub struct MapState {
    mode: TeleportMode,
    /// Link exit flow per module (teleport-free part).
    mod_link_exit: Vec<f64>,
    /// Total visit rate `p_i` per module.
    mod_flow: Vec<f64>,
    /// Original-vertex count per module.
    mod_nodes: Vec<u64>,
    /// Total original-vertex count `n`.
    total_nodes: u64,
    /// `q = Σ_i q_i` over *effective* exits.
    total_exit: f64,
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
        let m = partition.num_communities();
        let mut mod_link_exit = vec![0.0f64; m];
        let mut mod_flow = vec![0.0f64; m];
        let mut mod_nodes = vec![0u64; m];
        for u in 0..flow.num_nodes() as u32 {
            let cu = partition.community_of(u) as usize;
            mod_flow[cu] += flow.node_flow(u);
            mod_nodes[cu] += flow.node_weight(u);
            for (v, f) in flow.out_arcs(u) {
                if partition.community_of(v) as usize != cu {
                    mod_link_exit[cu] += f;
                }
            }
        }
        let total_nodes: u64 = mod_nodes.iter().sum();
        let mut state = Self {
            mode,
            mod_link_exit,
            mod_flow,
            mod_nodes,
            total_nodes,
            total_exit: 0.0,
            node_plogp,
        };
        state.total_exit = (0..m)
            .map(|i| {
                state.effective_exit(
                    state.mod_link_exit[i],
                    state.mod_flow[i],
                    state.mod_nodes[i],
                )
            })
            .sum();
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
        for exit in &mut self.mod_link_exit {
            *exit *= factor;
        }
        for &(u, v) in changed {
            let m = partition.community_of(u);
            if m != partition.community_of(v) {
                self.mod_link_exit[m as usize] +=
                    flow.arc_flow(u, v) - prev.arc_flow(u, v) * factor;
            }
        }
        self.mod_flow.fill(0.0);
        for (u, &p) in flow.node_flows().iter().enumerate() {
            self.mod_flow[partition.community_of(u as NodeId) as usize] += p;
        }
        self.node_plogp = node_plogp;
        self.total_exit = self.sum_exits();
    }

    /// Renumbers the modules: module `m` becomes `map[m]`, and a module
    /// `map` sends to `u32::MAX` or does not reach (an empty one) is
    /// dropped. This follows a [`Partition::compact_with_map`] of the
    /// partition the state describes.
    pub(crate) fn relabel(&mut self, map: &[u32], modules: usize) {
        let mut link_exit = vec![0.0; modules];
        let mut flow = vec![0.0; modules];
        let mut nodes = vec![0; modules];
        for (m, &to) in map.iter().enumerate().filter(|&(_, &to)| to != u32::MAX) {
            link_exit[to as usize] = self.mod_link_exit[m];
            flow[to as usize] = self.mod_flow[m];
            nodes[to as usize] = self.mod_nodes[m];
        }
        self.mod_link_exit = link_exit;
        self.mod_flow = flow;
        self.mod_nodes = nodes;
        self.total_exit = self.sum_exits();
    }

    /// Σ of every module's effective exit, in module order.
    fn sum_exits(&self) -> f64 {
        (0..self.num_modules() as u32).map(|m| self.exit(m)).sum()
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

    /// Number of module slots (some may be empty after moves).
    pub fn num_modules(&self) -> usize {
        self.mod_link_exit.len()
    }

    /// The teleport convention in use.
    pub fn mode(&self) -> TeleportMode {
        self.mode
    }

    /// Effective exit probability of module `m`.
    pub fn exit(&self, m: u32) -> f64 {
        self.effective_exit(
            self.mod_link_exit[m as usize],
            self.mod_flow[m as usize],
            self.mod_nodes[m as usize],
        )
    }

    /// Link-only exit flow of module `m` (excludes any teleport term).
    pub fn link_exit(&self, m: u32) -> f64 {
        self.mod_link_exit[m as usize]
    }

    /// Hints the cache hierarchy to pull module `m`'s entries in the three
    /// per-module arrays the candidate evaluation reads.
    #[inline]
    pub fn prefetch_module(&self, m: u32) {
        let i = m as usize;
        if i < self.mod_link_exit.len() {
            crate::kernel::prefetch_read(&self.mod_link_exit[i]);
            crate::kernel::prefetch_read(&self.mod_flow[i]);
            crate::kernel::prefetch_read(&self.mod_nodes[i]);
        }
    }

    /// Total visit rate of module `m`.
    pub fn flow(&self, m: u32) -> f64 {
        self.mod_flow[m as usize]
    }

    /// Original-vertex count of module `m`.
    pub fn nodes(&self, m: u32) -> u64 {
        self.mod_nodes[m as usize]
    }

    /// Total effective exit flow `q`.
    pub fn total_exit(&self) -> f64 {
        self.total_exit
    }

    /// Current codelength `L(M)` in bits.
    pub fn codelength(&self) -> f64 {
        let mut exit_sum = 0.0;
        let mut combined = 0.0;
        for i in 0..self.mod_link_exit.len() {
            let q = self.effective_exit(self.mod_link_exit[i], self.mod_flow[i], self.mod_nodes[i]);
            exit_sum += plogp(q);
            combined += plogp(q + self.mod_flow[i]);
        }
        plogp(self.total_exit) - 2.0 * exit_sum + combined - self.node_plogp
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
        let (old, new) = (old as usize, new as usize);
        // Leaving `old`: the node's arcs to outside-old stop exiting from
        // old, while old's arcs into the node start exiting.
        let link_o =
            self.mod_link_exit[old] - (node.out_total - flows_old.out_flow) + flows_old.in_flow;
        // Joining `new`: the node's arcs to outside-new now exit from new,
        // minus its arcs into new members; new's arcs into the node stop
        // exiting.
        let link_n =
            self.mod_link_exit[new] + (node.out_total - flows_new.out_flow) - flows_new.in_flow;
        (
            (
                link_o,
                self.mod_flow[old] - node.flow,
                self.mod_nodes[old] - node.weight,
            ),
            (
                link_n,
                self.mod_flow[new] + node.flow,
                self.mod_nodes[new] + node.weight,
            ),
        )
    }

    /// Codelength change (bits) of moving `node` from module `old` to
    /// module `new`, where `flows_old` / `flows_new` are its accumulated
    /// flow exchanges with those modules (the node's own self-arcs are
    /// excluded by construction). Negative = improvement.
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
        let (q_o, p_o, n_o) = (
            self.mod_link_exit[old as usize],
            self.mod_flow[old as usize],
            self.mod_nodes[old as usize],
        );
        let (q_n, p_n, n_n) = (
            self.mod_link_exit[new as usize],
            self.mod_flow[new as usize],
            self.mod_nodes[new as usize],
        );
        let ((lo2, po2, no2), (ln2, pn2, nn2)) =
            self.moved_stats(old, new, node, flows_old, flows_new);

        let e_o = self.effective_exit(q_o, p_o, n_o);
        let e_n = self.effective_exit(q_n, p_n, n_n);
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
    /// module statistics in O(1).
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
        let e_o = self.exit(old);
        let e_n = self.exit(new);
        let ((lo2, po2, no2), (ln2, pn2, nn2)) =
            self.moved_stats(old, new, node, flows_old, flows_new);
        self.mod_link_exit[old as usize] = lo2;
        self.mod_flow[old as usize] = po2;
        self.mod_nodes[old as usize] = no2;
        self.mod_link_exit[new as usize] = ln2;
        self.mod_flow[new as usize] = pn2;
        self.mod_nodes[new as usize] = nn2;
        self.total_exit += (self.exit(old) - e_o) + (self.exit(new) - e_n);
    }
}

/// Convenience: the codelength of `partition` on `flow` (builds a fresh
/// unrecorded-teleport [`MapState`]).
pub fn codelength(flow: &FlowNetwork, partition: &Partition) -> f64 {
    MapState::new(flow, partition).codelength()
}

/// One module's cached scan terms: epoch stamp plus the three values the
/// candidate evaluation needs. 32 bytes, so a lookup touches exactly one
/// cache line (the SoA layout this replaced paid up to four misses per
/// cold candidate).
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct TermEntry {
    stamp: u64,
    /// Effective exit `e_n`.
    e: f64,
    /// `plogp(e_n)`.
    plogp_e: f64,
    /// `plogp(e_n + p_n)`.
    plogp_ep: f64,
}

/// Epoch-stamped cache of the candidate-module terms the scan re-derives
/// for every evaluation: a module's effective exit `e_n`, `plogp(e_n)`,
/// and `plogp(e_n + p_n)`. Within one sweep the [`MapState`] is frozen, so
/// these depend only on the module id — the dominant `plogp` (log₂) cost
/// of the scan is paid once per touched module per sweep chunk instead of
/// once per candidate evaluation.
///
/// Also memoizes `plogp(q)` of the frozen total exit (identical for every
/// vertex of a chunk) via [`ModTermCache::plogp_total_exit`].
#[derive(Debug, Default)]
pub struct ModTermCache {
    entries: Vec<TermEntry>,
    epoch: u64,
    /// `plogp(total_exit)` for this epoch (`f64::NAN` = unset).
    plogp_q: f64,
    /// Modules whose terms were computed this epoch (lifetime count).
    fills: u64,
    /// Cache-hit lookups (lifetime count).
    hits: u64,
}

impl ModTermCache {
    /// Invalidates every cached term and admits module ids `0..modules`.
    /// Call once per checkout against a frozen [`MapState`]; O(1) except
    /// for growth (the epoch is 64-bit, so it never wraps in practice).
    pub fn begin(&mut self, modules: usize) {
        if self.entries.len() < modules {
            self.entries.resize(modules, TermEntry::default());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.entries.fill(TermEntry::default());
            self.epoch = 1;
        }
        self.plogp_q = f64::NAN;
    }

    /// `plogp(q)` of the frozen state, computed once per epoch.
    #[inline]
    pub fn plogp_total_exit(&mut self, state: &MapState) -> f64 {
        if self.plogp_q.is_nan() {
            self.plogp_q = plogp(state.total_exit);
        }
        self.plogp_q
    }

    /// `(e_n, plogp(e_n), plogp(e_n + p_n))` of module `m` under `state`,
    /// computed on first touch and replayed bit-identically afterwards
    /// (the fill calls the exact same pure functions the uncached scan
    /// would).
    #[inline]
    pub fn terms(&mut self, state: &MapState, m: u32) -> (f64, f64, f64) {
        let entry = &mut self.entries[m as usize];
        if entry.stamp != self.epoch {
            entry.stamp = self.epoch;
            let e_n = state.exit(m);
            entry.e = e_n;
            entry.plogp_e = plogp(e_n);
            entry.plogp_ep = plogp(e_n + state.mod_flow[m as usize]);
            self.fills += 1;
        } else {
            self.hits += 1;
        }
        (entry.e, entry.plogp_e, entry.plogp_ep)
    }

    /// Hints the cache hierarchy to pull module `m`'s entry line.
    #[inline]
    pub fn prefetch(&self, m: u32) {
        if let Some(e) = self.entries.get(m as usize) {
            crate::kernel::prefetch_read(e);
        }
    }

    /// Lifetime `(fills, hits)` of the term cache.
    pub fn stats(&self) -> (u64, u64) {
        (self.fills, self.hits)
    }
}

/// Hoisted per-vertex state for one candidate scan: everything in
/// [`MapState::delta_move`] that depends only on the vertex's current
/// module and its accumulated `flows_old` is computed once here, so each
/// candidate evaluation pays exactly three `plogp` calls (for `q_new`,
/// `e_n2`, and `e_n2 + p_n2`) plus cached lookups.
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

/// The old-module terms a [`MoveEval`] freezes before scanning candidates:
/// pure functions of the frozen `MapState`, so they can be computed fresh
/// or served from a [`ModTermCache`] with bit-identical results.
#[derive(Clone, Copy, Debug)]
struct FrozenTerms {
    e_o: f64,
    plogp_e_o: f64,
    plogp_old_before: f64,
    plogp_total_exit: f64,
}

impl MoveEval {
    /// Hoists the old-module terms for vertex `node` currently in module
    /// `old` with accumulated exchange `flows_old`.
    pub fn new(state: &MapState, old: u32, node: &NodeSummary, flows_old: ModuleFlows) -> Self {
        let e_o = state.exit(old);
        Self::with_frozen_terms(
            state,
            old,
            node,
            flows_old,
            FrozenTerms {
                e_o,
                plogp_e_o: plogp(e_o),
                plogp_old_before: plogp(e_o + state.mod_flow[old as usize]),
                plogp_total_exit: plogp(state.total_exit),
            },
        )
    }

    /// [`MoveEval::new`] with the frozen old-module terms and
    /// `plogp(total_exit)` served from the per-chunk [`ModTermCache`]
    /// instead of recomputed. The cached values come from the exact same
    /// pure functions over the same frozen state, so the hoisted terms —
    /// and therefore every delta — are bit-identical.
    pub fn new_cached(
        state: &MapState,
        cache: &mut ModTermCache,
        old: u32,
        node: &NodeSummary,
        flows_old: ModuleFlows,
    ) -> Self {
        let (e_o, plogp_e_o, plogp_old_before) = cache.terms(state, old);
        let plogp_total_exit = cache.plogp_total_exit(state);
        Self::with_frozen_terms(
            state,
            old,
            node,
            flows_old,
            FrozenTerms {
                e_o,
                plogp_e_o,
                plogp_old_before,
                plogp_total_exit,
            },
        )
    }

    fn with_frozen_terms(
        state: &MapState,
        old: u32,
        node: &NodeSummary,
        flows_old: ModuleFlows,
        terms: FrozenTerms,
    ) -> Self {
        let FrozenTerms {
            e_o,
            plogp_e_o,
            plogp_old_before,
            plogp_total_exit,
        } = terms;
        let o = old as usize;
        let (q_o, p_o, n_o) = (
            state.mod_link_exit[o],
            state.mod_flow[o],
            state.mod_nodes[o],
        );
        debug_assert_eq!(e_o.to_bits(), state.effective_exit(q_o, p_o, n_o).to_bits());
        let link_o = q_o - (node.out_total - flows_old.out_flow) + flows_old.in_flow;
        let po2 = p_o - node.flow;
        let no2 = n_o - node.weight;
        let e_o2 = state.effective_exit(link_o, po2, no2);
        MoveEval {
            old,
            node_out_total: node.out_total,
            node_flow: node.flow,
            node_weight: node.weight,
            plogp_total_exit,
            old_exit_pair: 2.0 * (plogp(e_o2) - plogp_e_o),
            base_q: state.total_exit + (e_o2 - e_o),
            e_o,
            e_o2,
            plogp_old_after: plogp(e_o2 + po2),
            plogp_old_before,
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
    pub fn delta(
        &self,
        state: &MapState,
        cache: &mut ModTermCache,
        new: u32,
        flows_new: ModuleFlows,
    ) -> f64 {
        debug_assert_ne!(new, self.old);
        let n = new as usize;
        let (e_n, plogp_e_n, plogp_e_n_p_n) = cache.terms(state, new);
        let link_n =
            state.mod_link_exit[n] + (self.node_out_total - flows_new.out_flow) - flows_new.in_flow;
        let pn2 = state.mod_flow[n] + self.node_flow;
        let nn2 = state.mod_nodes[n] + self.node_weight;
        let e_n2 = state.effective_exit(link_n, pn2, nn2);
        // `q_new = q + (e_o2 − e_o) + (e_n2 − e_n)`: the first addition is
        // hoisted into `base_q`; the association order matches
        // `delta_move` exactly.
        let q_new = self.base_q + (e_n2 - e_n);
        debug_assert_eq!(
            q_new.to_bits(),
            (state.total_exit + (self.e_o2 - self.e_o) + (e_n2 - e_n)).to_bits()
        );
        plogp(q_new) - self.plogp_total_exit - self.old_exit_pair - 2.0 * (plogp(e_n2) - plogp_e_n)
            + self.plogp_old_after
            - self.plogp_old_before
            + plogp(e_n2 + pn2)
            - plogp_e_n_p_n
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
        // both teleport modes, every (vertex, candidate) pair — and a
        // second pass per vertex so cached term replay is exercised too.
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
                let mut cache = ModTermCache::default();
                cache.begin(state.num_modules());
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
                            let b = eval.delta(&state, &mut cache, new, mf);
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{mode:?} u={u} {old}->{new} pass={pass}: {a} vs {b}"
                            );
                        }
                    }
                }
                let (fills, hits) = cache.stats();
                assert!(
                    fills > 0 && hits > 0,
                    "cache never replayed: {fills}/{hits}"
                );
            }
        }
    }

    #[test]
    fn mod_term_cache_invalidates_on_begin() {
        let flow = two_triangles_flow();
        let p1 = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]);
        let p2 = Partition::from_labels(vec![0, 1, 0, 1, 0, 1]);
        let s1 = MapState::new(&flow, &p1);
        let s2 = MapState::new(&flow, &p2);
        let mut cache = ModTermCache::default();
        cache.begin(s1.num_modules());
        let t1 = cache.terms(&s1, 0);
        cache.begin(s2.num_modules());
        let t2 = cache.terms(&s2, 0);
        assert_eq!(t2.0.to_bits(), s2.exit(0).to_bits());
        assert_ne!(t1.0.to_bits(), t2.0.to_bits(), "stale term survived begin");
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
