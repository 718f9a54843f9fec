//! The dual-SPA sweep kernel.
//!
//! This is the production `FindBestCommunity` fast path: a fused
//! sparse-accumulator for both flow directions, SoA candidate lanes, and
//! software prefetch. It is the one host sweep path; [`KERNEL_PATH`]
//! names it.
//!
//! # Sweep kernel anatomy
//!
//! Per vertex the kernel runs three phases over Structure-of-Arrays state:
//!
//! 1. **Accumulate** — walk the vertex's CSR rows, load each neighbour's
//!    module label (`labels[targets[i]]`) and scatter-add the arc flow
//!    into that module's dense slot. One stamp per module marks liveness;
//!    first touch appends the module to the touched list.
//! 2. **Gather** — sort the touched-module list (ascending module id, the
//!    order the tie-break contract requires), copy the slot sums into
//!    compact `out_lane`/`in_lane` candidate lanes, and clear exactly the
//!    touched stamps — O(touched), never O(communities).
//! 3. **Scan** — evaluate the map-equation delta of each candidate with
//!    [`MoveEval`], which reads the candidate's statistics and its stored
//!    `e`, `plogp(e)` and `plogp(e + p)` from one 64-byte [`MapState`]
//!    record: three `plogp` calls per candidate instead of ten,
//!    bit-identical to [`MapState::delta_move`].
//!
//! Every phase preserves the exact FP operation order of the generic
//! event-emitting kernel ([`crate::find_best::find_best_community`], the
//! reference every accumulation device runs through), so the decision
//! stream — and therefore partitions and codelengths — are bit-identical
//! to the hash reference.
//!
//! Each worker's [`DualSpa`] costs 32 bytes per node of the level it
//! sweeps (one [`SpaSlot`] per module id), allocated once at the
//! vertex level and reused by every coarser level.

use asa_graph::NodeId;

use crate::find_best::MoveDecision;
use crate::flow::FlowNetwork;
use crate::mapeq::{MapState, ModuleFlows, MoveEval};

/// The name of the one sweep kernel path, as bench output reports it.
pub const KERNEL_PATH: &str = "spa-scalar";

/// The kernel path's name: [`KERNEL_PATH`].
pub fn kernel_path_name() -> &'static str {
    KERNEL_PATH
}

// ---------------------------------------------------------------------------
// Software prefetch
// ---------------------------------------------------------------------------

/// Hints the cache hierarchy to pull the line holding `p` (T0 = all cache
/// levels). Compiles to `prefetcht0` on x86_64 and to nothing elsewhere —
/// prefetching is advisory, so the no-op fallback is semantically free.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// How many sweep iterations ahead the CSR row of an upcoming vertex is
/// prefetched. Two stages: at distance 2 the row itself (targets + flows)
/// is pulled, so that at distance 1 the row is resident and its first
/// targets can be dereferenced to prefetch the *label* lines — the truly
/// unpredictable accesses under power-law degrees. Distance 2 covers the
/// ~100–300 cycle DRAM latency at the kernel's ~1k-cycle per-vertex cost
/// without evicting lines before use.
pub const PREFETCH_DISTANCE: usize = 2;

/// Max neighbour labels prefetched per upcoming vertex; bounds the hint
/// overhead on high-degree hubs (beyond ~16 lines the row iteration
/// itself keeps the prefetcher busy).
const PREFETCH_LABELS: usize = 16;

/// Stage-2 hint: pull the CSR row (targets + flows) of vertex `w`.
#[inline]
fn prefetch_row(flow: &FlowNetwork, w: NodeId) {
    let (targets, flows) = flow.out_arc_slices(w);
    if let (Some(t), Some(f)) = (targets.first(), flows.first()) {
        prefetch_read(t);
        prefetch_read(f);
        // Rows spanning multiple lines: hint the tail too.
        if targets.len() > 8 {
            prefetch_read(&targets[targets.len() - 1]);
            prefetch_read(&flows[flows.len() - 1]);
        }
    }
}

/// Stage-1 hint: the row of `w` is (likely) resident now — dereference its
/// first targets and pull their label entries, plus `w`'s own label.
#[inline]
fn prefetch_labels(flow: &FlowNetwork, labels: &[u32], w: NodeId) {
    prefetch_read(&labels[w as usize]);
    let (targets, _) = flow.out_arc_slices(w);
    for &t in targets.iter().take(PREFETCH_LABELS) {
        prefetch_read(&labels[t as usize]);
    }
}

/// Issues both prefetch stages for position `i` of the sweep order.
#[inline]
pub fn prefetch_ahead(flow: &FlowNetwork, labels: &[u32], vertices: &[NodeId], i: usize) {
    if let Some(&w) = vertices.get(i + PREFETCH_DISTANCE) {
        prefetch_row(flow, w);
    }
    if let Some(&w) = vertices.get(i + 1) {
        prefetch_labels(flow, labels, w);
    }
}

// ---------------------------------------------------------------------------
// Fused dual-direction SPA
// ---------------------------------------------------------------------------

/// One dense accumulator slot: liveness stamp plus both direction sums,
/// padded to 32 bytes so a module's whole scatter state lives on one cache
/// line (the SoA layout this replaced paid up to three misses per
/// first-touched module — the scatter phase is miss-bound at vertex level
/// where labels are near-random).
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct SpaSlot {
    /// Liveness: bit 0 = out touched, bit 1 = in touched.
    stamp: u64,
    /// Out-flow sum (valid where stamp bit 0 set, else zeroed-on-touch).
    out: f64,
    /// In-flow sum (valid where stamp bit 1 set, else zeroed-on-touch).
    in_: f64,
    _pad: f64,
}

/// How many scatter iterations ahead the accumulate loop prefetches the
/// slot line of an upcoming label. Slots are scattered near-randomly at
/// vertex level, so overlapping these misses is the main accumulate win.
const SCATTER_PREFETCH: usize = 8;

/// Fused sparse accumulator for both flow directions of one vertex, with
/// compact candidate lanes.
///
/// Both directions share one stamp and one touched list: a module is
/// appended on its *first* touch from either direction and its
/// other-direction sum is zeroed, so accumulation into either direction
/// is a plain indexed add afterwards. Stamp and sums share one 32-byte
/// [`SpaSlot`] and are cleared through the touched list — the reset is
/// O(touched this vertex), never O(communities), with lifetime counters
/// proving it. The slots cost 32 bytes × the level's node count.
#[derive(Debug, Default)]
pub struct DualSpa {
    /// Dense per-module accumulator slots.
    slots: Vec<SpaSlot>,
    /// Modules touched since the last gather, append order.
    touched: Vec<u32>,
    /// Compact candidate lanes, rebuilt by [`DualSpa::gather`]: sorted
    /// module ids plus their out/in flow sums.
    keys: Vec<u32>,
    out_lane: Vec<f64>,
    in_lane: Vec<f64>,
    /// Lifetime stamp-clear invocations (one per gather).
    reset_calls: u64,
    /// Lifetime stamp entries cleared — O(touched) discipline means this
    /// equals Σ touched-set sizes, not sweeps × communities.
    reset_entries: u64,
}

impl DualSpa {
    /// Grows the dense slot array to admit module ids `0..capacity`. Never
    /// shrinks, so coarse levels reuse the vertex-level allocation.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.slots.len() < capacity {
            self.slots.resize(capacity, SpaSlot::default());
        }
    }

    /// Largest admissible module id + 1.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Lifetime `(reset_calls, reset_entries)` of the touched-list clear.
    pub fn reset_stats(&self) -> (u64, u64) {
        (self.reset_calls, self.reset_entries)
    }

    /// Scatter-adds `f` into the out sum of module `m`. First touch from
    /// either direction stamps the slot, zeroes the sibling direction, and
    /// records `m` in the touched list.
    #[inline]
    fn add_out(&mut self, m: u32, f: f64) {
        debug_assert!(
            (m as usize) < self.slots.len(),
            "module {m} beyond SPA capacity"
        );
        let slot = &mut self.slots[m as usize];
        let s = slot.stamp;
        if s & 1 == 0 {
            if s == 0 {
                slot.in_ = 0.0;
                self.touched.push(m);
            }
            slot.stamp = s | 1;
            slot.out = f;
        } else {
            slot.out += f;
        }
    }

    /// Scatter-adds `f` into the in sum of module `m`.
    #[inline]
    fn add_in(&mut self, m: u32, f: f64) {
        debug_assert!(
            (m as usize) < self.slots.len(),
            "module {m} beyond SPA capacity"
        );
        let slot = &mut self.slots[m as usize];
        let s = slot.stamp;
        if s & 2 == 0 {
            if s == 0 {
                slot.out = 0.0;
                self.touched.push(m);
            }
            slot.stamp = s | 2;
            slot.in_ = f;
        } else {
            slot.in_ += f;
        }
    }

    /// Phase 1: accumulate both directions of vertex `u`'s flow per
    /// neighbouring module. Per-module additions happen in arc order — the
    /// identical FP sequence as the generic kernel's hash path.
    #[inline]
    pub fn accumulate(&mut self, flow: &FlowNetwork, labels: &[u32], u: NodeId) {
        debug_assert!(self.touched.is_empty(), "gather must precede accumulate");
        let (targets, flows) = flow.out_arc_slices(u);
        self.scatter_row(labels, targets, flows, true);
        // On symmetric networks the in-arc stream is the out-arc stream,
        // so the per-module in sums are the out sums bit-for-bit — skip
        // the second accumulation; `gather` mirrors the lane instead.
        if !flow.is_symmetric() {
            let (targets, flows) = flow.in_arc_slices(u);
            self.scatter_row(labels, targets, flows, false);
        }
    }

    /// Scatter one direction's row into the slots of its targets' modules,
    /// with the slot line of the label [`SCATTER_PREFETCH`] arcs ahead
    /// pulled early so the near-random slot misses overlap.
    #[inline]
    fn scatter_row(&mut self, labels: &[u32], targets: &[NodeId], flows: &[f64], out_dir: bool) {
        for (i, (&t, &f)) in targets.iter().zip(flows).enumerate() {
            if let Some(&ahead) = targets.get(i + SCATTER_PREFETCH) {
                prefetch_read(&self.slots[labels[ahead as usize] as usize]);
            }
            let m = labels[t as usize];
            if out_dir {
                self.add_out(m, f);
            } else {
                self.add_in(m, f);
            }
        }
    }

    /// Phase 2: sort the touched union ascending (the candidate visit
    /// order the tie-break contract requires), copy the slot sums into
    /// the compact lanes, and clear exactly the touched stamps.
    #[inline]
    pub fn gather(&mut self, symmetric: bool) {
        self.touched.sort_unstable();
        let n = self.touched.len();
        self.keys.clear();
        self.keys.extend_from_slice(&self.touched);
        let slots = &self.slots;
        self.out_lane.clear();
        self.out_lane
            .extend(self.keys.iter().map(|&k| slots[k as usize].out));
        self.in_lane.clear();
        if symmetric {
            // in sums == out sums bit-for-bit on symmetric networks.
            self.in_lane.extend_from_slice(&self.out_lane);
        } else {
            self.in_lane
                .extend(self.keys.iter().map(|&k| slots[k as usize].in_));
        }
        // O(touched) reset: only the stamps this vertex dirtied.
        for &k in &self.touched {
            self.slots[k as usize].stamp = 0;
        }
        self.reset_calls += 1;
        self.reset_entries += n as u64;
        self.touched.clear();
    }

    /// The sorted candidate lanes of the last gather.
    #[inline]
    pub fn lanes(&self) -> Lanes<'_> {
        Lanes {
            keys: &self.keys,
            out: &self.out_lane,
            in_: &self.in_lane,
        }
    }
}

/// Borrowed view of one vertex's gathered candidate lanes: touched module
/// ids (ascending) with the out/in exchange flow accumulated per module.
#[derive(Clone, Copy, Debug)]
pub struct Lanes<'a> {
    /// Touched module ids, sorted ascending.
    pub keys: &'a [u32],
    /// Out-direction exchange flow, parallel to `keys`.
    pub out: &'a [f64],
    /// In-direction exchange flow, parallel to `keys`.
    pub in_: &'a [f64],
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Phase 3: evaluate every candidate module in the lanes and return the
/// best move for `u`. Visit order is ascending module id and the epsilon
/// tie-break mirrors the generic kernel exactly, so the decision is
/// bit-identical to the generic kernel's.
#[inline]
pub fn scan(
    flow: &FlowNetwork,
    state: &MapState,
    u: NodeId,
    my_module: u32,
    lanes: Lanes<'_>,
) -> MoveDecision {
    let Lanes { keys, out, in_ } = lanes;
    // The vertex's exchange with its own module: lanes hold it iff the
    // module was touched; untouched means zero exchange.
    let flows_old = match keys.binary_search(&my_module) {
        Ok(i) => ModuleFlows {
            out_flow: out[i],
            in_flow: in_[i],
        },
        Err(_) => ModuleFlows::default(),
    };
    let node = flow.node_summary(u);
    let eval = MoveEval::new(state, my_module, &node, flows_old);

    let mut best = MoveDecision {
        vertex: u,
        best_module: my_module,
        delta: 0.0,
    };
    for (i, &m) in keys.iter().enumerate() {
        // Pull the record of an upcoming candidate early: each evaluation
        // reads one MapState record at a near-random module id, which
        // misses at vertex level.
        if let Some(&ahead) = keys.get(i + 2) {
            state.prefetch_module(ahead);
        }
        if m == my_module {
            continue;
        }
        let mf = ModuleFlows {
            out_flow: out[i],
            in_flow: in_[i],
        };
        let delta = eval.delta(state, m, mf);
        // Tie-break deterministically on module id so parallel and
        // sequential schedules agree (mirrors the generic kernel exactly).
        let improves =
            delta < best.delta - 1e-15 || (delta < best.delta + 1e-15 && m < best.best_module);
        if improves && delta < -1e-15 {
            best.best_module = m;
            best.delta = delta;
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Whole-vertex kernel
// ---------------------------------------------------------------------------

/// `FindBestCommunity` for one vertex on the SPA path: the three phases
/// composed back to back.
#[inline]
pub fn find_best_community_vec(
    flow: &FlowNetwork,
    labels: &[u32],
    state: &MapState,
    u: NodeId,
    spa: &mut DualSpa,
) -> MoveDecision {
    spa.accumulate(flow, labels, u);
    spa.gather(flow.is_symmetric());
    scan(flow, state, u, labels[u as usize], spa.lanes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfomapConfig;
    use crate::find_best::{find_best_community, FindBestScratch};
    use asa_graph::generators::{planted_partition, PlantedConfig};
    use asa_graph::{GraphBuilder, Partition};
    use asa_hashsim::ChainedAccumulator;
    use asa_simarch::events::NullSink;

    fn directed_flow(n: u32, arcs: u32, seed: u64) -> FlowNetwork {
        let mut b = GraphBuilder::directed(n as usize);
        let mut x = seed;
        for _ in 0..arcs {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % n as u64) as u32;
            let v = ((x >> 13) % n as u64) as u32;
            if u != v {
                b.add_edge(u, v, 1.0 + (x % 7) as f64);
            }
        }
        FlowNetwork::from_graph(&b.build(), &InfomapConfig::default())
    }

    /// Every vertex's decision on the SPA kernel equals the generic
    /// kernel's over the hash accumulator, to the bit.
    fn check_vec_matches_generic(flow: &FlowNetwork, labels: &[u32], modules: usize) {
        let state = MapState::new(flow, &Partition::from_labels(labels.to_vec()));
        let mut acc = ChainedAccumulator::new();
        let mut scratch = FindBestScratch::default();
        let mut dual = DualSpa::default();
        dual.ensure_capacity(modules);
        for u in 0..flow.num_nodes() as u32 {
            let a = find_best_community(
                flow,
                labels,
                &state,
                u,
                &mut acc,
                &mut NullSink,
                &mut scratch,
            );
            let b = find_best_community_vec(flow, labels, &state, u, &mut dual);
            assert_eq!(a.vertex, b.vertex);
            assert_eq!(a.best_module, b.best_module, "u={u}");
            assert_eq!(
                a.delta.to_bits(),
                b.delta.to_bits(),
                "u={u}: {} vs {}",
                a.delta,
                b.delta
            );
        }
    }

    #[test]
    fn vec_kernel_matches_generic_undirected() {
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 5,
                community_size: 30,
                k_in: 8.0,
                k_out: 2.0,
            },
            11,
        );
        let n = g.num_nodes();
        let flow = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let singleton: Vec<u32> = (0..n as u32).collect();
        check_vec_matches_generic(&flow, &singleton, n);

        // A graph whose undirected flow really carries the symmetric flag
        // (uniform arc flows), exercising the lane-mirror fast path.
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        let sym = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
        assert!(sym.is_symmetric());
        let labels: Vec<u32> = (0..6).collect();
        check_vec_matches_generic(&sym, &labels, 6);
    }

    #[test]
    fn vec_kernel_matches_generic_directed() {
        let flow = directed_flow(60, 400, 23);
        assert!(!flow.is_symmetric());
        let labels: Vec<u32> = (0..60).collect();
        check_vec_matches_generic(&flow, &labels, 60);
    }

    #[test]
    fn dual_spa_reset_is_o_touched() {
        let flow = directed_flow(200, 600, 5);
        let labels: Vec<u32> = (0..200).collect();
        let state = MapState::new(&flow, &Partition::singletons(200));
        let mut dual = DualSpa::default();
        dual.ensure_capacity(200);
        let mut degree_sum = 0u64;
        for u in 0..200u32 {
            let (to, _) = flow.out_arc_slices(u);
            let (ti, _) = flow.in_arc_slices(u);
            degree_sum += (to.len() + ti.len()) as u64;
            let _ = find_best_community_vec(&flow, &labels, &state, u, &mut dual);
        }
        let (calls, entries) = dual.reset_stats();
        assert_eq!(calls, 200);
        // Touched ≤ degree per vertex (each arc touches at most one new
        // module) and far below calls × communities.
        assert!(entries <= degree_sum, "{entries} > Σdeg {degree_sum}");
        assert!(
            entries < calls * 200 / 2,
            "reset looks O(communities): {entries} entries over {calls} calls"
        );
    }
}
