//! The vectorized dual-SPA sweep kernel.
//!
//! This is the production `FindBestCommunity` fast path: a fused
//! sparse-accumulator for both flow directions, SoA candidate lanes, a
//! per-module scan-term cache, software prefetch, and an optional
//! `core::arch` AVX2 gather path behind the `simd` cargo feature
//! (runtime-dispatched, falling back to the portable unrolled loops).
//!
//! # Sweep kernel anatomy
//!
//! Per vertex the kernel runs three phases over Structure-of-Arrays state:
//!
//! 1. **Accumulate** — walk the vertex's CSR rows, gather each neighbour's
//!    module label (`labels[targets[i]]`, the indexed load AVX2
//!    `vpgatherdd` accelerates), and scatter-add the arc flow into the
//!    dense per-direction value lanes. One stamp byte per module marks
//!    liveness; first touch appends the module to the touched list.
//! 2. **Gather** — sort the touched-module list (ascending module id, the
//!    order the tie-break contract requires), pull the dense values into
//!    compact `out_lane`/`in_lane` candidate lanes (`vgatherdpd` on the
//!    SIMD path), and clear exactly the touched stamps — O(touched), never
//!    O(communities).
//! 3. **Scan** — evaluate the map-equation delta of each candidate with
//!    [`MoveEval`] + [`ModTermCache`]: three `plogp` calls per candidate
//!    instead of ten, bit-identical to [`MapState::delta_move`].
//!
//! Every phase preserves the exact FP operation order of the generic
//! event-emitting kernel ([`crate::find_best::find_best_community`], the
//! reference every accumulation device runs through), so the decision
//! stream — and therefore partitions and codelengths — are bit-identical
//! across the hash reference, portable, and AVX2 paths.
//!
//! Each worker's [`DualSpa`] costs 32 bytes per node of the level it
//! sweeps (one [`SpaSlot`] per module id), allocated once at the
//! vertex level and reused by every coarser level.

use asa_graph::NodeId;

use crate::find_best::MoveDecision;
use crate::flow::FlowNetwork;
use crate::mapeq::{MapState, ModTermCache, ModuleFlows, MoveEval};

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

/// Env var forcing the portable scalar path even when SIMD is compiled in
/// and supported by the CPU. Read once per process.
pub const FORCE_SCALAR_ENV: &str = "ASA_FORCE_SCALAR";

static FORCE_SCALAR: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static FORCE_SCALAR_INIT: std::sync::Once = std::sync::Once::new();

fn force_scalar() -> bool {
    FORCE_SCALAR_INIT.call_once(|| {
        let on = std::env::var(FORCE_SCALAR_ENV)
            .map(|v| v != "0" && !v.is_empty())
            .unwrap_or(false);
        FORCE_SCALAR.store(on, std::sync::atomic::Ordering::Relaxed);
    });
    FORCE_SCALAR.load(std::sync::atomic::Ordering::Relaxed)
}

/// Programmatic override of the dispatch, strongest-wins over the env var.
/// Lets one process benchmark the simd-on and simd-off legs back to back
/// (`hostperf --kernel-breakdown`).
pub fn set_force_scalar(on: bool) {
    force_scalar(); // ensure env init happened so it cannot overwrite us
    FORCE_SCALAR.store(on, std::sync::atomic::Ordering::Relaxed);
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_available() -> bool {
    static DETECT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DETECT.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Whether the AVX2 gather path will run for the next kernel invocation.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        avx2_available() && !force_scalar()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = force_scalar();
        false
    }
}

/// Whether the AVX2 gathers can index a level of `nodes` nodes. They
/// compute indices in `i32` lanes: node ids as label offsets, and
/// `4 * module + lane` as slot-lane offsets, so every id must stay at or
/// below `i32::MAX / 4`.
#[inline]
const fn avx2_index_fits(nodes: usize) -> bool {
    nodes <= i32::MAX as usize / 4
}

/// Whether the AVX2 path runs for a level of `nodes` nodes: compiled in,
/// supported, not forced off, and the level's ids fit the `i32` lanes.
#[inline]
pub fn simd_for(nodes: usize) -> bool {
    simd_active() && avx2_index_fits(nodes)
}

/// The name of the kernel path `simd` selects, for obs records and bench
/// JSON: `"spa-simd-avx2"` or `"spa-scalar"`.
pub(crate) fn path_name(simd: bool) -> &'static str {
    if simd {
        "spa-simd-avx2"
    } else {
        "spa-scalar"
    }
}

/// The dispatch target's name, for obs records and bench JSON:
/// `"spa-simd-avx2"` when [`simd_active`], else `"spa-scalar"`.
pub fn kernel_path_name() -> &'static str {
    path_name(simd_active())
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
// Label gather (the `labels[targets[i]]` indexed load)
// ---------------------------------------------------------------------------

/// Portable unrolled gather: 8 independent indexed loads per step, no
/// cross-iteration dependencies, so the compiler can schedule them wide.
fn gather_labels_portable(labels: &[u32], targets: &[NodeId], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(targets.len());
    let mut chunks = targets.chunks_exact(8);
    for c in &mut chunks {
        out.extend_from_slice(&[
            labels[c[0] as usize],
            labels[c[1] as usize],
            labels[c[2] as usize],
            labels[c[3] as usize],
            labels[c[4] as usize],
            labels[c[5] as usize],
            labels[c[6] as usize],
            labels[c[7] as usize],
        ]);
    }
    for &t in chunks.remainder() {
        out.push(labels[t as usize]);
    }
}

/// AVX2 gather: 8 labels per `vpgatherdd`.
///
/// # Safety
/// Caller must ensure AVX2 is available and every target id indexes into
/// `labels` (the CSR construction guarantees targets < num_nodes) and
/// fits a non-negative `i32` lane ([`avx2_index_fits`]).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gather_labels_avx2(labels: &[u32], targets: &[NodeId], out: &mut Vec<u32>) {
    use core::arch::x86_64::*;
    let n = targets.len();
    out.clear();
    out.reserve(n);
    // Every slot below `n` is written before set_len publishes them.
    let dst = out.as_mut_ptr();
    let base = labels.as_ptr() as *const i32;
    let mut i = 0;
    while i + 8 <= n {
        let idx = _mm256_loadu_si256(targets.as_ptr().add(i) as *const __m256i);
        let g = _mm256_i32gather_epi32::<4>(base, idx);
        _mm256_storeu_si256(dst.add(i) as *mut __m256i, g);
        i += 8;
    }
    while i < n {
        *dst.add(i) = *labels.get_unchecked(*targets.get_unchecked(i) as usize);
        i += 1;
    }
    out.set_len(n);
}

/// Dispatched label gather.
#[inline]
fn gather_labels(labels: &[u32], targets: &[NodeId], out: &mut Vec<u32>, simd: bool) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        // SAFETY: `DualSpa::accumulate` passes `simd` only after
        // `simd_for` (AVX2 detected, node ids fit `i32` lanes) and
        // `labels.len() >= num_nodes` held; targets are node ids
        // < num_nodes by CSR construction.
        unsafe { gather_labels_avx2(labels, targets, out) };
        return;
    }
    let _ = simd;
    gather_labels_portable(labels, targets, out);
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
    /// Scratch for the gathered neighbour labels of the current row.
    label_buf: Vec<u32>,
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
    /// identical FP sequence as the generic kernel's hash path. `simd`
    /// requests the AVX2 label gather; it runs only where it is sound.
    #[inline]
    pub fn accumulate(&mut self, flow: &FlowNetwork, labels: &[u32], u: NodeId, simd: bool) {
        debug_assert!(self.touched.is_empty(), "gather must precede accumulate");
        // The AVX2 gather reads `labels[target]` unchecked: every CSR
        // target is < num_nodes, so `labels` must cover them all, and the
        // ids must fit its `i32` lanes.
        let simd = simd && simd_for(flow.num_nodes()) && labels.len() >= flow.num_nodes();
        let (targets, flows) = flow.out_arc_slices(u);
        // Split the indexed label loads from the scatter-adds: the gather
        // half is branch-free and 8-wide (vpgatherdd on the SIMD path).
        let mut lbl = std::mem::take(&mut self.label_buf);
        gather_labels(labels, targets, &mut lbl, simd);
        self.scatter_row(&lbl, flows, true);
        // On symmetric networks the in-arc stream is the out-arc stream,
        // so the per-module in sums are the out sums bit-for-bit — skip
        // the second accumulation; `gather` mirrors the lane instead.
        if !flow.is_symmetric() {
            let (targets, flows) = flow.in_arc_slices(u);
            gather_labels(labels, targets, &mut lbl, simd);
            self.scatter_row(&lbl, flows, false);
        }
        self.label_buf = lbl;
    }

    /// Scatter one direction's `(label, flow)` row into the slots, with
    /// the slot line of the label [`SCATTER_PREFETCH`] iterations ahead
    /// pulled early so the near-random slot misses overlap.
    #[inline]
    fn scatter_row(&mut self, lbl: &[u32], flows: &[f64], out_dir: bool) {
        for (i, &f) in flows.iter().enumerate() {
            if let Some(&ahead) = lbl.get(i + SCATTER_PREFETCH) {
                prefetch_read(&self.slots[ahead as usize]);
            }
            if out_dir {
                self.add_out(lbl[i], f);
            } else {
                self.add_in(lbl[i], f);
            }
        }
    }

    /// Phase 2: sort the touched union ascending (the candidate visit
    /// order the tie-break contract requires), pull the slot sums into
    /// the compact lanes, and clear exactly the touched stamps. `simd`
    /// requests the AVX2 lane gather; it runs only where it is sound.
    #[inline]
    pub fn gather(&mut self, symmetric: bool, simd: bool) {
        // Touched ids passed the scatter's checked `slots` indexing; the
        // AVX2 gather needs `4 * id + lane` to fit its `i32` lanes.
        let simd = simd && simd_for(self.slots.len());
        self.touched.sort_unstable();
        let n = self.touched.len();
        self.keys.clear();
        self.keys.extend_from_slice(&self.touched);
        gather_lane(&self.slots, &self.keys, &mut self.out_lane, LANE_OUT, simd);
        if symmetric {
            // in sums == out sums bit-for-bit on symmetric networks.
            self.in_lane.clear();
            self.in_lane.extend_from_slice(&self.out_lane);
        } else {
            gather_lane(&self.slots, &self.keys, &mut self.in_lane, LANE_IN, simd);
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

/// f64-offset of [`SpaSlot::out`] within a slot (slot stride = 4 f64s).
const LANE_OUT: usize = 1;
/// f64-offset of [`SpaSlot::in_`] within a slot.
const LANE_IN: usize = 2;

/// Portable indexed lane gather from the AoS slots, 4-wide unrolled.
fn gather_lane_portable(slots: &[SpaSlot], idx: &[u32], out: &mut Vec<f64>, lane: usize) {
    #[inline(always)]
    fn ld(slots: &[SpaSlot], k: u32, lane: usize) -> f64 {
        let s = &slots[k as usize];
        if lane == LANE_OUT {
            s.out
        } else {
            s.in_
        }
    }
    out.clear();
    out.reserve(idx.len());
    let mut chunks = idx.chunks_exact(4);
    for c in &mut chunks {
        out.extend_from_slice(&[
            ld(slots, c[0], lane),
            ld(slots, c[1], lane),
            ld(slots, c[2], lane),
            ld(slots, c[3], lane),
        ]);
    }
    for &k in chunks.remainder() {
        out.push(ld(slots, k, lane));
    }
}

/// AVX2 indexed lane gather from the AoS slots: 4 doubles per
/// `vgatherdpd`. A [`SpaSlot`] is exactly 4 f64s, so slot `k`'s lane value
/// sits at f64-index `4k + lane` from the slot base — the index vector is
/// the module ids shifted left by 2 plus the lane offset.
///
/// # Safety
/// Caller must ensure AVX2 is available, every index is < `slots.len()`,
/// and `4 * index + lane` fits in `i32` ([`avx2_index_fits`] of
/// `slots.len()`).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gather_lane_avx2(slots: &[SpaSlot], idx: &[u32], out: &mut Vec<f64>, lane: usize) {
    use core::arch::x86_64::*;
    let n = idx.len();
    out.clear();
    out.reserve(n);
    let dst = out.as_mut_ptr();
    let base = slots.as_ptr() as *const f64;
    let off = _mm_set1_epi32(lane as i32);
    let mut i = 0;
    while i + 4 <= n {
        let ix = _mm_loadu_si128(idx.as_ptr().add(i) as *const __m128i);
        let ix = _mm_add_epi32(_mm_slli_epi32::<2>(ix), off);
        let g = _mm256_i32gather_pd::<8>(base, ix);
        _mm256_storeu_pd(dst.add(i), g);
        i += 4;
    }
    while i < n {
        let s = slots.get_unchecked(*idx.get_unchecked(i) as usize);
        *dst.add(i) = if lane == LANE_OUT { s.out } else { s.in_ };
        i += 1;
    }
    out.set_len(n);
}

/// Dispatched indexed lane gather.
#[inline]
fn gather_lane(slots: &[SpaSlot], idx: &[u32], out: &mut Vec<f64>, lane: usize, simd: bool) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        // SAFETY: `DualSpa::gather` passes `simd` only after
        // `simd_for(slots.len())` held (AVX2 detected, `4 * id + lane`
        // fits an `i32` lane); indices are module ids that already indexed
        // `slots` through the scatter's bounds-checked access.
        unsafe { gather_lane_avx2(slots, idx, out, lane) };
        return;
    }
    let _ = simd;
    gather_lane_portable(slots, idx, out, lane);
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
    cache: &mut ModTermCache,
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
    let eval = MoveEval::new_cached(state, cache, my_module, &node, flows_old);

    let mut best = MoveDecision {
        vertex: u,
        best_module: my_module,
        delta: 0.0,
    };
    for (i, &m) in keys.iter().enumerate() {
        // Pull the per-module lines of an upcoming candidate early: each
        // evaluation reads three MapState arrays plus the term-cache entry
        // at a near-random module id, which misses at vertex level.
        if let Some(&ahead) = keys.get(i + 2) {
            state.prefetch_module(ahead);
            cache.prefetch(ahead);
        }
        if m == my_module {
            continue;
        }
        let mf = ModuleFlows {
            out_flow: out[i],
            in_flow: in_[i],
        };
        let delta = eval.delta(state, cache, m, mf);
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

/// `FindBestCommunity` for one vertex on the vectorized path: the three
/// phases composed back to back.
#[inline]
pub fn find_best_community_vec(
    flow: &FlowNetwork,
    labels: &[u32],
    state: &MapState,
    u: NodeId,
    spa: &mut DualSpa,
    cache: &mut ModTermCache,
    simd: bool,
) -> MoveDecision {
    spa.accumulate(flow, labels, u, simd);
    spa.gather(flow.is_symmetric(), simd);
    scan(flow, state, cache, u, labels[u as usize], spa.lanes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfomapConfig;
    use crate::find_best::{find_best_community, FindBestScratch};
    use crate::local_move::FastAccumulator;
    use asa_graph::generators::{planted_partition, PlantedConfig};
    use asa_graph::{GraphBuilder, Partition};
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

    /// Every vertex's decision on the vectorized kernel (portable and, where
    /// available, AVX2) equals the generic kernel's over the hash
    /// accumulator, to the bit.
    fn check_vec_matches_generic(flow: &FlowNetwork, labels: &[u32], modules: usize) {
        let state = MapState::new(flow, &Partition::from_labels(labels.to_vec()));
        let mut acc = FastAccumulator::default();
        let mut scratch = FindBestScratch::default();
        let mut dual = DualSpa::default();
        dual.ensure_capacity(modules);
        let mut cache = ModTermCache::default();
        cache.begin(modules);
        for simd in [false, simd_active()] {
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
                let b =
                    find_best_community_vec(flow, labels, &state, u, &mut dual, &mut cache, simd);
                assert_eq!(a.vertex, b.vertex);
                assert_eq!(a.best_module, b.best_module, "u={u} simd={simd}");
                assert_eq!(
                    a.delta.to_bits(),
                    b.delta.to_bits(),
                    "u={u} simd={simd}: {} vs {}",
                    a.delta,
                    b.delta
                );
            }
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
        let mut cache = ModTermCache::default();
        cache.begin(200);
        let mut degree_sum = 0u64;
        for u in 0..200u32 {
            let (to, _) = flow.out_arc_slices(u);
            let (ti, _) = flow.in_arc_slices(u);
            degree_sum += (to.len() + ti.len()) as u64;
            let _ =
                find_best_community_vec(&flow, &labels, &state, u, &mut dual, &mut cache, false);
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

    #[test]
    fn gather_helpers_match_naive() {
        let slots: Vec<SpaSlot> = (0..64)
            .map(|i| SpaSlot {
                stamp: 3,
                out: i as f64 * 0.25 + 1.0,
                in_: i as f64 * -0.5 + 7.0,
                _pad: 0.0,
            })
            .collect();
        let labels: Vec<u32> = (0..64).map(|i| (i * 7 % 64) as u32).collect();
        let idx: Vec<u32> = vec![0, 63, 5, 5, 17, 42, 9, 31, 2, 8, 55];
        for simd in [false, simd_active()] {
            let mut out_l = Vec::new();
            gather_labels(&labels, &idx, &mut out_l, simd);
            let naive_l: Vec<u32> = idx.iter().map(|&k| labels[k as usize]).collect();
            assert_eq!(out_l, naive_l, "labels simd={simd}");
            for (lane, pick) in [
                (LANE_OUT, (|s: &SpaSlot| s.out) as fn(&SpaSlot) -> f64),
                (LANE_IN, |s: &SpaSlot| s.in_),
            ] {
                let mut out_f = Vec::new();
                gather_lane(&slots, &idx, &mut out_f, lane, simd);
                let naive_f: Vec<f64> = idx.iter().map(|&k| pick(&slots[k as usize])).collect();
                assert_eq!(out_f, naive_f, "lane {lane} simd={simd}");
            }
        }
    }

    #[test]
    fn avx2_only_where_ids_fit_i32_lanes() {
        let limit = i32::MAX as usize / 4;
        assert!(avx2_index_fits(0) && avx2_index_fits(limit));
        assert!(!avx2_index_fits(limit + 1) && !avx2_index_fits(u32::MAX as usize));
        // The largest admitted module id still forms a valid slot-lane
        // offset for either lane.
        assert!(4 * (limit as i64 - 1) + LANE_IN as i64 <= i32::MAX as i64);
        assert!(
            !simd_for(limit + 1),
            "oversized levels take the portable kernel"
        );
        assert_eq!(simd_for(limit), simd_active());
    }

    #[test]
    fn force_scalar_override_wins() {
        let env_on = std::env::var(FORCE_SCALAR_ENV)
            .map(|v| v != "0" && !v.is_empty())
            .unwrap_or(false);
        let was = simd_active();
        set_force_scalar(true);
        assert!(!simd_active());
        assert_eq!(kernel_path_name(), "spa-scalar");
        // Restore the env-derived state (keeps this test honest under the
        // ASA_FORCE_SCALAR=1 CI leg) and check the dispatch came back.
        set_force_scalar(env_on);
        assert_eq!(simd_active(), was);
    }
}
