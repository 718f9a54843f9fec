//! Dynamic-graph deltas: batched edge mutations over an immutable CSR
//! base, with a fingerprint *chain* identifying graph versions.
//!
//! The static pipeline treats a [`CsrGraph`] as immutable — every
//! mutation would otherwise mean a full rebuild plus a brand-new
//! fingerprint, invalidating every cache keyed on the old one. This
//! module adds the streaming vocabulary:
//!
//! * [`EdgeDelta`] — one batch of arc insertions (with weights) and
//!   deletions, the unit a client ships per update.
//! * [`DeltaGraph`] — a base `CsrGraph` plus a canonical *net overlay* of
//!   applied batches. Adjacency queries merge the base row with its
//!   overlay patches lazily; [`DeltaGraph::materialize`] builds the merged
//!   CSR. A caller that keeps the merged CSR brings it to the next version
//!   with [`DeltaGraph::splice`], which rewrites only the rows a batch
//!   touched, and periodically compacts the overlay by
//!   [`DeltaGraph::rebase`]-ing onto it.
//! * The **fingerprint chain** — [`DeltaGraph::chain_fingerprint`] is the
//!   chain *anchor* (the base fingerprint at the last rebase) while the net
//!   overlay is empty, else a mix of the anchor with a *multiset hash* of
//!   the canonical overlay: the wrapping sum of a strong 64-bit mix of each
//!   entry `(source, target, delete | weight bits)`. A batch moves the sum
//!   by the entries it changes (old hash out, new hash in), so the head
//!   costs O(Δ) per batch however large the overlay has grown. Because the
//!   overlay is net (insertions and deletions cancel against the base),
//!   the head is a function of effective content: deleting arcs and
//!   re-inserting them at their original weights restores the previous
//!   chain head, two batch orders that reach the same overlay reach the
//!   same head, and compaction — which only rebases — never changes the
//!   chain. Caches and routers key graph *versions* on this value; no
//!   chain value is persisted.
//!
//! Weight semantics mirror [`crate::GraphBuilder`]: inserting an arc that
//! already exists accumulates weight; deleting removes the arc entirely.
//! The vertex set is fixed by the base graph. Like the builder, a version
//! whose total weight overflows `f64` is refused:
//! [`DeltaGraph::fingerprint_after`] reports it in O(Δ) before the batch
//! is applied. It reads an exact running total of the merged weights,
//! rounded once, and refuses totals within a relative [`TOTAL_MARGIN`] of
//! `f64::MAX` too, so the arc-order sum a materialized graph computes is
//! finite as well.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::csr::{splice_rows, CsrError, CsrGraph, EdgeRef, NodeId, WEIGHT_OVERFLOW};
use crate::exact_sum::ExactSum;

/// One batch of edge mutations. Deletions apply before insertions, so a
/// single batch can atomically re-weight an arc (`delete` + `insert`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeDelta {
    inserts: Vec<(NodeId, NodeId, f64)>,
    deletes: Vec<(NodeId, NodeId)>,
}

impl EdgeDelta {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an arc insertion. For an existing arc the weight
    /// *accumulates* (builder semantics).
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite weight.
    pub fn insert(&mut self, u: NodeId, v: NodeId, w: f64) -> &mut Self {
        assert!(
            w > 0.0 && w.is_finite(),
            "edge weight must be positive and finite, got {w}"
        );
        self.inserts.push((u, v, w));
        self
    }

    /// Queues an arc deletion. Deleting an absent arc is a no-op.
    pub fn delete(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.deletes.push((u, v));
        self
    }

    /// Whether the batch holds no operations at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of queued operations (insertions plus deletions).
    pub fn num_ops(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Queued insertions, in submission order.
    pub fn inserts(&self) -> &[(NodeId, NodeId, f64)] {
        &self.inserts
    }

    /// Queued deletions, in submission order.
    pub fn deletes(&self) -> &[(NodeId, NodeId)] {
        &self.deletes
    }

    /// Every vertex incident to an operation, sorted and deduplicated.
    /// This seeds the incremental optimizer's touched frontier.
    pub fn endpoints(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .inserts
            .iter()
            .flat_map(|&(u, v, _)| [u, v])
            .chain(self.deletes.iter().flat_map(|&(u, v)| [u, v]))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every arc an operation names, with its mirror `(v, u)` too when
    /// `mirror` is set (an undirected graph stores both), sorted and
    /// deduplicated. These are the only arcs whose weight the batch can
    /// change.
    pub fn arcs(&self, mirror: bool) -> Vec<(NodeId, NodeId)> {
        let mut out: Vec<(NodeId, NodeId)> = self
            .inserts
            .iter()
            .map(|&(u, v, _)| (u, v))
            .chain(self.deletes.iter().copied())
            .flat_map(|(u, v)| arc_and_mirror(u, v, mirror))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Relative headroom below `f64::MAX` that
/// [`DeltaGraph::fingerprint_after`] keeps. The running total is exact and
/// rounded once; the arc-order sum of [`CsrGraph::total_arc_weight`]
/// differs from the exact sum by at most one rounding per addition, about
/// 2⁻⁵³ of `f64::MAX` each, so a total below the limit proves the
/// materialized sum finite for fewer than 2³³ arcs. Totals inside the
/// margin are refused though finite.
pub const TOTAL_MARGIN: f64 = 1.0 / (1u64 << 20) as f64;

/// The largest running total [`DeltaGraph::fingerprint_after`] accepts.
const TOTAL_LIMIT: f64 = f64::MAX * (1.0 - TOTAL_MARGIN);

/// One arc's overlay patch: `Some(w)` overrides its weight to `w`, `None`
/// deletes it.
type Patch = Option<f64>;

/// Net per-arc patches keyed by directed `(source, target)`.
type Overlay = BTreeMap<(NodeId, NodeId), Patch>;

/// A batch folded against the overlay, which it leaves as it is: the
/// arcs it names, and the chain sum, overlay size and total after it.
struct Folded {
    arcs: BTreeMap<(NodeId, NodeId), ArcFold>,
    chain_sum: u64,
    len: usize,
    total: ExactSum,
}

/// One arc a batch names, looked up once: its overlay entry before the
/// batch and after its operations (`None`: no entry, the arc is at its
/// base weight), and its base weight.
#[derive(Clone, Copy)]
struct ArcFold {
    before: Option<Patch>,
    after: Option<Patch>,
    base: Option<f64>,
}

impl ArcFold {
    /// The arc's weight after the operations so far, if present.
    fn weight(&self) -> Option<f64> {
        self.after.unwrap_or(self.base)
    }
}

/// A base [`CsrGraph`] plus the canonical net overlay of every
/// [`EdgeDelta`] applied since the last rebase. See the module docs.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Arc<CsrGraph>,
    /// Chain fingerprint at the last rebase (construction or
    /// [`DeltaGraph::rebase`]). With an empty overlay this *is* the
    /// chain head.
    anchor: u64,
    /// Net per-arc patches keyed by directed `(source, target)`:
    /// `Some(w)` overrides the arc's weight to `w`, `None` deletes it.
    /// Undirected patches are stored mirrored (both directions), so row
    /// queries are a single range scan; the chain fingerprint
    /// canonicalizes by hashing only the `source <= target` half.
    overlay: Overlay,
    /// The overlay's multiset hash: the wrapping sum of [`entry_hash`]
    /// over its canonical entries, zero when it is empty.
    chain_sum: u64,
    /// Batches folded in since the last rebase (compaction-policy input).
    batches_since_compact: usize,
    /// Total arc weight of the merged view, exact: the base's weights
    /// summed once at construction, then each patch adds an arc's new
    /// weight and subtracts its old one, O(1) per arc. A rebase keeps it
    /// as it is. Read rounded through [`DeltaGraph::total`].
    total: ExactSum,
}

impl DeltaGraph {
    /// Wraps `base` with an empty overlay. The chain head starts at
    /// `base.fingerprint()`.
    pub fn new(base: Arc<CsrGraph>) -> Self {
        let anchor = base.fingerprint();
        DeltaGraph {
            total: ExactSum::of(base.out_csr().2),
            base,
            anchor,
            overlay: BTreeMap::new(),
            chain_sum: 0,
            batches_since_compact: 0,
        }
    }

    /// The base CSR the overlay patches against.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Vertex count (fixed by the base graph).
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Whether the base graph is directed.
    pub fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    /// Net overlay patch count (directed entries; mirrored pairs count
    /// twice). Zero means the view is byte-identical to the base.
    pub fn pending_patches(&self) -> usize {
        self.overlay.len()
    }

    /// Batches applied since the last rebase.
    pub fn batches_since_compact(&self) -> usize {
        self.batches_since_compact
    }

    /// The chain *anchor*: the chain fingerprint at the last rebase.
    /// Routing keys on this — every version of one update stream shares
    /// it, which is what keeps the stream shard-affine.
    pub fn anchor_fingerprint(&self) -> u64 {
        self.anchor
    }

    /// The chain head identifying the current version: the anchor when
    /// the net overlay is empty, else the anchor mixed with the overlay's
    /// multiset hash. O(1).
    pub fn chain_fingerprint(&self) -> u64 {
        self.head(self.overlay.len(), self.chain_sum)
    }

    /// The chain head of an overlay of `len` entries whose multiset hash
    /// is `chain_sum`.
    fn head(&self, len: usize, chain_sum: u64) -> u64 {
        if len == 0 {
            self.anchor
        } else {
            mix(self.anchor, chain_sum)
        }
    }

    /// Total arc weight of the merged view: the exact sum of its weights,
    /// rounded once to the nearest `f64`. It can differ from the
    /// arc-order sum [`CsrGraph::total_arc_weight`] of a materialization
    /// in the last bits, which are that sum's roundings. O(1).
    pub fn total(&self) -> f64 {
        self.total.value()
    }

    /// The chain head `apply(delta)` would produce, without mutating
    /// anything; an error when the merged total weight would overflow
    /// `f64` (which no checked [`CsrGraph`] constructor accepts) or come
    /// within [`TOTAL_MARGIN`] of it. O(Δ log overlay): the batch folds
    /// into a side map of the entries it changes.
    ///
    /// # Panics
    /// Panics where [`DeltaGraph::apply`] does.
    pub fn fingerprint_after(&self, delta: &EdgeDelta) -> Result<u64, CsrError> {
        let folded = self.fold(delta);
        if folded.total.value() > TOTAL_LIMIT {
            return Err(WEIGHT_OVERFLOW);
        }
        Ok(self.head(folded.len, folded.chain_sum))
    }

    /// Folds one batch into the net overlay and returns the new chain
    /// head. It does not check weights: a caller that takes batches from
    /// outside checks [`DeltaGraph::fingerprint_after`] first.
    ///
    /// # Panics
    /// Panics if an operation references a vertex outside the base
    /// graph's vertex set.
    pub fn apply(&mut self, delta: &EdgeDelta) -> u64 {
        let folded = self.fold(delta);
        for (arc, fold) in folded.arcs {
            match fold.after {
                Some(patch) => self.overlay.insert(arc, patch),
                None => self.overlay.remove(&arc),
            };
        }
        debug_assert_eq!(self.overlay.len(), folded.len);
        self.chain_sum = folded.chain_sum;
        self.total = folded.total;
        if !delta.is_empty() {
            self.batches_since_compact += 1;
        }
        self.chain_fingerprint()
    }

    /// Folds `delta`'s operations (deletions first) against the overlay
    /// without changing it, normalizing away patches that restore an arc
    /// to its base weight. O(Δ log overlay).
    fn fold(&self, delta: &EdgeDelta) -> Folded {
        let n = self.num_nodes() as NodeId;
        let mirror = !self.is_directed();
        let mut arcs = BTreeMap::new();
        let mut total = self.total.clone();
        for &(u, v) in delta.deletes() {
            assert!(u < n && v < n, "delete ({u},{v}) outside 0..{n}");
            for (s, t) in arc_and_mirror(u, v, mirror) {
                let arc = self.arc_fold(&mut arcs, s, t);
                if let Some(w) = arc.weight() {
                    total.sub(w);
                }
                // Absent in the base: absence is the default state.
                arc.after = arc.base.map(|_| None);
            }
        }
        for &(u, v, w) in delta.inserts() {
            assert!(u < n && v < n, "insert ({u},{v}) outside 0..{n}");
            for (s, t) in arc_and_mirror(u, v, mirror) {
                let arc = self.arc_fold(&mut arcs, s, t);
                let current = arc.weight();
                let next = current.unwrap_or(0.0) + w;
                if let Some(current) = current {
                    total.sub(current);
                }
                total.add(next);
                // A patch that lands exactly on the base weight is a
                // no-op: drop it so the overlay stays net (this is what
                // makes delete-then-reinsert restore the chain head).
                let restored = arc.base.map(f64::to_bits) == Some(next.to_bits());
                arc.after = (!restored).then_some(Some(next));
            }
        }
        // Each changed canonical entry takes its old hash out of the
        // multiset and puts its new one in.
        let (mut chain_sum, mut len) = (self.chain_sum, self.overlay.len());
        for (&(s, t), fold) in &arcs {
            len = len + usize::from(fold.after.is_some()) - usize::from(fold.before.is_some());
            if !mirror || s <= t {
                let hash = |entry: Option<Patch>| entry.map_or(0, |p| entry_hash(s, t, p));
                chain_sum = chain_sum
                    .wrapping_sub(hash(fold.before))
                    .wrapping_add(hash(fold.after));
            }
        }
        Folded {
            arcs,
            chain_sum,
            len,
            total,
        }
    }

    /// Arc `(s, t)`'s entry in `arcs`, looked up in the overlay and the
    /// base the first time the batch names it.
    fn arc_fold<'a>(
        &self,
        arcs: &'a mut BTreeMap<(NodeId, NodeId), ArcFold>,
        s: NodeId,
        t: NodeId,
    ) -> &'a mut ArcFold {
        arcs.entry((s, t)).or_insert_with(|| {
            let before = self.overlay.get(&(s, t)).copied();
            ArcFold {
                before,
                after: before,
                base: self.base_weight(s, t),
            }
        })
    }

    /// The base graph's weight for arc `(u, v)`, if present.
    fn base_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.base.arc_weight(u, v)
    }

    /// Effective weight of arc `(u, v)` in the merged view, if present.
    pub fn arc_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        match self.overlay.get(&(u, v)) {
            Some(&patch) => patch,
            None => self.base_weight(u, v),
        }
    }

    /// The merged out-adjacency row of `u`: base row patched by the
    /// overlay, sorted by target. This is the lazily merged view — no
    /// CSR is materialized.
    pub fn out_row(&self, u: NodeId) -> Vec<EdgeRef> {
        let row = self.base.out_neighbors(u);
        let patches = self.overlay.range((u, 0)..=(u, NodeId::MAX));
        let mut out = Vec::with_capacity(row.len());
        let (targets, weights) = (row.targets(), row.weights());
        let mut i = 0;
        for (&(_, t), &patch) in patches {
            while i < targets.len() && targets[i] < t {
                out.push(EdgeRef {
                    target: targets[i],
                    weight: weights[i],
                });
                i += 1;
            }
            if i < targets.len() && targets[i] == t {
                i += 1; // patched: base entry superseded
            }
            if let Some(w) = patch {
                out.push(EdgeRef {
                    target: t,
                    weight: w,
                });
            }
        }
        while i < targets.len() {
            out.push(EdgeRef {
                target: targets[i],
                weight: weights[i],
            });
            i += 1;
        }
        out
    }

    /// Merged arc count (what `materialize().num_arcs()` will report).
    pub fn num_arcs(&self) -> usize {
        let delta: isize = self
            .overlay
            .iter()
            .map(|(&(u, v), &patch)| match patch {
                None => -1,
                Some(_) if self.base_weight(u, v).is_none() => 1,
                Some(_) => 0,
            })
            .sum();
        (self.base.num_arcs() as isize + delta) as usize
    }

    /// Iterates every merged arc as `(source, target, weight)`, row by
    /// row in target order.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            self.out_row(u)
                .into_iter()
                .map(move |e| (u, e.target, e.weight))
        })
    }

    /// Materializes the merged view into a fresh [`CsrGraph`] without
    /// touching the overlay: the base CSR with every overlaid arc spliced
    /// in, in one ordered pass over the overlay.
    pub fn materialize(&self) -> CsrGraph {
        let patches = self.overlay.iter().map(|(&(u, v), &p)| (u, v, p));
        self.splice_arcs(&self.base, patches.collect())
    }

    /// The merged view after `delta`, spliced from `prev`, the merged view
    /// before it: only the rows holding an arc `delta` names are rewritten
    /// (undirected: both endpoints' rows; directed: the sources' out-rows
    /// and the targets' in-rows), each arc taking its current weight, and
    /// every other row span is copied. Call it after
    /// [`DeltaGraph::apply`]`(delta)`; the result equals
    /// [`DeltaGraph::materialize`] bit for bit, in O(n + m) copying plus
    /// O(Δ log overlay) lookups instead of a merge of the whole overlay.
    pub fn splice(&self, prev: &CsrGraph, delta: &EdgeDelta) -> CsrGraph {
        let arcs = delta.arcs(!self.is_directed()).into_iter();
        self.splice_arcs(
            prev,
            arcs.map(|(u, v)| (u, v, self.arc_weight(u, v))).collect(),
        )
    }

    /// `graph` with the arcs in `patches` (sorted, one per arc) set to
    /// their weight or deleted. Undirected: the patches are mirrored, so
    /// the rows stay symmetric and are the only rows stored. Directed: the
    /// in-rows take the transposed patches.
    fn splice_arcs(
        &self,
        graph: &CsrGraph,
        patches: Vec<(NodeId, NodeId, Option<f64>)>,
    ) -> CsrGraph {
        let transpose = self.is_directed().then(|| {
            let mut transposed: Vec<_> = patches.iter().map(|&(u, v, w)| (v, u, w)).collect();
            transposed.sort_unstable_by_key(|&(v, u, _)| (v, u));
            splice_rows(graph.in_csr(), transposed, |w| w)
        });
        let out = splice_rows(graph.out_csr(), patches, |w| w);
        CsrGraph::from_sorted_parts(self.num_nodes() as u32, out, transpose)
    }

    /// Compacts the overlay onto `merged`, a materialization of the
    /// current view ([`DeltaGraph::materialize`], or the
    /// [`DeltaGraph::splice`] a caller already holds, so no second merge
    /// runs): `merged` becomes the base and the overlay and its multiset
    /// hash empty. The exact total already is `merged`'s, so it stays as
    /// it is, and the rebase is O(overlay) to drop the patches. The chain
    /// head is **unchanged** — the new anchor is the old chain head, so
    /// caches keyed on [`DeltaGraph::chain_fingerprint`] keep hitting
    /// across compactions.
    pub fn rebase(&mut self, merged: Arc<CsrGraph>) {
        debug_assert_eq!(
            merged.fingerprint(),
            self.materialize().fingerprint(),
            "rebase onto a graph that is not the merged view"
        );
        self.anchor = self.chain_fingerprint();
        self.base = merged;
        self.overlay.clear();
        self.chain_sum = 0;
        self.batches_since_compact = 0;
    }
}

/// The arc plus its mirror for undirected graphs (a self-loop mirrors to
/// itself and is emitted once).
fn arc_and_mirror(u: NodeId, v: NodeId, mirror: bool) -> impl Iterator<Item = (NodeId, NodeId)> {
    let second = (mirror && u != v).then_some((v, u));
    std::iter::once((u, v)).chain(second)
}

/// The multiset hash of one canonical overlay entry: arc `(u, v)` with
/// its patch. A delete hashes the tag `u64::MAX`, which no positive finite
/// weight's bit pattern equals.
fn entry_hash(u: NodeId, v: NodeId, patch: Patch) -> u64 {
    let arc = u64::from(u) << 32 | u64::from(v);
    mix(arc, patch.map_or(u64::MAX, f64::to_bits))
}

/// A strong 64-bit mix of two words: the SplitMix64 finalizer, a
/// bijection, applied to `a` offset by the golden ratio, xored with `b`
/// and applied again. For a fixed `a` it is a bijection of `b`, and the
/// other way round.
fn mix(a: u64, b: u64) -> u64 {
    fn finalize(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    finalize(finalize(a.wrapping_add(0x9e37_79b9_7f4a_7c15)) ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Arc<CsrGraph> {
        let mut b = GraphBuilder::undirected(5);
        for &(u, v, w) in &[
            (0u32, 1u32, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.5),
            (3, 0, 1.0),
            (0, 2, 0.5),
        ] {
            b.add_edge(u, v, w);
        }
        Arc::new(b.build())
    }

    /// Rebuilds the merged graph through the builder (ground truth).
    fn rebuilt(dg: &DeltaGraph) -> CsrGraph {
        let mut b = if dg.is_directed() {
            GraphBuilder::directed(dg.num_nodes())
        } else {
            GraphBuilder::undirected(dg.num_nodes())
        };
        for (u, v, w) in dg.arcs() {
            if dg.is_directed() || u <= v {
                b.add_edge(u, v, w);
            }
        }
        b.build()
    }

    #[test]
    fn empty_overlay_is_the_base() {
        let base = diamond();
        let dg = DeltaGraph::new(Arc::clone(&base));
        assert_eq!(dg.chain_fingerprint(), base.fingerprint());
        assert_eq!(dg.num_arcs(), base.num_arcs());
        let mat = dg.materialize();
        assert_eq!(mat.fingerprint(), base.fingerprint());
    }

    #[test]
    fn insert_delete_merge_matches_builder() {
        let dg_base = diamond();
        let mut dg = DeltaGraph::new(dg_base);
        let mut d = EdgeDelta::new();
        d.insert(1, 3, 4.0) // new edge
            .insert(0, 1, 1.0) // accumulate onto existing (→ 2.0)
            .delete(0, 2); // drop existing
        dg.apply(&d);

        let mut b = GraphBuilder::undirected(5);
        for &(u, v, w) in &[(0u32, 1u32, 2.0), (1, 2, 2.0), (2, 3, 1.5), (3, 0, 1.0)] {
            b.add_edge(u, v, w);
        }
        b.add_edge(1, 3, 4.0);
        let want = b.build();

        assert_eq!(dg.num_arcs(), want.num_arcs());
        assert_eq!(dg.materialize().fingerprint(), want.fingerprint());
        assert_eq!(rebuilt(&dg).fingerprint(), want.fingerprint());
        // Lazily merged rows agree with the materialized CSR.
        let mat = dg.materialize();
        for u in 0..5u32 {
            let lazy: Vec<(u32, u64)> = dg
                .out_row(u)
                .iter()
                .map(|e| (e.target, e.weight.to_bits()))
                .collect();
            let full: Vec<(u32, u64)> = mat
                .out_neighbors(u)
                .iter()
                .map(|e| (e.target, e.weight.to_bits()))
                .collect();
            assert_eq!(lazy, full, "row {u}");
        }
    }

    #[test]
    fn chain_head_tracks_net_content() {
        let base = diamond();
        let mut dg = DeltaGraph::new(Arc::clone(&base));
        let base_fp = base.fingerprint();

        let mut del = EdgeDelta::new();
        del.delete(0, 1).delete(2, 3);
        let after_del = dg.apply(&del);
        assert_ne!(after_del, base_fp);

        // Reinsert at original weights: net overlay empties, chain head
        // returns to the anchor.
        let mut ins = EdgeDelta::new();
        ins.insert(0, 1, 1.0).insert(2, 3, 1.5);
        let restored = dg.apply(&ins);
        assert_eq!(restored, base_fp);
        assert_eq!(dg.pending_patches(), 0);

        // Same net mutation by a different path → same chain head.
        let mut a = DeltaGraph::new(Arc::clone(&base));
        let mut b = DeltaGraph::new(base);
        let mut one = EdgeDelta::new();
        one.insert(1, 3, 2.0);
        let mut two_a = EdgeDelta::new();
        two_a.insert(1, 3, 0.5);
        let mut two_b = EdgeDelta::new();
        two_b.insert(1, 3, 1.5);
        let head_a = {
            a.apply(&two_a);
            a.apply(&two_b)
        };
        assert_eq!(head_a, b.apply(&one));
    }

    #[test]
    fn fingerprint_after_previews_apply() {
        let mut dg = DeltaGraph::new(diamond());
        let mut d = EdgeDelta::new();
        d.insert(4, 0, 3.0).delete(1, 2);
        let preview = dg.fingerprint_after(&d).unwrap();
        assert_eq!(dg.apply(&d), preview);
    }

    #[test]
    fn total_weight_tracks_the_merged_graph() {
        let mut dg = DeltaGraph::new(diamond());
        let mut batches = [EdgeDelta::new(), EdgeDelta::new(), EdgeDelta::new()];
        batches[0].insert(4, 2, 1.0).insert(0, 1, 0.25).delete(2, 3);
        batches[1].insert(2, 3, 4.0).insert(4, 4, 2.0).delete(0, 2);
        batches[2].delete(4, 2).delete(3, 3).insert(0, 1, 3.0);
        for (i, d) in batches.iter().enumerate() {
            dg.apply(d);
            if i == 1 {
                dg.rebase(Arc::new(dg.materialize()));
            }
            let want = dg.materialize().total_arc_weight();
            assert!(
                (dg.total() - want).abs() <= 1e-12 * want,
                "{} vs {want}",
                dg.total()
            );
        }
    }

    #[test]
    fn total_weight_stays_sound_near_f64_max() {
        let mut dg = DeltaGraph::new(diamond());
        // An undirected edge counts twice in `2W`.
        let big = f64::MAX / 4.0;
        let mut batches = vec![EdgeDelta::new(); 7];
        batches[0].insert(0, 1, big);
        batches[1].insert(2, 3, big);
        batches[2].insert(2, 3, 0.9 * big);
        batches[3].insert(3, 4, 0.2 * big);
        batches[4].delete(0, 1).insert(4, 4, 0.5 * big);
        batches[5].delete(2, 3).insert(0, 1, 1.5 * big);
        batches[6].delete(4, 4).delete(0, 1).insert(1, 2, 3.0);
        let mut refused = 0;
        for d in &batches {
            // The arc-order sum `materialize().total_arc_weight()` would
            // give, without the debug build's finiteness assert.
            let merged = |dg: &DeltaGraph| {
                let mut probe = dg.clone();
                probe.apply(d);
                probe.arcs().map(|(_, _, w)| w).sum::<f64>()
            };
            match dg.fingerprint_after(d) {
                Ok(head) => {
                    let want = merged(&dg);
                    assert_eq!(dg.apply(d), head);
                    assert!(want <= f64::MAX * (1.0 - TOTAL_MARGIN / 2.0));
                    assert_eq!(want, dg.materialize().total_arc_weight());
                }
                Err(e) => {
                    assert_eq!(e, WEIGHT_OVERFLOW);
                    assert!(merged(&dg) > TOTAL_LIMIT, "refused a total below the limit");
                    refused += 1;
                }
            }
        }
        // Batches 1 (total exactly f64::MAX) and 3 (past it) are refused.
        assert_eq!(refused, 2);
        // The exact total kept the small weights through the huge ones
        // that came and went, so it needs no rebase to read the sum.
        assert_eq!(dg.total(), 13.0);
        dg.rebase(Arc::new(dg.materialize()));
        assert_eq!(dg.total().to_bits(), dg.base().total_arc_weight().to_bits());
        // Left: 1-2 (2 + 3), 3-0 and 0-2.
        assert_eq!(dg.total(), 2.0 * (5.0 + 1.0 + 0.5));
    }

    #[test]
    fn overflowing_batches_are_refused_before_apply() {
        let dg = DeltaGraph::new(diamond());
        let head = dg.chain_fingerprint();
        // One undirected edge of 1e308 counts twice in `2W`; two edges of
        // 5e307 overflow it together though neither arc does alone.
        let mut one = EdgeDelta::new();
        one.insert(0, 1, 1e308);
        let mut two = EdgeDelta::new();
        two.insert(0, 1, 5e307).insert(3, 4, 5e307);
        let mut thrice = EdgeDelta::new();
        for _ in 0..3 {
            thrice.insert(2, 4, f64::MAX);
        }
        for d in [&one, &two, &thrice] {
            assert_eq!(dg.fingerprint_after(d), Err(WEIGHT_OVERFLOW));
        }
        assert_eq!(dg.chain_fingerprint(), head);
        assert_eq!(dg.pending_patches(), 0);

        // Directed arcs count once: one 1e308 arc fits, a second does not
        // until the first is deleted.
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1, 1.0);
        let mut dg = DeltaGraph::new(Arc::new(b.build()));
        let mut big = EdgeDelta::new();
        big.insert(1, 2, 1e308);
        dg.apply(&big);
        let mut more = EdgeDelta::new();
        more.insert(2, 0, 1e308);
        assert_eq!(dg.fingerprint_after(&more), Err(WEIGHT_OVERFLOW));
        more.delete(1, 2);
        assert!(dg.fingerprint_after(&more).is_ok());
    }

    #[test]
    fn compaction_preserves_chain_identity() {
        let mut dg = DeltaGraph::new(diamond());
        let mut d = EdgeDelta::new();
        d.insert(4, 2, 1.0).delete(0, 1);
        let head = dg.apply(&d);
        let merged_before = dg.materialize().fingerprint();

        dg.rebase(Arc::new(dg.materialize()));
        let compacted = Arc::clone(dg.base());
        assert_eq!(
            dg.chain_fingerprint(),
            head,
            "compaction must not move the chain"
        );
        assert_eq!(
            dg.anchor_fingerprint(),
            head,
            "rebased anchor is the old head"
        );
        assert_eq!(dg.pending_patches(), 0);
        assert_eq!(compacted.fingerprint(), merged_before);
        // The raw CSR fingerprint of the compacted graph is *not* the
        // chain head — exactly the mismatch chain keying exists to fix.
        assert_ne!(compacted.fingerprint(), head);

        // Post-compaction deltas chain off the new anchor.
        let mut d2 = EdgeDelta::new();
        d2.insert(3, 4, 2.0);
        let head2 = dg.apply(&d2);
        assert_ne!(head2, head);
        let mut undo = EdgeDelta::new();
        undo.delete(3, 4);
        assert_eq!(dg.apply(&undo), head, "undo returns to the rebased anchor");
    }

    #[test]
    fn directed_in_csr_patched() {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        let mut dg = DeltaGraph::new(Arc::new(b.build()));
        let mut d = EdgeDelta::new();
        d.insert(3, 0, 2.0).delete(1, 2);
        dg.apply(&d);
        let mat = dg.materialize();
        assert_eq!(mat.in_degree(0), 1);
        assert_eq!(mat.in_degree(2), 0);
        assert_eq!(mat.out_degree(3), 1);
        // in-CSR consistency: every arc appears in both directions' CSRs.
        let mut want = GraphBuilder::directed(4);
        want.add_edge(0, 1, 1.0);
        want.add_edge(2, 3, 1.0);
        want.add_edge(3, 0, 2.0);
        assert_eq!(mat.fingerprint(), want.build().fingerprint());
    }

    #[test]
    fn delete_absent_and_empty_delta_are_noops() {
        let base = diamond();
        let mut dg = DeltaGraph::new(Arc::clone(&base));
        let head = dg.chain_fingerprint();
        assert_eq!(dg.apply(&EdgeDelta::new()), head);
        assert_eq!(dg.batches_since_compact(), 0);
        let mut d = EdgeDelta::new();
        d.delete(0, 4); // never existed
        assert_eq!(dg.apply(&d), head);
        assert_eq!(dg.num_arcs(), base.num_arcs());
    }

    /// The three CSR arrays of both directions, for exact comparison.
    fn arrays(g: &CsrGraph) -> [(Vec<u64>, Vec<NodeId>, Vec<u64>); 2] {
        [g.out_csr(), g.in_csr()].map(|(o, t, w)| {
            (
                o.to_vec(),
                t.to_vec(),
                w.iter().map(|x| x.to_bits()).collect(),
            )
        })
    }

    #[test]
    fn splice_equals_materialize_across_batches() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for directed in [false, true] {
            let n = 12u32;
            let mut b = if directed {
                GraphBuilder::directed(n as usize)
            } else {
                GraphBuilder::undirected(n as usize)
            };
            for u in 0..n - 2 {
                b.add_edge(u, u + 1, 1.0);
            }
            let mut dg = DeltaGraph::new(Arc::new(b.build()));
            let mut merged = Arc::clone(dg.base());
            for batch in 0..60 {
                let mut d = EdgeDelta::new();
                for _ in 0..1 + next(5) {
                    // Self-loops, vertex 11 (isolated at first), repeats.
                    let (u, v) = (next(12) as NodeId, next(12) as NodeId);
                    if next(3) == 0 {
                        d.delete(u, v);
                    } else {
                        d.insert(u, v, 0.25 * (1 + next(8)) as f64);
                    }
                }
                dg.apply(&d);
                let spliced = dg.splice(&merged, &d);
                let want = dg.materialize();
                assert_eq!(arrays(&spliced), arrays(&want), "batch {batch}");
                assert_eq!(spliced.fingerprint(), want.fingerprint());
                merged = Arc::new(spliced);
                if batch % 16 == 15 {
                    let head = dg.chain_fingerprint();
                    dg.rebase(Arc::clone(&merged));
                    assert!(Arc::ptr_eq(dg.base(), &merged));
                    assert_eq!(dg.chain_fingerprint(), head);
                    assert_eq!(dg.pending_patches(), 0);
                    assert_eq!(dg.total(), merged.total_arc_weight());
                }
            }
        }
    }

    #[test]
    fn batch_arcs_name_every_arc_and_mirror() {
        let mut d = EdgeDelta::new();
        d.insert(3, 1, 1.0)
            .insert(2, 2, 1.0)
            .delete(1, 3)
            .delete(0, 4);
        assert_eq!(d.arcs(false), vec![(0, 4), (1, 3), (2, 2), (3, 1)]);
        assert_eq!(d.arcs(true), vec![(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_endpoint_panics() {
        let mut dg = DeltaGraph::new(diamond());
        let mut d = EdgeDelta::new();
        d.insert(0, 99, 1.0);
        dg.apply(&d);
    }
}
