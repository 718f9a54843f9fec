//! Compressed sparse row (CSR) weighted graph.
//!
//! The paper's HyPC-Map substrate stores, for every vertex, its outgoing and
//! incoming weighted adjacency. `FindBestCommunity` (Algorithm 1) walks the
//! out-links to accumulate `outFlowToModules` and the in-links to accumulate
//! `inFlowFromModules`, so both directions must be cheap to iterate. A
//! directed graph stores two CSR structures sharing one node count: the
//! out-adjacency and its transpose. An undirected graph stores one: its rows
//! are symmetric, so the in-direction accessors return the out arrays (SNAP
//! keeps one neighbour vector per node for undirected graphs the same way).
//!
//! Every row is sorted by target with no repeated target. The one-pass flow
//! construction and the binary format both rely on it, so the checked
//! constructors reject arrays that break it.

use std::fmt;
use std::sync::OnceLock;

/// Vertex identifier. The paper's largest network (Orkut) has ~3M vertices, so
/// `u32` is sufficient and halves index memory versus `usize` (Rust
/// Performance Book, "Smaller Integers").
pub type NodeId = u32;

/// One adjacency direction as raw CSR arrays: `(offsets, targets, weights)`,
/// with `offsets.len() == num_nodes + 1`.
pub type CsrArrays = (Vec<u64>, Vec<NodeId>, Vec<f64>);

/// A single weighted edge endpoint as seen from a source vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// The neighbouring vertex.
    pub target: NodeId,
    /// Edge weight (accumulated over parallel edges at build time).
    pub weight: f64,
}

/// Direction of an adjacency query on a [`CsrGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges away from the vertex (`outLinks` in Algorithm 1).
    Out,
    /// Follow edges into the vertex (used for `inFlowFromModules`).
    In,
}

/// Why a set of CSR arrays does not describe a valid [`CsrGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrError(&'static str);

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for CsrError {}

/// One stored adjacency direction.
#[derive(Debug, Clone)]
struct Rows {
    /// Row offsets, length `num_nodes + 1`.
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
}

impl Rows {
    fn new((offsets, targets, weights): CsrArrays) -> Self {
        Self {
            offsets,
            targets,
            weights,
        }
    }

    #[inline]
    fn parts(&self) -> (&[u64], &[NodeId], &[f64]) {
        (&self.offsets, &self.targets, &self.weights)
    }
}

/// Immutable weighted graph in CSR form with both adjacency directions.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    num_nodes: u32,
    out: Rows,
    /// The transpose of `out`, stored for directed graphs only. `None`
    /// marks an undirected graph, whose in-rows are its out-rows.
    transpose: Option<Rows>,
    /// [`CsrGraph::fingerprint`], hashed from the arrays above on first
    /// use. Sound because no method mutates the graph; a clone copies the
    /// arrays and so may copy the value too.
    fingerprint: OnceLock<u64>,
}

impl CsrGraph {
    /// Assembles a graph from sorted, deduplicated adjacency arrays: a
    /// directed graph when `transpose` (its in-adjacency) is given, an
    /// undirected one with symmetric `out` rows otherwise.
    ///
    /// This is the low-level constructor; prefer [`crate::GraphBuilder`]
    /// unless you already hold valid CSR arrays.
    ///
    /// # Panics
    /// Panics where [`CsrGraph::try_from_csr_parts`] returns an error.
    pub fn from_csr_parts(num_nodes: u32, out: CsrArrays, transpose: Option<CsrArrays>) -> Self {
        Self::try_from_csr_parts(num_nodes, out, transpose).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CsrGraph::from_csr_parts`] that reports invalid arrays instead of
    /// panicking. Rejects offsets that do not run monotonically from 0 to
    /// the arc count, targets out of range, rows that are not strictly
    /// increasing, weights that are not finite and positive, weights whose
    /// total (which bounds every vertex strength) overflows `f64`, a
    /// `transpose` that is not the transpose of `out`, and undirected rows
    /// that are not symmetric (weights compared bit for bit).
    pub fn try_from_csr_parts(
        num_nodes: u32,
        out: CsrArrays,
        transpose: Option<CsrArrays>,
    ) -> Result<Self, CsrError> {
        check_parts(num_nodes, &out, transpose.as_ref())?;
        Ok(Self::from_sorted_parts(num_nodes, out, transpose))
    }

    /// An undirected graph from the upper triangle of its adjacency: row `u`
    /// holds the neighbours `v >= u`. The rows are checked like
    /// [`CsrGraph::try_from_csr_parts`] checks them, plus the triangle rule,
    /// and then mirrored with [`expand_upper_triangle`]; the result is
    /// symmetric by construction. The total weight is checked on the
    /// mirrored rows, where it is `2W`.
    pub(crate) fn try_from_upper_triangle(
        num_nodes: u32,
        upper: CsrArrays,
    ) -> Result<Self, CsrError> {
        check_rows(num_nodes, &upper, true)?;
        let (o, t, w) = &upper;
        let rows = expand_upper_triangle(o, t, w);
        check_total_weight(&rows.2)?;
        Ok(Self::from_sorted_parts(num_nodes, rows, None))
    }

    /// The constructor for arrays that are valid by construction (builder,
    /// delta materialization, renumbering); checked in debug builds only.
    pub(crate) fn from_sorted_parts(
        num_nodes: u32,
        out: CsrArrays,
        transpose: Option<CsrArrays>,
    ) -> Self {
        debug_assert_eq!(check_parts(num_nodes, &out, transpose.as_ref()), Ok(()));
        Self {
            num_nodes,
            out: Rows::new(out),
            transpose: transpose.map(Rows::new),
            fingerprint: OnceLock::new(),
        }
    }

    /// A stable 64-bit structural fingerprint: FNV-1a over the node count,
    /// directedness, and the out-adjacency CSR arrays (offsets, targets,
    /// and weight bit patterns). The in-adjacency is derived from the same
    /// edges, so hashing one direction covers both.
    ///
    /// Identical inputs fingerprint identically across runs and processes;
    /// any change to structure or weights — including relabelling the
    /// vertices of an isomorphic graph — changes the fingerprint.
    ///
    /// The hash is O(arcs) and runs once per graph: the value is memoized
    /// on first use, so later calls (on this graph or a clone of it) are a
    /// load. It is always computed from the arrays in memory, never read
    /// from a blob, so no input can claim another graph's identity.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::fingerprint::hash_graph(self))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of directed arcs stored in the out-adjacency. For an undirected
    /// graph each input edge contributes two arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out.targets.len()
    }

    /// Number of logical edges: arcs for directed graphs, arcs/2 for
    /// undirected graphs (self-loops, which appear once, are counted once).
    pub fn num_edges(&self) -> usize {
        if self.is_directed() {
            self.num_arcs()
        } else {
            let self_loops = (0..self.num_nodes)
                .map(|u| {
                    self.out_neighbors(u)
                        .iter()
                        .filter(|e| e.target == u)
                        .count()
                })
                .sum::<usize>();
            (self.num_arcs() - self_loops) / 2 + self_loops
        }
    }

    /// Whether the graph was built as directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.transpose.is_some()
    }

    /// The stored in-adjacency: the transpose, or the out rows themselves
    /// for an undirected graph.
    #[inline]
    fn in_rows(&self) -> &Rows {
        self.transpose.as_ref().unwrap_or(&self.out)
    }

    /// Out-degree of `u` (number of stored arcs, after weight-merging).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let (lo, hi) = range(&self.out.offsets, u);
        hi - lo
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        let (lo, hi) = range(&self.in_rows().offsets, u);
        hi - lo
    }

    /// Total degree used for the CAM-capacity study (Figure 5): the number of
    /// distinct accumulation keys touched when processing vertex `u`, which is
    /// bounded by out-degree + in-degree.
    #[inline]
    pub fn total_degree(&self, u: NodeId) -> usize {
        self.out_degree(u) + self.in_degree(u)
    }

    /// Iterates the out-neighbourhood of `u` as `(target, weight)` pairs.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> Neighbors<'_> {
        self.out.neighbors(u)
    }

    /// Iterates the in-neighbourhood of `u` as `(source, weight)` pairs.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> Neighbors<'_> {
        self.in_rows().neighbors(u)
    }

    /// Neighbourhood in a chosen [`Direction`].
    #[inline]
    pub fn neighbors(&self, u: NodeId, dir: Direction) -> Neighbors<'_> {
        match dir {
            Direction::Out => self.out_neighbors(u),
            Direction::In => self.in_neighbors(u),
        }
    }

    /// Weight of the arc `u → v`, if present (a binary search of `u`'s
    /// sorted row).
    pub fn arc_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let row = self.out_neighbors(u);
        let i = row.targets().binary_search(&v).ok()?;
        Some(row.weights()[i])
    }

    /// Sum of outgoing edge weights of `u` (the random walker's normalization
    /// denominator in the flow model).
    pub fn out_weight(&self, u: NodeId) -> f64 {
        self.out_neighbors(u).weights().iter().sum()
    }

    /// Sum of incoming edge weights of `u`.
    pub fn in_weight(&self, u: NodeId) -> f64 {
        self.in_neighbors(u).weights().iter().sum()
    }

    /// Total weight over all stored arcs.
    pub fn total_arc_weight(&self) -> f64 {
        self.out.weights.iter().sum()
    }

    /// Vertices with no outgoing links (dangling nodes). PageRank must
    /// redistribute their rank mass via teleportation.
    pub fn dangling_nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes)
            .filter(|&u| self.out_degree(u) == 0)
            .collect()
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes
    }

    /// All arcs as `(source, target, weight)` triples, in CSR order.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |u| {
            self.out_neighbors(u)
                .iter()
                .map(move |e| (u, e.target, e.weight))
        })
    }

    /// Raw CSR arrays `(offsets, targets, weights)` of the out-adjacency.
    /// Advanced API for serialization and zero-copy analysis.
    pub fn out_csr(&self) -> (&[u64], &[NodeId], &[f64]) {
        self.out.parts()
    }

    /// Raw CSR arrays of the in-adjacency: the same arrays as
    /// [`CsrGraph::out_csr`] for an undirected graph.
    pub fn in_csr(&self) -> (&[u64], &[NodeId], &[f64]) {
        self.in_rows().parts()
    }
}

impl Rows {
    #[inline]
    fn neighbors(&self, u: NodeId) -> Neighbors<'_> {
        let (lo, hi) = range(&self.offsets, u);
        Neighbors {
            targets: &self.targets[lo..hi],
            weights: &self.weights[lo..hi],
        }
    }
}

#[inline]
fn range(offsets: &[u64], u: NodeId) -> (usize, usize) {
    let u = u as usize;
    (offsets[u] as usize, offsets[u + 1] as usize)
}

/// Checks one CSR direction: offsets run monotonically from 0 to the arc
/// count, every target is in range, rows are strictly increasing, weights
/// are finite and positive, and (for `upper`) no target lies below its row.
fn check_rows(
    num_nodes: u32,
    (offsets, targets, weights): &CsrArrays,
    upper: bool,
) -> Result<(), CsrError> {
    let fail = |why| Err(CsrError(why));
    if offsets.len() != num_nodes as usize + 1 {
        return fail("offset array must have num_nodes + 1 entries");
    }
    if offsets[0] != 0 {
        return fail("offsets must start at 0");
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return fail("offsets must be monotone");
    }
    if offsets[num_nodes as usize] != targets.len() as u64 {
        return fail("offsets must end at the arc count");
    }
    if targets.len() != weights.len() {
        return fail("targets and weights must have equal length");
    }
    if !weights.iter().all(|&w| w.is_finite() && w > 0.0) {
        return fail("edge weight must be finite and positive");
    }
    // An upper triangle holds only half of `2W`; its caller checks the
    // mirrored rows.
    if !upper {
        check_total_weight(weights)?;
    }
    for u in 0..num_nodes {
        let (lo, hi) = range(offsets, u);
        let row = &targets[lo..hi];
        if row.last().is_some_and(|&t| t >= num_nodes) {
            return fail("edge target out of range");
        }
        if row.windows(2).any(|w| w[0] >= w[1]) {
            return fail("row targets must be strictly increasing");
        }
        if upper && row.first().is_some_and(|&t| t < u) {
            return fail("upper-triangle row holds a target below its row");
        }
    }
    Ok(())
}

/// Checks that positive weights sum to a finite total, summed in arc order
/// as [`CsrGraph::total_arc_weight`] sums them (`2W` for an undirected
/// graph). Rounding is monotone, so a sequential sum over any row, or one
/// merged weight, never exceeds the sequential sum over all rows: a finite
/// total bounds every vertex strength and every weight too.
pub(crate) fn check_total_weight(weights: &[f64]) -> Result<(), CsrError> {
    if weights.iter().sum::<f64>().is_finite() {
        Ok(())
    } else {
        Err(WEIGHT_OVERFLOW)
    }
}

/// The error of a total edge weight past `f64::MAX`.
pub(crate) const WEIGHT_OVERFLOW: CsrError = CsrError("total edge weight overflows f64");

/// The checks of [`CsrGraph::try_from_csr_parts`].
fn check_parts(
    num_nodes: u32,
    out: &CsrArrays,
    transpose: Option<&CsrArrays>,
) -> Result<(), CsrError> {
    check_rows(num_nodes, out, false)?;
    match transpose {
        Some(t) => {
            check_rows(num_nodes, t, false)?;
            check_transpose(
                out,
                t,
                "in-adjacency must be the transpose of the out-adjacency",
            )
        }
        None => check_transpose(out, out, "undirected adjacency must be symmetric"),
    }
}

/// Checks that `t` is the transpose of `a` (weights compared bit for bit),
/// failing with `why`; with `t == a` this checks that undirected rows are
/// symmetric. Both must have passed [`check_rows`]. O(arcs): visiting
/// sources in ascending order meets each transposed row's entries in its
/// own sorted order, so one cursor per row suffices.
fn check_transpose(a: &CsrArrays, t: &CsrArrays, why: &'static str) -> Result<(), CsrError> {
    let (ao, at, aw) = a;
    let (to, tt, tw) = t;
    if at.len() != tt.len() {
        return Err(CsrError(why));
    }
    let mut cursor: Vec<u64> = to[..to.len() - 1].to_vec();
    for u in 0..ao.len() - 1 {
        let (lo, hi) = range(ao, u as NodeId);
        for (&v, &w) in at[lo..hi].iter().zip(&aw[lo..hi]) {
            let c = &mut cursor[v as usize];
            let i = *c as usize;
            if *c >= to[v as usize + 1] || tt[i] as usize != u || tw[i].to_bits() != w.to_bits() {
                return Err(CsrError(why));
            }
            *c += 1;
        }
    }
    Ok(())
}

/// Mirrors sorted rows. With `upper` false this is the transpose: row `v`
/// lists every source `u` with an arc `u→v`, ascending. With `upper` true
/// the input is the upper triangle of a symmetric adjacency (row `u` holds
/// targets `>= u`), and row `v` of the result is its lower sources
/// ascending followed by its own upper row — the full symmetric rows. A
/// diagonal entry is kept once. One counting pass; no row is re-sorted.
fn mirror_rows(offsets: &[u64], targets: &[NodeId], weights: &[f64], upper: bool) -> CsrArrays {
    let n = offsets.len() - 1;
    let mirrored = |u: usize, v: NodeId| !upper || v as usize != u;
    let mut cursor = vec![0u64; n];
    for u in 0..n {
        let (lo, hi) = range(offsets, u as NodeId);
        for &v in &targets[lo..hi] {
            if mirrored(u, v) {
                cursor[v as usize] += 1;
            }
        }
    }
    let mut new_offsets = Vec::with_capacity(n + 1);
    new_offsets.push(0u64);
    for v in 0..n {
        let own = if upper {
            offsets[v + 1] - offsets[v]
        } else {
            0
        };
        let start = new_offsets[v];
        new_offsets.push(start + cursor[v] + own);
        cursor[v] = start;
    }
    let len = new_offsets[n] as usize;
    let mut new_targets = vec![0 as NodeId; len];
    let mut new_weights = vec![0.0; len];
    for u in 0..n {
        let (lo, hi) = range(offsets, u as NodeId);
        if upper {
            // Every lower source of `u` precedes it and is placed, so the
            // cursor sits where the row's upper part begins.
            let at = cursor[u] as usize;
            new_targets[at..at + hi - lo].copy_from_slice(&targets[lo..hi]);
            new_weights[at..at + hi - lo].copy_from_slice(&weights[lo..hi]);
        }
        for (&v, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
            if mirrored(u, v) {
                let slot = &mut cursor[v as usize];
                new_targets[*slot as usize] = u as NodeId;
                new_weights[*slot as usize] = w;
                *slot += 1;
            }
        }
    }
    (new_offsets, new_targets, new_weights)
}

/// The transpose of sorted CSR rows, with sorted rows: one counting pass,
/// no row is re-sorted. The graph builder builds a directed graph's
/// in-rows through it, and the flow network its directed in-rows.
pub fn transpose(offsets: &[u64], targets: &[NodeId], weights: &[f64]) -> CsrArrays {
    mirror_rows(offsets, targets, weights, false)
}

/// Expands the upper triangle of a symmetric adjacency (row `u` holds its
/// sorted targets `>= u`) into full symmetric rows, each sorted: row `v` is
/// its lower sources ascending, then its upper row. The graph builder and
/// the binary reader build undirected graphs through it, and the flow
/// network's coarsening builds symmetric super-arc rows through it.
pub fn expand_upper_triangle(offsets: &[u64], targets: &[NodeId], weights: &[f64]) -> CsrArrays {
    mirror_rows(offsets, targets, weights, true)
}

/// Sorted CSR rows rewritten by sorted arc patches: each patch `(u, v, w)`
/// sets the entry `v` of row `u` to `w`, or removes it when `w` is
/// `None`. Patches must be sorted by `(u, v)`, one per arc. Every entry no
/// patch names keeps its target and takes `value(weight)`; the spans of
/// rows between patched rows are copied whole, their offsets shifted by
/// the running change in length. Delta materialization and the
/// incremental flow update rewrite their rows through it.
pub fn splice_rows(
    (offsets, targets, weights): (&[u64], &[NodeId], &[f64]),
    patches: impl IntoIterator<Item = (NodeId, NodeId, Option<f64>)>,
    value: impl Fn(f64) -> f64,
) -> CsrArrays {
    let n = offsets.len() - 1;
    let mut patches = patches.into_iter().peekable();
    // Room for every patch to insert, so the arrays never reallocate.
    let len = targets.len() + patches.size_hint().0;
    let mut new_offsets = Vec::with_capacity(n + 1);
    let mut new_targets = Vec::with_capacity(len);
    let mut new_weights = Vec::with_capacity(len);
    new_offsets.push(0u64);
    let mut row = 0;
    loop {
        // Rows `row..next` carry no patch: one copy for all of them.
        let next = patches.peek().map_or(n, |&(u, _, _)| u as usize);
        let (lo, hi) = (offsets[row], offsets[next]);
        let at = new_targets.len() as u64;
        new_offsets.extend(offsets[row + 1..=next].iter().map(|&x| x - lo + at));
        new_targets.extend_from_slice(&targets[lo as usize..hi as usize]);
        new_weights.extend(weights[lo as usize..hi as usize].iter().map(|&x| value(x)));
        if next == n {
            return (new_offsets, new_targets, new_weights);
        }
        let (mut i, hi) = range(offsets, next as NodeId);
        while let Some((_, v, patch)) = patches.next_if(|&(u, _, _)| u as usize == next) {
            while i < hi && targets[i] < v {
                new_targets.push(targets[i]);
                new_weights.push(value(weights[i]));
                i += 1;
            }
            if i < hi && targets[i] == v {
                i += 1;
            }
            if let Some(w) = patch {
                new_targets.push(v);
                new_weights.push(w);
            }
        }
        new_targets.extend_from_slice(&targets[i..hi]);
        new_weights.extend(weights[i..hi].iter().map(|&x| value(x)));
        new_offsets.push(new_targets.len() as u64);
        row = next + 1;
    }
}

/// Borrowed view of one vertex's adjacency.
#[derive(Debug, Clone, Copy)]
pub struct Neighbors<'g> {
    targets: &'g [NodeId],
    weights: &'g [f64],
}

impl<'g> Neighbors<'g> {
    /// Number of neighbours in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when the vertex has no neighbours in this direction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The neighbour ids.
    #[inline]
    pub fn targets(&self) -> &'g [NodeId] {
        self.targets
    }

    /// The matching edge weights.
    #[inline]
    pub fn weights(&self) -> &'g [f64] {
        self.weights
    }

    /// Iterate as [`EdgeRef`]s.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = EdgeRef> + 'g {
        self.targets
            .iter()
            .zip(self.weights.iter())
            .map(|(&target, &weight)| EdgeRef { target, weight })
    }
}

impl<'g> IntoIterator for Neighbors<'g> {
    type Item = EdgeRef;
    type IntoIter = NeighborsIter<'g>;

    fn into_iter(self) -> Self::IntoIter {
        NeighborsIter { view: self, pos: 0 }
    }
}

/// Owning iterator over a [`Neighbors`] view.
pub struct NeighborsIter<'g> {
    view: Neighbors<'g>,
    pos: usize,
}

impl<'g> Iterator for NeighborsIter<'g> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<EdgeRef> {
        if self.pos < self.view.len() {
            let e = EdgeRef {
                target: self.view.targets[self.pos],
                weight: self.view.weights[self.pos],
            };
            self.pos += 1;
            Some(e)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.view.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'g> ExactSizeIterator for NeighborsIter<'g> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 0, 3.0);
        b.build()
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert!(!g.is_directed());
        for u in 0..3 {
            assert_eq!(g.out_degree(u), 2);
            assert_eq!(g.in_degree(u), 2);
            assert_eq!(g.total_degree(u), 4);
        }
    }

    #[test]
    fn weights_symmetric_for_undirected() {
        let g = triangle();
        let w01: f64 = g
            .out_neighbors(0)
            .iter()
            .find(|e| e.target == 1)
            .unwrap()
            .weight;
        let w10: f64 = g
            .out_neighbors(1)
            .iter()
            .find(|e| e.target == 0)
            .unwrap()
            .weight;
        assert_eq!(w01, w10);
        assert_eq!(w01, 1.0);
    }

    #[test]
    fn directed_in_out_distinct() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        let g = b.build();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.out_degree(1), 0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn dangling_nodes_found() {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        assert_eq!(g.dangling_nodes(), vec![2, 3]);
    }

    #[test]
    fn arc_iteration_covers_all() {
        let g = triangle();
        let total: f64 = g.arcs().map(|(_, _, w)| w).sum();
        assert!((total - 2.0 * (1.0 + 2.0 + 3.0)).abs() < 1e-12);
        assert_eq!(g.arcs().count(), 6);
    }

    #[test]
    fn out_weight_sums() {
        let g = triangle();
        assert!((g.out_weight(0) - 4.0).abs() < 1e-12);
        assert!((g.in_weight(0) - 4.0).abs() < 1e-12);
        assert!((g.total_arc_weight() - 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "edge target out of range")]
    fn invalid_target_rejected() {
        CsrGraph::from_csr_parts(
            1,
            (vec![0, 1], vec![5], vec![1.0]),
            Some((vec![0, 0], vec![], vec![])),
        );
    }

    #[test]
    fn invalid_parts_return_typed_errors() {
        let err = |out: CsrArrays, transpose: Option<CsrArrays>| {
            CsrGraph::try_from_csr_parts(3, out, transpose)
                .unwrap_err()
                .to_string()
        };
        let empty = || (vec![0, 0, 0, 0], vec![], vec![]);
        assert!(err((vec![0, 2, 1, 2], vec![1, 2], vec![1.0; 2]), None).contains("monotone"));
        assert!(
            err((vec![0, 2, 2, 2], vec![2, 1], vec![1.0; 2]), Some(empty()))
                .contains("strictly increasing")
        );
        assert!(
            err((vec![0, 2, 2, 2], vec![1, 1], vec![1.0; 2]), Some(empty()))
                .contains("strictly increasing")
        );
        assert!(
            err((vec![0, 1, 1, 1], vec![1], vec![f64::NAN]), Some(empty()))
                .contains("finite and positive")
        );
        // 0→1 without 1→0: not symmetric, and not matched by an empty
        // transpose.
        assert!(err((vec![0, 1, 1, 1], vec![1], vec![1.0]), None).contains("symmetric"));
        assert!(err((vec![0, 1, 1, 1], vec![1], vec![1.0]), Some(empty())).contains("transpose"));
        // Symmetric targets, asymmetric weight bits.
        assert!(err((vec![0, 1, 2, 2], vec![1, 0], vec![1.0, 2.0]), None).contains("symmetric"));
        let upper = CsrGraph::try_from_upper_triangle(3, (vec![0, 0, 1, 1], vec![0], vec![1.0]));
        assert!(upper.unwrap_err().to_string().contains("below its row"));
        // Finite weights whose total is not: out-strength of 0 past
        // `f64::MAX`, then an undirected `2W` past it.
        let big = f64::MAX / 1.5;
        let t = (vec![0, 0, 1, 2], vec![0, 0], vec![big, big]);
        assert!(err((vec![0, 2, 2, 2], vec![1, 2], vec![big; 2]), Some(t)).contains("overflows"));
        assert!(err((vec![0, 1, 2, 2], vec![1, 0], vec![big; 2]), None).contains("overflows"));
        let upper = CsrGraph::try_from_upper_triangle(3, (vec![0, 1, 1, 1], vec![1], vec![big]));
        assert!(upper.unwrap_err().to_string().contains("overflows"));
    }

    #[test]
    fn undirected_in_direction_is_the_out_rows() {
        let g = triangle();
        assert!(std::ptr::eq(g.in_csr().1, g.out_csr().1));
        let parts = |g: &CsrGraph| {
            let (o, t, w) = g.out_csr();
            (o.to_vec(), t.to_vec(), w.to_vec())
        };
        let again = CsrGraph::from_csr_parts(3, parts(&g), None);
        assert_eq!(
            again.arcs().collect::<Vec<_>>(),
            g.arcs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn splice_rewrites_patched_rows_and_maps_the_rest() {
        // Rows: 0 → {1, 3}, 1 → {}, 2 → {0}, 3 → {2, 3}.
        let rows = (
            vec![0, 2, 2, 3, 5],
            vec![1, 3, 0, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        );
        let patches = [
            (0, 0, Some(9.0)), // insert before every entry
            (0, 3, None),      // delete the row's last entry
            (1, 2, Some(8.0)), // insert into an empty row
            (2, 3, Some(7.0)), // insert after every entry
        ];
        let (o, t, w) = splice_rows((&rows.0, &rows.1, &rows.2), patches, |x| 10.0 * x);
        assert_eq!(o, vec![0, 2, 3, 5, 7]);
        assert_eq!(t, vec![0, 1, 2, 0, 3, 2, 3]);
        assert_eq!(w, vec![9.0, 10.0, 8.0, 30.0, 7.0, 40.0, 50.0]);
        // No patch: every row is copied, every weight mapped.
        let (o, t, w) = splice_rows((&rows.0, &rows.1, &rows.2), [], |x| x);
        assert_eq!((o, t, w), rows);
    }

    #[test]
    fn upper_triangle_expands_to_sorted_symmetric_rows() {
        // Upper rows of the triangle plus a self-loop on 1.
        let (o, t, w) = expand_upper_triangle(&[0, 2, 4, 4], &[1, 2, 1, 2], &[1.0, 3.0, 5.0, 2.0]);
        assert_eq!(o, vec![0, 2, 5, 7]);
        assert_eq!(t, vec![1, 2, 0, 1, 2, 0, 1]);
        assert_eq!(w, vec![1.0, 3.0, 1.0, 5.0, 2.0, 3.0, 2.0]);
    }

    #[test]
    fn fingerprint_is_hashed_once_and_cloned_with_the_graph() {
        let g = triangle();
        assert_eq!(g.fingerprint.get(), None);
        let fp = g.fingerprint();
        assert_eq!(g.fingerprint.get(), Some(&fp));
        let copy = g.clone();
        assert_eq!(copy.fingerprint.get(), Some(&fp));
        assert_eq!(copy.fingerprint(), fp);
    }

    #[test]
    fn exact_size_iterator() {
        let g = triangle();
        let it = g.out_neighbors(0).into_iter();
        assert_eq!(it.len(), 2);
        assert_eq!(it.count(), 2);
    }

    #[test]
    fn self_loop_counted_once() {
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }
}
