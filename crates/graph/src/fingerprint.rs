//! Stable structural fingerprints for graphs.
//!
//! The serving layer keys its result cache by `(graph fingerprint, config
//! hash)`, so the fingerprint must be (a) deterministic across runs and
//! platforms, and (b) sensitive to anything that changes what Infomap
//! computes: node count, directedness, adjacency structure, and edge
//! weights. FNV-1a over the CSR arrays gives exactly that with no
//! dependencies — two graphs built from the same edge list always hash
//! identically (the builder canonicalizes adjacency order), while
//! relabelled/isomorphic graphs hash differently, which is correct for a
//! cache: Infomap's output labels differ too.
//!
//! The hash is O(arcs), so [`CsrGraph::fingerprint`] memoizes it on the
//! (immutable) graph: a graph is hashed once, however many requests name it.

use crate::csr::CsrGraph;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher over byte slices.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by its IEEE-754 bit pattern (exact, no rounding).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64-bit hash of a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a over the node count, directedness, and the out-adjacency CSR
/// arrays (offsets, targets, and weight bit patterns), one byte at a time:
/// the value [`CsrGraph::fingerprint`] memoizes. O(arcs).
pub(crate) fn hash_graph(graph: &CsrGraph) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(graph.num_nodes() as u64);
    h.write_u64(u64::from(graph.is_directed()));
    let (offsets, targets, weights) = graph.out_csr();
    for &o in offsets {
        h.write_u64(o);
    }
    for &t in targets {
        h.write_u64(u64::from(t));
    }
    for &w in weights {
        h.write_f64(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    const EDGES: &[(u32, u32)] = &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)];

    fn graph_from(edges: &[(u32, u32)], n: usize) -> CsrGraph {
        let mut b = GraphBuilder::undirected(n);
        for &(u, v) in edges {
            b.add_edge(u, v, 1.0);
        }
        b.build()
    }

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn identical_input_is_stable_across_builds() {
        let a = graph_from(EDGES, 6).fingerprint();
        let b = graph_from(EDGES, 6).fingerprint();
        assert_eq!(a, b);
        // Insertion order does not matter: the builder canonicalizes
        // adjacency, so the same edge *set* is the same graph.
        let mut shuffled: Vec<(u32, u32)> = EDGES.to_vec();
        shuffled.reverse();
        assert_eq!(a, graph_from(&shuffled, 6).fingerprint());
    }

    #[test]
    fn isomorphic_relabelling_changes_fingerprint() {
        // A star with a tail, relabelled by swapping vertices 0 and 1
        // (which is not an automorphism: the hub moves). The graphs are
        // isomorphic but the vertex identities — and hence Infomap's
        // output labels — differ, so the cache must treat them as distinct.
        let star: &[(u32, u32)] = &[(0, 1), (0, 2), (0, 3), (3, 4)];
        let swap = |u: u32| match u {
            0 => 1,
            1 => 0,
            u => u,
        };
        let relabelled: Vec<(u32, u32)> = star.iter().map(|&(u, v)| (swap(u), swap(v))).collect();
        let a = graph_from(star, 5).fingerprint();
        let b = graph_from(&relabelled, 5).fingerprint();
        assert_ne!(a, b);
    }

    #[test]
    fn weights_and_direction_matter() {
        let base = graph_from(EDGES, 6).fingerprint();

        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in EDGES {
            b.add_edge(u, v, 2.0);
        }
        assert_ne!(base, b.build().fingerprint());

        let mut d = GraphBuilder::directed(6);
        for &(u, v) in EDGES {
            d.add_edge(u, v, 1.0);
        }
        assert_ne!(base, d.build().fingerprint());

        // An extra isolated vertex changes the node count.
        assert_ne!(base, graph_from(EDGES, 7).fingerprint());
    }
}
