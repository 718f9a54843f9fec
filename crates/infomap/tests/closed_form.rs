//! Absolute correctness anchors: graphs whose optimal two-level codelength
//! is derived in closed form here, from `x·log₂x` and the vertex degrees,
//! never through `MapState`. Multilevel Infomap must reach that value, and
//! on graphs of at most 10 vertices so must the exhaustive oracle, which
//! also certifies that the closed-form partition is the optimum.
//!
//! On an undirected graph with `m` unit-weight edges, vertex `α` is visited
//! at rate `d_α / 2m` and an edge carries `1 / 2m` each way, so
//!
//! ```text
//! L = plogp(q) − 2·Σ_i plogp(q_i) + Σ_i plogp(q_i + p_i) − Σ_α plogp(d_α / 2m)
//! ```
//!
//! with `q_i` a module's cut edges over `2m`, `q = Σ q_i` and `p_i` its
//! degree sum over `2m`.

use asa_graph::{CsrGraph, GraphBuilder};
use asa_infomap::exhaustive::exhaustive_best_partition;
use asa_infomap::{detect_communities, FlowNetwork, InfomapConfig};

fn plogp(x: f64) -> f64 {
    if x > 0.0 {
        x * x.log2()
    } else {
        0.0
    }
}

/// `cliques` disjoint `k`-cliques; clique `c` holds vertices
/// `c·k .. (c+1)·k`. With `ring`, vertex `c·k` of each clique links to the
/// last vertex of the next clique round a ring; without, only cliques 0
/// and 1 are joined, by the same kind of edge.
fn cliques(count: usize, k: usize, ring: bool) -> CsrGraph {
    let mut b = GraphBuilder::undirected(count * k);
    for c in 0..count {
        let base = (c * k) as u32;
        for u in 0..k as u32 {
            for v in u + 1..k as u32 {
                b.add_edge(base + u, base + v, 1.0);
            }
        }
    }
    let bridges = if ring { count } else { 1 };
    for c in 0..bridges {
        let next = (c + 1) % count;
        b.add_edge((c * k) as u32, (next * k + k - 1) as u32, 1.0);
    }
    b.build()
}

/// The closed-form codelength of the one-module-per-clique partition of
/// `cliques(count, k, ring)`. Each clique holds `k(k−1)/2` edges and has
/// one bridge endpoint per bridge it touches: two in a ring, one in each
/// of the two joined cliques otherwise.
fn clique_codelength(count: usize, k: usize, ring: bool) -> f64 {
    let (bridges, ends) = if ring { (count, 2) } else { (1, 1) };
    let two_m = (count * k * (k - 1) + 2 * bridges) as f64;
    let inner = (k - 1) as f64;
    let node_term = count as f64 * (k - ends) as f64 * plogp(inner / two_m)
        + (2 * bridges) as f64 * plogp(k as f64 / two_m);
    let q = ends as f64 / two_m;
    let p = (k * (k - 1) + ends) as f64 / two_m;
    let c = count as f64;
    plogp(c * q) - 2.0 * c * plogp(q) + c * plogp(q + p) - node_term
}

/// Runs both optimizers on `g` and checks each reaches `want` within
/// 1e-9 bits; the exhaustive oracle only on graphs of at most 10 vertices.
fn assert_reaches(g: &CsrGraph, want: f64, what: &str) {
    let cfg = InfomapConfig::default();
    let got = detect_communities(g, &cfg).codelength;
    assert!(
        (got - want).abs() < 1e-9,
        "{what}: multilevel {got} vs closed form {want}"
    );
    if g.num_nodes() <= 10 {
        let flow = FlowNetwork::from_graph(g, &cfg);
        let opt = exhaustive_best_partition(&flow, 10).codelength;
        assert!(
            (opt - want).abs() < 1e-9,
            "{what}: exhaustive {opt} vs closed form {want}"
        );
    }
}

#[test]
fn two_cliques_joined_by_one_edge() {
    for k in [3, 4, 5, 8, 20] {
        let g = cliques(2, k, false);
        assert_reaches(&g, clique_codelength(2, k, false), &format!("2 x K{k}"));
    }
}

#[test]
fn ring_of_cliques() {
    for (count, k) in [(3, 3), (4, 5), (12, 5), (30, 6), (16, 10)] {
        let g = cliques(count, k, true);
        assert_reaches(
            &g,
            clique_codelength(count, k, true),
            &format!("ring of {count} x K{k}"),
        );
    }
}
