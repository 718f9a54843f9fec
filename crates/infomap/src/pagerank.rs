//! PageRank kernel: ergodic vertex visit probabilities.
//!
//! "This kernel computes the ergodic vertex visit probability (PageRank)
//! for all of the vertices taking teleportation into account. The PageRank
//! is computed using the power iteration method." (Section II-C.)

use asa_graph::CsrGraph;
use rayon::prelude::*;

/// Result of the power iteration.
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Visit probability per vertex; sums to 1.
    pub rank: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final L1 change.
    pub residual: f64,
}

/// Vertex blocks per power iteration (the last may be shorter). A block
/// adds its residual and dangling terms in vertex order, and the block
/// sums are added in block order, so the association depends on `n`
/// alone, never on the thread count.
const BLOCKS: usize = 256;

/// Weighted PageRank with teleportation `tau`, dangling-mass
/// redistribution, run until the L1 residual drops below `tol` or
/// `max_iters` is hit. Parallelized with rayon (the paper's HyPC-Map uses
/// the OpenMP equivalent): each iteration is one parallel pass over fixed
/// vertex blocks, which pulls the block's ranks and returns its share of
/// the residual and of the next iteration's dangling mass.
pub fn pagerank(graph: &CsrGraph, tau: f64, tol: f64, max_iters: usize) -> PageRank {
    assert!((0.0..1.0).contains(&tau), "teleport must be in [0,1)");
    let n = graph.num_nodes();
    if n == 0 {
        return PageRank {
            rank: Vec::new(),
            iterations: 0,
            residual: 0.0,
        };
    }

    // Precompute inverse out-strengths.
    let inv_strength: Vec<f64> = (0..n as u32)
        .into_par_iter()
        .map(|u| {
            let s = graph.out_weight(u);
            if s > 0.0 {
                1.0 / s
            } else {
                0.0
            }
        })
        .collect();

    // The dangling vertices grouped by block: block `b`'s are
    // `dangling[dangling_at[b]..dangling_at[b + 1]]`, ascending.
    let block = n.div_ceil(BLOCKS);
    let blocks = n.div_ceil(block);
    let dangling = graph.dangling_nodes();
    let mut dangling_at = vec![0usize; blocks + 1];
    for &d in &dangling {
        dangling_at[d as usize / block + 1] += 1;
    }
    for b in 0..blocks {
        dangling_at[b + 1] += dangling_at[b];
    }
    let dangling_of = |b: usize| &dangling[dangling_at[b]..dangling_at[b + 1]];

    let (in_offsets, in_sources, in_weights) = graph.in_csr();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let uniform = 1.0 / n as f64;

    // Dangling mass teleports uniformly.
    let mut dangling_mass: f64 = (0..blocks)
        .map(|b| {
            dangling_of(b)
                .iter()
                .map(|&d| rank[d as usize])
                .sum::<f64>()
        })
        .sum();
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    while iterations < max_iters && residual > tol {
        // Pull formulation: next[v] from v's in-neighbours. Embarrassingly
        // parallel and deterministic (no atomics, fixed reduction order per
        // vertex).
        let base = tau * uniform + (1.0 - tau) * dangling_mass * uniform;
        let prev = &rank;
        let sums: Vec<(f64, f64)> = next
            .par_chunks_mut(block)
            .enumerate()
            .map(|(b, out)| {
                let lo = b * block;
                let block_residual = (out.iter_mut().enumerate())
                    .map(|(i, slot)| {
                        let v = lo + i;
                        let (a, z) = (in_offsets[v] as usize, in_offsets[v + 1] as usize);
                        let mut acc = 0.0;
                        for (&u, &w) in in_sources[a..z].iter().zip(&in_weights[a..z]) {
                            acc += prev[u as usize] * w * inv_strength[u as usize];
                        }
                        *slot = base + (1.0 - tau) * acc;
                        (prev[v] - *slot).abs()
                    })
                    .sum::<f64>();
                let block_dangling = (dangling_of(b).iter())
                    .map(|&d| out[d as usize - lo])
                    .sum::<f64>();
                (block_residual, block_dangling)
            })
            .collect();
        residual = sums.iter().map(|s| s.0).sum();
        dangling_mass = sums.iter().map(|s| s.1).sum();
        std::mem::swap(&mut rank, &mut next);
        iterations += 1;
    }

    PageRank {
        rank,
        iterations,
        residual,
    }
}

/// The visit rate [`undirected_stationary`] gives each isolated vertex.
/// The other vertices share `1 − ISOLATED_FLOW · isolated` in proportion
/// to their strength.
pub const ISOLATED_FLOW: f64 = 1e-12;

/// Analytic stationary distribution for undirected graphs: visit rates are
/// proportional to vertex strength, no iteration needed. Isolated vertices
/// receive the residual teleport-uniform mass.
pub fn undirected_stationary(graph: &CsrGraph) -> Vec<f64> {
    let n = graph.num_nodes();
    let total: f64 = graph.total_arc_weight();
    if total == 0.0 {
        return vec![if n > 0 { 1.0 / n as f64 } else { 0.0 }; n];
    }
    let isolated = graph.nodes().filter(|&u| graph.out_degree(u) == 0).count();
    if isolated == 0 {
        (0..n as u32).map(|u| graph.out_weight(u) / total).collect()
    } else {
        // Give isolated vertices a tiny uniform share so node flows stay a
        // probability distribution.
        let eps = ISOLATED_FLOW;
        let iso_mass = eps * isolated as f64;
        (0..n as u32)
            .map(|u| {
                if graph.out_degree(u) == 0 {
                    eps
                } else {
                    graph.out_weight(u) / total * (1.0 - iso_mass)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asa_graph::GraphBuilder;

    fn assert_prob_dist(p: &[f64]) {
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sums to {sum}");
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn cycle_is_uniform() {
        let mut b = GraphBuilder::directed(4);
        for u in 0..4u32 {
            b.add_edge(u, (u + 1) % 4, 1.0);
        }
        let g = b.build();
        let pr = pagerank(&g, 0.15, 1e-12, 500);
        assert_prob_dist(&pr.rank);
        for &r in &pr.rank {
            assert!((r - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn hub_attracts_rank() {
        // Star pointing at the centre.
        let mut b = GraphBuilder::directed(5);
        for u in 1..5u32 {
            b.add_edge(u, 0, 1.0);
        }
        let g = b.build();
        let pr = pagerank(&g, 0.15, 1e-12, 500);
        assert_prob_dist(&pr.rank);
        assert!(pr.rank[0] > 3.0 * pr.rank[1]);
    }

    #[test]
    fn dangling_mass_recycles() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0); // 2 is dangling
        let g = b.build();
        let pr = pagerank(&g, 0.15, 1e-12, 500);
        assert_prob_dist(&pr.rank);
        assert!(pr.rank[2] > 0.0);
    }

    #[test]
    fn weights_matter() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1, 9.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 0, 1.0);
        b.add_edge(2, 0, 1.0);
        let g = b.build();
        let pr = pagerank(&g, 0.15, 1e-12, 500);
        assert!(pr.rank[1] > 2.0 * pr.rank[2]);
    }

    /// The three-pass power iteration the blocked loop replaced: a
    /// dangling-mass scan, the pull, and the residual, each its own
    /// parallel call with rayon's length-only block split.
    fn three_pass(graph: &CsrGraph, tau: f64, tol: f64, max_iters: usize) -> PageRank {
        let n = graph.num_nodes();
        let inv_strength: Vec<f64> = (0..n as u32)
            .map(|u| {
                let s = graph.out_weight(u);
                if s > 0.0 {
                    1.0 / s
                } else {
                    0.0
                }
            })
            .collect();
        let mut rank = vec![1.0 / n as f64; n];
        let mut next = vec![0.0f64; n];
        let uniform = 1.0 / n as f64;
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        while iterations < max_iters && residual > tol {
            let dangling_mass: f64 = (0..n as u32)
                .into_par_iter()
                .filter(|&u| graph.out_degree(u) == 0)
                .map(|u| rank[u as usize])
                .sum();
            let base = tau * uniform + (1.0 - tau) * dangling_mass * uniform;
            next.par_iter_mut().enumerate().for_each(|(v, slot)| {
                let mut acc = 0.0;
                for e in graph.in_neighbors(v as u32).iter() {
                    acc += rank[e.target as usize] * e.weight * inv_strength[e.target as usize];
                }
                *slot = base + (1.0 - tau) * acc;
            });
            residual = rank
                .par_iter()
                .zip(next.par_iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            std::mem::swap(&mut rank, &mut next);
            iterations += 1;
        }
        PageRank {
            rank,
            iterations,
            residual,
        }
    }

    /// A random directed graph on `n` vertices: about `deg` arcs per
    /// source, weights `1..=9` when `weighted`, and every vertex in
    /// `dangling` left without out-arcs.
    fn random_digraph(
        n: usize,
        deg: usize,
        weighted: bool,
        dangling: impl Fn(u32) -> bool,
        seed: u64,
    ) -> CsrGraph {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut b = GraphBuilder::directed(n);
        for u in (0..n as u32).filter(|&u| !dangling(u)) {
            for _ in 0..deg {
                let r = next();
                let w = if weighted { (r >> 40) % 9 + 1 } else { 1 };
                b.add_edge(u, (r % n as u64) as u32, w as f64);
            }
        }
        b.build()
    }

    fn assert_pinned(g: &CsrGraph, what: &str) {
        for threads in [1, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for (tol, cap) in [(1e-12, 200), (1e-3, 200), (0.0, 7)] {
                let (got, want) =
                    pool.install(|| (pagerank(g, 0.15, tol, cap), three_pass(g, 0.15, tol, cap)));
                let ctx = format!("{what}, {threads} threads, tol {tol}, cap {cap}");
                assert_eq!(got.iterations, want.iterations, "{ctx}");
                assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "{ctx}");
                let bits = |p: &PageRank| p.rank.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{ctx}");
            }
        }
    }

    #[test]
    fn blocked_pass_matches_three_pass_loop_bit_for_bit() {
        // n below one vertex per block, one past 256, and multiples of 256.
        for (n, seed) in [(1, 1), (5, 2), (200, 3), (257, 4), (512, 5), (2560, 6)] {
            let g = random_digraph(n, 4, false, |u| u % 11 == 3, seed);
            assert_pinned(&g, &format!("n {n}"));
        }
        // Blocks of 10: the first two blocks hold only dangling vertices.
        let g = random_digraph(2560, 3, true, |u| u < 20, 7);
        assert_pinned(&g, "dangling-only blocks");
        // No dangling vertex at all (every source keeps its arcs).
        let g = random_digraph(1000, 3, true, |_| false, 8);
        assert!(g.dangling_nodes().is_empty());
        assert_pinned(&g, "no dangling");
        // Non-unit weights with scattered dangling vertices.
        let g = random_digraph(777, 5, true, |u| u % 7 == 0, 9);
        assert_pinned(&g, "weighted");
    }

    #[test]
    fn undirected_matches_strength() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 3.0);
        let g = b.build();
        let p = undirected_stationary(&g);
        assert_prob_dist(&p);
        // strengths: 1, 4, 3 of total arc weight 8.
        assert!((p[0] - 1.0 / 8.0).abs() < 1e-12);
        assert!((p[1] - 4.0 / 8.0).abs() < 1e-12);
        assert!((p[2] - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_stationary_is_pagerank_fixed_point_without_teleport() {
        let mut b = GraphBuilder::undirected(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 0, 1.0);
        let g = b.build();
        let analytic = undirected_stationary(&g);
        let pr = pagerank(&g, 0.0, 1e-14, 2000);
        for (a, b) in analytic.iter().zip(pr.rank.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
