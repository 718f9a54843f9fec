//! Seeded input generators. Every input a workload hands the program is
//! derived from the `--seed` argument through [`derive`], so one seed
//! always yields the same graphs, deltas and request schedules.

use asa_graph::generators::{lfr_benchmark, LfrConfig, NetworkSpec, PaperNetwork};
use asa_graph::{CsrGraph, EdgeDelta, GraphBuilder, NodeId, Partition};

/// SplitMix64 finalizer: decorrelates nearby seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The generator seed for input `tag` under benchmark seed `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ tag)
}

/// Deterministic xorshift64* stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // xorshift has an all-zero fixed point.
        Rng(splitmix64(seed) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

/// A stand-in for one of the paper's networks at `scale_div`, with the
/// generator seed taken from the benchmark seed instead of the fixed
/// per-network one.
pub fn paper_network(network: PaperNetwork, scale_div: usize, seed: u64) -> (CsrGraph, Partition) {
    NetworkSpec {
        seed,
        ..NetworkSpec::new(network, scale_div)
    }
    .generate()
}

/// An LFR graph with the default mixing and degree parameters.
pub fn lfr(n: usize, seed: u64) -> (CsrGraph, Partition) {
    let g = lfr_benchmark(
        &LfrConfig {
            n,
            ..LfrConfig::default()
        },
        seed,
    );
    (g.graph, g.ground_truth)
}

/// A directed web crawl: `sites` sites of `pages` pages each. A page is
/// dangling (no out-links) with probability 1/20; otherwise it links to
/// 3–9 pages, each inside its own site with probability 17/20 and anywhere
/// otherwise. Returns the graph and the site partition.
pub fn web_graph(sites: usize, pages: usize, seed: u64) -> (CsrGraph, Partition) {
    let n = sites * pages;
    let mut rng = Rng::new(seed);
    let mut b = GraphBuilder::directed(n).drop_self_loops(true);
    b.reserve(n * 6);
    for u in 0..n {
        if rng.chance(1, 20) {
            continue;
        }
        let site = u / pages;
        for _ in 0..3 + rng.below(7) {
            let v = if rng.chance(17, 20) {
                site * pages + rng.below(pages)
            } else {
                rng.below(n)
            };
            b.add_edge(u as NodeId, v as NodeId, 1.0);
        }
    }
    let sites = Partition::from_labels((0..n).map(|u| (u / pages) as u32).collect());
    (b.build(), sites)
}

/// The members of the two largest communities of `truth`: the churn
/// hotspot update streams skew toward.
pub fn hot_members(truth: &Partition) -> Vec<NodeId> {
    let sizes = truth.community_sizes();
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_unstable_by_key(|&c| (std::cmp::Reverse(sizes[c]), c));
    let hot: Vec<u32> = order.into_iter().take(2).map(|c| c as u32).collect();
    (0..truth.len() as NodeId)
        .filter(|&u| hot.contains(&truth.community_of(u)))
        .collect()
}

/// One edit batch over `graph`: about 3:1 inserts to deletes, 4 in 5
/// edits between `hot` vertices. Deletes pick an arc `graph` holds, so
/// against the live graph they remove weight.
pub fn make_delta(rng: &mut Rng, graph: &CsrGraph, hot: &[NodeId], edits: usize) -> EdgeDelta {
    let n = graph.num_nodes();
    let (offsets, targets, _) = graph.out_csr();
    let mut delta = EdgeDelta::new();
    for _ in 0..edits {
        let in_hot = rng.chance(4, 5);
        let insert = rng.chance(3, 4);
        let mut pick = || -> NodeId {
            if in_hot {
                hot[rng.below(hot.len())]
            } else {
                rng.below(n) as NodeId
            }
        };
        let u = pick();
        if insert {
            let v = pick();
            if u != v {
                delta.insert(u, v, 1.0);
            }
        } else {
            let (lo, hi) = (
                offsets[u as usize] as usize,
                offsets[u as usize + 1] as usize,
            );
            if lo < hi {
                let v = targets[lo + rng.below(hi - lo)];
                if u != v {
                    delta.delete(u, v);
                }
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        let a = web_graph(40, 25, derive(7, 2)).0.fingerprint();
        assert_eq!(a, web_graph(40, 25, derive(7, 2)).0.fingerprint());
        assert_ne!(a, web_graph(40, 25, derive(8, 2)).0.fingerprint());

        let b = lfr(600, derive(7, 3)).0.fingerprint();
        assert_eq!(b, lfr(600, derive(7, 3)).0.fingerprint());
        assert_ne!(b, lfr(600, derive(8, 3)).0.fingerprint());

        let c = paper_network(PaperNetwork::Dblp, 256, derive(7, 1))
            .0
            .fingerprint();
        assert_eq!(
            c,
            paper_network(PaperNetwork::Dblp, 256, derive(7, 1))
                .0
                .fingerprint()
        );
        assert_ne!(
            c,
            paper_network(PaperNetwork::Dblp, 256, derive(8, 1))
                .0
                .fingerprint()
        );
    }

    #[test]
    fn seeded_deltas_repeat() {
        let (g, truth) = lfr(600, 5);
        let hot = hot_members(&truth);
        let batch = |seed| {
            let mut rng = Rng::new(seed);
            (0..4)
                .map(|_| make_delta(&mut rng, &g, &hot, 40))
                .collect::<Vec<_>>()
        };
        assert_eq!(batch(1), batch(1));
        assert_ne!(batch(1), batch(2));
    }

    #[test]
    fn web_graph_shape() {
        let (g, sites) = web_graph(100, 25, 3);
        assert!(g.is_directed());
        assert_eq!(g.num_nodes(), 2_500);
        assert_eq!(sites.num_communities(), 100);
        // 3–9 links on 19 pages in 20, less merged duplicates.
        let per_page = g.num_arcs() as f64 / g.num_nodes() as f64;
        assert!((4.5..6.0).contains(&per_page), "{per_page} arcs per page");
        assert!(!g.dangling_nodes().is_empty());
    }
}
