//! Exhaustive map-equation minimization for tiny networks.
//!
//! Enumerates every set partition of the vertex set (Bell(n) candidates —
//! feasible to n ≈ 10) and returns the codelength-optimal one. This is the
//! ground-truth oracle the test suite uses to certify that the greedy
//! multi-level optimizer reaches (or nearly reaches) the true optimum on
//! small instances, the strongest correctness evidence available for an
//! NP-complete objective ("computing Huffman coding for each of those
//! combinations and then finding the most compressed one is an
//! NP-complete problem", paper Section II-B).

use asa_graph::Partition;

use crate::flow::FlowNetwork;
use crate::mapeq::{codelength, MapState, TeleportMode};

/// The optimal partition and its codelength.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    /// The codelength-minimal partition.
    pub partition: Partition,
    /// Its codelength in bits.
    pub codelength: f64,
    /// Number of partitions evaluated (the Bell number of `n`).
    pub evaluated: u64,
}

/// Finds the codelength-optimal partition of `flow` by brute force.
///
/// # Panics
/// Panics for networks with more than `max_nodes` vertices (default guard
/// 12; Bell(12) ≈ 4.2M evaluations).
pub fn exhaustive_best_partition(flow: &FlowNetwork, max_nodes: usize) -> ExhaustiveResult {
    let n = flow.num_nodes();
    assert!(
        n <= max_nodes && n <= 14,
        "exhaustive search is only feasible for tiny networks (n = {n})"
    );
    if n == 0 {
        return ExhaustiveResult {
            partition: Partition::from_labels(Vec::new()),
            codelength: 0.0,
            evaluated: 0,
        };
    }

    // Enumerate set partitions in restricted-growth-string order: label[i]
    // may be at most 1 + max(label[0..i]).
    let mut labels = vec![0u32; n];
    let mut best_labels = labels.clone();
    let mut best = f64::INFINITY;
    let mut evaluated = 0u64;

    loop {
        evaluated += 1;
        let candidate = Partition::from_labels(labels.clone());
        let l = codelength(flow, &candidate);
        if l < best - 1e-15 {
            best = l;
            best_labels = labels.clone();
        }

        // Advance the restricted growth string.
        let mut i = n;
        loop {
            if i == 1 {
                return ExhaustiveResult {
                    partition: Partition::from_labels(best_labels),
                    codelength: best,
                    evaluated,
                };
            }
            i -= 1;
            let max_prefix = labels[..i].iter().copied().max().unwrap_or(0);
            if labels[i] <= max_prefix {
                labels[i] += 1;
                for l in labels[i + 1..].iter_mut() {
                    *l = 0;
                }
                break;
            }
            labels[i] = 0;
        }
    }
}

/// Like [`exhaustive_best_partition`] but scoring under an explicit
/// teleport mode.
pub fn exhaustive_best_with_mode(
    flow: &FlowNetwork,
    max_nodes: usize,
    mode: TeleportMode,
) -> ExhaustiveResult {
    let n = flow.num_nodes();
    assert!(
        n <= max_nodes && n <= 14,
        "network too large for brute force"
    );
    let node_plogp: f64 = flow
        .node_flows()
        .iter()
        .copied()
        .map(crate::mapeq::plogp)
        .sum();
    let mut labels = vec![0u32; n];
    let mut best_labels = labels.clone();
    let mut best = f64::INFINITY;
    let mut evaluated = 0u64;
    loop {
        evaluated += 1;
        let candidate = Partition::from_labels(labels.clone());
        let l = MapState::with_options(flow, &candidate, node_plogp, mode).codelength();
        if l < best - 1e-15 {
            best = l;
            best_labels = labels.clone();
        }
        let mut i = n;
        loop {
            if i == 1 {
                return ExhaustiveResult {
                    partition: Partition::from_labels(best_labels),
                    codelength: best,
                    evaluated,
                };
            }
            i -= 1;
            let max_prefix = labels[..i].iter().copied().max().unwrap_or(0);
            if labels[i] <= max_prefix {
                labels[i] += 1;
                for l in labels[i + 1..].iter_mut() {
                    *l = 0;
                }
                break;
            }
            labels[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InfomapConfig;
    use crate::driver::detect_communities;
    use asa_graph::GraphBuilder;

    fn bell(n: usize) -> u64 {
        // Bell numbers via the Bell triangle: B(n) is the last element of
        // the n-th row (B(1)=1, B(2)=2, B(3)=5, ...).
        let mut row = vec![1u64];
        for _ in 1..n {
            let mut next = vec![*row.last().unwrap()];
            for &x in &row {
                let last = *next.last().unwrap();
                next.push(last + x);
            }
            row = next;
        }
        *row.last().unwrap()
    }

    #[test]
    fn enumerates_bell_many_partitions() {
        for n in 1..=6 {
            let mut b = GraphBuilder::undirected(n);
            if n >= 2 {
                b.add_edge(0, 1, 1.0);
            }
            let flow = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
            let result = exhaustive_best_partition(&flow, 8);
            assert_eq!(result.evaluated, bell(n), "Bell({n})");
        }
    }

    #[test]
    fn optimum_on_two_triangles() {
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        let g = b.build();
        let flow = FlowNetwork::from_graph(&g, &InfomapConfig::default());
        let opt = exhaustive_best_partition(&flow, 8);
        // The optimum is the two triangles.
        assert_eq!(opt.partition.num_communities(), 2);
        assert_eq!(opt.partition.community_of(0), opt.partition.community_of(2));
        assert_ne!(opt.partition.community_of(0), opt.partition.community_of(3));

        // The greedy multi-level optimizer reaches the true optimum here.
        let greedy = detect_communities(&g, &InfomapConfig::default());
        assert!(
            (greedy.codelength - opt.codelength).abs() < 1e-9,
            "greedy {} vs optimal {}",
            greedy.codelength,
            opt.codelength
        );
    }

    #[test]
    fn greedy_within_tolerance_on_random_tiny_graphs() {
        // Deterministic pseudo-random tiny graphs, undirected and directed.
        // The greedy codelength is never below the brute-force optimum (a
        // lower one is a bookkeeping bug); on the undirected trials it is
        // also within 2% of it.
        let cfg = InfomapConfig::default();
        for directed in [false, true] {
            let mut x = 42u64;
            for trial in 0..8 {
                let n = 6 + (trial % 3);
                let mut b = if directed {
                    GraphBuilder::directed(n)
                } else {
                    GraphBuilder::undirected(n)
                };
                let mut added = 0;
                while added < n + 3 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = ((x >> 33) % n as u64) as u32;
                    let v = ((x >> 13) % n as u64) as u32;
                    if u != v {
                        b.add_edge(u, v, 1.0 + (x % 3) as f64);
                        added += 1;
                    }
                }
                let g = b.build();
                let flow = FlowNetwork::from_graph(&g, &cfg);
                let opt = exhaustive_best_with_mode(&flow, 10, cfg.teleport_mode());
                let greedy = detect_communities(&g, &cfg);
                assert!(
                    greedy.codelength >= opt.codelength * (1.0 - 1e-12),
                    "directed={directed} trial {trial}: greedy {} below optimal {}",
                    greedy.codelength,
                    opt.codelength
                );
                if !directed {
                    assert!(
                        greedy.codelength <= opt.codelength * 1.02 + 1e-9,
                        "trial {trial}: greedy {} vs optimal {}",
                        greedy.codelength,
                        opt.codelength
                    );
                }
            }
        }
    }

    #[test]
    fn recorded_mode_optimum_differs() {
        let mut b = GraphBuilder::undirected(5);
        for &(u, v) in &[(0, 1), (1, 2), (3, 4)] {
            b.add_edge(u, v, 1.0);
        }
        let flow = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
        let unrec = exhaustive_best_with_mode(&flow, 8, TeleportMode::Unrecorded);
        let rec = exhaustive_best_with_mode(&flow, 8, TeleportMode::Recorded { tau: 0.15 });
        assert!(rec.codelength > unrec.codelength);
        assert_eq!(unrec.evaluated, rec.evaluated);
    }
}
