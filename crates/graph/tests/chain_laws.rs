//! The fingerprint chain's laws, on directed and undirected bases with
//! integer weights (so weight accumulation is exact and the premises below
//! hold bit for bit):
//!
//! * `fingerprint_after(d)` is the head `apply(d)` then returns, and it
//!   leaves the head it was called on as it was;
//! * two batch orders that reach the same net overlay reach the same head;
//! * a stream of 2,000 distinct versions repeats no head;
//! * a batch that undoes every patch restores the anchor.

use std::collections::HashSet;
use std::sync::Arc;

use asa_graph::{CsrGraph, DeltaGraph, EdgeDelta, GraphBuilder, NodeId};
use proptest::prelude::*;

const N: u32 = 10;

/// A ring with chords on `N` vertices, integer weights.
fn base(directed: bool) -> Arc<CsrGraph> {
    let mut b = if directed {
        GraphBuilder::directed(N as usize)
    } else {
        GraphBuilder::undirected(N as usize)
    };
    for u in 0..N {
        b.add_edge(u, (u + 1) % N, f64::from(1 + u % 3));
        if u % 3 == 0 {
            b.add_edge(u, (u + 4) % N, 2.0);
        }
    }
    Arc::new(b.build())
}

/// One operation: `(insert?, u, v, weight)`.
type Op = (bool, NodeId, NodeId, u32);

fn op() -> impl Strategy<Value = Op> {
    (any::<bool>(), 0..N, 0..N, 1u32..4)
}

fn delta(ops: &[Op]) -> EdgeDelta {
    let mut d = EdgeDelta::new();
    for &(insert, u, v, w) in ops {
        if insert {
            d.insert(u, v, f64::from(w));
        } else {
            d.delete(u, v);
        }
    }
    d
}

/// The batch that brings `dg`'s merged view back to its base: every arc
/// whose weight differs is deleted and, if the base holds it, re-inserted
/// at its base weight.
fn undo(dg: &DeltaGraph) -> EdgeDelta {
    let mut d = EdgeDelta::new();
    for u in 0..N {
        for v in 0..N {
            if !dg.is_directed() && u > v {
                continue;
            }
            let (now, then) = (dg.arc_weight(u, v), dg.base().arc_weight(u, v));
            if now.map(f64::to_bits) != then.map(f64::to_bits) {
                d.delete(u, v);
                if let Some(w) = then {
                    d.insert(u, v, w);
                }
            }
        }
    }
    d
}

/// Every merged row, weights as bits: the version a head names.
fn rows(dg: &DeltaGraph) -> Vec<Vec<(NodeId, u64)>> {
    (0..N)
        .map(|u| {
            let row = dg.out_row(u);
            row.iter().map(|e| (e.target, e.weight.to_bits())).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn preview_equals_apply_and_undo_restores_the_anchor(
        directed in any::<bool>(),
        batches in prop::collection::vec(prop::collection::vec(op(), 0..6), 1..12),
    ) {
        let mut dg = DeltaGraph::new(base(directed));
        let anchor = dg.anchor_fingerprint();
        prop_assert_eq!(dg.chain_fingerprint(), anchor);
        for ops in &batches {
            let d = delta(ops);
            let before = dg.chain_fingerprint();
            let preview = dg.fingerprint_after(&d).unwrap();
            prop_assert_eq!(dg.chain_fingerprint(), before, "the preview moved the head");
            prop_assert_eq!(dg.apply(&d), preview);
            prop_assert_eq!(dg.chain_fingerprint(), preview);
        }
        let inverse = undo(&dg);
        prop_assert_eq!(dg.fingerprint_after(&inverse).unwrap(), anchor);
        prop_assert_eq!(dg.apply(&inverse), anchor);
        prop_assert_eq!(dg.pending_patches(), 0);
    }

    #[test]
    fn batch_orders_reaching_one_overlay_share_a_head(
        directed in any::<bool>(),
        inserts in prop::collection::vec(
            prop::collection::vec((0..N, 0..N, 1u32..4), 1..5),
            2..8,
        ),
        deletes in prop::collection::vec((0..N, 0..N), 0..4),
    ) {
        // Integer insertions commute, so the batches in order, reversed,
        // and merged into one reach the same overlay; a trailing delete
        // batch keeps them equal.
        let as_ops = |batch: &Vec<(NodeId, NodeId, u32)>| -> Vec<Op> {
            batch.iter().map(|&(u, v, w)| (true, u, v, w)).collect()
        };
        let tail = delta(&deletes.iter().map(|&(u, v)| (false, u, v, 1)).collect::<Vec<_>>());
        let run = |order: Vec<EdgeDelta>| {
            let mut dg = DeltaGraph::new(base(directed));
            for d in order.iter().chain([&tail]) {
                dg.apply(d);
            }
            (dg.chain_fingerprint(), rows(&dg), dg.pending_patches())
        };
        let forward = run(inserts.iter().map(|b| delta(&as_ops(b))).collect());
        let backward = run(inserts.iter().rev().map(|b| delta(&as_ops(b))).collect());
        let merged = run(vec![delta(&inserts.iter().flat_map(as_ops).collect::<Vec<_>>())]);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &merged);
    }
}

#[test]
fn two_thousand_distinct_versions_repeat_no_head() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for directed in [false, true] {
        let mut dg = DeltaGraph::new(base(directed));
        let mut heads = HashSet::from([dg.chain_fingerprint()]);
        let mut total = dg.total();
        for _ in 0..2_000 {
            // Insert-only with positive integer weights: the total grows
            // exactly every batch, so every version is new.
            let mut d = EdgeDelta::new();
            for _ in 0..1 + next(3) {
                let (u, v) = (next(u64::from(N)) as NodeId, next(u64::from(N)) as NodeId);
                d.insert(u, v, (1 + next(3)) as f64);
            }
            let head = dg.apply(&d);
            assert!(dg.total() > total);
            total = dg.total();
            assert!(heads.insert(head), "a head repeated (directed: {directed})");
        }
        assert_eq!(heads.len(), 2_001);
    }
}
