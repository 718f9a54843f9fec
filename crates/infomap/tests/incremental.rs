//! Quality-equivalence properties of the incremental Infomap path
//! (`asa_infomap::incremental`) against fresh full runs.
//!
//! Three contracts from the dynamic-graph subsystem:
//!
//! * **Drift budget** — applying a delta and re-optimizing incrementally
//!   yields a codelength within the configured drift budget of a fresh
//!   multilevel run on the merged graph; when the quality guard fell
//!   back instead, the result is bit-identical to that fresh run (same
//!   flow network, same deterministic schedule).
//! * **Empty delta** — a no-op: identical partition, codelength, and
//!   chain head.
//! * **Chain reversibility** — deleting then reinserting the same arcs
//!   (or vice versa) restores the base fingerprint chain head, because
//!   the chain hashes the *net* overlay content.
//!
//! As an absolute anchor, the codelength the state reports after every
//! applied batch must match a from-scratch recomputation on its partition.
//! The frontier pass runs the schedule's sweep body, so it also streams
//! one `sweep` convergence record per ripple round.
//!
//! The state patches its merged CSR, flow network and module statistics
//! batch by batch instead of rebuilding them, so long streams check that
//! the patched structures stay exact: the merged CSR bit for bit against
//! a fresh materialization, the flows within [`FLOW_TOLERANCE`] of a
//! rebuilt network, and the codelength within 1e-9 of a recomputation,
//! across compactions, cancelled passes, self-loops and vertices that
//! lose every arc.
//!
//! CI runs this suite at `RAYON_NUM_THREADS=1` and `8`.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use asa_graph::delta::EdgeDelta;
use asa_graph::generators::{planted_partition, PlantedConfig};
use asa_graph::{CsrGraph, GraphBuilder, NodeId, Partition};
use asa_infomap::incremental::{IncrementalConfig, IncrementalState};
use asa_infomap::mapeq::{self, plogp, MapState};
use asa_infomap::{detect_communities, CancelToken, FlowNetwork, InfomapConfig};
use asa_obs::{FlushReport, Obs, Record, Sink, Value};
use proptest::prelude::*;

/// 150 vertices in five strongly planted communities.
fn planted(seed: u64) -> Arc<CsrGraph> {
    let (graph, _) = planted_partition(
        &PlantedConfig {
            communities: 5,
            community_size: 30,
            k_in: 10.0,
            k_out: 1.0,
        },
        seed,
    );
    Arc::new(graph)
}

fn seed_state(base: Arc<CsrGraph>) -> IncrementalState {
    IncrementalState::new(
        base,
        InfomapConfig::default(),
        IncrementalConfig::default(),
        &Obs::disabled(),
        &CancelToken::none(),
    )
    .0
}

/// The codelength of `partition` recomputed from scratch on `graph`'s flow
/// network, independent of the optimizer's incremental bookkeeping.
fn recomputed_codelength(graph: &CsrGraph, cfg: &InfomapConfig, partition: &Partition) -> f64 {
    let flow = FlowNetwork::from_graph(graph, cfg);
    if cfg.recorded_teleport {
        let node_plogp = flow.node_flows().iter().copied().map(plogp).sum();
        MapState::with_options(&flow, partition, node_plogp, cfg.teleport_mode()).codelength()
    } else {
        mapeq::codelength(&flow, partition)
    }
}

/// Largest relative difference allowed between a patched flow (node or
/// arc) and the rebuilt one. Each batch rescales the kept flows by one
/// factor, which costs a few roundings (about 1e-16 each) per batch; the
/// bound leaves two orders of magnitude above 30 batches' worth.
const FLOW_TOLERANCE: f64 = 1e-12;

/// `planted(seed)` with every edge turned into one arc or both, so the
/// directed path (PageRank flow) runs on the same community structure.
fn planted_directed(seed: u64) -> Arc<CsrGraph> {
    let g = planted(seed);
    let mut b = GraphBuilder::directed(g.num_nodes());
    for (u, v, w) in g.arcs().filter(|&(u, v, _)| u < v) {
        match (u + v) % 3 {
            0 => b.add_edge(u, v, w),
            1 => b.add_edge(v, u, w),
            _ => {
                b.add_edge(u, v, w);
                b.add_edge(v, u, w);
            }
        }
    }
    Arc::new(b.build())
}

/// One edit of a generated batch: `(kind, u, v, weight step)`.
type Op = (u32, u32, u32, u32);

/// A batch over the live graph `g`: kind 0 inserts `u–v`, 1 deletes one
/// of `u`'s arcs, 2 inserts a self-loop on `u`, 3 deletes every arc of
/// `u` (out and in), isolating it.
fn batch(g: &CsrGraph, ops: &[Op]) -> EdgeDelta {
    let mut d = EdgeDelta::new();
    for &(kind, u, v, step) in ops {
        let w = f64::from(step) * 0.25;
        let row = g.out_neighbors(u).targets();
        match kind {
            0 if u != v => {
                d.insert(u, v, w);
            }
            1 if !row.is_empty() => {
                d.delete(u, row[v as usize % row.len()]);
            }
            2 => {
                d.insert(u, u, w);
            }
            3 => {
                for &t in row {
                    d.delete(u, t);
                }
                for &s in g.in_neighbors(u).targets() {
                    d.delete(s, u);
                }
            }
            _ => {}
        }
    }
    d
}

/// Relative difference of two flows.
fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Checks that the state's patched structures agree with rebuilt ones:
/// the merged CSR bit for bit with a fresh materialization, the kept flow
/// network within `tolerance` of `FlowNetwork::from_graph`, and the
/// reported codelength within 1e-9 of a recomputation. The partition must
/// be compact.
fn assert_patched_state_exact(st: &IncrementalState, tolerance: f64, at: &str) {
    let merged = st.merged();
    let fresh = st.graph().materialize();
    let bits = |g: &CsrGraph| {
        [g.out_csr(), g.in_csr()].map(|(o, t, w)| {
            let w: Vec<u64> = w.iter().map(|x| x.to_bits()).collect();
            (o.to_vec(), t.to_vec(), w)
        })
    };
    assert!(bits(merged) == bits(&fresh), "{at}: merged CSR differs");
    assert_eq!(merged.fingerprint(), fresh.fingerprint(), "{at}");

    let kept = st.flow();
    let rebuilt = FlowNetwork::from_graph(merged, st.config());
    assert_eq!(kept.is_symmetric(), rebuilt.is_symmetric(), "{at}");
    for u in 0..merged.num_nodes() as NodeId {
        let (a, b) = (kept.node_flow(u), rebuilt.node_flow(u));
        assert!(rel(a, b) <= tolerance, "{at}: node {u} flow {a} vs {b}");
        for (x, y) in [
            (kept.out_flow_total(u), rebuilt.out_flow_total(u)),
            (kept.in_flow_total(u), rebuilt.in_flow_total(u)),
        ] {
            assert!(rel(x, y) <= tolerance, "{at}: node {u} total {x} vs {y}");
        }
        for (kept_row, rebuilt_row) in [
            (kept.out_arc_slices(u), rebuilt.out_arc_slices(u)),
            (kept.in_arc_slices(u), rebuilt.in_arc_slices(u)),
        ] {
            assert_eq!(kept_row.0, rebuilt_row.0, "{at}: row {u} targets");
            for (&a, &b) in kept_row.1.iter().zip(rebuilt_row.1) {
                assert!(rel(a, b) <= tolerance, "{at}: row {u} flow {a} vs {b}");
            }
        }
    }

    let partition = st.partition();
    assert_eq!(
        &Partition::from_labels(partition.labels().to_vec()),
        partition,
        "{at}: partition not compact"
    );
    let recomputed = recomputed_codelength(merged, st.config(), partition);
    assert!(
        (recomputed - st.codelength()).abs() <= 1e-9 * recomputed.abs(),
        "{at}: reported {} vs recomputed {recomputed}",
        st.codelength(),
    );
}

#[test]
fn patched_state_stays_exact_over_a_long_stream() {
    // 1,000 vertices in ten communities; 500 batches of four edits, three
    // in four inside a community, compacted every eight batches as the
    // serving layer does.
    let (g, truth) = planted_partition(
        &PlantedConfig {
            communities: 10,
            community_size: 100,
            k_in: 12.0,
            k_out: 1.0,
        },
        11,
    );
    let mut st = seed_state(Arc::new(g));
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = |n: u32| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % u64::from(n)) as u32
    };
    let mut incremental = 0;
    for i in 0..500 {
        let ops: Vec<Op> = (0..4)
            .map(|_| {
                let u = next(1000);
                let v = if next(4) == 0 {
                    next(1000)
                } else {
                    truth.community_of(u) * 100 + next(100)
                };
                (u32::from(next(4) == 0), u, v, 1 + next(4))
            })
            .collect();
        let d = batch(st.merged(), &ops);
        let out = st.apply(&d, &Obs::disabled(), &CancelToken::none());
        incremental += usize::from(out.incremental());
        if i % 8 == 7 {
            st.compact();
        }
    }
    // The patched path is what this test is about: a fallback reseeds
    // the state and would reset the rounding it accumulates.
    assert!(incremental >= 450, "only {incremental} incremental batches");
    assert_patched_state_exact(&st, 1e-10, "after 500 batches");
}

#[test]
fn patched_state_survives_a_huge_edge_that_comes_and_goes() {
    // An edge that outweighs the whole graph rescales every other flow
    // by ~1e-18 when it arrives and by ~1e18 when it leaves: the leaving
    // factor must come from the graph's exact total (a running total has
    // lost the small weights to the huge one by then), and it must not
    // blow up the rounding of the statistics patched while it was there.
    for weight in [1e8, 1e20] {
        for (u, v) in [(0, 1), (3, 140)] {
            let mut st = seed_state(planted(9));
            for round in 0..3 {
                let mut d = EdgeDelta::new();
                d.insert(u, v, weight);
                st.apply(&d, &Obs::disabled(), &CancelToken::none());
                let at = format!("{u}–{v} of weight {weight:e}, round {round}");
                assert_patched_state_exact(&st, FLOW_TOLERANCE, &format!("{at}, inserted"));
                let mut d = EdgeDelta::new();
                d.delete(u, v);
                d.insert(u + 1, v + 1, 1.0);
                st.apply(&d, &Obs::disabled(), &CancelToken::none());
                assert_patched_state_exact(&st, FLOW_TOLERANCE, &format!("{at}, deleted"));
                assert!(st.codelength().is_finite(), "{at}");
            }
        }
    }
}

#[test]
fn compaction_rebases_onto_the_patched_csr() {
    let mut st = seed_state(planted(5));
    let mut d = EdgeDelta::new();
    d.insert(3, 40, 1.0).delete(0, 1);
    st.apply(&d, &Obs::disabled(), &CancelToken::none());
    let head = st.chain_fingerprint();
    st.compact();
    assert!(Arc::ptr_eq(st.merged(), st.graph().base()));
    assert_eq!(st.chain_fingerprint(), head);
    assert_eq!(st.graph().pending_patches(), 0);
    assert_patched_state_exact(&st, FLOW_TOLERANCE, "after compaction");
}

/// Collects the `sweep` convergence records an [`Obs`] streams.
struct SweepRecords(Arc<Mutex<Vec<Record>>>);

impl Sink for SweepRecords {
    fn record(&mut self, rec: &Record) {
        if rec.kind == "sweep" {
            self.0.lock().unwrap().push(rec.clone());
        }
    }

    fn flush(&mut self, _report: &FlushReport) {}
}

fn field<'a>(record: &'a Record, name: &str) -> &'a Value {
    record
        .fields
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("sweep record lacks {name}"))
}

#[test]
fn incremental_pass_streams_one_refine_record_per_ripple_round() {
    let mut st = seed_state(planted(3));
    let obs = Obs::new_enabled();
    let records = Arc::new(Mutex::new(Vec::new()));
    obs.add_sink(Box::new(SweepRecords(Arc::clone(&records))));
    // Strengthen a few intra-community edges: local work only.
    let mut d = EdgeDelta::new();
    d.insert(0, 1, 0.5).insert(2, 3, 0.5).insert(30, 31, 0.5);
    let out = st.apply(&d, &obs, &CancelToken::none());
    assert!(out.incremental(), "local edit must not trigger fallback");
    assert!(out.ripple_rounds >= 1);

    let records = records.lock().unwrap();
    assert_eq!(records.len(), out.ripple_rounds);
    for r in records.iter() {
        assert!(matches!(field(r, "refine"), Value::Bool(true)), "{r:?}");
    }
    match field(records.last().unwrap(), "codelength") {
        Value::F64(cl) => assert_eq!(cl.to_bits(), out.result.codelength.to_bits()),
        other => panic!("codelength: expected F64, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // (a) Incremental codelength tracks a fresh run on the merged graph
    // within the drift budget; a guard fallback IS that fresh run.
    #[test]
    fn incremental_tracks_fresh_within_drift_budget(
        seed in 0u64..500,
        inserts in prop::collection::vec((0u32..150, 0u32..150, 1u32..5), 1..8),
        deletes in prop::collection::vec((0u32..150, 0u32..150), 0..4),
    ) {
        let mut st = seed_state(planted(seed));
        let mut d = EdgeDelta::new();
        for &(u, v, w) in &inserts {
            if u != v {
                d.insert(u, v, f64::from(w) * 0.25);
            }
        }
        for &(u, v) in &deletes {
            if u != v {
                d.delete(u, v);
            }
        }
        prop_assume!(!d.is_empty());
        let out = st.apply(&d, &Obs::disabled(), &CancelToken::none());
        let recomputed = recomputed_codelength(st.merged(), st.config(), st.partition());
        prop_assert!(
            (recomputed - st.codelength()).abs() <= 1e-9 * recomputed.abs(),
            "reported {} vs recomputed {}",
            st.codelength(),
            recomputed,
        );
        let fresh = detect_communities(st.merged(), st.config());
        if out.incremental() {
            let budget = IncrementalConfig::default().drift_budget;
            prop_assert!(
                st.codelength() <= fresh.codelength * (1.0 + budget) + 1e-9,
                "incremental {} exceeds drift budget over fresh {}",
                st.codelength(),
                fresh.codelength,
            );
        } else {
            prop_assert_eq!(st.codelength().to_bits(), fresh.codelength.to_bits());
            prop_assert_eq!(st.partition().labels(), fresh.partition.labels());
        }
    }

    // (d) Across 1–30 batches on undirected and directed graphs, with
    // self-loops, vertices that lose every arc, one compaction and one
    // cancelled pass, the patched CSR, flows and codelength stay exact.
    #[test]
    fn patched_state_stays_exact_across_batches(
        seed in 0u64..500,
        directed in any::<bool>(),
        batches in prop::collection::vec(
            prop::collection::vec((0u32..4, 0u32..150, 0u32..150, 1u32..5), 1..8),
            1..31,
        ),
        compact_at in 0usize..30,
        cancel_at in 0usize..30,
    ) {
        let base = if directed { planted_directed(seed) } else { planted(seed) };
        let mut st = seed_state(base);
        for (i, ops) in batches.iter().enumerate() {
            let d = batch(st.merged(), ops);
            let cancel = if i == cancel_at {
                CancelToken::after_polls(1)
            } else {
                CancelToken::none()
            };
            st.apply(&d, &Obs::disabled(), &cancel);
            if i == compact_at {
                st.compact();
            }
            assert_patched_state_exact(&st, FLOW_TOLERANCE, &format!("seed {seed} batch {i}"));
        }
    }

    // (b) The empty delta is a strict no-op.
    #[test]
    fn empty_delta_is_a_noop(seed in 0u64..200) {
        let mut st = seed_state(planted(seed));
        let labels = st.partition().labels().to_vec();
        let codelength = st.codelength();
        let head = st.chain_fingerprint();
        let out = st.apply(&EdgeDelta::new(), &Obs::disabled(), &CancelToken::none());
        prop_assert!(out.incremental());
        prop_assert_eq!(out.frontier_size, 0);
        prop_assert_eq!(out.chain_fingerprint, head);
        prop_assert_eq!(out.result.partition.labels(), &labels[..]);
        prop_assert_eq!(st.partition().labels(), &labels[..]);
        prop_assert_eq!(st.codelength().to_bits(), codelength.to_bits());
        prop_assert_eq!(st.chain_fingerprint(), head);
    }

    // (c) Delete-then-reinsert of the same arcs restores the base
    // fingerprint chain head.
    #[test]
    fn delete_then_reinsert_restores_chain_head(
        seed in 0u64..200,
        picks in prop::collection::vec((0u32..150, 0u32..150, 1u32..5), 1..6),
    ) {
        let mut st = seed_state(planted(seed));
        let anchor_head = st.chain_fingerprint();
        prop_assert_eq!(anchor_head, st.graph().base().fingerprint());
        let mut seen = BTreeSet::new();
        let mut forward = EdgeDelta::new();
        let mut reverse = EdgeDelta::new();
        for &(u, v, w) in &picks {
            let (u, v) = (u.min(v), u.max(v));
            if u == v || !seen.insert((u, v)) {
                continue;
            }
            match st.graph().arc_weight(u, v) {
                // Existing arc: delete it, then restore its exact weight.
                Some(w0) => {
                    forward.delete(u, v);
                    reverse.insert(u, v, w0);
                }
                // Absent arc: insert it, then delete it again.
                None => {
                    forward.insert(u, v, f64::from(w) * 0.5);
                    reverse.delete(u, v);
                }
            }
        }
        prop_assume!(!forward.is_empty());
        let moved = st.apply(&forward, &Obs::disabled(), &CancelToken::none());
        prop_assert_ne!(moved.chain_fingerprint, anchor_head);
        let restored = st.apply(&reverse, &Obs::disabled(), &CancelToken::none());
        prop_assert_eq!(restored.chain_fingerprint, anchor_head);
        prop_assert_eq!(st.chain_fingerprint(), anchor_head);
    }
}
