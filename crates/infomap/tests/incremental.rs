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
//! CI runs this suite at `RAYON_NUM_THREADS=1` and `8`.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use asa_graph::delta::EdgeDelta;
use asa_graph::generators::{planted_partition, PlantedConfig};
use asa_graph::{CsrGraph, Partition};
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
