//! Cancellation correctness: a run cancelled after k sweeps returns a
//! valid partition (every node assigned, finite codelength) identical to
//! what the uncancelled run had produced at the same sweep boundary.
//!
//! The check exploits two facts. First, every executed sweep emits exactly
//! one `"sweep"` convergence record (carrying the post-sweep codelength)
//! *before* the cancel token is polled, so a token tripping on its k-th
//! poll yields a run whose record stream is exactly the first k records of
//! the uncancelled run — control flow up to the k-th poll is identical.
//! Second, on interrupt the schedule folds the current level's partial
//! partition onto the original vertices, and coarsening preserves module
//! flows, so the reported codelength describes the returned partition
//! exactly.

use std::sync::{Arc, Mutex};

use asa_graph::{CsrGraph, GraphBuilder};
use asa_infomap::{detect_communities_cancellable, CancelToken, InfomapConfig};
use asa_obs::{FlushReport, Obs, Record, Sink, Value};

/// Ring of cliques with asymmetric weights: several levels of structure,
/// deterministic under a single thread.
fn test_graph() -> CsrGraph {
    let cliques = 12;
    let size = 5;
    let mut b = GraphBuilder::undirected(cliques * size);
    for c in 0..cliques as u32 {
        let base = c * size as u32;
        for i in 0..size as u32 {
            for j in (i + 1)..size as u32 {
                b.add_edge(base + i, base + j, 1.0 + 0.25 * f64::from(i + j));
            }
        }
        b.add_edge(base, ((c + 1) % cliques as u32) * size as u32, 0.5);
    }
    b.build()
}

fn config() -> InfomapConfig {
    InfomapConfig {
        threads: 1, // deterministic decide order
        outer_loops: 2,
        ..InfomapConfig::default()
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

fn observed() -> (Obs, Arc<Mutex<Vec<Record>>>) {
    let obs = Obs::new_enabled();
    let log = Arc::new(Mutex::new(Vec::new()));
    obs.add_sink(Box::new(SweepRecords(Arc::clone(&log))));
    (obs, log)
}

fn sweep_records(log: &Mutex<Vec<Record>>) -> Vec<Record> {
    log.lock().unwrap().clone()
}

fn field<'a>(record: &'a Record, name: &str) -> Option<&'a Value> {
    record
        .fields
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

fn f64_field(record: &Record, name: &str) -> f64 {
    match field(record, name) {
        Some(Value::F64(v)) => *v,
        other => panic!("field {name}: expected F64, got {other:?}"),
    }
}

/// The deterministic per-sweep fields — everything except wall-clock
/// (`seconds`) and any engine-specific extras.
fn deterministic_fields(record: &Record) -> Vec<(&'static str, Value)> {
    [
        "outer",
        "level",
        "refine",
        "sweep",
        "active",
        "moves",
        "codelength",
        "dl",
    ]
    .iter()
    .filter_map(|name| record.fields.iter().find(|(k, _)| k == name).cloned())
    .collect()
}

#[test]
fn cancelled_run_truncates_to_exact_sweep_prefix() {
    let graph = test_graph();
    let cfg = config();

    // Reference: the uncancelled run and its per-sweep convergence trace.
    let (obs, log) = observed();
    let full = detect_communities_cancellable(&graph, &cfg, &obs, &CancelToken::none());
    assert!(!full.interrupted);
    let full_records = sweep_records(&log);
    let total_sweeps = full_records.len();
    assert!(
        total_sweeps >= 4,
        "test graph must exercise several sweeps, got {total_sweeps}"
    );

    // Cancel at several boundaries, including mid-level, the level/
    // refinement seam neighbourhood, and the very first sweep.
    for k in [1, 2, total_sweeps / 2, total_sweeps - 1] {
        let (obs, log) = observed();
        let cancel = CancelToken::after_polls(k as u64);
        let result = detect_communities_cancellable(&graph, &cfg, &obs, &cancel);
        let records = sweep_records(&log);

        assert!(result.interrupted, "k={k}: token must interrupt the run");
        assert_eq!(
            records.len(),
            k,
            "k={k}: a token tripping on poll k stops after exactly k sweeps"
        );
        for (i, (cancelled, reference)) in records.iter().zip(&full_records).enumerate() {
            assert_eq!(
                deterministic_fields(cancelled),
                deterministic_fields(reference),
                "k={k}: sweep {i} must match the uncancelled run"
            );
        }

        // Valid partition: every node assigned, labels dense, finite L.
        assert_eq!(result.partition.len(), graph.num_nodes());
        let num = result.partition.num_communities();
        assert!(num >= 1);
        assert!(result
            .partition
            .labels()
            .iter()
            .all(|&c| (c as usize) < num));
        assert!(result.codelength.is_finite());

        // The returned codelength is the one the uncancelled run reported
        // at that same sweep boundary: the truncation is exact.
        let reference_cl = f64_field(&full_records[k - 1], "codelength");
        assert!(
            (result.codelength - reference_cl).abs() < 1e-9,
            "k={k}: cancelled codelength {} != reference sweep codelength {}",
            result.codelength,
            reference_cl
        );
    }
}

#[test]
fn cancellation_is_deterministic() {
    let graph = test_graph();
    let cfg = config();
    let run = |k: u64| {
        let cancel = CancelToken::after_polls(k);
        detect_communities_cancellable(&graph, &cfg, &Obs::disabled(), &cancel)
    };
    for k in [1, 3, 5] {
        let a = run(k);
        let b = run(k);
        assert_eq!(
            a.partition.labels(),
            b.partition.labels(),
            "k={k}: identical truncated runs must return identical partitions"
        );
        assert_eq!(a.codelength, b.codelength);
    }
}

#[test]
fn none_token_is_byte_identical_to_plain_run() {
    let graph = test_graph();
    let cfg = config();
    let plain = asa_infomap::detect_communities(&graph, &cfg);
    let with_token =
        detect_communities_cancellable(&graph, &cfg, &Obs::disabled(), &CancelToken::none());
    assert!(!with_token.interrupted);
    assert_eq!(plain.partition.labels(), with_token.partition.labels());
    assert_eq!(plain.codelength, with_token.codelength);
}

#[test]
fn pre_cancelled_token_still_yields_valid_partition() {
    let graph = test_graph();
    let cancel = CancelToken::new();
    cancel.cancel();
    let result = detect_communities_cancellable(&graph, &config(), &Obs::disabled(), &cancel);
    // One sweep runs before the first poll; the result is still complete.
    assert!(result.interrupted);
    assert_eq!(result.partition.len(), graph.num_nodes());
    assert!(result.codelength.is_finite());
}

#[test]
fn cancel_from_another_thread_mid_run() {
    // A coarser end-to-end check: cancelling concurrently terminates the
    // run promptly with a complete partition, whatever boundary it hits.
    let graph = Arc::new(test_graph());
    let cancel = CancelToken::new();
    let worker = {
        let graph = Arc::clone(&graph);
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            detect_communities_cancellable(&graph, &config(), &Obs::disabled(), &cancel)
        })
    };
    cancel.cancel();
    let result = worker.join().expect("run must not panic");
    assert_eq!(result.partition.len(), graph.num_nodes());
    assert!(result.codelength.is_finite());
}
