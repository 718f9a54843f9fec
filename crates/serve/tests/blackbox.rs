//! Black-box flight-data acceptance: a deliberately panicked worker
//! triggers the panic hook, which dumps one JSON diagnostic bundle with
//! every layer present (flight recorder, metrics, resource snapshot,
//! span profile, engine sections); a later graceful
//! shutdown overwrites it with a `"shutdown"`-reason bundle.
//!
//! The panic hook and the section table are process-global, so this file
//! keeps everything in one `#[test]` — parallel tests would race over
//! which path the hook is armed with.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asa_graph::{CsrGraph, GraphBuilder};
use asa_obs::Obs;
use asa_serve::{Request, ServeConfig, ServeEngine};

fn two_triangles() -> Arc<CsrGraph> {
    let mut b = GraphBuilder::undirected(6);
    for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
        b.add_edge(u, v, 1.0);
    }
    Arc::new(b.build())
}

#[test]
fn forced_panic_then_shutdown_write_complete_bundles() {
    let dir = std::env::temp_dir().join(format!("asa-blackbox-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("blackbox.json");

    // Every observability layer attached.
    let obs = Obs::new_enabled();
    obs.attach_recorder(1 << 12);

    let engine = ServeEngine::start(ServeConfig {
        shards: 1,
        workers: 2,
        cache_capacity: 0,
        obs: obs.clone(),
        blackbox_out: Some(path.clone()),
        ..ServeConfig::default()
    });

    // Populate every layer: one real request (flight-recorder events,
    // latency histograms), a span closed before the bundle is written
    // (span profile) and its parent, still open when it is.
    let graph = two_triangles();
    let response = engine
        .submit(Request::interactive(Arc::clone(&graph)))
        .wait();
    assert!(response.outcome.result().is_some());
    let open = obs.span("blackbox.test.open");
    {
        let _s = obs.span("blackbox.test.work");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Arm the drill and submit: the worker that dequeues this job panics
    // before running it, so its handle never resolves — do NOT wait on it.
    engine.inject_panic();
    let _doomed = engine.submit(Request::batch(Arc::clone(&graph)));

    // The panic hook writes the bundle from the dying worker thread.
    let deadline = Instant::now() + Duration::from_secs(10);
    let bundle = loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) {
                break v;
            }
        }
        assert!(Instant::now() < deadline, "panic bundle never appeared");
        std::thread::sleep(Duration::from_millis(10));
    };

    assert_eq!(bundle["bundle"], "asa-blackbox");
    assert_eq!(bundle["version"].as_u64(), Some(1));
    let reason = bundle["reason"].as_str().unwrap();
    assert!(reason.starts_with("panic:"), "{reason}");
    assert!(reason.contains("blackbox drill"), "{reason}");

    // Flight recorder: the completed request left begin/end event pairs,
    // and the still-open span a begin with no end.
    let threads = bundle["flight_recorder"]["threads"].as_array().unwrap();
    let events: Vec<&serde_json::Value> = threads
        .iter()
        .flat_map(|t| t["events"].as_array().unwrap())
        .collect();
    assert!(!events.is_empty(), "flight recorder drained empty");
    let kinds = |name: &str| -> Vec<&str> {
        events
            .iter()
            .filter(|e| e["name"] == name)
            .map(|e| e["kind"].as_str().unwrap())
            .collect()
    };
    assert_eq!(kinds("blackbox.test.open"), ["begin"]);
    assert_eq!(kinds("blackbox.test.work"), ["begin", "end"]);

    // Span profile: the closed span under its open parent, whose own
    // time is not charged until it closes.
    let prof = &bundle["profile"];
    let folded: Vec<&str> = prof["folded"]
        .as_array()
        .unwrap()
        .iter()
        .map(|l| l.as_str().unwrap())
        .collect();
    let work = folded
        .iter()
        .find_map(|l| l.strip_prefix("blackbox.test.open;blackbox.test.work "))
        .unwrap_or_else(|| panic!("closed span missing: {folded:?}"));
    assert!(work.parse::<u64>().unwrap() >= 1_000, "{folded:?}");
    assert!(folded.contains(&"blackbox.test.open 0"), "{folded:?}");
    assert!(prof["total_us"].as_u64().unwrap() >= 1_000, "{prof:?}");

    // Resource + metrics snapshots render (metrics carry serve counters).
    assert!(bundle["metrics"]["counters"].as_array().is_some());
    assert!(
        !matches!(bundle["resource"], serde_json::Value::Null) || cfg!(not(target_os = "linux"))
    );

    // Engine sections: per-shard occupancy, and nothing else.
    let shards = bundle["sections"]["serve.shards"].as_array().unwrap();
    assert_eq!(shards.len(), 1);
    assert!(shards[0]["queue_depth"].as_u64().is_some());
    assert!(shards[0]["store"].as_u64().is_some());
    let serde_json::Value::Object(sections) = &bundle["sections"] else {
        panic!("sections is not an object");
    };
    let names: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["serve.shards"]);
    assert!(bundle.get("timeseries").is_none(), "no time-series store");

    drop(open);

    // Graceful shutdown: remaining workers drain, the bundle is
    // overwritten with reason "shutdown", and the hook is disarmed.
    engine.shutdown();
    let text = std::fs::read_to_string(&path).unwrap();
    let bundle: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(bundle["reason"], "shutdown");
    assert!(bundle["sections"]["serve.shards"].as_array().is_some());

    std::fs::remove_dir_all(&dir).ok();
}
