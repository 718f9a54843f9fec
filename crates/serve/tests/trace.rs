//! End-to-end flight-recorder coverage of the serving engine.
//!
//! A recorder-enabled [`asa_obs::Obs`] handle goes into [`ServeConfig`];
//! every submission must then come back with a unique nonzero
//! [`asa_serve::Response::trace_id`], and the exported snapshot must carry
//! the full stage tiling (`fingerprint` → `cache_probe` → `queue` →
//! `dispatch` → `execute` → `respond` inside the `request` envelope) with
//! the stages accounting for ≥95% of each slow request's wall time.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use asa_graph::{CsrGraph, GraphBuilder};
use asa_infomap::InfomapConfig;
use asa_obs::chrome::chrome_trace_string;
use asa_obs::tail::{attribute_requests, TailReport};
use asa_obs::Obs;
use asa_serve::{ReplicationConfig, Request, Router, ServeConfig, ServeEngine};

fn clique_ring(cliques: usize, size: usize, seed: u64) -> Arc<CsrGraph> {
    let n = cliques * size;
    let mut b = GraphBuilder::undirected(n);
    for c in 0..cliques {
        let base = (c * size) as u32;
        for i in 0..size as u32 {
            for j in (i + 1)..size as u32 {
                b.add_edge(base + i, base + j, 1.0 + ((seed + j as u64) % 3) as f64);
            }
        }
        b.add_edge(base, (((c + 1) % cliques) * size) as u32, 0.5);
    }
    Arc::new(b.build())
}

#[test]
fn requests_carry_trace_ids_and_stages_cover_wall_time() {
    let obs = Obs::new_enabled();
    obs.attach_recorder(1 << 14);
    let engine = ServeEngine::start(ServeConfig {
        workers: 2,
        cache_capacity: 16,
        cache_shards: 1,
        obs: obs.clone(),
        ..ServeConfig::default()
    });

    // Eight distinct graphs (no accidental cache hits), slow enough
    // (milliseconds each, even in release) that the execute stage
    // dominates, gaps between stages stay tiny, and the second worker
    // wakes before the first has drained the queue.
    let cfg = InfomapConfig {
        outer_loops: 3,
        ..InfomapConfig::default()
    };
    // Distinct clique counts => distinct fingerprints (same-seed-mod-3
    // weights would otherwise collide). The export check below looks for
    // shard 0's first worker, so the first graph (interactive, never
    // stolen) must home on shard 0 at the default shard count.
    let router = Router::new(
        ServeConfig::default().shards.max(1),
        ReplicationConfig::default(),
    );
    let first = (0..)
        .find(|&s| router.home(clique_ring(200 + s as usize, 8, s).fingerprint()) == 0)
        .expect("some ring homes on shard 0");
    let graphs: Vec<Arc<CsrGraph>> = (first..first + 8)
        .map(|s| clique_ring(200 + s as usize, 8, s))
        .collect();
    let handles: Vec<_> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let req = if i % 2 == 0 {
                Request::interactive(Arc::clone(g))
            } else {
                Request::batch(Arc::clone(g))
            };
            engine.submit(req.with_config(cfg.clone()))
        })
        .collect();
    let mut responses: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    for r in &responses {
        assert!(!r.cache_hit);
        assert_ne!(r.trace_id, 0, "recorder attached => real trace id");
    }

    // A repeat of a finished graph resolves from the cache — with its own
    // fresh trace id.
    let hit = engine
        .submit(Request::interactive(Arc::clone(&graphs[0])).with_config(cfg.clone()))
        .wait();
    assert!(hit.cache_hit);
    assert_ne!(hit.trace_id, 0);
    responses.push(hit);

    let mut ids: Vec<u64> = responses.iter().map(|r| r.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 9, "every submission mints a unique id");

    engine.shutdown();
    let snap = obs.trace_snapshot().expect("recorder attached");

    // One trace track per worker thread that ran work, named after it.
    // With `ASA_SERVE_SHARDS` > 1 (CI), work spreads across shards and
    // idle workers record nothing, so only the upper bound is exact.
    let shards = ServeConfig::default().shards.max(1);
    let worker_tracks = snap
        .threads
        .iter()
        .filter(|t| t.name.starts_with("asa-serve-"))
        .count();
    assert!(
        (1..=2 * shards).contains(&worker_tracks),
        "worker tracks: {worker_tracks} with {shards} shards"
    );
    if shards == 1 {
        assert_eq!(worker_tracks, 2, "8 graphs keep both workers busy");
    }

    // Every submission produced a closed request envelope, and the stage
    // tiling is complete on the worker-run ones.
    let attributed = attribute_requests(&snap, "request");
    assert_eq!(attributed.len(), 9);
    let by_trace: HashMap<u64, _> = attributed.iter().map(|r| (r.trace, r)).collect();
    for resp in &responses {
        let att = by_trace[&resp.trace_id];
        let stages: Vec<&str> = att.stages.iter().map(|&(n, _)| n).collect();
        assert!(stages.contains(&"fingerprint"), "stages: {stages:?}");
        assert!(stages.contains(&"cache_probe"), "stages: {stages:?}");
        if resp.cache_hit {
            assert!(!stages.contains(&"execute"), "hits never run: {stages:?}");
        } else {
            for want in ["queue", "dispatch", "execute", "respond"] {
                assert!(stages.contains(&want), "missing {want} in {stages:?}");
            }
            assert!(att.attributed_us() <= att.wall_us);
            if att.wall_us > 1_000 {
                assert!(
                    att.coverage() >= 0.95,
                    "stages must cover >=95% of a slow request, got {:.3}",
                    att.coverage()
                );
            }
        }
    }

    // The tail report (slowest quarter = the worker-run requests) agrees.
    let report = TailReport::from_snapshot(&snap, "request", 25.0);
    assert_eq!(report.requests, 9);
    assert_eq!(report.tail.len(), 3);
    assert!(report.min_coverage() >= 0.95);
    assert!(report.render().contains("(wall)"));

    // The Chrome export carries the async stage events, the infomap spans
    // recorded through the worker's handle, and the thread names.
    let text = chrome_trace_string(&snap);
    assert!(text.contains("asa-serve-0"));
    assert!(text.contains("\"ph\":\"b\"") && text.contains("\"ph\":\"e\""));
    assert!(text.contains("\"ph\":\"B\""), "infomap spans recorded");
    assert!(text.contains("\"id\":\"0x"));
}

#[test]
fn without_a_recorder_trace_ids_are_zero() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default() // disabled obs, no recorder
    });
    let r = engine
        .submit(Request::interactive(clique_ring(4, 5, 1)))
        .wait();
    assert_eq!(r.trace_id, 0, "no recorder => null id, zero overhead");
    engine.shutdown();
}

#[test]
fn deadline_and_shed_paths_still_close_their_envelopes() {
    let obs = Obs::new_enabled();
    obs.attach_recorder(1 << 12);
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_capacity_interactive: 1,
        queue_capacity_batch: 1,
        cache_capacity: 0,
        obs: obs.clone(),
        ..ServeConfig::default()
    });
    let graph = clique_ring(8, 6, 7);
    // Saturate the tiny queues so some submissions shed, and give others
    // an already-expired deadline.
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let req = Request::batch(Arc::clone(&graph));
            let req = if i % 3 == 0 {
                req.with_deadline(Duration::ZERO)
            } else {
                req
            };
            engine.submit(req)
        })
        .collect();
    let responses: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    engine.shutdown();

    let snap = obs.trace_snapshot().unwrap();
    let attributed = attribute_requests(&snap, "request");
    // Every submission — completed, shed, or expired — closed its
    // envelope exactly once.
    assert_eq!(attributed.len(), responses.len());
    let mut ids: Vec<u64> = attributed.iter().map(|r| r.trace).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), responses.len());
    for att in &attributed {
        assert!(
            att.stages.iter().any(|&(n, _)| n == "fingerprint"),
            "every request is fingerprinted inside its envelope: {:?}",
            att.stages
        );
    }
}
