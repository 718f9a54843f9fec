//! Overload stress tests for the serving engine — the acceptance
//! criteria of the serving layer:
//!
//! * under sustained overload the engine never panics or deadlocks,
//! * queue depth never exceeds the configured bound,
//! * every submitted request terminates in exactly one of
//!   `Ok` / `Degraded` / `Overloaded` / `DeadlineExceeded` / `Rejected`,
//!   malformed updates included,
//! * overload actually sheds (`Overloaded` occurs), and
//! * the degradation ladder fires for batch work under pressure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use asa_graph::{CsrGraph, EdgeDelta, GraphBuilder};
use asa_infomap::InfomapConfig;
use asa_serve::{Outcome, Priority, Request, ServeConfig, ServeEngine};

/// A ring of cliques: enough structure that Infomap does real work, small
/// enough that a stress test stays fast.
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
fn overload_never_panics_every_request_terminates() {
    const QUEUE_INTERACTIVE: usize = 4;
    const QUEUE_BATCH: usize = 8;
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 64;
    /// Every 11th submission is an update naming a vertex outside its
    /// base graph.
    const MALFORMED_EVERY: usize = 11;

    let engine = Arc::new(ServeEngine::start(ServeConfig {
        workers: 2,
        queue_capacity_interactive: QUEUE_INTERACTIVE,
        queue_capacity_batch: QUEUE_BATCH,
        cache_capacity: 16,
        cache_shards: 4,
        cache_ttl: Duration::from_secs(60),
        degrade_depth: 2,
        ..ServeConfig::default()
    }));

    // A few distinct graphs so the cache absorbs some load but not all.
    let graphs: Vec<Arc<CsrGraph>> = (0..6).map(|s| clique_ring(8, 6, s)).collect();

    let max_depth_seen = Arc::new(AtomicUsize::new(0));
    let counts = Arc::new([
        AtomicUsize::new(0), // ok
        AtomicUsize::new(0), // degraded
        AtomicUsize::new(0), // overloaded
        AtomicUsize::new(0), // deadline_exceeded
        AtomicUsize::new(0), // rejected
    ]);

    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let graphs = graphs.clone();
            let max_depth_seen = Arc::clone(&max_depth_seen);
            let counts = Arc::clone(&counts);
            std::thread::spawn(move || {
                let mut handles = Vec::with_capacity(PER_SUBMITTER);
                for i in 0..PER_SUBMITTER {
                    let graph = Arc::clone(&graphs[(t + i) % graphs.len()]);
                    let mut req = if i % MALFORMED_EVERY == MALFORMED_EVERY - 1 {
                        let mut delta = EdgeDelta::new();
                        delta.insert(0, graph.num_nodes() as u32, 1.0);
                        Request::update(graph, delta)
                    } else if i % 3 == 0 {
                        Request::interactive(graph)
                    } else {
                        Request::batch(graph)
                    };
                    if i % 7 == 0 {
                        // Mix of generous and already-hopeless deadlines.
                        let ms = if i % 14 == 0 { 0 } else { 30_000 };
                        req = req.with_deadline(Duration::from_millis(ms));
                    }
                    handles.push(engine.submit(req));
                    max_depth_seen.fetch_max(engine.queue_depth(), Ordering::Relaxed);
                }
                for h in handles {
                    let response = h.wait();
                    let slot = match response.outcome {
                        Outcome::Ok(ref r) | Outcome::Degraded { result: ref r, .. } => {
                            // Any returned partition is complete and valid.
                            assert_eq!(r.partition.len(), graphs[0].num_nodes());
                            assert!(r.codelength.is_finite());
                            if matches!(response.outcome, Outcome::Ok(_)) {
                                0
                            } else {
                                1
                            }
                        }
                        Outcome::Overloaded => 2,
                        Outcome::DeadlineExceeded => 3,
                        Outcome::Rejected { .. } => 4,
                    };
                    counts[slot].fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    for s in submitters {
        s.join().expect("submitter thread must not panic");
    }

    let stats = engine.stats();
    let resolved: usize = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(
        resolved,
        SUBMITTERS * PER_SUBMITTER,
        "every request terminates in exactly one outcome"
    );
    assert_eq!(stats.submitted as usize, SUBMITTERS * PER_SUBMITTER);
    // Queue capacities are per shard; the engine-wide bound scales with
    // the shard count (`ASA_SERVE_SHARDS` in CI).
    let shards = ServeConfig::default().shards.max(1);
    assert!(
        max_depth_seen.load(Ordering::Relaxed) <= (QUEUE_INTERACTIVE + QUEUE_BATCH) * shards,
        "queue depth must stay within the configured per-shard bounds"
    );
    assert_eq!(stats.shards.len(), shards);
    let shard_shed: u64 = stats.shards.iter().map(|s| s.shed).sum();
    assert_eq!(
        shard_shed, stats.shed,
        "every shed attributes to exactly one shard"
    );
    let shard_hits: u64 = stats.shards.iter().map(|s| s.cache_hits).sum();
    assert_eq!(shard_hits, stats.cache_hits);
    assert!(
        stats.completed + stats.shed + stats.deadline_exceeded + stats.rejected == stats.submitted,
        "engine accounting must balance: {stats:?}"
    );
    let malformed = SUBMITTERS * (PER_SUBMITTER / MALFORMED_EVERY);
    assert_eq!(stats.rejected as usize, malformed);
    assert_eq!(counts[4].load(Ordering::Relaxed), malformed);
    assert!(stats.cache_hits > 0, "repeated graphs must hit the cache");

    // The concurrent phase may or may not shed, depending on how the
    // scheduler interleaves submitters and workers (fast workers cache
    // all six keys and later submissions hit at admission). Force the
    // overload deterministically: a burst of slow, cache-cold jobs
    // (distinct configs => distinct keys) against the tiny batch queues.
    // Workers can't drain multi-millisecond jobs inside a tight submit
    // loop, so pushes must find the queues full.
    let slow = clique_ring(24, 8, 99);
    let burst: Vec<_> = (0..64)
        .map(|i| {
            let cfg = InfomapConfig {
                max_sweeps: 50 + i,
                outer_loops: 4,
                ..InfomapConfig::default()
            };
            engine.submit(Request::batch(Arc::clone(&slow)).with_config(cfg))
        })
        .collect();
    let burst_shed = burst
        .into_iter()
        .filter(|h| matches!(h.wait().outcome, Outcome::Overloaded))
        .count();
    assert!(
        burst_shed > 0,
        "an overloaded engine must shed: tiny queues, 64 slow cache-cold jobs"
    );

    // Cleanly drains whatever is still queued.
    let final_stats = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("all clones dropped"))
        .shutdown();
    assert_eq!(final_stats.queue_depth_last, 0);
    assert!(
        final_stats.completed
            + final_stats.shed
            + final_stats.deadline_exceeded
            + final_stats.rejected
            == final_stats.submitted,
        "final accounting must balance: {final_stats:?}"
    );
}

#[test]
fn pressure_degrades_batch_before_shedding() {
    // One worker, deep batch queue, degrade threshold 1: every batch job
    // dequeued while others wait runs degraded.
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_capacity_interactive: 4,
        queue_capacity_batch: 64,
        cache_capacity: 0, // force every request to run
        degrade_depth: 1,
        ..ServeConfig::default()
    });
    let graph = clique_ring(6, 5, 1);
    let handles: Vec<_> = (0..24)
        .map(|_| engine.submit(Request::batch(Arc::clone(&graph))))
        .collect();
    let mut degraded = 0usize;
    for h in handles {
        match h.wait().outcome {
            Outcome::Degraded { .. } => degraded += 1,
            Outcome::Ok(_) => {}
            other => panic!("unexpected outcome under pressure: {}", other.name()),
        }
    }
    assert!(
        degraded > 0,
        "queue pressure must lower batch quality before shedding"
    );
    let stats = engine.shutdown();
    assert_eq!(stats.degraded_pressure as usize, degraded);
    assert_eq!(stats.shed, 0, "nothing sheds while the queue has room");
}

#[test]
fn interactive_never_degraded_by_pressure() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_capacity_interactive: 64,
        queue_capacity_batch: 64,
        cache_capacity: 0,
        degrade_depth: 1, // aggressive ladder — must still spare interactive
        ..ServeConfig::default()
    });
    let graph = clique_ring(6, 5, 2);
    let handles: Vec<_> = (0..24)
        .map(|_| engine.submit(Request::interactive(Arc::clone(&graph))))
        .collect();
    for h in handles {
        assert!(
            matches!(h.wait().outcome, Outcome::Ok(_)),
            "interactive requests are never quality-degraded by load"
        );
    }
    let stats = engine.shutdown();
    assert_eq!(stats.degraded_pressure, 0);
}

#[test]
fn tight_deadline_terminates_promptly_with_valid_or_no_result() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    // A slower config so mid-run expiry is plausible alongside
    // queue-expiry; either way the request must terminate quickly.
    let graph = clique_ring(24, 8, 3);
    let cfg = InfomapConfig {
        outer_loops: 8,
        max_sweeps: 200,
        ..InfomapConfig::default()
    };
    let handles: Vec<_> = (0..8)
        .map(|i| {
            engine.submit(
                Request::batch(Arc::clone(&graph))
                    .with_config(cfg.clone())
                    .with_deadline(Duration::from_micros(200 * (i as u64 + 1))),
            )
        })
        .collect();
    for h in handles {
        let response = h.wait();
        match response.outcome {
            Outcome::DeadlineExceeded => {}
            Outcome::Degraded { ref result, .. } | Outcome::Ok(ref result) => {
                // If it raced the deadline and finished (or stopped at a
                // sweep boundary), the partition is complete and valid.
                assert_eq!(result.partition.len(), graph.num_nodes());
                assert!(result.codelength.is_finite());
            }
            Outcome::Overloaded => panic!("queues are large enough not to shed here"),
            Outcome::Rejected { .. } => panic!("only detects are submitted here"),
        }
    }
    engine.shutdown();
}

#[test]
fn cache_distinguishes_ttl_expiry_from_lru_eviction() {
    // Single-shard cache of capacity 2 with a short TTL. Three distinct
    // graphs inserted back-to-back force exactly one LRU eviction of a
    // *live* entry; re-requesting a cached graph after the TTL elapses
    // drops it as *expired*. The two must be counted separately.
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        cache_capacity: 2,
        cache_shards: 1,
        cache_ttl: Duration::from_millis(40),
        ..ServeConfig::default()
    });
    let graphs: Vec<Arc<CsrGraph>> = (0..3).map(|s| clique_ring(4, 5, 20 + s)).collect();

    // Sequential waits keep the insert order deterministic: g0, g1 fill
    // the shard, g2 evicts the live LRU entry (g0).
    for g in &graphs {
        let r = engine.submit(Request::interactive(Arc::clone(g))).wait();
        assert!(!r.cache_hit);
    }
    let mid = engine.stats();
    assert_eq!(mid.cache_evicted, 1, "third insert evicts the live LRU");
    assert_eq!(mid.cache_expired, 0, "nothing has aged out yet");

    // Past the TTL, a resident entry is dropped on touch as expired — not
    // as an eviction.
    std::thread::sleep(Duration::from_millis(60));
    let r = engine
        .submit(Request::interactive(Arc::clone(&graphs[1])))
        .wait();
    assert!(!r.cache_hit, "expired entry must not be served");
    let stats = engine.shutdown();
    assert_eq!(stats.cache_evicted, 1, "expiry must not count as eviction");
    assert!(
        stats.cache_expired >= 1,
        "TTL drop must count as expiry: {stats:?}"
    );
}

#[test]
fn priority_classes_share_the_engine() {
    // Interleave classes and distinct graphs; everything resolves, and
    // per-class latency histograms both record.
    let engine = ServeEngine::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let a = clique_ring(4, 5, 10);
    let b = clique_ring(5, 4, 11);
    let handles: Vec<_> = (0..20)
        .map(|i| {
            let graph = if i % 2 == 0 { &a } else { &b };
            let req = if i % 2 == 0 {
                Request::interactive(Arc::clone(graph))
            } else {
                Request::batch(Arc::clone(graph))
            };
            (req.priority, engine.submit(req))
        })
        .collect();
    for (_, h) in &handles {
        assert!(h.wait().outcome.result().is_some());
    }
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 20);
    assert!(stats.latency_interactive.count >= 10);
    assert!(stats.latency_batch.count >= 10);
    assert!(stats.latency_interactive.p50_us >= 0.0);
    let _ = (Priority::Interactive.name(), Priority::Batch.name());
}
