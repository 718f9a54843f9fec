//! Integration coverage of the sharded engine: routing determinism,
//! work-stealing liveness, steal-vs-affinity invariants under concurrent
//! submit/shutdown, per-shard statistics, the per-shard flight-recorder
//! counter tracks, and the per-shard gauges a `/metrics` scrape serves.
//!
//! Tests that pin shard counts construct an explicit [`ServeConfig`]
//! rather than relying on `ASA_SERVE_SHARDS` (which parametrizes the
//! *default*-config suites in CI).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use asa_graph::{CsrGraph, GraphBuilder};
use asa_obs::{expose, Obs, TraceKind};
use asa_serve::{Outcome, Priority, ReplicationConfig, Request, Router, ServeConfig, ServeEngine};

/// How long an idle shard worker waits on its own queue before it tries
/// to steal (the engine's private `STEAL_POLL`). The steal tests only
/// hold when each job keeps the home shard busy for longer than this.
const STEAL_POLL: Duration = Duration::from_millis(2);

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

/// Pure-affinity replication policy (threshold 0 disables replication).
fn no_replication() -> ReplicationConfig {
    ReplicationConfig {
        threshold: 0,
        ..ReplicationConfig::default()
    }
}

fn sharded_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        workers: 1,
        steal: false,
        replication: no_replication(),
        cache_capacity: 0, // force every request to run
        ..ServeConfig::default()
    }
}

#[test]
fn routing_is_deterministic_per_fingerprint() {
    // Affinity only: no stealing, no replication. Every submission of a
    // graph must execute on its fingerprint's home shard, run after run.
    let engine = ServeEngine::start(sharded_config(4));
    let router = Router::new(4, no_replication());
    let graphs: Vec<Arc<CsrGraph>> = (0..5).map(|s| clique_ring(4 + s as usize, 5, s)).collect();
    for graph in &graphs {
        let home = router.home(graph.fingerprint());
        for _ in 0..3 {
            let r = engine.submit(Request::batch(Arc::clone(graph))).wait();
            assert!(r.outcome.result().is_some());
            assert!(!r.stolen);
            assert_eq!(
                r.shard, home,
                "same fingerprint must land on the same shard at a fixed shard count"
            );
        }
    }
    let stats = engine.shutdown();
    // Work executed only on the shards the fingerprints map to.
    for s in &stats.shards {
        let homes_here = graphs
            .iter()
            .filter(|g| router.home(g.fingerprint()) == s.shard)
            .count();
        assert_eq!(s.executed_local as usize, 3 * homes_here, "{s:?}");
        assert_eq!(s.steals_in, 0);
        assert_eq!(s.steals_out, 0);
    }
    assert_eq!(stats.steals, 0);
    assert_eq!(stats.replications, 0);
}

#[test]
fn idle_shard_steals_batch_backlog() {
    // Two shards, one worker each, stealing on. Every job targets one
    // graph — one home shard — so the other shard is idle and must drain
    // the backlog by stealing. Each job is large enough (milliseconds even
    // in release) that the backlog outlives the thief's first poll.
    let engine = ServeEngine::start(ServeConfig {
        steal: true,
        ..sharded_config(2)
    });
    let graph = clique_ring(400, 8, 3);
    let home = Router::new(2, no_replication()).home(graph.fingerprint());
    let thief = 1 - home;
    let handles: Vec<_> = (0..12)
        .map(|_| engine.submit(Request::batch(Arc::clone(&graph))))
        .collect();
    let mut stolen = 0usize;
    let mut fastest = Duration::MAX;
    for h in handles {
        let r = h.wait();
        assert!(r.outcome.result().is_some());
        fastest = fastest.min(r.service);
        if r.stolen {
            stolen += 1;
            assert_eq!(r.shard, thief, "a stolen job reports its executing shard");
        } else {
            assert_eq!(r.shard, home);
        }
    }
    let stats = engine.shutdown();
    assert!(
        fastest > STEAL_POLL,
        "premise: every job must outlast a steal poll, but one ran in {fastest:?}"
    );
    assert!(stolen > 0, "the idle shard must relieve the busy one");
    assert_eq!(stats.steals as usize, stolen);
    assert_eq!(stats.shards[thief].steals_in as usize, stolen);
    assert_eq!(stats.shards[home].steals_out as usize, stolen);
    assert_eq!(
        stats.shards[home].executed_local + stats.steals,
        12,
        "local execution + steals account for every job"
    );
}

#[test]
fn interactive_stays_affine_even_with_stealing_on() {
    // Interactive backlog on one shard, stealing enabled: the idle shard
    // must NOT take interactive work — affinity is the latency promise.
    let engine = ServeEngine::start(ServeConfig {
        steal: true,
        ..sharded_config(2)
    });
    let graph = clique_ring(8, 6, 4);
    let home = Router::new(2, no_replication()).home(graph.fingerprint());
    let handles: Vec<_> = (0..8)
        .map(|_| engine.submit(Request::interactive(Arc::clone(&graph))))
        .collect();
    for h in handles {
        let r = h.wait();
        assert!(r.outcome.result().is_some());
        assert!(!r.stolen, "interactive jobs are never stolen");
        assert_eq!(r.shard, home);
    }
    let stats = engine.shutdown();
    assert_eq!(stats.steals, 0);
    assert_eq!(stats.shards[home].executed_local, 8);
}

#[test]
fn hot_graph_replication_spreads_shards() {
    // Aggressive replication: a burst on one fingerprint grows its
    // routing set, so executions spread beyond the home shard without
    // stealing. Cache off so round-robined requests actually run.
    let engine = ServeEngine::start(ServeConfig {
        replication: ReplicationConfig {
            threshold: 4,
            window: Duration::from_secs(60),
            max_replicas: 3,
        },
        ..sharded_config(4)
    });
    let graph = clique_ring(6, 5, 5);
    let handles: Vec<_> = (0..24)
        .map(|_| engine.submit(Request::batch(Arc::clone(&graph))))
        .collect();
    let mut shards_seen = std::collections::HashSet::new();
    for h in handles {
        let r = h.wait();
        assert!(r.outcome.result().is_some());
        assert!(!r.stolen);
        shards_seen.insert(r.shard);
    }
    let stats = engine.shutdown();
    assert_eq!(stats.replications, 2, "threshold crossed once per replica");
    assert_eq!(shards_seen.len(), 3, "routing set round-robins 3 shards");
    let hosted: u64 = stats.shards.iter().map(|s| s.replicas_hosted).sum();
    assert_eq!(hosted, 2);
}

#[test]
fn steal_vs_affinity_invariants_under_concurrent_submit_and_shutdown() {
    // Hammer a 3-shard engine from 4 submitter threads while the main
    // thread shuts it down mid-stream. Invariants: every request
    // terminates in exactly one outcome, interactive work is never
    // stolen, and a response's shard differs from its home only when
    // marked stolen.
    let engine = Arc::new(ServeEngine::start(ServeConfig {
        shards: 3,
        workers: 1,
        steal: true,
        replication: no_replication(),
        cache_capacity: 8,
        queue_capacity_interactive: 4,
        queue_capacity_batch: 8,
        ..ServeConfig::default()
    }));
    let router = Router::new(3, no_replication());
    let graphs: Vec<Arc<CsrGraph>> = (0..4).map(|s| clique_ring(5, 5, 30 + s)).collect();

    let submitters: Vec<_> = (0..4)
        .map(|t: usize| {
            let engine = Arc::clone(&engine);
            let graphs = graphs.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for i in 0..32 {
                    let graph = Arc::clone(&graphs[(t + i) % graphs.len()]);
                    let fp = graph.fingerprint();
                    let req = if i % 3 == 0 {
                        Request::interactive(graph)
                    } else {
                        Request::batch(graph)
                    };
                    out.push((req.priority, fp, engine.submit(req)));
                }
                out
            })
        })
        .collect();

    // Shut down while submitters are likely still pushing: late submits
    // resolve Overloaded (closed queues), queued ones drain.
    std::thread::sleep(Duration::from_millis(5));
    let all: Vec<_> = submitters
        .into_iter()
        .flat_map(|s| s.join().expect("submitter must not panic"))
        .collect();
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("all clones dropped"));
    let stats = engine.shutdown();

    let mut terminated = 0usize;
    for (priority, fp, handle) in &all {
        let r = handle.try_get().expect("shutdown resolves every request");
        terminated += 1;
        match r.outcome {
            Outcome::Ok(_) | Outcome::Degraded { .. } => {
                if *priority == Priority::Interactive {
                    assert!(!r.stolen, "interactive must stay affine");
                }
                if r.stolen {
                    assert_ne!(r.shard, router.home(*fp));
                } else {
                    assert_eq!(r.shard, router.home(*fp), "unstolen runs on the home shard");
                }
            }
            Outcome::Overloaded | Outcome::DeadlineExceeded | Outcome::Rejected { .. } => {}
        }
    }
    assert_eq!(terminated, all.len());
    assert_eq!(stats.submitted as usize, all.len());
    assert_eq!(
        stats.completed + stats.shed + stats.deadline_exceeded,
        stats.submitted,
        "accounting must balance: {stats:?}"
    );
    let local: u64 = stats.shards.iter().map(|s| s.executed_local).sum();
    let steals_in: u64 = stats.shards.iter().map(|s| s.steals_in).sum();
    let steals_out: u64 = stats.shards.iter().map(|s| s.steals_out).sum();
    assert_eq!(steals_in, stats.steals);
    assert_eq!(steals_out, stats.steals);
    assert!(local + steals_in >= stats.completed - stats.cache_hits);
}

#[test]
fn cache_hits_attribute_to_the_home_shard_under_pure_affinity() {
    // Affinity-only routing with the cache on: every repeat hit lands on
    // (and attributes to) the graph's home shard as a *home* hit.
    let engine = ServeEngine::start(ServeConfig {
        cache_capacity: 64,
        ..sharded_config(2)
    });
    let graph = clique_ring(4, 5, 7);
    let home = Router::new(2, no_replication()).home(graph.fingerprint());
    for i in 0..4 {
        let r = engine.submit(Request::batch(Arc::clone(&graph))).wait();
        assert_eq!(r.cache_hit, i > 0, "first computes, the rest hit");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.cache_hits, 3);
    let s = &stats.shards[home];
    assert_eq!(s.cache_hits, 3);
    assert_eq!(
        s.cache_hits_home, 3,
        "pure affinity: all hits are home hits"
    );
    assert_eq!(s.cache_hits_replica, 0);
    assert_eq!(s.cache_hits_stolen, 0);
    let other = &stats.shards[1 - home];
    assert_eq!(other.cache_hits, 0);
    for s in &stats.shards {
        assert_eq!(
            s.cache_hits,
            s.cache_hits_home + s.cache_hits_replica + s.cache_hits_stolen,
            "affinity split must account for every hit: {s:?}"
        );
    }
}

#[test]
fn replica_routed_hits_attribute_as_replica_hits() {
    // Aggressive replication with the cache on: once the hot graph's
    // routing set grows, round-robined submissions hit the cache while
    // routed to a *replica* shard, and attribute there as replica hits.
    let engine = ServeEngine::start(ServeConfig {
        replication: ReplicationConfig {
            threshold: 3,
            window: Duration::from_secs(60),
            max_replicas: 2,
        },
        cache_capacity: 64,
        ..sharded_config(2)
    });
    let graph = clique_ring(5, 5, 11);
    let home = Router::new(2, no_replication()).home(graph.fingerprint());
    for _ in 0..12 {
        let r = engine.submit(Request::batch(Arc::clone(&graph))).wait();
        assert!(r.outcome.result().is_some());
    }
    let stats = engine.shutdown();
    assert!(
        stats.replications >= 1,
        "the burst must trigger replication"
    );
    let replica_hits: u64 = stats.shards.iter().map(|s| s.cache_hits_replica).sum();
    assert!(
        replica_hits > 0,
        "round-robined admissions must hit on the replica shard: {:?}",
        stats.shards
    );
    // Replica hits land off the home shard; home hits on it.
    assert_eq!(stats.shards[home].cache_hits_replica, 0);
    assert!(stats.shards[home].cache_hits_home > 0);
    assert_eq!(stats.shards[1 - home].cache_hits_home, 0);
    for s in &stats.shards {
        assert_eq!(
            s.cache_hits,
            s.cache_hits_home + s.cache_hits_replica + s.cache_hits_stolen
        );
    }
}

#[test]
fn stolen_jobs_report_their_late_cache_hits_as_stolen() {
    // Engineered steal-then-hit: the home shard's single worker is pinned
    // down by interactive fillers (never stealable), while two identical
    // batch jobs for the target graph wait behind them. The idle shard
    // steals the first (computes, fills the cache), then steals the
    // second — which now finds the cache filled. That late hit must
    // attribute to the *routed* shard's stolen-hit counter.
    let engine = ServeEngine::start(ServeConfig {
        steal: true,
        cache_capacity: 64,
        ..sharded_config(2)
    });
    let target = clique_ring(2, 4, 13);
    let router = Router::new(2, no_replication());
    let home = router.home(target.fingerprint());

    // Fillers routed to the same home shard, structurally distinct (so
    // none hits the cache) and big enough (milliseconds each, even in
    // release) that the home worker stays busy while the thief clears
    // both batch jobs.
    let fillers: Vec<Arc<CsrGraph>> = (0..40u64)
        .map(|s| clique_ring(400 + s as usize, 8, 100 + s))
        .filter(|g| router.home(g.fingerprint()) == home)
        .take(6)
        .collect();
    assert!(fillers.len() == 6, "need 6 home-routed filler graphs");
    let mut handles: Vec<_> = fillers
        .iter()
        .map(|g| engine.submit(Request::interactive(Arc::clone(g))))
        .collect();
    handles.push(engine.submit(Request::batch(Arc::clone(&target))));
    handles.push(engine.submit(Request::batch(Arc::clone(&target))));
    let mut fastest_filler = Duration::MAX;
    for (i, h) in handles.iter().enumerate() {
        let r = h.wait();
        assert!(r.outcome.result().is_some());
        if i < fillers.len() {
            fastest_filler = fastest_filler.min(r.service);
        }
    }
    let stats = engine.shutdown();
    assert!(
        fastest_filler > STEAL_POLL,
        "premise: every filler must outlast a steal poll, but one ran in {fastest_filler:?}"
    );
    let s = &stats.shards[home];
    assert!(
        s.cache_hits_stolen > 0,
        "the second stolen job must observe the first one's cache fill: {:?}",
        stats.shards
    );
    assert_eq!(
        s.cache_hits,
        s.cache_hits_home + s.cache_hits_replica + s.cache_hits_stolen
    );
}

#[test]
fn per_shard_depth_counter_tracks_recorded() {
    // With a flight recorder attached, pushes emit both the aggregate
    // `serve.queue.depth` track and the routed shard's
    // `serve.shard.N.queue.depth` track.
    let obs = Obs::new_enabled();
    obs.attach_recorder(1 << 12);
    let engine = ServeEngine::start(ServeConfig {
        obs: obs.clone(),
        steal: true,
        ..sharded_config(2)
    });
    let graphs: Vec<Arc<CsrGraph>> = (0..4)
        .map(|s| clique_ring(4 + s as usize, 5, 40 + s))
        .collect();
    let handles: Vec<_> = graphs
        .iter()
        .flat_map(|g| (0..3).map(|_| engine.submit(Request::batch(Arc::clone(g)))))
        .collect();
    for h in handles {
        assert!(h.wait().outcome.result().is_some());
    }
    let stats = engine.shutdown();
    let snap = obs.trace_snapshot().expect("recorder attached");
    let counter_names: std::collections::HashSet<&str> = snap
        .threads
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e.kind, TraceKind::Counter(_)))
        .map(|e| e.name)
        .collect();
    assert!(counter_names.contains("serve.queue.depth"));
    for s in &stats.shards {
        if s.executed_local + s.steals_out > 0 {
            let name = format!("serve.shard.{}.queue.depth", s.shard);
            assert!(
                counter_names.contains(name.as_str()),
                "missing {name}; have {counter_names:?}"
            );
        }
    }
}

#[test]
fn scraped_metrics_carry_per_shard_queue_depth_gauges() {
    // An overload burst on two shards, then a live `/metrics` scrape: the
    // body is valid text format, every shard exposes its queue-depth
    // gauge, and the engine-wide high-water mark saw the backlog.
    let obs = Obs::new_enabled();
    let engine = ServeEngine::start(ServeConfig {
        obs: obs.clone(),
        degrade_depth: 0,
        ..sharded_config(2)
    });
    let graphs = [clique_ring(6, 6, 17), clique_ring(7, 6, 23)];
    let handles: Vec<_> = (0..32)
        .map(|i| engine.submit(Request::batch(Arc::clone(&graphs[i % 2]))))
        .collect();
    assert!(
        engine.queue_depth() > 8,
        "burst must actually back up the queues"
    );
    for h in handles {
        assert!(h.wait().outcome.result().is_some());
    }

    let server = expose::serve("127.0.0.1:0", obs.clone()).expect("bind scrape endpoint");
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    drop(server);
    let body = raw.split_once("\r\n\r\n").expect("http response").1;
    expose::validate(body).unwrap_or_else(|e| panic!("invalid exposition: {e:#?}"));
    let value = |name: &str| -> f64 {
        let line = body
            .lines()
            .find(|l| l.split(' ').next() == Some(name))
            .unwrap_or_else(|| panic!("missing gauge {name}"));
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    for shard in 0..2 {
        assert_eq!(value(&format!("serve_shard_{shard}_queue_depth")), 0.0);
        value(&format!("serve_shard_{shard}_queue_depth_max"));
    }
    assert!(value("serve_queue_depth_max") > 8.0);
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 32);
}
