//! End-to-end SLO acceptance: an induced overload burst drives the
//! health state machine Healthy → Degraded → Healthy, the transitions
//! land in the flight recorder as `slo.*` instants, and the scraped
//! Prometheus exposition carries non-empty per-shard queue-depth
//! time-series.
//!
//! Determinism: the collector is attached with an hours-long resolution
//! so its background thread never ticks on its own; every evaluation in
//! this test comes from an explicit `tick_collector` call.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use asa_graph::{CsrGraph, EdgeDelta, GraphBuilder};
use asa_obs::{expose, HealthState, Objective, Obs, SloConfig, Stat, TimeSeriesConfig, TraceKind};
use asa_serve::{ReplicationConfig, Request, ServeConfig, ServeEngine};

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
fn overload_burst_degrades_then_recovers_with_visible_transitions() {
    // Obs with a flight recorder AND a (manually ticked) collector — both
    // attached before engine start, as the SLO wiring requires.
    let obs = Obs::new_enabled();
    obs.attach_recorder(1 << 12);
    obs.attach_collector(TimeSeriesConfig {
        resolution: Duration::from_secs(3600),
        slots: 512,
    });

    // Objective: total queue depth at most 4 (max over 50 ms / 200 ms
    // burn windows). One burning evaluation degrades; two clean ones
    // recover.
    let slo = SloConfig {
        objectives: vec![Objective::at_most(
            "queue_depth",
            "serve.queue.depth",
            Stat::Max,
            4.0,
            0.05,
            0.2,
        )],
        degrade_after: 1,
        critical_after: 100,
        recover_after: 2,
    };
    let engine = ServeEngine::start(ServeConfig {
        shards: 2,
        workers: 1,
        steal: false,
        replication: ReplicationConfig {
            threshold: 0,
            ..ReplicationConfig::default()
        },
        cache_capacity: 0, // every request must run → real backlog
        degrade_depth: 0,  // ladder off: this test is about the SLO layer
        obs: obs.clone(),
        slo: Some(slo),
        ..ServeConfig::default()
    });
    assert_eq!(engine.health(), HealthState::Healthy);

    // Induced overload: 8× more concurrent batch work than the 2×1
    // workers can absorb (32 jobs), all submitted before anything drains.
    let graph_a = clique_ring(6, 6, 17);
    let graph_b = clique_ring(7, 6, 23);
    let handles: Vec<_> = (0..32)
        .map(|i| {
            let g = if i % 2 == 0 { &graph_a } else { &graph_b };
            engine.submit(Request::batch(Arc::clone(g)))
        })
        .collect();
    assert!(
        engine.queue_depth() > 8,
        "burst must actually back up the queues"
    );

    // Collector tick mid-burst: depth samples breach both burn windows →
    // one evaluation → Degraded.
    assert!(obs.tick_collector());
    assert_eq!(engine.health(), HealthState::Degraded);

    for h in handles {
        assert!(h.wait().outcome.result().is_some());
    }
    assert_eq!(engine.queue_depth(), 0);

    // Recovery: age the burst samples out of the long burn window, then
    // two clean evaluations step back down to Healthy (hysteresis).
    std::thread::sleep(Duration::from_millis(250));
    obs.tick_collector();
    assert_eq!(
        engine.health(),
        HealthState::Degraded,
        "one clean tick is not enough (recover_after = 2)"
    );
    obs.tick_collector();
    assert_eq!(engine.health(), HealthState::Healthy);

    // Transition instants are in the flight recorder, in order.
    let snap = obs.trace_snapshot().expect("recorder attached");
    let instants: Vec<(&str, u64)> = snap
        .threads
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e.kind, TraceKind::Instant) && e.name.starts_with("slo."))
        .map(|e| (e.name, e.t_us))
        .collect();
    let degraded_at = instants
        .iter()
        .find(|(n, _)| *n == "slo.degraded")
        .expect("degrade transition recorded")
        .1;
    let healthy_at = instants
        .iter()
        .find(|(n, _)| *n == "slo.healthy")
        .expect("recovery transition recorded")
        .1;
    assert!(degraded_at < healthy_at, "transitions in causal order");

    // Scraped exposition: valid text format, serve.health gauge, and a
    // non-empty queue-depth time-series for every shard.
    let server = expose::serve("127.0.0.1:0", obs.clone()).expect("bind scrape endpoint");
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let body = raw.split_once("\r\n\r\n").expect("http response").1;
    expose::validate(body).unwrap_or_else(|e| panic!("invalid exposition: {e:#?}"));
    assert!(body.contains("serve_health 0"), "recovered health gauge");
    for shard in 0..2 {
        let needle =
            format!("asa_timeseries_samples{{series=\"serve.shard.{shard}.queue.depth\"}}");
        let line = body
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("missing per-shard depth series: {needle}"));
        let samples: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(samples >= 3.0, "per-shard depth series non-empty: {line}");
    }
    drop(server);

    // The shutdown report narrates the whole episode.
    let report = engine.slo_report().expect("slo configured");
    assert!(report.contains("queue_depth"), "{report}");
    assert!(report.contains("degraded"), "{report}");
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 32);
}

#[test]
fn update_fallback_rate_objective_tracks_the_quality_guard() {
    // An SLO objective over the dynamic-graph telemetry: degrade when
    // more than half of the warm updates in the burn windows were forced
    // to a full multilevel run (`serve.update.fallback_permille` > 500).
    let obs = Obs::new_enabled();
    obs.attach_collector(TimeSeriesConfig {
        resolution: Duration::from_secs(3600),
        slots: 512,
    });
    let slo = SloConfig {
        objectives: vec![Objective::at_most(
            "update_fallback",
            "serve.update.fallback_permille",
            Stat::Max,
            500.0,
            0.05,
            0.2,
        )],
        degrade_after: 1,
        critical_after: 100,
        recover_after: 2,
    };
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        obs: obs.clone(),
        slo: Some(slo),
        ..ServeConfig::default()
    });
    let graph = clique_ring(6, 4, 11);

    // Cold seed: a full run by construction, not a guard decision, so
    // the fallback rate stays 0 and the engine stays Healthy.
    engine
        .submit(Request::update(Arc::clone(&graph), EdgeDelta::new()))
        .wait();
    assert!(obs.tick_collector());
    assert_eq!(engine.health(), HealthState::Healthy);

    // Densify every vertex pair: the old partition is globally invalid,
    // the quality guard falls back, and the warm fallback rate pins at
    // 1000 permille — one burning evaluation degrades.
    let mut storm = EdgeDelta::new();
    for u in 0..24u32 {
        for v in (u + 1)..24 {
            storm.insert(u, v, 6.0);
        }
    }
    let burst = engine
        .submit(Request::update(Arc::clone(&graph), storm))
        .wait();
    assert!(burst.update.expect("update info").fallback.is_some());
    assert!(obs.tick_collector());
    assert_eq!(engine.health(), HealthState::Degraded);

    // Two gentle local edits resolve incrementally, pulling the rate back
    // to 333 permille...
    for (u, v) in [(1u32, 2u32), (3, 5)] {
        let mut d = EdgeDelta::new();
        d.insert(u, v, 0.5);
        let r = engine.submit(Request::update(Arc::clone(&graph), d)).wait();
        assert!(
            r.update.expect("update info").incremental,
            "gentle edit must stay on the incremental path"
        );
    }
    // ...then aging the storm sample out of the long burn window plus two
    // clean evaluations recovers (hysteresis).
    std::thread::sleep(Duration::from_millis(250));
    obs.tick_collector();
    obs.tick_collector();
    assert_eq!(engine.health(), HealthState::Healthy);

    let stats = engine.shutdown();
    assert_eq!(stats.update_cold, 1);
    assert_eq!(stats.update_fallback, 1);
    assert_eq!(stats.update_incremental, 2);
}

#[test]
fn engine_without_slo_config_is_always_healthy() {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let r = engine
        .submit(Request::interactive(clique_ring(3, 4, 5)))
        .wait();
    assert!(r.outcome.result().is_some());
    assert_eq!(engine.health(), HealthState::Healthy);
    assert!(engine.slo_report().is_none());
    engine.shutdown();
}

#[test]
fn slo_evaluations_ride_the_background_collector_thread() {
    // A real (fast) collector drives evaluations with no manual ticks:
    // an idle engine stays Healthy while the health gauge gets set by
    // the observer on every tick.
    let obs = Obs::new_enabled();
    obs.attach_collector(TimeSeriesConfig {
        resolution: Duration::from_millis(5),
        slots: 128,
    });
    let slo = SloConfig {
        objectives: vec![Objective::at_most(
            "queue_depth",
            "serve.queue.depth",
            Stat::Max,
            4.0,
            0.05,
            0.2,
        )],
        ..SloConfig::default()
    };
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        obs: obs.clone(),
        slo: Some(slo),
        ..ServeConfig::default()
    });
    let store = obs.timeseries().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while store.ticks() < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(store.ticks() >= 5, "collector thread must tick");
    assert_eq!(engine.health(), HealthState::Healthy);
    obs.stop_background();
    engine.shutdown();
}
