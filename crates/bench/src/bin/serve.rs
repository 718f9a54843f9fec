//! Serving-layer load generator: open-loop arrivals against
//! [`asa_serve::ServeEngine`] at several offered-load levels, swept
//! across engine shard counts.
//!
//! The generator builds a pool of synthetic graphs (Barabási–Albert,
//! R-MAT, and LFR families at two sizes each), estimates a *single
//! worker's* service capacity from sequential runs, then drives a fresh
//! engine at several multiples of that capacity with fixed interarrival
//! times — open loop: submission never waits for completions, exactly the
//! arrival process that exposes queueing, degradation, and shedding
//! behaviour. The same absolute offered loads repeat for shards ∈
//! {1, 2, 4} (one worker per shard), so the scaling curve isolates what
//! sharding buys: aggregate queue capacity, replication, and stealing.
//!
//! Per level it reports exact p50/p95/p99 latency over the resolved
//! requests (computed from the collected samples, not histogram buckets)
//! with the queue-wait and service components separated, the caller's
//! cost of each `submit` call, throughput, cache hit rate, shed rate, and
//! steal/replication counts. Writes
//! `BENCH_serve.json` into the working directory (override with
//! `ASA_SERVE_OUT`): the top-level `levels` array is the shards=1 curve
//! (the historical schema), `shard_sweep` carries every shard count.
//!
//! `--smoke` shrinks the graph pool and request counts for CI.
//! `--shards N` restricts the sweep to one shard count; `--no-steal`
//! disables work stealing (`--steal` re-enables it explicitly).
//! Telemetry: `--obs-dir <dir>` (also `ASA_OBS_DIR`) streams per-level
//! records and the engine's serving metrics (queue-depth gauges,
//! per-class latency histograms, counters) into `<dir>/obs.jsonl`, prints
//! a tail-latency attribution for the slowest `ASA_TAIL_PCT`% of requests
//! (default 5%), and writes `trace.json` (load it at
//! <https://ui.perfetto.dev>), `metrics.prom`, `prof.folded` and
//! `prof.svg` (the span profile: exact self µs per span path, and its
//! flamegraph) and each engine's shutdown black-box bundle
//! `blackbox.json` there.
//! `--progress` (`ASA_PROGRESS=1`) prints per-record heartbeat lines.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asa_bench::{fmt_count, fmt_pct, fmt_secs, render_table, run_metadata, scale_div, ObsArgs};
use asa_graph::generators::{barabasi_albert, lfr_benchmark, rmat, LfrConfig, RmatConfig};
use asa_graph::CsrGraph;
use asa_infomap::{detect_communities, InfomapConfig};
use asa_obs::record;
use asa_serve::{Outcome, Request, ServeConfig, ServeEngine};

struct Workload {
    family: &'static str,
    graph: Arc<CsrGraph>,
}

/// Two sizes per family; `--smoke` keeps only the small ones.
fn build_pool(smoke: bool) -> Vec<Workload> {
    let mut pool = Vec::new();
    let ba_sizes: &[(usize, usize)] = if smoke {
        &[(800, 4)]
    } else {
        &[(3_000, 4), (8_000, 5)]
    };
    for (i, &(n, m)) in ba_sizes.iter().enumerate() {
        pool.push(Workload {
            family: "ba",
            graph: Arc::new(barabasi_albert(n, m, 42 + i as u64)),
        });
    }
    let rmat_scales: &[u32] = if smoke { &[9] } else { &[11, 12] };
    for (i, &scale) in rmat_scales.iter().enumerate() {
        pool.push(Workload {
            family: "rmat",
            graph: Arc::new(rmat(&RmatConfig::graph500(scale, 8), 7 + i as u64)),
        });
    }
    let lfr_sizes: &[usize] = if smoke { &[600] } else { &[1_200, 2_500] };
    for (i, &n) in lfr_sizes.iter().enumerate() {
        let cfg = LfrConfig {
            n,
            ..LfrConfig::default()
        };
        pool.push(Workload {
            family: "lfr",
            graph: Arc::new(lfr_benchmark(&cfg, 11 + i as u64).graph),
        });
    }
    pool
}

/// A few distinct configurations per graph, so the cache key space is
/// larger than the graph pool: repeated keys produce hits while the rest
/// keeps the workers busy enough for queueing behaviour to show.
fn config_variants() -> Vec<InfomapConfig> {
    [20usize, 12, 8]
        .iter()
        .map(|&max_sweeps| InfomapConfig {
            max_sweeps,
            ..InfomapConfig::default()
        })
        .collect()
}

/// Exact nearest-rank percentile over resolved-latency samples.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// p50/p95/p99 triple over unsorted samples, in their own unit.
fn pct_triple(samples: &mut [u64]) -> (f64, f64, f64) {
    samples.sort_unstable();
    (
        percentile_us(samples, 0.50),
        percentile_us(samples, 0.95),
        percentile_us(samples, 0.99),
    )
}

/// Mean sequential service time over one pass of the pool: the basis of
/// the single-worker capacity estimate (`1 / mean_service`).
fn estimate_service(pool: &[Workload], cfg: &InfomapConfig) -> Duration {
    let t = Instant::now();
    for w in pool {
        let _ = detect_communities(&w.graph, cfg);
    }
    t.elapsed() / pool.len() as u32
}

struct LevelReport {
    offered_rps: f64,
    requests: usize,
    resolved_with_result: usize,
    shed: usize,
    deadline_exceeded: usize,
    degraded: usize,
    throughput_rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    queue_p50_us: f64,
    queue_p95_us: f64,
    queue_p99_us: f64,
    service_p50_us: f64,
    service_p95_us: f64,
    service_p99_us: f64,
    submit_p50_us: f64,
    submit_p95_us: f64,
    submit_p99_us: f64,
    cache_hit_rate: f64,
    shed_rate: f64,
    queue_depth_max: u64,
    steals: u64,
    replications: u64,
    stolen_runs: usize,
}

impl LevelReport {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "offered_rps": self.offered_rps,
            "requests": self.requests,
            "resolved_with_result": self.resolved_with_result,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "degraded": self.degraded,
            "throughput_rps": self.throughput_rps,
            "latency_us": serde_json::json!({
                "p50": self.p50_us, "p95": self.p95_us, "p99": self.p99_us
            }),
            "queue_us": serde_json::json!({
                "p50": self.queue_p50_us, "p95": self.queue_p95_us, "p99": self.queue_p99_us
            }),
            "service_us": serde_json::json!({
                "p50": self.service_p50_us, "p95": self.service_p95_us, "p99": self.service_p99_us
            }),
            "submit_us": serde_json::json!({
                "p50": self.submit_p50_us, "p95": self.submit_p95_us, "p99": self.submit_p99_us
            }),
            "cache_hit_rate": self.cache_hit_rate,
            "shed_rate": self.shed_rate,
            "queue_depth_max": self.queue_depth_max,
            "steals": self.steals,
            "replications": self.replications,
            "stolen_runs": self.stolen_runs,
        })
    }
}

#[allow(clippy::too_many_lines)]
fn run_level(
    pool: &[Workload],
    variants: &[InfomapConfig],
    offered_rps: f64,
    requests: usize,
    base: &ServeConfig,
) -> LevelReport {
    // Fresh engine per level: each level starts with a cold cache and
    // clean statistics, so levels are comparable. One worker per shard,
    // and per-shard queue bounds — aggregate capacity grows with shards.
    let (obs, shards) = (&base.obs, base.shards);
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        queue_capacity_interactive: 16,
        queue_capacity_batch: 32,
        cache_capacity: (pool.len() * variants.len()).div_ceil(2),
        degrade_depth: 8,
        ..base.clone()
    });

    let interarrival = Duration::from_secs_f64(1.0 / offered_rps);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(requests);
    // What each `submit` call costs its caller, in nanoseconds: a graph's
    // first request hashes its CSR, every later one reuses the memo.
    let mut submit_ns: Vec<u64> = Vec::with_capacity(requests);
    for i in 0..requests {
        // Open loop: submit at the scheduled instant regardless of how
        // far behind the engine is.
        let due = start + interarrival * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let workload = &pool[i % pool.len()];
        let config = variants[(i / pool.len()) % variants.len()].clone();
        let mut req = if i % 3 == 0 {
            Request::interactive(Arc::clone(&workload.graph))
        } else {
            Request::batch(Arc::clone(&workload.graph))
        }
        .with_config(config);
        if i % 8 == 0 {
            req = req.with_deadline(Duration::from_secs(10));
        }
        let t = Instant::now();
        handles.push(engine.submit(req));
        submit_ns.push(t.elapsed().as_nanos() as u64);
    }

    let mut latencies_us: Vec<u64> = Vec::with_capacity(requests);
    let mut queue_us: Vec<u64> = Vec::with_capacity(requests);
    let mut service_us: Vec<u64> = Vec::with_capacity(requests);
    let (mut resolved, mut shed, mut deadline_exceeded, mut degraded, mut hits) = (0, 0, 0, 0, 0);
    let mut stolen_runs = 0usize;
    for h in &handles {
        let response = h.wait();
        match response.outcome {
            Outcome::Ok(_) => resolved += 1,
            Outcome::Degraded { .. } => {
                resolved += 1;
                degraded += 1;
            }
            Outcome::Overloaded => shed += 1,
            Outcome::DeadlineExceeded => deadline_exceeded += 1,
            Outcome::Rejected { .. } => unreachable!("the sweep submits only detects"),
        }
        if response.outcome.result().is_some() {
            latencies_us.push(response.total.as_micros() as u64);
            queue_us.push(response.queued.as_micros() as u64);
            service_us.push(response.service.as_micros() as u64);
            if response.cache_hit {
                hits += 1;
            }
            if response.stolen {
                stolen_runs += 1;
            }
        }
    }
    let elapsed = start.elapsed();
    let stats = engine.shutdown();

    let (p50_us, p95_us, p99_us) = pct_triple(&mut latencies_us);
    let (queue_p50_us, queue_p95_us, queue_p99_us) = pct_triple(&mut queue_us);
    let (service_p50_us, service_p95_us, service_p99_us) = pct_triple(&mut service_us);
    let (submit_p50_ns, submit_p95_ns, submit_p99_ns) = pct_triple(&mut submit_ns);
    let report = LevelReport {
        offered_rps,
        requests,
        resolved_with_result: resolved,
        shed,
        deadline_exceeded,
        degraded,
        throughput_rps: resolved as f64 / elapsed.as_secs_f64(),
        p50_us,
        p95_us,
        p99_us,
        queue_p50_us,
        queue_p95_us,
        queue_p99_us,
        service_p50_us,
        service_p95_us,
        service_p99_us,
        submit_p50_us: submit_p50_ns / 1e3,
        submit_p95_us: submit_p95_ns / 1e3,
        submit_p99_us: submit_p99_ns / 1e3,
        cache_hit_rate: if resolved == 0 {
            0.0
        } else {
            hits as f64 / resolved as f64
        },
        shed_rate: shed as f64 / requests as f64,
        queue_depth_max: stats.queue_depth_max,
        steals: stats.steals,
        replications: stats.replications,
        stolen_runs,
    };
    record!(obs, "serve.level", {
        "shards": shards as u64,
        "offered_rps": report.offered_rps,
        "requests": report.requests,
        "throughput_rps": report.throughput_rps,
        "p50_us": report.p50_us,
        "p95_us": report.p95_us,
        "p99_us": report.p99_us,
        "queue_p50_us": report.queue_p50_us,
        "service_p50_us": report.service_p50_us,
        "cache_hit_rate": report.cache_hit_rate,
        "shed_rate": report.shed_rate,
        "steals": report.steals,
        "replications": report.replications,
    });
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let steal = !argv.iter().any(|a| a == "--no-steal");
    let only_shards: Option<usize> = argv
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| argv.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1);
    let args = ObsArgs::parse();
    let obs = args.build();
    let _root = obs.span("serve-bench");

    let pool = {
        let _sp = obs.span("generate");
        build_pool(smoke)
    };
    let variants = config_variants();
    let requests_per_level = if smoke { 30 } else { 120 };
    let shard_counts: Vec<usize> = only_shards.map_or_else(|| vec![1, 2, 4], |n| vec![n]);

    // Anchor every shard count to the same absolute offered loads, based
    // on ONE worker's capacity: the scaling curve then shows what extra
    // shards buy at identical arrival processes.
    let mean_service = {
        let _sp = obs.span("capacity-estimate");
        estimate_service(&pool, &variants[0])
    };
    let capacity_rps = 1.0 / mean_service.as_secs_f64().max(1e-9);
    println!(
        "pool: {} graphs x {} configs, mean sequential service {}, \
         single-worker capacity {:.1} req/s; shards {:?}, steal {}",
        pool.len(),
        variants.len(),
        fmt_secs(mean_service.as_secs_f64()),
        capacity_rps,
        shard_counts,
        if steal { "on" } else { "off" },
    );

    // Under, at, and well past single-worker capacity. The cache absorbs
    // repeats, so the engine sustains more than the no-cache estimate;
    // the top level still drives shards=1 into degradation/shedding.
    let load_factors = [0.5, 2.0, 8.0];
    let mut sweep: Vec<(usize, Vec<LevelReport>)> = Vec::new();
    for &shards in &shard_counts {
        let base = ServeConfig {
            shards,
            steal,
            obs: obs.clone(),
            blackbox_out: args.artifact("blackbox.json"),
            ..ServeConfig::default()
        };
        let mut reports = Vec::new();
        for &factor in &load_factors {
            let offered = (capacity_rps * factor).max(1.0);
            let _sp = obs.span("level");
            reports.push(run_level(
                &pool,
                &variants,
                offered,
                requests_per_level,
                &base,
            ));
        }
        sweep.push((shards, reports));
    }

    for (shards, reports) in &sweep {
        let rows: Vec<Vec<String>> = reports
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.offered_rps),
                    fmt_count(r.requests as u64),
                    format!("{:.1}", r.throughput_rps),
                    fmt_secs(r.p50_us / 1e6),
                    fmt_secs(r.queue_p50_us / 1e6),
                    fmt_secs(r.p99_us / 1e6),
                    fmt_pct(r.cache_hit_rate),
                    fmt_pct(r.shed_rate),
                    format!("{}", r.steals),
                    format!("{}", r.replications),
                    format!("{}", r.queue_depth_max),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &format!("Serving layer: open-loop load sweep, {shards} shard(s)"),
                &[
                    "offered req/s",
                    "requests",
                    "done req/s",
                    "p50",
                    "p50 queued",
                    "p99",
                    "cache hits",
                    "shed",
                    "steals",
                    "replications",
                    "max depth",
                ],
                &rows,
            )
        );
    }

    let workloads: Vec<serde_json::Value> = pool
        .iter()
        .map(|w| {
            serde_json::json!({
                "family": w.family,
                "nodes": w.graph.num_nodes(),
                "arcs": w.graph.num_arcs(),
            })
        })
        .collect();
    let shard_sweep: Vec<serde_json::Value> = sweep
        .iter()
        .map(|(shards, reports)| {
            serde_json::json!({
                "shards": shards,
                "workers_per_shard": 1,
                "steal": steal,
                "levels": reports.iter().map(LevelReport::to_json).collect::<Vec<_>>(),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "bench": "serve",
        "scale_div": scale_div(),
        "smoke": smoke,
        "meta": asa_bench::with_profile_summary(run_metadata("ba+rmat+lfr", &variants[0]), &obs),
        "workers": 1,
        "steal": steal,
        "shard_counts": shard_counts,
        "config_variants": variants.len(),
        "mean_service_seconds": mean_service.as_secs_f64(),
        "capacity_est_rps": capacity_rps,
        "workloads": workloads,
        // Historical schema: the first swept shard count's curve (the
        // shards=1 baseline unless `--shards` restricted the sweep).
        "levels": sweep[0].1.iter().map(LevelReport::to_json).collect::<Vec<_>>(),
        "shard_sweep": shard_sweep,
    });
    let out = std::env::var("ASA_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap()).expect("write bench json");
    println!("\nwrote {out}");
    drop(_root);

    // With `--obs-dir` the recorder captured every request's stage
    // tiling across all levels: attribute the slowest tail before dumping
    // the Chrome trace for Perfetto.
    if let Some(snap) = obs.trace_snapshot() {
        let tail_pct = std::env::var("ASA_TAIL_PCT")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|p| *p > 0.0 && *p <= 100.0)
            .unwrap_or(5.0);
        print!(
            "\n{}",
            asa_obs::tail::TailReport::from_snapshot(&snap, "request", tail_pct).render()
        );
    }
    args.finish(&obs);
}
