//! Host-engine performance: the SPA host kernel vs the hash reference.
//!
//! Times the three host kernels (PageRank, the `FindBestCommunity` sweeps,
//! and `Convert2SuperNode`) on the dblp-like and pokec-like stand-ins, once
//! through the production host engine and once through the hash reference
//! engine (`HashEngine`: the generic kernel over `FastAccumulator`). Both
//! produce the identical decision stream, so partitions and codelengths
//! must match bit-for-bit; the run asserts that before reporting the
//! sweep-phase speedup.
//!
//! Writes `BENCH_hostperf.json` into the working directory (override with
//! `ASA_HOSTPERF_OUT`); repetitions via `ASA_HOSTPERF_REPS` (default 5,
//! best-of reported). `--smoke` shrinks to CI size (`ASA_SCALE_DIV=256`,
//! one repetition) unless the env vars already say otherwise.
//!
//! `--kernel-breakdown` adds two extra SPA legs per network — the
//! dispatched kernel (AVX2 where compiled with `--features simd` and the
//! CPU has it) and the forced-scalar portable kernel — reporting each
//! leg's sweep time and its accumulate/gather/scan phase split, asserting
//! all legs' partitions and codelengths match the hash path bit-for-bit,
//! and emitting `kernel_breakdown` + `sweep_speedup_spa_scalar_over_hash`
//! JSON fields. The phase split comes from one extra run per leg through
//! an engine defined here, whose per-vertex closure times the kernel's
//! three public phase calls (`DualSpa::accumulate`, `DualSpa::gather`,
//! `kernel::scan`) on the same chunk driver as the host engine.
//!
//! Telemetry: `--obs-out <path>` streams per-sweep convergence records
//! of the host-engine legs (sweep index, moves, codelength, ΔL, kernel
//! path, scratch-pool hit rate) as JSONL and prints the hierarchical phase-time summary at
//! exit; `--progress` adds per-sweep heartbeat lines on stderr. Both also
//! respect `ASA_OBS_OUT` / `ASA_PROGRESS=1`.
//!
//! `--trace-out <path>` (also `ASA_TRACE_OUT`) attaches the flight
//! recorder and writes a Chrome trace of the run for Perfetto.
//!
//! `--metrics-out <path>` / `ASA_METRICS_OUT` attaches the continuous-
//! telemetry collector and writes the final Prometheus exposition;
//! `ASA_METRICS_ADDR` additionally serves it live over HTTP.
//!
//! `--prof-out <path>` / `ASA_PROF_OUT` attaches the span-stack sampling
//! profiler and writes the folded-stack profile plus a sibling `.svg`
//! flamegraph at exit (`ASA_PROF_INTERVAL_MS` tunes the sample interval).
//!
//! `--obs-overhead` runs a dedicated overhead check instead of the bench:
//! the SPA sweep phase with obs fully disabled, versus enabled with a
//! no-op sink, versus the flight recorder attached, versus the continuous
//! -telemetry collector thread sampling at its default 250 ms resolution,
//! versus the sampling profiler attached at its default 10 ms interval —
//! failing if any instrumented run is more than `ASA_OBS_TOL` percent
//! slower (default 5). CI runs this as the overhead smoke gate.

use std::time::Instant;

use asa_bench::{
    fmt_secs, infomap_config, load_network, render_table, run_metadata, scale_div, ObsArgs,
};
use asa_graph::generators::PaperNetwork;
use asa_graph::CsrGraph;
use asa_infomap::driver::{run_with_engine, HashEngine};
use asa_infomap::find_best::MoveDecision;
use asa_infomap::kernel;
use asa_infomap::local_move::{parallel_decide, ChunkScratch, ScratchPool, WorkerScratch};
use asa_infomap::schedule::{DecideEngine, SweepCtx};
use asa_infomap::{detect_communities_observed, CancelToken, InfomapResult};
use asa_obs::{record, NullSink, Obs};

fn reps() -> usize {
    std::env::var("ASA_HOSTPERF_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(5)
}

/// Best-of-`reps` timings for one engine (all repetitions agree on the
/// answer; the fastest sweep phase is reported).
struct PathTiming {
    result: InfomapResult,
    pagerank: f64,
    find_best: f64,
    convert: f64,
}

fn best_of(reps: usize, path: &str, run: impl Fn() -> InfomapResult) -> PathTiming {
    let mut best: Option<PathTiming> = None;
    for _ in 0..reps {
        let result = run();
        let t = result.timings;
        let cur = PathTiming {
            pagerank: t.pagerank.as_secs_f64(),
            find_best: t.find_best.as_secs_f64(),
            convert: t.convert.as_secs_f64(),
            result,
        };
        match &best {
            Some(b) => {
                assert_eq!(
                    b.result.partition.labels(),
                    cur.result.partition.labels(),
                    "{path} path must be deterministic across repetitions"
                );
                if cur.find_best < b.find_best {
                    best = Some(cur);
                }
            }
            None => best = Some(cur),
        }
    }
    best.unwrap()
}

/// The production host engine, best of `reps`.
fn run_spa(graph: &CsrGraph, reps: usize, obs: &Obs) -> PathTiming {
    best_of(reps, "spa", || {
        detect_communities_observed(graph, &infomap_config(), obs)
    })
}

/// The hash reference engine, best of `reps`.
fn run_hash(graph: &CsrGraph, reps: usize, obs: &Obs) -> PathTiming {
    best_of(reps, "hash", || {
        run_with_engine(
            graph,
            &infomap_config(),
            &mut HashEngine::default(),
            obs,
            &CancelToken::none(),
        )
    })
}

/// `--obs-overhead`: the disabled path vs three instrumented legs — an
/// enabled handle draining into a no-op sink, the same with the flight
/// recorder attached, and the same with the continuous-telemetry
/// collector thread sampling at its default resolution — on the SPA
/// sweep phase. Exits non-zero when any instrumented sweep is more than
/// the tolerance slower.
fn obs_overhead_check(reps: usize) {
    let tol_pct: f64 = std::env::var("ASA_OBS_TOL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let (graph, _) = load_network(PaperNetwork::Dblp);

    // Warm up caches/allocator so no side pays first-run costs.
    let _ = run_spa(&graph, 1, &Obs::disabled());

    let off = run_spa(&graph, reps, &Obs::disabled());
    let noop = Obs::new_enabled();
    noop.add_sink(Box::new(NullSink));
    let on = run_spa(&graph, reps, &noop);
    let traced = Obs::new_enabled();
    traced.add_sink(Box::new(NullSink));
    traced.attach_recorder(asa_bench::trace_capacity());
    let rec = run_spa(&graph, reps, &traced);
    let collected = Obs::new_enabled();
    collected.add_sink(Box::new(NullSink));
    collected.attach_collector(asa_obs::TimeSeriesConfig::default());
    let col = run_spa(&graph, reps, &collected);
    collected.stop_collector();
    let profiled = Obs::new_enabled();
    profiled.add_sink(Box::new(NullSink));
    profiled.attach_profiler(asa_bench::prof_interval());
    let prof = run_spa(&graph, reps, &profiled);
    profiled.stop_profiler();

    for (leg, timing) in [
        ("no-op sink", &on),
        ("recorder", &rec),
        ("collector", &col),
        ("profiler", &prof),
    ] {
        assert_eq!(
            off.result.partition.labels(),
            timing.result.partition.labels(),
            "telemetry ({leg}) must not change the answer"
        );
    }
    let mut failed = false;
    for (leg, timing) in [
        ("no-op sink", &on),
        ("recorder attached", &rec),
        ("collector attached", &col),
        ("profiler attached", &prof),
    ] {
        let overhead_pct = (timing.find_best / off.find_best - 1.0) * 100.0;
        println!(
            "obs overhead on {}-like SPA sweeps (best of {reps}): \
             disabled {} vs {leg} {} => {overhead_pct:+.2}% (tolerance {tol_pct}%)",
            PaperNetwork::Dblp.name(),
            fmt_secs(off.find_best),
            fmt_secs(timing.find_best),
        );
        if overhead_pct > tol_pct {
            eprintln!("obs overhead ({leg}) {overhead_pct:.2}% exceeds tolerance {tol_pct}%");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Host-kernel scratch plus the accumulate/gather/scan nanoseconds its
/// chunks spent.
#[derive(Default)]
struct TimedScratch {
    ws: WorkerScratch,
    ns: [u64; 3],
}

impl ChunkScratch for TimedScratch {
    fn begin(&mut self, modules: usize) {
        self.ws.begin(modules);
    }
}

/// The host kernel with each of its three phases timed per vertex: the
/// same calls `find_best_community_vec` makes, through the same chunk
/// driver and scratch as the host engine.
#[derive(Default)]
struct PhaseTimedEngine {
    pool: ScratchPool<TimedScratch>,
}

impl DecideEngine for PhaseTimedEngine {
    fn decide(&mut self, ctx: &SweepCtx<'_>) -> Vec<MoveDecision> {
        let simd = kernel::simd_for(ctx.flow.num_nodes());
        let symmetric = ctx.flow.is_symmetric();
        parallel_decide(ctx, &self.pool, |t, u| {
            let t0 = Instant::now();
            t.ws.dual.accumulate(ctx.flow, ctx.labels, u, simd);
            let t1 = Instant::now();
            t.ws.dual.gather(symmetric, simd);
            let t2 = Instant::now();
            let my_module = ctx.labels[u as usize];
            let lanes = t.ws.dual.lanes();
            let d = kernel::scan(ctx.flow, ctx.state, &mut t.ws.cache, u, my_module, lanes);
            let t3 = Instant::now();
            t.ns[0] += (t1 - t0).as_nanos() as u64;
            t.ns[1] += (t2 - t1).as_nanos() as u64;
            t.ns[2] += (t3 - t2).as_nanos() as u64;
            d
        })
    }
}

/// Whether `ASA_FORCE_SCALAR` asks for the portable kernel (the state to
/// restore after the breakdown's forced-scalar leg).
fn env_force_scalar() -> bool {
    std::env::var(kernel::FORCE_SCALAR_ENV)
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// One `--kernel-breakdown` leg: the dispatched (SIMD where compiled and
/// available) or forced-scalar sweep kernel, with its sweep time and
/// per-phase attribution in seconds (accumulate, gather, scan).
struct KernelLeg {
    label: &'static str,
    kernel_path: &'static str,
    sweep_seconds: f64,
    phases: [f64; 3],
    result: InfomapResult,
}

/// Runs one leg twice: through the host engine (best-of-`reps` sweep
/// seconds, so timer overhead never taints the headline numbers) and once
/// through [`PhaseTimedEngine`] for the accumulate/gather/scan split.
fn run_kernel_leg(
    graph: &CsrGraph,
    label: &'static str,
    force_scalar: bool,
    reps: usize,
) -> KernelLeg {
    kernel::set_force_scalar(force_scalar || env_force_scalar());
    let kernel_path = kernel::kernel_path_name();
    let timing = run_spa(graph, reps, &Obs::disabled());
    let mut engine = PhaseTimedEngine::default();
    let timed = run_with_engine(
        graph,
        &infomap_config(),
        &mut engine,
        &Obs::disabled(),
        &CancelToken::none(),
    );
    kernel::set_force_scalar(env_force_scalar());
    assert_eq!(
        timing.result.partition.labels(),
        timed.partition.labels(),
        "phase timing must not change the answer ({label})"
    );
    let mut ns = [0u64; 3];
    engine.pool.for_each(|t| {
        for (sum, x) in ns.iter_mut().zip(t.ns) {
            *sum += x;
        }
    });
    KernelLeg {
        label,
        kernel_path,
        sweep_seconds: timing.find_best,
        phases: ns.map(|x| x as f64 * 1e-9),
        result: timing.result,
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        // CI-sized run: tiny scale, single repetition (env still wins).
        if std::env::var("ASA_SCALE_DIV").is_err() {
            std::env::set_var("ASA_SCALE_DIV", "256");
        }
        if std::env::var("ASA_HOSTPERF_REPS").is_err() {
            std::env::set_var("ASA_HOSTPERF_REPS", "1");
        }
    }
    let reps = reps();
    if std::env::args().any(|a| a == "--obs-overhead") {
        obs_overhead_check(reps);
        return;
    }
    let kernel_breakdown = std::env::args().any(|a| a == "--kernel-breakdown");
    let args = ObsArgs::parse();
    let obs = args.build();
    let _root = obs.span("hostperf");
    let networks = [PaperNetwork::Dblp, PaperNetwork::Pokec];
    let mut rows = Vec::new();
    let mut breakdown_rows = Vec::new();
    let mut docs = Vec::new();

    for network in networks {
        let graph = {
            let _sp = obs.span("load");
            load_network(network).0
        };
        record!(obs, "network", {
            "name": network.name(),
            "nodes": graph.num_nodes(),
            "arcs": graph.num_arcs(),
        });
        let hash = run_hash(&graph, reps, &obs);
        let spa = run_spa(&graph, reps, &obs);

        // Semantics first: the SPA fast path is a pure perf substitution.
        assert_eq!(
            hash.result.partition.labels(),
            spa.result.partition.labels(),
            "{} partitions diverged between accumulator paths",
            network.name()
        );
        assert_eq!(
            hash.result.codelength.to_bits(),
            spa.result.codelength.to_bits(),
            "{} codelengths diverged between accumulator paths",
            network.name()
        );

        let speedup = hash.find_best / spa.find_best;
        rows.push(vec![
            format!("{}-like", network.name()),
            format!("{}", graph.num_nodes()),
            format!("{}", graph.num_arcs()),
            fmt_secs(spa.pagerank),
            fmt_secs(hash.find_best),
            fmt_secs(spa.find_best),
            fmt_secs(spa.convert),
            format!("{speedup:.2}x"),
        ]);
        let mut doc = serde_json::json!({
            "network": format!("{}-like", network.name()),
            "nodes": graph.num_nodes(),
            "arcs": graph.num_arcs(),
            "codelength": spa.result.codelength,
            "communities": spa.result.num_communities(),
            "identical_paths": true,
            "pagerank_seconds": spa.pagerank,
            "sweep_seconds": serde_json::json!({ "hash": hash.find_best, "spa": spa.find_best }),
            "convert_seconds": serde_json::json!({ "hash": hash.convert, "spa": spa.convert }),
            "sweep_speedup_spa_over_hash": speedup,
        });

        if kernel_breakdown {
            let legs = [
                run_kernel_leg(&graph, "dispatched", false, reps),
                run_kernel_leg(&graph, "scalar", true, reps),
            ];
            let mut legs_json = Vec::new();
            for leg in &legs {
                // Partitions and codelengths are bit-identical across hash
                // / scalar SPA / SIMD SPA — a pure perf substitution.
                assert_eq!(
                    hash.result.partition.labels(),
                    leg.result.partition.labels(),
                    "{} partitions diverged on the {} kernel leg",
                    network.name(),
                    leg.label
                );
                assert_eq!(
                    hash.result.codelength.to_bits(),
                    leg.result.codelength.to_bits(),
                    "{} codelengths diverged on the {} kernel leg",
                    network.name(),
                    leg.label
                );
                let [accumulate, gather, scan] = leg.phases;
                let leg_speedup = hash.find_best / leg.sweep_seconds;
                breakdown_rows.push(vec![
                    format!("{}-like", network.name()),
                    leg.label.to_string(),
                    leg.kernel_path.to_string(),
                    fmt_secs(leg.sweep_seconds),
                    fmt_secs(accumulate),
                    fmt_secs(gather),
                    fmt_secs(scan),
                    format!("{leg_speedup:.2}x"),
                ]);
                legs_json.push((
                    leg.label.to_string(),
                    serde_json::json!({
                        "kernel_path": leg.kernel_path,
                        "sweep_seconds": leg.sweep_seconds,
                        "accumulate_seconds": accumulate,
                        "gather_seconds": gather,
                        "scan_seconds": scan,
                    }),
                ));
            }
            if let serde_json::Value::Object(entries) = &mut doc {
                entries.push((
                    "kernel_breakdown".to_string(),
                    serde_json::Value::Object(legs_json),
                ));
                entries.push((
                    "sweep_speedup_spa_scalar_over_hash".to_string(),
                    serde_json::json!(hash.find_best / legs[1].sweep_seconds),
                ));
            }
        }
        docs.push(doc);
    }

    print!(
        "{}",
        render_table(
            "Host engine: SPA fast path vs hash path (best of reps)",
            &[
                "network",
                "nodes",
                "arcs",
                "PageRank",
                "sweeps (hash)",
                "sweeps (SPA)",
                "Convert2SuperNode",
                "sweep speedup",
            ],
            &rows,
        )
    );
    if kernel_breakdown {
        print!(
            "\n{}",
            render_table(
                "Sweep kernel breakdown (phase split from one attributed run)",
                &[
                    "network",
                    "leg",
                    "kernel path",
                    "sweeps",
                    "accumulate",
                    "gather",
                    "scan",
                    "vs hash",
                ],
                &breakdown_rows,
            )
        );
    }

    let out = std::env::var("ASA_HOSTPERF_OUT").unwrap_or_else(|_| "BENCH_hostperf.json".into());
    let doc = serde_json::json!({
        "bench": "hostperf",
        "scale_div": scale_div(),
        "reps": reps,
        "meta": asa_bench::with_profile_summary(
            run_metadata("dblp-like+soc-pokec-like", &infomap_config()),
            &obs,
        ),
        "networks": docs,
    });
    std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap()).expect("write bench json");
    println!("\nwrote {out}");
    drop(_root);
    args.export_trace(&obs);
    args.export_metrics(&obs);
    args.export_profile(&obs);
    let _ = obs.flush();
}
