//! Host-engine performance: the SPA host kernel vs the hash reference.
//!
//! Times the three host kernels (PageRank, the `FindBestCommunity` sweeps,
//! and `Convert2SuperNode`) on the dblp-like and pokec-like stand-ins, once
//! through the production host engine and once through the hash reference
//! engine (`HashEngine`: the generic kernel over `ChainedAccumulator`, the
//! paper's Baseline hash table, with a null event sink). Both
//! produce the identical decision stream, so partitions and codelengths
//! must match bit-for-bit; the run asserts that before reporting the
//! sweep-phase speedup.
//!
//! Writes `BENCH_hostperf.json` into the working directory (override with
//! `ASA_HOSTPERF_OUT`); repetitions via `ASA_HOSTPERF_REPS` (default 5,
//! best-of reported). `--smoke` shrinks to CI size (`ASA_SCALE_DIV=256`,
//! one repetition) unless the env vars already say otherwise.
//!
//! `--kernel-breakdown` adds one extra SPA run per network that splits
//! the sweep kernel into its accumulate/gather/scan phases and counts the
//! vertices evaluated and the candidate modules per vertex, asserting the
//! run's partition and codelength match the hash path bit-for-bit, and
//! emitting `kernel_breakdown` + `sweep_speedup_spa_scalar_over_hash`
//! JSON fields. The run goes through an engine defined here, whose
//! per-vertex closure times the kernel's three public phase calls
//! (`DualSpa::accumulate`, `DualSpa::gather`, `kernel::scan`) on the same
//! chunk driver as the host engine; the breakdown's `sweep_seconds` is the
//! host engine's best-of-reps sweep time, so timer overhead never taints
//! it.
//!
//! Telemetry: `--obs-dir <dir>` (also `ASA_OBS_DIR`) writes the run's
//! artifacts into `<dir>`: `obs.jsonl` carries per-sweep convergence
//! records of the host-engine legs (sweep index, moves, codelength, ΔL,
//! accumulator path, scratch-pool hit rate), `trace.json` a Chrome trace
//! for Perfetto, `metrics.prom` the final Prometheus exposition, and
//! `prof.folded` / `prof.svg` the span profile (exact self µs per span
//! path, folded from the phase tree, and its flamegraph). The host-engine
//! legs fold into `infomap` → `optimize` → `level` → `sweep` →
//! `decide`/`apply` stacks; each hash reference leg is one `hash` stack
//! and each `--kernel-breakdown` leg one `breakdown` stack, since those
//! engines open no spans of their own. The hierarchical
//! phase-time summary prints at exit; `--progress` (`ASA_PROGRESS=1`)
//! adds per-sweep heartbeat lines on stderr, and `ASA_METRICS_ADDR`
//! serves the exposition live over HTTP.
//!
//! `--obs-overhead` runs a dedicated overhead check instead of the bench:
//! the SPA sweep phase with obs fully disabled, versus an enabled handle
//! with no sinks, versus the flight recorder attached — failing if either
//! instrumented run is more than `ASA_OBS_TOL` percent slower (default
//! 5). CI runs this as the overhead smoke gate.

use std::time::Instant;

use asa_bench::{
    fmt_secs, infomap_config, load_network, render_table, run_metadata, scale_div, ObsArgs,
};
use asa_graph::generators::PaperNetwork;
use asa_graph::CsrGraph;
use asa_infomap::driver::{run_with_engine, HashEngine};
use asa_infomap::find_best::MoveDecision;
use asa_infomap::kernel;
use asa_infomap::kernel::DualSpa;
use asa_infomap::local_move::{parallel_decide, ChunkScratch, ScratchPool};
use asa_infomap::schedule::{DecideEngine, SweepCtx};
use asa_infomap::{detect_communities_cancellable, CancelToken, InfomapResult};
use asa_obs::{record, Obs};

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
        detect_communities_cancellable(graph, &infomap_config(), obs, &CancelToken::none())
    })
}

/// The hash reference engine, best of `reps`, under one `hash` span of
/// `obs`. The engine opens no sweep spans of its own, so the run inside
/// gets a disabled handle and the span's self time is the whole leg.
fn run_hash(graph: &CsrGraph, reps: usize, obs: &Obs) -> PathTiming {
    let _sp = obs.span("hash");
    best_of(reps, "hash", || {
        run_with_engine(
            graph,
            &infomap_config(),
            &mut HashEngine::default(),
            &Obs::disabled(),
            &CancelToken::none(),
        )
    })
}

/// `--obs-overhead`: the disabled path vs two instrumented legs — an
/// enabled handle with no sinks, and the same with the flight recorder
/// attached — on the SPA sweep phase. Exits non-zero when either
/// instrumented sweep is more than the tolerance slower.
fn obs_overhead_check(reps: usize) {
    let tol_pct: f64 = std::env::var("ASA_OBS_TOL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let (graph, _) = load_network(PaperNetwork::Dblp);

    // Warm up caches/allocator so no side pays first-run costs.
    let _ = run_spa(&graph, 1, &Obs::disabled());

    let off = run_spa(&graph, reps, &Obs::disabled());
    let on = run_spa(&graph, reps, &Obs::new_enabled());
    let traced = Obs::new_enabled();
    traced.attach_recorder(asa_bench::trace_capacity());
    let rec = run_spa(&graph, reps, &traced);

    let legs = [("enabled handle", &on), ("recorder attached", &rec)];
    for (leg, timing) in legs {
        assert_eq!(
            off.result.partition.labels(),
            timing.result.partition.labels(),
            "telemetry ({leg}) must not change the answer"
        );
    }
    let mut failed = false;
    for (leg, timing) in legs {
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
/// chunks spent, the vertices they evaluated and the candidate modules
/// those vertices scanned.
#[derive(Default)]
struct TimedScratch {
    dual: DualSpa,
    ns: [u64; 3],
    vertices: u64,
    candidates: u64,
}

impl ChunkScratch for TimedScratch {
    fn begin(&mut self, modules: usize) {
        self.dual.begin(modules);
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
        let symmetric = ctx.flow.is_symmetric();
        parallel_decide(ctx, &self.pool, |t, u| {
            let t0 = Instant::now();
            t.dual.accumulate(ctx.flow, ctx.labels, u);
            let t1 = Instant::now();
            t.dual.gather(symmetric);
            let t2 = Instant::now();
            let my_module = ctx.labels[u as usize];
            let lanes = t.dual.lanes();
            let candidates = lanes.keys.len() as u64;
            let d = kernel::scan(ctx.flow, ctx.state, u, my_module, lanes);
            let t3 = Instant::now();
            t.ns[0] += (t1 - t0).as_nanos() as u64;
            t.ns[1] += (t2 - t1).as_nanos() as u64;
            t.ns[2] += (t3 - t2).as_nanos() as u64;
            t.vertices += 1;
            t.candidates += candidates;
            d
        })
    }
}

/// The `--kernel-breakdown` split of one network's SPA sweeps: seconds per
/// phase (accumulate, gather, scan), vertices evaluated and candidate
/// modules scanned, summed over every sweep of one run.
struct KernelBreakdown {
    phases: [f64; 3],
    vertices: u64,
    candidates: u64,
    result: InfomapResult,
}

/// One run through [`PhaseTimedEngine`].
fn run_kernel_breakdown(graph: &CsrGraph) -> KernelBreakdown {
    let mut engine = PhaseTimedEngine::default();
    let result = run_with_engine(
        graph,
        &infomap_config(),
        &mut engine,
        &Obs::disabled(),
        &CancelToken::none(),
    );
    let (mut ns, mut vertices, mut candidates) = ([0u64; 3], 0, 0);
    engine.pool.for_each(|t| {
        for (sum, x) in ns.iter_mut().zip(t.ns) {
            *sum += x;
        }
        vertices += t.vertices;
        candidates += t.candidates;
    });
    KernelBreakdown {
        phases: ns.map(|x| x as f64 * 1e-9),
        vertices,
        candidates,
        result,
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
            let leg = {
                let _sp = obs.span("breakdown");
                run_kernel_breakdown(&graph)
            };
            // Phase timing is a pure observation: same bits as the hash path.
            assert_eq!(
                hash.result.partition.labels(),
                leg.result.partition.labels(),
                "{} partitions diverged on the kernel breakdown run",
                network.name()
            );
            assert_eq!(
                hash.result.codelength.to_bits(),
                leg.result.codelength.to_bits(),
                "{} codelengths diverged on the kernel breakdown run",
                network.name()
            );
            let [accumulate, gather, scan] = leg.phases;
            let candidates_per_vertex = leg.candidates as f64 / leg.vertices.max(1) as f64;
            breakdown_rows.push(vec![
                format!("{}-like", network.name()),
                kernel::KERNEL_PATH.to_string(),
                fmt_secs(spa.find_best),
                fmt_secs(accumulate),
                fmt_secs(gather),
                fmt_secs(scan),
                format!("{}", leg.vertices),
                format!("{candidates_per_vertex:.2}"),
            ]);
            if let serde_json::Value::Object(entries) = &mut doc {
                entries.push((
                    "kernel_breakdown".to_string(),
                    serde_json::json!({
                        "kernel_path": kernel::KERNEL_PATH,
                        "sweep_seconds": spa.find_best,
                        "accumulate_seconds": accumulate,
                        "gather_seconds": gather,
                        "scan_seconds": scan,
                        "vertices_evaluated": leg.vertices,
                        "candidates_per_vertex": candidates_per_vertex,
                    }),
                ));
                entries.push((
                    "sweep_speedup_spa_scalar_over_hash".to_string(),
                    serde_json::json!(speedup),
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
                    "kernel path",
                    "sweeps",
                    "accumulate",
                    "gather",
                    "scan",
                    "vertices",
                    "candidates/vertex",
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
    args.finish(&obs);
}
