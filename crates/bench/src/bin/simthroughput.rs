//! Simulator throughput: inline per-event charging vs the batched trace
//! pipeline (SoA record + block replay, optionally overlapped).
//!
//! Two measurements on the dblp-like stand-in with the Baseline
//! (software hash) device:
//!
//! **End-to-end modes.** The full simulated Infomap schedule under each
//! [`SimMode`], asserting first that all three modes produce bit-identical
//! counters, partitions, and codelengths — the batched paths are pure
//! perf substitutions — then reporting simulation-engine seconds and
//! wall clock per mode. The pipelined mode's overlap shows up here only
//! when the host has spare cores for the sim threads.
//!
//! **Replay kernels.** A prefix of the real per-core event stream is
//! captured once ([`capture_trace`]), then pushed through the three
//! per-event cost boundaries on identical buffers:
//!
//! - `inline charge` — the per-event path: every event walks the full
//!   core model ([`TraceBuf::replay_per_event`] into a [`CoreModel`]),
//!   which is exactly what the inline engine pays on the workload thread
//!   per event;
//! - `batched replay` — [`CoreModel::consume_batch`], the block replay
//!   kernel the sim threads run; its reports are asserted bit-identical
//!   to the inline charge right here;
//! - `pipeline ingest` — per-event sink calls into a recycled
//!   [`TraceBuf`]: the only per-event cost the batched pipeline leaves
//!   on the workload thread (replay happens off the critical path, on
//!   sim threads when cores allow).
//!
//! The headline events/sec compares `pipeline ingest` against `inline
//! charge`: the throughput at which each path accepts workload events.
//! The non-smoke run asserts the batched pipeline sustains >= 2x the
//! inline per-event rate.
//!
//! Writes `BENCH_simthroughput.json` into the working directory (override
//! with `ASA_SIMTHROUGHPUT_OUT`); repetitions via `ASA_SIMTHROUGHPUT_REPS`
//! (default 3, best-of reported); emulated cores via `ASA_SIM_CORES`
//! (default 4). Pass `--smoke` for a seconds-long CI run on a small
//! planted graph (1 rep, no throughput floor asserted).

use asa_bench::{
    fmt_count, fmt_secs, infomap_config, load_network, render_table, run_metadata, scale_div,
    ObsArgs,
};
use asa_graph::generators::{planted_partition, PaperNetwork, PlantedConfig};
use asa_graph::CsrGraph;
use asa_infomap::instrumented::{
    capture_trace, simulate_infomap_obs, Device, SimMode, SimulatedRun,
};
use asa_obs::{record, Obs};
use asa_simarch::events::phase;
use asa_simarch::{CoreModel, MachineConfig, SimPipelineConfig, TraceBuf};

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(default)
}

/// One mode's best-of-reps measurement.
struct ModeTiming {
    run: SimulatedRun,
    wall_seconds: f64,
}

fn run_mode(
    graph: &CsrGraph,
    mcfg: &MachineConfig,
    mode: &SimMode,
    reps: usize,
    obs: &Obs,
) -> ModeTiming {
    let icfg = infomap_config();
    let mut best: Option<ModeTiming> = None;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let run = simulate_infomap_obs(graph, &icfg, mcfg, Device::SoftwareHash, mode, obs);
        let wall_seconds = start.elapsed().as_secs_f64();
        let cur = ModeTiming { run, wall_seconds };
        match &best {
            Some(b) => {
                assert_eq!(
                    b.run.partition.labels(),
                    cur.run.partition.labels(),
                    "{} mode must be deterministic across repetitions",
                    mode.name()
                );
                if cur.run.sim_seconds < b.run.sim_seconds {
                    best = Some(cur);
                }
            }
            None => best = Some(cur),
        }
    }
    best.unwrap()
}

/// Bitwise equality of everything a simulated run reports.
fn assert_identical(a: &SimulatedRun, b: &SimulatedRun) {
    let what = format!("{} vs {}", a.sim_mode, b.sim_mode);
    assert_eq!(
        a.partition.labels(),
        b.partition.labels(),
        "{what}: partition"
    );
    assert_eq!(
        a.codelength.to_bits(),
        b.codelength.to_bits(),
        "{what}: codelength"
    );
    assert_eq!(
        a.total.instructions, b.total.instructions,
        "{what}: instructions"
    );
    assert_eq!(a.total.branches, b.total.branches, "{what}: branches");
    assert_eq!(
        a.total.mispredictions, b.total.mispredictions,
        "{what}: mispredictions"
    );
    assert_eq!(a.total.loads, b.total.loads, "{what}: loads");
    assert_eq!(a.total.stores, b.total.stores, "{what}: stores");
    assert_eq!(a.total.l1_misses, b.total.l1_misses, "{what}: l1_misses");
    assert_eq!(a.total.l2_misses, b.total.l2_misses, "{what}: l2_misses");
    assert_eq!(a.total.l3_misses, b.total.l3_misses, "{what}: l3_misses");
    assert_eq!(
        a.total.cycles.to_bits(),
        b.total.cycles.to_bits(),
        "{what}: cycles"
    );
    for (p, (ra, rb)) in a.phase_totals.iter().zip(b.phase_totals.iter()).enumerate() {
        assert_eq!(
            ra.cycles.to_bits(),
            rb.cycles.to_bits(),
            "{what}: phase {p} cycles"
        );
    }
}

/// Replay-kernel timings over the captured stream (seconds, best-of).
struct KernelTiming {
    events: usize,
    charge_seconds: f64,
    replay_seconds: f64,
    ingest_seconds: f64,
}

/// Times the three per-event cost boundaries on the captured per-core
/// buffers, asserting along the way that `consume_batch` reproduces the
/// per-event path's phase reports bit for bit on the real stream.
fn time_kernels(traces: &[Vec<TraceBuf>], mcfg: &MachineConfig, passes: usize) -> KernelTiming {
    let events = traces.iter().flatten().map(TraceBuf::len).sum();
    let mut best = KernelTiming {
        events,
        charge_seconds: f64::MAX,
        replay_seconds: f64::MAX,
        ingest_seconds: f64::MAX,
    };
    for _ in 0..passes.max(1) {
        let mut charge = 0.0f64;
        let mut replay = 0.0f64;
        let mut ingest = 0.0f64;
        for bufs in traces {
            let mut batched = CoreModel::new(mcfg);
            let t = std::time::Instant::now();
            for b in bufs {
                batched.consume_batch(b);
            }
            replay += t.elapsed().as_secs_f64();

            let mut per_event = CoreModel::new(mcfg);
            let t = std::time::Instant::now();
            for b in bufs {
                b.replay_per_event(&mut per_event);
            }
            charge += t.elapsed().as_secs_f64();

            let mut sink = TraceBuf::with_capacity(32 * 1024);
            let t = std::time::Instant::now();
            for b in bufs {
                sink.clear();
                b.replay_per_event(&mut sink);
            }
            ingest += t.elapsed().as_secs_f64();

            let a = batched.take_phase_reports();
            let b = per_event.take_phase_reports();
            for p in 0..phase::COUNT {
                assert_eq!(
                    a[p].instructions, b[p].instructions,
                    "phase {p} instructions"
                );
                assert_eq!(a[p].branches, b[p].branches, "phase {p} branches");
                assert_eq!(
                    a[p].mispredictions, b[p].mispredictions,
                    "phase {p} mispredictions"
                );
                assert_eq!(a[p].loads, b[p].loads, "phase {p} loads");
                assert_eq!(a[p].stores, b[p].stores, "phase {p} stores");
                assert_eq!(a[p].l1_misses, b[p].l1_misses, "phase {p} l1_misses");
                assert_eq!(a[p].l2_misses, b[p].l2_misses, "phase {p} l2_misses");
                assert_eq!(a[p].l3_misses, b[p].l3_misses, "phase {p} l3_misses");
                assert_eq!(
                    a[p].cycles.to_bits(),
                    b[p].cycles.to_bits(),
                    "phase {p} cycles"
                );
            }
        }
        best.charge_seconds = best.charge_seconds.min(charge);
        best.replay_seconds = best.replay_seconds.min(replay);
        best.ingest_seconds = best.ingest_seconds.min(ingest);
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke {
        1
    } else {
        env_usize("ASA_SIMTHROUGHPUT_REPS", 3)
    };
    let cores = env_usize("ASA_SIM_CORES", 4);
    let args = ObsArgs::parse();
    let obs = args.build();
    let _root = obs.span("simthroughput");

    let (graph, workload) = if smoke {
        let g = planted_partition(
            &PlantedConfig {
                communities: 6,
                community_size: 40,
                k_in: 10.0,
                k_out: 1.0,
            },
            17,
        )
        .0;
        (g, "planted-smoke".to_string())
    } else {
        let (g, _) = load_network(PaperNetwork::Dblp);
        (g, format!("{}-like", PaperNetwork::Dblp.name()))
    };

    let mcfg = MachineConfig::baseline(cores);
    let modes: [(&str, SimMode); 3] = [
        ("inline", SimMode::Inline),
        (
            "batched",
            SimMode::Batched {
                buffer_events: 32 * 1024,
            },
        ),
        (
            "pipelined",
            SimMode::Pipelined(SimPipelineConfig::default()),
        ),
    ];

    let timings: Vec<ModeTiming> = modes
        .iter()
        .map(|(name, m)| {
            record!(obs, "mode_start", { "mode": *name, "reps": reps });
            run_mode(&graph, &mcfg, m, reps, &obs)
        })
        .collect();

    // Semantics before speed: all three modes are the same simulation.
    assert_identical(&timings[0].run, &timings[1].run);
    assert_identical(&timings[0].run, &timings[2].run);
    let events = timings[1].run.events;
    assert!(events > 0, "batched mode must record trace events");
    assert_eq!(
        events, timings[2].run.events,
        "batched and pipelined must record the same stream"
    );

    let inline_sim = timings[0].run.sim_seconds;
    let mut rows = Vec::new();
    let mut docs = Vec::new();
    for ((name, _), t) in modes.iter().zip(&timings) {
        let rate = events as f64 / t.run.sim_seconds;
        let speedup = inline_sim / t.run.sim_seconds;
        rows.push(vec![
            (*name).to_string(),
            fmt_secs(t.run.sim_seconds),
            fmt_secs(t.wall_seconds),
            format!("{:.1}M/s", rate / 1e6),
            format!("{speedup:.2}x"),
        ]);
        docs.push(serde_json::json!({
            "mode": name,
            "sim_seconds": t.run.sim_seconds,
            "wall_seconds": t.wall_seconds,
            "events_per_sec": rate,
            "speedup_vs_inline": speedup,
        }));
    }

    print!(
        "{}",
        render_table(
            &format!(
                "End-to-end on {workload} ({} events, {cores} simulated cores, best of {reps})",
                fmt_count(events)
            ),
            &["mode", "sim time", "wall clock", "events/sec", "speedup"],
            &rows,
        )
    );

    // Replay kernels on a captured prefix of the same per-core streams.
    let icfg = infomap_config();
    let per_core_limit = if smoke { 2_000_000 } else { 4_000_000 };
    let traces = capture_trace(
        &graph,
        &icfg,
        cores,
        Device::SoftwareHash,
        32 * 1024,
        per_core_limit,
    );
    let kernel_passes = if smoke { 2 } else { 5 };
    let k = time_kernels(&traces, &mcfg, kernel_passes);
    let kev = k.events as f64;
    let charge_rate = kev / k.charge_seconds;
    let replay_rate = kev / k.replay_seconds;
    let ingest_rate = kev / k.ingest_seconds;
    let ingest_speedup = ingest_rate / charge_rate;
    let replay_speedup = replay_rate / charge_rate;

    let krows = vec![
        vec![
            "inline charge".to_string(),
            format!("{:.2}ns", k.charge_seconds * 1e9 / kev),
            format!("{:.1}M/s", charge_rate / 1e6),
            "1.00x".to_string(),
        ],
        vec![
            "batched replay".to_string(),
            format!("{:.2}ns", k.replay_seconds * 1e9 / kev),
            format!("{:.1}M/s", replay_rate / 1e6),
            format!("{replay_speedup:.2}x"),
        ],
        vec![
            "pipeline ingest".to_string(),
            format!("{:.2}ns", k.ingest_seconds * 1e9 / kev),
            format!("{:.1}M/s", ingest_rate / 1e6),
            format!("{ingest_speedup:.2}x"),
        ],
    ];
    print!(
        "\n{}",
        render_table(
            &format!(
                "Replay kernels on captured {workload} stream ({} events, best of {kernel_passes}; reports bit-identical)",
                fmt_count(k.events as u64)
            ),
            &["path", "cost/event", "events/sec", "vs inline"],
            &krows,
        )
    );

    if !smoke {
        assert!(
            ingest_speedup >= 2.0,
            "batched pipeline must sustain >= 2x the inline per-event rate \
             on the workload side, got {ingest_speedup:.2}x"
        );
    }

    let out = std::env::var("ASA_SIMTHROUGHPUT_OUT")
        .unwrap_or_else(|_| "BENCH_simthroughput.json".into());
    let kernel_doc = serde_json::json!({
        "captured_events": k.events,
        "replay_identical": true,
        "charge_ns_per_event": k.charge_seconds * 1e9 / kev,
        "replay_ns_per_event": k.replay_seconds * 1e9 / kev,
        "ingest_ns_per_event": k.ingest_seconds * 1e9 / kev,
        "inline_events_per_sec": charge_rate,
        "batched_replay_events_per_sec": replay_rate,
        "pipeline_ingest_events_per_sec": ingest_rate,
        "replay_speedup_vs_inline": replay_speedup,
        "ingest_speedup_vs_inline": ingest_speedup,
    });
    let doc = serde_json::json!({
        "bench": "simthroughput",
        "workload": workload,
        "scale_div": scale_div(),
        "nodes": graph.num_nodes(),
        "arcs": graph.num_arcs(),
        "sim_cores": cores,
        "reps": reps,
        "smoke": smoke,
        "device": "baseline",
        "events": events,
        "identical_modes": true,
        "meta": run_metadata(&workload, &infomap_config()),
        "modes": docs,
        "kernel": kernel_doc,
    });
    std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap()).expect("write bench json");
    println!("\nwrote {out}");
    drop(_root);
    args.finish(&obs);
}
