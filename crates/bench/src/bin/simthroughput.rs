//! Simulator throughput: how fast the simulator charges the simulated
//! `FindBestCommunity` kernel.
//!
//! Runs the full simulated Infomap schedule on the dblp-like stand-in with
//! the Baseline (software hash) device. Every micro-event is charged to its
//! core model inline, on the workload thread. Reports, best of the
//! repetitions by simulation-engine time:
//!
//! - `sim_seconds` — host seconds inside the simulation engine (the
//!   parallel decide plus the per-sweep report barrier);
//! - `wall_seconds` — the whole simulated run, PageRank and schedule
//!   included;
//! - `instructions` — simulated instructions, summed over cores;
//! - `instructions_per_sec` and `ns_per_instruction` — the simulator's
//!   charge rate: simulated instructions per host second of `sim_seconds`,
//!   and its inverse in nanoseconds.
//!
//! Writes `BENCH_simthroughput.json` into the working directory (override
//! with `ASA_SIMTHROUGHPUT_OUT`); repetitions via `ASA_SIMTHROUGHPUT_REPS`
//! (default 3); emulated cores via `ASA_SIM_CORES` (default 4). Pass
//! `--smoke` for a seconds-long CI run on a small planted graph (1 rep).

use asa_bench::{
    fmt_count, fmt_secs, infomap_config, load_network, render_table, run_metadata, scale_div,
    ObsArgs,
};
use asa_graph::generators::{planted_partition, PaperNetwork, PlantedConfig};
use asa_infomap::instrumented::{simulate_infomap_obs, Device, SimulatedRun};
use asa_obs::record;
use asa_simarch::MachineConfig;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(default)
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
    let icfg = infomap_config();
    let mut best: Option<(SimulatedRun, f64)> = None;
    for rep in 0..reps {
        record!(obs, "rep_start", { "rep": rep, "reps": reps });
        let start = std::time::Instant::now();
        let run = simulate_infomap_obs(&graph, &icfg, &mcfg, Device::SoftwareHash, &obs);
        let wall_seconds = start.elapsed().as_secs_f64();
        if let Some((b, _)) = &best {
            assert_eq!(
                b.partition.labels(),
                run.partition.labels(),
                "the simulation must be deterministic across repetitions"
            );
            assert_eq!(
                b.total.instructions, run.total.instructions,
                "simulated instruction counts must not vary across repetitions"
            );
        }
        if best
            .as_ref()
            .is_none_or(|(b, _)| run.sim_seconds < b.sim_seconds)
        {
            best = Some((run, wall_seconds));
        }
    }
    let (run, wall_seconds) = best.expect("at least one repetition");
    let instructions = run.total.instructions;
    assert!(instructions > 0, "the simulated kernel must execute");
    let instructions_per_sec = instructions as f64 / run.sim_seconds;
    let ns_per_instruction = run.sim_seconds * 1e9 / instructions as f64;

    print!(
        "{}",
        render_table(
            &format!(
                "Simulator throughput on {workload} ({cores} simulated cores, best of {reps})"
            ),
            &[
                "sim time",
                "wall clock",
                "instructions",
                "instr/sec",
                "ns/instr"
            ],
            &[vec![
                fmt_secs(run.sim_seconds),
                fmt_secs(wall_seconds),
                fmt_count(instructions),
                format!("{:.1}M/s", instructions_per_sec / 1e6),
                format!("{ns_per_instruction:.2}ns"),
            ]],
        )
    );

    let out = std::env::var("ASA_SIMTHROUGHPUT_OUT")
        .unwrap_or_else(|_| "BENCH_simthroughput.json".into());
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
        "meta": run_metadata(&workload, &icfg),
        "sim_seconds": run.sim_seconds,
        "wall_seconds": wall_seconds,
        "instructions": instructions,
        "instructions_per_sec": instructions_per_sec,
        "ns_per_instruction": ns_per_instruction,
    });
    std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap()).expect("write bench json");
    println!("\nwrote {out}");
    drop(_root);
    args.finish(&obs);
}
