//! Tables III & IV — Native vs Baseline per-iteration runtimes (YouTube).
//!
//! The paper validates ZSim by running the same Infomap binary natively and
//! under simulation and comparing per-iteration `FindBestCommunity` times
//! on 1 and 2 cores. Here "Native" is the identical kernel schedule run on
//! the host — the hash reference engine over the same software hash table
//! with a null event sink, on a `cores`-thread pool (wall clock) — and
//! "Baseline" is the simulated time of the modeled machine.
//! Absolute agreement depends on the host CPU; the structural expectation
//! that carries from the paper is the *decreasing per-iteration runtime*
//! (the active vertex set shrinks) and a stable native/simulated ratio.

use asa_bench::{fmt_secs, infomap_config, load_network, render_table, simulate};
use asa_graph::generators::PaperNetwork;
use asa_infomap::instrumented::{native_infomap, Device};

fn main() {
    let (graph, _) = load_network(PaperNetwork::YouTube);
    let icfg = infomap_config();

    for cores in [1usize, 2] {
        let native = native_infomap(&graph, &icfg, cores);
        let sim = simulate(&graph, cores, Device::SoftwareHash);
        // The paper's "iterations" are the vertex-phase sweeps of the
        // first pass: level 0 of outer iteration 0 on both sides, paired
        // sweep by sweep (the native run's first level is that phase).
        let native_level0: &[f64] = &native.levels[0].sweep_seconds;
        let sim_level0: Vec<f64> = sim
            .sweeps
            .iter()
            .filter(|s| s.outer == 0 && s.level == 0)
            .map(|s| s.combined.seconds(sim.machine.freq_ghz))
            .collect();
        let native_level0 = &native_level0[..sim_level0.len().min(native_level0.len())];

        let mut rows = Vec::new();
        for (i, (&nat, &simt)) in native_level0.iter().zip(sim_level0.iter()).enumerate() {
            let diff = if nat > 0.0 {
                format!("{:.0}%", ((simt - nat) / nat * 100.0).abs())
            } else {
                "-".into()
            };
            rows.push(vec![
                format!("{}", i + 1),
                fmt_secs(nat),
                fmt_secs(simt),
                diff,
            ]);
        }
        print!(
            "{}",
            render_table(
                &format!(
                    "Table {}: Native vs Baseline per iteration, {} core(s), youtube-like",
                    if cores == 1 { "III" } else { "IV" },
                    cores
                ),
                &["iteration", "Native (s)", "Baseline (s)", "% diff"],
                &rows,
            )
        );
        // Structural check mirrored from the paper: times decrease.
        let decreasing = native_level0.windows(2).filter(|w| w[1] <= w[0]).count();
        println!(
            "decreasing native iterations: {}/{}\n",
            decreasing,
            native_level0.len().saturating_sub(1)
        );
    }
    println!("paper expectation: per-iteration runtime shrinks monotonically; ZSim tracked native within ~13% on their testbed (our native column is a Rust host, so the ratio differs but stays stable across iterations)");
}
