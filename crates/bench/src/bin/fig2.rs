//! Figure 2 — kernel and hash-operation cost breakdown.
//!
//! * Fig. 2a: share of total runtime per kernel (PageRank /
//!   FindBestCommunity / Convert2SuperNode / UpdateMembers), single-core
//!   wall clock, for the Pokec- and Orkut-like networks. The paper reports
//!   FindBestCommunity at 70–90%.
//! * Fig. 2b: share of FindBestCommunity spent on hash operations, from
//!   the simulated Baseline (the paper reports 50–65%).

use asa_bench::{fmt_pct, fmt_secs, infomap_config, load_network, render_table, simulate};
use asa_graph::generators::PaperNetwork;
use asa_infomap::detect_communities;
use asa_infomap::instrumented::Device;

fn main() {
    let networks = [PaperNetwork::Pokec, PaperNetwork::Orkut];

    // Wall-clock timing is sensitive to allocator/page state left behind by
    // a previous network's run, so each Fig 2a measurement runs in a fresh
    // child process (`fig2 <network>` prints one CSV row and exits).
    if let Some(name) = std::env::args().nth(1) {
        let net = networks
            .into_iter()
            .find(|n| n.name() == name)
            .expect("unknown network argument");
        let (graph, _) = load_network(net);
        // The paper: "all the plots illustrated in Fig. 2 are single-core
        // execution" — pin to one thread. Wall clock is sensitive to host
        // allocator/page state, so take the fastest of three runs.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("single-thread pool");
        let best = (0..3)
            .map(|_| {
                pool.install(|| detect_communities(&graph, &infomap_config()))
                    .timings
            })
            .min_by(|a, b| {
                a.total()
                    .partial_cmp(&b.total())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("three runs");
        println!(
            "ROW,{},{},{},{},{},{}",
            net.name(),
            best.total().as_secs_f64(),
            best.pagerank.as_secs_f64(),
            best.find_best.as_secs_f64(),
            best.convert.as_secs_f64(),
            best.update.as_secs_f64()
        );
        return;
    }

    let exe = std::env::current_exe().expect("current exe");
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    for net in networks {
        // Fig 2a in a fresh child process.
        let out = std::process::Command::new(&exe)
            .arg(net.name())
            .output()
            .expect("child run");
        assert!(out.status.success(), "fig2 child failed for {}", net.name());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let row = stdout
            .lines()
            .find(|l| l.starts_with("ROW,"))
            .expect("child row");
        let cells: Vec<f64> = row.split(',').skip(2).map(|c| c.parse().unwrap()).collect();
        let (total, pagerank, find_best, convert, update) =
            (cells[0].max(1e-12), cells[1], cells[2], cells[3], cells[4]);
        rows_a.push(vec![
            net.name().to_string(),
            fmt_secs(total),
            fmt_pct(pagerank / total),
            fmt_pct(find_best / total),
            fmt_pct(convert / total),
            fmt_pct(update / total),
        ]);

        // Fig 2b: hash share of the simulated FindBestCommunity kernel.
        let (graph, _) = load_network(net);
        let sim = simulate(&graph, 1, Device::SoftwareHash);
        rows_b.push(vec![
            net.name().to_string(),
            fmt_secs(sim.kernel_seconds()),
            fmt_secs(sim.hash_seconds()),
            fmt_pct(sim.hash_share()),
        ]);
    }

    print!(
        "{}",
        render_table(
            "Fig 2a: kernel time breakdown (single run, wall clock)",
            &[
                "network",
                "total",
                "PageRank",
                "FindBestCommunity",
                "Convert2SuperNode",
                "UpdateMembers",
            ],
            &rows_a,
        )
    );
    println!();
    print!(
        "{}",
        render_table(
            "Fig 2b: hash operations within FindBestCommunity (simulated Baseline, 1 core)",
            &["network", "kernel time", "hash-ops time", "hash share"],
            &rows_b,
        )
    );
    println!(
        "\npaper expectation: FindBestCommunity 70-90% of total; hash ops 50-65% of the kernel"
    );
}
