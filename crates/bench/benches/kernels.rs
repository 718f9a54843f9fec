//! Criterion benches of the individual Infomap kernels: PageRank, the map
//! equation (full codelength + move delta), and the generic
//! FindBestCommunity kernel over the Baseline hash table
//! (`ChainedAccumulator`) with a null sink — the hash reference path.

use asa_graph::generators::{synth_network, PaperNetwork};
use asa_graph::Partition;
use asa_hashsim::ChainedAccumulator;
use asa_infomap::find_best::{find_best_community, FindBestScratch};
use asa_infomap::flow::FlowNetwork;
use asa_infomap::mapeq::{codelength, module_flows_of, MapState};
use asa_infomap::pagerank::{pagerank, undirected_stationary};
use asa_infomap::InfomapConfig;
use asa_simarch::events::NullSink;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn workload() -> (asa_graph::CsrGraph, FlowNetwork, Partition) {
    let (graph, truth) = synth_network(PaperNetwork::Dblp, 512);
    let flow = FlowNetwork::from_graph(&graph, &InfomapConfig::default());
    (graph, flow, truth)
}

fn bench_pagerank(c: &mut Criterion) {
    let (graph, _, _) = workload();
    let mut group = c.benchmark_group("pagerank");
    group.throughput(Throughput::Elements(graph.num_arcs() as u64));
    group.bench_function("power_iteration", |b| {
        b.iter(|| pagerank(&graph, 0.15, 1e-9, 100))
    });
    group.bench_function("undirected_analytic", |b| {
        b.iter(|| undirected_stationary(&graph))
    });
    group.finish();
}

fn bench_mapeq(c: &mut Criterion) {
    let (_, flow, truth) = workload();
    let state = MapState::new(&flow, &truth);
    let mut group = c.benchmark_group("map_equation");
    group.bench_function("full_codelength", |b| b.iter(|| codelength(&flow, &truth)));
    group.bench_function("delta_move", |b| {
        let u = 0u32;
        let old = truth.community_of(u);
        let new = (old + 1) % truth.num_communities() as u32;
        let fo = module_flows_of(&flow, &truth, u, old);
        let fnw = module_flows_of(&flow, &truth, u, new);
        let node = flow.node_summary(u);
        b.iter(|| state.delta_move(old, new, &node, fo, fnw))
    });
    group.finish();
}

fn bench_find_best(c: &mut Criterion) {
    let (_, flow, _) = workload();
    let partition = Partition::singletons(flow.num_nodes());
    let state = MapState::new(&flow, &partition);
    let labels = partition.labels().to_vec();
    let mut acc = ChainedAccumulator::new();
    let mut scratch = FindBestScratch::default();
    let mut sink = NullSink;

    let mut group = c.benchmark_group("find_best_community");
    group.throughput(Throughput::Elements(flow.num_nodes() as u64));
    group.bench_function("full_sweep_host", |b| {
        b.iter(|| {
            let mut moves = 0usize;
            for u in 0..flow.num_nodes() as u32 {
                let d = find_best_community(
                    &flow,
                    &labels,
                    &state,
                    u,
                    &mut acc,
                    &mut sink,
                    &mut scratch,
                );
                moves += usize::from(d.best_module != labels[u as usize]);
            }
            moves
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pagerank, bench_mapeq, bench_find_best);
criterion_main!(benches);
