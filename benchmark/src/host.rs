//! `host-dense` and `host-web`: whole host runs, each a graph load from
//! disk followed by community detection.
//!
//! The untraced pass calls `binio::read_graph` then `detect_communities`,
//! exactly as a user of the library would. The traced pass composes the
//! same run from its public parts (`FlowNetwork::from_graph`, then the
//! multilevel schedule over a `HostEngine` wrapped to time `decide()` and
//! the apply step after it) and must reproduce the same codelength bit
//! for bit, which is what makes its layer shares describe the untraced run.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use asa_graph::generators::PaperNetwork;
use asa_graph::{binio, CsrGraph, Partition};
use asa_infomap::driver::HostEngine;
use asa_infomap::find_best::MoveDecision;
use asa_infomap::local_move::AppliedMoves;
use asa_infomap::schedule::{optimize_multilevel_cancellable, DecideEngine, SweepCtx};
use asa_infomap::{
    detect_communities, mapeq, CancelToken, FlowNetwork, InfomapConfig, InfomapResult,
};

use crate::gen;
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile, quantile_name, sorted, tail_quantile};
use crate::{repeated_setup, Outcome, RunCfg};

/// Relative slack of the detected codelength over the generator's
/// planted partition (LFR communities, web sites). Infomap beats the
/// planted partition on these inputs; the slack only absorbs ties.
const PLANTED_SLACK: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// soc-pokec stand-in: undirected, average degree about 29.
    Dense,
    /// Directed web crawl: PageRank runs, degree is low.
    Web,
}

impl Kind {
    /// Load + detect runs per measured second, sized on a 2-core host so
    /// a run lasts about `--seconds`. The count is fixed by `--seconds`,
    /// so a parent and its change do identical work.
    fn runs_per_second(self) -> f64 {
        match self {
            Kind::Dense => 5.0,
            Kind::Web => 2.75,
        }
    }

    /// One input graph and its planted partition.
    fn generate(self, seed: u64, smoke: bool) -> (CsrGraph, Partition) {
        match (self, smoke) {
            (Kind::Dense, false) => gen::paper_network(PaperNetwork::Pokec, 64, seed),
            (Kind::Dense, true) => gen::paper_network(PaperNetwork::Pokec, 2048, seed),
            (Kind::Web, false) => gen::web_graph(2_400, 25, seed),
            (Kind::Web, true) => gen::web_graph(80, 25, seed),
        }
    }
}

/// One input graph: the file every run on it loads, plus what the checks
/// need.
struct GraphFile {
    path: PathBuf,
    nodes: usize,
    planted: Partition,
}

/// Graphs per seed. Runs cycle over them, so one seed's draw of a graph
/// moves the run's median less.
const GRAPHS: u64 = 4;

fn setup(kind: Kind, cfg: &RunCfg) -> Vec<GraphFile> {
    std::fs::create_dir_all(&cfg.work_dir).expect("create the benchmark work directory");
    (0..GRAPHS)
        .map(|k| {
            let (graph, planted) = kind.generate(gen::derive(cfg.seed, k), cfg.smoke);
            let path = cfg
                .work_dir
                .join(format!("{}-{k}.graph", cfg.workload_name));
            let file = std::fs::File::create(&path).expect("create a graph file");
            binio::write_graph(&graph, std::io::BufWriter::new(file)).expect("write a graph file");
            GraphFile {
                path,
                nodes: graph.num_nodes(),
                planted,
            }
        })
        .collect()
}

fn load(path: &Path) -> CsrGraph {
    let file = std::fs::File::open(path).expect("open the graph file");
    binio::read_graph(BufReader::new(file)).expect("read the graph file")
}

/// `DecideEngine` wrapper recording a span per `decide()` and per apply
/// step (end of `decide()` to `after_sweep()`), with sweep counts.
struct TracedEngine<'r> {
    inner: HostEngine,
    rec: &'r mut Recorder,
    id: u64,
    parent: usize,
    decide_end: Instant,
    decide: Duration,
    apply: Duration,
    sweeps: usize,
    evaluated: usize,
    moves: usize,
}

impl DecideEngine for TracedEngine<'_> {
    fn decide(&mut self, ctx: &SweepCtx<'_>) -> Vec<MoveDecision> {
        let start = Instant::now();
        let decisions = self.inner.decide(ctx);
        let end = Instant::now();
        self.rec
            .record("infomap.decide", self.id, Some(self.parent), start, end);
        self.decide += end - start;
        self.evaluated += ctx.active.len();
        self.decide_end = end;
        decisions
    }

    fn after_sweep(&mut self, ctx: &SweepCtx<'_>, applied: &AppliedMoves, elapsed: Duration) {
        let now = Instant::now();
        self.rec.record(
            "infomap.apply",
            self.id,
            Some(self.parent),
            self.decide_end,
            now,
        );
        self.apply += now - self.decide_end;
        self.sweeps += 1;
        self.moves += applied.applied;
        self.inner.after_sweep(ctx, applied, elapsed);
    }
}

/// Layer times and counts of one traced run.
struct Ledger {
    wall: f64,
    load: f64,
    flow: f64,
    decide: f64,
    apply: f64,
    coarsen: f64,
    sweeps: f64,
    levels: f64,
    evaluated: f64,
    moves: f64,
}

fn traced_run(
    input: &GraphFile,
    icfg: &InfomapConfig,
    rec: &mut Recorder,
    id: u64,
) -> (Ledger, f64) {
    let root = rec.open("host.run", id, None);
    let t = Instant::now();
    let graph = load(&input.path);
    let t_load = Instant::now();
    rec.record("graph.load", id, Some(root), t, t_load);
    let flow = FlowNetwork::from_graph(&graph, icfg);
    let t_flow = Instant::now();
    rec.record("infomap.flow", id, Some(root), t_load, t_flow);
    let opt = rec.open("infomap.optimize", id, Some(root));
    let mut engine = TracedEngine {
        inner: HostEngine::from_config(icfg),
        rec,
        id,
        parent: opt,
        decide_end: t_flow,
        decide: Duration::ZERO,
        apply: Duration::ZERO,
        sweeps: 0,
        evaluated: 0,
        moves: 0,
    };
    let outcome = optimize_multilevel_cancellable(&flow, icfg, &mut engine, &CancelToken::none());
    let t_opt = Instant::now();
    let (decide, apply) = (engine.decide.as_secs_f64(), engine.apply.as_secs_f64());
    let (sweeps, evaluated, moves) = (engine.sweeps, engine.evaluated, engine.moves);
    rec.close(opt);
    rec.close(root);
    let ledger = Ledger {
        wall: t_opt.duration_since(t).as_secs_f64(),
        load: t_load.duration_since(t).as_secs_f64(),
        flow: t_flow.duration_since(t_load).as_secs_f64(),
        decide,
        apply,
        coarsen: t_opt.duration_since(t_flow).as_secs_f64() - decide - apply,
        sweeps: sweeps as f64,
        levels: outcome.levels.len() as f64,
        evaluated: evaluated as f64,
        moves: moves as f64,
    };
    (ledger, outcome.codelength)
}

/// `runs` load + detect runs cycling over `inputs`. Returns their wall
/// times and each graph's first answer; every later answer on a graph
/// must repeat its codelength bit for bit.
fn solve_pass(
    inputs: &[GraphFile],
    icfg: &InfomapConfig,
    runs: usize,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<InfomapResult>) {
    let mut times = Vec::with_capacity(runs);
    let mut answers: Vec<InfomapResult> = Vec::with_capacity(inputs.len());
    for i in 0..runs {
        let input = &inputs[i % inputs.len()];
        let t = Instant::now();
        let graph = load(&input.path);
        let result = detect_communities(&graph, icfg);
        times.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        let first = answers.get(i % inputs.len()).unwrap_or(&result);
        if result.partition.len() != input.nodes
            || result.codelength.to_bits() != first.codelength.to_bits()
        {
            out.failed += 1;
            out.error(format!(
                "run {i}: {} labels for {} nodes, codelength {} (first run: {})",
                result.partition.len(),
                input.nodes,
                result.codelength,
                first.codelength
            ));
        }
        if answers.len() < inputs.len() {
            answers.push(result);
        }
    }
    (times, answers)
}

/// Output checks on one graph's answer: an independent codelength
/// recomputation, compression, and the planted-partition anchor.
fn check_answer(
    input: &GraphFile,
    icfg: &InfomapConfig,
    result: &InfomapResult,
    out: &mut Outcome,
) {
    let graph = load(&input.path);
    let flow = FlowNetwork::from_graph(&graph, icfg);
    let recomputed = mapeq::codelength(&flow, &result.partition);
    let rel =
        (recomputed - result.codelength).abs() / result.codelength.abs().max(f64::MIN_POSITIVE);
    if !(rel <= 1e-9) {
        out.error(format!(
            "recomputed codelength {recomputed} differs from reported {} (rel {rel:e})",
            result.codelength
        ));
    }
    if !(result.codelength < result.initial_codelength) {
        out.error(format!(
            "codelength {} not below the one-module codelength {}",
            result.codelength, result.initial_codelength
        ));
    }
    let planted = mapeq::codelength(&flow, &input.planted);
    if !(result.codelength <= planted * (1.0 + PLANTED_SLACK)) {
        out.error(format!(
            "codelength {} worse than the planted partition's {planted}",
            result.codelength
        ));
    }
}

pub fn run(kind: Kind, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeated_setup(cfg.setup_reps(), || setup(kind, cfg));
    let icfg = InfomapConfig::default();
    let runs = cfg.ops(kind.runs_per_second(), 2 * inputs.len());
    // The traced run spends half its runs untraced, as the overhead
    // baseline.
    let plain_n = if cfg.trace { runs / 2 } else { runs };
    let (plain, answers) = solve_pass(&inputs, &icfg, plain_n, &mut out);
    for (input, answer) in inputs.iter().zip(&answers) {
        check_answer(input, &icfg, answer, &mut out);
    }

    if !cfg.trace {
        let times = sorted(plain);
        let q = tail_quantile(times.len());
        out.note(format!(
            "{} graphs of {} nodes, {} runs, codelengths {:?} bits, tail at {}",
            inputs.len(),
            inputs[0].nodes,
            times.len(),
            answers
                .iter()
                .map(|a| a.codelength as f32)
                .collect::<Vec<_>>(),
            quantile_name(q)
        ));
        out.metric("setup_s", setup_s);
        out.metric("latency_p50_ms", percentile(&times, 0.5) * 1e3);
        out.metric("latency_tail_ms", percentile(&times, q) * 1e3);
        out.metric(
            "throughput_per_s",
            times.len() as f64 / times.iter().sum::<f64>(),
        );
    } else {
        let mut rec = Recorder::new();
        let mut ledgers = Vec::with_capacity(runs - plain_n);
        for i in 0..runs - plain_n {
            let k = i % inputs.len();
            let (ledger, codelength) = traced_run(&inputs[k], &icfg, &mut rec, i as u64);
            out.attempted += 1;
            if codelength.to_bits() != answers[k].codelength.to_bits() {
                out.failed += 1;
                out.error(format!(
                    "traced composition codelength {codelength} != detect_communities {}",
                    answers[k].codelength
                ));
            }
            ledgers.push(ledger);
        }
        // Share of the traced runs' wall time the layer spans account for:
        // whatever the root span spends outside its children is glue no
        // layer claims.
        let (_, run_ns, glue_ns) = spans::ledger(rec.spans())["host.run"];
        let coverage = 1.0 - glue_ns as f64 / run_ns as f64;
        if !(coverage >= 0.95) {
            out.error(format!("layer coverage {coverage:.4} below 0.95"));
        }
        let med = |f: fn(&Ledger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
        out.metric("graph.load_s", med(|l| l.load));
        out.metric("infomap.flow_s", med(|l| l.flow));
        out.metric("infomap.decide_s", med(|l| l.decide));
        out.metric("infomap.apply_s", med(|l| l.apply));
        out.metric("infomap.coarsen_s", med(|l| l.coarsen));
        out.metric("infomap.sweeps", med(|l| l.sweeps));
        out.metric("infomap.levels", med(|l| l.levels));
        out.metric("infomap.evaluated", med(|l| l.evaluated));
        out.metric("infomap.moves", med(|l| l.moves));
        out.metric(
            "infomap.move_ratio",
            med(|l| l.moves / l.evaluated.max(1.0)),
        );
        out.metric("infomap.coverage", coverage);
        out.metric("trace.overhead", med(|l| l.wall) / median(&plain) - 1.0);
        out.metric("process.peak_rss_mb", crate::peak_rss_mb());
        out.recorder = Some(rec);
    }
    for input in &inputs {
        let _ = std::fs::remove_file(&input.path);
    }
    out
}
