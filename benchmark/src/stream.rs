//! `stream-updates`: the write path. Two LFR graphs are each seeded once,
//! then a closed loop applies edit batches through
//! `IncrementalState::apply`, alternating between the two streams (two
//! graphs per seed, so one seed's draw moves the run's median less). Each
//! batch is generated before its timer starts.

use std::sync::Arc;
use std::time::Instant;

use asa_infomap::{
    detect_communities, CancelToken, FlowNetwork, IncrementalConfig, IncrementalOutcome,
    IncrementalState, InfomapConfig,
};
use asa_obs::Obs;

use crate::gen::{self, Rng};
use crate::spans::Recorder;
use crate::stats::{median, percentile, quantile_name, sorted, tail_quantile};
use crate::{repeated_setup, Outcome, RunCfg};

/// Edits per batch.
const EDITS: usize = 40;

/// Applies per measured second on a 2-core host (see
/// `host::Kind::runs_per_second`).
const APPLIES_PER_SECOND: f64 = 55.0;

/// Streams per seed.
const STREAMS: u64 = 2;

struct Stream {
    state: IncrementalState,
    hot: Vec<asa_graph::NodeId>,
}

fn setup(cfg: &RunCfg) -> Vec<Stream> {
    let n = if cfg.smoke { 1_000 } else { 20_000 };
    (0..STREAMS)
        .map(|k| {
            let (graph, truth) = gen::lfr(n, gen::derive(cfg.seed, 10 + k));
            let (state, _) = IncrementalState::new(
                Arc::new(graph),
                InfomapConfig::default(),
                IncrementalConfig::default(),
                &Obs::disabled(),
                &CancelToken::none(),
            );
            Stream {
                state,
                hot: gen::hot_members(&truth),
            }
        })
        .collect()
}

/// Per-apply observations.
#[derive(Default)]
struct Applies {
    secs: Vec<f64>,
    frontier: Vec<f64>,
    ripples: Vec<f64>,
    fallbacks: usize,
}

impl Applies {
    /// Records one apply and checks it answered for every vertex.
    fn push(&mut self, secs: f64, o: &IncrementalOutcome, nodes: usize, out: &mut Outcome) {
        self.secs.push(secs);
        self.frontier.push(o.frontier_size as f64);
        self.ripples.push(o.ripple_rounds as f64);
        self.fallbacks += usize::from(!o.incremental());
        out.attempted += 1;
        if o.result.partition.len() != nodes {
            out.failed += 1;
            out.error(format!(
                "apply answered {} labels for {nodes} nodes",
                o.result.partition.len()
            ));
        }
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (mut streams, setup_s) = repeated_setup(cfg.setup_reps(), || setup(cfg));
    let obs = Obs::disabled();
    let cancel = CancelToken::none();
    let mut rng = Rng::new(gen::derive(cfg.seed, 4));
    let total = cfg.ops(APPLIES_PER_SECOND, 4);
    // The traced run spends half its applies untraced, as the overhead
    // baseline.
    let plain_n = if cfg.trace { total / 2 } else { total };

    let mut plain = Applies::default();
    for i in 0..plain_n {
        let Stream { state, hot } = &mut streams[i % STREAMS as usize];
        let delta = gen::make_delta(&mut rng, state.merged(), hot, EDITS);
        let t = Instant::now();
        let o = state.apply(&delta, &obs, &cancel);
        plain.push(
            t.elapsed().as_secs_f64(),
            &o,
            state.merged().num_nodes(),
            &mut out,
        );
    }

    if cfg.trace {
        let mut rec = Recorder::new();
        let mut traced = Applies::default();
        let (mut materialize, mut flow) = (Vec::new(), Vec::new());
        for i in plain_n..total {
            let Stream { state, hot } = &mut streams[i % STREAMS as usize];
            let delta = gen::make_delta(&mut rng, state.merged(), hot, EDITS);
            let id = i as u64;
            let root = rec.open("stream.update", id, None);
            let t0 = Instant::now();
            let o = state.apply(&delta, &obs, &cancel);
            let t1 = Instant::now();
            rec.record("infomap.incr.apply", id, Some(root), t0, t1);
            // Redo the two rebuilds apply performs inside, to size their
            // share of it.
            let merged = state.graph().materialize();
            let t2 = Instant::now();
            rec.record("graph.materialize", id, Some(root), t1, t2);
            let net = FlowNetwork::from_graph(state.merged(), state.config());
            let t3 = Instant::now();
            rec.record("infomap.incr.flow", id, Some(root), t2, t3);
            rec.close(root);
            std::hint::black_box((merged, net));
            let nodes = state.merged().num_nodes();
            traced.push((t1 - t0).as_secs_f64(), &o, nodes, &mut out);
            materialize.push((t2 - t1).as_secs_f64());
            flow.push((t3 - t2).as_secs_f64());
        }
        let applied: f64 = traced.secs.iter().sum();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        out.metric("infomap.incr.apply_ms", median(&traced.secs) * 1e3);
        out.metric("graph.materialize_ms", median(&materialize) * 1e3);
        out.metric("infomap.incr.flow_ms", median(&flow) * 1e3);
        out.metric(
            "infomap.incr.rebuild_share",
            (materialize.iter().sum::<f64>() + flow.iter().sum::<f64>()) / applied,
        );
        out.metric("infomap.incr.frontier_mean", mean(&traced.frontier));
        out.metric("infomap.incr.ripples_mean", mean(&traced.ripples));
        out.metric(
            "infomap.incr.fallback_ratio",
            traced.fallbacks as f64 / traced.secs.len() as f64,
        );
        out.metric(
            "trace.overhead",
            median(&traced.secs) / median(&plain.secs) - 1.0,
        );
        out.metric("process.peak_rss_mb", crate::peak_rss_mb());
        out.recorder = Some(rec);
    }

    // Each stream's answer stays within the quality guard's drift budget
    // of a fresh run on its final graph.
    let budget = IncrementalConfig::default().drift_budget;
    let mut drifts = Vec::with_capacity(streams.len());
    for Stream { state, .. } in &streams {
        let fresh = detect_communities(state.merged(), state.config());
        let drift = (state.codelength() - fresh.codelength) / fresh.codelength;
        if !(drift <= budget) {
            out.error(format!(
                "incremental codelength {} drifted {drift:.4} from a fresh run's {} (budget {budget})",
                state.codelength(),
                fresh.codelength
            ));
        }
        drifts.push(drift);
    }

    if !cfg.trace {
        let secs = sorted(plain.secs);
        let q = tail_quantile(secs.len());
        out.note(format!(
            "{} streams, {} applies, {} fallbacks, drifts {drifts:+.5?}, tail at {}",
            streams.len(),
            secs.len(),
            plain.fallbacks,
            quantile_name(q)
        ));
        out.metric("setup_s", setup_s);
        out.metric("latency_p50_ms", percentile(&secs, 0.5) * 1e3);
        out.metric("latency_tail_ms", percentile(&secs, q) * 1e3);
        out.metric(
            "throughput_per_s",
            secs.len() as f64 / secs.iter().sum::<f64>(),
        );
    }
    out
}
