//! `serve-mixed`: reads and writes sharing one `ServeEngine`'s workers
//! and result cache.
//!
//! The mix, in a fixed ten-slot pattern: four cold batch detects cycling
//! over distinct LFR graphs (more graphs than the cache holds, so every
//! one misses), three interactive detects over a few large hot graphs
//! (cache hits after warm-up, each paying a whole-CSR fingerprint inside
//! `submit`), and three streaming updates alternating over two streams.
//! Phase 1 is an open loop at a fixed rate, every request timed from when
//! it was due. Phase 2 is a closed loop of two clients, whose completion
//! rate is the engine's capacity at this mix.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use asa_graph::generators::PaperNetwork;
use asa_graph::{CsrGraph, EdgeDelta, NodeId};
use asa_serve::{
    EngineStats, Outcome as ServeOutcome, Request, Response, ServeConfig, ServeEngine,
};

use crate::gen::{self, Rng};
use crate::spans::Recorder;
use crate::stats::{due_latency, median, percentile, quantile_name, sorted, tail_quantile};
use crate::{repeated_setup, Outcome, RunCfg};

/// Open-loop offered load, requests per second: about a third of the
/// closed loop's capacity on a 2-core host. At 100 req/s a neighbour's
/// burst on the shared host pushed the engine near saturation, and the
/// tail swung by a quarter between runs of one seed.
const RATE: f64 = 60.0;
/// Share of `--seconds` the open loop runs; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.7;
/// Closed-loop requests per second of the closed loop's share, sized on a
/// 2-core host (see `host::Kind::runs_per_second`).
const CLOSED_PER_SECOND: f64 = 150.0;
/// Edits per update request.
const EDITS: usize = 20;
/// Generator lag beyond which an open-loop run is flagged invalid.
const MAX_LAG_MS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Hot,
    Update,
}

/// Request classes in the order they repeat: 40% cold, 30% hot, 30%
/// updates. Fixed rather than drawn, so every seed offers the same mix.
/// The median request then falls inside the update class rather than on
/// the boundary between two classes, where it would jump between them.
const PATTERN: [Class; 10] = [
    Class::Cold,
    Class::Hot,
    Class::Update,
    Class::Cold,
    Class::Hot,
    Class::Update,
    Class::Cold,
    Class::Hot,
    Class::Update,
    Class::Cold,
];

struct Stream {
    base: Arc<CsrGraph>,
    hot: Vec<NodeId>,
}

/// One scheduled request.
struct Op {
    class: Class,
    /// Index into the hot graphs for `Class::Hot`.
    hot: usize,
    request: Request,
}

struct Input {
    engine: ServeEngine,
    cold: Vec<Arc<CsrGraph>>,
    hot: Vec<Arc<CsrGraph>>,
    /// Codelength each hot graph was served at during warm-up.
    hot_codelength: Vec<f64>,
    streams: Vec<Stream>,
    rng: Rng,
    /// Requests scheduled so far, in total and per class.
    scheduled: usize,
    per_class: [usize; 3],
}

fn setup(cfg: &RunCfg) -> Input {
    let seed = cfg.seed;
    let mut rng = Rng::new(gen::derive(seed, 5));
    let (cold_graphs, cold_lo, stream_n) = if cfg.smoke {
        (8, 300, 600)
    } else {
        (64, 1_500, 5_000)
    };
    let hot_specs: &[(PaperNetwork, usize)] = if cfg.smoke {
        &[(PaperNetwork::Amazon, 512)]
    } else {
        &[
            (PaperNetwork::Amazon, 16),
            (PaperNetwork::Amazon, 16),
            (PaperNetwork::YouTube, 32),
            (PaperNetwork::YouTube, 32),
        ]
    };
    let cold = (0..cold_graphs as u64)
        .map(|k| {
            let n = cold_lo + rng.below(cold_lo + 1);
            Arc::new(gen::lfr(n, gen::derive(seed, 100 + k)).0)
        })
        .collect();
    let hot: Vec<Arc<CsrGraph>> = hot_specs
        .iter()
        .zip(10u64..)
        .map(|(&(net, div), tag)| Arc::new(gen::paper_network(net, div, gen::derive(seed, tag)).0))
        .collect();
    let streams: Vec<Stream> = (0..2u64)
        .map(|k| {
            let (graph, truth) = gen::lfr(stream_n, gen::derive(seed, 20 + k));
            Stream {
                base: Arc::new(graph),
                hot: gen::hot_members(&truth),
            }
        })
        .collect();

    // 32 entries hold the hot graphs with room to spare for the cold and
    // update results inserted between two touches of one hot graph (about
    // ten), even when a stall makes completions arrive in a burst; at 16
    // such a burst evicted a hot graph, whose 60 ms recompute then stalled
    // the next. Cold graphs cycle through 64, so they still always miss.
    let engine = ServeEngine::start(ServeConfig {
        shards: 1,
        workers: 2,
        cache_capacity: 32,
        cache_shards: 1,
        blackbox_out: None,
        ..ServeConfig::default()
    });
    // Warm-up: every hot graph cached, every stream seeded.
    let hot_codelength = hot
        .iter()
        .map(|g| {
            let response = engine.submit(Request::interactive(Arc::clone(g))).wait();
            response
                .outcome
                .result()
                .expect("warm-up detect of a hot graph resolves with a result")
                .codelength
        })
        .collect();
    for s in &streams {
        let delta = gen::make_delta(&mut rng, &s.base, &s.hot, EDITS);
        let response = engine
            .submit(Request::update(Arc::clone(&s.base), delta))
            .wait();
        assert!(
            response.outcome.result().is_some(),
            "stream seed resolves with a result"
        );
    }
    Input {
        engine,
        cold,
        hot,
        hot_codelength,
        streams,
        rng,
        scheduled: 0,
        per_class: [0; 3],
    }
}

impl Input {
    /// The next `n` requests of the mix.
    fn schedule(&mut self, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| {
                let class = PATTERN[self.scheduled % PATTERN.len()];
                self.scheduled += 1;
                // Per-class ordinal, so each class cycles its own pool.
                let k = self.per_class[class as usize];
                self.per_class[class as usize] += 1;
                let (hot, request) = match class {
                    Class::Cold => (
                        0,
                        Request::batch(Arc::clone(&self.cold[k % self.cold.len()])),
                    ),
                    Class::Hot => {
                        let h = k % self.hot.len();
                        (h, Request::interactive(Arc::clone(&self.hot[h])))
                    }
                    Class::Update => {
                        let s = &self.streams[k % self.streams.len()];
                        let delta: EdgeDelta =
                            gen::make_delta(&mut self.rng, &s.base, &s.hot, EDITS);
                        (0, Request::update(Arc::clone(&s.base), delta))
                    }
                };
                Op {
                    class,
                    hot,
                    request,
                }
            })
            .collect()
    }
}

/// One resolved request.
struct Sample {
    class: Class,
    hot: usize,
    nodes: usize,
    due: Instant,
    submitted: Instant,
    returned: Instant,
    response: Response,
}

impl Sample {
    fn latency_s(&self) -> f64 {
        if self.failed() {
            return f64::INFINITY;
        }
        due_latency(self.due, self.submitted, self.response.total).as_secs_f64()
    }

    fn failed(&self) -> bool {
        matches!(
            self.response.outcome,
            ServeOutcome::Overloaded | ServeOutcome::DeadlineExceeded
        )
    }
}

/// Open loop: submits `ops` on a fixed schedule whatever the engine's
/// progress, then waits for every handle.
fn open_loop(engine: &ServeEngine, ops: Vec<Op>) -> Vec<Sample> {
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now();
    let mut pending = Vec::with_capacity(ops.len());
    for (i, op) in ops.into_iter().enumerate() {
        let due = start + interval * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let nodes = op.request.graph.num_nodes();
        let submitted = Instant::now();
        let handle = engine.submit(op.request);
        let returned = Instant::now();
        pending.push((op.class, op.hot, nodes, due, submitted, returned, handle));
    }
    pending
        .into_iter()
        .map(
            |(class, hot, nodes, due, submitted, returned, handle)| Sample {
                class,
                hot,
                nodes,
                due,
                submitted,
                returned,
                response: handle.wait(),
            },
        )
        .collect()
}

/// Closed loop: two clients, each sending the next request of the
/// schedule when its previous one resolved. Returns the samples and the
/// wall time.
fn closed_loop(engine: &ServeEngine, ops: Vec<Op>) -> (Vec<Sample>, f64) {
    let queue = Mutex::new(ops.into_iter());
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    loop {
                        let Some(op) = queue
                            .lock()
                            .expect("no client panicked holding the queue")
                            .next()
                        else {
                            return samples;
                        };
                        let nodes = op.request.graph.num_nodes();
                        let submitted = Instant::now();
                        let handle = engine.submit(op.request);
                        let returned = Instant::now();
                        samples.push(Sample {
                            class: op.class,
                            hot: op.hot,
                            nodes,
                            due: submitted,
                            submitted,
                            returned,
                            response: handle.wait(),
                        });
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("closed-loop client panicked"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Counts attempts and failures and checks every answer: a partition of
/// the right length, and hot graphs at their warm-up codelength.
fn check(input: &Input, samples: &[Sample], out: &mut Outcome) {
    for s in samples {
        out.attempted += 1;
        let Some(result) = s.response.outcome.result() else {
            out.failed += 1;
            continue;
        };
        if result.partition.len() != s.nodes {
            out.error(format!(
                "{:?} result has {} labels for {} nodes",
                s.class,
                result.partition.len(),
                s.nodes
            ));
        }
        if s.class == Class::Hot
            && result.codelength.to_bits() != input.hot_codelength[s.hot].to_bits()
        {
            out.error(format!(
                "hot graph {} served at codelength {} after warm-up's {}",
                s.hot, result.codelength, input.hot_codelength[s.hot]
            ));
        }
    }
}

fn ms_of(samples: &[Sample], pick: impl Fn(&Sample) -> Option<f64>) -> Vec<f64> {
    sorted(samples.iter().filter_map(pick).map(|s| s * 1e3).collect())
}

fn p(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        0.0
    } else {
        percentile(sorted_ms, q)
    }
}

/// Spans of one open-loop request, from the instants the generator took
/// and the durations the engine reported.
fn record_request(rec: &mut Recorder, id: u64, s: &Sample) {
    let r = &s.response;
    let done = s.submitted + r.total;
    let root = rec.record("serve.request", id, None, s.due, done.max(s.returned));
    rec.record("loadgen.lag", id, Some(root), s.due, s.submitted);
    rec.record("serve.submit", id, Some(root), s.submitted, s.returned);
    let queued = s.submitted + r.queued;
    rec.record("serve.queue", id, Some(root), s.submitted, queued);
    rec.record("serve.service", id, Some(root), queued, queued + r.service);
}

/// How much an engine counter grew between two snapshots.
fn grew(after: &EngineStats, before: &EngineStats, f: fn(&EngineStats) -> u64) -> f64 {
    (f(after) - f(before)) as f64
}

/// How late the open-loop generator submitted, p99 in ms. Above
/// [`MAX_LAG_MS`] the offered load was not the nominal one, and the run
/// says so.
fn generator_lag_p99_ms(open: &[Sample]) -> f64 {
    let lag = ms_of(open, |s| {
        Some(s.submitted.saturating_duration_since(s.due).as_secs_f64())
    });
    let lag_p99 = p(&lag, 0.99);
    if lag_p99 > MAX_LAG_MS {
        eprintln!(
            "serve-mixed: INVALID open loop: generator lag p99 {lag_p99:.3} ms > {MAX_LAG_MS} ms"
        );
    }
    lag_p99
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (mut input, setup_s) = repeated_setup(cfg.setup_reps(), || setup(cfg));
    let open_n = cfg.ops(RATE * OPEN_SHARE, 20);
    let closed_n = cfg.ops(CLOSED_PER_SECOND * (1.0 - OPEN_SHARE), 20);

    if !cfg.trace {
        let ops = input.schedule(open_n);
        let open = open_loop(&input.engine, ops);
        let ops = input.schedule(closed_n);
        let (closed, closed_s) = closed_loop(&input.engine, ops);
        check(&input, &open, &mut out);
        check(&input, &closed, &mut out);
        let lat = sorted(open.iter().map(|s| s.latency_s() * 1e3).collect());
        let q = tail_quantile(lat.len());
        out.note(format!(
            "{} open-loop requests at {RATE} req/s (tail at {}), {} closed-loop, generator lag p99 {:.3} ms",
            lat.len(),
            quantile_name(q),
            closed.len(),
            generator_lag_p99_ms(&open)
        ));
        out.metric("setup_s", setup_s);
        out.metric("latency_p50_ms", percentile(&lat, 0.5));
        out.metric("latency_tail_ms", percentile(&lat, q));
        out.metric("throughput_per_s", closed.len() as f64 / closed_s);
    } else {
        let mut rec = Recorder::new();
        let fingerprints: Vec<f64> = input
            .hot
            .iter()
            .flat_map(|g| {
                (0..5)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(g.fingerprint());
                        let end = Instant::now();
                        rec.record("graph.fingerprint", 0, None, t, end);
                        (end - t).as_secs_f64()
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        // First half of the open loop untraced, as the overhead baseline.
        let ops = input.schedule(open_n / 2);
        let plain = open_loop(&input.engine, ops);
        let before = input.engine.stats();
        let ops = input.schedule(open_n - open_n / 2);
        let open = open_loop(&input.engine, ops);
        let after = input.engine.stats();
        check(&input, &plain, &mut out);
        check(&input, &open, &mut out);
        for (id, s) in open.iter().enumerate() {
            record_request(&mut rec, id as u64, s);
        }
        let lat =
            |samples: &[Sample]| median(&samples.iter().map(Sample::latency_s).collect::<Vec<_>>());
        let of_class =
            |c: Class| move |s: &Sample| (s.class == c).then_some(s.response.service.as_secs_f64());
        let submit = ms_of(&open, |s| Some((s.returned - s.submitted).as_secs_f64()));
        let queue = ms_of(&open, |s| Some(s.response.queued.as_secs_f64()));
        let hits = ms_of(&open, |s| s.response.cache_hit.then(|| s.latency_s()));
        let updates = ms_of(&open, |s| (s.class == Class::Update).then(|| s.latency_s()));
        let lookups = grew(&after, &before, |s| s.cache_hits + s.cache_misses);
        let updates_done = grew(&after, &before, |s| {
            s.update_incremental + s.update_fallback + s.update_cold
        });
        out.metric("graph.fingerprint_ms", median(&fingerprints) * 1e3);
        out.metric("serve.submit_p50_ms", p(&submit, 0.5));
        out.metric("serve.submit_p99_ms", p(&submit, 0.99));
        out.metric("serve.queue_p50_ms", p(&queue, 0.5));
        out.metric("serve.queue_p99_ms", p(&queue, 0.99));
        out.metric(
            "serve.service_cold_p50_ms",
            p(&ms_of(&open, of_class(Class::Cold)), 0.5),
        );
        out.metric(
            "serve.service_update_p50_ms",
            p(&ms_of(&open, of_class(Class::Update)), 0.5),
        );
        out.metric("serve.hit_p50_ms", p(&hits, 0.5));
        out.metric("serve.update_p50_ms", p(&updates, 0.5));
        out.metric(
            "serve.cache_hit_ratio",
            grew(&after, &before, |s| s.cache_hits) / lookups.max(1.0),
        );
        out.metric("serve.queue_depth_max", after.queue_depth_max as f64);
        out.metric(
            "serve.degraded",
            grew(&after, &before, |s| {
                s.degraded_pressure + s.degraded_deadline
            }),
        );
        out.metric(
            "serve.update_incremental_ratio",
            grew(&after, &before, |s| s.update_incremental) / updates_done.max(1.0),
        );
        out.metric("loadgen.lag_p99_ms", generator_lag_p99_ms(&open));
        out.metric("trace.overhead", lat(&open) / lat(&plain) - 1.0);
        out.metric("process.peak_rss_mb", crate::peak_rss_mb());
        out.recorder = Some(rec);
    }
    input.engine.shutdown();
    out
}
