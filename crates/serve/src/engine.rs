//! The serving engine: admission control → graph-affinity routing across
//! engine shards → bounded per-shard queues → worker sets → Infomap, with
//! one process-wide result cache in front and a degradation ladder under
//! load.
//!
//! Lifecycle of a request (see DESIGN.md § Serving layer and § Sharded
//! serving for the diagrams):
//!
//! 1. **Validation** ([`ServeEngine::submit`]): the request is keyed by
//!    `(graph fingerprint, config hash)`. The fingerprint is hashed once
//!    per graph and memoized on it, so resubmitting the same
//!    `Arc<CsrGraph>` hashes nothing. A config that fails
//!    [`asa_infomap::InfomapConfig::validate`], or an update whose delta
//!    names a vertex outside its base graph, resolves
//!    [`Outcome::Rejected`] here, before routing, so no worker ever runs
//!    it. Whether an update's weights overflow depends on its stream's
//!    state, so the worker checks that before applying it (O(Δ)) and
//!    rejects it the same way.
//! 2. **Routing**: the fingerprint picks the shard — home shard
//!    `fingerprint % shards`, widened to a round-robined routing set once
//!    the graph proves hot ([`crate::shard::Router`]).
//! 3. **Admission**: the key is looked up in the shared cache — a hit
//!    resolves immediately without queueing. A miss enqueues into the
//!    routed shard's priority class; a full class rejects with
//!    [`Outcome::Overloaded`] *now* instead of building unbounded
//!    backlog.
//! 4. **Dequeue**: each shard's workers drain interactive before batch.
//!    An idle shard steals the oldest batch job from the deepest foreign
//!    backlog (interactive jobs stay affine). A request whose deadline
//!    already expired resolves [`Outcome::DeadlineExceeded`] without
//!    running.
//! 5. **Degradation ladder**: under queue pressure, batch requests run
//!    with lowered quality knobs (first fewer outer refinement loops, then
//!    also fewer sweeps) before anything is shed. Interactive requests are
//!    never degraded by pressure.
//! 6. **Run**: Infomap executes with a [`CancelToken`] carrying the
//!    request deadline; an expiry mid-run stops at the next sweep boundary
//!    and the best partition found so far returns as
//!    [`Outcome::Degraded`].
//! 7. **Cache fill**: only full-quality, uninterrupted results are
//!    cached — degraded partitions must never be served to a later caller
//!    who asked for full quality. The cache is engine-wide, so a replica
//!    shard never recomputes what another shard already answered.
//!
//! Every outcome, on the submitting thread or on a worker, resolves
//! through one `finish`: it moves that outcome's counters, fills the
//! response slot and closes the trace envelope, so each request resolves
//! exactly once.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asa_graph::{fnv1a64, EdgeDelta};
use asa_infomap::incremental::IncrementalOutcome;
use asa_infomap::{
    detect_communities_cancellable, CancelToken, IncrementalConfig, IncrementalState,
    InfomapConfig, InfomapResult,
};
use asa_obs::blackbox::{self, SectionGuard};
use asa_obs::{intern_name, Counter, Gauge, Hist, Obs, TraceId};

use crate::cache::{CacheKey, ResultCache};
use crate::queue::{JobQueue, Popped, PushError};
use crate::request::{
    DegradeReason, JobHandle, Outcome, Priority, Rejection, Request, RequestKind, Response,
    ResponseSlot, UpdateInfo,
};
use crate::shard::{ReplicationConfig, Router, ShardStats};
use crate::store::PartitionStore;

/// Stable 64-bit hash of an Infomap configuration, for cache keying.
/// FNV-1a over the `Debug` rendering: every field participates, and the
/// rendering is deterministic for a given build.
pub fn config_hash(cfg: &InfomapConfig) -> u64 {
    fnv1a64(format!("{cfg:?}").as_bytes())
}

/// Shard-count default: `ASA_SERVE_SHARDS` when set (CI runs the test
/// suite at 1 and 4), else a single shard.
fn env_shards() -> usize {
    std::env::var("ASA_SERVE_SHARDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// How long an idle shard worker waits on its own queue before trying to
/// steal from a foreign backlog.
const STEAL_POLL: Duration = Duration::from_millis(2);

/// Engine sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine shards. Each shard has its own bounded two-class queue and
    /// worker set; requests route to `graph fingerprint % shards`.
    /// Defaults to `ASA_SERVE_SHARDS` when set, else 1.
    pub shards: usize,
    /// Worker threads *per shard*. Each runs one request at a time; the
    /// requests themselves still use the shared rayon pool internally.
    pub workers: usize,
    /// Bound on queued interactive requests *per shard*; submissions
    /// beyond it shed.
    pub queue_capacity_interactive: usize,
    /// Bound on queued batch requests per shard.
    pub queue_capacity_batch: usize,
    /// Whether idle shards steal batch-class jobs from foreign backlogs.
    /// Interactive jobs are never stolen regardless.
    pub steal: bool,
    /// Hot-graph replication policy (`threshold: 0` disables it, making
    /// routing pure deterministic affinity).
    pub replication: ReplicationConfig,
    /// Total result-cache entries (0 disables caching). The cache is
    /// process-wide — one instance shared by every shard.
    pub cache_capacity: usize,
    /// Cache shard count (lock-splitting; capacity divides across shards).
    pub cache_shards: usize,
    /// Cache entry time-to-live.
    pub cache_ttl: Duration,
    /// Queue depth (on the request's own shard) at which batch requests
    /// start running degraded (ladder rung 1; rung 2 engages at twice
    /// this depth).
    pub degrade_depth: usize,
    /// Live [`IncrementalState`]s each shard keeps for update streams
    /// (LRU-bounded; 0 disables reuse, making every update a cold full
    /// run).
    pub partition_store_capacity: usize,
    /// Delta batches a stream accumulates before its overlay is compacted
    /// back into a fresh base CSR. Compaction preserves chain identity,
    /// so cached results stay addressable.
    pub partition_compact_batches: usize,
    /// Quality-guard knobs (drift budget, frontier budget) for the
    /// incremental Infomap path behind [`RequestKind::Update`].
    pub incremental: IncrementalConfig,
    /// Telemetry handle. Serving metrics (queue depth gauges, per-class
    /// latency histograms, shed/degrade/cache/steal counters) register
    /// here; pass a disabled handle to keep metrics readable via
    /// [`ServeEngine::stats`] without any sink wiring.
    pub obs: Obs,
    /// Black-box flight-data path (default `None`; the serve bench sets
    /// `blackbox.json` under its `--obs-dir`). When set and the configured
    /// [`Obs`] is enabled, the engine installs a panic hook at `start` and
    /// writes one JSON diagnostic bundle there on any panic and again on
    /// graceful [`shutdown`] (reason `"shutdown"`). The bundle carries the
    /// flight-recorder drain, metric/resource snapshots, the span profile
    /// (exact self µs per span path, with the spans closed by then), and
    /// the engine's own `serve.shards` section.
    ///
    /// [`shutdown`]: ServeEngine::shutdown
    pub blackbox_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: env_shards(),
            workers: std::thread::available_parallelism().map_or(2, |p| p.get().min(8)),
            queue_capacity_interactive: 64,
            queue_capacity_batch: 256,
            steal: true,
            replication: ReplicationConfig::default(),
            cache_capacity: 128,
            cache_shards: 8,
            cache_ttl: Duration::from_secs(300),
            degrade_depth: 8,
            partition_store_capacity: 32,
            partition_compact_batches: 8,
            incremental: IncrementalConfig::default(),
            obs: Obs::disabled(),
            blackbox_out: None,
        }
    }
}

/// Engine-wide metric handles. Built from the configured [`Obs`] when it
/// is enabled, or from a private enabled handle otherwise, so
/// [`ServeEngine::stats`] always has live numbers to read.
#[derive(Debug, Clone)]
struct Metrics {
    submitted: Counter,
    completed: Counter,
    shed: Counter,
    degraded_pressure: Counter,
    degraded_deadline: Counter,
    deadline_exceeded: Counter,
    rejected: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_expired: Counter,
    cache_evicted: Counter,
    steals: Counter,
    replications: Counter,
    partition_hits: Counter,
    partition_misses: Counter,
    partition_evicted: Counter,
    update_incremental: Counter,
    update_fallback: Counter,
    update_cold: Counter,
    queue_depth: Gauge,
    partition_store: Gauge,
    latency_interactive_us: Hist,
    latency_batch_us: Hist,
}

impl Metrics {
    fn new(obs: &Obs) -> Self {
        Metrics {
            submitted: obs.counter("serve.submitted"),
            completed: obs.counter("serve.completed"),
            shed: obs.counter("serve.shed"),
            degraded_pressure: obs.counter("serve.degraded.pressure"),
            degraded_deadline: obs.counter("serve.degraded.deadline"),
            deadline_exceeded: obs.counter("serve.deadline_exceeded"),
            rejected: obs.counter("serve.rejected"),
            cache_hits: obs.counter("serve.cache.hits"),
            cache_misses: obs.counter("serve.cache.misses"),
            cache_expired: obs.counter("serve.cache.expired"),
            cache_evicted: obs.counter("serve.cache.evicted"),
            steals: obs.counter("serve.steals"),
            replications: obs.counter("serve.replications"),
            partition_hits: obs.counter("serve.partition.hits"),
            partition_misses: obs.counter("serve.partition.misses"),
            partition_evicted: obs.counter("serve.partition.evicted"),
            update_incremental: obs.counter("serve.update.incremental"),
            update_fallback: obs.counter("serve.update.fallback"),
            update_cold: obs.counter("serve.update.cold"),
            queue_depth: obs.gauge("serve.queue.depth"),
            partition_store: obs.gauge("serve.partition.store"),
            latency_interactive_us: obs.hist("serve.latency_us.interactive"),
            latency_batch_us: obs.hist("serve.latency_us.batch"),
        }
    }

    fn latency(&self, priority: Priority) -> &Hist {
        match priority {
            Priority::Interactive => &self.latency_interactive_us,
            Priority::Batch => &self.latency_batch_us,
        }
    }
}

/// One engine shard: its queue plus the per-shard metric handles
/// (`serve.shard.N.*`; names interned once per shard index).
struct Shard {
    queue: JobQueue<Job>,
    /// Live incremental states of the update streams homed here. The
    /// store belongs to the shard (not the worker), so a stolen update
    /// job still reads and writes its routed shard's streams.
    store: PartitionStore,
    /// Interned `serve.shard.N.queue.depth`, doubling as the gauge name
    /// and the flight-recorder counter-track name for this shard.
    depth_name: &'static str,
    queue_depth: Gauge,
    partition_store: Gauge,
    executed_local: Counter,
    steals_in: Counter,
    steals_out: Counter,
    cache_hits: Counter,
    /// Cache hits on this shard while it was the graph's home shard.
    cache_hits_home: Counter,
    /// Cache hits on this shard while it served as a replica (routed
    /// here by round-robin over a hot graph's grown routing set).
    cache_hits_replica: Counter,
    /// Cache hits observed by a stolen job (executed off its routed
    /// shard; the hit still attributes to the routed shard's counter).
    cache_hits_stolen: Counter,
    shed: Counter,
    replicas_hosted: Counter,
}

impl Shard {
    fn new(i: usize, cfg: &ServeConfig, obs: &Obs, metrics: &Metrics) -> Self {
        let name = |suffix: &str| intern_name(&format!("serve.shard.{i}.{suffix}"));
        let depth_name = name("queue.depth");
        Shard {
            queue: JobQueue::new(cfg.queue_capacity_interactive, cfg.queue_capacity_batch),
            store: PartitionStore::with_counters(
                cfg.partition_store_capacity,
                metrics.partition_hits.clone(),
                metrics.partition_misses.clone(),
                metrics.partition_evicted.clone(),
            ),
            depth_name,
            queue_depth: obs.gauge(depth_name),
            partition_store: obs.gauge(name("partition.store")),
            executed_local: obs.counter(name("executed")),
            steals_in: obs.counter(name("steals_in")),
            steals_out: obs.counter(name("steals_out")),
            cache_hits: obs.counter(name("cache.hits")),
            cache_hits_home: obs.counter(name("cache.hits.home")),
            cache_hits_replica: obs.counter(name("cache.hits.replica")),
            cache_hits_stolen: obs.counter(name("cache.hits.stolen")),
            shed: obs.counter(name("shed")),
            replicas_hosted: obs.counter(name("replicas")),
        }
    }

    /// Records one cache hit on this (routed) shard with its affinity
    /// attribution. Exactly one of the three sub-counters moves per hit,
    /// so `cache_hits == home + replica + stolen` is a per-shard
    /// invariant.
    fn note_cache_hit(&self, home: bool, stolen: bool) {
        self.cache_hits.incr();
        if stolen {
            self.cache_hits_stolen.incr();
        } else if home {
            self.cache_hits_home.incr();
        } else {
            self.cache_hits_replica.incr();
        }
    }

    fn stats(&self, index: usize) -> ShardStats {
        ShardStats {
            shard: index,
            queue_depth_last: self.queue.depth() as u64,
            queue_depth_max: self.queue_depth.max(),
            executed_local: self.executed_local.value(),
            steals_in: self.steals_in.value(),
            steals_out: self.steals_out.value(),
            cache_hits: self.cache_hits.value(),
            cache_hits_home: self.cache_hits_home.value(),
            cache_hits_replica: self.cache_hits_replica.value(),
            cache_hits_stolen: self.cache_hits_stolen.value(),
            shed: self.shed.value(),
            replicas_hosted: self.replicas_hosted.value(),
        }
    }
}

/// Per-class latency summary inside [`EngineStats`], estimated from the
/// log-bucketed latency histogram via [`Hist::quantile`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Requests that resolved in this class.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
}

impl LatencyStats {
    fn from_hist(hist: &Hist) -> Self {
        LatencyStats {
            count: hist.count(),
            p50_us: hist.p50(),
            p95_us: hist.p95(),
            p99_us: hist.p99(),
        }
    }
}

/// Point-in-time engine statistics, readable at any moment: engine-wide
/// aggregates plus one [`ShardStats`] per shard.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Requests submitted (including shed ones).
    pub submitted: u64,
    /// Requests resolved with a result (`Ok` or `Degraded`).
    pub completed: u64,
    /// Requests rejected at admission (`Overloaded`).
    pub shed: u64,
    /// Results degraded by the load-pressure ladder.
    pub degraded_pressure: u64,
    /// Results degraded by a mid-run deadline expiry.
    pub degraded_deadline: u64,
    /// Requests that expired before any work ran.
    pub deadline_exceeded: u64,
    /// Requests rejected (`Rejected`): at admission for an invalid config
    /// or an update delta naming a vertex outside the base graph, on the
    /// worker for an update whose weights overflow the stream's total.
    pub rejected: u64,
    /// Requests answered from the cache.
    pub cache_hits: u64,
    /// Requests that had to run Infomap.
    pub cache_misses: u64,
    /// Cache entries dropped because their TTL elapsed.
    pub cache_expired: u64,
    /// Live cache entries evicted by LRU capacity pressure.
    pub cache_evicted: u64,
    /// Batch jobs stolen by idle shards from foreign backlogs.
    pub steals: u64,
    /// Routing-set growth events (a hot graph gaining a replica shard).
    pub replications: u64,
    /// Update-stream lookups that found live incremental state.
    pub partition_hits: u64,
    /// Update-stream lookups that found none (cold seeds).
    pub partition_misses: u64,
    /// Live streams evicted from partition stores by LRU pressure.
    pub partition_evicted: u64,
    /// Live streams across every shard's partition store when the stats
    /// were read.
    pub partition_live: u64,
    /// Warm updates answered by the frontier-restricted incremental pass.
    pub update_incremental: u64,
    /// Warm updates the quality guard forced to a full multilevel run.
    pub update_fallback: u64,
    /// Updates that had to seed stream state with a cold full run.
    pub update_cold: u64,
    /// Total queue depth (all shards) when the stats were read.
    pub queue_depth_last: u64,
    /// Highest *total* queue depth ever observed at a submit.
    pub queue_depth_max: u64,
    /// Interactive-class latency summary.
    pub latency_interactive: LatencyStats,
    /// Batch-class latency summary.
    pub latency_batch: LatencyStats,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl EngineStats {
    /// Cache hit rate over resolved lookups, 0 when nothing resolved.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of submissions rejected at admission.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }
}

/// One request from admission to [`finish`].
struct Job {
    request: Request,
    key: CacheKey,
    slot: Arc<ResponseSlot>,
    submitted: Instant,
    deadline: Option<Instant>,
    /// Shard the router assigned (the queue this job was pushed to).
    shard: usize,
    /// The graph's home shard (`fingerprint % shards`); differs from
    /// `shard` exactly when routing picked a replica. Drives the
    /// cache-hit affinity attribution.
    home: usize,
    /// The foreign shard whose worker stole the job, if one did.
    thief: Option<usize>,
    /// Time spent queued; set at dequeue, zero for admission exits.
    queued: Duration,
    /// Flight-recorder id minted at admission; [`TraceId::NONE`] when the
    /// configured [`Obs`] has no recorder attached (every trace call is
    /// then a no-op).
    trace: TraceId,
}

struct Shared {
    cfg: ServeConfig,
    router: Router,
    shards: Vec<Shard>,
    /// One process-wide cache shared by every shard: a replicated hot
    /// graph never recomputes a result another shard already answered.
    cache: ResultCache,
    metrics: Metrics,
    /// One-shot black-box drill: the next dequeued job panics its worker
    /// before taking any lock, exercising the panic-hook bundle path.
    /// Armed only by [`ServeEngine::inject_panic`] (tests/CI).
    panic_drill: AtomicBool,
}

impl Shared {
    fn total_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.depth()).sum()
    }

    /// Updates the per-shard and engine-wide depth telemetry after a
    /// push/pop/steal touched `shard`'s queue.
    fn note_depth(&self, shard: usize) {
        let s = &self.shards[shard];
        let depth = s.queue.depth();
        s.queue_depth.set(depth as u64);
        self.cfg.obs.trace_counter(s.depth_name, depth as i64);
        let total = self.total_depth();
        self.metrics.queue_depth.set(total as u64);
        self.cfg
            .obs
            .trace_counter("serve.queue.depth", total as i64);
    }

    /// Updates the per-shard and engine-wide partition-store gauges after
    /// `shard`'s store gained or evicted a stream.
    fn note_partitions(&self, shard: usize) {
        let s = &self.shards[shard];
        s.partition_store.set(s.store.len() as u64);
        let total: usize = self.shards.iter().map(|s| s.store.len()).sum();
        self.metrics.partition_store.set(total as u64);
        self.cfg
            .obs
            .trace_counter("serve.partition.store", total as i64);
    }
}

/// The in-process community-detection service. See the module docs.
///
/// ```
/// use std::sync::Arc;
/// use asa_graph::GraphBuilder;
/// use asa_serve::{Outcome, Request, ServeConfig, ServeEngine};
///
/// let mut b = GraphBuilder::undirected(6);
/// for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
///     b.add_edge(u, v, 1.0);
/// }
/// let graph = Arc::new(b.build());
///
/// let engine = ServeEngine::start(ServeConfig::default());
/// let response = engine.submit(Request::interactive(Arc::clone(&graph))).wait();
/// let result = response.outcome.result().expect("full-quality result");
/// assert_eq!(result.num_communities(), 2);
///
/// // Same graph + config again: served from the shared cache.
/// let again = engine.submit(Request::interactive(graph)).wait();
/// assert!(again.cache_hit);
/// let stats = engine.shutdown();
/// assert_eq!(stats.cache_hits, 1);
/// ```
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The `serve.shards` black-box section registration; dropping the
    /// engine unregisters it from the process-global bundle table.
    _section: Option<SectionGuard>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("shards", &self.shared.shards.len())
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.shared.total_depth())
            .finish()
    }
}

impl ServeEngine {
    /// Starts every shard's worker set and returns the running engine.
    pub fn start(mut cfg: ServeConfig) -> Self {
        cfg.shards = cfg.shards.max(1);
        let metrics_obs = if cfg.obs.enabled() {
            cfg.obs.clone()
        } else {
            // Private registry so `stats()` works without telemetry wiring.
            Obs::new_enabled()
        };
        let metrics = Metrics::new(&metrics_obs);
        let shards = (0..cfg.shards)
            .map(|i| Shard::new(i, &cfg, &metrics_obs, &metrics))
            .collect();
        let shared = Arc::new(Shared {
            router: Router::new(cfg.shards, cfg.replication.clone()),
            shards,
            cache: ResultCache::new(
                cfg.cache_capacity,
                cfg.cache_shards,
                cfg.cache_ttl,
                metrics.cache_expired.clone(),
                metrics.cache_evicted.clone(),
            ),
            metrics,
            cfg,
            panic_drill: AtomicBool::new(false),
        });
        // Black-box wiring. The section closure captures a `Weak<Shared>`
        // (a dead engine renders `null`, never keeps shards alive) — never
        // an `Obs` clone, which would cycle the registry through the
        // process-global section table.
        let section = shared.cfg.obs.enabled().then(|| {
            let weak: Weak<Shared> = Arc::downgrade(&shared);
            blackbox::register_section("serve.shards", move || render_shards_section(&weak))
        });
        if let Some(path) = &shared.cfg.blackbox_out {
            if shared.cfg.obs.enabled() {
                blackbox::install_panic_hook(&shared.cfg.obs, path);
            }
        }
        let workers = (0..shared.cfg.shards)
            .flat_map(|shard| (0..shared.cfg.workers.max(1)).map(move |w| (shard, w)))
            .map(|(shard, w)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("asa-serve-{shard}-{w}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .expect("spawn serve worker")
            })
            .collect();
        ServeEngine {
            shared,
            workers,
            _section: section,
        }
    }

    /// Arms the one-shot black-box drill: the next job any worker
    /// dequeues panics before touching a lock, exercising the panic hook
    /// installed for [`ServeConfig::blackbox_out`]. Test/CI plumbing —
    /// not part of the serving API.
    #[doc(hidden)]
    pub fn inject_panic(&self) {
        self.shared.panic_drill.store(true, Ordering::Relaxed);
    }

    /// Submits a request. Never blocks: rejections, cache hits and sheds
    /// resolve the handle before this returns; everything else resolves
    /// when a worker finishes the job. Every submission terminates in
    /// exactly one [`Outcome`].
    ///
    /// When the configured [`Obs`] carries a flight recorder, a
    /// [`TraceId`] is minted here and threaded through every lifecycle
    /// stage as async trace events (`request` envelope, `fingerprint`,
    /// `cache_probe`, `queue`, `dispatch`, `execute`, `respond`); the id
    /// comes back in [`Response::trace_id`].
    pub fn submit(&self, request: Request) -> JobHandle {
        let shared = &*self.shared;
        let obs = &shared.cfg.obs;
        shared.metrics.submitted.incr();
        let submitted = Instant::now();
        let trace = obs.mint_trace_id();
        obs.trace_async_begin(trace, "request", "request");
        // The fingerprint is memoized on the graph: O(arcs) on the first
        // request that names a graph, a load on every later one (the
        // cache probe of a hit, an update's stream key, the route). Its
        // stage shows that first-request cost in the tail report.
        obs.trace_async_begin(trace, "fingerprint", "request");
        let fingerprint = request.graph.fingerprint();
        let key = (fingerprint, config_hash(&request.config));
        // An invalid config (a teleport PageRank asserts on) or a delta
        // naming a vertex outside its base graph would panic the worker
        // that runs it: reject it before it is routed.
        let num_nodes = request.graph.num_nodes();
        let rejected = match (&request.kind, request.config.validate()) {
            (_, Err(e)) => Some(Rejection::Config(e)),
            (RequestKind::Update(delta), Ok(())) => delta
                .endpoints()
                .last()
                .filter(|&&v| v as usize >= num_nodes)
                .map(|&vertex| Rejection::Vertex { vertex, num_nodes }),
            (RequestKind::Detect, Ok(())) => None,
        };
        let home = shared.router.home(fingerprint);
        let mut job = Job {
            deadline: request.deadline.map(|d| submitted + d),
            request,
            key,
            slot: Arc::new(ResponseSlot::default()),
            submitted,
            shard: home,
            home,
            thief: None,
            queued: Duration::ZERO,
            trace,
        };
        let handle = JobHandle {
            slot: Arc::clone(&job.slot),
        };
        if let Some(why) = rejected {
            finish(shared, job, Exit::at("fingerprint", Outcome::Rejected(why)));
            return handle;
        }
        obs.trace_async_end(trace, "fingerprint", "request");

        // Update streams stay on the home shard of their chain anchor (the
        // base fingerprint all versions of the stream share): the stream's
        // live state resides there, so replication would only scatter it.
        // For updates `key` is the *stream* key; the result cache is
        // probed at execute under the per-version chain fingerprint, which
        // is unknowable before the stream state is consulted.
        if let RequestKind::Detect = job.request.kind {
            let routed = shared.router.route(fingerprint);
            job.shard = routed.shard;
            if routed.replicated_now {
                shared.metrics.replications.incr();
                // The replica just added is the newest member of the
                // routing set: `home + (replicas - 1)`, wrapping.
                let grown = (home + routed.replicas as usize - 1) % shared.shards.len();
                shared.shards[grown].replicas_hosted.incr();
                obs.trace_instant("serve.shard.replicate", "serve");
            }
            // Admission-time cache check: hits never consume queue
            // capacity. The cache is engine-wide, so a hit lands no matter
            // which shard computed the entry.
            obs.trace_async_begin(trace, "cache_probe", "request");
            if let Some(hit) = shared.cache.get(&key) {
                finish(shared, job, Exit::hit("cache_probe", hit));
                return handle;
            }
            obs.trace_async_end(trace, "cache_probe", "request");
        }

        obs.trace_async_begin(trace, "queue", "request");
        let (shard, priority) = (job.shard, job.request.priority);
        match shared.shards[shard].queue.push(priority, job) {
            Ok(_) => shared.note_depth(shard),
            Err(PushError::Full(job) | PushError::Closed(job)) => {
                finish(shared, job, Exit::at("queue", Outcome::Overloaded));
            }
        }
        handle
    }

    /// Current total queue depth across every shard (both classes).
    pub fn queue_depth(&self) -> usize {
        self.shared.total_depth()
    }

    /// Current per-shard queue depths, indexed by shard.
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shared.shards.iter().map(|s| s.queue.depth()).collect()
    }

    /// Live engine statistics: engine-wide aggregates plus the per-shard
    /// breakdown.
    pub fn stats(&self) -> EngineStats {
        let m = &self.shared.metrics;
        EngineStats {
            submitted: m.submitted.value(),
            completed: m.completed.value(),
            shed: m.shed.value(),
            degraded_pressure: m.degraded_pressure.value(),
            degraded_deadline: m.degraded_deadline.value(),
            deadline_exceeded: m.deadline_exceeded.value(),
            rejected: m.rejected.value(),
            cache_hits: m.cache_hits.value(),
            cache_misses: m.cache_misses.value(),
            cache_expired: m.cache_expired.value(),
            cache_evicted: m.cache_evicted.value(),
            steals: m.steals.value(),
            replications: m.replications.value(),
            partition_hits: m.partition_hits.value(),
            partition_misses: m.partition_misses.value(),
            partition_evicted: m.partition_evicted.value(),
            partition_live: self
                .shared
                .shards
                .iter()
                .map(|s| s.store.len() as u64)
                .sum(),
            update_incremental: m.update_incremental.value(),
            update_fallback: m.update_fallback.value(),
            update_cold: m.update_cold.value(),
            queue_depth_last: self.shared.total_depth() as u64,
            queue_depth_max: m.queue_depth.max(),
            latency_interactive: LatencyStats::from_hist(&m.latency_interactive_us),
            latency_batch: LatencyStats::from_hist(&m.latency_batch_us),
            shards: self
                .shared
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.stats(i))
                .collect(),
        }
    }

    /// Graceful shutdown: stops admission on every shard, drains every
    /// queued job (each still resolves normally), joins the workers, and
    /// returns the final statistics.
    pub fn shutdown(mut self) -> EngineStats {
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Final black-box bundle: everything drained and joined, so the
        // flight recorder, queues and stores are quiescent. The panic
        // hook is disarmed afterwards — the engine it pointed at is gone.
        if let Some(path) = &self.shared.cfg.blackbox_out {
            if self.shared.cfg.obs.enabled() {
                if let Err(e) = blackbox::write_bundle(path, &self.shared.cfg.obs, "shutdown") {
                    eprintln!("serve: black-box bundle write failed: {e}");
                }
                blackbox::clear_panic_hook();
            }
        }
        self.stats()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The degradation ladder. Rung 0 is the requested configuration; rung 1
/// drops refinement (`outer_loops = 1`); rung 2 additionally halves the
/// sweep budget. Levels are untouched — coarsening is what makes large
/// graphs tractable at all.
fn degraded_config(cfg: &InfomapConfig, rung: u8) -> InfomapConfig {
    let mut out = cfg.clone();
    if rung >= 1 {
        out.outer_loops = 1;
    }
    if rung >= 2 {
        out.max_sweeps = (cfg.max_sweeps / 2).max(2);
    }
    out
}

/// `serve.shards` black-box section: per-shard queue depth and
/// partition-store occupancy at dump time. Renders `null` once the engine
/// is gone (the closure only holds a `Weak`).
fn render_shards_section(shared: &Weak<Shared>) -> String {
    use std::fmt::Write as _;
    let Some(shared) = shared.upgrade() else {
        return "null".to_string();
    };
    let mut out = String::from("[");
    for (i, s) in shared.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{i},\"queue_depth\":{},\"queue_depth_max\":{},\"store\":{},\
             \"executed\":{},\"shed\":{}}}",
            s.queue.depth(),
            s.queue_depth.max(),
            s.store.len(),
            s.executed_local.value(),
            s.shed.value(),
        );
    }
    out.push(']');
    out
}

/// Picks the deepest foreign batch backlog and steals its oldest job.
/// Returns `None` when no shard has stealable work.
fn steal_one(shared: &Shared, thief: usize) -> Option<Job> {
    let victim = shared
        .shards
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != thief)
        .map(|(i, s)| (i, s.queue.batch_depth()))
        .filter(|&(_, depth)| depth > 0)
        .max_by_key(|&(_, depth)| depth)?
        .0;
    let mut job = shared.shards[victim].queue.steal_batch()?;
    job.thief = Some(thief);
    shared.metrics.steals.incr();
    shared.shards[thief].steals_in.incr();
    shared.shards[victim].steals_out.incr();
    shared.cfg.obs.trace_instant("serve.steal", "serve");
    shared.note_depth(victim);
    Some(job)
}

fn worker_loop(shared: &Shared, me: usize) {
    let steal = shared.cfg.steal && shared.cfg.shards > 1;
    loop {
        match shared.shards[me].queue.pop_wait(STEAL_POLL) {
            Popped::Item(_, job) => {
                shared.note_depth(me);
                shared.shards[me].executed_local.incr();
                run_job(shared, job);
            }
            Popped::Empty => {
                if steal {
                    if let Some(job) = steal_one(shared, me) {
                        run_job(shared, job);
                    }
                }
            }
            Popped::Closed => break,
        }
    }
    // Shutdown drain: this shard's queue is closed and empty, but foreign
    // backlogs may still hold batch work — keep stealing until every
    // stealable job is gone so shutdown resolves all admitted work even
    // when a shard has more backlog than its own workers can clear.
    // (Queues are all closed by now, so emptiness is permanent.)
    if steal {
        while let Some(job) = steal_one(shared, me) {
            run_job(shared, job);
        }
    }
}

/// How a request ended: its outcome plus what the execute step adds to
/// the [`Response`].
struct Exit {
    /// The trace stage still open when the request resolved.
    stage: &'static str,
    outcome: Outcome,
    cache_hit: bool,
    service: Duration,
    update: Option<UpdateInfo>,
}

impl Exit {
    /// `outcome`, with nothing run and nothing served from the cache.
    fn at(stage: &'static str, outcome: Outcome) -> Self {
        Exit {
            stage,
            outcome,
            cache_hit: false,
            service: Duration::ZERO,
            update: None,
        }
    }

    /// A full-quality `result` served from the cache.
    fn hit(stage: &'static str, result: Arc<InfomapResult>) -> Self {
        Exit {
            cache_hit: true,
            ..Exit::at(stage, Outcome::Ok(result))
        }
    }
}

/// Resolves `job` with `exit`: moves the counters its outcome owns, fills
/// the response slot, then ends the open trace stage and the `request`
/// envelope. Every request ends here exactly once, on the submitting
/// thread (rejection, cache hit, shed) or on a worker.
fn finish(shared: &Shared, job: Job, exit: Exit) {
    let m = &shared.metrics;
    let routed = &shared.shards[job.shard];
    // Requests refused at admission (shed, rejected) stay out of the
    // latency histograms.
    let timed = match exit.outcome {
        Outcome::Ok(_) | Outcome::Degraded { .. } => {
            m.completed.incr();
            if exit.cache_hit {
                m.cache_hits.incr();
                routed.note_cache_hit(job.shard == job.home, job.thief.is_some());
            } else {
                m.cache_misses.incr();
            }
            if let Outcome::Degraded {
                reason: DegradeReason::Deadline,
                ..
            } = exit.outcome
            {
                m.degraded_deadline.incr();
            }
            true
        }
        Outcome::DeadlineExceeded => {
            m.deadline_exceeded.incr();
            true
        }
        Outcome::Overloaded => {
            m.shed.incr();
            routed.shed.incr();
            false
        }
        Outcome::Rejected { .. } => {
            m.rejected.incr();
            false
        }
    };
    let total = job.submitted.elapsed();
    if timed {
        m.latency(job.request.priority)
            .record(total.as_micros() as u64);
    }
    job.slot.fill(Response {
        outcome: exit.outcome,
        queued: job.queued,
        service: exit.service,
        total,
        cache_hit: exit.cache_hit,
        trace_id: job.trace.0,
        shard: job.thief.unwrap_or(job.shard),
        stolen: job.thief.is_some(),
        update: exit.update,
    });
    // Both ends follow the fill: a submitter woken by it may preempt this
    // thread, and that delay must stay inside the stage, not fall
    // between stages.
    let obs = &shared.cfg.obs;
    obs.trace_async_end(job.trace, exit.stage, "request");
    obs.trace_async_end(job.trace, "request", "request");
}

/// Runs one dequeued (or stolen) job to its terminal outcome: the worker
/// half of the lifecycle every request shares. Only the execute step
/// differs by [`RequestKind`].
fn run_job(shared: &Shared, mut job: Job) {
    // Black-box drill: fire before any lock or trace state is held, so
    // the panic hook renders the bundle from a clean worker stack.
    if shared.panic_drill.swap(false, Ordering::Relaxed) {
        panic!("blackbox drill: injected worker panic");
    }
    let obs = &shared.cfg.obs;
    // The queue stage spans push (submitter thread) to pop (here);
    // async events pair across threads by (name, id).
    obs.trace_async_end(job.trace, "queue", "request");
    obs.trace_async_begin(job.trace, "dispatch", "request");
    // Spans and instants recorded on this thread while the job runs
    // (degradation rungs, infomap levels/sweeps) attribute to it.
    let _scope = obs.trace_scope(job.trace);
    // Pressure is judged where the job waited: its routed shard's queue.
    let depth = shared.shards[job.shard].queue.depth();
    let dequeued = Instant::now();
    job.queued = dequeued - job.submitted;

    // Expired while queued: no work, no partial result.
    if job.deadline.is_some_and(|d| dequeued >= d) {
        return finish(shared, job, Exit::at("dispatch", Outcome::DeadlineExceeded));
    }
    let cancel = match job.deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::none(),
    };
    // Per-request runs stay off the metric/sink path by default:
    // per-sweep record streams from concurrent requests would
    // interleave uselessly and dominate the serving telemetry. With a
    // flight recorder attached, though, the run gets the real handle
    // so its level/sweep spans land on this worker's trace track
    // tagged with the request id (the `_scope` above).
    let run_obs = if obs.trace_enabled() {
        obs.clone()
    } else {
        Obs::disabled()
    };
    let exit = match &job.request.kind {
        RequestKind::Detect => execute_detect(shared, &job, depth, &cancel, &run_obs),
        RequestKind::Update(delta) => execute_update(shared, &job, delta, &cancel, &run_obs),
    };
    finish(shared, job, exit);
}

/// The outcome of a finished run at degradation `rung`.
fn ran(result: InfomapResult, rung: u8) -> Outcome {
    let reason = if result.interrupted {
        DegradeReason::Deadline
    } else if rung > 0 {
        DegradeReason::LoadPressure
    } else {
        return Outcome::Ok(Arc::new(result));
    };
    Outcome::Degraded {
        result: Arc::new(result),
        reason,
    }
}

/// Execute step of a detect: a cache hit that landed while the job
/// waited, or a run at the rung the routed shard's queue `depth` calls
/// for.
fn execute_detect(
    shared: &Shared,
    job: &Job,
    depth: usize,
    cancel: &CancelToken,
    run_obs: &Obs,
) -> Exit {
    let obs = &shared.cfg.obs;
    // A hit may have landed while this job waited — possibly filled by a
    // different shard, since the cache is engine-wide.
    if let Some(hit) = shared.cache.get(&job.key) {
        return Exit::hit("dispatch", hit);
    }

    // Degradation ladder, batch class only.
    let rung = if job.request.priority == Priority::Batch && shared.cfg.degrade_depth > 0 {
        if depth >= shared.cfg.degrade_depth * 2 {
            2
        } else if depth >= shared.cfg.degrade_depth {
            1
        } else {
            0
        }
    } else {
        0
    };
    let effective = if rung > 0 {
        shared.metrics.degraded_pressure.incr();
        obs.trace_instant(
            if rung == 1 {
                "serve.degrade.rung1"
            } else {
                "serve.degrade.rung2"
            },
            "serve",
        );
        degraded_config(&job.request.config, rung)
    } else {
        job.request.config.clone()
    };
    obs.trace_async_end(job.trace, "dispatch", "request");
    obs.trace_async_begin(job.trace, "execute", "request");
    let t = Instant::now();
    let result = detect_communities_cancellable(&job.request.graph, &effective, run_obs, cancel);
    let service = t.elapsed();
    obs.trace_async_end(job.trace, "execute", "request");
    obs.trace_async_begin(job.trace, "respond", "request");
    let outcome = ran(result, rung);
    // Only cache what a fresh full-quality run would have produced.
    if let Outcome::Ok(result) = &outcome {
        shared.cache.insert(job.key, Arc::clone(result));
    }
    Exit {
        service,
        ..Exit::at("respond", outcome)
    }
}

/// Execute step of an update. The stream's state lives on the *routed*
/// shard's partition store (`job.shard`), so a stolen job still operates
/// on the right stream; concurrent updates to one stream serialize on the
/// state's mutex and fold in submission-arrival order.
fn execute_update(
    shared: &Shared,
    job: &Job,
    delta: &EdgeDelta,
    cancel: &CancelToken,
    run_obs: &Obs,
) -> Exit {
    let m = &shared.metrics;
    let obs = &shared.cfg.obs;
    obs.trace_async_end(job.trace, "dispatch", "request");
    obs.trace_async_begin(job.trace, "execute", "request");
    let t = Instant::now();

    // The stream's live state, seeded with a full run on first contact
    // (or after an eviction / config change).
    let store = &shared.shards[job.shard].store;
    let (state_arc, cold) = match store.get(job.key) {
        Some(state) => (state, false),
        None => {
            m.update_cold.incr();
            let (state, _) = IncrementalState::new(
                Arc::clone(&job.request.graph),
                job.request.config.clone(),
                shared.cfg.incremental.clone(),
                run_obs,
                cancel,
            );
            let state = Arc::new(Mutex::new(state));
            store.insert(job.key, Arc::clone(&state));
            (state, true)
        }
    };
    shared.note_partitions(job.shard);

    let mut state = state_arc.lock().unwrap();
    // A delta that would overflow the stream's total weight is refused
    // before it touches the stream: head and partition stay as they were.
    let chain = match state.fingerprint_after(delta) {
        Ok(chain) => chain,
        Err(e) => return Exit::at("execute", Outcome::Rejected(Rejection::Weight(e))),
    };
    let cache_key = (chain, job.key.1);
    let info = UpdateInfo {
        incremental: !cold,
        fallback: None,
        cold,
        frontier_size: 0,
        ripple_rounds: 0,
        chain_fingerprint: chain,
    };

    // A net no-op delta (empty, or edits cancelling the pending overlay)
    // leaves the chain head in place, so the shared result cache may
    // already hold this exact version+config — serve it without running.
    // Chain-advancing deltas always run: the stream state must advance
    // with them.
    if chain == state.chain_fingerprint() {
        if let Some(hit) = shared.cache.get(&cache_key) {
            drop(state);
            return Exit {
                service: t.elapsed(),
                update: Some(info),
                ..Exit::hit("execute", hit)
            };
        }
    }

    let IncrementalOutcome {
        result,
        fallback,
        frontier_size,
        ripple_rounds,
        chain_fingerprint,
    } = state.apply(delta, run_obs, cancel);
    debug_assert_eq!(chain_fingerprint, chain);
    if state.graph().batches_since_compact() > shared.cfg.partition_compact_batches {
        state.compact();
    }
    drop(state);
    let service = t.elapsed();
    obs.trace_async_end(job.trace, "execute", "request");
    obs.trace_async_begin(job.trace, "respond", "request");

    // Warm updates count by path (cold seeds are full runs by
    // construction, not guard decisions).
    if !cold {
        if fallback.is_none() {
            m.update_incremental.incr();
        } else {
            m.update_fallback.incr();
        }
    }

    let outcome = ran(result, 0);
    // Cache under the *chain* fingerprint: server-side compaction rebases
    // the overlay without moving the chain, so warm entries survive it.
    if let Outcome::Ok(result) = &outcome {
        shared.cache.insert(cache_key, Arc::clone(result));
    }
    Exit {
        service,
        update: Some(UpdateInfo {
            incremental: !cold && fallback.is_none(),
            fallback,
            frontier_size,
            ripple_rounds,
            ..info
        }),
        ..Exit::at("respond", outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asa_graph::{CsrGraph, GraphBuilder};

    fn two_triangles() -> Arc<CsrGraph> {
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        Arc::new(b.build())
    }

    #[test]
    fn ok_result_and_cache_hit() {
        let engine = ServeEngine::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let graph = two_triangles();
        let first = engine
            .submit(Request::interactive(Arc::clone(&graph)))
            .wait();
        assert!(!first.cache_hit);
        let r1 = first.outcome.result().expect("ok").clone();
        assert_eq!(r1.num_communities(), 2);

        let second = engine.submit(Request::batch(Arc::clone(&graph))).wait();
        assert!(second.cache_hit, "same graph+config must hit the cache");
        assert!(Arc::ptr_eq(second.outcome.result().unwrap(), &r1));

        // A different config is a different key.
        let other_cfg = InfomapConfig {
            outer_loops: 1,
            ..InfomapConfig::default()
        };
        let third = engine
            .submit(Request::interactive(graph).with_config(other_cfg))
            .wait();
        assert!(!third.cache_hit);

        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        assert!(stats.latency_interactive.count >= 2);
    }

    #[test]
    fn zero_queue_capacity_sheds() {
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            queue_capacity_interactive: 0,
            queue_capacity_batch: 0,
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let response = engine.submit(Request::interactive(two_triangles())).wait();
        assert!(matches!(response.outcome, Outcome::Overloaded));
        let stats = engine.shutdown();
        assert_eq!(stats.shed, 1);
        assert!((stats.shed_rate() - 1.0).abs() < 1e-12);
        let per_shard: u64 = stats.shards.iter().map(|s| s.shed).sum();
        assert_eq!(per_shard, 1, "the shed attributes to the routed shard");
    }

    #[test]
    fn expired_deadline_resolves_without_running() {
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let response = engine
            .submit(Request::batch(two_triangles()).with_deadline(Duration::ZERO))
            .wait();
        assert!(matches!(response.outcome, Outcome::DeadlineExceeded));
        assert_eq!(response.service, Duration::ZERO);
        let stats = engine.shutdown();
        assert_eq!(stats.deadline_exceeded, 1);
    }

    #[test]
    fn degraded_config_ladder() {
        let cfg = InfomapConfig::default();
        let r1 = degraded_config(&cfg, 1);
        assert_eq!(r1.outer_loops, 1);
        assert_eq!(r1.max_sweeps, cfg.max_sweeps);
        let r2 = degraded_config(&cfg, 2);
        assert_eq!(r2.outer_loops, 1);
        assert_eq!(r2.max_sweeps, cfg.max_sweeps / 2);
        assert_eq!(degraded_config(&cfg, 0).max_sweeps, cfg.max_sweeps);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let graph = two_triangles();
        let handles: Vec<_> = (0..16)
            .map(|_| engine.submit(Request::batch(Arc::clone(&graph))))
            .collect();
        let stats = engine.shutdown();
        for h in handles {
            let response = h.try_get().expect("resolved by shutdown");
            assert!(response.outcome.result().is_some());
        }
        assert_eq!(stats.completed, 16);
    }

    /// Six 4-cliques in a ring, weakly linked through their base
    /// vertices: big enough that an intra-clique edit stays well inside
    /// the incremental path's frontier budget.
    fn clique_chain() -> Arc<CsrGraph> {
        let mut b = GraphBuilder::undirected(24);
        for c in 0..6u32 {
            let base = c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j, 8.0);
                }
            }
            b.add_edge(base, ((c + 1) % 6) * 4, 0.1);
        }
        Arc::new(b.build())
    }

    #[test]
    fn update_stream_cold_then_incremental() {
        let engine = ServeEngine::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let graph = clique_chain();

        let mut d1 = asa_graph::EdgeDelta::new();
        d1.insert(1, 2, 0.5);
        let first = engine
            .submit(Request::update(Arc::clone(&graph), d1))
            .wait();
        let u1 = first.update.expect("update info on update responses");
        assert!(u1.cold, "first contact seeds the stream");
        assert!(!u1.incremental);
        assert!(first.outcome.result().is_some());

        let mut d2 = asa_graph::EdgeDelta::new();
        d2.insert(5, 6, 0.5);
        let second = engine
            .submit(Request::update(Arc::clone(&graph), d2))
            .wait();
        let u2 = second.update.expect("update info");
        assert!(!u2.cold, "stream state is live now");
        assert!(u2.incremental, "local edit resolves incrementally");
        assert!(u2.frontier_size > 0);
        assert_ne!(u2.chain_fingerprint, u1.chain_fingerprint);

        let stats = engine.shutdown();
        assert_eq!(stats.update_cold, 1);
        assert_eq!(stats.update_incremental, 1);
        assert_eq!(stats.partition_misses, 1);
        assert_eq!(stats.partition_hits, 1);
        assert_eq!(stats.partition_live, 1);
    }

    #[test]
    fn compaction_preserves_cache_identity() {
        // Compact the stream's overlay after every batch; a warm repeat
        // of the same version must still hit the shared result cache,
        // i.e. the chain fingerprint — the cache key — survives
        // compaction even though the rebased CSR re-fingerprints.
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            partition_compact_batches: 0,
            ..ServeConfig::default()
        });
        let graph = two_triangles();
        let mut d = asa_graph::EdgeDelta::new();
        d.insert(0, 4, 0.5).delete(5, 3);
        let first = engine.submit(Request::update(Arc::clone(&graph), d)).wait();
        assert!(!first.cache_hit);
        let chain = first.update.unwrap().chain_fingerprint;
        let r1 = first.outcome.result().unwrap().clone();

        // Same version again (empty delta keeps the chain head in place).
        let second = engine
            .submit(Request::update(graph, asa_graph::EdgeDelta::new()))
            .wait();
        assert!(second.cache_hit, "compaction must not move the cache key");
        let u2 = second.update.unwrap();
        assert_eq!(u2.chain_fingerprint, chain);
        assert!(Arc::ptr_eq(second.outcome.result().unwrap(), &r1));
        engine.shutdown();
    }

    #[test]
    fn destructive_update_reports_full_fallback() {
        let engine = ServeEngine::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let graph = clique_chain();
        // Seed the stream, then densify everything: the old partition is
        // globally invalid, so the quality guard must fall back.
        engine
            .submit(Request::update(
                Arc::clone(&graph),
                asa_graph::EdgeDelta::new(),
            ))
            .wait();
        let mut d = asa_graph::EdgeDelta::new();
        for u in 0..24u32 {
            for v in (u + 1)..24 {
                d.insert(u, v, 6.0);
            }
        }
        let response = engine.submit(Request::update(Arc::clone(&graph), d)).wait();
        let info = response.update.expect("update info");
        assert!(!info.cold);
        assert!(!info.incremental);
        assert!(info.fallback.is_some());
        assert!(response.outcome.result().is_some());
        // Gentle local edits after the storm stay on the incremental path.
        for (u, v) in [(1u32, 2u32), (3, 5)] {
            let mut d = asa_graph::EdgeDelta::new();
            d.insert(u, v, 0.5);
            let r = engine.submit(Request::update(Arc::clone(&graph), d)).wait();
            assert!(r.update.expect("update info").incremental);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.update_cold, 1);
        assert_eq!(stats.update_fallback, 1);
        assert_eq!(stats.update_incremental, 2);
    }

    /// Updates whose weights overflow the stream's total `2W` are rejected
    /// on the worker. Before that check the second of two `1e308`
    /// inserts resolved `Ok` with codelength 0 (`materialize` checks
    /// weights in debug builds only).
    #[test]
    fn overflowing_update_is_rejected_and_the_stream_stays_incremental() {
        let engine = ServeEngine::start(ServeConfig {
            shards: 1,
            workers: 1,
            ..ServeConfig::default()
        });
        let graph = clique_chain();
        let edit = |u, v, w| {
            let mut d = asa_graph::EdgeDelta::new();
            d.insert(u, v, w);
            d
        };
        let (seed, gentle) = (edit(1, 2, 0.5), edit(5, 6, 0.5));
        let mut twice = edit(9, 10, 5e307);
        twice.insert(13, 14, 5e307);
        let submit = |d: &asa_graph::EdgeDelta| {
            engine
                .submit(Request::update(Arc::clone(&graph), d.clone()))
                .wait()
        };
        assert!(submit(&seed).update.expect("update info").cold);
        // One edge of 1e308 (counted twice in 2W), the same edge again,
        // and two edges of 5e307 that overflow only together.
        for bad in [edit(0, 1, 1e308), edit(0, 1, 1e308), twice] {
            let r = submit(&bad);
            let Outcome::Rejected(why) = r.outcome else {
                panic!("{} instead of a rejection", r.outcome.name());
            };
            assert!(matches!(why, Rejection::Weight(_)));
            assert_eq!(
                why.to_string(),
                "invalid update: total edge weight overflows f64"
            );
            assert!(r.update.is_none());
        }

        // The stream still holds the seeded version, so the next valid
        // edit is served incrementally, at the head it would have had
        // without the rejected updates.
        let mut expected = asa_graph::DeltaGraph::new(Arc::clone(&graph));
        expected.apply(&seed);
        let r = submit(&gentle);
        let info = r.update.expect("update info");
        assert!(info.incremental && !info.cold);
        assert_eq!(
            Ok(info.chain_fingerprint),
            expected.fingerprint_after(&gentle)
        );
        assert!(r.outcome.result().unwrap().codelength > 0.0);
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.update_cold, 1);
        assert_eq!(stats.update_incremental, 1);
        assert_eq!(stats.partition_live, 1);
    }

    #[test]
    fn out_of_range_update_is_rejected_at_submit() {
        let engine = ServeEngine::start(ServeConfig {
            shards: 1,
            workers: 1,
            ..ServeConfig::default()
        });
        let graph = two_triangles();
        let mut bad = asa_graph::EdgeDelta::new();
        bad.insert(1, 9, 1.0).delete(6, 0);
        let handles = [
            engine.submit(Request::update(Arc::clone(&graph), bad)),
            engine.submit(Request::batch(graph)),
        ];
        // Poll instead of `wait`, so a lost handle fails the test rather
        // than hanging it.
        let give_up = Instant::now() + Duration::from_secs(30);
        let responses: Vec<Response> = handles
            .iter()
            .map(|h| loop {
                if let Some(r) = h.try_get() {
                    break r;
                }
                assert!(Instant::now() < give_up, "a handle never resolved");
                std::thread::sleep(Duration::from_millis(1));
            })
            .collect();
        assert!(matches!(
            responses[0].outcome,
            Outcome::Rejected(Rejection::Vertex {
                vertex: 9,
                num_nodes: 6
            })
        ));
        assert_eq!(responses[0].outcome.name(), "rejected");
        assert!(responses[0].outcome.result().is_none());
        assert!(responses[0].update.is_none());
        assert!(responses[1].outcome.result().is_some());
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.partition_live, 0, "a rejected update seeds no stream");
    }

    /// A teleport PageRank asserts on, or a NaN tolerance, is rejected at
    /// submit; before that check such a request panicked the one worker,
    /// and the valid request behind it was never served.
    #[test]
    fn invalid_config_is_rejected_at_submit() {
        use asa_infomap::ConfigError;
        let engine = ServeEngine::start(ServeConfig {
            shards: 1,
            workers: 1,
            ..ServeConfig::default()
        });
        let mut b = GraphBuilder::directed(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        let graph = Arc::new(b.build());
        let with = |teleport: f64, pagerank_tol: f64| InfomapConfig {
            teleport,
            pagerank_tol,
            ..InfomapConfig::default()
        };
        let mut delta = asa_graph::EdgeDelta::new();
        delta.insert(0, 4, 1.0);
        let handles = [
            engine.submit(Request::batch(Arc::clone(&graph)).with_config(with(f64::NAN, 1e-12))),
            engine.submit(Request::interactive(Arc::clone(&graph)).with_config(with(1.0, 1e-12))),
            engine.submit(
                Request::update(Arc::clone(&graph), delta).with_config(with(0.15, f64::NAN)),
            ),
            engine.submit(Request::batch(graph)),
        ];
        let give_up = Instant::now() + Duration::from_secs(30);
        let responses: Vec<Response> = handles
            .iter()
            .map(|h| loop {
                if let Some(r) = h.try_get() {
                    break r;
                }
                assert!(Instant::now() < give_up, "a handle never resolved");
                std::thread::sleep(Duration::from_millis(1));
            })
            .collect();
        for r in &responses[..2] {
            let Outcome::Rejected(why) = r.outcome else {
                panic!("{} instead of a rejection", r.outcome.name());
            };
            assert!(matches!(why, Rejection::Config(ConfigError::Teleport(_))));
            assert!(why.to_string().starts_with("invalid config: teleport"));
        }
        assert!(matches!(
            responses[2].outcome,
            Outcome::Rejected(Rejection::Config(ConfigError::PagerankTol(_)))
        ));
        assert!(responses[3].outcome.result().is_some());
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.submitted, 4);
    }
}
