//! Request/response vocabulary of the serving layer.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use asa_graph::{CsrError, CsrGraph, EdgeDelta, NodeId};
use asa_infomap::incremental::FallbackReason;
use asa_infomap::{ConfigError, InfomapConfig, InfomapResult};

/// Scheduling class of a request. Interactive requests are drained before
/// batch requests and are never quality-degraded under load; batch
/// requests absorb the degradation ladder first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive; dequeued first, never degraded by load pressure.
    Interactive,
    /// Throughput work; degraded (fewer outer loops / sweeps) before the
    /// engine sheds anything.
    Batch,
}

impl Priority {
    /// Stable lowercase name for telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// What a request asks the engine to do.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// Partition [`Request::graph`] from scratch (the classic request).
    Detect,
    /// Apply an edge-delta batch to the dynamic-graph stream anchored at
    /// [`Request::graph`]'s fingerprint and re-optimize incrementally.
    /// The stream's live [`asa_infomap::IncrementalState`] is kept in the
    /// home shard's partition store; update streams route by the chain
    /// *anchor* (the base fingerprint, shared by all versions of the
    /// stream) so they stay shard-affine, and are never replicated.
    Update(EdgeDelta),
}

/// One community-detection request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The graph to partition. `Arc` so the caller, queue, and cache can
    /// share one copy. For [`RequestKind::Update`] this is the stream's
    /// *base snapshot*: its fingerprint is the chain anchor that names
    /// (and routes) the stream, and it seeds the incremental state on
    /// first contact.
    pub graph: Arc<CsrGraph>,
    /// Requested Infomap parameters. The engine may lower `outer_loops` /
    /// `max_sweeps` for batch requests under load (the response reports
    /// this as [`Outcome::Degraded`]).
    pub config: InfomapConfig,
    /// Scheduling class.
    pub priority: Priority,
    /// Optional completion deadline, relative to submission. A request
    /// that expires in the queue terminates [`Outcome::DeadlineExceeded`];
    /// one that expires mid-run stops at the next sweep boundary and
    /// returns the best partition found so far as [`Outcome::Degraded`].
    pub deadline: Option<Duration>,
    /// What to do: a from-scratch detection or a streaming update.
    pub kind: RequestKind,
}

impl Request {
    /// An interactive request with default parameters and no deadline.
    pub fn interactive(graph: Arc<CsrGraph>) -> Self {
        Self::new(graph, Priority::Interactive)
    }

    /// A batch request with default parameters and no deadline.
    pub fn batch(graph: Arc<CsrGraph>) -> Self {
        Self::new(graph, Priority::Batch)
    }

    /// A streaming update: apply `delta` to the dynamic-graph stream
    /// anchored at `base`'s fingerprint and re-optimize incrementally
    /// (interactive class, default parameters, no deadline). The first
    /// update a shard sees for a stream seeds its incremental state with
    /// one full run on `base`; later updates reuse the live partition.
    /// [`Response::update`] reports how the update resolved.
    pub fn update(base: Arc<CsrGraph>, delta: EdgeDelta) -> Self {
        Request {
            kind: RequestKind::Update(delta),
            ..Self::new(base, Priority::Interactive)
        }
    }

    fn new(graph: Arc<CsrGraph>, priority: Priority) -> Self {
        Request {
            graph,
            config: InfomapConfig::default(),
            priority,
            deadline: None,
            kind: RequestKind::Detect,
        }
    }

    /// Sets the completion deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the Infomap configuration.
    pub fn with_config(mut self, config: InfomapConfig) -> Self {
        self.config = config;
        self
    }
}

/// Why a result was served at reduced quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The deadline expired mid-run; the run stopped at a sweep boundary
    /// and this is the best partition found by then.
    Deadline,
    /// Queue pressure made the engine lower the request's quality knobs
    /// (batch class only) before running it.
    LoadPressure,
}

/// Terminal state of a request. Every submitted request resolves to
/// exactly one of these.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Full-quality result at the requested configuration.
    Ok(Arc<InfomapResult>),
    /// A complete, valid partition at reduced quality.
    Degraded {
        /// The (still complete and valid) partition.
        result: Arc<InfomapResult>,
        /// What forced the reduction.
        reason: DegradeReason,
    },
    /// Rejected at admission: the queue for this priority class was full.
    Overloaded,
    /// The deadline expired before any work ran; there is no partial
    /// result to return.
    DeadlineExceeded,
    /// Rejected at admission: the request could not run as given.
    Rejected(Rejection),
}

/// Why the engine refused a request: at [`crate::ServeEngine::submit`],
/// before routing it, or for [`Rejection::Weight`] on the worker, before
/// the update touches its stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rejection {
    /// The update's delta names `vertex`, which lies outside its base
    /// graph's `0..num_nodes`.
    Vertex {
        /// The largest out-of-range endpoint in the delta.
        vertex: NodeId,
        /// Vertex count of the request's base graph.
        num_nodes: usize,
    },
    /// The request's [`InfomapConfig`] fails
    /// [`InfomapConfig::validate`].
    Config(ConfigError),
    /// The update's inserts would push the stream's total edge weight past
    /// `f64::MAX`, or within [`asa_graph::delta::TOTAL_MARGIN`] of it. The
    /// stream keeps its previous version.
    Weight(CsrError),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Vertex { vertex, num_nodes } => {
                write!(f, "vertex {vertex} is not in 0..{num_nodes}")
            }
            Self::Config(e) => write!(f, "invalid config: {e}"),
            Self::Weight(e) => write!(f, "invalid update: {e}"),
        }
    }
}

impl Outcome {
    /// The partition-bearing result, if any.
    pub fn result(&self) -> Option<&Arc<InfomapResult>> {
        match self {
            Outcome::Ok(r) | Outcome::Degraded { result: r, .. } => Some(r),
            Outcome::Overloaded | Outcome::DeadlineExceeded | Outcome::Rejected { .. } => None,
        }
    }

    /// Stable lowercase name for telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Ok(_) => "ok",
            Outcome::Degraded { .. } => "degraded",
            Outcome::Overloaded => "overloaded",
            Outcome::DeadlineExceeded => "deadline_exceeded",
            Outcome::Rejected { .. } => "rejected",
        }
    }
}

/// How a streaming update resolved; `Some` on [`RequestKind::Update`]
/// responses that carry a result, `None` otherwise.
#[derive(Debug, Clone, Copy)]
pub struct UpdateInfo {
    /// Whether the frontier-restricted incremental pass answered this
    /// update. `false` for the quality guard's full-multilevel fallback
    /// *and* for the cold full run that seeds a stream's state.
    pub incremental: bool,
    /// The quality guard's reason when it forced the fallback (`None` for
    /// incremental answers and cold seeds).
    pub fallback: Option<FallbackReason>,
    /// Whether this update found no live state (first contact, an evicted
    /// stream, or a config change) and had to seed one with a full run.
    pub cold: bool,
    /// Initial touched frontier of the incremental pass.
    pub frontier_size: usize,
    /// Frontier-restricted sweeps the incremental pass executed.
    pub ripple_rounds: usize,
    /// Chain fingerprint of the graph version this response describes.
    /// Result-cache entries for update streams key on this value, so it
    /// is stable across server-side compactions of the delta overlay.
    pub chain_fingerprint: u64,
}

/// Completed response: the outcome plus where the request's time went.
#[derive(Debug, Clone)]
pub struct Response {
    /// Terminal state.
    pub outcome: Outcome,
    /// Time spent queued (zero for cache hits and admission rejections).
    pub queued: Duration,
    /// Time spent running Infomap (zero unless a worker ran the request).
    pub service: Duration,
    /// Submission-to-completion wall time.
    pub total: Duration,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Flight-recorder trace id minted for this request at admission, for
    /// correlating the response with its track in an exported Chrome
    /// trace (see `asa_obs::chrome`). Zero when the engine's [`asa_obs::Obs`]
    /// handle has no recorder attached.
    pub trace_id: u64,
    /// Engine shard that resolved the request: the routed shard for
    /// admission-path resolutions (cache hits, sheds, rejections) and
    /// queue-path runs, or the stealing shard when a foreign worker ran it.
    pub shard: usize,
    /// Whether a foreign shard's worker stole and ran this (batch) request
    /// instead of its routed shard.
    pub stolen: bool,
    /// Streaming-update resolution details ([`RequestKind::Update`]
    /// only).
    pub update: Option<UpdateInfo>,
}

/// Shared completion slot between a [`JobHandle`] and the worker that
/// resolves it.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    state: Mutex<Option<Response>>,
    ready: Condvar,
}

impl ResponseSlot {
    pub(crate) fn fill(&self, response: Response) {
        let mut state = self.state.lock().unwrap();
        debug_assert!(state.is_none(), "a request resolves exactly once");
        *state = Some(response);
        self.ready.notify_all();
    }
}

/// Caller-side handle to an in-flight request.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) slot: Arc<ResponseSlot>,
}

impl JobHandle {
    /// Blocks until the request resolves and returns its response.
    pub fn wait(&self) -> Response {
        let mut state = self.slot.state.lock().unwrap();
        loop {
            if let Some(response) = state.as_ref() {
                return response.clone();
            }
            state = self.slot.ready.wait(state).unwrap();
        }
    }

    /// The response, if the request already resolved.
    pub fn try_get(&self) -> Option<Response> {
        self.slot.state.lock().unwrap().clone()
    }
}
