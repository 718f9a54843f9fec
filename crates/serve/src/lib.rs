//! `asa-serve` — an in-process, production-style serving layer over the
//! ASA Infomap engine.
//!
//! The library crates answer "partition this graph"; this crate answers
//! "partition graphs *for many concurrent callers, under load, with
//! latency promises*". It adds the four mechanisms a service needs that
//! a library does not:
//!
//! * **Admission control** — a bounded two-class priority queue
//!   ([`queue::JobQueue`]). Interactive requests dequeue before batch
//!   ones; a full class rejects with [`Outcome::Overloaded`] at submit
//!   time rather than queueing unboundedly. A request whose config fails
//!   validation, or an update whose delta names a vertex outside its
//!   base graph, rejects with [`Outcome::Rejected`] at submit, before it
//!   can reach a worker.
//! * **Result caching** — a sharded LRU+TTL cache
//!   ([`cache::ResultCache`]) keyed by `(graph fingerprint, config
//!   hash)`, so repeated requests for the same graph are answered in
//!   microseconds.
//! * **Deadlines & cancellation** — a request deadline rides into the
//!   engine as an [`asa_infomap::CancelToken`]; a run that outlives it
//!   stops at the next sweep boundary and returns its best partition as
//!   [`Outcome::Degraded`].
//! * **Graceful degradation** — under queue pressure, batch requests run
//!   with lowered quality knobs before anything is shed.
//! * **Sharding** — N engine shards ([`shard::Router`]), each with its own
//!   queue and workers. Requests route by graph fingerprint so repeated
//!   queries land where that graph's state is warm; hot graphs replicate
//!   onto additional shards, and idle shards steal batch work so skew
//!   doesn't strand capacity. One process-wide [`cache::ResultCache`] is
//!   shared across all shards.
//!
//! * **Streaming updates** — [`Request::update`] ships an
//!   [`asa_graph::EdgeDelta`] against a live stream: updates route by
//!   the stream's chain anchor, per-shard [`store::PartitionStore`]s
//!   keep [`asa_infomap::IncrementalState`] warm, results cache under
//!   the chain fingerprint, and a quality guard falls back to a full
//!   run when codelength drift escapes its budget — reported per
//!   response as [`request::UpdateInfo`]. An update whose inserts would
//!   push the stream's total weight past `f64::MAX` rejects with
//!   [`Outcome::Rejected`] on the worker and leaves the stream as it was.
//!
//! Every request, detect or update, runs one lifecycle and resolves
//! through one exit, so it ends in exactly one [`Outcome`].
//!
//! Entry points: [`ServeEngine::start`], [`ServeEngine::submit`],
//! [`Request`]. See `DESIGN.md` § "Serving layer" and § "Sharded
//! serving" for the architecture diagrams and the degradation ladder.

pub mod cache;
pub mod engine;
pub mod queue;
pub mod request;
pub mod shard;
pub mod store;

pub use cache::{CacheKey, ResultCache};
pub use engine::{config_hash, EngineStats, LatencyStats, ServeConfig, ServeEngine};
pub use queue::{JobQueue, Popped, PushError};
pub use request::{
    DegradeReason, JobHandle, Outcome, Priority, Rejection, Request, RequestKind, Response,
    UpdateInfo,
};
pub use shard::{ReplicationConfig, RouteDecision, Router, ShardStats};
pub use store::PartitionStore;
