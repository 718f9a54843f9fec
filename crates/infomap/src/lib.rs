//! Parallel information-theoretic community detection (Infomap).
//!
//! This crate reimplements the paper's HyPC-Map pipeline (Faysal et al.,
//! HPEC 2021) — the four kernels of Section II-C:
//!
//! 1. **PageRank** ([`pagerank`]): ergodic vertex visit probabilities via
//!    power iteration with teleportation.
//! 2. **FindBestCommunity** ([`find_best`]): per-vertex greedy module
//!    selection minimizing the map equation, written once and generic over
//!    the flow-accumulation device — the software hash Baseline
//!    (Algorithm 1) and the ASA accelerator (Algorithm 2) plug in through
//!    [`asa_simarch::FlowAccumulator`].
//! 3. **Convert2SuperNode** ([`coarsen`]): module aggregation into
//!    supernodes with accumulated super-edge flows.
//! 4. **UpdateMembers** ([`asa_graph::Partition::project`]): projecting
//!    coarse module choices back onto original vertices.
//!
//! The [`schedule`] owns the multi-level loop and its one sweep body
//! (decide → apply → next active set), shared by every level, every
//! refinement pass and the [`incremental`] frontier pass. Engines plug in
//! only the decide step: the [`driver`] runs it on the host with
//! per-kernel wall-clock timing (Fig. 2a); [`instrumented`] runs the
//! `FindBestCommunity` kernel on the `asa-simarch` machine model to
//! produce the simulated instruction/misprediction/CPI/cycle numbers
//! behind Tables III–V and Figures 6–11.
//!
//! # Flow model
//!
//! Teleportation is *unrecorded* (used to compute stationary visit rates,
//! not encoded in the codelength), matching modern Infomap defaults; for
//! undirected graphs the stationary distribution is the analytic
//! degree-proportional one and PageRank iteration is skipped. See
//! [`flow::FlowNetwork`].

pub mod cancel;
pub mod coarsen;
pub mod config;
pub mod distributed;
pub mod driver;
pub mod exhaustive;
pub mod find_best;
pub mod flow;
pub mod incremental;
pub mod instrumented;
pub mod kernel;
pub mod local_move;
pub mod mapeq;
pub mod module_stats;
pub mod pagerank;
pub mod result;
pub mod schedule;

pub use cancel::CancelToken;
pub use config::{ConfigError, InfomapConfig};
pub use distributed::{detect_communities_distributed_cancellable, CommStats, DistEngine};
pub use driver::{
    detect_communities, detect_communities_cancellable, detect_communities_renumbered,
};
pub use flow::FlowNetwork;
pub use incremental::{FallbackReason, IncrementalConfig, IncrementalOutcome, IncrementalState};
pub use mapeq::MapState;
pub use result::{InfomapResult, KernelTimings};
