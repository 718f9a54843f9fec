//! Graph substrate for the Infomap-ASA reproduction.
//!
//! This crate provides everything the paper's evaluation needs from its graph
//! layer:
//!
//! * a compact weighted [CSR](csr::CsrGraph) representation with both out- and
//!   in-adjacency (Infomap's `FindBestCommunity` accumulates flow in both
//!   directions, Algorithm 1 of the paper); an undirected graph stores one
//!   symmetric CSR that serves both,
//! * a mutable [builder](builder::GraphBuilder) that deduplicates parallel
//!   edges by accumulating weights (the paper's `Convert2SuperNode` semantics),
//! * SNAP-format edge-list [I/O](io) so real datasets drop in when available,
//! * seeded, deterministic [generators] for scale-free networks
//!   (Barabási–Albert, R-MAT), random graphs (Erdős–Rényi), and
//!   community-structured benchmarks (planted partition, LFR-style), used to
//!   synthesize stand-ins for the six SNAP networks in Table I,
//! * [degree analytics](degree): histograms, CCDFs, power-law tail fits
//!   (Figure 4) and the CAM-capacity coverage study (Figure 5),
//! * [partitions](partition) with relabeling and per-community bookkeeping.
//!
//! All generators take explicit seeds and are deterministic across runs, which
//! the simulation harness relies on when comparing the Baseline and ASA
//! pipelines event-for-event.

pub mod binio;
pub mod builder;
pub mod clustering;
pub mod connectivity;
pub mod csr;
pub mod degree;
pub mod delta;
mod exact_sum;
pub mod fingerprint;
pub mod generators;
pub mod io;
pub mod partition;
pub mod reorder;
pub mod stats;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use csr::{CsrArrays, CsrError, CsrGraph, EdgeRef, NodeId};
pub use delta::{DeltaGraph, EdgeDelta};
pub use fingerprint::{fnv1a64, Fnv64};
pub use partition::Partition;
pub use reorder::{degree_order, renumber, VertexPermutation};
pub use stats::GraphStats;
