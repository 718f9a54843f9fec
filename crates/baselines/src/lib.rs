//! Baseline community-detection algorithms and partition-quality metrics.
//!
//! The paper motivates Infomap by its quality advantage over
//! modularity-based algorithms on the LFR benchmark (Lancichinetti &
//! Fortunato 2009; Aldecoa & Marín 2013). To reproduce that comparison the
//! harness needs the comparators themselves:
//!
//! * [`mod@louvain`] — the canonical modularity optimizer (Blondel et al.
//!   2008), the paper's reference for the resolution-limit discussion,
//! * [`mod@labelprop`] — asynchronous label propagation, a fast low-quality
//!   baseline,
//! * [`metrics`] — normalized mutual information, adjusted Rand index, and
//!   modularity for scoring detected partitions against planted ones.

pub mod labelprop;
pub mod louvain;
pub mod metrics;

pub use labelprop::label_propagation;
pub use louvain::{louvain, LouvainConfig, LouvainResult};
pub use metrics::{
    adjusted_rand_index, conductance, coverage, modularity, normalized_mutual_information,
};
