//! Algorithm configuration.

use serde::{Deserialize, Serialize};

/// Parameters of the Infomap run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InfomapConfig {
    /// Teleportation probability τ for the directed PageRank (the paper's
    /// flow model computes "vertex visit rate, i.e., the PageRank p_α ...
    /// taking teleportation τ into account"). Unused for undirected graphs,
    /// whose stationary distribution is analytic.
    pub teleport: f64,
    /// PageRank convergence tolerance (L1 change per iteration).
    pub pagerank_tol: f64,
    /// PageRank iteration cap.
    pub pagerank_max_iters: usize,
    /// Maximum local-move sweeps per level before coarsening.
    pub max_sweeps: usize,
    /// Maximum coarsening levels.
    pub max_levels: usize,
    /// Minimum codelength improvement (bits) for a sweep/level to count as
    /// progress.
    pub min_improvement: f64,
    /// Number of worker threads for the parallel phase; 0 = rayon default.
    pub threads: usize,
    /// Encode teleport steps in the codelength (the original Rosvall 2008
    /// convention of the paper's Eq. 1). Off by default: modern Infomap
    /// (and HyPC-Map) use unrecorded teleportation.
    pub recorded_teleport: bool,
    /// Outer multilevel⇄refinement alternations (Rosvall's fine-tuning):
    /// 1 = plain multilevel, 2 = one refinement pass over the original
    /// vertices followed by re-aggregation, and so on. Applies identically
    /// to the host, native, and simulated drivers (they share the
    /// schedule).
    pub outer_loops: usize,
}

impl InfomapConfig {
    /// The [`crate::mapeq::TeleportMode`] implied by this configuration.
    pub fn teleport_mode(&self) -> crate::mapeq::TeleportMode {
        if self.recorded_teleport {
            crate::mapeq::TeleportMode::Recorded { tau: self.teleport }
        } else {
            crate::mapeq::TeleportMode::Unrecorded
        }
    }
}

impl Default for InfomapConfig {
    fn default() -> Self {
        Self {
            teleport: 0.15,
            pagerank_tol: 1e-12,
            pagerank_max_iters: 200,
            max_sweeps: 20,
            max_levels: 12,
            min_improvement: 1e-10,
            threads: 0,
            recorded_teleport: false,
            outer_loops: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = InfomapConfig::default();
        assert!(c.teleport > 0.0 && c.teleport < 1.0);
        assert!(c.max_sweeps > 0 && c.max_levels > 0);
    }
}
