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

/// Why an [`InfomapConfig`] cannot run; from [`InfomapConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `teleport` is not a finite value in `[0, 1)`.
    Teleport(f64),
    /// `pagerank_tol` is not a finite value `>= 0`.
    PagerankTol(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Teleport(v) => write!(f, "teleport {v} is not in [0, 1)"),
            Self::PagerankTol(v) => write!(f, "pagerank_tol {v} is not finite and >= 0"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl InfomapConfig {
    /// Checks the fields the flow computation relies on: `teleport`
    /// finite in `[0, 1)` (PageRank asserts it) and `pagerank_tol` finite
    /// and `>= 0`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..1.0).contains(&self.teleport) {
            return Err(ConfigError::Teleport(self.teleport));
        }
        if !(self.pagerank_tol.is_finite() && self.pagerank_tol >= 0.0) {
            return Err(ConfigError::PagerankTol(self.pagerank_tol));
        }
        Ok(())
    }

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
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_teleport_and_tolerance() {
        let with = |teleport: f64, pagerank_tol: f64| InfomapConfig {
            teleport,
            pagerank_tol,
            ..InfomapConfig::default()
        };
        for t in [f64::NAN, 1.0, 1.5, -0.1, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(with(t, 1e-12).validate(), Err(ConfigError::Teleport(_))),
                "{t}"
            );
        }
        for tol in [f64::NAN, -1e-9, f64::INFINITY] {
            let err = with(0.15, tol).validate();
            assert!(matches!(err, Err(ConfigError::PagerankTol(_))), "{tol}");
        }
        assert_eq!(with(0.0, 0.0).validate(), Ok(()));
        assert_eq!(with(0.999, 1.0).validate(), Ok(()));
        assert_eq!(
            with(1.0, 1e-12).validate().unwrap_err().to_string(),
            "teleport 1 is not in [0, 1)"
        );
    }
}
