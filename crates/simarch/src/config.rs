//! Machine configurations (paper Table II).

use serde::{Deserialize, Serialize};

use crate::branch::PredictorKind;
use crate::cache::CacheLatencies;

/// Full simulated-machine configuration.
///
/// Defaults mirror Table II's *Baseline* column: 2.6 GHz cores, 32 KB L1,
/// 256 KB private L2, 16 MB shared L3 (the native machine's 20 MB rounded
/// down to a power of two, as ZSim requires), DDR3-1333 memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable name for reports.
    pub name: String,
    /// Core clock in GHz (converts cycles to seconds).
    pub freq_ghz: f64,
    /// Number of simulated cores.
    pub cores: usize,
    /// L1 data cache: (bytes, ways).
    pub l1: (usize, usize),
    /// Private L2: (bytes, ways).
    pub l2: (usize, usize),
    /// Shared L3: (bytes, ways); each core models `bytes / cores` of it.
    pub l3: (usize, usize),
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Load-to-use latencies per level, in cycles.
    pub latencies: CacheLatencies,
    /// Branch predictor organization.
    pub predictor: PredictorKind,
    /// Predictor table size in bits.
    pub predictor_table_bits: u32,
    /// Global history bits (gshare only).
    pub predictor_history_bits: u32,
    /// Pipeline-flush penalty per mispredicted branch, in cycles.
    pub mispredict_penalty: f64,
    /// Effective issue cost of one ALU op in cycles (< 1 models
    /// superscalar issue; Ivy Bridge sustains ~3-4 µops/cycle).
    pub alu_cycles: f64,
    /// Effective issue cost of one FP add/mul.
    pub float_cycles: f64,
    /// Issue cost of a load/store on a cache hit path, excluding stall
    /// cycles charged by the cache model.
    pub mem_issue_cycles: f64,
    /// Issue cost of a branch instruction (penalty added separately).
    pub branch_cycles: f64,
    /// Cycles per ASA `accumulate` instruction. The CAM performs the
    /// lookup+add in a short fixed pipeline; Chao et al. report
    /// single-instruction throughput with a small constant latency.
    pub asa_accumulate_cycles: f64,
    /// Cycles per CAM entry transferred by `gather_CAM`.
    pub asa_gather_cycles: f64,
    /// Fraction of a load's stall latency that the out-of-order window
    /// hides for *regular* (prefetchable) streams; pointer-chase loads
    /// emitted by the hash model bypass this (dependent loads cannot
    /// overlap).
    pub mlp_overlap: f64,
    /// Enable the next-line stream prefetcher. Off by default — the
    /// calibrated Baseline already folds average prefetch benefit into
    /// `mlp_overlap`; the ablation bench turns this on to quantify the
    /// paper's claim that collision chains defeat hardware prefetching.
    pub prefetch_next_line: bool,
}

impl MachineConfig {
    /// Table II "Baseline" column with a given core count.
    pub fn baseline(cores: usize) -> Self {
        Self {
            name: format!("baseline-{cores}core"),
            freq_ghz: 2.6,
            cores,
            l1: (32 * 1024, 8),
            l2: (256 * 1024, 8),
            l3: (16 * 1024 * 1024, 16),
            line_bytes: 64,
            latencies: CacheLatencies {
                l1: 1.0,
                l2: 10.0,
                l3: 32.0,
                mem: 140.0,
            },
            predictor: PredictorKind::Gshare,
            predictor_table_bits: 12,
            predictor_history_bits: 8,
            mispredict_penalty: 16.0,
            alu_cycles: 0.33,
            float_cycles: 0.5,
            mem_issue_cycles: 0.5,
            branch_cycles: 0.5,
            asa_accumulate_cycles: 2.0,
            asa_gather_cycles: 2.0,
            mlp_overlap: 0.6,
            prefetch_next_line: false,
        }
    }

    /// The native machine of Table II (20 MB L3, used only for documentation
    /// of the validation experiment; the simulator itself requires
    /// power-of-two capacities, so running with this config rounds L3 down).
    pub fn native(cores: usize) -> Self {
        Self {
            name: format!("native-{cores}core"),
            l3: (20 * 1024 * 1024, 20),
            ..Self::baseline(cores)
        }
    }

    /// L3 slice modeled per core.
    pub fn l3_slice(&self) -> (usize, usize) {
        let bytes = (self.l3.0 / self.cores.max(1)).next_power_of_two();
        let bytes = bytes.min(self.l3.0).max(self.line_bytes * self.l3.1);
        (bytes, self.l3.1)
    }

    /// Converts a cycle count to seconds at this clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = MachineConfig::baseline(8);
        assert_eq!(c.freq_ghz, 2.6);
        assert_eq!(c.l1.0, 32 * 1024);
        assert_eq!(c.l2.0, 256 * 1024);
        assert_eq!(c.l3.0, 16 * 1024 * 1024);
        assert_eq!(c.cores, 8);
    }

    #[test]
    fn l3_slice_power_of_two() {
        let c = MachineConfig::baseline(8);
        let (bytes, _) = c.l3_slice();
        assert!(bytes.is_power_of_two());
        assert_eq!(bytes, 2 * 1024 * 1024);
    }

    #[test]
    fn native_l3_larger() {
        assert!(MachineConfig::native(8).l3.0 > MachineConfig::baseline(8).l3.0);
    }

    #[test]
    fn cycle_conversion() {
        let c = MachineConfig::baseline(1);
        assert!((c.cycles_to_seconds(2.6e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serializes() {
        let c = MachineConfig::baseline(2);
        let json = serde_json::to_string(&c).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cores, 2);
    }
}
