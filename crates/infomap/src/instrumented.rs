//! Simulated execution of the `FindBestCommunity` kernel — the ZSim
//! experiments.
//!
//! This driver runs the same multi-level optimization as [`crate::driver`],
//! but every `FindBestCommunity` evaluation executes against a simulated
//! core ([`asa_simarch::CoreModel`]) with a per-core accumulation device,
//! exactly like the paper's setup: one OpenMP thread per core, each with a
//! private software hash table (Baseline) or core-local CAM (ASA). The
//! partitioning, move application, and coarsening happen on the host and
//! are not charged — the paper's simulated numbers likewise cover the
//! `FindBestCommunity` kernel ("Timing breakdown of the simulated kernel
//! (FindBestCommunity)", Fig. 7).
//!
//! [`native_infomap`] is the paper's Native column beside it: the same
//! Baseline hash table with a null sink, run on the host's chunk driver
//! through the hash reference engine.

use std::ops::Range;
use std::time::Instant;

use asa_accel::{AsaAccumulator, AsaConfig, AsaStats};
use asa_graph::{CsrGraph, Partition};
use asa_hashsim::{ChainedAccumulator, LinearProbeAccumulator};
use asa_obs::{Obs, Value};
use asa_simarch::accum::FlowAccumulator;
use asa_simarch::events::phase;
use asa_simarch::machine::block_partition_into;
use asa_simarch::{CoreModel, KernelReport, MachineConfig};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cancel::CancelToken;
use crate::config::InfomapConfig;
use crate::driver::{run_with_engine, HashEngine};
use crate::find_best::{find_best_community, FindBestScratch, MoveDecision};
use crate::flow::FlowNetwork;
use crate::result::InfomapResult;
use crate::schedule::{optimize_multilevel_cancellable, DecideEngine, SweepCtx};

/// Which accumulation device the simulated cores use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Device {
    /// Instrumented chained hash table (`std::unordered_map` model) — the
    /// paper's Baseline.
    SoftwareHash,
    /// Instrumented open-addressing table (ablation).
    LinearProbe,
    /// The ASA accelerator with the given CAM configuration.
    Asa(AsaConfig),
}

impl Device {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Device::SoftwareHash => "baseline",
            Device::LinearProbe => "linear-probe",
            Device::Asa(_) => "asa",
        }
    }
}

/// Counters of one simulated sweep (one "iteration").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSim {
    /// Outer (refinement) iteration, 0-based.
    pub outer: usize,
    /// Hierarchy level within the outer iteration (0 = vertex phase).
    pub level: usize,
    /// Sweep index within the level.
    pub sweep: usize,
    /// Active vertices evaluated.
    pub active: usize,
    /// Per-core total reports.
    pub per_core: Vec<KernelReport>,
    /// Barrier-combined report: counters summed, cycles = slowest core.
    pub combined: KernelReport,
    /// Per-phase reports summed over cores
    /// (`[compute, hash, overflow]`).
    pub phases: [KernelReport; phase::COUNT],
}

/// Full result of a simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulatedRun {
    /// Device name ("baseline", "asa", ...).
    pub device: String,
    /// Machine configuration simulated.
    pub machine: MachineConfig,
    /// One entry per sweep, across all levels.
    pub sweeps: Vec<SweepSim>,
    /// Totals across sweeps (cycles = Σ of per-sweep barrier cycles).
    pub total: KernelReport,
    /// Per-phase totals summed over cores and sweeps.
    pub phase_totals: [KernelReport; phase::COUNT],
    /// ASA device statistics (None for software devices).
    pub asa_stats: Option<AsaStatsSummary>,
    /// Final partition over the original vertices.
    pub partition: Partition,
    /// Final codelength.
    pub codelength: f64,
    /// Host seconds spent inside the simulation engine: the parallel
    /// decide, with every micro-event charged to its core model inline,
    /// plus the per-sweep report barrier. It excludes the schedule work
    /// (move application, coarsening) that the simulator does not charge.
    pub sim_seconds: f64,
}

/// Serializable subset of [`AsaStats`] summed over cores.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AsaStatsSummary {
    /// Total accumulate instructions.
    pub accumulates: u64,
    /// CAM hits.
    pub hits: u64,
    /// CAM inserts.
    pub inserts: u64,
    /// LRU evictions to the overflow queue.
    pub evictions: u64,
    /// Gather rounds.
    pub gathers: u64,
    /// Gather rounds requiring software sort-and-merge.
    pub overflowed_gathers: u64,
    /// Fraction of gathers that overflowed.
    pub overflow_rate: f64,
}

impl From<AsaStats> for AsaStatsSummary {
    fn from(s: AsaStats) -> Self {
        Self {
            accumulates: s.accumulates,
            hits: s.hits,
            inserts: s.inserts,
            evictions: s.evictions,
            gathers: s.gathers,
            overflowed_gathers: s.overflowed_gathers,
            overflow_rate: s.overflow_rate(),
        }
    }
}

impl SimulatedRun {
    /// Seconds spent in the simulated kernel (barrier semantics).
    pub fn kernel_seconds(&self) -> f64 {
        self.total.seconds(self.machine.freq_ghz)
    }

    /// Seconds attributed to hash operations (accumulate + gather +
    /// overflow merge), summed over cores and divided by core count — i.e.
    /// the average per-core hash time the paper's multi-core breakdowns
    /// plot.
    pub fn hash_seconds(&self) -> f64 {
        let cycles =
            self.phase_totals[phase::HASH].cycles + self.phase_totals[phase::OVERFLOW].cycles;
        cycles / self.machine.cores as f64 / (self.machine.freq_ghz * 1e9)
    }

    /// Share of hash-operation cycles within the kernel (Fig. 2b).
    pub fn hash_share(&self) -> f64 {
        let total: f64 = self.phase_totals.iter().map(|r| r.cycles).sum();
        if total == 0.0 {
            0.0
        } else {
            (self.phase_totals[phase::HASH].cycles + self.phase_totals[phase::OVERFLOW].cycles)
                / total
        }
    }

    /// Share of overflow-handling cycles within hash operations
    /// (the paper: 9.86% for Pokec, 13.31% for Orkut).
    pub fn overflow_share(&self) -> f64 {
        let hash =
            self.phase_totals[phase::HASH].cycles + self.phase_totals[phase::OVERFLOW].cycles;
        if hash == 0.0 {
            0.0
        } else {
            self.phase_totals[phase::OVERFLOW].cycles / hash
        }
    }

    /// Average per-core instruction count (Fig. 9).
    pub fn instructions_per_core(&self) -> f64 {
        self.total.instructions as f64 / self.machine.cores as f64
    }

    /// Average per-core misprediction count (Fig. 10).
    pub fn mispredictions_per_core(&self) -> f64 {
        self.total.mispredictions as f64 / self.machine.cores as f64
    }

    /// Average per-core CPI (Fig. 11): cycles *summed over cores* (the
    /// phase totals) divided by instructions summed over cores. The
    /// barrier-combined `total.cpi()` would divide max-core cycles by
    /// all-core instructions, which is parallel throughput, not per-core
    /// CPI.
    pub fn avg_core_cpi(&self) -> f64 {
        let cycles: f64 = self.phase_totals.iter().map(|r| r.cycles).sum();
        if self.total.instructions == 0 {
            0.0
        } else {
            cycles / self.total.instructions as f64
        }
    }
}

/// Simulates the full Infomap run on `graph` with the given machine and
/// device, returning per-sweep and total counters for the
/// `FindBestCommunity` kernel.
pub fn simulate_infomap(
    graph: &CsrGraph,
    icfg: &InfomapConfig,
    mcfg: &MachineConfig,
    device: Device,
) -> SimulatedRun {
    simulate_infomap_obs(graph, icfg, mcfg, device, &Obs::disabled())
}

/// [`simulate_infomap`] with a telemetry handle: per-device
/// distributions (CAM occupancy, chain/probe lengths) and per-sweep
/// convergence records flow into `obs`. A disabled handle makes this
/// identical to [`simulate_infomap`].
pub fn simulate_infomap_obs(
    graph: &CsrGraph,
    icfg: &InfomapConfig,
    mcfg: &MachineConfig,
    device: Device,
    obs: &Obs,
) -> SimulatedRun {
    let _sp = obs.span("simulate");
    let flow = {
        let _sp = obs.span("pagerank");
        FlowNetwork::from_graph(graph, icfg)
    };
    match device {
        Device::SoftwareHash => {
            let mut accs: Vec<ChainedAccumulator> =
                (0..mcfg.cores).map(|_| ChainedAccumulator::new()).collect();
            accs.iter_mut().for_each(|a| a.attach_obs(obs));
            run_device(flow, icfg, mcfg, device, accs, obs).0
        }
        Device::LinearProbe => {
            let mut accs: Vec<LinearProbeAccumulator> = (0..mcfg.cores)
                .map(|_| LinearProbeAccumulator::new())
                .collect();
            accs.iter_mut().for_each(|a| a.attach_obs(obs));
            run_device(flow, icfg, mcfg, device, accs, obs).0
        }
        Device::Asa(cfg) => {
            let mut accs: Vec<AsaAccumulator> =
                (0..mcfg.cores).map(|_| AsaAccumulator::new(cfg)).collect();
            accs.iter_mut().for_each(|a| a.attach_obs(obs));
            let (mut run, accs) = run_device(flow, icfg, mcfg, device, accs, obs);
            let mut total = AsaStats::default();
            for a in &accs {
                let s = a.stats();
                total.accumulates += s.accumulates;
                total.hits += s.hits;
                total.inserts += s.inserts;
                total.evictions += s.evictions;
                total.gathers += s.gathers;
                total.overflowed_gathers += s.overflowed_gathers;
                total.merged_pairs += s.merged_pairs;
            }
            run.asa_stats = Some(total.into());
            run
        }
    }
}

/// The "Native" column of the paper's Tables III/IV: the same kernel
/// schedule run on the host without the simulator — the hash reference
/// ([`HashEngine`]: the generic kernel over the [`ChainedAccumulator`] the
/// simulated Baseline charges, with a null sink) on a `cores`-thread pool,
/// timed by wall clock. Per-iteration times are the result's
/// `levels[..].sweep_seconds`.
pub fn native_infomap(graph: &CsrGraph, icfg: &InfomapConfig, cores: usize) -> InfomapResult {
    rayon::ThreadPoolBuilder::new()
        .num_threads(cores)
        .build()
        .expect("thread pool")
        .install(|| {
            run_with_engine(
                graph,
                icfg,
                &mut HashEngine::default(),
                &Obs::disabled(),
                &CancelToken::none(),
            )
        })
}

/// Simulated engine: each emulated core decides its share of the active
/// set against its private accumulation device, charging every micro-event
/// to its core model inline; per-sweep counters are collected at the
/// schedule's barrier callback.
struct SimEngine<A> {
    cores: Vec<CoreModel>,
    accs: Vec<A>,
    scratches: Vec<FindBestScratch>,
    outs: Vec<Vec<MoveDecision>>,
    ranges: Vec<Range<usize>>,
    sweeps: Vec<SweepSim>,
    sim_seconds: f64,
    obs: Obs,
    device_name: &'static str,
}

impl<A: FlowAccumulator + Send> DecideEngine for SimEngine<A> {
    fn decide(&mut self, ctx: &SweepCtx<'_>) -> Vec<MoveDecision> {
        block_partition_into(ctx.active.len(), self.cores.len(), &mut self.ranges);
        let start = Instant::now();
        let (flow, labels, state, active) = (ctx.flow, ctx.labels, ctx.state, ctx.active);
        let ranges = &self.ranges;
        self.cores
            .par_iter_mut()
            .zip(self.accs.par_iter_mut())
            .zip(self.scratches.par_iter_mut())
            .zip(self.outs.par_iter_mut())
            .enumerate()
            .for_each(|(i, (((core, acc), scratch), out))| {
                out.clear();
                for &u in &active[ranges[i].clone()] {
                    let d = find_best_community(flow, labels, state, u, acc, core, scratch);
                    if d.best_module != labels[u as usize] {
                        out.push(d);
                    }
                }
            });
        self.sim_seconds += start.elapsed().as_secs_f64();
        // Core `i` holds the `i`-th contiguous slice of the sorted active
        // set, so the buffers concatenated in core order stay ordered by
        // vertex.
        let mut all = Vec::with_capacity(self.outs.iter().map(Vec::len).sum());
        for out in &mut self.outs {
            all.append(out);
        }
        all
    }

    fn after_sweep(
        &mut self,
        ctx: &SweepCtx<'_>,
        _applied: &crate::local_move::AppliedMoves,
        _elapsed: std::time::Duration,
    ) {
        // Barrier: collect and reset every core's counters for this sweep.
        let start = Instant::now();
        let mut per_core = Vec::with_capacity(self.cores.len());
        let mut phases: [KernelReport; phase::COUNT] = Default::default();
        for core in &mut self.cores {
            let p = core.take_phase_reports();
            per_core.push(KernelReport::sum(p.iter()));
            for (agg, part) in phases.iter_mut().zip(p.iter()) {
                agg.merge(part);
            }
        }
        self.sim_seconds += start.elapsed().as_secs_f64();
        let combined = KernelReport::parallel(per_core.iter());
        self.sweeps.push(SweepSim {
            outer: ctx.outer,
            level: ctx.level,
            sweep: ctx.sweep,
            active: ctx.active.len(),
            per_core,
            combined,
            phases,
        });
    }

    fn obs(&self) -> Obs {
        self.obs.clone()
    }

    fn sweep_fields(&self, fields: &mut Vec<(&'static str, Value)>) {
        fields.push(("device", Value::from(self.device_name)));
        // `after_sweep` ran just before the schedule emits the record, so
        // the last entry is this sweep's barrier-combined report.
        if let Some(s) = self.sweeps.last() {
            fields.push(("sim_cycles", Value::from(s.combined.cycles)));
            fields.push(("sim_instructions", Value::from(s.combined.instructions)));
        }
    }
}

fn run_device<A: FlowAccumulator + Send>(
    flow: FlowNetwork,
    icfg: &InfomapConfig,
    mcfg: &MachineConfig,
    device: Device,
    accs: Vec<A>,
    obs: &Obs,
) -> (SimulatedRun, Vec<A>) {
    let mut engine = SimEngine {
        cores: (0..mcfg.cores).map(|_| CoreModel::new(mcfg)).collect(),
        scratches: (0..mcfg.cores)
            .map(|_| FindBestScratch::default())
            .collect(),
        outs: vec![Vec::new(); mcfg.cores],
        ranges: Vec::with_capacity(mcfg.cores),
        accs,
        sweeps: Vec::new(),
        sim_seconds: 0.0,
        obs: obs.clone(),
        device_name: device.name(),
    };
    let outcome = {
        let _sp = obs.span("optimize");
        optimize_multilevel_cancellable(&flow, icfg, &mut engine, &CancelToken::none())
    };

    let mut total = KernelReport::default();
    let mut phase_totals: [KernelReport; phase::COUNT] = Default::default();
    for s in &engine.sweeps {
        total.merge(&s.combined);
        for (agg, part) in phase_totals.iter_mut().zip(s.phases.iter()) {
            agg.merge(part);
        }
    }

    (
        SimulatedRun {
            device: device.name().to_string(),
            machine: mcfg.clone(),
            sweeps: engine.sweeps,
            total,
            phase_totals,
            asa_stats: None,
            partition: outcome.partition,
            codelength: outcome.codelength,
            sim_seconds: engine.sim_seconds,
        },
        engine.accs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asa_graph::generators::{planted_partition, PlantedConfig};

    fn small_graph() -> CsrGraph {
        planted_partition(
            &PlantedConfig {
                communities: 6,
                community_size: 30,
                k_in: 10.0,
                k_out: 1.0,
            },
            13,
        )
        .0
    }

    #[test]
    fn baseline_and_asa_agree_on_the_answer() {
        let g = small_graph();
        let icfg = InfomapConfig::default();
        let mcfg = MachineConfig::baseline(2);
        let base = simulate_infomap(&g, &icfg, &mcfg, Device::SoftwareHash);
        let asa = simulate_infomap(&g, &icfg, &mcfg, Device::Asa(AsaConfig::paper_default()));
        // The accelerator changes cost, not semantics.
        assert_eq!(base.partition.labels(), asa.partition.labels());
        assert!((base.codelength - asa.codelength).abs() < 1e-9);
    }

    #[test]
    fn asa_is_faster_on_hash_work() {
        let g = small_graph();
        let icfg = InfomapConfig::default();
        let mcfg = MachineConfig::baseline(1);
        let base = simulate_infomap(&g, &icfg, &mcfg, Device::SoftwareHash);
        let asa = simulate_infomap(&g, &icfg, &mcfg, Device::Asa(AsaConfig::paper_default()));
        assert!(
            base.hash_seconds() > 2.0 * asa.hash_seconds(),
            "expected a clear hash speedup: baseline {} vs asa {}",
            base.hash_seconds(),
            asa.hash_seconds()
        );
        assert!(base.total.instructions > asa.total.instructions);
        assert!(base.total.mispredictions > asa.total.mispredictions);
    }

    #[test]
    fn baseline_hash_share_in_paper_band() {
        let g = small_graph();
        let base = simulate_infomap(
            &g,
            &InfomapConfig::default(),
            &MachineConfig::baseline(1),
            Device::SoftwareHash,
        );
        let share = base.hash_share();
        // Paper: 50-65% of FindBestCommunity. Allow a generous band for the
        // small test graph.
        assert!(
            (0.3..0.9).contains(&share),
            "hash share {share} out of plausible range"
        );
    }

    #[test]
    fn sweep_reports_cover_cores() {
        let g = small_graph();
        let mcfg = MachineConfig::baseline(4);
        let run = simulate_infomap(&g, &InfomapConfig::default(), &mcfg, Device::SoftwareHash);
        assert!(!run.sweeps.is_empty());
        for s in &run.sweeps {
            assert_eq!(s.per_core.len(), 4);
            let sum_instr: u64 = s.per_core.iter().map(|r| r.instructions).sum();
            assert_eq!(sum_instr, s.combined.instructions);
            let max_cycles = s.per_core.iter().map(|r| r.cycles).fold(0.0f64, f64::max);
            assert!((s.combined.cycles - max_cycles).abs() < 1e-9);
        }
    }

    #[test]
    fn tiny_cam_overflows_and_still_correct() {
        let g = small_graph();
        let icfg = InfomapConfig::default();
        let mcfg = MachineConfig::baseline(1);
        let tiny = simulate_infomap(
            &g,
            &icfg,
            &mcfg,
            Device::Asa(AsaConfig {
                cam_bytes: 64,
                entry_bytes: 16,
                ..AsaConfig::paper_default()
            }),
        );
        let base = simulate_infomap(&g, &icfg, &mcfg, Device::SoftwareHash);
        assert_eq!(tiny.partition.labels(), base.partition.labels());
        let stats = tiny.asa_stats.unwrap();
        assert!(stats.evictions > 0, "4-entry CAM must overflow");
        assert!(tiny.overflow_share() > 0.0);
    }

    #[test]
    fn linear_probe_agrees_and_asa_beats_both() {
        let g = small_graph();
        let icfg = InfomapConfig::default();
        let mcfg = MachineConfig::baseline(1);
        let base = simulate_infomap(&g, &icfg, &mcfg, Device::SoftwareHash);
        let probe = simulate_infomap(&g, &icfg, &mcfg, Device::LinearProbe);
        let asa = simulate_infomap(&g, &icfg, &mcfg, Device::Asa(AsaConfig::paper_default()));
        assert_eq!(probe.partition.labels(), base.partition.labels());
        // ASA beats both software tables; the probe-vs-chained ordering
        // depends on per-vertex table sizes and is examined by the ablation
        // bench rather than asserted here.
        assert!(asa.total.cycles < probe.total.cycles);
        assert!(asa.total.cycles < base.total.cycles);
        // The probe table avoids pointer chasing, so it must miss the
        // caches less per load than the chained table... but both emit the
        // same *kernel* compute; at minimum the partitions agree.
        assert!(probe.total.instructions > 0);
    }
}
