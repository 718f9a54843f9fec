//! Single-core timing model: turns micro-events into cycles.

use crate::branch::BranchPredictor;
use crate::cache::{CacheHierarchy, HitLevel};
use crate::config::MachineConfig;
use crate::events::{phase, EventSink, InstrClass};
use crate::report::KernelReport;

/// One simulated core: a branch predictor, a private cache hierarchy
/// (L1 + L2 + an L3 slice), and a latency accounting model.
///
/// The cycle model is additive-with-overlap: every instruction pays its
/// effective issue cost (sub-cycle values model superscalar issue), branch
/// mispredictions pay a pipeline-flush penalty, and loads pay the cache
/// hierarchy's load-to-use latency discounted by `mlp_overlap` — except for
/// *dependent* loads (pointer chasing, flagged by the instrumented hash
/// table), which cannot overlap and pay the full latency. This is the same
/// first-order decomposition ZSim's OoO model converges to for these
/// loop-dominated kernels.
///
/// Counters are kept per attribution [`phase`], so the harness can split a
/// kernel's cycles into compute / hash / overflow shares (Fig. 2b and the
/// overflow-cost claim in Section IV-C).
#[derive(Debug)]
pub struct CoreModel {
    predictor: BranchPredictor,
    caches: CacheHierarchy,
    cfg: MachineConfig,
    phases: [KernelReport; phase::COUNT],
    current_phase: usize,
    /// When true, subsequent loads are treated as serially dependent
    /// (pointer chases) and pay unoverlapped latency.
    dependent_loads: bool,
}

impl CoreModel {
    /// Builds a core for the given machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut caches = CacheHierarchy::new(cfg.l1, cfg.l2, cfg.l3_slice(), cfg.line_bytes);
        caches.set_prefetch(cfg.prefetch_next_line);
        Self {
            predictor: BranchPredictor::new(
                cfg.predictor,
                cfg.predictor_table_bits,
                cfg.predictor_history_bits,
            ),
            caches,
            cfg: cfg.clone(),
            phases: Default::default(),
            current_phase: phase::COMPUTE,
            dependent_loads: false,
        }
    }

    /// Finishes the current kernel: returns the total report (all phases
    /// summed) and resets counters. Predictor and cache state persist, as
    /// they do across kernel invocations on real hardware.
    pub fn take_report(&mut self) -> KernelReport {
        let total = KernelReport::sum(self.phases.iter());
        self.phases = Default::default();
        total
    }

    /// Finishes the current kernel returning per-phase reports
    /// (indexed by the [`phase`] constants) and resets counters.
    pub fn take_phase_reports(&mut self) -> [KernelReport; phase::COUNT] {
        std::mem::take(&mut self.phases)
    }

    /// Read-only total of accumulated counters.
    pub fn report(&self) -> KernelReport {
        KernelReport::sum(self.phases.iter())
    }

    /// Read-only per-phase counters.
    pub fn phase_report(&self, p: usize) -> &KernelReport {
        &self.phases[p]
    }

    /// The machine configuration this core models.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    #[inline]
    fn cur(&mut self) -> &mut KernelReport {
        &mut self.phases[self.current_phase]
    }

    fn mem_access(&mut self, addr: u64, write: bool) {
        let level = self.caches.access(addr);
        let raw = self.caches.latency(level, &self.cfg.latencies);
        // Stores retire through the store buffer; charge issue cost only.
        // Loads pay load-to-use latency, overlapped unless dependent.
        let stall = if write {
            0.0
        } else if self.dependent_loads {
            raw
        } else {
            raw * (1.0 - self.cfg.mlp_overlap)
        };
        let issue = self.cfg.mem_issue_cycles;

        let r = self.cur();
        r.instructions += 1;
        if write {
            r.stores += 1;
        } else {
            r.loads += 1;
        }
        match level {
            HitLevel::L2 => r.l1_misses += 1,
            HitLevel::L3 => {
                r.l1_misses += 1;
                r.l2_misses += 1;
            }
            HitLevel::Memory => {
                r.l1_misses += 1;
                r.l2_misses += 1;
                r.l3_misses += 1;
            }
            HitLevel::L1 => {}
        }
        r.cycles += issue + stall;
    }
}

impl EventSink for CoreModel {
    fn instr(&mut self, class: InstrClass, count: u64) {
        let per = match class {
            InstrClass::Alu => self.cfg.alu_cycles,
            InstrClass::Float => self.cfg.float_cycles,
            InstrClass::Load | InstrClass::Store => self.cfg.mem_issue_cycles,
            InstrClass::Branch => self.cfg.branch_cycles,
            InstrClass::AsaAccumulate => self.cfg.asa_accumulate_cycles,
            InstrClass::AsaGather => self.cfg.asa_gather_cycles,
        };
        let r = self.cur();
        r.instructions += count;
        r.cycles += per * count as f64;
    }

    fn branch(&mut self, site: u32, taken: bool) {
        let mispredicted = self.predictor.resolve(site, taken);
        let branch_cycles = self.cfg.branch_cycles;
        let penalty = self.cfg.mispredict_penalty;
        let r = self.cur();
        r.instructions += 1;
        r.branches += 1;
        r.cycles += branch_cycles;
        if mispredicted {
            r.mispredictions += 1;
            r.cycles += penalty;
        }
    }

    fn mem_read(&mut self, addr: u64) {
        self.mem_access(addr, false);
    }

    fn mem_write(&mut self, addr: u64) {
        self.mem_access(addr, true);
    }

    fn set_dependent(&mut self, dependent: bool) {
        self.dependent_loads = dependent;
    }

    fn set_phase(&mut self, p: usize) {
        debug_assert!(p < phase::COUNT);
        self.current_phase = p.min(phase::COUNT - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventSink;

    fn core() -> CoreModel {
        CoreModel::new(&MachineConfig::baseline(1))
    }

    #[test]
    fn alu_cost_accumulates() {
        let mut c = core();
        c.instr(InstrClass::Alu, 300);
        assert_eq!(c.report().instructions, 300);
        assert!((c.report().cycles - 300.0 * 0.33).abs() < 1e-9);
    }

    #[test]
    fn predictable_branches_cheap_random_expensive() {
        let mut steady = core();
        for _ in 0..10_000 {
            steady.branch(1, true);
        }
        let mut noisy = core();
        let mut x = 0xdeadbeefu64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            noisy.branch(1, x & 1 == 1);
        }
        assert!(noisy.report().mispredictions > 20 * steady.report().mispredictions.max(1));
        assert!(noisy.report().cycles > 2.0 * steady.report().cycles);
    }

    #[test]
    fn dependent_loads_cost_more() {
        // Two cores streaming the same cold addresses; one with pointer-chase
        // semantics.
        let mut indep = core();
        let mut dep = core();
        dep.set_dependent(true);
        for i in 0..1000u64 {
            let addr = i * 4096; // always miss to DRAM
            indep.mem_read(addr);
            dep.mem_read(addr);
        }
        assert!(dep.report().cycles > 2.0 * indep.report().cycles);
        assert_eq!(dep.report().l3_misses, indep.report().l3_misses);
    }

    #[test]
    fn hot_loads_hit_l1() {
        let mut c = core();
        for _ in 0..100 {
            c.mem_read(0x100);
        }
        assert_eq!(c.report().l1_misses, 1);
        assert_eq!(c.report().loads, 100);
    }

    #[test]
    fn take_report_resets_counters_keeps_state() {
        let mut c = core();
        c.mem_read(0x100);
        let r1 = c.take_report();
        assert_eq!(r1.loads, 1);
        assert_eq!(r1.l1_misses, 1);
        // Cache state persisted: the same line now hits.
        c.mem_read(0x100);
        assert_eq!(c.report().l1_misses, 0);
    }

    #[test]
    fn stores_do_not_stall() {
        let mut c = core();
        c.mem_write(0x10_0000); // cold line, but store-buffered
        let store_cycles = c.take_report().cycles;
        c.mem_read(0x20_0000); // cold load pays (overlapped) latency
        let load_cycles = c.take_report().cycles;
        assert!(load_cycles > store_cycles);
    }

    #[test]
    fn phases_attribute_independently() {
        let mut c = core();
        c.set_phase(phase::COMPUTE);
        c.instr(InstrClass::Alu, 100);
        c.set_phase(phase::HASH);
        c.instr(InstrClass::Alu, 400);
        c.set_phase(phase::OVERFLOW);
        c.instr(InstrClass::Alu, 50);

        assert_eq!(c.phase_report(phase::COMPUTE).instructions, 100);
        assert_eq!(c.phase_report(phase::HASH).instructions, 400);
        assert_eq!(c.phase_report(phase::OVERFLOW).instructions, 50);
        assert_eq!(c.report().instructions, 550);

        let phases = c.take_phase_reports();
        assert_eq!(phases[phase::HASH].instructions, 400);
        assert_eq!(c.report().instructions, 0);
    }
}
