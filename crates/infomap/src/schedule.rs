//! The multilevel optimization schedule, shared by every driver.
//!
//! Three execution modes run the exact same control flow — the host
//! (rayon) driver, the wall-clock "native" driver, and the simulated
//! (per-core device) driver — differing only in *how* a sweep's decisions
//! are computed. This module owns the control flow; drivers plug in a
//! [`DecideEngine`]. Because the schedule is shared, every mode produces
//! the identical partition for identical inputs, which the test suite
//! asserts (the accelerator must change cost, never semantics).
//!
//! The schedule implements Rosvall-style multilevel optimization with
//! fine-tuning: repeat { local-move sweeps, coarsen, ... } until no level
//! merges, then a *refinement* pass re-sweeps the original vertices
//! within the coarse solution and, if it moved anything, the multilevel
//! loop restarts from the refined partition
//! (`InfomapConfig::outer_loops` bounds the alternation).

use std::time::{Duration, Instant};

use asa_graph::{NodeId, Partition};
use asa_obs::{Obs, Value};

use crate::cancel::CancelToken;
use crate::coarsen::convert_to_supernodes;
use crate::config::InfomapConfig;
use crate::find_best::MoveDecision;
use crate::flow::FlowNetwork;
use crate::local_move::{apply_decisions, next_active_into, AppliedMoves};
use crate::mapeq::{plogp, MapState};
use crate::result::{KernelTimings, LevelInfo};

/// Everything a sweep's decision phase may need.
pub struct SweepCtx<'a> {
    /// The flow network being optimized at this level (the original
    /// network during refinement passes).
    pub flow: &'a FlowNetwork,
    /// Frozen label snapshot decisions are made against.
    pub labels: &'a [u32],
    /// Module statistics consistent with `labels`.
    pub state: &'a MapState,
    /// Vertices to evaluate.
    pub active: &'a [NodeId],
    /// Outer (refinement) iteration, 0-based.
    pub outer: usize,
    /// Hierarchy level within this outer iteration; refinement passes use
    /// [`REFINE_LEVEL`].
    pub level: usize,
    /// Sweep index within the level.
    pub sweep: usize,
}

/// Level marker for refinement passes in [`SweepCtx::level`].
pub const REFINE_LEVEL: usize = usize::MAX;

/// A pluggable decision executor.
pub trait DecideEngine {
    /// Computes improving move decisions for `ctx.active`, ordered by
    /// vertex id.
    fn decide(&mut self, ctx: &SweepCtx<'_>) -> Vec<MoveDecision>;

    /// Notification after the sweep's moves were applied, with the
    /// wall-clock duration of the decide+apply step.
    fn after_sweep(&mut self, ctx: &SweepCtx<'_>, applied: &AppliedMoves, elapsed: Duration) {
        let _ = (ctx, applied, elapsed);
    }

    /// Telemetry handle the schedule should time phases against and emit
    /// per-sweep convergence records to. Returns an owned clone so the
    /// schedule can hold it across `&mut self` calls. Defaults to disabled.
    fn obs(&self) -> Obs {
        Obs::disabled()
    }

    /// Engine-specific fields appended to each per-sweep convergence
    /// record (e.g. the accumulator path taken, device statistics). Only
    /// called when [`DecideEngine::obs`] is enabled.
    fn sweep_fields(&self, fields: &mut Vec<(&'static str, Value)>) {
        let _ = fields;
    }
}

/// Emits one per-sweep convergence record. `level` is `None` for
/// refinement passes (flagged via the `refine` field instead).
#[allow(clippy::too_many_arguments)]
fn emit_sweep_record<E: DecideEngine>(
    obs: &Obs,
    engine: &E,
    outer: usize,
    level: Option<usize>,
    sweep: usize,
    active: usize,
    moves: usize,
    codelength: f64,
    prev_codelength: f64,
    seconds: f64,
) {
    let mut fields: Vec<(&'static str, Value)> = Vec::with_capacity(12);
    fields.push(("outer", Value::from(outer)));
    if let Some(level) = level {
        fields.push(("level", Value::from(level)));
    }
    fields.push(("refine", Value::from(level.is_none())));
    fields.push(("sweep", Value::from(sweep)));
    fields.push(("active", Value::from(active)));
    fields.push(("moves", Value::from(moves)));
    fields.push(("codelength", Value::from(codelength)));
    fields.push(("dl", Value::from(codelength - prev_codelength)));
    fields.push(("seconds", Value::from(seconds)));
    engine.sweep_fields(&mut fields);
    obs.emit("sweep", fields);
}

/// Result of the full schedule.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// Final vertex→module assignment.
    pub partition: Partition,
    /// Final codelength (vertex-level node term).
    pub codelength: f64,
    /// Codelength of the all-singletons starting point.
    pub initial_codelength: f64,
    /// Per-level statistics across all outer iterations (refinement
    /// passes flagged).
    pub levels: Vec<LevelInfo>,
    /// Hierarchy partitions of the final outer iteration.
    pub level_partitions: Vec<Partition>,
    /// Kernel timings accumulated by the schedule (`find_best`,
    /// `convert`, `update`; `pagerank` is filled by the caller).
    pub timings: KernelTimings,
    /// Whether a [`CancelToken`] stopped the run at a sweep boundary
    /// before the schedule converged. The partition is still complete and
    /// `codelength` describes it exactly; it is simply the best answer
    /// found within the allotted budget.
    pub interrupted: bool,
}

/// Runs the multilevel schedule over `flow0` with the given engine.
pub fn optimize_multilevel<E: DecideEngine>(
    flow0: &FlowNetwork,
    cfg: &InfomapConfig,
    engine: &mut E,
) -> MultilevelOutcome {
    optimize_multilevel_cancellable(flow0, cfg, engine, &CancelToken::none())
}

/// [`optimize_multilevel`] with cooperative cancellation: `cancel` is
/// polled once after every completed sweep (level and refinement passes
/// alike). When it trips, the schedule stops at that sweep boundary, folds
/// the current level's partial partition into the composed answer, and
/// returns with [`MultilevelOutcome::interrupted`] set. Until the poll
/// trips, control flow — and therefore the per-sweep convergence record
/// stream — is identical to the uncancelled run.
pub fn optimize_multilevel_cancellable<E: DecideEngine>(
    flow0: &FlowNetwork,
    cfg: &InfomapConfig,
    engine: &mut E,
    cancel: &CancelToken,
) -> MultilevelOutcome {
    let n0 = flow0.num_nodes();
    let obs = engine.obs();
    let node_plogp0: f64 = flow0.node_flows().iter().copied().map(plogp).sum();
    let mode = cfg.teleport_mode();
    let mut timings = KernelTimings::default();
    let mut levels: Vec<LevelInfo> = Vec::new();
    let mut level_partitions: Vec<Partition> = Vec::new();
    let mut composed = Partition::singletons(n0);
    let mut initial_codelength = f64::NAN;
    let mut codelength = f64::NAN;
    // Sweep-loop buffers threaded through every level and outer pass so the
    // per-sweep bookkeeping stops allocating: the next-active bitmap and
    // list, and the frozen label snapshot.
    let mut mark: Vec<bool> = Vec::new();
    let mut next: Vec<NodeId> = Vec::new();
    let mut labels: Vec<u32> = Vec::new();
    let mut interrupted = false;

    let outer_loops = cfg.outer_loops.max(1);
    for outer in 0..outer_loops {
        // --- Multilevel phase, starting from the current composition.
        // Compact in place: refinement may have emptied modules, and the
        // coarse node ids must match `composed`'s labels exactly for the
        // later `project` calls.
        level_partitions.clear();
        composed.compact();
        let mut flow = if composed.num_communities() == n0 {
            flow0.clone()
        } else {
            flow0.coarsen(&composed)
        };

        for level in 0..cfg.max_levels {
            // Covers the whole level — sweeps plus the coarsen/project
            // step — so a flight-recorder track shows one "level" box per
            // hierarchy level with "sweep" boxes nested inside.
            let _level_sp = obs.span("level");
            let mut partition = Partition::singletons(flow.num_nodes());
            let mut state = MapState::with_options(&flow, &partition, node_plogp0, mode);
            let before = state.codelength();
            if initial_codelength.is_nan() {
                initial_codelength = before;
            }
            let mut info = LevelInfo {
                nodes: flow.num_nodes(),
                sweeps: 0,
                moves: 0,
                codelength_before: before,
                codelength_after: before,
                sweep_seconds: Vec::new(),
                sweep_active: Vec::new(),
                refinement: false,
            };

            let mut active: Vec<NodeId> = (0..flow.num_nodes() as u32).collect();
            let mut prev_codelength = before;
            for sweep in 0..cfg.max_sweeps {
                if active.is_empty() {
                    break;
                }
                let _sweep_sp = obs.span("sweep");
                let t = Instant::now();
                labels.clear();
                labels.extend_from_slice(partition.labels());
                let decisions = {
                    let _sp = obs.span("decide");
                    let ctx = SweepCtx {
                        flow: &flow,
                        labels: &labels,
                        state: &state,
                        active: &active,
                        outer,
                        level,
                        sweep,
                    };
                    engine.decide(&ctx)
                };
                let applied = {
                    let _sp = obs.span("apply");
                    apply_decisions(
                        &flow,
                        &mut partition,
                        &mut state,
                        &decisions,
                        cfg.min_improvement,
                    )
                };
                let dt = t.elapsed();
                {
                    let ctx = SweepCtx {
                        flow: &flow,
                        labels: &labels,
                        state: &state,
                        active: &active,
                        outer,
                        level,
                        sweep,
                    };
                    engine.after_sweep(&ctx, &applied, dt);
                }
                timings.find_best += dt;
                // Convergence record outside the timed region: the extra
                // codelength evaluation (O(modules)) is telemetry-only and
                // must not show up in the kernel timings.
                if obs.enabled() {
                    let cl = state.codelength();
                    emit_sweep_record(
                        &obs,
                        engine,
                        outer,
                        Some(level),
                        sweep,
                        active.len(),
                        applied.applied,
                        cl,
                        prev_codelength,
                        dt.as_secs_f64(),
                    );
                    prev_codelength = cl;
                }
                info.sweeps += 1;
                info.moves += applied.applied;
                info.sweep_seconds.push(dt.as_secs_f64());
                info.sweep_active.push(active.len());
                if cancel.poll() {
                    interrupted = true;
                    obs.trace_instant("infomap.cancelled", "infomap");
                    break;
                }
                if applied.applied == 0 {
                    break;
                }
                next_active_into(&flow, &applied.moved, &mut mark, &mut next);
                std::mem::swap(&mut active, &mut next);
            }

            info.codelength_after = state.codelength();
            codelength = info.codelength_after;
            if interrupted {
                levels.push(info);
                // Keep the sweeps already paid for: fold this level's
                // partial partition onto the original vertices. Coarsening
                // preserves module flows, so `codelength` (computed on the
                // coarse state) is exactly the codelength of the folded
                // partition.
                composed = composed.project(&partition);
                break;
            }
            let improved = info.codelength_before - info.codelength_after > cfg.min_improvement;
            let merged = {
                let mut p = partition.clone();
                p.compact() < flow.num_nodes()
            };
            levels.push(info);
            if !improved || !merged {
                break;
            }

            let t = Instant::now();
            let (coarse, compact) = {
                let _sp = obs.span("coarsen");
                convert_to_supernodes(&flow, &partition)
            };
            timings.convert += t.elapsed();

            let t = Instant::now();
            composed = {
                let _sp = obs.span("project");
                composed.project(&compact)
            };
            timings.update += t.elapsed();
            level_partitions.push(composed.clone());

            flow = coarse;
        }

        // --- Refinement (fine-tuning) phase on the original vertices,
        // only when another multilevel pass could consume it.
        if interrupted || outer + 1 >= outer_loops {
            break;
        }
        // Covers the whole fine-tuning pass; its sweeps nest inside.
        let _refine_sp = obs.span("refine");
        composed.compact();
        let mut state = MapState::with_options(flow0, &composed, node_plogp0, mode);
        let before = state.codelength();
        let mut info = LevelInfo {
            nodes: n0,
            sweeps: 0,
            moves: 0,
            codelength_before: before,
            codelength_after: before,
            sweep_seconds: Vec::new(),
            sweep_active: Vec::new(),
            refinement: true,
        };
        let mut active: Vec<NodeId> = (0..n0 as u32).collect();
        let mut total_moves = 0usize;
        let mut prev_codelength = before;
        for sweep in 0..cfg.max_sweeps {
            if active.is_empty() {
                break;
            }
            let _sweep_sp = obs.span("sweep");
            let t = Instant::now();
            labels.clear();
            labels.extend_from_slice(composed.labels());
            let decisions = {
                let _sp = obs.span("decide");
                let ctx = SweepCtx {
                    flow: flow0,
                    labels: &labels,
                    state: &state,
                    active: &active,
                    outer,
                    level: REFINE_LEVEL,
                    sweep,
                };
                engine.decide(&ctx)
            };
            let applied = {
                let _sp = obs.span("apply");
                apply_decisions(
                    flow0,
                    &mut composed,
                    &mut state,
                    &decisions,
                    cfg.min_improvement,
                )
            };
            let dt = t.elapsed();
            {
                let ctx = SweepCtx {
                    flow: flow0,
                    labels: &labels,
                    state: &state,
                    active: &active,
                    outer,
                    level: REFINE_LEVEL,
                    sweep,
                };
                engine.after_sweep(&ctx, &applied, dt);
            }
            timings.find_best += dt;
            if obs.enabled() {
                let cl = state.codelength();
                emit_sweep_record(
                    &obs,
                    engine,
                    outer,
                    None,
                    sweep,
                    active.len(),
                    applied.applied,
                    cl,
                    prev_codelength,
                    dt.as_secs_f64(),
                );
                prev_codelength = cl;
            }
            info.sweeps += 1;
            info.moves += applied.applied;
            info.sweep_seconds.push(dt.as_secs_f64());
            info.sweep_active.push(active.len());
            total_moves += applied.applied;
            if cancel.poll() {
                interrupted = true;
                obs.trace_instant("infomap.cancelled", "infomap");
                break;
            }
            if applied.applied == 0 {
                break;
            }
            next_active_into(flow0, &applied.moved, &mut mark, &mut next);
            std::mem::swap(&mut active, &mut next);
        }
        info.codelength_after = state.codelength();
        codelength = info.codelength_after;
        levels.push(info);
        // Refinement edits `composed` in place, so an interrupt here needs
        // no folding — the partial refinement is already the answer.
        if interrupted || total_moves == 0 {
            break;
        }
    }

    composed.compact();
    if level_partitions.is_empty() {
        level_partitions.push(composed.clone());
    } else {
        // The final refinement may have adjusted individual vertices; keep
        // the hierarchy's coarsest entry in sync with the final answer.
        *level_partitions.last_mut().unwrap() = composed.clone();
    }

    MultilevelOutcome {
        partition: composed,
        codelength,
        initial_codelength,
        levels,
        level_partitions,
        timings,
        interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::HostEngine;
    use asa_graph::generators::{planted_partition, PlantedConfig};
    use asa_graph::GraphBuilder;

    fn planted_flow() -> FlowNetwork {
        let (g, _) = planted_partition(
            &PlantedConfig {
                communities: 5,
                community_size: 40,
                k_in: 10.0,
                k_out: 1.5,
            },
            8,
        );
        FlowNetwork::from_graph(&g, &InfomapConfig::default())
    }

    #[test]
    fn refinement_never_hurts() {
        let flow = planted_flow();
        let one_pass = optimize_multilevel(
            &flow,
            &InfomapConfig {
                outer_loops: 1,
                ..Default::default()
            },
            &mut HostEngine::default(),
        );
        let refined = optimize_multilevel(
            &flow,
            &InfomapConfig {
                outer_loops: 3,
                ..Default::default()
            },
            &mut HostEngine::default(),
        );
        assert!(refined.codelength <= one_pass.codelength + 1e-9);
        assert!(refined.levels.len() >= one_pass.levels.len());
    }

    #[test]
    fn refinement_levels_flagged() {
        let flow = planted_flow();
        let outcome = optimize_multilevel(
            &flow,
            &InfomapConfig {
                outer_loops: 2,
                ..Default::default()
            },
            &mut HostEngine::default(),
        );
        // With 2 outer loops there is exactly one refinement pass recorded
        // (possibly with zero moves).
        assert_eq!(outcome.levels.iter().filter(|l| l.refinement).count(), 1);
    }

    #[test]
    fn refinement_that_empties_modules_survives_reaggregation() {
        // Regression: a refinement move that empties a module used to leave
        // `composed` non-compact, crashing the next outer pass's `project`.
        // LFR graphs at moderate mixing reliably trigger it.
        use asa_graph::generators::{lfr_benchmark, LfrConfig};
        for seed in [44u64, 45, 46] {
            let lfr = lfr_benchmark(
                &LfrConfig {
                    n: 1200,
                    mu: 0.3,
                    ..Default::default()
                },
                seed,
            );
            let flow = FlowNetwork::from_graph(&lfr.graph, &InfomapConfig::default());
            let outcome = optimize_multilevel(
                &flow,
                &InfomapConfig {
                    outer_loops: 3,
                    ..Default::default()
                },
                &mut HostEngine::default(),
            );
            assert!(outcome.codelength.is_finite());
        }
    }

    #[test]
    fn two_triangles_schedule() {
        let mut b = GraphBuilder::undirected(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        let flow = FlowNetwork::from_graph(&b.build(), &InfomapConfig::default());
        let outcome =
            optimize_multilevel(&flow, &InfomapConfig::default(), &mut HostEngine::default());
        assert_eq!(outcome.partition.num_communities(), 2);
        assert!(outcome.codelength < outcome.initial_codelength);
        assert_eq!(
            outcome.level_partitions.last().unwrap().labels(),
            outcome.partition.labels()
        );
    }
}
