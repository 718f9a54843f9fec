//! The multilevel optimization schedule, shared by every driver.
//!
//! Every execution mode runs the exact same control flow — the host
//! (rayon) driver, the distributed ranks, the wall-clock "native" and
//! trace-capture drivers, and the simulated (per-core device) driver —
//! differing only in *how* a sweep's decisions are computed. This module
//! owns the control flow; drivers plug in a [`DecideEngine`]. Because the
//! schedule is shared, every mode produces the identical partition for
//! identical inputs, which the test suite asserts (the accelerator must
//! change cost, never semantics).
//!
//! The schedule implements Rosvall-style multilevel optimization with
//! fine-tuning: repeat { local-move sweeps, coarsen, ... } until no level
//! merges, then a *refinement* pass re-sweeps the original vertices
//! within the coarse solution and, if it moved anything, the multilevel
//! loop restarts from the refined partition
//! (`InfomapConfig::outer_loops` bounds the alternation).
//!
//! One sweep body, `sweep_pass`, has three callers: each multilevel
//! level, each refinement pass, and the frontier pass of
//! [`crate::incremental::IncrementalState::apply`]. They differ only in
//! the flow network, the starting partition and the initial active set.

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
use crate::result::{InfomapResult, KernelTimings, LevelInfo};

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
    /// Hierarchy level within this outer iteration; refinement and
    /// incremental frontier passes use [`REFINE_LEVEL`].
    pub level: usize,
    /// Sweep index within the level.
    pub sweep: usize,
}

/// Level marker for refinement (and incremental frontier) passes in
/// [`SweepCtx::level`].
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

/// Runs sweeps over `active` until one applies no move, the sweep budget
/// (`cfg.max_sweeps`) runs out, or `cancel` trips — the one sweep body
/// every pass shares: multilevel levels, refinement, and the incremental
/// frontier pass. Each sweep snapshots the labels, lets `engine` decide,
/// applies the decisions to `partition`/`state`, notifies
/// [`DecideEngine::after_sweep`], emits a `sweep` convergence record
/// (flagged `refine` when `level` is [`REFINE_LEVEL`]), polls `cancel`,
/// and ripples the active set to the neighbors of whatever moved.
/// `on_sweep` sees each sweep's active set before it runs. Returns the
/// pass's statistics and whether `cancel` stopped it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_pass<E: DecideEngine>(
    engine: &mut E,
    flow: &FlowNetwork,
    partition: &mut Partition,
    state: &mut MapState,
    mut active: Vec<NodeId>,
    (outer, level): (usize, usize),
    cfg: &InfomapConfig,
    cancel: &CancelToken,
    timings: &mut KernelTimings,
    mut on_sweep: impl FnMut(&[NodeId]),
) -> (LevelInfo, bool) {
    let obs = engine.obs();
    let before = state.codelength();
    let mut info = LevelInfo {
        nodes: flow.num_nodes(),
        sweeps: 0,
        moves: 0,
        codelength_before: before,
        codelength_after: before,
        sweep_seconds: Vec::new(),
        sweep_active: Vec::new(),
        refinement: level == REFINE_LEVEL,
    };
    // The frozen label snapshot and the next-active bitmap and list,
    // reused across sweeps.
    let mut labels: Vec<u32> = Vec::new();
    let mut mark: Vec<bool> = Vec::new();
    let mut next: Vec<NodeId> = Vec::new();
    let mut interrupted = false;
    let mut prev_codelength = before;
    for sweep in 0..cfg.max_sweeps {
        if active.is_empty() {
            break;
        }
        on_sweep(&active);
        let _sweep_sp = obs.span("sweep");
        let t = Instant::now();
        labels.clear();
        labels.extend_from_slice(partition.labels());
        let decisions = {
            let _sp = obs.span("decide");
            engine.decide(&SweepCtx {
                flow,
                labels: &labels,
                state,
                active: &active,
                outer,
                level,
                sweep,
            })
        };
        let applied = {
            let _sp = obs.span("apply");
            apply_decisions(flow, partition, state, &decisions, cfg.min_improvement)
        };
        let dt = t.elapsed();
        #[cfg(debug_assertions)]
        audit_sweep(flow, partition, state, before, cfg.min_improvement);
        let ctx = SweepCtx {
            flow,
            labels: &labels,
            state,
            active: &active,
            outer,
            level,
            sweep,
        };
        engine.after_sweep(&ctx, &applied, dt);
        timings.find_best += dt;
        // Convergence record outside the timed region: the extra
        // codelength evaluation (O(modules)) is telemetry-only and must
        // not show up in the kernel timings.
        if obs.enabled() {
            let cl = state.codelength();
            let mut fields: Vec<(&'static str, Value)> = Vec::with_capacity(12);
            fields.push(("outer", Value::from(outer)));
            if !info.refinement {
                fields.push(("level", Value::from(level)));
            }
            fields.push(("refine", Value::from(info.refinement)));
            fields.push(("sweep", Value::from(sweep)));
            fields.push(("active", Value::from(active.len())));
            fields.push(("moves", Value::from(applied.applied)));
            fields.push(("codelength", Value::from(cl)));
            fields.push(("dl", Value::from(cl - prev_codelength)));
            fields.push(("seconds", Value::from(dt.as_secs_f64())));
            engine.sweep_fields(&mut fields);
            obs.emit("sweep", fields);
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
        next_active_into(flow, &applied.moved, &mut mark, &mut next);
        std::mem::swap(&mut active, &mut next);
    }
    info.codelength_after = state.codelength();
    (info, interrupted)
}

/// Relative tolerance of [`audit_sweep`]: a kept codelength may differ
/// from a fresh evaluation by rounding only, including the rounding a
/// stream's patched link exits carry.
#[cfg(debug_assertions)]
const AUDIT_EPS: f64 = 1e-9;

/// The per-sweep audit of debug builds, run after each sweep's apply:
/// every stored scan term is a fresh evaluation of its module's
/// statistics, the kept codelength agrees with a fresh [`MapState`] on
/// the same flow and partition, and (unless `min_improvement` lets moves
/// cost bits) it is not above the pass's starting codelength `start`.
/// Both comparisons allow [`AUDIT_EPS`] relative to the codelength.
#[cfg(debug_assertions)]
fn audit_sweep(
    flow: &FlowNetwork,
    partition: &Partition,
    state: &MapState,
    start: f64,
    min_improvement: f64,
) {
    state.assert_terms_fresh();
    let kept = state.codelength();
    let fresh =
        MapState::with_options(flow, partition, state.node_plogp(), state.mode()).codelength();
    let tol = AUDIT_EPS * fresh.abs().max(1.0);
    assert!(
        (kept - fresh).abs() <= tol,
        "sweep audit: kept codelength {kept} vs fresh {fresh}"
    );
    assert!(
        min_improvement < 0.0 || kept <= start + tol,
        "sweep audit: codelength rose from {start} to {kept}"
    );
}

/// Runs the multilevel schedule over `flow0` with the given engine.
/// `cancel` is polled once after every completed sweep (level and
/// refinement passes alike). When it trips, the schedule stops at that
/// sweep boundary, folds the current level's partial partition into the
/// composed answer, and returns with [`InfomapResult::interrupted`] set.
/// Until the poll trips, control flow — and therefore the per-sweep
/// convergence record stream — is identical to the uncancelled run.
/// `timings.pagerank` is zero: the caller built `flow0`.
pub fn optimize_multilevel_cancellable<E: DecideEngine>(
    flow0: &FlowNetwork,
    cfg: &InfomapConfig,
    engine: &mut E,
    cancel: &CancelToken,
) -> InfomapResult {
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
            let (info, stopped) = sweep_pass(
                engine,
                &flow,
                &mut partition,
                &mut state,
                (0..flow.num_nodes() as u32).collect(),
                (outer, level),
                cfg,
                cancel,
                &mut timings,
                |_| {},
            );
            if initial_codelength.is_nan() {
                initial_codelength = info.codelength_before;
            }
            codelength = info.codelength_after;
            interrupted = stopped;
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
        let (info, stopped) = sweep_pass(
            engine,
            flow0,
            &mut composed,
            &mut state,
            (0..n0 as u32).collect(),
            (outer, REFINE_LEVEL),
            cfg,
            cancel,
            &mut timings,
            |_| {},
        );
        codelength = info.codelength_after;
        interrupted = stopped;
        let moves = info.moves;
        levels.push(info);
        // Refinement edits `composed` in place, so an interrupt here needs
        // no folding — the partial refinement is already the answer.
        if interrupted || moves == 0 {
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

    InfomapResult {
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

    fn run(flow: &FlowNetwork, cfg: &InfomapConfig) -> InfomapResult {
        optimize_multilevel_cancellable(flow, cfg, &mut HostEngine::default(), &CancelToken::none())
    }

    #[test]
    fn refinement_never_hurts() {
        let flow = planted_flow();
        let one_pass = run(
            &flow,
            &InfomapConfig {
                outer_loops: 1,
                ..Default::default()
            },
        );
        let refined = run(
            &flow,
            &InfomapConfig {
                outer_loops: 3,
                ..Default::default()
            },
        );
        assert!(refined.codelength <= one_pass.codelength + 1e-9);
        assert!(refined.levels.len() >= one_pass.levels.len());
    }

    #[test]
    fn refinement_levels_flagged() {
        let flow = planted_flow();
        let outcome = run(
            &flow,
            &InfomapConfig {
                outer_loops: 2,
                ..Default::default()
            },
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
            let outcome = run(
                &flow,
                &InfomapConfig {
                    outer_loops: 3,
                    ..Default::default()
                },
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
        let outcome = run(&flow, &InfomapConfig::default());
        assert_eq!(outcome.partition.num_communities(), 2);
        assert!(outcome.codelength < outcome.initial_codelength);
        assert_eq!(
            outcome.level_partitions.last().unwrap().labels(),
            outcome.partition.labels()
        );
    }
}
