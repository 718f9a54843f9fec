//! Streaming-update benchmark: the incremental Infomap path against
//! fresh full runs over a mutating LFR graph.
//!
//! An LFR base graph seeds an [`IncrementalState`] with one full run,
//! then absorbs K delta batches of mixed inserts and deletes. Edits are
//! skewed toward two "hot" communities (where a social graph's churn
//! concentrates), with a tail of random cross-graph edits. After every
//! batch the harness times the incremental re-optimization *and* a fresh
//! full run on the merged graph at the same configuration, reporting
//! per-batch wall times, the codelength drift between the two answers,
//! frontier/ripple telemetry, and the quality guard's fallback rate.
//!
//! Writes `BENCH_stream.json` (override with `ASA_STREAM_OUT`); the
//! committed run gates the subsystem's acceptance criteria via the
//! schema test and `regress`: per-batch incremental updates ≥ 3× faster
//! than fresh runs with codelength drift ≤ 1%. `--smoke` shrinks the
//! graph and batch count for CI. Telemetry flags as in the other
//! benches: `--obs-dir <dir>` (the `infomap.incr.*` gauges land in its
//! `metrics.prom`), `--progress` and `--metrics-addr`.

use std::sync::Arc;
use std::time::Instant;

use asa_bench::{fmt_count, fmt_secs, render_table, run_metadata, scale_div, ObsArgs};
use asa_graph::delta::EdgeDelta;
use asa_graph::generators::{lfr_benchmark, LfrConfig};
use asa_graph::{NodeId, Partition};
use asa_infomap::incremental::{IncrementalConfig, IncrementalState};
use asa_infomap::{detect_communities, CancelToken, InfomapConfig};
use asa_obs::record;

/// Deterministic xorshift64* stream for edit generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

/// The members of the two largest ground-truth communities: the churn
/// hotspot the edit stream skews toward.
fn hot_members(partition: &Partition) -> Vec<NodeId> {
    let mut sizes = vec![0usize; partition.num_communities()];
    for &label in partition.labels() {
        sizes[label as usize] += 1;
    }
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_unstable_by_key(|&c| std::cmp::Reverse(sizes[c]));
    let hot: Vec<u32> = order.into_iter().take(2).map(|c| c as u32).collect();
    partition
        .labels()
        .iter()
        .enumerate()
        .filter(|(_, l)| hot.contains(l))
        .map(|(u, _)| u as NodeId)
        .collect()
}

/// One mixed insert/delete batch: ~3:1 inserts to deletes, 80% of edits
/// confined to the hot communities. Deletes target arcs that exist in
/// the current merged graph, so they actually remove weight.
fn make_batch(rng: &mut Rng, state: &IncrementalState, hot: &[NodeId], edits: usize) -> EdgeDelta {
    let merged = state.merged();
    let n = merged.num_nodes();
    let (offsets, targets, _) = merged.out_csr();
    let mut delta = EdgeDelta::new();
    for _ in 0..edits {
        let in_hot = rng.chance(4, 5);
        let pick = |rng: &mut Rng| -> NodeId {
            if in_hot {
                hot[rng.below(hot.len())]
            } else {
                rng.below(n) as NodeId
            }
        };
        if rng.chance(3, 4) {
            let (u, v) = (pick(rng), pick(rng));
            if u != v {
                delta.insert(u, v, 1.0);
            }
        } else {
            // Delete a live arc of a picked vertex, when it has any.
            let u = pick(rng);
            let (lo, hi) = (
                offsets[u as usize] as usize,
                offsets[u as usize + 1] as usize,
            );
            if lo < hi {
                let v = targets[lo + rng.below(hi - lo)];
                if u != v {
                    delta.delete(u, v);
                }
            }
        }
    }
    delta
}

struct BatchReport {
    batch: usize,
    ops: usize,
    incremental: bool,
    fallback: Option<&'static str>,
    frontier_size: usize,
    ripple_rounds: usize,
    incremental_seconds: f64,
    fresh_seconds: f64,
    incremental_codelength: f64,
    fresh_codelength: f64,
    /// Relative codelength excess of the incremental answer over the
    /// fresh one (0 for fallbacks: those *are* the fresh run).
    drift: f64,
}

impl BatchReport {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "batch": self.batch,
            "ops": self.ops,
            "incremental": self.incremental,
            "fallback": self.fallback,
            "frontier_size": self.frontier_size,
            "ripple_rounds": self.ripple_rounds,
            "incremental_seconds": self.incremental_seconds,
            "fresh_seconds": self.fresh_seconds,
            "incremental_codelength": self.incremental_codelength,
            "fresh_codelength": self.fresh_codelength,
            "drift": self.drift,
        })
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let args = ObsArgs::parse();
    let obs = args.build();
    let _root = obs.span("stream-bench");

    let (n, batches, edits_per_batch) = if smoke { (800, 5, 16) } else { (5_000, 16, 40) };
    let lfr_cfg = LfrConfig {
        n,
        ..LfrConfig::default()
    };
    let lfr = {
        let _sp = obs.span("generate");
        lfr_benchmark(&lfr_cfg, 23)
    };
    let base = Arc::new(lfr.graph);
    let hot = hot_members(&lfr.ground_truth);
    let icfg = InfomapConfig::default();
    let cancel = CancelToken::none();

    let t = Instant::now();
    let (mut state, seed_result) = {
        let _sp = obs.span("seed");
        IncrementalState::new(
            Arc::clone(&base),
            icfg.clone(),
            IncrementalConfig::default(),
            &obs,
            &cancel,
        )
    };
    let seed_seconds = t.elapsed().as_secs_f64();
    println!(
        "base: lfr n={} arcs={} | seeded in {} at codelength {:.4} bits, {} modules",
        base.num_nodes(),
        base.num_arcs(),
        fmt_secs(seed_seconds),
        seed_result.codelength,
        seed_result.num_communities(),
    );

    let mut rng = Rng(0x5eed_5eed_5eed_5eed);
    let mut reports: Vec<BatchReport> = Vec::with_capacity(batches);
    for batch in 0..batches {
        let delta = make_batch(&mut rng, &state, &hot, edits_per_batch);
        let ops = delta.num_ops();
        let _sp = obs.span("batch");
        let t = Instant::now();
        let out = state.apply(&delta, &obs, &cancel);
        let incremental_seconds = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let fresh = {
            let _sp = obs.span("fresh");
            detect_communities(state.merged(), &icfg)
        };
        let fresh_seconds = t.elapsed().as_secs_f64();
        let drift = if out.incremental() {
            (state.codelength() - fresh.codelength) / fresh.codelength
        } else {
            0.0
        };
        record!(obs, "stream.batch", {
            "batch": batch as u64,
            "ops": ops as u64,
            "incremental": out.incremental(),
            "frontier_size": out.frontier_size as u64,
            "ripple_rounds": out.ripple_rounds as u64,
            "incremental_seconds": incremental_seconds,
            "fresh_seconds": fresh_seconds,
            "drift": drift,
        });
        reports.push(BatchReport {
            batch,
            ops,
            incremental: out.incremental(),
            fallback: out.fallback.map(|f| f.name()),
            frontier_size: out.frontier_size,
            ripple_rounds: out.ripple_rounds,
            incremental_seconds,
            fresh_seconds,
            incremental_codelength: out.result.codelength,
            fresh_codelength: fresh.codelength,
            drift,
        });
    }

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.batch),
                fmt_count(r.ops as u64),
                if r.incremental {
                    "incremental".into()
                } else {
                    format!("fallback:{}", r.fallback.unwrap_or("?"))
                },
                fmt_count(r.frontier_size as u64),
                format!("{}", r.ripple_rounds),
                fmt_secs(r.incremental_seconds),
                fmt_secs(r.fresh_seconds),
                format!("{:.2}x", r.fresh_seconds / r.incremental_seconds.max(1e-12)),
                format!("{:+.4}%", r.drift * 100.0),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Streaming updates: incremental vs fresh full runs",
            &["batch", "ops", "path", "frontier", "ripples", "incr", "fresh", "speedup", "drift",],
            &rows,
        )
    );

    let incr: Vec<&BatchReport> = reports.iter().filter(|r| r.incremental).collect();
    let fallbacks = reports.len() - incr.len();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let mean_incremental_seconds = mean(
        &incr
            .iter()
            .map(|r| r.incremental_seconds)
            .collect::<Vec<_>>(),
    );
    let mean_fresh_seconds = mean(&incr.iter().map(|r| r.fresh_seconds).collect::<Vec<_>>());
    let incremental_speedup = mean_fresh_seconds / mean_incremental_seconds.max(1e-12);
    let max_drift = incr.iter().map(|r| r.drift.max(0.0)).fold(0.0, f64::max);
    let mean_drift = mean(&incr.iter().map(|r| r.drift).collect::<Vec<_>>());
    let fallback_rate = fallbacks as f64 / reports.len().max(1) as f64;
    println!(
        "\nsummary: {} incremental / {} fallback batches | speedup {:.2}x | \
         max drift {:+.4}% | fallback rate {:.1}%",
        incr.len(),
        fallbacks,
        incremental_speedup,
        max_drift * 100.0,
        fallback_rate * 100.0,
    );

    let doc = serde_json::json!({
        "bench": "stream",
        "scale_div": scale_div(),
        "smoke": smoke,
        "meta": asa_bench::with_profile_summary(run_metadata("lfr-stream", &icfg), &obs),
        "nodes": base.num_nodes(),
        "arcs": base.num_arcs(),
        "batches": batches,
        "edits_per_batch": edits_per_batch,
        "hot_vertices": hot.len(),
        "seed_seconds": seed_seconds,
        "seed_codelength": seed_result.codelength,
        "drift_budget": IncrementalConfig::default().drift_budget,
        "batch_reports": reports.iter().map(BatchReport::to_json).collect::<Vec<_>>(),
        "summary": serde_json::json!({
            "incremental_batches": incr.len(),
            "fallbacks": fallbacks,
            "mean_incremental_seconds": mean_incremental_seconds,
            "mean_fresh_seconds": mean_fresh_seconds,
            "incremental_speedup": incremental_speedup,
            "max_drift": max_drift,
            "mean_drift": mean_drift,
            "fallback_rate": fallback_rate,
        }),
    });
    let out = std::env::var("ASA_STREAM_OUT").unwrap_or_else(|_| "BENCH_stream.json".into());
    std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap()).expect("write bench json");
    println!("wrote {out}");
    drop(_root);
    args.finish(&obs);
}
