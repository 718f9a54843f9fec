//! Perf-regression sentinel over the committed `BENCH_*.json` files.
//!
//! Each benchmark binary (`hostperf`, `simthroughput`, `serve`, `stream`)
//! writes a JSON document whose committed copy at the repository root is
//! the performance baseline. This module extracts the *key* metrics from
//! those documents — SPA sweep time and speedup, the simulator's host
//! nanoseconds per simulated instruction, serving p50/p95 latency, cache
//! hit rate, shed rate, and the streaming-update speedup/drift/fallback
//! triple — and compares a fresh run against the baseline under
//! per-metric noise tolerances.
//!
//! Tolerances come in two flavors: **relative** for time-like metrics
//! (machine-to-machine and run-to-run wall-clock noise scales with the
//! value) and **absolute** for rates (a shed rate of exactly `0.0` in the
//! baseline would make any relative bound vacuous or infinitely strict).
//! The `tol_scale` knob (CLI `--tol-scale`, env `ASA_REGRESS_TOL_SCALE`)
//! multiplies every tolerance, so CI can loosen the gate on noisy shared
//! runners without touching the per-metric defaults.
//!
//! The `regress` binary drives this: `regress --smoke` gates the committed
//! files themselves (parse + sanity + self-compare — it proves the sentinel
//! wiring without paying for a bench run), and `regress --fresh-dir <dir>`
//! compares freshly produced documents against the baseline, exiting
//! non-zero with a readable delta table on any regression.

use serde_json::Value;

/// Whether a tolerance bounds the ratio or the difference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Allowed fractional change: `0.5` lets the metric move 50% in the
    /// regressing direction before tripping. For time-like metrics.
    Relative(f64),
    /// Allowed additive change in the metric's own units. For rates in
    /// `[0, 1]`, where a zero baseline makes relative bounds meaningless.
    Absolute(f64),
}

/// Which direction of movement is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Times: a regression is the fresh value rising above baseline.
    LowerIsBetter,
    /// Speedups and hit rates: a regression is the fresh value falling.
    HigherIsBetter,
}

/// One extracted metric: a named scalar plus its comparison policy.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Stable dotted name, e.g. `hostperf.dblp-like.sweep_spa_seconds`.
    pub name: String,
    /// The extracted value.
    pub value: f64,
    /// Noise bound for the comparison.
    pub tolerance: Tolerance,
    /// Regressing direction.
    pub direction: Direction,
}

impl MetricSpec {
    fn time(name: String, value: f64) -> Self {
        MetricSpec {
            name,
            value,
            tolerance: Tolerance::Relative(0.5),
            direction: Direction::LowerIsBetter,
        }
    }

    fn speedup(name: String, value: f64) -> Self {
        MetricSpec {
            name,
            value,
            tolerance: Tolerance::Relative(0.3),
            direction: Direction::HigherIsBetter,
        }
    }

    fn rate(name: String, value: f64, direction: Direction) -> Self {
        MetricSpec {
            name,
            value,
            tolerance: Tolerance::Absolute(0.15),
            direction,
        }
    }

    /// A cross-run ratio (e.g. shard-scaling throughput): noisier than a
    /// single measurement, so it gets the loose relative bound.
    fn ratio(name: String, value: f64) -> Self {
        MetricSpec {
            name,
            value,
            tolerance: Tolerance::Relative(0.5),
            direction: Direction::HigherIsBetter,
        }
    }

    /// A memory footprint (peak RSS): lower is better, but allocator and
    /// machine variance dwarf wall-clock noise, so the bound only trips on
    /// a footprint that more than doubles. Shrinking never regresses.
    fn memory(name: String, value: f64) -> Self {
        MetricSpec {
            name,
            value,
            tolerance: Tolerance::Relative(1.0),
            direction: Direction::LowerIsBetter,
        }
    }
}

fn get_f64(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

/// Extracts the gated metrics from a `BENCH_hostperf.json` document: per
/// network, the SPA sweep seconds, the SPA-over-hash sweep speedup (the
/// paper's headline host-side numbers), and — when the document carries a
/// `--kernel-breakdown` section — the `spa-scalar` kernel speedup.
pub fn extract_hostperf(doc: &Value) -> Vec<MetricSpec> {
    let mut out = Vec::new();
    let Some(networks) = doc.get("networks").and_then(Value::as_array) else {
        return out;
    };
    for nw in networks {
        let Some(name) = nw.get("network").and_then(Value::as_str) else {
            continue;
        };
        if let Some(v) = get_f64(nw, &["sweep_seconds", "spa"]) {
            out.push(MetricSpec::time(
                format!("hostperf.{name}.sweep_spa_seconds"),
                v,
            ));
        }
        if let Some(v) = get_f64(nw, &["sweep_speedup_spa_over_hash"]) {
            out.push(MetricSpec::speedup(
                format!("hostperf.{name}.sweep_speedup_spa_over_hash"),
                v,
            ));
        }
        if let Some(v) = get_f64(nw, &["sweep_speedup_spa_scalar_over_hash"]) {
            out.push(MetricSpec::speedup(
                format!("hostperf.{name}.sweep_speedup_spa_scalar_over_hash"),
                v,
            ));
        }
    }
    out
}

/// Extracts the gated metric from a `BENCH_simthroughput.json` document:
/// the inline simulator's host cost per simulated instruction.
pub fn extract_simthroughput(doc: &Value) -> Vec<MetricSpec> {
    get_f64(doc, &["ns_per_instruction"])
        .map(|v| MetricSpec::time("simthroughput.ns_per_instruction".to_string(), v))
        .into_iter()
        .collect()
}

/// Extracts the gated metrics from a `BENCH_serve.json` document: per
/// offered-load level, p50/p95 latency and the caller's p95 `submit` cost
/// (relative), cache hit rate and shed rate (absolute — the rates sit in
/// `[0, 1]` and are often exactly 0).
pub fn extract_serve(doc: &Value) -> Vec<MetricSpec> {
    let mut out = Vec::new();
    let Some(levels) = doc.get("levels").and_then(Value::as_array) else {
        return out;
    };
    for (i, level) in levels.iter().enumerate() {
        if let Some(v) = get_f64(level, &["latency_us", "p50"]) {
            out.push(MetricSpec::time(format!("serve.level{i}.p50_us"), v));
        }
        if let Some(v) = get_f64(level, &["latency_us", "p95"]) {
            out.push(MetricSpec::time(format!("serve.level{i}.p95_us"), v));
        }
        if let Some(v) = get_f64(level, &["submit_us", "p95"]) {
            out.push(MetricSpec::time(format!("serve.level{i}.submit_p95_us"), v));
        }
        if let Some(v) = get_f64(level, &["cache_hit_rate"]) {
            out.push(MetricSpec::rate(
                format!("serve.level{i}.cache_hit_rate"),
                v,
                Direction::HigherIsBetter,
            ));
        }
        if let Some(v) = get_f64(level, &["shed_rate"]) {
            out.push(MetricSpec::rate(
                format!("serve.level{i}.shed_rate"),
                v,
                Direction::LowerIsBetter,
            ));
        }
    }
    // Shard-scaling curve: per shard count, the top (most overloaded)
    // level's latency, hit rate, and shed rate — direction-aware like the
    // level metrics above — plus the top-level throughput ratio of the
    // largest shard count over shards=1.
    if let Some(sweep) = doc.get("shard_sweep").and_then(Value::as_array) {
        let top =
            |entry: &Value| -> Option<Value> { entry.get("levels")?.as_array()?.last().cloned() };
        for entry in sweep {
            let Some(s) = entry.get("shards").and_then(Value::as_u64) else {
                continue;
            };
            let Some(level) = top(entry) else { continue };
            if let Some(v) = get_f64(&level, &["latency_us", "p50"]) {
                out.push(MetricSpec::time(format!("serve.shards{s}.top.p50_us"), v));
            }
            if let Some(v) = get_f64(&level, &["cache_hit_rate"]) {
                out.push(MetricSpec::rate(
                    format!("serve.shards{s}.top.cache_hit_rate"),
                    v,
                    Direction::HigherIsBetter,
                ));
            }
            if let Some(v) = get_f64(&level, &["shed_rate"]) {
                out.push(MetricSpec::rate(
                    format!("serve.shards{s}.top.shed_rate"),
                    v,
                    Direction::LowerIsBetter,
                ));
            }
        }
        let throughput_at = |want: u64| -> Option<f64> {
            sweep
                .iter()
                .find(|e| e.get("shards").and_then(Value::as_u64) == Some(want))
                .and_then(|e| get_f64(&top(e)?, &["throughput_rps"]))
        };
        let max_shards = sweep
            .iter()
            .filter_map(|e| e.get("shards").and_then(Value::as_u64))
            .max();
        if let Some(max) = max_shards.filter(|&m| m > 1) {
            if let (Some(one), Some(many)) = (throughput_at(1), throughput_at(max)) {
                if one > 0.0 {
                    out.push(MetricSpec::ratio(
                        format!("serve.scaling.shards{max}_over_1.top_throughput_ratio"),
                        many / one,
                    ));
                }
            }
        }
    }
    out
}

/// Extracts the gated metrics from a `BENCH_stream.json` document: the
/// dynamic-graph headline numbers. Speedup and fallback rate use the
/// standard speedup/rate policies; codelength drift gets a *tight*
/// absolute bound — the incremental path promises drift within the 1%
/// budget, so the gate must trip well before the generic 0.15 rate
/// tolerance would.
pub fn extract_stream(doc: &Value) -> Vec<MetricSpec> {
    let mut out = Vec::new();
    if let Some(v) = get_f64(doc, &["summary", "incremental_speedup"]) {
        out.push(MetricSpec::speedup("stream.incremental_speedup".into(), v));
    }
    if let Some(v) = get_f64(doc, &["summary", "max_drift"]) {
        out.push(MetricSpec {
            name: "stream.max_drift".into(),
            value: v,
            tolerance: Tolerance::Absolute(0.005),
            direction: Direction::LowerIsBetter,
        });
    }
    if let Some(v) = get_f64(doc, &["summary", "fallback_rate"]) {
        out.push(MetricSpec::rate(
            "stream.fallback_rate".into(),
            v,
            Direction::LowerIsBetter,
        ));
    }
    for key in ["mean_incremental_seconds", "mean_fresh_seconds"] {
        if let Some(v) = get_f64(doc, &["summary", key]) {
            out.push(MetricSpec::time(format!("stream.{key}"), v));
        }
    }
    if let Some(v) = get_f64(doc, &["seed_seconds"]) {
        out.push(MetricSpec::time("stream.seed_seconds".into(), v));
    }
    out
}

/// Dispatches on the document's `bench` field, then appends the run-wide
/// resource metric every bench shares: the process peak RSS from the
/// run-metadata block, gated with the loose memory bound (it only exists
/// in documents produced since resource accounting landed, and only on
/// hosts where procfs reports it — absent or zero means ungated).
pub fn extract_metrics(doc: &Value) -> Vec<MetricSpec> {
    let bench = doc.get("bench").and_then(Value::as_str);
    let mut out = match bench {
        Some("hostperf") => extract_hostperf(doc),
        Some("simthroughput") => extract_simthroughput(doc),
        Some("serve") => extract_serve(doc),
        Some("stream") => extract_stream(doc),
        _ => Vec::new(),
    };
    if let (Some(bench), Some(v)) = (bench, get_f64(doc, &["meta", "peak_rss_bytes"])) {
        if v > 0.0 {
            out.push(MetricSpec::memory(format!("{bench}.peak_rss_bytes"), v));
        }
    }
    out
}

/// Structural sanity of a baseline document's metrics: every gated metric
/// is present, finite, and in range (times and speedups strictly positive,
/// rates inside `[0, 1]`). This is what `--smoke` enforces on the
/// committed files.
pub fn sanity_errors(metrics: &[MetricSpec]) -> Vec<String> {
    let mut errors = Vec::new();
    if metrics.is_empty() {
        errors.push("no gated metrics extracted (wrong or empty document?)".to_string());
    }
    for m in metrics {
        if !m.value.is_finite() {
            errors.push(format!("{}: non-finite value {}", m.name, m.value));
            continue;
        }
        match m.tolerance {
            Tolerance::Relative(_) => {
                if m.value <= 0.0 {
                    errors.push(format!("{}: expected > 0, got {}", m.name, m.value));
                }
            }
            Tolerance::Absolute(_) => {
                if !(0.0..=1.0).contains(&m.value) {
                    errors.push(format!("{}: rate outside [0, 1]: {}", m.name, m.value));
                }
            }
        }
    }
    errors
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric name (shared between baseline and fresh).
    pub name: String,
    /// Baseline value, `None` when the metric only appeared fresh.
    pub baseline: Option<f64>,
    /// Fresh value, `None` when the fresh document lost the metric.
    pub fresh: Option<f64>,
    /// Signed fractional change `(fresh - baseline) / baseline` when both
    /// sides are present and the baseline is nonzero.
    pub change: Option<f64>,
    /// Whether this metric trips the gate.
    pub regressed: bool,
    /// Human-readable bound that was applied.
    pub bound: String,
}

fn exceeded(baseline: f64, fresh: f64, tol: Tolerance, dir: Direction, scale: f64) -> bool {
    match (tol, dir) {
        (Tolerance::Relative(t), Direction::LowerIsBetter) => fresh > baseline * (1.0 + t * scale),
        (Tolerance::Relative(t), Direction::HigherIsBetter) => {
            fresh < baseline * (1.0 - (t * scale).min(1.0))
        }
        (Tolerance::Absolute(t), Direction::LowerIsBetter) => fresh > baseline + t * scale,
        (Tolerance::Absolute(t), Direction::HigherIsBetter) => fresh < baseline - t * scale,
    }
}

fn bound_repr(tol: Tolerance, dir: Direction, scale: f64) -> String {
    let arrow = match dir {
        Direction::LowerIsBetter => "+",
        Direction::HigherIsBetter => "-",
    };
    match tol {
        Tolerance::Relative(t) => format!("{arrow}{:.0}%", t * scale * 100.0),
        Tolerance::Absolute(t) => format!("{arrow}{:.2} abs", t * scale),
    }
}

/// Compares fresh metrics against the baseline, metric by metric.
/// `tol_scale` multiplies every tolerance (1.0 = the defaults). A metric
/// present in the baseline but missing fresh counts as a regression — a
/// gate that silently loses its metrics is not a gate.
pub fn compare(baseline: &[MetricSpec], fresh: &[MetricSpec], tol_scale: f64) -> Vec<Delta> {
    let fresh_by_name: std::collections::HashMap<&str, &MetricSpec> =
        fresh.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut deltas = Vec::with_capacity(baseline.len());
    for base in baseline {
        match fresh_by_name.get(base.name.as_str()) {
            Some(f) => {
                let regressed = exceeded(
                    base.value,
                    f.value,
                    base.tolerance,
                    base.direction,
                    tol_scale,
                );
                let change = (base.value != 0.0).then(|| (f.value - base.value) / base.value);
                deltas.push(Delta {
                    name: base.name.clone(),
                    baseline: Some(base.value),
                    fresh: Some(f.value),
                    change,
                    regressed,
                    bound: bound_repr(base.tolerance, base.direction, tol_scale),
                });
            }
            None => deltas.push(Delta {
                name: base.name.clone(),
                baseline: Some(base.value),
                fresh: None,
                change: None,
                regressed: true,
                bound: "present".to_string(),
            }),
        }
    }
    deltas
}

/// Renders the comparison as an aligned delta table; regressed rows are
/// marked `REGRESSED`, clean ones `ok`.
pub fn render_deltas(title: &str, deltas: &[Delta]) -> String {
    let fmt = |v: Option<f64>| v.map_or_else(|| "missing".to_string(), |v| format!("{v:.4}"));
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                fmt(d.baseline),
                fmt(d.fresh),
                d.change
                    .map_or_else(|| "-".to_string(), |c| format!("{:+.1}%", c * 100.0)),
                d.bound.clone(),
                if d.regressed { "REGRESSED" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    crate::render_table(
        title,
        &[
            "metric", "baseline", "fresh", "change", "allowed", "verdict",
        ],
        &rows,
    )
}

/// The hottest profiled stack recorded in a bench document's
/// `meta.profile.top[0].stack`, when the run carried a profile.
fn top_profiled_stack(doc: &Value) -> Option<&str> {
    doc.get("meta")?
        .get("profile")?
        .get("top")?
        .as_array()?
        .first()?
        .get("stack")?
        .as_str()
}

/// Reports — never gates — a shift in the hottest profiled stack between
/// two bench documents. Profiles ride along in `meta.profile` only when a
/// run had telemetry on (`--obs-dir`, `--progress` or a live metrics
/// endpoint), so committed baselines usually carry none; the note fires
/// when both sides have a profile and disagree on the top frame, or when
/// a fresh profile appears against an unprofiled baseline. The return
/// value is deliberately prose and not a [`MetricSpec`]: hot-stack
/// identity is far too noisy to gate on, but a changed hottest frame is
/// exactly the hint an operator wants printed next to a tripped time
/// gate.
pub fn profile_shift_note(baseline: &Value, fresh: &Value) -> Option<String> {
    match (top_profiled_stack(baseline), top_profiled_stack(fresh)) {
        (Some(b), Some(f)) if b != f => Some(format!(
            "hottest profiled stack shifted (informational, not gated)\n  \
             baseline: {b}\n  fresh:    {f}"
        )),
        (None, Some(f)) => Some(format!(
            "fresh run carries a profile (hottest stack: {f}); baseline has none"
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fixtures go through the parser (the vendored `json!` macro does not
    // nest objects inside arrays), which also exercises the exact path the
    // `regress` binary takes on real files.
    fn hostperf_doc(spa_seconds: f64, speedup: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "bench": "hostperf",
                "networks": [{{
                    "network": "dblp-like",
                    "sweep_seconds": {{"hash": 0.035, "spa": {spa_seconds}}},
                    "sweep_speedup_spa_over_hash": {speedup},
                    "sweep_speedup_spa_scalar_over_hash": {speedup}
                }}]
            }}"#
        ))
        .expect("fixture parses")
    }

    fn serve_doc(p95: f64, hit_rate: f64, shed_rate: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "bench": "serve",
                "levels": [{{
                    "latency_us": {{"p50": 10000.0, "p95": {p95}}},
                    "submit_us": {{"p50": 3.0, "p95": 40.0, "p99": 900.0}},
                    "cache_hit_rate": {hit_rate},
                    "shed_rate": {shed_rate}
                }}]
            }}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn extraction_names_and_counts() {
        let host = extract_metrics(&hostperf_doc(0.023, 1.5));
        assert_eq!(host.len(), 3);
        assert_eq!(host[0].name, "hostperf.dblp-like.sweep_spa_seconds");
        assert_eq!(host[1].direction, Direction::HigherIsBetter);
        assert_eq!(
            host[2].name,
            "hostperf.dblp-like.sweep_speedup_spa_scalar_over_hash"
        );
        assert_eq!(host[2].direction, Direction::HigherIsBetter);

        let serve = extract_metrics(&serve_doc(56_000.0, 0.4, 0.0));
        let names: Vec<&str> = serve.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "serve.level0.p50_us",
                "serve.level0.p95_us",
                "serve.level0.submit_p95_us",
                "serve.level0.cache_hit_rate",
                "serve.level0.shed_rate",
            ]
        );

        let sim = extract_metrics(
            &serde_json::from_str(
                r#"{
                    "bench": "simthroughput",
                    "ns_per_instruction": 11.7
                }"#,
            )
            .expect("fixture parses"),
        );
        let names: Vec<&str> = sim.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["simthroughput.ns_per_instruction"]);
    }

    fn sharded_serve_doc(hit4: f64, shed4: f64, tput4: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "bench": "serve",
                "levels": [{{
                    "latency_us": {{"p50": 10000.0, "p95": 56000.0}},
                    "cache_hit_rate": 0.43,
                    "shed_rate": 0.32
                }}],
                "shard_sweep": [
                    {{"shards": 1, "levels": [{{
                        "latency_us": {{"p50": 10000.0, "p95": 56000.0}},
                        "cache_hit_rate": 0.43, "shed_rate": 0.32,
                        "throughput_rps": 20.0
                    }}]}},
                    {{"shards": 4, "levels": [{{
                        "latency_us": {{"p50": 8000.0, "p95": 40000.0}},
                        "cache_hit_rate": {hit4}, "shed_rate": {shed4},
                        "throughput_rps": {tput4}
                    }}]}}
                ]
            }}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn shard_sweep_extraction_is_direction_aware() {
        let base = extract_metrics(&sharded_serve_doc(0.55, 0.05, 40.0));
        let names: Vec<&str> = base.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"serve.shards1.top.shed_rate"));
        assert!(names.contains(&"serve.shards4.top.cache_hit_rate"));
        assert!(names.contains(&"serve.scaling.shards4_over_1.top_throughput_ratio"));
        assert!(sanity_errors(&base).is_empty());

        // Hit-rate collapse on the sharded top level regresses...
        let collapse = extract_metrics(&sharded_serve_doc(0.2, 0.05, 40.0));
        let deltas = compare(&base, &collapse, 1.0);
        assert!(
            deltas
                .iter()
                .find(|d| d.name == "serve.shards4.top.cache_hit_rate")
                .unwrap()
                .regressed
        );
        // ...a shed-rate explosion regresses (LowerIsBetter)...
        let sheds = extract_metrics(&sharded_serve_doc(0.55, 0.4, 40.0));
        assert!(
            compare(&base, &sheds, 1.0)
                .iter()
                .find(|d| d.name == "serve.shards4.top.shed_rate")
                .unwrap()
                .regressed
        );
        // ...and losing the scaling (ratio 2.0 -> 0.75) trips the gate,
        // while mild noise (2.0 -> 1.5) stays inside the loose bound.
        let flat = extract_metrics(&sharded_serve_doc(0.55, 0.05, 15.0));
        assert!(
            compare(&base, &flat, 1.0)
                .iter()
                .find(|d| d.name.starts_with("serve.scaling."))
                .unwrap()
                .regressed
        );
        let noisy = extract_metrics(&sharded_serve_doc(0.55, 0.05, 30.0));
        assert!(compare(&base, &noisy, 1.0).iter().all(|d| !d.regressed));
    }

    fn stream_doc(speedup: f64, max_drift: f64, fallback_rate: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "bench": "stream",
                "seed_seconds": 2.5,
                "summary": {{
                    "incremental_speedup": {speedup},
                    "max_drift": {max_drift},
                    "fallback_rate": {fallback_rate},
                    "mean_incremental_seconds": 0.02,
                    "mean_fresh_seconds": 0.18
                }}
            }}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn stream_extraction_is_direction_aware() {
        let base = extract_metrics(&stream_doc(8.0, 0.002, 0.0));
        let names: Vec<&str> = base.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "stream.incremental_speedup",
                "stream.max_drift",
                "stream.fallback_rate",
                "stream.mean_incremental_seconds",
                "stream.mean_fresh_seconds",
                "stream.seed_seconds",
            ]
        );
        assert!(sanity_errors(&base).is_empty());

        // A speedup collapse regresses (HigherIsBetter)...
        let slow = extract_metrics(&stream_doc(4.0, 0.002, 0.0));
        assert!(
            compare(&base, &slow, 1.0)
                .iter()
                .find(|d| d.name == "stream.incremental_speedup")
                .unwrap()
                .regressed
        );
        // ...drift escaping the budget trips the tight absolute bound,
        // while sub-budget noise does not...
        let drifted = extract_metrics(&stream_doc(8.0, 0.012, 0.0));
        assert!(
            compare(&base, &drifted, 1.0)
                .iter()
                .find(|d| d.name == "stream.max_drift")
                .unwrap()
                .regressed
        );
        let noisy = extract_metrics(&stream_doc(7.0, 0.005, 0.1));
        assert!(compare(&base, &noisy, 1.0).iter().all(|d| !d.regressed));
        // ...and a quality guard firing on most batches regresses the
        // fallback rate (LowerIsBetter, absolute: baseline is exactly 0).
        let falling = extract_metrics(&stream_doc(8.0, 0.002, 0.5));
        assert!(
            compare(&base, &falling, 1.0)
                .iter()
                .find(|d| d.name == "stream.fallback_rate")
                .unwrap()
                .regressed
        );
    }

    #[test]
    fn identical_runs_are_clean() {
        let m = extract_metrics(&hostperf_doc(0.023, 1.5));
        let deltas = compare(&m, &m, 1.0);
        assert!(deltas.iter().all(|d| !d.regressed), "{deltas:?}");
    }

    #[test]
    fn perturbed_time_metric_regresses() {
        // SPA sweep 2x slower: beyond the 50% relative tolerance.
        let base = extract_metrics(&hostperf_doc(0.023, 1.5));
        let fresh = extract_metrics(&hostperf_doc(0.046, 1.5));
        let deltas = compare(&base, &fresh, 1.0);
        let sweep = deltas
            .iter()
            .find(|d| d.name.ends_with("sweep_spa_seconds"))
            .unwrap();
        assert!(sweep.regressed, "{deltas:?}");
        // ... while the untouched speedup stays clean.
        assert!(
            !deltas
                .iter()
                .find(|d| d.name.ends_with("speedup_spa_over_hash"))
                .unwrap()
                .regressed
        );
        // The rendered table is readable: names, values, and verdicts.
        let table = render_deltas("regressions", &deltas);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("sweep_spa_seconds"));
        assert!(table.contains("+100.0%"));
    }

    #[test]
    fn within_tolerance_noise_is_clean() {
        let base = extract_metrics(&hostperf_doc(0.023, 1.5));
        // 30% slower: inside the 50% relative bound.
        let fresh = extract_metrics(&hostperf_doc(0.030, 1.45));
        assert!(compare(&base, &fresh, 1.0).iter().all(|d| !d.regressed));
    }

    #[test]
    fn speedup_collapse_regresses() {
        let base = extract_metrics(&hostperf_doc(0.023, 1.5));
        let fresh = extract_metrics(&hostperf_doc(0.023, 0.9)); // -40%
        let deltas = compare(&base, &fresh, 1.0);
        assert!(deltas.iter().any(|d| d.regressed));
    }

    #[test]
    fn zero_baseline_shed_rate_uses_absolute_tolerance() {
        let base = extract_metrics(&serve_doc(56_000.0, 0.4, 0.0));
        // Shedding appears but stays under the 0.15 absolute bound.
        let mild = extract_metrics(&serve_doc(56_000.0, 0.4, 0.1));
        assert!(compare(&base, &mild, 1.0).iter().all(|d| !d.regressed));
        // Heavy shedding trips it.
        let heavy = extract_metrics(&serve_doc(56_000.0, 0.4, 0.4));
        let deltas = compare(&base, &heavy, 1.0);
        let shed = deltas
            .iter()
            .find(|d| d.name.ends_with("shed_rate"))
            .unwrap();
        assert!(shed.regressed);
    }

    #[test]
    fn hit_rate_collapse_regresses_and_tol_scale_loosens() {
        let base = extract_metrics(&serve_doc(56_000.0, 0.4, 0.0));
        let worse = extract_metrics(&serve_doc(56_000.0, 0.1, 0.0)); // -0.3 abs
        assert!(compare(&base, &worse, 1.0).iter().any(|d| d.regressed));
        // Scaling every tolerance 3x admits the same drop.
        assert!(compare(&base, &worse, 3.0).iter().all(|d| !d.regressed));
    }

    fn doc_with_rss(peak_rss: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
                "bench": "simthroughput",
                "ns_per_instruction": 4.5,
                "meta": {{"peak_rss_bytes": {peak_rss}}}
            }}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn peak_rss_gates_lower_is_better_with_loose_bound() {
        let base = extract_metrics(&doc_with_rss(100.0e6));
        let rss = base
            .iter()
            .find(|m| m.name == "simthroughput.peak_rss_bytes")
            .expect("peak RSS extracted from meta");
        assert_eq!(rss.direction, Direction::LowerIsBetter);
        assert!(sanity_errors(&base).is_empty());

        // 80% growth stays inside the doubling bound; 2.5x trips it;
        // shrinking to a quarter never does.
        let grown = extract_metrics(&doc_with_rss(180.0e6));
        assert!(compare(&base, &grown, 1.0).iter().all(|d| !d.regressed));
        let blown = extract_metrics(&doc_with_rss(250.0e6));
        assert!(
            compare(&base, &blown, 1.0)
                .iter()
                .find(|d| d.name.ends_with("peak_rss_bytes"))
                .unwrap()
                .regressed
        );
        let shrunk = extract_metrics(&doc_with_rss(25.0e6));
        assert!(compare(&base, &shrunk, 1.0).iter().all(|d| !d.regressed));

        // Pre-resource-accounting documents (no meta) simply go ungated.
        let legacy = extract_metrics(
            &serde_json::from_str(r#"{"bench": "simthroughput", "ns_per_instruction": 4.5}"#)
                .unwrap(),
        );
        assert!(legacy.iter().all(|m| !m.name.contains("peak_rss")));
    }

    #[test]
    fn missing_fresh_metric_is_a_regression() {
        let base = extract_metrics(&hostperf_doc(0.023, 1.5));
        let deltas = compare(&base, &[], 1.0);
        assert!(deltas.iter().all(|d| d.regressed));
        assert!(render_deltas("t", &deltas).contains("missing"));
    }

    #[test]
    fn sanity_flags_bad_baselines() {
        assert!(!sanity_errors(&[]).is_empty(), "empty set must fail");
        let good = extract_metrics(&serve_doc(56_000.0, 0.4, 0.0));
        assert!(sanity_errors(&good).is_empty());
        let bad = vec![
            MetricSpec::time("t".into(), -1.0),
            MetricSpec::rate("r".into(), 1.5, Direction::LowerIsBetter),
            MetricSpec::time("n".into(), f64::NAN),
        ];
        assert_eq!(sanity_errors(&bad).len(), 3);
    }

    fn doc_with_profile(stack: &str) -> Value {
        serde_json::from_str(&format!(
            r#"{{"bench":"hostperf","meta":{{"profile":{{"total_us":12,
                "top":[{{"stack":"{stack}","self_us":9}},
                       {{"stack":"infomap;pagerank","self_us":3}}]}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn profile_shift_is_reported_but_never_gated() {
        let spa = doc_with_profile("hostperf;decide;spa.sweep");
        let hash = doc_with_profile("hostperf;decide;hash.sweep");
        let bare: Value = serde_json::from_str(r#"{"bench":"hostperf","meta":{}}"#).unwrap();

        assert!(profile_shift_note(&spa, &spa).is_none(), "same top frame");
        let note = profile_shift_note(&spa, &hash).expect("shift reported");
        assert!(note.contains("spa.sweep") && note.contains("hash.sweep"));
        assert!(note.contains("not gated"));
        let appeared = profile_shift_note(&bare, &spa).expect("new profile noted");
        assert!(appeared.contains("baseline has none"));
        assert!(profile_shift_note(&spa, &bare).is_none());
        assert!(profile_shift_note(&bare, &bare).is_none());
        // The profile block never feeds the gate: metric extraction is
        // identical with and without it.
        assert_eq!(extract_metrics(&spa).len(), extract_metrics(&bare).len());
    }
}
