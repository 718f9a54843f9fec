//! Schema check for the committed `BENCH_*.json` result files.
//!
//! The bench binaries embed run-provenance metadata (config hash, rustc
//! version, thread count, dataset) in every JSON they write; this test
//! parses the files committed at the repository root and enforces that
//! shape, so a binary that stops writing the metadata — or writes it
//! malformed — fails CI rather than silently producing unattributable
//! results.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn load(name: &str) -> serde_json::Value {
    let path = repo_root().join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// The metadata block every bench JSON must carry.
fn assert_meta(doc: &serde_json::Value, what: &str) {
    let meta = doc
        .get("meta")
        .unwrap_or_else(|| panic!("{what}: missing meta object"));
    let hash = meta["config_hash"]
        .as_str()
        .unwrap_or_else(|| panic!("{what}: meta.config_hash must be a string"));
    assert_eq!(hash.len(), 16, "{what}: config_hash is a 64-bit hex digest");
    assert!(
        hash.chars().all(|c| c.is_ascii_hexdigit()),
        "{what}: config_hash must be hex, got {hash:?}"
    );
    let rustc = meta["rustc_version"]
        .as_str()
        .unwrap_or_else(|| panic!("{what}: meta.rustc_version must be a string"));
    assert!(!rustc.is_empty(), "{what}: rustc_version empty");
    let threads = meta["threads"]
        .as_u64()
        .unwrap_or_else(|| panic!("{what}: meta.threads must be an integer"));
    assert!(threads >= 1, "{what}: threads must be >= 1");
    assert!(
        meta["dataset"].as_str().is_some_and(|d| !d.is_empty()),
        "{what}: meta.dataset must be a non-empty string"
    );
    assert!(
        meta["unix_time"].as_u64().is_some(),
        "{what}: meta.unix_time must be an integer"
    );
    // Resource accounting: peak RSS plus split CPU time. On Linux (where
    // the committed files are produced) the procfs sampler reports real
    // values, so a zero peak RSS means the accounting broke.
    assert!(
        meta["peak_rss_bytes"].as_u64().is_some_and(|b| b > 0),
        "{what}: meta.peak_rss_bytes must be a positive integer"
    );
    for key in ["cpu_user_s", "cpu_sys_s"] {
        assert!(
            meta[key].as_f64().is_some_and(|s| s >= 0.0),
            "{what}: meta.{key} must be a non-negative number"
        );
    }
    // The scale recorded in the metadata must agree with the top-level
    // field the pre-metadata schema already carried.
    assert_eq!(
        meta["scale_div"], doc["scale_div"],
        "{what}: meta.scale_div disagrees with scale_div"
    );
}

#[test]
fn hostperf_json_schema() {
    let doc = load("BENCH_hostperf.json");
    assert_eq!(doc["bench"], "hostperf");
    assert!(doc["scale_div"].as_u64().is_some());
    assert!(doc["reps"].as_u64().is_some_and(|r| r >= 1));
    assert_meta(&doc, "BENCH_hostperf.json");
    let networks = doc["networks"].as_array().expect("networks array");
    assert!(!networks.is_empty());
    let mut best_speedup = 0.0f64;
    let mut best_scalar = 0.0f64;
    for n in networks {
        assert!(n["network"].as_str().is_some());
        assert!(n["nodes"].as_u64().is_some());
        assert!(n["arcs"].as_u64().is_some());
        assert_eq!(n["identical_paths"].as_bool(), Some(true));
        assert!(n["sweep_seconds"]["hash"].as_f64().is_some());
        assert!(n["sweep_seconds"]["spa"].as_f64().is_some());
        let speedup = n["sweep_speedup_spa_over_hash"]
            .as_f64()
            .expect("sweep speedup");
        best_speedup = best_speedup.max(speedup);
        best_scalar = best_scalar.max(
            n["sweep_speedup_spa_scalar_over_hash"]
                .as_f64()
                .expect("committed baselines carry the kernel breakdown"),
        );
        // The committed baseline carries the per-phase attribution of the
        // one sweep kernel path.
        let b = &n["kernel_breakdown"];
        assert_eq!(
            b["kernel_path"].as_str(),
            Some("spa-scalar"),
            "kernel_breakdown.kernel_path"
        );
        let sweep = b["sweep_seconds"].as_f64().expect("sweep seconds");
        let phases = b["accumulate_seconds"].as_f64().expect("accumulate")
            + b["gather_seconds"].as_f64().expect("gather")
            + b["scan_seconds"].as_f64().expect("scan");
        assert!(sweep > 0.0 && phases > 0.0, "kernel_breakdown times");
        assert!(
            b["vertices_evaluated"].as_u64().is_some_and(|v| v > 0),
            "kernel_breakdown.vertices_evaluated"
        );
        assert!(
            b["candidates_per_vertex"].as_f64().is_some_and(|c| c > 0.0),
            "kernel_breakdown.candidates_per_vertex"
        );
    }
    // The paper-parity claim the issue gates: the SPA sweep kernel beats
    // the hash path by >= 2.5x on at least one committed dataset, with
    // `sweep_speedup_spa_scalar_over_hash` (written by `--kernel-breakdown`)
    // at >= 1.8x.
    assert!(
        best_speedup >= 2.5,
        "committed sweep_speedup_spa_over_hash fell below the gated 2.5x claim: {best_speedup}"
    );
    assert!(
        best_scalar >= 1.8,
        "committed sweep_speedup_spa_scalar_over_hash fell below the gated 1.8x claim: {best_scalar}"
    );
}

#[test]
fn simthroughput_json_schema() {
    let doc = load("BENCH_simthroughput.json");
    assert_eq!(doc["bench"], "simthroughput");
    assert!(doc["scale_div"].as_u64().is_some());
    assert_meta(&doc, "BENCH_simthroughput.json");
    let sim_seconds = doc["sim_seconds"].as_f64().expect("sim_seconds");
    let wall_seconds = doc["wall_seconds"].as_f64().expect("wall_seconds");
    assert!(sim_seconds > 0.0 && sim_seconds <= wall_seconds);
    let instructions = doc["instructions"].as_u64().expect("instructions");
    assert!(instructions > 0);
    let rate = doc["instructions_per_sec"].as_f64().expect("rate");
    let ns = doc["ns_per_instruction"]
        .as_f64()
        .expect("ns per instruction");
    // Both derive from the same two numbers.
    assert!((rate - instructions as f64 / sim_seconds).abs() <= 1e-9 * rate);
    assert!((ns - sim_seconds * 1e9 / instructions as f64).abs() <= 1e-9 * ns);
}

#[test]
fn stream_json_schema() {
    let doc = load("BENCH_stream.json");
    assert_eq!(doc["bench"], "stream");
    assert!(doc["scale_div"].as_u64().is_some());
    assert_meta(&doc, "BENCH_stream.json");
    assert!(doc["nodes"].as_u64().is_some_and(|n| n > 0));
    assert!(doc["arcs"].as_u64().is_some_and(|a| a > 0));
    assert!(doc["hot_vertices"].as_u64().is_some_and(|h| h > 0));
    assert!(doc["seed_seconds"].as_f64().is_some_and(|s| s > 0.0));
    assert!(doc["seed_codelength"].as_f64().is_some_and(|c| c > 0.0));
    let batches = doc["batches"].as_u64().expect("batches") as usize;
    assert!(batches >= 1);
    assert!(doc["edits_per_batch"].as_u64().is_some_and(|e| e > 0));
    let drift_budget = doc["drift_budget"].as_f64().expect("drift_budget");
    assert!(drift_budget > 0.0 && drift_budget < 1.0);

    let reports = doc["batch_reports"].as_array().expect("batch_reports");
    assert_eq!(reports.len(), batches, "one report per batch");
    for (i, r) in reports.iter().enumerate() {
        let what = format!("batch_reports[{i}]");
        assert_eq!(r["batch"].as_u64(), Some(i as u64), "{what}: batch index");
        assert!(r["ops"].as_u64().is_some_and(|o| o > 0), "{what}: ops");
        let incremental = r["incremental"].as_bool().expect("incremental flag");
        // A fallback batch must name its guard reason; an incremental one
        // must not carry one.
        assert_eq!(
            r["fallback"].as_str().is_some(),
            !incremental,
            "{what}: fallback reason iff the guard fired"
        );
        assert!(r["frontier_size"].as_u64().is_some(), "{what}: frontier");
        assert!(r["ripple_rounds"].as_u64().is_some(), "{what}: ripples");
        for key in ["incremental_seconds", "fresh_seconds"] {
            assert!(
                r[key].as_f64().is_some_and(|s| s > 0.0),
                "{what}: {key} must be positive"
            );
        }
        for key in ["incremental_codelength", "fresh_codelength"] {
            assert!(
                r[key].as_f64().is_some_and(f64::is_finite),
                "{what}: {key} must be finite"
            );
        }
        assert!(r["drift"].as_f64().is_some_and(f64::is_finite));
    }

    let summary = &doc["summary"];
    let incr = summary["incremental_batches"]
        .as_u64()
        .expect("incremental_batches");
    let fallbacks = summary["fallbacks"].as_u64().expect("fallbacks");
    assert_eq!(incr + fallbacks, batches as u64, "summary accounting");
    assert!(summary["mean_incremental_seconds"]
        .as_f64()
        .is_some_and(|s| s > 0.0));
    assert!(summary["mean_fresh_seconds"]
        .as_f64()
        .is_some_and(|s| s > 0.0));
    assert!(summary["mean_drift"].as_f64().is_some_and(f64::is_finite));

    // The dynamic-graph subsystem's acceptance gates: incremental updates
    // beat fresh full runs by >= 3x while staying within 1% codelength
    // drift, and the quality guard stays quiet on the committed workload.
    let speedup = summary["incremental_speedup"]
        .as_f64()
        .expect("incremental_speedup");
    assert!(
        speedup >= 3.0,
        "committed incremental_speedup fell below the gated 3x claim: {speedup}"
    );
    let max_drift = summary["max_drift"].as_f64().expect("max_drift");
    assert!(
        (0.0..=0.01).contains(&max_drift),
        "committed max_drift broke the gated 1% budget: {max_drift}"
    );
    let fallback_rate = summary["fallback_rate"].as_f64().expect("fallback_rate");
    assert!(
        (0.0..=0.25).contains(&fallback_rate),
        "committed fallback_rate broke the gated 0.25 bound: {fallback_rate}"
    );
}

/// An ordered positive p50 <= p95 <= p99 triple (latency, queue-wait, or
/// service distributions); queue-wait p50 may be zero under light load.
fn assert_pct_triple(obj: &serde_json::Value, what: &str, allow_zero_p50: bool) {
    let p50 = obj["p50"].as_f64().unwrap_or_else(|| panic!("{what}: p50"));
    let p95 = obj["p95"].as_f64().unwrap_or_else(|| panic!("{what}: p95"));
    let p99 = obj["p99"].as_f64().unwrap_or_else(|| panic!("{what}: p99"));
    assert!(
        (allow_zero_p50 || p50 > 0.0) && p50 >= 0.0 && p50 <= p95 && p95 <= p99,
        "{what}: percentiles must be ordered, got {p50}/{p95}/{p99}"
    );
}

/// One offered-load level of a serve sweep. Returns the level's cache hit
/// rate so the caller can assert the sweep demonstrated real hits.
fn assert_serve_level(level: &serde_json::Value, what: &str) -> f64 {
    assert!(level["requests"].as_u64().is_some_and(|r| r > 0));
    assert!(level["throughput_rps"].as_f64().is_some_and(|t| t > 0.0));
    assert_pct_triple(&level["latency_us"], &format!("{what}.latency_us"), false);
    // Queue-wait vs service split: both ordered, and for the resolved
    // requests the end-to-end latency dominates its own service component.
    assert_pct_triple(&level["queue_us"], &format!("{what}.queue_us"), true);
    assert_pct_triple(&level["service_us"], &format!("{what}.service_us"), true);
    // What `submit` cost the caller: positive at every percentile.
    assert_pct_triple(&level["submit_us"], &format!("{what}.submit_us"), false);
    let hit_rate = level["cache_hit_rate"]
        .as_f64()
        .unwrap_or_else(|| panic!("{what}: cache_hit_rate"));
    assert!((0.0..=1.0).contains(&hit_rate));
    let shed_rate = level["shed_rate"]
        .as_f64()
        .unwrap_or_else(|| panic!("{what}: shed_rate"));
    assert!((0.0..=1.0).contains(&shed_rate));
    // Sharded-engine accounting fields must be present (zero is fine).
    for field in ["steals", "replications", "stolen_runs", "queue_depth_max"] {
        assert!(
            level[field].as_u64().is_some(),
            "{what}: missing counter field {field}"
        );
    }
    // Accounting must balance: every request terminated somewhere.
    let total = level["resolved_with_result"].as_u64().unwrap()
        + level["shed"].as_u64().unwrap()
        + level["deadline_exceeded"].as_u64().unwrap();
    assert_eq!(
        total,
        level["requests"].as_u64().unwrap(),
        "{what}: accounting"
    );
    hit_rate
}

/// A full load sweep (the legacy top-level `levels` array or one
/// `shard_sweep` entry's curve): >= 3 levels at increasing offered load.
fn assert_serve_sweep(levels: &[serde_json::Value], what: &str) -> Vec<f64> {
    assert!(
        levels.len() >= 3,
        "{what}: the load sweep must cover at least three offered-load levels"
    );
    let mut prev_offered = 0.0;
    let mut hit_rates = Vec::new();
    for (i, level) in levels.iter().enumerate() {
        let what = format!("{what}[{i}]");
        let offered = level["offered_rps"]
            .as_f64()
            .unwrap_or_else(|| panic!("{what}: offered_rps"));
        assert!(
            offered > prev_offered,
            "{what}: offered loads must be increasing"
        );
        prev_offered = offered;
        hit_rates.push(assert_serve_level(level, &what));
    }
    hit_rates
}

#[test]
fn serve_json_schema() {
    let doc = load("BENCH_serve.json");
    assert_eq!(doc["bench"], "serve");
    assert!(doc["scale_div"].as_u64().is_some());
    assert!(doc["workers"].as_u64().is_some_and(|w| w >= 1));
    assert!(doc["steal"].as_bool().is_some());
    assert!(doc["capacity_est_rps"].as_f64().is_some_and(|c| c > 0.0));
    assert_meta(&doc, "BENCH_serve.json");

    let workloads = doc["workloads"].as_array().expect("workloads array");
    assert!(!workloads.is_empty());
    for w in workloads {
        assert!(w["family"]
            .as_str()
            .is_some_and(|f| ["ba", "rmat", "lfr"].contains(&f)));
        assert!(w["nodes"].as_u64().is_some_and(|n| n > 0));
        assert!(w["arcs"].as_u64().is_some_and(|a| a > 0));
    }

    // Legacy schema: the top-level `levels` array is the shards=1 curve.
    let levels = doc["levels"].as_array().expect("levels array");
    let hit_rates = assert_serve_sweep(levels, "BENCH_serve.json levels");
    assert!(
        hit_rates.iter().any(|&h| h > 0.0),
        "the committed sweep must demonstrate a non-zero cache hit rate"
    );

    // The shard-scaling sweep: the committed baseline carries the full
    // shards in {1, 2, 4} curve at one worker per shard.
    let sweep = doc["shard_sweep"].as_array().expect("shard_sweep array");
    let shard_counts: Vec<u64> = sweep
        .iter()
        .map(|e| e["shards"].as_u64().expect("shard_sweep[*].shards"))
        .collect();
    assert_eq!(
        shard_counts,
        [1, 2, 4],
        "the committed baseline sweeps shards 1, 2, 4"
    );
    for entry in sweep {
        let shards = entry["shards"].as_u64().unwrap();
        let what = format!("BENCH_serve.json shard_sweep shards={shards}");
        assert!(
            entry["workers_per_shard"].as_u64().is_some_and(|w| w >= 1),
            "{what}: workers_per_shard"
        );
        assert!(entry["steal"].as_bool().is_some(), "{what}: steal");
        let levels = entry["levels"].as_array().expect("shard_sweep levels");
        assert_serve_sweep(levels, &what);
    }

    // The headline scaling claim the issue gates: at the top offered load
    // (8x a single worker's capacity) the 4-shard engine converts routing
    // affinity + aggregate queue capacity into cache hits instead of
    // shedding. Committed thresholds; `regress` tracks drift within them.
    let four_levels = sweep[2]["levels"].as_array().unwrap();
    let four = &four_levels[four_levels.len() - 1];
    let hit = four["cache_hit_rate"].as_f64().unwrap();
    let shed = four["shed_rate"].as_f64().unwrap();
    assert!(
        hit >= 0.43,
        "shards=4 top-level cache hit rate fell below the gated 0.43: {hit}"
    );
    assert!(
        shed < 0.325,
        "shards=4 top-level shed rate broke the gated 0.325 bound: {shed}"
    );
}
