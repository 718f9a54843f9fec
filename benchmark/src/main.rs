//! Whole-run benchmark of the Infomap workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One workload per process (`--workload`), or, without it, every
//! workload in a child process of its own so peak RSS is per workload.
//! A run prints a provenance header, one `<workload> <metric> <value>
//! <unit>` line per metric, and as its last line a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. It exits non-zero when
//! an output check fails.
//!
//! `--trace 0` reports the end-to-end metrics from an untraced run.
//! `--trace 1` is a separate run for the per-layer metrics: half its
//! operations untraced (the tracing-overhead baseline), half with spans
//! recorded around the benchmark's calls into each layer, written to
//! `target/benchmark/<workload>.spans.jsonl`, with a self-time ledger.
//! See README.md for the workloads and the layer → end-to-end map.

// Output checks are written `!(value <= limit)` so that a NaN fails them.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod gen;
mod host;
mod serve;
mod spans;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::spans::Recorder;

/// Every workload, by name.
const WORKLOADS: [&str; 4] = ["host-dense", "host-web", "stream-updates", "serve-mixed"];

/// End-to-end metrics (name, unit), reported by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics (name, unit), reported by every traced run. A layer
/// the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("process.peak_rss_mb", "MB"),
    ("graph.load_s", "s"),
    ("graph.fingerprint_ms", "ms"),
    ("graph.materialize_ms", "ms"),
    ("infomap.flow_s", "s"),
    ("infomap.decide_s", "s"),
    ("infomap.apply_s", "s"),
    ("infomap.coarsen_s", "s"),
    ("infomap.sweeps", "count"),
    ("infomap.levels", "count"),
    ("infomap.evaluated", "count"),
    ("infomap.moves", "count"),
    ("infomap.move_ratio", "ratio"),
    ("infomap.coverage", "ratio"),
    ("infomap.incr.apply_ms", "ms"),
    ("infomap.incr.flow_ms", "ms"),
    ("infomap.incr.rebuild_share", "ratio"),
    ("infomap.incr.frontier_mean", "count"),
    ("infomap.incr.ripples_mean", "count"),
    ("infomap.incr.fallback_ratio", "ratio"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.submit_p99_ms", "ms"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.service_cold_p50_ms", "ms"),
    ("serve.service_update_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.update_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.degraded", "count"),
    ("serve.update_incremental_ratio", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// A run that has not finished by then is stuck (say, a request that
/// never resolves): fail it rather than hang.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Settings of one workload run.
pub struct RunCfg {
    pub workload_name: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Where set-up files and the span dump go.
    pub work_dir: PathBuf,
}

impl RunCfg {
    /// Set-ups per run: several for the untraced run, whose `setup_s` is
    /// their median.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// The fixed operation count of a run: `per_second` operations for
    /// each of `--seconds` (one second in smoke mode), at least `min`.
    pub fn ops(&self, per_second: f64, min: usize) -> usize {
        let seconds = if self.smoke { 1 } else { self.seconds };
        ((seconds as f64 * per_second).round() as usize).max(min)
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context lines.
    pub notes: Vec<String>,
    pub recorder: Option<Recorder>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let fresh = self.metrics.insert(name, value).is_none();
        assert!(fresh, "metric {name} reported twice");
    }

    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }
}

/// Runs `setup` `reps` times and returns the last product with the
/// median set-up time in seconds. Earlier products are dropped. Ends by
/// resetting the peak-RSS mark, so [`peak_rss_mb`] covers the measured
/// work and what set-up left resident, not set-up's own transient peak.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    (last.expect("at least one set-up"), stats::median(&times))
}

fn run_workload(cfg: &RunCfg) -> Outcome {
    match cfg.workload_name {
        "host-dense" => host::run(host::Kind::Dense, cfg),
        "host-web" => host::run(host::Kind::Web, cfg),
        "stream-updates" => stream::run(cfg),
        "serve-mixed" => serve::run(cfg),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Peak resident set of this process in MB since the last set-up
/// (`VmHWM`), or NaN where procfs does not report it (the run then fails
/// its finiteness check).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn header(cfg: &RunCfg) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# workload={} seed={} seconds={} trace={} smoke={}",
        cfg.workload_name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke
    );
    println!(
        "# nproc={nproc} rayon_threads={} kernel={} profile={profile} features=none",
        rayon::current_num_threads(),
        asa_infomap::kernel::kernel_path_name(),
    );
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ASA_") || k.starts_with("RAYON_"))
        .collect();
    env.sort();
    for (k, v) in env {
        println!("# env {k}={v}");
    }
}

/// Prints the run's metric lines and the final JSON line; returns whether
/// every check passed.
fn report(cfg: &RunCfg, mut out: Outcome) -> bool {
    let name = cfg.workload_name;
    for note in &out.notes {
        println!("# {name}: {note}");
    }
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::with_capacity(table.len());
    for &(metric, unit) in table {
        let value = match out.metrics.get(metric) {
            Some(&v) => v,
            None if cfg.trace => 0.0,
            None => {
                out.error(format!("end-to-end metric {metric} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            out.error(format!("{metric} is {value}"));
            continue;
        }
        println!("{name} {metric} {value} {unit}");
        json.push(format!(
            "\"{metric}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(m, _)| m == *k))
    {
        out.error(format!(
            "metric {extra} is not in the {} table",
            if cfg.trace { "per-layer" } else { "end-to-end" }
        ));
    }
    if let Some(rec) = &out.recorder {
        print_ledger(name, rec);
        let path = cfg.work_dir.join(format!("{name}.spans.jsonl"));
        if let Err(e) = rec.write_jsonl(&path) {
            out.error(format!("writing {}: {e}", path.display()));
        }
    }
    for e in &out.errors {
        eprintln!("{name}: CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
    correct
}

/// Self time per span name, and its share of all traced time.
fn print_ledger(name: &str, rec: &Recorder) {
    let ledger = spans::ledger(rec.spans());
    let all: u64 = ledger.values().map(|&(_, _, s)| s).sum();
    for (span, (count, total, self_ns)) in ledger {
        println!(
            "# {name} span {span} count={count} total_s={:.6} self_s={:.6} self_share={:.4}",
            total as f64 * 1e-9,
            self_ns as f64 * 1e-9,
            self_ns as f64 / all.max(1) as f64
        );
    }
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|&&w| w == value)
                    .ok_or_else(|| format!("unknown workload {value}; one of {WORKLOADS:?}"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Without `--workload`: every workload in a child process.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", w])
            .status()
            .expect("start a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload_name) = args.workload else {
        return run_all(&argv);
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("benchmark: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let cfg = RunCfg {
        workload_name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        work_dir: PathBuf::from("target/benchmark"),
    };
    header(&cfg);
    let out = run_workload(&cfg);
    if report(&cfg, out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_in_smoke_mode() {
        let work_dir =
            std::env::temp_dir().join(format!("asa-benchmark-smoke-{}", std::process::id()));
        for workload_name in WORKLOADS {
            for trace in [false, true] {
                let cfg = RunCfg {
                    workload_name,
                    seed: 3,
                    seconds: 1,
                    trace,
                    smoke: true,
                    work_dir: work_dir.clone(),
                };
                let out = run_workload(&cfg);
                assert!(out.errors.is_empty(), "{workload_name}: {:?}", out.errors);
                assert!(out.attempted > 0 && out.failed == 0, "{workload_name}");
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for name in out.metrics.keys() {
                    assert!(
                        table.iter().any(|(m, _)| m == name),
                        "{workload_name}: stray {name}"
                    );
                }
                if trace {
                    assert!(out.recorder.is_some_and(|r| !r.spans().is_empty()));
                } else {
                    assert_eq!(out.metrics.len(), END_TO_END.len(), "{workload_name}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&work_dir);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
    }

    #[test]
    fn arguments_parse() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload host-web --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.smoke),
            (Some("host-web"), 7, 12, true, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--smoke")).unwrap().smoke);
    }
}
