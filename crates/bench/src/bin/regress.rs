//! Perf-regression sentinel CLI.
//!
//! ```text
//! regress --smoke [--baseline-dir DIR]
//! regress --fresh-dir DIR [--baseline-dir DIR] [--tol-scale X]
//! ```
//!
//! `--smoke` gates the committed `BENCH_*.json` baselines themselves:
//! every file must parse, yield its gated metrics, pass the sanity checks
//! (finite, in range), and self-compare clean. It runs in milliseconds and
//! is wired into CI so a bad baseline (or broken extraction) fails the
//! build immediately.
//!
//! For a real comparison, rerun the benchmark binaries with
//! `ASA_BENCH_JSON_DIR` (or copy their `BENCH_*.json` outputs) into a
//! fresh directory, then point `--fresh-dir` at it. Exit codes: 0 clean,
//! 1 regression detected (delta table on stdout), 2 usage or missing /
//! unreadable files.
//!
//! `--tol-scale` (env `ASA_REGRESS_TOL_SCALE`) multiplies every noise
//! tolerance; see `asa_bench::regress` for the per-metric defaults.
//!
//! Runs with telemetry on (`--obs-dir`) embed a `meta.profile` summary,
//! the top span paths by self µs; when the hottest path shifts between
//! baseline and fresh, an informational note is printed alongside the
//! delta table. The note never gates.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use asa_bench::regress::{
    compare, extract_metrics, profile_shift_note, render_deltas, sanity_errors,
};

const BENCH_FILES: [&str; 4] = [
    "BENCH_hostperf.json",
    "BENCH_simthroughput.json",
    "BENCH_serve.json",
    "BENCH_stream.json",
];

/// Repository root — the committed baseline directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load_doc(dir: &Path, file: &str) -> Result<serde_json::Value, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e:?}", path.display()))
}

fn arg_value(argv: &[String], flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut out = None;
    for (i, a) in argv.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            out = Some(v.to_string());
        } else if a == flag {
            out = argv.get(i + 1).cloned();
        }
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let baseline_dir = arg_value(&argv, "--baseline-dir").map_or_else(repo_root, PathBuf::from);
    let fresh_dir = arg_value(&argv, "--fresh-dir").map(PathBuf::from);
    let tol_scale = arg_value(&argv, "--tol-scale")
        .or_else(|| std::env::var("ASA_REGRESS_TOL_SCALE").ok())
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0);

    if !smoke && fresh_dir.is_none() {
        eprintln!(
            "usage: regress --smoke | regress --fresh-dir DIR [--baseline-dir DIR] [--tol-scale X]"
        );
        return ExitCode::from(2);
    }

    let mut failed = false;
    for file in BENCH_FILES {
        let baseline_doc = match load_doc(&baseline_dir, file) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("regress: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline = extract_metrics(&baseline_doc);
        let errors = sanity_errors(&baseline);
        if !errors.is_empty() {
            for e in &errors {
                eprintln!("regress: {file}: {e}");
            }
            failed = true;
            continue;
        }

        let (fresh, fresh_doc, title) = match &fresh_dir {
            Some(dir) => match load_doc(dir, file) {
                Ok(d) => {
                    let m = extract_metrics(&d);
                    (m, Some(d), format!("{file}: fresh vs committed baseline"))
                }
                Err(e) => {
                    eprintln!("regress: {e}");
                    return ExitCode::from(2);
                }
            },
            // Smoke mode: the baseline self-compares, proving the full
            // extract → compare → render path on the committed files.
            None => (
                baseline.clone(),
                None,
                format!("{file}: baseline self-check"),
            ),
        };
        let deltas = compare(&baseline, &fresh, tol_scale);
        let regressions = deltas.iter().filter(|d| d.regressed).count();
        if regressions > 0 || fresh_dir.is_some() {
            println!("{}", render_deltas(&title, &deltas));
            // Informational only — a shifted hot stack never trips the gate,
            // but it is the first thing to look at when a time gate does.
            if let Some(doc) = &fresh_doc {
                if let Some(note) = profile_shift_note(&baseline_doc, doc) {
                    println!("{file}: {note}");
                }
            }
        } else {
            println!(
                "{file}: {} metrics sane, self-compare clean (tol-scale {tol_scale})",
                deltas.len()
            );
        }
        if regressions > 0 {
            eprintln!("regress: {file}: {regressions} metric(s) regressed");
            failed = true;
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
