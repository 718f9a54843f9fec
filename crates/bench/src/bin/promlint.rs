//! `promlint` — strict validation of a Prometheus text-format exposition
//! such as the `metrics.prom` a bench writes under `--obs-dir` (or any
//! scrape saved to a file).
//!
//! Usage: `promlint <metrics.prom> [more.prom ...]`
//!
//! Runs [`asa_obs::expose::validate`] over each file and prints a
//! per-file summary (`families / samples / histograms`). Any violation —
//! duplicate or interleaved families, non-cumulative or unterminated
//! histogram buckets, `_count` mismatches, undeclared samples, invalid
//! names, NaN values — is listed and the process exits non-zero. CI runs
//! this against the `serve --smoke` scrape so format drift in the
//! exposition renderer is caught at the gate, not in a dashboard.

use asa_obs::expose;

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: promlint <metrics.prom> [more.prom ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        match expose::validate(&text) {
            Ok(summary) => println!(
                "{path}: OK ({} families, {} samples, {} histograms)",
                summary.families, summary.samples, summary.histograms
            ),
            Err(errors) => {
                eprintln!("{path}: {} violation(s)", errors.len());
                for e in &errors {
                    eprintln!("  {e}");
                }
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
