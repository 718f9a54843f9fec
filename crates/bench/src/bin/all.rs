//! Runs every experiment binary in sequence, mirroring the paper's
//! evaluation section end to end. Equivalent to running each `table*` /
//! `fig*` / `quality` binary yourself; this exists so
//! `cargo run -p asa-bench --release --bin all | tee results.txt`
//! regenerates the whole evaluation in one go.
//!
//! Flags are forwarded to every child uniformly:
//! `--progress` turns on telemetry heartbeats (the driver emits one
//! summary-sink record per experiment and exports `ASA_PROGRESS=1` so
//! every child streams its own per-sweep heartbeat lines); `--obs-dir
//! <dir>` writes the driver's own artifacts into `<dir>` and gives each
//! child `<dir>/<bin>` via `ASA_OBS_DIR` (binaries that use telemetry
//! write their fixed-name artifacts there); `ASA_METRICS_ADDR` is
//! forwarded verbatim (children run sequentially, so they can share one
//! bind address); `--smoke` is passed
//! through to the binaries that support it (`simthroughput`, `serve`).
//! `--shards <n>`, `--steal`, and `--no-steal` are forwarded to `serve`
//! so a sweep restricted to one shard count (or with stealing disabled)
//! can run through the full driver.

use std::process::Command;
use std::time::Instant;

use asa_bench::ObsArgs;
use asa_obs::record;

/// Binaries that accept `--smoke` for a reduced CI-sized run.
const SMOKE_AWARE: &[&str] = &["simthroughput", "serve"];

/// Extracts the serve-only passthrough flags (`--shards <n>`,
/// `--steal` / `--no-steal`) from the driver's argv.
fn serve_flags(argv: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(i) = argv.iter().position(|a| a == "--shards") {
        if let Some(v) = argv.get(i + 1) {
            out.push("--shards".into());
            out.push(v.clone());
        }
    }
    for flag in ["--steal", "--no-steal"] {
        if argv.iter().any(|a| a == flag) {
            out.push(flag.into());
        }
    }
    out
}

fn main() {
    let mut args = ObsArgs::parse();
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    // The scrape address must stay free for whichever child is currently
    // running (they run one at a time); taking it before `build()` keeps
    // the driver from binding the port for the whole run.
    let metrics_addr = args.metrics_addr.take();
    let obs = args.build();
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let bins = [
        "table1",
        "table2",
        "fig2",
        "fig4",
        "fig5",
        "table3_4",
        "table5",
        "fig7",
        "fig8",
        "fig9_10_11",
        "quality",
        "ablation",
        "distributed",
        "spgemm",
        "simthroughput",
        "serve",
    ];
    for bin in bins {
        println!("\n{}", "=".repeat(72));
        println!("== {bin}");
        println!("{}\n", "=".repeat(72));
        let t = Instant::now();
        let mut cmd = Command::new(dir.join(bin));
        if args.progress {
            cmd.env("ASA_PROGRESS", "1");
        }
        if let Some(dir) = &args.obs_dir {
            cmd.env("ASA_OBS_DIR", dir.join(bin));
        }
        if let Some(addr) = &metrics_addr {
            cmd.env("ASA_METRICS_ADDR", addr);
        }
        if smoke && SMOKE_AWARE.contains(&bin) {
            cmd.arg("--smoke");
        }
        if bin == "serve" {
            cmd.args(serve_flags(&argv));
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        record!(obs, "experiment", {
            "bin": bin,
            "ok": status.success(),
            "seconds": t.elapsed().as_secs_f64(),
        });
        if !status.success() {
            eprintln!("experiment {bin} failed with {status}");
            std::process::exit(1);
        }
    }
    args.finish(&obs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_flags_forwarded_verbatim() {
        let argv: Vec<String> = ["all", "--smoke", "--shards", "4", "--no-steal"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(serve_flags(&argv), vec!["--shards", "4", "--no-steal"]);
        let bare: Vec<String> = ["all", "--smoke"].iter().map(ToString::to_string).collect();
        assert!(serve_flags(&bare).is_empty());
    }
}
