//! Experiment harness shared by the per-table/figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index). This library
//! holds what they share: workload construction (the Table I stand-ins at
//! a configurable scale), simulation wrappers, and plain-text table
//! rendering so the output reads like the paper's tables.
//!
//! Scale: set `ASA_SCALE_DIV` (default 64) to control the down-scale
//! denominator of the synthetic networks; `ASA_SCALE_DIV=32` doubles
//! workload sizes, etc. All generation is seeded and deterministic.

pub mod regress;

use std::path::{Path, PathBuf};

use asa_graph::generators::{NetworkSpec, PaperNetwork};
use asa_graph::{CsrGraph, Partition};
use asa_infomap::instrumented::{simulate_infomap, Device, SimulatedRun};
use asa_infomap::InfomapConfig;
use asa_obs::{JsonlSink, Obs, SummarySink};
use asa_simarch::MachineConfig;

/// Compiler version captured by `build.rs` at compile time.
pub const RUSTC_VERSION: &str = env!("ASA_RUSTC_VERSION");

/// Reads the workload scale divisor from `ASA_SCALE_DIV` (default 64).
pub fn scale_div() -> usize {
    std::env::var("ASA_SCALE_DIV")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&d| d >= 1)
        .unwrap_or(64)
}

/// Generates the stand-in for one paper network at the harness scale,
/// caching the result under `target/asa-workloads/` so subsequent
/// experiment binaries start instantly. Delete that directory (or set
/// `ASA_NO_CACHE=1`) to force regeneration.
pub fn load_network(network: PaperNetwork) -> (CsrGraph, Partition) {
    let spec = NetworkSpec::new(network, scale_div());
    if std::env::var_os("ASA_NO_CACHE").is_some() {
        return spec.generate();
    }
    let dir = std::path::Path::new("target").join("asa-workloads");
    let stem = format!("{}-div{}-seed{}", network.name(), spec.scale_div, spec.seed);
    let graph_path = dir.join(format!("{stem}.graph"));
    let part_path = dir.join(format!("{stem}.part"));

    if let (Ok(gf), Ok(pf)) = (
        std::fs::File::open(&graph_path),
        std::fs::File::open(&part_path),
    ) {
        if let (Ok(graph), Ok(partition)) = (
            asa_graph::binio::read_graph(std::io::BufReader::new(gf)),
            asa_graph::binio::read_partition(std::io::BufReader::new(pf)),
        ) {
            return (graph, partition);
        }
        // Fall through and regenerate on any decode failure.
    }
    let (graph, partition) = spec.generate();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::File::create(&graph_path)
            .and_then(|f| asa_graph::binio::write_graph(&graph, std::io::BufWriter::new(f)));
        let _ = std::fs::File::create(&part_path).and_then(|f| {
            asa_graph::binio::write_partition(&partition, std::io::BufWriter::new(f))
        });
    }
    (graph, partition)
}

/// Infomap configuration used across experiments (paper defaults).
pub fn infomap_config() -> InfomapConfig {
    InfomapConfig::default()
}

/// FNV-1a 64-bit hash (offline stand-in for a real digest — stable,
/// dependency-free, plenty for "did the config change?" provenance).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run-provenance metadata embedded in every `BENCH_*.json`: a hash of
/// the effective configuration (Infomap parameters + workload scale), the
/// compiler that built the binary, the rayon thread count, the dataset
/// name, and a wall-clock stamp. The schema-check test in
/// `tests/bench_json_schema.rs` enforces this shape on the committed
/// files.
pub fn run_metadata(dataset: &str, icfg: &InfomapConfig) -> serde_json::Value {
    let cfg_repr = format!("{icfg:?}|scale_div={}", scale_div());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    // Resource accounting (ROADMAP item 2): every bench JSON certifies
    // its memory high-water mark and CPU split. Zeros off-Linux.
    let rs = asa_obs::resource::sample().unwrap_or_default();
    serde_json::json!({
        "config_hash": format!("{:016x}", fnv1a64(cfg_repr.as_bytes())),
        "rustc_version": RUSTC_VERSION,
        "threads": rayon::current_num_threads(),
        "dataset": dataset,
        "scale_div": scale_div(),
        "unix_time": unix_time,
        "peak_rss_bytes": rs.peak_rss_bytes,
        "cpu_user_s": rs.cpu_user_s,
        "cpu_sys_s": rs.cpu_sys_s,
    })
}

/// Telemetry switches shared by the experiment binaries.
///
/// Parsed from the command line (`--obs-dir <dir>`, `--progress`,
/// `--metrics-addr <addr>`) with environment fallbacks (`ASA_OBS_DIR`,
/// `ASA_PROGRESS=1`, `ASA_METRICS_ADDR`) so the `all` driver can forward
/// them to child experiment processes.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// Artifact directory (`--obs-dir` / `ASA_OBS_DIR`), created if
    /// missing. Attaches the JSONL and summary sinks and the flight
    /// recorder; [`ObsArgs::finish`] writes `obs.jsonl`, `trace.json`
    /// (Chrome trace for Perfetto or `chrome://tracing`), `metrics.prom`
    /// (Prometheus exposition), `prof.folded` and `prof.svg` (the span
    /// profile, exact self µs per span path, and its flamegraph) there,
    /// and the serve bench adds `blackbox.json`.
    pub obs_dir: Option<PathBuf>,
    /// Per-record heartbeat lines on stderr (`--progress` /
    /// `ASA_PROGRESS=1`).
    pub progress: bool,
    /// Live scrape endpoint bind address (`--metrics-addr` /
    /// `ASA_METRICS_ADDR`, e.g. `127.0.0.1:9184`). The endpoint serves
    /// for the life of the process, so a `curl` mid-run sees current
    /// values — including `/flame.svg` and `/profile?seconds=N`.
    pub metrics_addr: Option<String>,
}

/// Per-thread flight-recorder ring bound used by `--obs-dir`
/// (`ASA_TRACE_CAP` overrides; default 65536 events per thread).
pub fn trace_capacity() -> usize {
    std::env::var("ASA_TRACE_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(1 << 16)
}

/// Profile summary embedded in `BENCH_*.json` run metadata when the
/// handle is enabled: the span profile's total self µs plus its top-5
/// span paths by self µs. `None` when disabled.
pub fn profile_summary(obs: &Obs) -> Option<serde_json::Value> {
    let profile = obs.profile()?;
    let top: Vec<serde_json::Value> = profile
        .top(5)
        .into_iter()
        .map(|(stack, us)| serde_json::json!({ "stack": stack, "self_us": us }))
        .collect();
    Some(serde_json::json!({
        "total_us": profile.total_us(),
        "top": top,
    }))
}

/// Appends the [`profile_summary`] under a `"profile"` key of a
/// `run_metadata` object; the metadata passes through unchanged when the
/// handle is disabled (committed bench files stay profile-free).
pub fn with_profile_summary(mut meta: serde_json::Value, obs: &Obs) -> serde_json::Value {
    if let Some(profile) = profile_summary(obs) {
        if let serde_json::Value::Object(entries) = &mut meta {
            entries.push(("profile".to_string(), profile));
        }
    }
    meta
}

impl ObsArgs {
    /// Parses the process arguments, consuming nothing (the binaries keep
    /// their existing positional/flag handling).
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().collect();
        let value_flag = |flag: &str, env: &str| {
            let prefix = format!("{flag}=");
            let mut out = None;
            for (i, a) in argv.iter().enumerate() {
                if let Some(v) = a.strip_prefix(&prefix) {
                    out = Some(v.to_string());
                } else if a == flag {
                    out = argv.get(i + 1).cloned();
                }
            }
            out.or_else(|| std::env::var(env).ok())
        };
        Self {
            obs_dir: value_flag("--obs-dir", "ASA_OBS_DIR").map(PathBuf::from),
            progress: argv.iter().any(|a| a == "--progress")
                || std::env::var("ASA_PROGRESS").is_ok_and(|v| v == "1"),
            metrics_addr: value_flag("--metrics-addr", "ASA_METRICS_ADDR"),
        }
    }

    /// Path of the fixed-name artifact `name` under `--obs-dir`, if set.
    pub fn artifact(&self, name: &str) -> Option<PathBuf> {
        self.obs_dir.as_ref().map(|dir| dir.join(name))
    }

    /// Builds the telemetry handle: disabled unless `--obs-dir`,
    /// `--progress` or `--metrics-addr` was given. The summary table
    /// prints at flush for `--obs-dir` too, so an artifact run is
    /// self-describing.
    pub fn build(&self) -> Obs {
        if self.obs_dir.is_none() && !self.progress && self.metrics_addr.is_none() {
            return Obs::disabled();
        }
        let obs = Obs::new_enabled();
        if let Some(dir) = &self.obs_dir {
            let path = dir.join("obs.jsonl");
            let sink = std::fs::create_dir_all(dir)
                .and_then(|()| JsonlSink::create(&path))
                .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
            obs.add_sink(Box::new(sink));
            obs.attach_recorder(trace_capacity());
        }
        if self.obs_dir.is_some() || self.progress {
            obs.add_sink(Box::new(SummarySink::new(self.progress)));
        }
        if let Some(addr) = &self.metrics_addr {
            match asa_obs::expose::serve(addr, obs.clone()) {
                Ok(server) => {
                    eprintln!(
                        "serving metrics at http://{}/metrics (curl it mid-run)",
                        server.local_addr()
                    );
                    // The endpoint lives for the remainder of the process;
                    // forgetting the handle skips the stop-and-join on a
                    // thread that exits with the process anyway.
                    std::mem::forget(server);
                }
                Err(e) => eprintln!("failed to bind metrics endpoint {addr}: {e}"),
            }
        }
        obs
    }

    /// Ends the run's telemetry: writes `trace.json`, `metrics.prom`,
    /// `prof.folded` and `prof.svg` under `--obs-dir` (when set), then
    /// flushes the handle, which completes `obs.jsonl` and prints the
    /// summary. Call once, at the end.
    pub fn finish(&self, obs: &Obs) {
        if let Some(dir) = &self.obs_dir {
            if let Some(snap) = obs.trace_snapshot() {
                let path = dir.join("trace.json");
                let what = format!(
                    "Chrome trace ({} events, {} threads, {} dropped)",
                    snap.num_events(),
                    snap.threads.len(),
                    snap.total_dropped()
                );
                let write = std::fs::File::create(&path).and_then(|f| {
                    let mut w = std::io::BufWriter::new(f);
                    asa_obs::chrome::write_chrome_trace(&snap, &mut w)?;
                    std::io::Write::flush(&mut w)
                });
                report_write(&path, &what, write);
            }
            let path = dir.join("metrics.prom");
            report_write(
                &path,
                "Prometheus metrics",
                asa_obs::expose::write_to_file(obs, &path),
            );
            if let Some(profile) = obs.profile() {
                let path = dir.join("prof.folded");
                let what = format!(
                    "span profile ({} us self time, {} span paths)",
                    profile.total_us(),
                    profile.stacks.len()
                );
                report_write(&path, &what, std::fs::write(&path, profile.render()));
                let path = dir.join("prof.svg");
                let svg = asa_obs::render_flamegraph(&profile, "span profile");
                report_write(&path, "flamegraph", std::fs::write(&path, svg));
            }
        }
        let _ = obs.flush();
    }
}

fn report_write(path: &Path, what: &str, result: std::io::Result<()>) {
    match result {
        Ok(()) => eprintln!("wrote {what} to {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Simulates the FindBestCommunity kernel for a network on `cores`
/// simulated cores with the given device.
pub fn simulate(graph: &CsrGraph, cores: usize, device: Device) -> SimulatedRun {
    simulate_infomap(
        graph,
        &infomap_config(),
        &MachineConfig::baseline(cores),
        device,
    )
}

/// Renders a plain-text table with aligned columns.
///
/// When `ASA_JSON_DIR` is set, the table is additionally written as a JSON
/// document (`{title, headers, rows}`) into that directory, named by a
/// slug of the title — machine-readable results for downstream plotting.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    if let Some(dir) = std::env::var_os("ASA_JSON_DIR") {
        let _ = save_json(std::path::Path::new(&dir), title, headers, rows);
    }
    render_table_text(title, headers, rows)
}

/// JSON sidecar writer behind [`render_table`].
fn save_json(
    dir: &std::path::Path,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let slug: String = title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-");
    let doc = serde_json::json!({
        "title": title,
        "headers": headers,
        "rows": rows,
    });
    std::fs::write(
        dir.join(format!("{}.json", &slug[..slug.len().min(80)])),
        serde_json::to_string_pretty(&doc)?,
    )
}

fn render_table_text(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Formats a large count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// The five networks of the hash-operation comparison (Table V / Fig 6).
pub fn hash_networks() -> [PaperNetwork; 5] {
    PaperNetwork::hash_comparison_set()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "Demo",
            &["name", "count"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(t.contains("## Demo"));
        assert!(t.contains("| longer | 22    |"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_count(1234567), "1,234,567");
        assert_eq!(fmt_count(42), "42");
        assert_eq!(fmt_pct(0.595), "59.5%");
        assert!(fmt_secs(2.5).starts_with("2.500"));
        assert!(fmt_secs(0.002).ends_with("ms"));
    }

    #[test]
    fn json_sidecar_written() {
        let dir = std::env::temp_dir().join("asa-json-test");
        let _ = std::fs::remove_dir_all(&dir);
        save_json(
            &dir,
            "Table V: demo!",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        )
        .unwrap();
        let path = dir.join("table-v-demo.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["headers"][0], "a");
        assert_eq!(doc["rows"][0][1], "2");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn run_metadata_shape() {
        let m = run_metadata("demo", &infomap_config());
        assert_eq!(m["config_hash"].as_str().unwrap().len(), 16);
        assert!(m["threads"].as_u64().unwrap() >= 1);
        assert_eq!(m["dataset"], "demo");
        assert!(!m["rustc_version"].as_str().unwrap().is_empty());
        assert_eq!(m["scale_div"].as_u64().unwrap() as usize, scale_div());
    }

    #[test]
    fn obs_args_default_disabled() {
        // No flags, no env in the test harness: the handle must be the
        // zero-cost disabled one.
        if std::env::var_os("ASA_OBS_DIR").is_none() && std::env::var_os("ASA_PROGRESS").is_none() {
            let obs = ObsArgs::default().build();
            assert!(!obs.enabled());
        }
    }

    #[test]
    fn scale_default() {
        // Unless the env var is set by the caller, default to 64.
        if std::env::var("ASA_SCALE_DIV").is_err() {
            assert_eq!(scale_div(), 64);
        }
    }
}
