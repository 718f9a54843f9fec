//! Prometheus-text-format exposition: render a registry snapshot as
//! `# HELP`/`# TYPE` families, write it to a file, or serve it from a
//! minimal std-only TCP endpoint — plus the strict parser CI uses to
//! validate what the benches emit.
//!
//! Rendering rules (text format 0.0.4):
//!
//! - metric names are sanitized (`.` and any other non-`[a-zA-Z0-9_:]`
//!   byte become `_`);
//! - every [`Counter`](crate::Counter) renders as `<name>_total`;
//! - every [`Gauge`](crate::Gauge) renders its last value as `<name>` and
//!   its high-water mark as `<name>_max`;
//! - every [`Hist`](crate::Hist) renders as a histogram family with
//!   cumulative `le` buckets derived from the log-bucket layout
//!   ([`HistSnapshot::le_buckets`](crate::HistSnapshot::le_buckets)),
//!   terminated by the mandatory `+Inf` bucket, plus `_sum`/`_count`;
//! - process families (`process_resident_memory_bytes`, peak RSS, CPU
//!   seconds, fds) come from [`crate::resource::sample`] when procfs is
//!   available.
//!
//! The endpoint ([`serve`]) is deliberately tiny: one listener thread,
//! blocking accept with a poll-interval stop flag, HTTP/1.0, one response
//! per connection. It exists so a long bench can be watched with `curl`,
//! not to be a web server.

use std::collections::HashSet;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{CounterSnapshot, GaugeSnapshot, HistSnapshot};
use crate::{resource, Obs};

/// Sanitizes a metric name into the Prometheus name alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

struct Renderer {
    out: String,
    seen: HashSet<String>,
}

impl Renderer {
    fn new() -> Self {
        Renderer {
            out: String::new(),
            seen: HashSet::new(),
        }
    }

    /// Opens a family; false (skip) when a sanitized-name collision
    /// already emitted it — duplicate `# TYPE` lines are invalid.
    fn family(&mut self, name: &str, kind: &str, help: &str) -> bool {
        if !self.seen.insert(name.to_string()) {
            return false;
        }
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
        true
    }

    fn sample(&mut self, name: &str, labels: &str, value: f64) {
        self.out
            .push_str(&format!("{name}{labels} {}\n", fmt_value(value)));
    }

    fn counter(&mut self, c: &CounterSnapshot) {
        let name = format!("{}_total", sanitize(c.name));
        if self.family(&name, "counter", "asa counter") {
            self.sample(&name, "", c.value as f64);
        }
    }

    fn gauge(&mut self, g: &GaugeSnapshot) {
        let name = sanitize(g.name);
        if self.family(&name, "gauge", "asa gauge (last value)") {
            self.sample(&name, "", g.last as f64);
        }
        let max_name = format!("{name}_max");
        if self.family(&max_name, "gauge", "asa gauge high-water mark") {
            self.sample(&max_name, "", g.max as f64);
        }
    }

    fn hist(&mut self, h: &HistSnapshot) {
        let name = sanitize(h.name);
        if !self.family(&name, "histogram", "asa histogram (log buckets)") {
            return;
        }
        for (le, cum) in h.le_buckets() {
            let label = format!("{{le=\"{}\"}}", fmt_value(le));
            // OpenMetrics-style exemplar: the bucket's most recent trace
            // id, linking a latency bucket to its flight-recorder trace.
            match h.exemplar_for_le(le) {
                Some((trace, value)) => {
                    self.out.push_str(&format!(
                        "{name}_bucket{label} {} # {{trace_id=\"{trace}\"}} {}\n",
                        fmt_value(cum as f64),
                        fmt_value(value as f64)
                    ));
                }
                None => self.sample(&format!("{name}_bucket"), &label, cum as f64),
            }
        }
        self.sample(&format!("{name}_sum"), "", h.sum as f64);
        let total = h.le_buckets().last().map_or(h.count, |&(_, c)| c);
        self.sample(&format!("{name}_count"), "", total as f64);
    }
}

/// Renders the handle's full registry — metrics and process resources —
/// as Prometheus text format. A disabled handle still renders the process families.
pub fn render(obs: &Obs) -> String {
    let mut r = Renderer::new();
    if let Some((counters, gauges, hists)) = obs.metrics_snapshot() {
        for c in &counters {
            r.counter(c);
        }
        for g in &gauges {
            r.gauge(g);
        }
        for h in &hists {
            r.hist(h);
        }
    }
    if let Some(rs) = resource::sample() {
        if r.family(
            "process_resident_memory_bytes",
            "gauge",
            "resident set size (VmRSS)",
        ) {
            r.sample("process_resident_memory_bytes", "", rs.rss_bytes as f64);
        }
        if r.family(
            "process_peak_resident_memory_bytes",
            "gauge",
            "peak resident set size (VmHWM)",
        ) {
            r.sample(
                "process_peak_resident_memory_bytes",
                "",
                rs.peak_rss_bytes as f64,
            );
        }
        if r.family("process_open_fds", "gauge", "open file descriptors") {
            r.sample("process_open_fds", "", rs.open_fds as f64);
        }
        if r.family(
            "process_cpu_seconds_total",
            "counter",
            "user+sys CPU time consumed",
        ) {
            r.sample(
                "process_cpu_seconds_total",
                "",
                rs.cpu_user_s + rs.cpu_sys_s,
            );
        }
        if r.family(
            "process_ctx_switches_total",
            "counter",
            "voluntary+involuntary context switches",
        ) {
            r.sample(
                "process_ctx_switches_total",
                "",
                (rs.voluntary_ctx_switches + rs.involuntary_ctx_switches) as f64,
            );
        }
    }
    r.out
}

/// Renders and writes the exposition to `path` (`metrics.prom` under a
/// bench's `--obs-dir`).
pub fn write_to_file(obs: &Obs, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, render(obs))
}

// ---------------------------------------------------------------------------
// Strict validation (used by tests, `promlint`, and CI)

/// What [`validate`] found in a well-formed exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Declared metric families.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
    /// Histogram families (each verified cumulative and +Inf-terminated).
    pub histograms: usize,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One parsed sample line.
struct Sample {
    name: String,
    le: Option<String>,
    value: f64,
    /// Whether the line carried an OpenMetrics exemplar suffix.
    exemplar: bool,
}

/// Validates an OpenMetrics exemplar suffix (everything after ` # `):
/// `{label="value",...} <finite value>`.
fn parse_exemplar(s: &str, line: &str) -> Result<(), String> {
    let s = s.trim();
    let Some(rest) = s.strip_prefix('{') else {
        return Err(format!("exemplar without labels in: {line}"));
    };
    let close = rest
        .find('}')
        .ok_or_else(|| format!("unclosed exemplar braces: {line}"))?;
    for pair in split_labels(&rest[..close]) {
        let (k, _) = pair.ok_or_else(|| format!("malformed exemplar label in: {line}"))?;
        if !valid_name(&k) {
            return Err(format!("invalid exemplar label name {k:?} in: {line}"));
        }
    }
    let mut it = rest[close + 1..].split_whitespace();
    let value = it
        .next()
        .ok_or_else(|| format!("exemplar without a value in: {line}"))?;
    let value = value
        .parse::<f64>()
        .map_err(|_| format!("unparsable exemplar value {value:?} in: {line}"))?;
    if !value.is_finite() {
        return Err(format!("non-finite exemplar value in: {line}"));
    }
    if it.next().is_some() {
        return Err(format!("trailing tokens after exemplar value: {line}"));
    }
    Ok(())
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    // Split off an exemplar suffix first: ` # ` cannot appear inside this
    // renderer's label values, and `rfind('}')` below would otherwise
    // find the exemplar's closing brace.
    let (main, exemplar_part) = match line.find(" # ") {
        Some(pos) => (line[..pos].trim_end(), Some(&line[pos + 3..])),
        None => (line, None),
    };
    let (name_labels, value_str) = match main.find('{') {
        Some(brace) => {
            let close = main
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces: {line}"))?;
            (
                (&main[..brace], Some(&main[brace + 1..close])),
                main[close + 1..].trim(),
            )
        }
        None => {
            let mut it = main.split_whitespace();
            let name = it.next().unwrap_or("");
            let value = it.next().unwrap_or("");
            if it.next().is_some() {
                return Err(format!("trailing tokens after value: {line}"));
            }
            ((name, None), value)
        }
    };
    let (name, labels) = name_labels;
    let name = name.trim();
    if !valid_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        s => s
            .parse::<f64>()
            .map_err(|_| format!("unparsable value {s:?} in: {line}"))?,
    };
    if value.is_nan() {
        return Err(format!("NaN value in: {line}"));
    }
    let mut le = None;
    if let Some(labels) = labels {
        for pair in split_labels(labels) {
            let (k, v) = pair.ok_or_else(|| format!("malformed label in: {line}"))?;
            if !valid_name(&k) {
                return Err(format!("invalid label name {k:?} in: {line}"));
            }
            if k == "le" {
                le = Some(v);
            }
        }
    }
    if let Some(ex) = exemplar_part {
        parse_exemplar(ex, line)?;
    }
    Ok(Sample {
        name: name.to_string(),
        le,
        value,
        exemplar: exemplar_part.is_some(),
    })
}

/// Splits `k="v",k2="v2"` pairs, honouring `\"` escapes inside values.
fn split_labels(s: &str) -> Vec<Option<(String, String)>> {
    let mut out = Vec::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        let Some(eq) = rest.find('=') else {
            out.push(None);
            return out;
        };
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            out.push(None);
            return out;
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, esc)) = chars.next() {
                        value.push(match esc {
                            'n' => '\n',
                            other => other,
                        });
                    }
                }
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let Some(end) = end else {
            out.push(None);
            return out;
        };
        out.push(Some((key, value)));
        rest = after[1 + end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    out
}

/// The family a sample belongs to, given the declared family set:
/// exact-name for counters/gauges, `_bucket`/`_sum`/`_count`-suffixed for
/// histograms.
fn family_of<'a>(
    name: &'a str,
    declared: &std::collections::HashMap<String, String>,
) -> Option<(String, &'a str)> {
    if declared.contains_key(name) {
        return Some((name.to_string(), ""));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if declared.get(base).is_some_and(|k| k == "histogram") {
                return Some((base.to_string(), suffix));
            }
        }
    }
    None
}

/// Strictly validates Prometheus text exposition: every sample must
/// belong to exactly one declared family, no family may be declared
/// twice or have its samples interleaved with another family's, and
/// every histogram's buckets must be cumulative (non-decreasing),
/// `+Inf`-terminated, and consistent with its `_count`. Returns the
/// summary, or every violation found.
pub fn validate(text: &str) -> Result<ExpositionSummary, Vec<String>> {
    use std::collections::HashMap;
    let mut errors = Vec::new();
    let mut declared: HashMap<String, String> = HashMap::new();
    // First pass: collect TYPE declarations (duplicates are an error).
    for line in text.lines() {
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            if !valid_name(name) {
                errors.push(format!("invalid family name in TYPE line: {line}"));
                continue;
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                errors.push(format!("unknown family kind {kind:?} for {name}"));
            }
            if declared
                .insert(name.to_string(), kind.to_string())
                .is_some()
            {
                errors.push(format!("duplicate family: {name}"));
            }
        }
    }

    struct HistCheck {
        buckets: Vec<(f64, f64)>, // (le, cumulative)
        sum: Option<f64>,
        count: Option<f64>,
    }
    let mut hists: HashMap<String, HistCheck> = HashMap::new();
    let mut blocks_seen: HashSet<String> = HashSet::new();
    let mut current_family: Option<String> = None;
    let mut samples = 0usize;

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                // A TYPE line opens a fresh block for its family.
                let name = rest.split_whitespace().next().unwrap_or("").to_string();
                if let Some(prev) = current_family.take() {
                    blocks_seen.insert(prev);
                }
                if blocks_seen.contains(&name) {
                    errors.push(format!("family {name} declared after its samples closed"));
                }
                current_family = Some(name);
            }
            continue;
        }
        let sample = match parse_sample(line) {
            Ok(s) => s,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        samples += 1;
        let Some((family, suffix)) = family_of(&sample.name, &declared) else {
            errors.push(format!("sample without a # TYPE family: {}", sample.name));
            continue;
        };
        if sample.exemplar && suffix != "_bucket" {
            errors.push(format!(
                "exemplar on non-bucket sample {} in family {family}",
                sample.name
            ));
        }
        if current_family.as_deref() != Some(family.as_str()) {
            if blocks_seen.contains(&family) {
                errors.push(format!("family {family} samples interleaved across blocks"));
            }
            if let Some(prev) = current_family.take() {
                blocks_seen.insert(prev);
            }
            current_family = Some(family.clone());
        }
        if declared.get(&family).is_some_and(|k| k == "histogram") {
            let entry = hists.entry(family.clone()).or_insert(HistCheck {
                buckets: Vec::new(),
                sum: None,
                count: None,
            });
            match suffix {
                "_bucket" => match sample.le.as_deref() {
                    Some("+Inf") => entry.buckets.push((f64::INFINITY, sample.value)),
                    Some(le) => match le.parse::<f64>() {
                        Ok(le) => entry.buckets.push((le, sample.value)),
                        Err(_) => errors.push(format!("unparsable le={le:?} in {family}")),
                    },
                    None => errors.push(format!("{family}_bucket without an le label")),
                },
                "_sum" => entry.sum = Some(sample.value),
                "_count" => entry.count = Some(sample.value),
                _ => errors.push(format!(
                    "bare sample {} for histogram {family}",
                    sample.name
                )),
            }
        }
    }

    for (family, h) in &hists {
        if h.buckets.is_empty() {
            errors.push(format!("histogram {family} has no buckets"));
            continue;
        }
        for pair in h.buckets.windows(2) {
            if pair[1].0 <= pair[0].0 {
                errors.push(format!("histogram {family} le bounds not increasing"));
            }
            if pair[1].1 < pair[0].1 {
                errors.push(format!("histogram {family} buckets not cumulative"));
            }
        }
        let last = h.buckets.last().unwrap();
        if !last.0.is_infinite() {
            errors.push(format!("histogram {family} not +Inf-terminated"));
        } else if let Some(count) = h.count {
            if (count - last.1).abs() > 0.0 {
                errors.push(format!(
                    "histogram {family} _count {count} != +Inf bucket {}",
                    last.1
                ));
            }
        }
        match h.sum {
            None => errors.push(format!("histogram {family} missing _sum")),
            Some(s) if !s.is_finite() => {
                errors.push(format!("histogram {family} _sum is non-finite"));
            }
            Some(_) => {}
        }
        if h.count.is_none() {
            errors.push(format!("histogram {family} missing _count"));
        }
    }

    if errors.is_empty() {
        Ok(ExpositionSummary {
            families: declared.len(),
            samples,
            histograms: hists.len(),
        })
    } else {
        Err(errors)
    }
}

// ---------------------------------------------------------------------------
// Scrape endpoint

/// Handle to the background scrape endpoint; stops (and joins) on drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with a `:0` request port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";
const TEXT_CONTENT_TYPE: &str = "text/plain; charset=utf-8";

/// How long the endpoint waits for a client's request head.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// The `/profile` window length: `seconds=N` clamped to [0.01, 60] s; an
/// absent, unparsable or non-finite value means the 1 s default.
fn profile_seconds(query: &str) -> f64 {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("seconds="))
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite())
        .map_or(1.0, |s| s.clamp(0.01, 60.0))
}

/// Routes one request path to `(status, content-type, body)`. Public in
/// spirit via the endpoint; kept testable without sockets.
fn respond(obs: &Obs, path: &str) -> (&'static str, &'static str, String) {
    let (route, query) = path.split_once('?').map_or((path, ""), |(r, q)| (r, q));
    match route {
        "/" | "/metrics" => ("200 OK", PROM_CONTENT_TYPE, render(obs)),
        "/profile" => {
            let before = obs.profile().unwrap_or_default();
            std::thread::sleep(Duration::from_secs_f64(profile_seconds(query)));
            let window = obs.profile().unwrap_or_default().since(&before);
            ("200 OK", TEXT_CONTENT_TYPE, window.render())
        }
        "/flame.svg" => (
            "200 OK",
            "image/svg+xml",
            crate::flame::render_flamegraph(&obs.profile().unwrap_or_default(), "asa span profile"),
        ),
        "/debug" => ("200 OK", TEXT_CONTENT_TYPE, debug_page(obs)),
        _ => (
            "404 Not Found",
            TEXT_CONTENT_TYPE,
            "not found; endpoints: /metrics /profile?seconds=N /flame.svg /debug\n".to_string(),
        ),
    }
}

/// The `/debug` text status page: uptime, resources, metric registry
/// shape, the span profile's top paths, top-k slow request stages
/// (when a flight recorder is attached), and registered black-box
/// sections.
fn debug_page(obs: &Obs) -> String {
    let mut out = String::new();
    out.push_str("# asa debug status\n\n");
    out.push_str(&format!("uptime_us: {}\n", obs.elapsed_us()));
    if let Some(rs) = resource::sample() {
        out.push_str(&format!(
            "rss_bytes: {} (peak {})\ncpu_s: {:.3} user + {:.3} sys\nopen_fds: {}\n",
            rs.rss_bytes, rs.peak_rss_bytes, rs.cpu_user_s, rs.cpu_sys_s, rs.open_fds
        ));
    }
    if let Some((counters, gauges, hists)) = obs.metrics_snapshot() {
        out.push_str(&format!(
            "\nmetrics: {} counters, {} gauges, {} histograms\n",
            counters.len(),
            gauges.len(),
            hists.len()
        ));
        for g in &gauges {
            out.push_str(&format!(
                "  gauge {} = {} (max {})\n",
                g.name, g.last, g.max
            ));
        }
    }
    if let Some(profile) = obs.profile() {
        out.push_str(&format!(
            "\nspan profile: {} us self time over {} span paths (top 5):\n",
            profile.total_us(),
            profile.stacks.len()
        ));
        for (stack, us) in profile.top(5) {
            out.push_str(&format!("  {us:>10} us {stack}\n"));
        }
    }
    if let Some(snap) = obs.trace_snapshot() {
        let tail = crate::tail::TailReport::from_snapshot(&snap, "request", 5.0);
        if !tail.tail.is_empty() {
            out.push('\n');
            out.push_str(&tail.render());
        }
    }
    let sections = crate::blackbox::section_names();
    if !sections.is_empty() {
        out.push_str(&format!("\nblackbox sections: {}\n", sections.join(", ")));
    }
    out
}

/// Reads one request head, up to the blank line that ends it, the buffer
/// size or [`REQUEST_TIMEOUT`], and returns the path of its request line.
/// `None` when no complete request line arrived.
fn read_request_path(conn: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    let mut buf = [0u8; 2048];
    let mut len = 0;
    while len < buf.len() && !buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match conn.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let (line, _) = head.split_once('\n')?;
    line.split_whitespace().nth(1).map(str::to_string)
}

/// Binds `addr` (e.g. `127.0.0.1:9184`, or port 0 for ephemeral) and
/// serves the handle's diagnostics to every connection: the
/// `ASA_METRICS_ADDR` live endpoint. Routes: `/metrics` (Prometheus
/// exposition, re-rendered per request so a `curl` mid-bench sees
/// current values), `/profile?seconds=N` (the self time each span path
/// gained over an N-second window, folded), `/flame.svg` (the span
/// profile's flamegraph), `/debug` (text status).
pub fn serve(addr: &str, obs: Obs) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("asa-metrics-http".into())
        .spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut conn, _)) => {
                        let _ = conn.set_nonblocking(false);
                        let Some(path) = read_request_path(&mut conn) else {
                            continue;
                        };
                        let (status, ctype, body) = respond(&obs, &path);
                        let head = format!(
                            "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                            body.len()
                        );
                        let _ = conn.write_all(head.as_bytes());
                        let _ = conn.write_all(body.as_bytes());
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
        })
        .expect("spawn metrics endpoint");
    Ok(MetricsServer {
        addr: local,
        stop,
        thread: Some(thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_seconds_rejects_non_finite_values() {
        assert_eq!(profile_seconds("seconds=nan"), 1.0);
        assert_eq!(profile_seconds("seconds=inf"), 1.0);
        assert_eq!(profile_seconds("seconds=-inf"), 1.0);
        assert_eq!(profile_seconds("seconds=-1"), 0.01);
        assert_eq!(profile_seconds("x=1&seconds=2.5"), 2.5);
        assert_eq!(profile_seconds("seconds=1e9"), 60.0);
        assert_eq!(profile_seconds(""), 1.0);
    }

    #[test]
    fn respond_survives_nan_inf_and_negative_seconds() {
        // NaN and ∞ fall back to the 1 s default window, -1 clamps to 10 ms.
        let enabled = Obs::new_enabled();
        for (obs, q) in [
            (&enabled, "nan"),
            (&enabled, "inf"),
            (&enabled, "-1"),
            (&Obs::disabled(), "-1"),
        ] {
            let (status, _, body) = respond(obs, &format!("/profile?seconds={q}"));
            assert_eq!(status, "200 OK", "{q}");
            assert!(body.is_empty(), "{q}: nothing ran in the window");
        }
    }
}
