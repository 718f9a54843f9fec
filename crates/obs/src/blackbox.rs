//! Crash/shutdown black-box: one JSON diagnostic bundle.
//!
//! When a long-running service dies — panic, SIGTERM-driven shutdown, or
//! an operator pulling the plug — the question is "what did the process
//! look like at the end?". This module renders everything the attached
//! observability stack knows into a single self-describing JSON document:
//! the flight recorder's last events per thread, the metric registry, a
//! resource snapshot, the span profile (exact self time per span path,
//! [`crate::flame`]), plus any *extra
//! sections* the embedding layer registered (the serve engine contributes
//! per-shard queue depths and partition-store occupancy).
//!
//! Two triggers write a bundle:
//!
//! - **Shutdown**: the serve engine calls [`write_bundle`] at the end of
//!   its drain path, so every clean exit leaves a final flight record.
//! - **Panic**: [`install_panic_hook`] arms a process-global chained
//!   panic hook. The hook holds only a `Weak` to the obs state (armed
//!   state never extends its lifetime) and delegates to whatever hook was
//!   installed before it, so the usual backtrace still prints.
//!
//! The JSON is hand-written with [`crate::json`] — this crate stays
//! dependency-free — and designed to be read with nothing fancier than
//! `python3 -m json.tool`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::json::write_json_string;
use crate::trace::TraceKind;
use crate::{Obs, ObsInner};

/// Trace events retained per thread track in a bundle (the newest ones;
/// the in-memory ring may hold far more than a post-mortem needs).
const MAX_EVENTS_PER_THREAD: usize = 256;

/// Span paths retained in a bundle's profile section (the most self
/// time first).
const MAX_PROFILE_STACKS: usize = 128;

// ---------------------------------------------------------------------------
// Extra sections

type SectionFn = Box<dyn Fn() -> String + Send + Sync>;
type SectionTable = Mutex<Vec<Option<(String, SectionFn)>>>;

fn sections() -> &'static SectionTable {
    static SECTIONS: OnceLock<SectionTable> = OnceLock::new();
    SECTIONS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Unregisters its section on drop, so a dead engine's closures (and the
/// `Weak` state they capture) don't linger in the process-global table.
#[must_use = "dropping the guard unregisters the section"]
pub struct SectionGuard {
    idx: usize,
}

impl Drop for SectionGuard {
    fn drop(&mut self) {
        if let Some(slot) = sections().lock().unwrap().get_mut(self.idx) {
            *slot = None;
        }
    }
}

/// Registers an extra bundle section: `render` must return one complete
/// JSON value (object, array, or scalar — already encoded), emitted under
/// `"sections": {"<name>": <value>}` in every subsequent bundle. The
/// closure must not panic and must not take locks that a panicking thread
/// might hold. Returns a guard that unregisters on drop.
pub fn register_section(
    name: &str,
    render: impl Fn() -> String + Send + Sync + 'static,
) -> SectionGuard {
    let mut secs = sections().lock().unwrap();
    secs.push(Some((name.to_string(), Box::new(render))));
    SectionGuard {
        idx: secs.len() - 1,
    }
}

/// Names of currently registered extra sections (diagnostics/debug page).
pub fn section_names() -> Vec<String> {
    sections()
        .lock()
        .unwrap()
        .iter()
        .flatten()
        .map(|(n, _)| n.clone())
        .collect()
}

// ---------------------------------------------------------------------------
// Bundle rendering

fn push_key(out: &mut String, key: &str) {
    write_json_string(key, out);
    out.push(':');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn render_resource(out: &mut String) {
    match crate::resource::sample() {
        None => out.push_str("null"),
        Some(rs) => {
            let _ = write!(
                out,
                "{{\"rss_bytes\":{},\"peak_rss_bytes\":{},\"cpu_user_s\":",
                rs.rss_bytes, rs.peak_rss_bytes
            );
            push_f64(out, rs.cpu_user_s);
            out.push_str(",\"cpu_sys_s\":");
            push_f64(out, rs.cpu_sys_s);
            let _ = write!(
                out,
                ",\"voluntary_ctx_switches\":{},\"involuntary_ctx_switches\":{},\"open_fds\":{}}}",
                rs.voluntary_ctx_switches, rs.involuntary_ctx_switches, rs.open_fds
            );
        }
    }
}

fn render_metrics(out: &mut String, obs: &Obs) {
    let Some((counters, gauges, hists)) = obs.metrics_snapshot() else {
        out.push_str("null");
        return;
    };
    out.push_str("{\"counters\":[");
    for (i, c) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(c.name, out);
        let _ = write!(out, ",\"value\":{}}}", c.value);
    }
    out.push_str("],\"gauges\":[");
    for (i, g) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(g.name, out);
        let _ = write!(out, ",\"last\":{},\"max\":{}}}", g.last, g.max);
    }
    out.push_str("],\"hists\":[");
    for (i, h) in hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_string(h.name, out);
        let _ = write!(
            out,
            ",\"count\":{},\"sum\":{},\"max\":{}}}",
            h.count, h.sum, h.max
        );
    }
    out.push_str("]}");
}

fn render_flight_recorder(out: &mut String, obs: &Obs) {
    let Some(snap) = obs.trace_snapshot() else {
        out.push_str("null");
        return;
    };
    out.push_str("{\"threads\":[");
    for (i, track) in snap.threads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let skipped = track.events.len().saturating_sub(MAX_EVENTS_PER_THREAD);
        let _ = write!(out, "{{\"tid\":{},\"name\":", track.tid);
        write_json_string(&track.name, out);
        let _ = write!(
            out,
            ",\"dropped\":{},\"truncated\":{},\"events\":[",
            track.dropped, skipped
        );
        for (j, ev) in track.events.iter().skip(skipped).enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_us\":{},\"trace\":{},\"name\":",
                ev.t_us, ev.trace
            );
            write_json_string(ev.name, out);
            out.push_str(",\"cat\":");
            write_json_string(ev.cat, out);
            let kind = match ev.kind {
                TraceKind::Begin => "begin",
                TraceKind::End => "end",
                TraceKind::AsyncBegin => "async_begin",
                TraceKind::AsyncEnd => "async_end",
                TraceKind::Instant => "instant",
                TraceKind::Counter(_) => "counter",
            };
            let _ = write!(out, ",\"kind\":\"{kind}\"");
            if let TraceKind::Counter(v) = ev.kind {
                let _ = write!(out, ",\"value\":{v}");
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

fn render_profile(out: &mut String, obs: &Obs) {
    let Some(profile) = obs.profile() else {
        out.push_str("null");
        return;
    };
    let _ = write!(
        out,
        "{{\"total_us\":{},\"truncated\":{},\"folded\":[",
        profile.total_us(),
        profile.stacks.len().saturating_sub(MAX_PROFILE_STACKS)
    );
    for (i, (stack, us)) in profile.top(MAX_PROFILE_STACKS).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&format!("{stack} {us}"), out);
    }
    out.push_str("]}");
}

/// Renders the full diagnostic bundle as one JSON object. Callable at any
/// time (the "black box" is just a view of live state); missing layers —
/// no recorder, or a disabled handle's metrics and profile — render as
/// `null` rather than being omitted, so consumers can distinguish "not
/// attached" from "attached but empty".
pub fn render_bundle(obs: &Obs, reason: &str) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\"bundle\":\"asa-blackbox\",\"version\":1,\"reason\":");
    write_json_string(reason, &mut out);
    let _ = write!(out, ",\"t_us\":{}", obs.elapsed_us());
    out.push_str(",\"resource\":");
    render_resource(&mut out);
    out.push_str(",\"metrics\":");
    render_metrics(&mut out, obs);
    out.push_str(",\"flight_recorder\":");
    render_flight_recorder(&mut out, obs);
    out.push_str(",\"profile\":");
    render_profile(&mut out, obs);
    out.push_str(",\"sections\":{");
    {
        let secs = sections().lock().unwrap();
        let mut first = true;
        for (name, render) in secs.iter().flatten() {
            if !first {
                out.push(',');
            }
            first = false;
            push_key(&mut out, name);
            out.push_str(&render());
        }
    }
    out.push_str("}}");
    out
}

/// Renders and writes a bundle to `path` (best-effort directory-less
/// write; the caller picks a writable location).
pub fn write_bundle(path: &Path, obs: &Obs, reason: &str) -> std::io::Result<()> {
    std::fs::write(path, render_bundle(obs, reason))
}

// ---------------------------------------------------------------------------
// Panic hook

type Armed = Option<(Weak<ObsInner>, PathBuf)>;

fn armed() -> &'static Mutex<Armed> {
    static ARMED: OnceLock<Mutex<Armed>> = OnceLock::new();
    ARMED.get_or_init(|| Mutex::new(None))
}

/// Arms the panic black-box: any panic on any thread (first one wins —
/// the hook runs before unwinding, so a worker panic is captured even if
/// the process aborts) writes a bundle for `obs` to `path`, then chains
/// to the previously installed hook. The armed state holds only a `Weak`
/// reference; re-arming replaces the target, [`clear_panic_hook`]
/// disarms. A no-op on a disabled handle.
pub fn install_panic_hook(obs: &Obs, path: &Path) {
    let Some(inner) = &obs.0 else { return };
    *armed().lock().unwrap() = Some((Arc::downgrade(inner), path.to_path_buf()));
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Snapshot the armed state without holding the lock across
            // rendering (a render closure might itself panic — keep the
            // surface small).
            let target = armed().lock().ok().and_then(|g| g.clone());
            if let Some((weak, path)) = target {
                if let Some(strong) = weak.upgrade() {
                    let msg = info
                        .payload()
                        .downcast_ref::<&str>()
                        .copied()
                        .map(str::to_string)
                        .or_else(|| info.payload().downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic payload>".to_string());
                    let loc = info
                        .location()
                        .map_or_else(|| "<unknown>".to_string(), ToString::to_string);
                    let obs = Obs(Some(strong));
                    let _ = write_bundle(&path, &obs, &format!("panic: {msg} at {loc}"));
                }
            }
            prev(info);
        }));
    });
}

/// Disarms the panic black-box (the chained hook stays installed but does
/// nothing while disarmed). Call from tests and from engine teardown so a
/// later unrelated panic doesn't overwrite a bundle.
pub fn clear_panic_hook() {
    *armed().lock().unwrap() = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_renders_all_core_sections() {
        let obs = Obs::new_enabled();
        obs.counter("bb.hits").add(3);
        obs.gauge("bb.depth").set(2);
        obs.hist("bb.lat").record(40);
        obs.attach_recorder(64);
        {
            let _s = obs.span("bb.outer");
            let _inner = obs.span("bb.work");
        }
        let json = render_bundle(&obs, "test");
        for key in [
            "\"bundle\":\"asa-blackbox\"",
            "\"reason\":\"test\"",
            "\"resource\":",
            "\"metrics\":",
            "\"flight_recorder\":",
            "\"profile\":",
            "\"sections\":{",
            "bb.hits",
            "bb.work",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The profile section carries the closed span by its path.
        assert!(json.contains("\"bb.outer;bb.work "), "{json}");
    }

    #[test]
    fn missing_layers_render_as_null() {
        let json = render_bundle(&Obs::new_enabled(), "bare");
        assert!(json.contains("\"flight_recorder\":null"));
        assert!(json.contains("\"profile\":{\"total_us\":0,\"truncated\":0,\"folded\":[]}"));
        let json = render_bundle(&Obs::disabled(), "off");
        assert!(json.contains("\"metrics\":null"));
        assert!(json.contains("\"profile\":null"));
    }

    #[test]
    fn extra_sections_register_and_unregister() {
        let guard = register_section("test.extra", || "{\"x\":1}".to_string());
        assert!(section_names().iter().any(|n| n == "test.extra"));
        let obs = Obs::new_enabled();
        let json = render_bundle(&obs, "s");
        assert!(json.contains("\"test.extra\":{\"x\":1}"));
        drop(guard);
        assert!(!section_names().iter().any(|n| n == "test.extra"));
        let json = render_bundle(&obs, "s");
        assert!(!json.contains("test.extra"));
    }
}
