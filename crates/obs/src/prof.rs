//! Span-stack sampling profiler: where is the CPU *right now*?
//!
//! The phase tree ([`crate::span`]) answers "where did time go on
//! average" only after a flush, and the flight recorder answers it per
//! request — neither can be watched live on a long-running service. This
//! module adds the missing continuous view: a sampling pass, run by the
//! handle's one background thread (`lib.rs`) at a fixed interval, that
//! snapshots every registered thread's *live span stack* and folds the
//! observations into a
//! Brendan-Gregg collapsed profile (`thread;span;span count`), plus a
//! self-contained flamegraph SVG renderer so no external tooling is
//! needed to read one offline.
//!
//! ## Live stacks
//!
//! The span nesting stacks in `span.rs` are plain thread-locals — only
//! the owning thread can read them. With a profiler attached, every
//! [`Span`](crate::Span) enter/exit additionally mirrors the span *name*
//! into a per-thread [`LiveStack`]: a seqlock-guarded fixed array of
//! interned frame ids that the sampler thread reads without stopping the
//! owner. The writer (the instrumented thread) bumps the epoch to odd,
//! mutates, bumps back to even; the sampler retries while the epoch is
//! odd or changed mid-read, and gives up after a few attempts rather
//! than spin (a skipped thread costs one sample of resolution, never
//! correctness). Frames are interned `u32` ids, so a torn read can at
//! worst misattribute one sample — it can never dereference a stale
//! pointer.
//!
//! Each live stack also mirrors the thread's current trace id, so
//! samples taken inside a [`TraceScope`](crate::TraceScope) attribute to
//! the request being served.
//!
//! A thread that exits marks its stacks dead from the thread-local's
//! destructor; the sampler prunes dead stacks at the next pass. The
//! `Arc` keeps the memory alive until then, so a thread exiting mid-
//! sample never poisons the aggregate.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::ObsInner;

/// Mirrored frames per thread. Span nesting is phase-granular (level >
/// sweep > decide), so this is generous; deeper stacks keep counting
/// depth but only the first `MAX_FRAMES` names are sampled, with a
/// `(deep)` marker appended.
pub(crate) const MAX_FRAMES: usize = 32;

// ---------------------------------------------------------------------------
// Frame interning

#[derive(Default)]
struct FrameTable {
    ids: HashMap<String, u32>,
    /// Names by `id - 1` (id 0 is reserved for "no frame").
    names: Vec<String>,
}

fn frame_table() -> &'static Mutex<FrameTable> {
    static FRAMES: OnceLock<Mutex<FrameTable>> = OnceLock::new();
    FRAMES.get_or_init(|| Mutex::new(FrameTable::default()))
}

/// Interns a frame name into a process-wide `u32` id (content-keyed, so
/// identical names from different call sites merge). Id 0 means "none".
pub(crate) fn frame_id(name: &str) -> u32 {
    if name.is_empty() {
        return 0;
    }
    let mut t = frame_table().lock().unwrap();
    if let Some(&id) = t.ids.get(name) {
        return id;
    }
    t.names.push(name.to_string());
    let id = t.names.len() as u32;
    t.ids.insert(name.to_string(), id);
    id
}

fn frame_name(id: u32) -> String {
    if id == 0 {
        return "?".to_string();
    }
    let t = frame_table().lock().unwrap();
    t.names
        .get(id as usize - 1)
        .cloned()
        .unwrap_or_else(|| "?".to_string())
}

fn deep_marker() -> u32 {
    static DEEP: OnceLock<u32> = OnceLock::new();
    *DEEP.get_or_init(|| frame_id("(deep)"))
}

// ---------------------------------------------------------------------------
// Live stacks (seqlock)

/// One thread's sampler-visible span stack. Single writer (the owning
/// thread), any number of seqlock readers.
pub(crate) struct LiveStack {
    /// Thread name at registration; the root frame of every folded stack.
    name: String,
    /// Seqlock epoch: odd while the owner is mutating.
    epoch: AtomicU64,
    /// Logical depth (may exceed `MAX_FRAMES`; only the first
    /// `MAX_FRAMES` frames are mirrored).
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_FRAMES],
    /// Current trace id on the owning thread (0 = none).
    trace: AtomicU64,
    /// Set by the owner's thread-local destructor; pruned by the sampler.
    dead: AtomicBool,
}

struct SampledStack {
    frames: Vec<u32>,
    trace: u64,
}

impl LiveStack {
    fn new(name: String) -> Self {
        LiveStack {
            name,
            epoch: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            trace: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    // SeqCst throughout: pushes happen at span granularity (phases, not
    // per-edge work), so the fence cost is noise — and it keeps the
    // seqlock's publication order trivially correct on every target.
    fn push(&self, id: u32) {
        let d = self.depth.load(Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if d < MAX_FRAMES {
            self.frames[d].store(id, Ordering::SeqCst);
        }
        self.depth.store(d + 1, Ordering::SeqCst);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn pop(&self) {
        let d = self.depth.load(Ordering::Relaxed);
        if d == 0 {
            return;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.depth.store(d - 1, Ordering::SeqCst);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn set_trace(&self, trace: u64) {
        self.trace.store(trace, Ordering::SeqCst);
    }

    /// Seqlock read: `None` for an idle stack or when the owner kept
    /// writing through every retry (skip, don't spin).
    fn sample(&self) -> Option<SampledStack> {
        for _ in 0..4 {
            let before = self.epoch.load(Ordering::SeqCst);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::SeqCst);
            let shown = depth.min(MAX_FRAMES);
            let mut frames = Vec::with_capacity(shown + 1);
            for f in &self.frames[..shown] {
                frames.push(f.load(Ordering::SeqCst));
            }
            let trace = self.trace.load(Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) != before {
                continue;
            }
            if depth == 0 {
                return None;
            }
            if depth > MAX_FRAMES {
                frames.push(deep_marker());
            }
            return Some(SampledStack { frames, trace });
        }
        None
    }
}

// Per-thread live stacks, one per obs instance (keyed by instance id like
// the span and trace stacks). The wrapper's destructor marks every stack
// dead so the sampler prunes threads that exited.
struct TlsStacks(Vec<(u64, Arc<LiveStack>)>);

impl Drop for TlsStacks {
    fn drop(&mut self) {
        for (_, ls) in &self.0 {
            ls.dead.store(true, Ordering::SeqCst);
        }
    }
}

thread_local! {
    static LIVE_STACKS: RefCell<TlsStacks> = const { RefCell::new(TlsStacks(Vec::new())) };
}

/// This thread's live stack for `inner`, registering one with the
/// profiler core on first use.
fn with_stack(inner: &ObsInner, f: impl FnOnce(&LiveStack)) {
    let Some(core) = inner.prof.get() else { return };
    LIVE_STACKS.with(|tls| {
        let mut tls = tls.borrow_mut();
        if let Some((_, ls)) = tls.0.iter().find(|(id, _)| *id == inner.id) {
            f(ls);
            return;
        }
        let ls = {
            let mut threads = core.threads.lock().unwrap();
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{}", threads.len()), str::to_string);
            let ls = Arc::new(LiveStack::new(name));
            threads.push(Arc::clone(&ls));
            ls
        };
        if tls.0.len() >= 8 {
            // Obs ids are monotone; entries whose profiler died are the
            // only ones left holding the last strong reference here.
            tls.0.retain(|(_, r)| Arc::strong_count(r) > 1);
        }
        tls.0.push((inner.id, Arc::clone(&ls)));
        f(&ls);
    });
}

/// Span-enter hook: mirrors `name` onto this thread's live stack.
/// Returns whether a frame was pushed (the span pops only if so, in case
/// the profiler attaches while the span is open).
pub(crate) fn on_span_enter(inner: &ObsInner, name: &'static str) -> bool {
    if inner.prof.get().is_none() {
        return false;
    }
    let id = frame_id(name);
    with_stack(inner, |ls| {
        // Refresh the mirrored trace id: entering a span is the natural
        // point at which a new request context becomes observable.
        ls.set_trace(crate::trace::current_trace(inner.id));
        ls.push(id);
    });
    true
}

/// Span-exit hook, paired with a `true` return from [`on_span_enter`].
pub(crate) fn on_span_exit(obs_id: u64) {
    LIVE_STACKS.with(|tls| {
        if let Some((_, ls)) = tls.borrow().0.iter().find(|(id, _)| *id == obs_id) {
            ls.pop();
        }
    });
}

/// Trace-scope hook: re-mirrors the current trace id after a scope push
/// or pop, so samples taken mid-scope attribute to the right request.
pub(crate) fn on_trace_update(obs_id: u64) {
    LIVE_STACKS.with(|tls| {
        if let Some((_, ls)) = tls.borrow().0.iter().find(|(id, _)| *id == obs_id) {
            ls.set_trace(crate::trace::current_trace(obs_id));
        }
    });
}

// ---------------------------------------------------------------------------
// Aggregation

#[derive(Default)]
struct StackEntry {
    count: u64,
    /// Samples per trace id (only nonzero ids; bounded cardinality).
    traces: HashMap<u64, u64>,
}

/// Trace ids retained per distinct stack (newly seen ids beyond this are
/// dropped; already-tracked ids keep counting).
const MAX_TRACES_PER_STACK: usize = 64;

#[derive(Default)]
pub(crate) struct Aggregate {
    /// Sampling passes taken (a pass visits every registered thread).
    samples: u64,
    stacks: HashMap<(String, Vec<u32>), StackEntry>,
}

/// One sampling pass over every registered live stack, pruning threads
/// that exited since the last pass.
fn sample_pass(threads: &Mutex<Vec<Arc<LiveStack>>>, agg: &mut Aggregate) {
    let stacks: Vec<Arc<LiveStack>> = {
        let mut t = threads.lock().unwrap();
        t.retain(|ls| !ls.dead.load(Ordering::SeqCst));
        t.clone()
    };
    agg.samples += 1;
    for ls in stacks {
        let Some(s) = ls.sample() else { continue };
        let entry = agg.stacks.entry((ls.name.clone(), s.frames)).or_default();
        entry.count += 1;
        if s.trace != 0
            && (entry.traces.len() < MAX_TRACES_PER_STACK || entry.traces.contains_key(&s.trace))
        {
            *entry.traces.entry(s.trace).or_insert(0) += 1;
        }
    }
}

fn snapshot_from(agg: &Aggregate, interval: Duration) -> ProfSnapshot {
    let mut stacks: Vec<FoldedStack> = agg
        .stacks
        .iter()
        .map(|((thread, frames), e)| {
            let mut traces: Vec<(u64, u64)> = e.traces.iter().map(|(&t, &n)| (t, n)).collect();
            traces.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            FoldedStack {
                thread: thread.clone(),
                frames: frames.iter().map(|&f| frame_name(f)).collect(),
                count: e.count,
                traces,
            }
        })
        .collect();
    stacks.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| a.thread.cmp(&b.thread))
            .then_with(|| a.frames.cmp(&b.frames))
    });
    ProfSnapshot {
        interval,
        samples: agg.samples,
        stacks,
    }
}

// ---------------------------------------------------------------------------
// The profiler core

/// The attached profiler: live-stack registry and folded aggregate. The
/// handle's background thread calls [`ProfCore::tick`] every `interval`.
pub(crate) struct ProfCore {
    pub(crate) interval: Duration,
    pub(crate) threads: Mutex<Vec<Arc<LiveStack>>>,
    agg: Mutex<Aggregate>,
}

impl ProfCore {
    pub(crate) fn new(interval: Duration) -> Self {
        ProfCore {
            interval: interval.max(Duration::from_millis(1)),
            threads: Mutex::new(Vec::new()),
            agg: Mutex::new(Aggregate::default()),
        }
    }

    /// One synchronous sampling pass into the cumulative aggregate.
    pub(crate) fn tick(&self) {
        let mut agg = self.agg.lock().unwrap();
        sample_pass(&self.threads, &mut agg);
    }

    /// Snapshot of the cumulative aggregate.
    pub(crate) fn snapshot(&self) -> ProfSnapshot {
        snapshot_from(&self.agg.lock().unwrap(), self.interval)
    }

    /// On-demand capture: samples into a *fresh* aggregate for
    /// `duration`, leaving the cumulative one untouched. Blocks the
    /// calling thread (the diagnostics endpoint's `/profile?seconds=N`).
    pub(crate) fn capture(&self, duration: Duration, interval: Duration) -> ProfSnapshot {
        let interval = interval.max(Duration::from_millis(1));
        let deadline = Instant::now() + duration;
        let mut agg = Aggregate::default();
        loop {
            sample_pass(&self.threads, &mut agg);
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(interval.min(deadline - now));
        }
        snapshot_from(&agg, interval)
    }
}

// ---------------------------------------------------------------------------
// Snapshot types and folded rendering

/// One distinct sampled stack: the owning thread, the frame path (root
/// first, label leaf last), how many samples landed on it, and which
/// trace ids those samples carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedStack {
    /// Thread name at registration (folded-stack root frame).
    pub thread: String,
    /// Span names root-to-leaf; a `(deep)` marker replaces frames beyond
    /// the mirror bound, and an active kernel/order label appends a leaf.
    pub frames: Vec<String>,
    /// Samples attributed to exactly this path (self time, in units of
    /// the sampling interval).
    pub count: u64,
    /// Samples per trace id, most-sampled first (0-id samples excluded).
    pub traces: Vec<(u64, u64)>,
}

impl FoldedStack {
    /// The collapsed-format key: `thread;frame;frame`, sanitized so the
    /// `name count` line format stays parseable.
    pub fn folded_key(&self) -> String {
        let mut out = sanitize_frame(&self.thread);
        for f in &self.frames {
            out.push(';');
            out.push_str(&sanitize_frame(f));
        }
        out
    }
}

fn sanitize_frame(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            ';' => ':',
            ' ' | '\n' | '\t' => '_',
            c => c,
        })
        .collect()
}

/// Point-in-time folded profile, from
/// [`Obs::prof_snapshot`](crate::Obs::prof_snapshot) (cumulative) or
/// [`Obs::capture_profile`](crate::Obs::capture_profile) (on-demand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSnapshot {
    /// Sampling interval the profile was collected at.
    pub interval: Duration,
    /// Sampling passes taken (each pass visits every registered thread).
    pub samples: u64,
    /// Distinct stacks, most-sampled first.
    pub stacks: Vec<FoldedStack>,
}

impl ProfSnapshot {
    /// Samples attributed to any stack (idle threads don't count).
    pub fn total_count(&self) -> u64 {
        self.stacks.iter().map(|s| s.count).sum()
    }

    /// Brendan-Gregg collapsed format: one `stack count` line per
    /// distinct stack, most-sampled first. Feed to any flamegraph tool,
    /// or to [`render_flamegraph`] for the built-in renderer.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            out.push_str(&s.folded_key());
            out.push(' ');
            out.push_str(&s.count.to_string());
            out.push('\n');
        }
        out
    }

    /// The top-`k` stacks by self time as `(folded key, count)` — the
    /// profile summary embedded in bench run metadata.
    pub fn top_stacks(&self, k: usize) -> Vec<(String, u64)> {
        self.stacks
            .iter()
            .take(k)
            .map(|s| (s.folded_key(), s.count))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Flamegraph SVG renderer

struct FlameNode {
    total: u64,
    children: std::collections::BTreeMap<String, FlameNode>,
}

impl FlameNode {
    fn new() -> Self {
        FlameNode {
            total: 0,
            children: std::collections::BTreeMap::new(),
        }
    }

    fn insert(&mut self, path: &[String], count: u64) {
        self.total += count;
        if let Some((head, rest)) = path.split_first() {
            self.children
                .entry(head.clone())
                .or_insert_with(FlameNode::new)
                .insert(rest, count);
        }
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(FlameNode::depth)
            .max()
            .unwrap_or(0)
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Deterministic warm-palette fill from the frame name.
fn frame_color(name: &str) -> String {
    let mut h: u32 = 2166136261;
    for b in name.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(16777619);
    }
    let r = 205 + (h % 50);
    let g = 60 + ((h >> 8) % 130);
    let b = (h >> 16) % 60;
    format!("rgb({r},{g},{b})")
}

const FLAME_WIDTH: f64 = 1200.0;
const FRAME_HEIGHT: f64 = 16.0;

fn render_node(out: &mut String, name: &str, node: &FlameNode, x: f64, width: f64, depth: usize) {
    let y = 24.0 + depth as f64 * FRAME_HEIGHT;
    let label = if width >= 60.0 {
        // ~7 px/char budget, ellipsized.
        let max_chars = (width / 7.0) as usize;
        let mut text: String = name.chars().take(max_chars).collect();
        if text.len() < name.len() {
            text.push('…');
        }
        text
    } else {
        String::new()
    };
    out.push_str(&format!(
        "<g><title>{} ({} samples)</title><rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{width:.2}\" \
         height=\"{:.2}\" fill=\"{}\" rx=\"1\"/>",
        xml_escape(name),
        node.total,
        FRAME_HEIGHT - 1.0,
        frame_color(name),
    ));
    if !label.is_empty() {
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" font-family=\"monospace\">{}</text>",
            x + 3.0,
            y + FRAME_HEIGHT - 5.0,
            xml_escape(&label)
        ));
    }
    out.push_str("</g>\n");
    let mut cx = x;
    for (child_name, child) in &node.children {
        let cw = width * child.total as f64 / node.total.max(1) as f64;
        if cw >= 0.25 {
            render_node(out, child_name, child, cx, cw, depth + 1);
        }
        cx += cw;
    }
}

/// Renders the profile as a self-contained icicle-layout flamegraph SVG
/// (root on top, children below, width ∝ samples). No external tooling
/// or scripts required to view it.
pub fn render_flamegraph(snap: &ProfSnapshot, title: &str) -> String {
    let mut root = FlameNode::new();
    for s in &snap.stacks {
        let mut path = Vec::with_capacity(s.frames.len() + 1);
        path.push(sanitize_frame(&s.thread));
        path.extend(s.frames.iter().map(|f| sanitize_frame(f)));
        root.insert(&path, s.count);
    }
    let depth = root.depth();
    let height = 24.0 + (depth as f64 + 1.0) * FRAME_HEIGHT + 8.0;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{FLAME_WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {FLAME_WIDTH} {height}\">\n"
    ));
    out.push_str(&format!(
        "<text x=\"4\" y=\"16\" font-size=\"13\" font-family=\"monospace\">{} — {} samples @ \
         {:?} interval</text>\n",
        xml_escape(title),
        snap.total_count(),
        snap.interval
    ));
    if root.total > 0 {
        render_node(&mut out, "all", &root, 0.0, FLAME_WIDTH, 0);
    } else {
        out.push_str(
            "<text x=\"4\" y=\"40\" font-size=\"12\" font-family=\"monospace\">(no samples)\
             </text>\n",
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_interning_is_content_keyed() {
        let a = frame_id("sweep");
        let b = frame_id(&format!("{}{}", "swe", "ep"));
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_eq!(frame_name(a), "sweep");
        assert_eq!(frame_id(""), 0);
        assert_eq!(frame_name(0), "?");
    }

    #[test]
    fn live_stack_push_pop_sample() {
        let ls = LiveStack::new("t0".into());
        assert!(ls.sample().is_none(), "idle stack yields no sample");
        let a = frame_id("a");
        let b = frame_id("b");
        ls.push(a);
        ls.push(b);
        ls.set_trace(7);
        let s = ls.sample().unwrap();
        assert_eq!(s.frames, vec![a, b]);
        assert_eq!(s.trace, 7);
        ls.pop();
        let s = ls.sample().unwrap();
        assert_eq!(s.frames, vec![a]);
        ls.pop();
        assert!(ls.sample().is_none());
    }

    #[test]
    fn deep_stacks_truncate_with_marker() {
        let ls = LiveStack::new("t0".into());
        let f = frame_id("f");
        for _ in 0..(MAX_FRAMES + 3) {
            ls.push(f);
        }
        let s = ls.sample().unwrap();
        assert_eq!(s.frames.len(), MAX_FRAMES + 1);
        assert_eq!(*s.frames.last().unwrap(), deep_marker());
        for _ in 0..(MAX_FRAMES + 3) {
            ls.pop();
        }
        assert!(ls.sample().is_none());
    }

    #[test]
    fn folded_render_sorted_and_sanitized() {
        let mut agg = Aggregate::default();
        let threads = Mutex::new(vec![]);
        sample_pass(&threads, &mut agg); // empty pass still counts
        agg.stacks.insert(
            ("main thread".into(), vec![frame_id("x;y")]),
            StackEntry {
                count: 3,
                traces: HashMap::new(),
            },
        );
        agg.stacks.insert(
            ("main thread".into(), vec![frame_id("z")]),
            StackEntry {
                count: 9,
                traces: HashMap::new(),
            },
        );
        let snap = snapshot_from(&agg, Duration::from_millis(10));
        assert_eq!(snap.samples, 1);
        let folded = snap.render_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines[0], "main_thread;z 9");
        assert_eq!(lines[1], "main_thread;x:y 3");
        assert_eq!(snap.top_stacks(1), vec![("main_thread;z".to_string(), 9)]);
    }

    #[test]
    fn flamegraph_svg_shape() {
        let snap = ProfSnapshot {
            interval: Duration::from_millis(10),
            samples: 12,
            stacks: vec![
                FoldedStack {
                    thread: "w0".into(),
                    frames: vec!["level".into(), "sweep".into()],
                    count: 8,
                    traces: vec![],
                },
                FoldedStack {
                    thread: "w0".into(),
                    frames: vec!["level".into()],
                    count: 4,
                    traces: vec![],
                },
            ],
        };
        let svg = render_flamegraph(&snap, "test");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("sweep"));
        assert!(svg.contains("12 samples"));
        // Balanced <g> groups: one per rendered frame.
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
        let empty = ProfSnapshot {
            interval: Duration::from_millis(10),
            samples: 0,
            stacks: vec![],
        };
        assert!(render_flamegraph(&empty, "t").contains("no samples"));
    }
}
