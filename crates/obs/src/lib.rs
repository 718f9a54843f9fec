//! `asa-obs`: zero-dependency telemetry for the Infomap/ASA stack.
//!
//! Mirrors the `tracing` span/subscriber split in miniature:
//!
//! - **Instrumentation side** — [`Obs`] hands out RAII [`Span`] timers
//!   (thread-local nesting, rolled up into one hierarchical phase profile),
//!   lock-free [`Counter`]/[`Gauge`]/[`Hist`] handles (striped atomics,
//!   exact under rayon at any thread count), and streamed [`Record`]s via
//!   [`Obs::emit`] / the [`record!`] macro.
//! - **Subscriber side** — pluggable [`Sink`]s: [`JsonlSink`] for machine
//!   consumption, [`SummarySink`] for humans; tests add their own capture
//!   sinks.
//! - **Profile** — [`Obs::profile`] folds the phase tree into exact self
//!   time per span path ([`flame`]), on demand. An enabled handle starts
//!   no thread of its own; only the metrics endpoint ([`expose::serve`])
//!   runs one.
//!
//! The disabled handle (`Obs::disabled()`, one `Option<Arc<_>>` that is
//! `None`) is the default everywhere; every operation on it is a single
//! predictable branch, which keeps fully-wired-but-off instrumentation
//! within noise of unwired code. See DESIGN.md § Observability for the span
//! taxonomy and the how-to for adding a counter.
//!
//! ```
//! use asa_obs::{record, Obs};
//!
//! let obs = Obs::new_enabled();
//! let moves = obs.counter("demo.moves");
//! {
//!     let _sweep = obs.span("sweep");
//!     moves.add(3);
//!     record!(obs, "sweep", { "moves": moves.value(), "codelength": 4.2f64 });
//! }
//! let report = obs.flush().unwrap();
//! assert_eq!(report.spans[0].name, "sweep");
//! assert_eq!(report.counters[0].value, 3);
//! ```

pub mod blackbox;
pub mod chrome;
pub mod expose;
pub mod flame;
pub mod json;
pub mod metrics;
pub mod resource;
pub mod sink;
pub mod span;
pub mod tail;
pub mod trace;

pub use flame::{render_flamegraph, FoldedProfile};
pub use json::{Record, Value};
pub use metrics::{Counter, CounterSnapshot, Gauge, GaugeSnapshot, Hist, HistSnapshot};
pub use resource::ResourceSample;
pub use sink::{FlushReport, JsonlSink, Sink, SummarySink};
pub use span::{Span, SpanSnapshot};
pub use tail::{RequestAttribution, TailReport};
pub use trace::{FlightRecorder, TraceEvent, TraceId, TraceKind, TraceScope, TraceSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use metrics::{CounterCore, GaugeCore, HistCore};
use span::SpanTree;

static NEXT_OBS_ID: AtomicU64 = AtomicU64::new(1);

/// Interns a dynamically built metric/track name into a `&'static str`.
///
/// Every metric and trace API here takes `&'static str` names so the hot
/// path never hashes or clones strings. Names whose shape is only known at
/// runtime — per-shard counter tracks like `serve.shard.3.queue.depth` —
/// go through this process-wide cache: the first request for a given
/// string leaks one copy, every later request returns the same pointer, so
/// the total leak is bounded by the set of distinct names ever used (a few
/// dozen bytes per shard index), not by how many engines are constructed.
pub fn intern_name(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<std::collections::HashMap<String, &'static str>>> =
        OnceLock::new();
    let map = INTERNED.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    let mut map = map.lock().unwrap();
    if let Some(&s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

#[derive(Default)]
struct Registry {
    counters: Vec<Arc<CounterCore>>,
    gauges: Vec<Arc<GaugeCore>>,
    hists: Vec<Arc<HistCore>>,
}

pub(crate) struct ObsInner {
    /// Process-unique id keying the thread-local span stacks.
    pub(crate) id: u64,
    start: Instant,
    pub(crate) spans: Mutex<SpanTree>,
    registry: Mutex<Registry>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    /// Flight recorder, set at most once; `get()` is one pointer load on
    /// the hot path, so span instrumentation without a recorder stays a
    /// no-op branch.
    pub(crate) trace: OnceLock<Arc<FlightRecorder>>,
}

/// Snapshots the full metric registry (shared by [`Obs::flush`] and
/// exposition).
fn registry_snapshot(
    inner: &ObsInner,
) -> (Vec<CounterSnapshot>, Vec<GaugeSnapshot>, Vec<HistSnapshot>) {
    let reg = inner.registry.lock().unwrap();
    (
        reg.counters
            .iter()
            .map(|c| metrics::snapshot_counter(c))
            .collect(),
        reg.gauges
            .iter()
            .map(|g| metrics::snapshot_gauge(g))
            .collect(),
        reg.hists
            .iter()
            .map(|h| metrics::snapshot_hist(h))
            .collect(),
    )
}

impl std::fmt::Debug for ObsInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsInner").field("id", &self.id).finish()
    }
}

/// Telemetry handle. Cheap to clone (one `Arc`); all clones share the same
/// spans, metrics, and sinks. `Obs::disabled()` is the universal default —
/// wiring code never needs to special-case "no obs".
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Arc<ObsInner>>);

impl Obs {
    /// The no-op handle: every operation is a branch on `None`.
    pub fn disabled() -> Self {
        Obs(None)
    }

    /// An enabled handle with no sinks attached yet (records go nowhere
    /// until [`add_sink`](Self::add_sink); spans/metrics still aggregate).
    pub fn new_enabled() -> Self {
        Obs(Some(Arc::new(ObsInner {
            id: NEXT_OBS_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            spans: Mutex::new(SpanTree::new()),
            registry: Mutex::new(Registry::default()),
            sinks: Mutex::new(Vec::new()),
            trace: OnceLock::new(),
        })))
    }

    /// Whether this handle records anything. Callers use this to skip
    /// work that only exists to feed telemetry (e.g. an extra codelength
    /// evaluation per sweep).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches another sink; it receives all records emitted after this
    /// call and the flush report.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        if let Some(inner) = &self.0 {
            inner.sinks.lock().unwrap().push(sink);
        }
    }

    /// Finds or creates the counter registered under `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.0 {
            None => Counter::disabled(),
            Some(inner) => {
                let mut reg = inner.registry.lock().unwrap();
                if let Some(core) = reg.counters.iter().find(|c| c.name == name) {
                    return Counter(Some(core.clone()));
                }
                let core = Arc::new(CounterCore::new(name));
                reg.counters.push(core.clone());
                Counter(Some(core))
            }
        }
    }

    /// Finds or creates the gauge registered under `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match &self.0 {
            None => Gauge::disabled(),
            Some(inner) => {
                let mut reg = inner.registry.lock().unwrap();
                if let Some(core) = reg.gauges.iter().find(|g| g.name == name) {
                    return Gauge(Some(core.clone()));
                }
                let core = Arc::new(GaugeCore::new(name));
                reg.gauges.push(core.clone());
                Gauge(Some(core))
            }
        }
    }

    /// Finds or creates the histogram registered under `name`.
    pub fn hist(&self, name: &'static str) -> Hist {
        match &self.0 {
            None => Hist::disabled(),
            Some(inner) => {
                let mut reg = inner.registry.lock().unwrap();
                if let Some(core) = reg.hists.iter().find(|h| h.name == name) {
                    return Hist(Some(core.clone()));
                }
                let core = Arc::new(HistCore::with_obs(name, inner.id));
                reg.hists.push(core.clone());
                Hist(Some(core))
            }
        }
    }

    /// Opens an RAII span; elapsed time is charged to the phase tree when
    /// the returned guard drops. Nesting follows the call stack via a
    /// thread-local span stack.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        match &self.0 {
            None => Span::disabled(),
            Some(inner) => Span::enter(inner.clone(), name),
        }
    }

    /// Streams one record to every attached sink. Prefer the [`record!`]
    /// macro, which skips building `fields` when the handle is disabled.
    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        if let Some(inner) = &self.0 {
            let rec = Record {
                kind,
                t_us: inner.start.elapsed().as_micros() as u64,
                fields,
            };
            let mut sinks = inner.sinks.lock().unwrap();
            for sink in sinks.iter_mut() {
                sink.record(&rec);
            }
        }
    }

    /// Attaches a [`FlightRecorder`] with the given per-thread event
    /// bound. Idempotent — a second call keeps the first recorder — and a
    /// no-op on a disabled handle. Once attached, every [`Span`] also
    /// records begin/end trace events and the `trace_*` methods go live.
    pub fn attach_recorder(&self, per_thread_capacity: usize) {
        if let Some(inner) = &self.0 {
            inner.trace.get_or_init(|| {
                Arc::new(FlightRecorder::new(
                    inner.id,
                    inner.start,
                    per_thread_capacity,
                ))
            });
        }
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.0.as_ref().and_then(|inner| inner.trace.get().cloned())
    }

    /// The span profile: the phase tree folded into exact self time per
    /// span path ([`FoldedProfile`]); `None` when disabled. Spans still
    /// open contribute only their closed children.
    pub fn profile(&self) -> Option<FoldedProfile> {
        let inner = self.0.as_ref()?;
        let spans = inner.spans.lock().unwrap().snapshot();
        Some(FoldedProfile::from_spans(&spans))
    }

    /// Snapshot of every registered counter/gauge/histogram; `None` when
    /// disabled. This is what exposition renders.
    pub fn metrics_snapshot(
        &self,
    ) -> Option<(Vec<CounterSnapshot>, Vec<GaugeSnapshot>, Vec<HistSnapshot>)> {
        self.0.as_ref().map(|inner| registry_snapshot(inner))
    }

    /// Whether a flight recorder is attached (and events are recorded).
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|inner| inner.trace.get().is_some())
    }

    /// Mints a fresh per-request [`TraceId`]; [`TraceId::NONE`] when no
    /// recorder is attached.
    pub fn mint_trace_id(&self) -> TraceId {
        self.recorder().map_or(TraceId::NONE, |rec| rec.mint())
    }

    /// Pins `id` as the current trace on this thread until the returned
    /// guard drops; span and instant events recorded inside carry it.
    pub fn trace_scope(&self, id: TraceId) -> TraceScope {
        match self.recorder() {
            Some(rec) => rec.scope(id),
            None => TraceScope::disabled(),
        }
    }

    /// Records a point event tagged with the current trace scope.
    #[inline]
    pub fn trace_instant(&self, name: &'static str, cat: &'static str) {
        if let Some(inner) = &self.0 {
            if let Some(rec) = inner.trace.get() {
                rec.record_current(name, cat, TraceKind::Instant);
            }
        }
    }

    /// Records a sampled counter value (rendered as a counter track by the
    /// Chrome exporter), tagged with the current trace scope.
    #[inline]
    pub fn trace_counter(&self, name: &'static str, value: i64) {
        if let Some(inner) = &self.0 {
            if let Some(rec) = inner.trace.get() {
                rec.record_current(name, "counter", TraceKind::Counter(value));
            }
        }
    }

    /// Opens an async request stage; may be closed on another thread via
    /// [`Obs::trace_async_end`] with the same `id` and `name`.
    #[inline]
    pub fn trace_async_begin(&self, id: TraceId, name: &'static str, cat: &'static str) {
        if let Some(inner) = &self.0 {
            if let Some(rec) = inner.trace.get() {
                rec.record(id.0, name, cat, TraceKind::AsyncBegin);
            }
        }
    }

    /// Closes an async request stage opened by [`Obs::trace_async_begin`].
    #[inline]
    pub fn trace_async_end(&self, id: TraceId, name: &'static str, cat: &'static str) {
        if let Some(inner) = &self.0 {
            if let Some(rec) = inner.trace.get() {
                rec.record(id.0, name, cat, TraceKind::AsyncEnd);
            }
        }
    }

    /// Snapshot of the flight recorder's rings; `None` without a recorder.
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.recorder().map(|rec| rec.snapshot())
    }

    /// Microseconds since this handle was created (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.start.elapsed().as_micros() as u64)
    }

    /// Aggregates spans and metrics into a [`FlushReport`], hands it to
    /// every sink, and returns it. `None` when disabled. Safe to call more
    /// than once; each call re-snapshots.
    pub fn flush(&self) -> Option<FlushReport> {
        let inner = self.0.as_ref()?;
        let spans = inner.spans.lock().unwrap().snapshot();
        let (counters, gauges, hists) = registry_snapshot(inner);
        let report = FlushReport {
            wall_seconds: inner.start.elapsed().as_secs_f64(),
            spans,
            counters,
            gauges,
            hists,
        };
        let mut sinks = inner.sinks.lock().unwrap();
        for sink in sinks.iter_mut() {
            sink.flush(&report);
        }
        Some(report)
    }
}

/// Emits a record without paying for field construction when `$obs` is
/// disabled:
///
/// ```
/// # use asa_obs::{Obs, record};
/// # let obs = Obs::disabled();
/// record!(obs, "sweep", { "moves": 12u64, "codelength": 3.5f64 });
/// ```
#[macro_export]
macro_rules! record {
    ($obs:expr, $kind:literal, { $($key:literal : $val:expr),* $(,)? }) => {
        if $obs.enabled() {
            $obs.emit(
                $kind,
                vec![$(($key, $crate::Value::from($val))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_cheap() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        let c = obs.counter("x");
        c.add(10);
        assert_eq!(c.value(), 0);
        let _span = obs.span("nothing");
        obs.emit("ev", vec![("k", Value::U64(1))]);
        assert!(obs.flush().is_none());
    }

    #[test]
    fn same_name_returns_same_metric() {
        let obs = Obs::new_enabled();
        let a = obs.counter("hits");
        let b = obs.counter("hits");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        let report = obs.flush().unwrap();
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].value, 5);
    }

    #[test]
    fn spans_nest_via_call_structure() {
        let obs = Obs::new_enabled();
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
            }
            {
                let _inner = obs.span("inner");
            }
        }
        let report = obs.flush().unwrap();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "outer");
        assert_eq!(report.spans[0].count, 1);
        assert_eq!(report.spans[0].children.len(), 1);
        assert_eq!(report.spans[0].children[0].name, "inner");
        assert_eq!(report.spans[0].children[0].count, 2);
    }

    #[test]
    fn two_obs_instances_do_not_share_nesting() {
        let a = Obs::new_enabled();
        let b = Obs::new_enabled();
        let _sa = a.span("a_root");
        let _sb = b.span("b_root");
        {
            let _child = b.span("child");
        }
        drop(_sb);
        let rb = b.flush().unwrap();
        assert_eq!(rb.spans.len(), 1);
        assert_eq!(rb.spans[0].name, "b_root");
        assert_eq!(rb.spans[0].children[0].name, "child");
    }

    #[test]
    fn record_macro_streams_to_sinks() {
        struct Capture(Arc<Mutex<Vec<Record>>>);
        impl Sink for Capture {
            fn record(&mut self, rec: &Record) {
                self.0.lock().unwrap().push(rec.clone());
            }
            fn flush(&mut self, _report: &FlushReport) {}
        }
        let obs = Obs::new_enabled();
        let recs = Arc::new(Mutex::new(Vec::new()));
        obs.add_sink(Box::new(Capture(Arc::clone(&recs))));
        record!(obs, "sweep", { "moves": 7u64, "dl": -0.25f64 });
        let recs = recs.lock().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, "sweep");
        assert_eq!(recs[0].fields[0], ("moves", Value::U64(7)));
    }

    #[test]
    fn flush_wall_clock_covers_span_total() {
        let obs = Obs::new_enabled();
        {
            let _s = obs.span("work");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let report = obs.flush().unwrap();
        assert!(report.wall_seconds >= report.spans[0].seconds);
        assert!(report.spans[0].seconds >= 0.004);
    }
}
