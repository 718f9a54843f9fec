//! Request-scoped flight recorder: per-thread ring buffers of timestamped
//! trace events, keyed by a [`TraceId`] threaded through the serving stack.
//!
//! The aggregate side of this crate (spans, counters, histograms) answers
//! "where does time go on average"; the flight recorder answers "where did
//! *this* request's time go". Each recording thread owns a bounded ring of
//! [`TraceEvent`]s behind its own mutex — the lock is effectively
//! uncontended (only the owning thread records into it; only a snapshot
//! reader ever competes), so recording costs one timestamp read plus one
//! short critical section. When a ring fills, the oldest events are
//! overwritten and the drop is *counted*, never silent.
//!
//! Event vocabulary (mirroring the Chrome trace-event model the exporter
//! targets):
//!
//! - [`TraceKind::Begin`]/[`TraceKind::End`] — synchronous span edges on
//!   the recording thread's track. [`crate::Span`] emits these
//!   automatically when a recorder is attached.
//! - [`TraceKind::AsyncBegin`]/[`TraceKind::AsyncEnd`] — request-stage
//!   edges that may start and end on different threads (queue wait,
//!   dispatch); paired by `(trace, name)` on one per-request async track.
//! - [`TraceKind::Instant`] — point events (cancellation, degradation rung
//!   transitions).
//! - [`TraceKind::Counter`] — sampled counter values (queue depth).
//!
//! A [`TraceScope`] pins the *current* trace id on the executing thread
//! (thread-local stack, keyed by obs instance like span nesting), so
//! deeply nested instrumentation — Infomap's per-sweep spans, the SPA
//! kernels — tags its events with the request being served without any
//! plumbing through the call graph.
//!
//! Disabled cost: a handle without a recorder attached pays one pointer
//! load per potential event (`OnceLock::get` on `None`), which keeps the
//! always-on serving path within the crate's ≤5 % overhead budget (gated
//! by `hostperf --obs-overhead` in CI).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of one traced request, minted by
/// [`Obs::mint_trace_id`](crate::Obs::mint_trace_id). `TraceId::NONE`
/// (zero) marks events recorded outside any request scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "no request" id carried by events recorded outside any
    /// [`TraceScope`].
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// What a [`TraceEvent`] marks. See the module docs for the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Synchronous span opened on the recording thread.
    Begin,
    /// Synchronous span closed on the recording thread.
    End,
    /// Request stage opened (may close on another thread).
    AsyncBegin,
    /// Request stage closed.
    AsyncEnd,
    /// Point event.
    Instant,
    /// Sampled counter value.
    Counter(i64),
}

/// One recorded event. `t_us` is microseconds since the owning
/// [`Obs`](crate::Obs) handle was created — the same timebase as
/// [`Record::t_us`](crate::Record) — so ring events and sink records
/// correlate directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the obs epoch.
    pub t_us: u64,
    /// Owning request (0 = none).
    pub trace: u64,
    /// Event name (span name, stage name, counter name).
    pub name: &'static str,
    /// Category, e.g. `"span"`, `"request"`, `"infomap"`, `"sim"`.
    pub cat: &'static str,
    /// Event kind.
    pub kind: TraceKind,
}

#[derive(Debug, Default)]
struct RingState {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// One thread's bounded event ring. Only the owning thread records into
/// it; snapshots briefly take the same mutex.
#[derive(Debug)]
struct ThreadRing {
    tid: u64,
    name: String,
    state: Mutex<RingState>,
}

impl ThreadRing {
    fn record(&self, capacity: usize, ev: TraceEvent) {
        let mut state = self.state.lock().unwrap();
        if state.events.len() >= capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(ev);
    }
}

/// All events recorded by one thread, in recording order, plus how many
/// older events the bounded ring overwrote.
#[derive(Debug, Clone)]
pub struct ThreadTrack {
    /// Dense per-recorder thread id (registration order).
    pub tid: u64,
    /// OS thread name at registration, or `thread-<tid>`.
    pub name: String,
    /// Events overwritten by the ring bound (0 = complete record).
    pub dropped: u64,
    /// Retained events, oldest first, timestamps non-decreasing.
    pub events: Vec<TraceEvent>,
}

/// Point-in-time copy of every thread's ring, ordered by `tid`. Input to
/// the [`chrome`](crate::chrome) exporter and [`tail`](crate::tail)
/// attribution.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// One track per thread that recorded at least one event.
    pub threads: Vec<ThreadTrack>,
}

impl TraceSnapshot {
    /// Total retained events across all threads.
    pub fn num_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total overwritten events across all threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// The recorder behind one enabled [`Obs`](crate::Obs) handle. Created by
/// [`Obs::attach_recorder`](crate::Obs::attach_recorder).
#[derive(Debug)]
pub struct FlightRecorder {
    obs_id: u64,
    epoch: Instant,
    per_thread_capacity: usize,
    next_trace: AtomicU64,
    threads: Mutex<Vec<Arc<ThreadRing>>>,
}

// Per-thread ring lookup cache: one entry per live recorder this thread
// has recorded into. Obs ids are never reused, so a stale entry can only
// belong to a dropped recorder; those are pruned when the cache grows.
thread_local! {
    static RING_CACHE: RefCell<Vec<(u64, Arc<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

// Per-thread current-trace stacks, keyed by obs instance id exactly like
// the span nesting stacks in `span.rs`.
thread_local! {
    static TRACE_STACKS: RefCell<Vec<(u64, Vec<u64>)>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn current_trace(obs_id: u64) -> u64 {
    TRACE_STACKS.with(|stacks| {
        stacks
            .borrow()
            .iter()
            .find(|(id, _)| *id == obs_id)
            .and_then(|(_, stack)| stack.last().copied())
            .unwrap_or(0)
    })
}

fn push_trace(obs_id: u64, trace: u64) {
    TRACE_STACKS.with(|stacks| {
        let mut stacks = stacks.borrow_mut();
        if let Some((_, stack)) = stacks.iter_mut().find(|(id, _)| *id == obs_id) {
            stack.push(trace);
        } else {
            stacks.push((obs_id, vec![trace]));
        }
    });
}

fn pop_trace(obs_id: u64) {
    TRACE_STACKS.with(|stacks| {
        let mut stacks = stacks.borrow_mut();
        if let Some(pos) = stacks.iter().position(|(id, _)| *id == obs_id) {
            let stack = &mut stacks[pos].1;
            stack.pop();
            if stack.is_empty() {
                stacks.swap_remove(pos);
            }
        }
    });
}

impl FlightRecorder {
    pub(crate) fn new(obs_id: u64, epoch: Instant, per_thread_capacity: usize) -> Self {
        FlightRecorder {
            obs_id,
            epoch,
            per_thread_capacity: per_thread_capacity.max(16),
            next_trace: AtomicU64::new(1),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Per-thread event bound the recorder was attached with.
    pub fn per_thread_capacity(&self) -> usize {
        self.per_thread_capacity
    }

    /// Mints the next request id (never [`TraceId::NONE`]).
    pub fn mint(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// This thread's ring, registering it (dense tid, OS thread name) on
    /// first use. Subsequent calls hit a thread-local cache.
    fn ring(&self) -> Arc<ThreadRing> {
        RING_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(id, _)| *id == self.obs_id) {
                return Arc::clone(ring);
            }
            let ring = {
                let mut threads = self.threads.lock().unwrap();
                let tid = threads.len() as u64;
                let name = std::thread::current()
                    .name()
                    .map_or_else(|| format!("thread-{tid}"), str::to_string);
                let ring = Arc::new(ThreadRing {
                    tid,
                    name,
                    state: Mutex::new(RingState::default()),
                });
                threads.push(Arc::clone(&ring));
                ring
            };
            if cache.len() >= 8 {
                // Obs ids are monotone: entries whose recorder died are the
                // only ones left with a single strong reference here.
                cache.retain(|(_, r)| Arc::strong_count(r) > 1);
            }
            cache.push((self.obs_id, Arc::clone(&ring)));
            ring
        })
    }

    /// Records one event tagged with an explicit trace id.
    pub(crate) fn record(
        &self,
        trace: u64,
        name: &'static str,
        cat: &'static str,
        kind: TraceKind,
    ) {
        let ev = TraceEvent {
            t_us: self.now_us(),
            trace,
            name,
            cat,
            kind,
        };
        self.ring().record(self.per_thread_capacity, ev);
    }

    /// Records one event tagged with the thread's current trace scope.
    pub(crate) fn record_current(&self, name: &'static str, cat: &'static str, kind: TraceKind) {
        self.record(current_trace(self.obs_id), name, cat, kind);
    }

    pub(crate) fn scope(&self, trace: TraceId) -> TraceScope {
        push_trace(self.obs_id, trace.0);
        TraceScope {
            obs_id: Some(self.obs_id),
            _not_send: PhantomData,
        }
    }

    /// Copies every thread's ring, ordered by tid. Threads may keep
    /// recording concurrently; each track is internally consistent
    /// (single-lock copy, timestamps non-decreasing).
    pub fn snapshot(&self) -> TraceSnapshot {
        let threads = self.threads.lock().unwrap().clone();
        let mut tracks: Vec<ThreadTrack> = threads
            .iter()
            .map(|ring| {
                let state = ring.state.lock().unwrap();
                ThreadTrack {
                    tid: ring.tid,
                    name: ring.name.clone(),
                    dropped: state.dropped,
                    events: state.events.iter().cloned().collect(),
                }
            })
            .collect();
        tracks.sort_by_key(|t| t.tid);
        TraceSnapshot { threads: tracks }
    }
}

/// RAII guard pinning the current [`TraceId`] on this thread; nested
/// scopes restore the outer id on drop. Obtained from
/// [`Obs::trace_scope`](crate::Obs::trace_scope).
///
/// Not `Send`: the current-trace stack is thread-local, so a scope must
/// end on the thread that opened it.
#[derive(Debug)]
pub struct TraceScope {
    obs_id: Option<u64>,
    _not_send: PhantomData<*const ()>,
}

impl TraceScope {
    /// A scope that pins nothing (from a disabled or recorder-less obs).
    pub fn disabled() -> Self {
        TraceScope {
            obs_id: None,
            _not_send: PhantomData,
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(obs_id) = self.obs_id.take() {
            pop_trace(obs_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn disabled_obs_trace_calls_are_inert() {
        let obs = Obs::disabled();
        assert!(!obs.trace_enabled());
        assert!(obs.mint_trace_id().is_none());
        let _scope = obs.trace_scope(TraceId(7));
        obs.trace_instant("x", "t");
        obs.trace_counter("c", 3);
        obs.trace_async_begin(TraceId(7), "stage", "t");
        obs.trace_async_end(TraceId(7), "stage", "t");
        assert!(obs.trace_snapshot().is_none());
    }

    #[test]
    fn enabled_obs_without_recorder_records_nothing() {
        let obs = Obs::new_enabled();
        assert!(!obs.trace_enabled());
        assert!(obs.mint_trace_id().is_none());
        obs.trace_instant("x", "t");
        assert!(obs.trace_snapshot().is_none());
        // Spans still work and do not panic without a recorder.
        let _sp = obs.span("work");
    }

    #[test]
    fn spans_emit_balanced_begin_end_with_current_trace() {
        let obs = Obs::new_enabled();
        obs.attach_recorder(1024);
        let id = obs.mint_trace_id();
        assert!(!id.is_none());
        {
            let _scope = obs.trace_scope(id);
            let _outer = obs.span("outer");
            let _inner = obs.span("inner");
        }
        let _untagged = obs.span("later");
        drop(_untagged);
        let snap = obs.trace_snapshot().unwrap();
        assert_eq!(snap.threads.len(), 1);
        let events = &snap.threads[0].events;
        let kinds: Vec<_> = events.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("outer", TraceKind::Begin),
                ("inner", TraceKind::Begin),
                ("inner", TraceKind::End),
                ("outer", TraceKind::End),
                ("later", TraceKind::Begin),
                ("later", TraceKind::End),
            ]
        );
        for e in &events[..4] {
            assert_eq!(e.trace, id.0, "scoped span events carry the trace id");
        }
        assert_eq!(events[4].trace, 0, "outside the scope the id is NONE");
        // Timestamps never go backwards within a track.
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn nested_scopes_restore_outer_id() {
        let obs = Obs::new_enabled();
        obs.attach_recorder(64);
        let a = obs.mint_trace_id();
        let b = obs.mint_trace_id();
        assert_ne!(a, b);
        let _sa = obs.trace_scope(a);
        obs.trace_instant("in_a", "t");
        {
            let _sb = obs.trace_scope(b);
            obs.trace_instant("in_b", "t");
        }
        obs.trace_instant("back_in_a", "t");
        let snap = obs.trace_snapshot().unwrap();
        let ev = &snap.threads[0].events;
        assert_eq!(ev[0].trace, a.0);
        assert_eq!(ev[1].trace, b.0);
        assert_eq!(ev[2].trace, a.0);
    }

    #[test]
    fn ring_bound_overwrites_oldest_and_counts_drops() {
        let obs = Obs::new_enabled();
        obs.attach_recorder(16);
        for _ in 0..100 {
            obs.trace_instant("tick", "t");
        }
        let snap = obs.trace_snapshot().unwrap();
        let track = &snap.threads[0];
        assert_eq!(track.events.len(), 16);
        assert_eq!(track.dropped, 84);
        assert_eq!(snap.total_dropped(), 84);
        assert_eq!(snap.num_events(), 16);
    }

    #[test]
    fn threads_get_distinct_tids_and_names() {
        let obs = Obs::new_enabled();
        obs.attach_recorder(256);
        obs.trace_instant("main", "t");
        let mut handles = Vec::new();
        for i in 0..3 {
            let obs = obs.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rec-{i}"))
                    .spawn(move || {
                        let _sp = obs.span("thread_work");
                        obs.trace_counter("work", i);
                    })
                    .unwrap(),
            );
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = obs.trace_snapshot().unwrap();
        assert_eq!(snap.threads.len(), 4);
        let mut tids: Vec<u64> = snap.threads.iter().map(|t| t.tid).collect();
        tids.dedup();
        assert_eq!(tids, vec![0, 1, 2, 3], "dense tids in registration order");
        let names: Vec<&str> = snap.threads.iter().map(|t| t.name.as_str()).collect();
        for i in 0..3 {
            assert!(names.iter().any(|n| *n == format!("rec-{i}")));
        }
    }

    #[test]
    fn two_recorders_do_not_share_scopes_or_rings() {
        let a = Obs::new_enabled();
        let b = Obs::new_enabled();
        a.attach_recorder(64);
        b.attach_recorder(64);
        let id_a = a.mint_trace_id();
        let _scope = a.trace_scope(id_a);
        a.trace_instant("on_a", "t");
        b.trace_instant("on_b", "t");
        let sa = a.trace_snapshot().unwrap();
        let sb = b.trace_snapshot().unwrap();
        assert_eq!(sa.threads[0].events.len(), 1);
        assert_eq!(sb.threads[0].events.len(), 1);
        assert_eq!(sa.threads[0].events[0].trace, id_a.0);
        assert_eq!(sb.threads[0].events[0].trace, 0, "b has no scope active");
    }

    #[test]
    fn async_events_carry_explicit_ids_across_threads() {
        let obs = Obs::new_enabled();
        obs.attach_recorder(64);
        let id = obs.mint_trace_id();
        obs.trace_async_begin(id, "queue", "request");
        let obs2 = obs.clone();
        std::thread::spawn(move || obs2.trace_async_end(id, "queue", "request"))
            .join()
            .unwrap();
        let snap = obs.trace_snapshot().unwrap();
        let all: Vec<&TraceEvent> = snap.threads.iter().flat_map(|t| &t.events).collect();
        assert_eq!(all.len(), 2);
        assert!(all
            .iter()
            .all(|e| e.trace == id.0 && e.name == "queue" && e.cat == "request"));
    }
}
