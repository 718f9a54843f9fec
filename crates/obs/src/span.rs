//! RAII span timers rolling up into a hierarchical phase profile.
//!
//! Mirrors the `tracing` span model in miniature: entering a span pushes it
//! on a thread-local stack (so nesting is inferred from call structure, not
//! passed explicitly), and dropping the guard charges the elapsed time to a
//! node in a shared phase tree. The tree is keyed by `(parent, name)`, so
//! re-entering the same phase accumulates into one node instead of growing
//! the tree per call — a sweep loop with 40 iterations yields one `decide`
//! node with `count == 40`.
//!
//! Concurrency: each thread has its own stack (per `Obs` instance), and the
//! tree itself is behind a `Mutex` taken twice per span (enter + exit).
//! Spans are intended for phase granularity — sweeps, levels, gathers — not
//! per-edge work, so two lock ops per span is noise. Snapshot order is
//! normalized (children sorted by name) so the reconstructed tree is
//! identical regardless of thread interleaving.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use crate::trace::TraceKind;
use crate::ObsInner;

/// Synthetic root node id; real spans hang below it.
const ROOT: usize = 0;

#[derive(Debug)]
struct SpanNode {
    name: &'static str,
    children: Vec<usize>,
    nanos: u64,
    count: u64,
}

/// Accumulated phase tree shared by all threads of one `Obs` instance.
#[derive(Debug)]
pub(crate) struct SpanTree {
    nodes: Vec<SpanNode>,
}

impl SpanTree {
    pub(crate) fn new() -> Self {
        SpanTree {
            nodes: vec![SpanNode {
                name: "",
                children: Vec::new(),
                nanos: 0,
                count: 0,
            }],
        }
    }

    /// Finds or creates the child of `parent` named `name`.
    fn enter(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&id) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(SpanNode {
            name,
            children: Vec::new(),
            nanos: 0,
            count: 0,
        });
        self.nodes[parent].children.push(id);
        id
    }

    fn exit(&mut self, id: usize, nanos: u64) {
        let node = &mut self.nodes[id];
        node.nanos += nanos;
        node.count += 1;
    }

    /// Top-level spans as a normalized (name-sorted) snapshot forest.
    pub(crate) fn snapshot(&self) -> Vec<SpanSnapshot> {
        self.snapshot_children(ROOT)
    }

    fn snapshot_children(&self, id: usize) -> Vec<SpanSnapshot> {
        let mut out: Vec<SpanSnapshot> = self.nodes[id]
            .children
            .iter()
            .map(|&c| {
                let node = &self.nodes[c];
                SpanSnapshot {
                    name: node.name,
                    seconds: node.nanos as f64 / 1e9,
                    nanos: node.nanos,
                    count: node.count,
                    children: self.snapshot_children(c),
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(b.name));
        out
    }
}

/// One node of the flushed phase profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Span name as passed to [`Obs::span`](crate::Obs::span).
    pub name: &'static str,
    /// Total seconds across all entries of this span (sum over `count`).
    pub seconds: f64,
    /// The same total in exact nanoseconds (what the folded profile
    /// subtracts, so self times never pick up float rounding).
    pub nanos: u64,
    /// How many times the span was entered.
    pub count: u64,
    /// Nested spans, sorted by name for interleaving-independent output.
    pub children: Vec<SpanSnapshot>,
}

impl SpanSnapshot {
    /// Depth-first walk yielding `(path, node)` with `/`-joined paths.
    pub fn walk<'a>(&'a self, prefix: &str, visit: &mut impl FnMut(&str, &'a SpanSnapshot)) {
        let path = if prefix.is_empty() {
            self.name.to_string()
        } else {
            format!("{prefix}/{}", self.name)
        };
        visit(&path, self);
        for child in &self.children {
            child.walk(&path, visit);
        }
    }
}

// Per-thread span stacks, one per live `Obs` instance (keyed by instance id
// so two handles in one process don't see each other's nesting).
thread_local! {
    static SPAN_STACKS: RefCell<Vec<(u64, Vec<usize>)>> = const { RefCell::new(Vec::new()) };
}

fn current_parent(obs_id: u64) -> usize {
    SPAN_STACKS.with(|stacks| {
        stacks
            .borrow()
            .iter()
            .find(|(id, _)| *id == obs_id)
            .and_then(|(_, stack)| stack.last().copied())
            .unwrap_or(ROOT)
    })
}

fn push_span(obs_id: u64, node: usize) {
    SPAN_STACKS.with(|stacks| {
        let mut stacks = stacks.borrow_mut();
        if let Some((_, stack)) = stacks.iter_mut().find(|(id, _)| *id == obs_id) {
            stack.push(node);
        } else {
            stacks.push((obs_id, vec![node]));
        }
    });
}

fn pop_span(obs_id: u64, node: usize) {
    SPAN_STACKS.with(|stacks| {
        let mut stacks = stacks.borrow_mut();
        if let Some(pos) = stacks.iter().position(|(id, _)| *id == obs_id) {
            let stack = &mut stacks[pos].1;
            let top = stack.pop();
            debug_assert_eq!(top, Some(node), "span guards dropped out of order");
            if stack.is_empty() {
                stacks.swap_remove(pos);
            }
        }
    });
}

/// RAII timer: created by [`Obs::span`](crate::Obs::span), charges elapsed
/// wall time to its phase-tree node on drop.
///
/// Not `Send`: a span must end on the thread that started it, because the
/// nesting stack is thread-local.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanGuard>,
    _not_send: PhantomData<*const ()>,
}

#[derive(Debug)]
struct SpanGuard {
    obs: Arc<ObsInner>,
    node: usize,
    name: &'static str,
    start: Instant,
}

impl Span {
    /// A span that measures nothing (from a disabled `Obs`).
    pub fn disabled() -> Self {
        Span {
            inner: None,
            _not_send: PhantomData,
        }
    }

    pub(crate) fn enter(obs: Arc<ObsInner>, name: &'static str) -> Self {
        let parent = current_parent(obs.id);
        let node = obs.spans.lock().unwrap().enter(parent, name);
        push_span(obs.id, node);
        // With a flight recorder attached, spans double as trace-track
        // events; without one this is a single pointer load.
        if let Some(rec) = obs.trace.get() {
            rec.record_current(name, "span", TraceKind::Begin);
        }
        Span {
            inner: Some(SpanGuard {
                obs,
                node,
                name,
                start: Instant::now(),
            }),
            _not_send: PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(guard) = self.inner.take() {
            let nanos = guard.start.elapsed().as_nanos() as u64;
            if let Some(rec) = guard.obs.trace.get() {
                rec.record_current(guard.name, "span", TraceKind::End);
            }
            pop_span(guard.obs.id, guard.node);
            guard.obs.spans.lock().unwrap().exit(guard.node, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reentry_accumulates_into_one_node() {
        let mut tree = SpanTree::new();
        let a = tree.enter(ROOT, "sweep");
        tree.exit(a, 10);
        let b = tree.enter(ROOT, "sweep");
        assert_eq!(a, b);
        tree.exit(b, 5);
        let snap = tree.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].count, 2);
        assert!((snap[0].seconds - 15e-9).abs() < 1e-15);
    }

    #[test]
    fn snapshot_children_sorted_by_name() {
        let mut tree = SpanTree::new();
        let z = tree.enter(ROOT, "zeta");
        tree.exit(z, 1);
        let a = tree.enter(ROOT, "alpha");
        tree.exit(a, 1);
        let names: Vec<_> = tree.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn walk_builds_slash_paths() {
        let mut tree = SpanTree::new();
        let run = tree.enter(ROOT, "run");
        let inner = tree.enter(run, "decide");
        tree.exit(inner, 1);
        tree.exit(run, 2);
        let snap = tree.snapshot();
        let mut paths = Vec::new();
        for root in &snap {
            root.walk("", &mut |path, _| paths.push(path.to_string()));
        }
        assert_eq!(paths, vec!["run", "run/decide"]);
    }
}
