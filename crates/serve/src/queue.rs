//! Bounded MPMC job queue with two priority classes.
//!
//! One mutex + condvar over a pair of `VecDeque`s. Admission control is
//! the point: `push` never blocks and never grows past the per-class
//! bound — a full class rejects immediately so the caller can shed the
//! request ([`crate::Outcome::Overloaded`]) instead of building an
//! unbounded backlog. Consumers ([`JobQueue::pop_wait`]) drain
//! interactive work strictly before batch work and wait a bounded time
//! when both classes are empty, so an idle shard worker can interleave
//! steal attempts with waiting on its own queue.
//!
//! Foreign shards use [`JobQueue::steal_batch`]: a non-blocking take of
//! the *oldest* queued batch item. Interactive items are never
//! stealable; they stay affine to the shard whose caches are warm for
//! their graph.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::request::Priority;

#[derive(Debug)]
struct Inner<T> {
    interactive: VecDeque<T>,
    batch: VecDeque<T>,
    closed: bool,
}

impl<T> Inner<T> {
    fn depth(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }
}

/// Rejection returned by [`JobQueue::push`], handing the item back.
#[derive(Debug)]
pub enum PushError<T> {
    /// The class's queue is at capacity.
    Full(T),
    /// The queue was closed; no new work is admitted.
    Closed(T),
}

/// Outcome of a bounded-wait dequeue ([`JobQueue::pop_wait`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// An item was taken (interactive class first, FIFO within a class).
    Item(Priority, T),
    /// The wait elapsed with both classes empty; the queue is still open.
    Empty,
    /// The queue is closed *and* drained — no item will ever appear again.
    Closed,
}

/// Bounded two-class MPMC queue. See the module docs.
#[derive(Debug)]
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: [usize; 2],
}

fn class_index(priority: Priority) -> usize {
    match priority {
        Priority::Interactive => 0,
        Priority::Batch => 1,
    }
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `cap_interactive` queued interactive and
    /// `cap_batch` queued batch items.
    pub fn new(cap_interactive: usize, cap_batch: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: [cap_interactive, cap_batch],
        }
    }

    /// Admits `item` into its class, or rejects without blocking.
    /// On success returns the total queue depth after the push.
    pub fn push(&self, priority: Priority, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        let class = match priority {
            Priority::Interactive => &mut inner.interactive,
            Priority::Batch => &mut inner.batch,
        };
        if class.len() >= self.capacity[class_index(priority)] {
            return Err(PushError::Full(item));
        }
        class.push_back(item);
        let depth = inner.depth();
        drop(inner);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Takes the next item, interactive class first (FIFO within a
    /// class). Returns [`Popped::Empty`] when `timeout` elapses with
    /// nothing queued, and [`Popped::Closed`] once the queue is closed
    /// *and* drained, so workers exit only after finishing admitted work.
    pub fn pop_wait(&self, timeout: Duration) -> Popped<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.interactive.pop_front() {
                return Popped::Item(Priority::Interactive, item);
            }
            if let Some(item) = inner.batch.pop_front() {
                return Popped::Item(Priority::Batch, item);
            }
            if inner.closed {
                return Popped::Closed;
            }
            let (guard, wait) = self.ready.wait_timeout(inner, timeout).unwrap();
            inner = guard;
            if wait.timed_out() && inner.interactive.is_empty() && inner.batch.is_empty() {
                return if inner.closed {
                    Popped::Closed
                } else {
                    Popped::Empty
                };
            }
        }
    }

    /// Non-blocking take of the oldest queued *batch* item, for work
    /// stealing by a foreign shard. Interactive items are never exposed:
    /// they stay affine to their routed shard. Stealing the oldest item
    /// (the same end the owner pops) preserves batch FIFO fairness — the
    /// job most at risk of expiring in place is the one that leaves.
    pub fn steal_batch(&self) -> Option<T> {
        self.inner.lock().unwrap().batch.pop_front()
    }

    /// Current total depth across both classes.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().depth()
    }

    /// Current batch-class depth only (the stealable backlog).
    pub fn batch_depth(&self) -> usize {
        self.inner.lock().unwrap().batch.len()
    }

    /// Stops admission and wakes every waiting consumer. Items already
    /// queued are still drained by `pop_wait`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Blocking take: `pop_wait` with a wait no passing test reaches.
    fn pop(q: &JobQueue<i32>) -> Option<(Priority, i32)> {
        match q.pop_wait(Duration::from_secs(60)) {
            Popped::Item(priority, item) => Some((priority, item)),
            Popped::Closed => None,
            Popped::Empty => panic!("nothing arrived within 60 s"),
        }
    }

    #[test]
    fn fifo_within_class_priority_across() {
        let q = JobQueue::new(8, 8);
        q.push(Priority::Batch, 10).unwrap();
        q.push(Priority::Interactive, 1).unwrap();
        q.push(Priority::Batch, 11).unwrap();
        q.push(Priority::Interactive, 2).unwrap();
        assert_eq!(q.depth(), 4);
        assert_eq!(pop(&q), Some((Priority::Interactive, 1)));
        assert_eq!(pop(&q), Some((Priority::Interactive, 2)));
        assert_eq!(pop(&q), Some((Priority::Batch, 10)));
        assert_eq!(pop(&q), Some((Priority::Batch, 11)));
    }

    #[test]
    fn bounded_per_class() {
        let q = JobQueue::new(1, 2);
        q.push(Priority::Interactive, 1).unwrap();
        assert!(matches!(
            q.push(Priority::Interactive, 2),
            Err(PushError::Full(2))
        ));
        // Batch capacity is independent of the interactive class.
        q.push(Priority::Batch, 3).unwrap();
        q.push(Priority::Batch, 4).unwrap();
        assert!(matches!(
            q.push(Priority::Batch, 5),
            Err(PushError::Full(5))
        ));
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn close_rejects_then_drains() {
        let q = JobQueue::new(4, 4);
        q.push(Priority::Batch, 7).unwrap();
        q.close();
        assert!(matches!(
            q.push(Priority::Interactive, 1),
            Err(PushError::Closed(1))
        ));
        assert_eq!(pop(&q), Some((Priority::Batch, 7)));
        assert_eq!(pop(&q), None);
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(JobQueue::new(4, 4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || pop(&q))
            })
            .collect();
        q.push(Priority::Interactive, 42).unwrap();
        q.push(Priority::Batch, 43).unwrap();
        q.close();
        let mut got: Vec<Option<(Priority, i32)>> =
            consumers.into_iter().map(|c| c.join().unwrap()).collect();
        got.sort_by_key(|r| r.map(|(_, v)| v));
        assert_eq!(
            got,
            vec![
                None,
                Some((Priority::Interactive, 42)),
                Some((Priority::Batch, 43)),
            ]
        );
    }

    #[test]
    fn steal_takes_oldest_batch_never_interactive() {
        let q = JobQueue::new(4, 4);
        q.push(Priority::Interactive, 1).unwrap();
        q.push(Priority::Batch, 10).unwrap();
        q.push(Priority::Batch, 11).unwrap();
        assert_eq!(q.steal_batch(), Some(10), "steal the oldest batch item");
        assert_eq!(q.steal_batch(), Some(11));
        assert_eq!(q.steal_batch(), None, "interactive items are not stealable");
        assert_eq!((q.depth(), q.batch_depth()), (1, 0));
        assert_eq!(pop(&q), Some((Priority::Interactive, 1)));
    }

    #[test]
    fn pop_wait_times_out_then_delivers_then_closes() {
        let q = JobQueue::new(4, 4);
        assert_eq!(q.pop_wait(Duration::from_millis(5)), Popped::Empty);
        q.push(Priority::Batch, 9).unwrap();
        assert_eq!(
            q.pop_wait(Duration::from_millis(5)),
            Popped::Item(Priority::Batch, 9)
        );
        q.close();
        assert_eq!(q.pop_wait(Duration::from_millis(5)), Popped::Closed);
    }

    #[test]
    fn pop_wait_drains_before_reporting_closed() {
        let q = JobQueue::new(4, 4);
        q.push(Priority::Batch, 3).unwrap();
        q.close();
        assert_eq!(
            q.pop_wait(Duration::from_millis(5)),
            Popped::Item(Priority::Batch, 3)
        );
        assert_eq!(q.pop_wait(Duration::from_millis(5)), Popped::Closed);
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let q = JobQueue::new(0, 0);
        assert!(matches!(
            q.push(Priority::Interactive, 1),
            Err(PushError::Full(1))
        ));
        assert!(matches!(
            q.push(Priority::Batch, 2),
            Err(PushError::Full(2))
        ));
    }
}
