//! Sampling-profiler lifecycle: idempotent attach, join-on-last-drop,
//! trace-id attribution mid-scope, and thread-exit safety under the
//! barrier interleavings the sampler must survive.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use asa_obs::Obs;

/// Every test here starts the background thread, and the thread tests
/// count those threads process-wide, so the tests run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Live `asa-obs` background threads per procfs. `None` when procfs is
/// unavailable (skip the assertion).
fn obs_threads() -> Option<usize> {
    let entries = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        entries
            .filter_map(Result::ok)
            .filter(|e| {
                std::fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.trim() == "asa-obs")
            })
            .count(),
    )
}

/// How long a joined thread may stay visible in procfs. This makes the
/// counts below a liveness check (no thread outlives its handles), not a
/// proof of the join: an idle thread that was only signalled sleeps out
/// the rest of a 10 ms slice, so the slack catches it about half the
/// time. `asa_obs`'s unit tests prove the join without procfs.
const JOIN_SLACK: Duration = Duration::from_millis(5);

/// [`obs_threads`] after threads were joined, read until it reaches
/// `want` or `within` passes. `join` returns once the kernel clears the
/// thread's id, a moment before it removes the thread's procfs entry, and
/// on a loaded host that moment can stretch.
fn obs_threads_settled(want: usize, within: Duration) -> Option<usize> {
    let deadline = Instant::now() + within;
    loop {
        let n = obs_threads();
        if n.is_none_or(|n| n == want) || Instant::now() >= deadline {
            return n;
        }
        std::thread::yield_now();
    }
}

#[test]
fn attach_is_idempotent_and_samples_in_background() {
    let _serial = serial();
    let obs = Obs::new_enabled();
    obs.attach_profiler(Duration::from_millis(2));
    // Second attach with a different interval is a keep-first no-op.
    obs.attach_profiler(Duration::from_secs(3600));
    assert!(obs.profiler_enabled());
    let snap = obs.prof_snapshot().unwrap();
    assert_eq!(snap.interval, Duration::from_millis(2), "first attach wins");

    // Keep a span open so the background passes have something to sample.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut samples = 0;
    while samples < 3 && Instant::now() < deadline {
        let _s = obs.span("idem.work");
        std::thread::sleep(Duration::from_millis(5));
        samples = obs.prof_snapshot().unwrap().samples;
    }
    assert!(samples >= 3, "background sampler never ran");

    obs.stop_background();
    let frozen = obs.prof_snapshot().unwrap().samples;
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        obs.prof_snapshot().unwrap().samples,
        frozen,
        "passes continued after stop"
    );
    // Stopping again (and dropping, which stops too) must not panic.
    obs.stop_background();
    drop(obs);
}

#[test]
fn dropping_the_last_handle_joins_the_sampler_thread() {
    let _serial = serial();
    // Every earlier test joined its thread before releasing the lock.
    let before = obs_threads_settled(0, Duration::from_secs(1));
    let obs = Obs::new_enabled();
    // An hours-long period: the thread sleeps in full 10 ms slices, the
    // longest an unjoined thread could linger.
    obs.attach_profiler(Duration::from_secs(3600));
    if let Some(b) = before {
        // A spawned thread sets its own name once it runs, so the count
        // may lag the spawn briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut after = obs_threads();
        while after != Some(b + 1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            after = obs_threads();
        }
        assert_eq!(after, Some(b + 1), "sampler thread not started");
    }
    drop(obs);
    // Drop joins: once it returns, the thread is gone (within the slack).
    if let (Some(b), Some(after)) = (
        before,
        before.and_then(|b| obs_threads_settled(b, JOIN_SLACK)),
    ) {
        assert_eq!(after, b, "sampler thread survived the last handle drop");
    }
}

#[test]
fn profiler_runs_on_one_background_thread_per_handle() {
    let _serial = serial();
    let Some(before) = obs_threads_settled(0, Duration::from_secs(1)) else {
        return;
    };
    let obs = Obs::new_enabled();
    // An hours-long period: the thread idles; the one pass is manual.
    obs.attach_profiler(Duration::from_secs(3600));
    // A second attach keeps the first profiler and starts no thread.
    obs.attach_profiler(Duration::from_secs(3600));
    assert!(obs.tick_profiler());
    let deadline = Instant::now() + Duration::from_secs(5);
    while obs_threads() != Some(before + 1) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        obs_threads(),
        Some(before + 1),
        "one asa-obs thread per handle"
    );
    let clone = obs.clone();
    drop(obs);
    assert_eq!(obs_threads(), Some(before + 1), "a clone keeps the thread");
    drop(clone);
    assert_eq!(
        obs_threads_settled(before, JOIN_SLACK),
        Some(before),
        "thread survived the last drop"
    );
}

#[test]
fn samples_mid_trace_scope_attribute_to_the_trace_id() {
    let _serial = serial();
    let obs = Obs::new_enabled();
    obs.attach_recorder(64);
    // Hours-long interval: the background thread stays idle and every
    // pass is a deterministic manual tick.
    obs.attach_profiler(Duration::from_secs(3600));
    let id = obs.mint_trace_id();
    assert_ne!(id.0, 0);
    {
        let _scope = obs.trace_scope(id);
        let _s = obs.span("traced.work");
        assert!(obs.tick_profiler());
    }
    {
        let _s = obs.span("untraced.work");
        assert!(obs.tick_profiler());
    }
    let snap = obs.prof_snapshot().unwrap();
    assert_eq!(snap.samples, 2);
    let traced = snap
        .stacks
        .iter()
        .find(|s| s.frames.iter().any(|f| f == "traced.work"))
        .expect("traced stack sampled");
    assert_eq!(traced.traces, vec![(id.0, 1)]);
    let untraced = snap
        .stacks
        .iter()
        .find(|s| s.frames.iter().any(|f| f == "untraced.work"))
        .expect("untraced stack sampled");
    assert!(untraced.traces.is_empty(), "{:?}", untraced.traces);
    obs.stop_background();
}

#[test]
fn thread_exit_mid_sample_never_poisons_the_aggregate() {
    let _serial = serial();
    let obs = Obs::new_enabled();
    obs.attach_profiler(Duration::from_secs(3600));
    let barrier = Arc::new(Barrier::new(2));
    let obs2 = obs.clone();
    let b2 = Arc::clone(&barrier);
    let t = std::thread::Builder::new()
        .name("doomed".into())
        .spawn(move || {
            let _s = obs2.span("doomed.work");
            b2.wait(); // (1) registered with the span open
            b2.wait(); // (2) main thread sampled us
        })
        .unwrap();
    barrier.wait(); // (1)
    assert!(obs.tick_profiler());
    barrier.wait(); // (2)
    t.join().unwrap();
    // The thread is gone; its TLS destructor marked the live stack dead.
    // Further passes prune it and keep aggregating without panicking.
    for _ in 0..3 {
        assert!(obs.tick_profiler());
    }
    let snap = obs.prof_snapshot().unwrap();
    assert_eq!(snap.samples, 4);
    let doomed: Vec<_> = snap
        .stacks
        .iter()
        .filter(|s| s.frames.iter().any(|f| f == "doomed.work"))
        .collect();
    assert_eq!(doomed.len(), 1);
    assert_eq!(doomed[0].count, 1, "dead thread sampled after exit");
    assert_eq!(doomed[0].thread, "doomed");
    obs.stop_background();
}

#[test]
fn rayon_pool_spans_sample_cleanly_under_contention() {
    let _serial = serial();
    use rayon::prelude::*;
    let obs = Obs::new_enabled();
    obs.attach_profiler(Duration::from_millis(1));
    (0u32..256).into_par_iter().for_each(|i| {
        let _outer = obs.span("pool.work");
        let _inner = obs.span(if i % 2 == 0 { "pool.even" } else { "pool.odd" });
        std::thread::sleep(Duration::from_micros(200));
    });
    obs.stop_background();
    let snap = obs.prof_snapshot().unwrap();
    assert!(snap.samples > 0, "sampler never ran during the pool burst");
    for s in &snap.stacks {
        assert!(!s.frames.is_empty());
        assert!(s.count > 0);
        // Nested frames keep call order: pool.even/odd only under pool.work.
        if s.frames.iter().any(|f| f.starts_with("pool.")) {
            assert_eq!(s.frames[0], "pool.work", "{:?}", s.frames);
        }
    }
    // The folded rendering is line-parseable.
    for line in snap.render_folded().lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack count");
        assert!(!stack.is_empty());
        count.parse::<u64>().unwrap();
    }
}
