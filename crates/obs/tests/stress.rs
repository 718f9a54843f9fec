//! Concurrency stress tests for the telemetry primitives.
//!
//! The counters promise *exact* aggregation — no lost updates — at any
//! rayon thread count, and the span tree promises an
//! interleaving-independent shape (same names, same counts, name-sorted
//! children) no matter how the worker threads race, and so does the span
//! profile folded from it. CI runs this file at
//! `RAYON_NUM_THREADS=1` and `=8`; the pool-per-case tests below
//! additionally pin 1/4/8-thread pools so the matrix holds even in a
//! single CI invocation.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use asa_obs::{FlushReport, Obs};
use proptest::prelude::*;
use rayon::prelude::*;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// Flattens a flush report's span tree to `(path, count)` pairs — the
/// interleaving-independent part (seconds vary run to run).
fn span_shape(report: &FlushReport) -> Vec<(String, u64)> {
    let mut shape = Vec::new();
    for s in &report.spans {
        s.walk("", &mut |path, node| {
            shape.push((path.to_string(), node.count));
        });
    }
    shape
}

#[test]
fn counter_aggregation_exact_at_1_4_8_threads() {
    for threads in [1usize, 4, 8] {
        let obs = Obs::new_enabled();
        let c = obs.counter("stress.counter");
        let tasks = 10_000u64;
        pool(threads).install(|| {
            (0..tasks).into_par_iter().for_each(|i| {
                c.incr();
                c.add(i);
            });
        });
        let expected = tasks + tasks * (tasks - 1) / 2;
        assert_eq!(
            c.value(),
            expected,
            "{threads} threads lost counter updates"
        );
        // The flush-time registry snapshot must agree with the live value.
        let report = obs.flush().unwrap();
        let snap = report
            .counters
            .iter()
            .find(|s| s.name == "stress.counter")
            .expect("counter in flush report");
        assert_eq!(snap.value, expected);
    }
}

#[test]
fn hist_count_and_sum_exact_under_contention() {
    for threads in [1usize, 4, 8] {
        let obs = Obs::new_enabled();
        let h = obs.hist("stress.hist");
        let samples = 8_192u64;
        pool(threads).install(|| {
            (0..samples).into_par_iter().for_each(|i| h.record(i % 97));
        });
        assert_eq!(h.count(), samples, "{threads} threads lost hist samples");
        let expected_sum: u64 = (0..samples).map(|i| i % 97).sum();
        assert_eq!(h.sum(), expected_sum, "{threads} threads lost hist sum");
    }
}

#[test]
fn gauge_max_survives_racing_writers() {
    for threads in [1usize, 4, 8] {
        let obs = Obs::new_enabled();
        let g = obs.gauge("stress.gauge");
        pool(threads).install(|| {
            (0..4_096u64).into_par_iter().for_each(|i| g.set(i));
        });
        assert_eq!(g.max(), 4_095, "{threads} threads lost the gauge max");
    }
}

/// Runs `threads` OS threads through the same nested span program, with a
/// barrier so they genuinely interleave, and returns the resulting tree
/// shape.
fn run_span_program(threads: usize, reps: usize) -> Vec<(String, u64)> {
    let obs = Obs::new_enabled();
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let obs = obs.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..reps {
                    let _outer = obs.span("worker");
                    {
                        let _a = obs.span("alpha");
                        let _inner = obs.span("deep");
                    }
                    let _b = obs.span("beta");
                }
            });
        }
    });
    span_shape(&obs.flush().unwrap())
}

#[test]
fn span_tree_shape_is_interleaving_independent() {
    let reference = vec![
        ("worker".to_string(), 24u64),
        ("worker/alpha".to_string(), 24),
        ("worker/alpha/deep".to_string(), 24),
        ("worker/beta".to_string(), 24),
    ];
    // 1 thread x 24 reps, 4 x 6, 8 x 3: different parallelism and
    // interleavings, identical aggregated tree.
    for (threads, reps) in [(1, 24), (4, 6), (8, 3)] {
        let shape = run_span_program(threads, reps);
        assert_eq!(shape, reference, "{threads} threads x {reps} reps");
    }
}

/// Spins for `us` microseconds, so a span holds measurable time.
fn busy(us: u64) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

/// A span program with every shape the fold must handle: a root closed
/// on the calling thread, then nested spans on rayon workers (each task
/// a root, since the calling thread holds no span while they run), a
/// span re-entered inside itself, and a name that needs sanitizing.
fn fold_program() -> (FlushReport, String) {
    let obs = Obs::new_enabled();
    {
        let _run = obs.span("run");
        let _setup = obs.span("setup");
        busy(50);
    }
    (0..64u64).into_par_iter().for_each(|i| {
        let _task = obs.span("task");
        {
            let _alpha = obs.span("alpha");
            let _deep = obs.span("deep");
            busy(10 + i % 7);
        }
        let _outer = obs.span("recurse");
        let _inner = obs.span("recurse");
        let _odd = obs.span("odd name;x");
        busy(5);
    });
    let folded = obs.profile().unwrap().render();
    (obs.flush().unwrap(), folded)
}

#[test]
fn span_profile_folds_the_exact_tree() {
    let (report, folded) = fold_program();
    let lines: Vec<(&str, i64)> = folded
        .lines()
        .map(|line| {
            let (key, us) = line.rsplit_once(' ').expect("`path value` line");
            (key, us.parse::<i64>().expect("integer self time"))
        })
        .collect();
    assert!(lines.iter().all(|&(_, us)| us >= 0), "{folded}");

    // One line per phase-tree node, keyed by its walk path with the
    // frames sanitized: `;` only between frames, no blanks anywhere.
    let mut paths = Vec::new();
    for root in &report.spans {
        root.walk("", &mut |path, _| {
            let frames: Vec<String> = path
                .split('/')
                .map(|f| f.replace(';', ":").replace(' ', "_"))
                .collect();
            paths.push(frames.join(";"));
        });
    }
    let keys: Vec<&str> = lines.iter().map(|&(key, _)| key).collect();
    assert_eq!(keys, paths);
    assert!(
        keys.contains(&"task;recurse;recurse;odd_name:x"),
        "{keys:?}"
    );
    assert!(keys.iter().all(|k| !k.contains(' ')), "{keys:?}");

    // Self times add back up to each root's exact total, within the 1 µs
    // each line's truncation may drop.
    for root in &report.spans {
        let subtree: Vec<i64> = lines
            .iter()
            .filter(|(key, _)| *key == root.name || key.starts_with(&format!("{};", root.name)))
            .map(|&(_, us)| us)
            .collect();
        let sum = subtree.iter().sum::<i64>() as f64;
        let total_us = root.nanos as f64 / 1e3;
        assert!(
            (sum - total_us).abs() <= subtree.len() as f64,
            "{}: self times sum to {sum} µs of {total_us} µs",
            root.name
        );
        assert!(sum > 0.0, "{}", root.name);
    }
}

#[test]
fn span_profile_keys_are_interleaving_independent() {
    // The ambient pool (`RAYON_NUM_THREADS`), then 8 threads: the self
    // times differ run to run, the folded paths and their order do not.
    let keys = |folded: &str| -> Vec<String> {
        folded
            .lines()
            .map(|line| line.rsplit_once(' ').unwrap().0.to_string())
            .collect()
    };
    let ambient = keys(&fold_program().1);
    let eight = keys(&pool(8).install(|| fold_program().1));
    assert_eq!(ambient, eight);
    assert_eq!(ambient.len(), 8, "{ambient:?}");
}

#[test]
fn metrics_and_spans_mix_under_rayon() {
    // The full pattern the engines use: spans on the coordinating thread,
    // counters and hists hammered from the pool.
    let obs = Obs::new_enabled();
    let moves = obs.counter("mix.moves");
    let depth = obs.hist("mix.depth");
    for sweep in 0..4u64 {
        let _sp = obs.span("sweep");
        pool(4).install(|| {
            (0..2_500u64).into_par_iter().for_each(|i| {
                moves.incr();
                depth.record(i % 13 + sweep);
            });
        });
    }
    assert_eq!(moves.value(), 10_000);
    assert_eq!(depth.count(), 10_000);
    let report = obs.flush().unwrap();
    assert_eq!(span_shape(&report), vec![("sweep".to_string(), 4)]);
}

#[test]
fn flight_recorder_rings_stay_consistent_under_contention() {
    // Many threads recording spans and instants concurrently with
    // snapshot reads: every track stays balanced and bounded, and drop
    // accounting is exact (events recorded = retained + dropped).
    let obs = Obs::new_enabled();
    let capacity = 64usize;
    obs.attach_recorder(capacity);
    let threads = 8usize;
    let per_thread = 50u64; // 50 spans -> 100 events + 50 instants
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let obs = obs.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    let _sp = obs.span("stress");
                    obs.trace_counter("i", i as i64);
                    if i % 10 == 0 {
                        // Concurrent snapshots must not corrupt the rings.
                        let _ = obs.trace_snapshot();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = obs.trace_snapshot().unwrap();
    assert_eq!(snap.threads.len(), threads);
    for track in &snap.threads {
        assert!(track.events.len() <= capacity, "ring bound holds");
        assert_eq!(
            track.events.len() as u64 + track.dropped,
            per_thread * 3,
            "retained + dropped = recorded on tid {}",
            track.tid
        );
        assert!(
            track.events.windows(2).all(|w| w[0].t_us <= w[1].t_us),
            "track timestamps monotone"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Exactness is not an artifact of round task counts: any workload
    // split across any pool size aggregates to the reference sum.
    #[test]
    fn counter_matches_sequential_reference(
        amounts in prop::collection::vec(0u64..1_000, 1..400),
        threads in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let obs = Obs::new_enabled();
        let c = obs.counter("prop.counter");
        pool(threads).install(|| {
            amounts.par_iter().for_each(|&a| c.add(a));
        });
        prop_assert_eq!(c.value(), amounts.iter().sum::<u64>());
    }

    // Histogram count/sum/max are exact for arbitrary value streams.
    #[test]
    fn hist_matches_sequential_reference(
        values in prop::collection::vec(0u64..1_000_000, 1..400),
        threads in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let obs = Obs::new_enabled();
        let h = obs.hist("prop.hist");
        pool(threads).install(|| {
            values.par_iter().for_each(|&v| h.record(v));
        });
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        let report = obs.flush().unwrap();
        let snap = report.hists.iter().find(|s| s.name == "prop.hist").unwrap();
        prop_assert_eq!(snap.max, *values.iter().max().unwrap());
        prop_assert_eq!(
            snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            values.len() as u64
        );
    }
}
