//! Integration tests for the continuous-telemetry collector: ring
//! semantics under wrap-around, counter-reset delta correction, windowed
//! quantile queries against a brute-force recompute (proptest), and
//! collector-thread lifecycle idempotence.

use std::time::Duration;

use asa_obs::{Obs, TimeSeriesConfig, TimeSeriesStore};
use proptest::prelude::*;

use asa_obs::{CounterSnapshot, GaugeSnapshot};

/// Collector config whose background thread never gets a chance to tick:
/// all samples in these tests come from explicit `tick_collector` calls,
/// so content is deterministic.
fn manual_collector() -> TimeSeriesConfig {
    TimeSeriesConfig {
        resolution: Duration::from_secs(3600),
        slots: 64,
    }
}

#[test]
fn collector_derives_rate_and_level_series_from_live_metrics() {
    let obs = Obs::new_enabled();
    obs.attach_collector(manual_collector());
    let c = obs.counter("t.jobs");
    let g = obs.gauge("t.depth");
    let h = obs.hist("t.lat");

    c.add(10);
    g.set(3);
    h.record(100);
    assert!(obs.tick_collector());
    c.add(40);
    g.set(7);
    h.record(200);
    assert!(obs.tick_collector());

    let store = obs.timeseries().unwrap();
    assert_eq!(store.ticks(), 2);
    // Counter → positive rate; gauge → last level; hist → quantiles.
    let jobs = store.points("t.jobs").unwrap();
    assert_eq!(jobs.len(), 2);
    assert!(jobs.iter().all(|p| p.value >= 0.0));
    let depth = store.points("t.depth").unwrap();
    assert_eq!(depth.last().unwrap().value, 7.0);
    assert!(store.points("t.lat.p95").is_some());
    assert!(store.points("t.lat.rate").is_some());
}

#[test]
fn ring_wraps_keeping_only_newest_slots() {
    let store = TimeSeriesStore::new(TimeSeriesConfig {
        resolution: Duration::from_millis(250),
        slots: 8,
    });
    for i in 0..50u64 {
        let gauges = [GaugeSnapshot {
            name: "w.level",
            last: i,
            max: i,
        }];
        store.record_tick((i + 1) * 1_000, &[], &gauges, &[]);
    }
    let pts = store.points("w.level").unwrap();
    assert_eq!(pts.len(), 8, "ring holds exactly `slots` samples");
    let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
    assert_eq!(values, (42..50).map(|v| v as f64).collect::<Vec<_>>());
    // Points stay time-ordered across the wrap seam.
    assert!(pts.windows(2).all(|w| w[0].t_us < w[1].t_us));
}

#[test]
fn counter_reset_never_yields_negative_rates() {
    let store = TimeSeriesStore::new(manual_collector());
    let totals = [100u64, 250, 40, 90]; // 40 < 250: process restarted
    for (i, &total) in totals.iter().enumerate() {
        let counters = [CounterSnapshot {
            name: "r.events",
            value: total,
        }];
        store.record_tick((i as u64 + 1) * 1_000_000, &counters, &[], &[]);
    }
    let pts = store.points("r.events").unwrap();
    assert!(pts.iter().all(|p| p.value >= 0.0), "rates: {pts:?}");
    // The reset tick counts the fresh total as the delta: 40 events / 1 s.
    assert_eq!(pts[2].value, 40.0);
    // And the series resumes normal deltas afterwards: (90-40) / 1 s.
    assert_eq!(pts[3].value, 50.0);
}

#[test]
fn collector_thread_start_and_stop_are_idempotent() {
    let obs = Obs::new_enabled();
    // Fast resolution: the thread should produce ticks on its own.
    obs.attach_collector(TimeSeriesConfig {
        resolution: Duration::from_millis(5),
        slots: 256,
    });
    // Second attach with different parameters is a keep-first no-op.
    obs.attach_collector(TimeSeriesConfig {
        resolution: Duration::from_secs(3600),
        slots: 2,
    });
    let store = obs.timeseries().unwrap();
    assert_eq!(store.config().slots, 256, "first attach wins");

    let _c = obs.counter("idem.count");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while store.ticks() < 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(store.ticks() >= 3, "background thread never ticked");

    obs.stop_background();
    let after = store.ticks();
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(store.ticks(), after, "ticks continued after stop");
    // Stopping again (and dropping, which stops too) must not panic.
    obs.stop_background();
    drop(obs);
    // Store stays readable after every handle is gone.
    assert_eq!(store.ticks(), after);
}

#[test]
fn dropping_the_last_handle_retires_the_collector_thread() {
    let obs = Obs::new_enabled();
    obs.attach_collector(TimeSeriesConfig {
        resolution: Duration::from_millis(5),
        slots: 16,
    });
    let store = obs.timeseries().unwrap();
    drop(obs);
    // After the drop the thread has exited (join happens in drop); no
    // further ticks can land.
    let frozen = store.ticks();
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(store.ticks(), frozen);
}

/// Brute-force reference for the windowed nearest-rank quantile.
fn brute_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn windowed_quantiles_match_brute_force(
        values in prop::collection::vec(0.0f64..1e6, 1..120),
        slots in 2usize..160,
        q in 0.01f64..1.0,
        window_ticks in 1usize..140,
    ) {
        let store = TimeSeriesStore::new(TimeSeriesConfig {
            resolution: Duration::from_millis(250),
            slots,
        });
        for (i, &v) in values.iter().enumerate() {
            let gauges = [GaugeSnapshot { name: "pq.level", last: v as u64, max: v as u64 }];
            store.record_tick((i as u64 + 1) * 1_000_000, &[], &gauges, &[]);
        }
        // What the ring actually retains, re-derived independently: the
        // newest `min(len, slots)` integer-truncated values...
        let retained: Vec<f64> = values
            .iter()
            .map(|&v| (v as u64) as f64)
            .skip(values.len().saturating_sub(slots))
            .collect();
        // ...then clipped to the query window (ticks are 1 s apart and the
        // window is measured back from the newest sample, inclusive).
        let in_window: Vec<f64> = retained
            .iter()
            .copied()
            .skip(retained.len().saturating_sub(window_ticks))
            .collect();
        let seconds = (window_ticks as f64 - 1.0).max(0.0);
        let got = store.window_quantile("pq.level", seconds, q).unwrap();
        let want = brute_quantile(&in_window, q);
        prop_assert_eq!(got, want, "window={} q={} retained={:?}", seconds, q, retained);

        // The window aggregates agree with the same reference slice.
        let w = store.window("pq.level", seconds).unwrap();
        prop_assert_eq!(w.samples, in_window.len());
        let want_max = in_window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.max, want_max);
    }
}
