//! Continuous time-series telemetry: a lock-light ring of fixed-interval
//! samples behind every registered metric.
//!
//! The aggregate metrics in [`crate::metrics`] answer "how much since the
//! process started"; this module answers "how much *per second, right
//! now*" — the shape a health engine ([`crate::slo`]) or a scrape endpoint
//! ([`crate::expose`]) needs. A [`TimeSeriesStore`] holds one bounded ring
//! of `(t_us, value)` points per derived series:
//!
//! - every [`Counter`](crate::Counter) becomes a **rate** series
//!   (delta / tick interval, in events per second). Deltas are
//!   reset-correct: a cumulative value that *decreases* is treated as a
//!   restart, so the new total counts as this interval's delta instead of
//!   producing a negative rate;
//! - every [`Gauge`](crate::Gauge) becomes a **level** series (last set
//!   value at each tick);
//! - every [`Hist`](crate::Hist) becomes three **quantile** series
//!   (`<name>.p50`/`.p95`/`.p99`) plus a `<name>.rate` sample-rate series.
//!
//! Ticks are fed either by the handle's background thread
//! ([`Obs::attach_collector`](crate::Obs::attach_collector)) at the
//! configured resolution, or manually
//! ([`Obs::tick_collector`](crate::Obs::tick_collector)) for deterministic
//! tests. The store itself is passive — [`record_tick`](
//! TimeSeriesStore::record_tick) accepts any snapshot slices, so ring
//! semantics are testable without an `Obs` at all.
//!
//! Lock discipline: one mutex around the series table, taken once per tick
//! (4/s at the default 250 ms resolution) and briefly per query; observers
//! run *after* the table lock is released so they can query freely.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::metrics::{CounterSnapshot, GaugeSnapshot, HistSnapshot};

/// Sampling resolution and retention of a [`TimeSeriesStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSeriesConfig {
    /// Interval between collector ticks. Also the rate denominator's
    /// nominal value (the actual elapsed time between ticks is used).
    pub resolution: Duration,
    /// Ring capacity per series; older samples are overwritten. The
    /// default 4096 slots × 250 ms retain ~17 minutes.
    pub slots: usize,
}

impl Default for TimeSeriesConfig {
    fn default() -> Self {
        TimeSeriesConfig {
            resolution: Duration::from_millis(250),
            slots: 4096,
        }
    }
}

/// How a series' values were derived from its source metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Counter delta per second.
    Rate,
    /// Gauge level at the tick.
    Level,
    /// Histogram quantile estimate at the tick.
    Quantile,
}

/// One ring sample: value at `t_us` microseconds since the obs epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Microseconds since the owning obs handle was created (the same
    /// timebase as [`Record::t_us`](crate::Record) and trace events).
    pub t_us: u64,
    /// Sampled value (rate, level, or quantile per [`SeriesKind`]).
    pub value: f64,
}

/// Summary of the samples inside one query window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Samples in the window.
    pub samples: usize,
    /// Most recent sample.
    pub last: f64,
    /// Smallest sample in the window.
    pub min: f64,
    /// Largest sample in the window.
    pub max: f64,
    /// Arithmetic mean over the window.
    pub avg: f64,
}

/// Name/kind/occupancy listing of one series, for exposition.
#[derive(Debug, Clone)]
pub struct SeriesInfo {
    /// Series name (metric name, possibly with a `.p95`-style suffix).
    pub name: String,
    /// Derivation kind.
    pub kind: SeriesKind,
    /// Samples currently retained (≤ configured slots).
    pub samples: usize,
    /// Most recent sample value (0 when empty).
    pub last: f64,
}

struct Series {
    name: String,
    kind: SeriesKind,
    /// Ring storage: grows to `slots`, then `head` wraps.
    ring: Vec<SeriesPoint>,
    /// Next write position once the ring is full.
    head: usize,
    /// Last raw cumulative value, for rate series' delta computation.
    last_raw: f64,
}

impl Series {
    fn new(name: String, kind: SeriesKind) -> Self {
        Series {
            name,
            kind,
            ring: Vec::new(),
            head: 0,
            last_raw: 0.0,
        }
    }

    fn push(&mut self, slots: usize, p: SeriesPoint) {
        if self.ring.len() < slots {
            self.ring.push(p);
        } else {
            self.ring[self.head] = p;
            self.head = (self.head + 1) % slots;
        }
    }

    /// Retained points, oldest first.
    fn points(&self) -> Vec<SeriesPoint> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    fn last(&self) -> Option<SeriesPoint> {
        if self.ring.is_empty() {
            None
        } else if self.head == 0 {
            // Not yet wrapped, or wrapped exactly to the start: the
            // newest sample is the final element either way.
            self.ring.last().copied()
        } else {
            Some(self.ring[self.head - 1])
        }
    }
}

#[derive(Default)]
struct Inner {
    index: HashMap<String, usize>,
    series: Vec<Series>,
    ticks: u64,
    last_t_us: u64,
}

impl Inner {
    fn ensure(&mut self, name: &str, kind: SeriesKind) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.series.len();
        self.series.push(Series::new(name.to_string(), kind));
        self.index.insert(name.to_string(), i);
        i
    }
}

/// Observer invoked after every tick with the store itself; registered by
/// the SLO wiring in `asa-serve`. Runs on whichever thread ticked (the
/// background thread, or the caller of a manual tick).
pub type TickObserver = Box<dyn Fn(&TimeSeriesStore) + Send>;

/// The per-handle series table. Obtain via
/// [`Obs::timeseries`](crate::Obs::timeseries) after
/// [`Obs::attach_collector`](crate::Obs::attach_collector), or construct
/// directly for tests.
pub struct TimeSeriesStore {
    cfg: TimeSeriesConfig,
    inner: Mutex<Inner>,
    observers: Mutex<Vec<TickObserver>>,
}

impl std::fmt::Debug for TimeSeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("TimeSeriesStore")
            .field("series", &inner.series.len())
            .field("ticks", &inner.ticks)
            .finish()
    }
}

impl TimeSeriesStore {
    /// An empty store with the given resolution/retention.
    pub fn new(cfg: TimeSeriesConfig) -> Self {
        TimeSeriesStore {
            cfg: TimeSeriesConfig {
                slots: cfg.slots.max(2),
                ..cfg
            },
            inner: Mutex::new(Inner::default()),
            observers: Mutex::new(Vec::new()),
        }
    }

    /// The configured resolution/retention.
    pub fn config(&self) -> &TimeSeriesConfig {
        &self.cfg
    }

    /// Ticks recorded so far.
    pub fn ticks(&self) -> u64 {
        self.inner.lock().unwrap().ticks
    }

    /// Timestamp of the most recent tick (µs since the obs epoch).
    pub fn last_t_us(&self) -> u64 {
        self.inner.lock().unwrap().last_t_us
    }

    /// Registers a post-tick observer. Observers run in registration
    /// order after the series table lock is released, on the ticking
    /// thread. An observer must not register further observers (the
    /// observer list lock is held during delivery) and must not stop the
    /// background thread from inside a tick.
    pub fn add_observer(&self, f: TickObserver) {
        self.observers.lock().unwrap().push(f);
    }

    /// Ingests one tick of metric snapshots, deriving every series'
    /// next sample at time `t_us`:
    ///
    /// - counters → `<name>` rate = delta / elapsed (reset-correct: a
    ///   decreased cumulative value counts entirely as this interval's
    ///   delta);
    /// - gauges → `<name>` level;
    /// - histograms → `<name>.p50`/`.p95`/`.p99` quantiles and
    ///   `<name>.rate` sample rate.
    ///
    /// Metrics registered after earlier ticks simply start their series
    /// late. The elapsed interval is measured from the previous tick
    /// (from 0 for the first), clamped to ≥ 1 µs.
    pub fn record_tick(
        &self,
        t_us: u64,
        counters: &[CounterSnapshot],
        gauges: &[GaugeSnapshot],
        hists: &[HistSnapshot],
    ) {
        {
            let mut inner = self.inner.lock().unwrap();
            let dt_s = (t_us.saturating_sub(inner.last_t_us).max(1)) as f64 / 1e6;
            let slots = self.cfg.slots;
            for c in counters {
                let i = inner.ensure(c.name, SeriesKind::Rate);
                let s = &mut inner.series[i];
                let raw = c.value as f64;
                let delta = if raw < s.last_raw {
                    raw
                } else {
                    raw - s.last_raw
                };
                s.last_raw = raw;
                s.push(
                    slots,
                    SeriesPoint {
                        t_us,
                        value: delta / dt_s,
                    },
                );
            }
            for g in gauges {
                let i = inner.ensure(g.name, SeriesKind::Level);
                inner.series[i].push(
                    slots,
                    SeriesPoint {
                        t_us,
                        value: g.last as f64,
                    },
                );
            }
            for h in hists {
                for (suffix, q) in [(".p50", 0.50), (".p95", 0.95), (".p99", 0.99)] {
                    let name = format!("{}{suffix}", h.name);
                    let i = inner.ensure(&name, SeriesKind::Quantile);
                    inner.series[i].push(
                        slots,
                        SeriesPoint {
                            t_us,
                            value: h.quantile(q),
                        },
                    );
                }
                let name = format!("{}.rate", h.name);
                let i = inner.ensure(&name, SeriesKind::Rate);
                let s = &mut inner.series[i];
                let raw = h.count as f64;
                let delta = if raw < s.last_raw {
                    raw
                } else {
                    raw - s.last_raw
                };
                s.last_raw = raw;
                s.push(
                    slots,
                    SeriesPoint {
                        t_us,
                        value: delta / dt_s,
                    },
                );
            }
            inner.ticks += 1;
            inner.last_t_us = t_us;
        }
        let observers = self.observers.lock().unwrap();
        for f in observers.iter() {
            f(self);
        }
    }

    /// Every series' name, kind, occupancy, and latest value.
    pub fn series(&self) -> Vec<SeriesInfo> {
        let inner = self.inner.lock().unwrap();
        inner
            .series
            .iter()
            .map(|s| SeriesInfo {
                name: s.name.clone(),
                kind: s.kind,
                samples: s.ring.len(),
                last: s.last().map_or(0.0, |p| p.value),
            })
            .collect()
    }

    /// Retained points of one series, oldest first. `None` for an unknown
    /// name.
    pub fn points(&self, name: &str) -> Option<Vec<SeriesPoint>> {
        let inner = self.inner.lock().unwrap();
        let &i = inner.index.get(name)?;
        Some(inner.series[i].points())
    }

    /// The samples of `name` within the last `seconds` (relative to that
    /// series' newest sample, inclusive: `t_us ≥ newest − seconds`),
    /// oldest first. `None` for an unknown or empty series.
    pub fn window_values(&self, name: &str, seconds: f64) -> Option<Vec<f64>> {
        let points = self.points(name)?;
        let newest = points.last()?.t_us;
        let cutoff = newest.saturating_sub((seconds.max(0.0) * 1e6) as u64);
        Some(
            points
                .iter()
                .filter(|p| p.t_us >= cutoff)
                .map(|p| p.value)
                .collect(),
        )
    }

    /// Min/max/avg/last over the window. `None` for an unknown or empty
    /// series.
    pub fn window(&self, name: &str, seconds: f64) -> Option<WindowStats> {
        let values = self.window_values(name, seconds)?;
        let last = *values.last()?;
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &v in &values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        Some(WindowStats {
            samples: values.len(),
            last,
            min,
            max,
            avg: sum / values.len() as f64,
        })
    }

    /// Nearest-rank quantile of the window's samples: with `n` samples
    /// sorted ascending, reports the `ceil(q·n)`-th (1-based, clamped).
    /// `None` for an unknown or empty series.
    pub fn window_quantile(&self, name: &str, seconds: f64, q: f64) -> Option<f64> {
        let mut values = self.window_values(name, seconds)?;
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let rank = (q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize;
        Some(values[rank.clamp(1, values.len()) - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(name: &'static str, value: u64) -> CounterSnapshot {
        CounterSnapshot { name, value }
    }

    fn g(name: &'static str, last: u64) -> GaugeSnapshot {
        GaugeSnapshot {
            name,
            last,
            max: last,
        }
    }

    fn store(slots: usize) -> TimeSeriesStore {
        TimeSeriesStore::new(TimeSeriesConfig {
            resolution: Duration::from_millis(1),
            slots,
        })
    }

    #[test]
    fn counter_becomes_per_second_rate() {
        let ts = store(16);
        // 1 s between ticks, +500 events → 500/s.
        ts.record_tick(1_000_000, &[c("ev", 100)], &[], &[]);
        ts.record_tick(2_000_000, &[c("ev", 600)], &[], &[]);
        let pts = ts.points("ev").unwrap();
        assert_eq!(pts.len(), 2);
        assert!((pts[1].value - 500.0).abs() < 1e-9);
    }

    #[test]
    fn counter_reset_counts_as_fresh_delta() {
        let ts = store(16);
        ts.record_tick(1_000_000, &[c("ev", 1000)], &[], &[]);
        // Cumulative value dropped: a restart, not a negative rate.
        ts.record_tick(2_000_000, &[c("ev", 40)], &[], &[]);
        let pts = ts.points("ev").unwrap();
        assert!((pts[1].value - 40.0).abs() < 1e-9);
        assert!(pts.iter().all(|p| p.value >= 0.0));
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let ts = store(4);
        for i in 0..10u64 {
            ts.record_tick(i * 1_000_000, &[], &[g("depth", i)], &[]);
        }
        let pts = ts.points("depth").unwrap();
        assert_eq!(pts.len(), 4);
        let values: Vec<u64> = pts.iter().map(|p| p.value as u64).collect();
        assert_eq!(values, vec![6, 7, 8, 9], "oldest-first, newest retained");
        assert!(pts.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn window_filters_by_time() {
        let ts = store(64);
        for i in 0..10u64 {
            ts.record_tick(i * 1_000_000, &[], &[g("depth", i)], &[]);
        }
        // Last 3 s relative to the newest sample (t = 9 s): 6, 7, 8, 9.
        let w = ts.window("depth", 3.0).unwrap();
        assert_eq!(w.samples, 4);
        assert_eq!(w.last, 9.0);
        assert_eq!(w.min, 6.0);
        assert_eq!(w.max, 9.0);
        assert!((w.avg - 7.5).abs() < 1e-9);
    }

    #[test]
    fn observers_fire_after_each_tick() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let ts = store(8);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        ts.add_observer(Box::new(move |st| {
            // The table lock is free during delivery: queries work.
            seen2.store(st.ticks(), Ordering::Relaxed);
        }));
        ts.record_tick(1, &[], &[], &[]);
        ts.record_tick(2, &[], &[], &[]);
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }
}
