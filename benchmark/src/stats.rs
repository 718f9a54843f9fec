//! Percentiles over measured samples.

use std::time::{Duration, Instant};

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// One-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `0.9 * 100` (90.00000000000001 in binary) at rank 90.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q, sorted.len()) - 1]
}

/// Sorts `xs` ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_unstable_by(f64::total_cmp);
    xs
}

/// Nearest-rank median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5)
}

/// The highest ladder percentile with at least ten of `n` samples beyond
/// it, so a tail is never read off a handful of points. Falls back to the
/// median below 20 samples.
pub fn tail_quantile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n >= rank(q, n) + 10)
        .unwrap_or(0.5)
}

/// Label for a quantile: `p50`, `p99`, `p99.9`.
pub fn quantile_name(q: f64) -> String {
    format!("p{}", (q * 1000.0).round() / 10.0)
}

/// Latency of an open-loop request timed from when it was due: the wait
/// a late generator imposed (`submitted - due`) plus what the engine
/// reported from submission to completion. A stalled generator therefore
/// charges its stall to every request it delayed.
pub fn due_latency(due: Instant, submitted: Instant, engine_total: Duration) -> Duration {
    submitted.saturating_duration_since(due) + engine_total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Odd count: the middle sample, never an interpolation.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(199), 0.9);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
        for n in [20, 40, 77, 100, 150, 999, 1_000, 5_000, 12_345] {
            let q = tail_quantile(n);
            assert!(n - rank(q, n) >= 10, "n={n} q={q}");
        }
        assert_eq!(quantile_name(0.99), "p99");
        assert_eq!(quantile_name(0.999), "p99.9");
        assert_eq!(quantile_name(0.5), "p50");
    }

    #[test]
    fn stalled_generator_charges_the_wait() {
        // Requests due every 10 ms; the generator stalls 45 ms before the
        // first and then catches up, submitting the next four at once.
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let engine = ms(2);
        let due: Vec<Instant> = (0..5).map(|i| t0 + ms(10 * i)).collect();
        let submitted = t0 + ms(45);
        let lat: Vec<u128> = due
            .iter()
            .map(|&d| due_latency(d, submitted, engine).as_millis())
            .collect();
        assert_eq!(lat, vec![47, 37, 27, 17, 7]);
        // On schedule the latency is the engine's alone; early never
        // counts negative.
        assert_eq!(due_latency(t0 + ms(50), t0 + ms(50), engine), engine);
        assert_eq!(due_latency(t0 + ms(60), t0 + ms(50), engine), engine);
    }
}
