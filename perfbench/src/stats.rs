//! Order statistics shared by every metric: nearest-rank percentiles, the
//! tail-sample rule, and the median rate over fixed-size segments.

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 0-based nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond the
/// `q` percentile, so that percentile may be reported.
pub fn tail_ok(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Nearest-rank `q` percentile of `samples` (any order).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

/// Median (nearest-rank) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Splits a run into segments of `size` items and times each one.
/// `boundary(done, now)` is fed the running item count; every time it
/// crosses a multiple of `size` the elapsed segment time is recorded.
#[derive(Debug)]
pub struct Segments {
    size: u64,
    next: u64,
    last_ns: u64,
    /// Seconds per completed segment, in order.
    pub secs: Vec<f64>,
}

impl Segments {
    /// Segments of `size` items, the first starting at `start_ns`.
    pub fn new(size: u64, start_ns: u64) -> Self {
        assert!(size > 0);
        Self {
            size,
            next: size,
            last_ns: start_ns,
            secs: Vec::new(),
        }
    }

    /// Record the count `done` reached at `now_ns`; returns whether a
    /// segment closed.
    pub fn boundary(&mut self, done: u64, now_ns: u64) -> bool {
        if done < self.next {
            return false;
        }
        self.secs.push((now_ns - self.last_ns) as f64 * 1e-9);
        self.last_ns = now_ns;
        self.next += self.size;
        true
    }

    /// Items per second of each segment.
    pub fn rates(&self) -> Vec<f64> {
        self.secs.iter().map(|s| self.size as f64 / s).collect()
    }

    /// Median items per second over the completed segments.
    pub fn median_rate(&self) -> f64 {
        median(&self.rates())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 of 100 samples is the 90th; 10 lie beyond it.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_ok(100, 0.9));
        assert!(!tail_ok(99, 0.9));
        // p99 needs a thousand.
        assert!(!tail_ok(999, 0.99));
        assert!(tail_ok(1000, 0.99));
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        let mut s = Segments::new(1000, 0);
        // Counts arrive in bursts that overshoot the boundary; each
        // crossing closes exactly one segment.
        assert!(!s.boundary(600, 1_000));
        assert!(s.boundary(1_200, 1_000_000)); // 1 ms
        assert!(s.boundary(2_100, 2_000_000)); // 1 ms
        assert!(s.boundary(3_000, 12_000_000)); // 10 ms: a stall
        assert!(!s.boundary(3_500, 13_000_000));
        assert!(s.boundary(4_000, 13_000_000)); // 1 ms
        assert_eq!(s.secs.len(), 4);
        assert_eq!(s.median_rate(), 1e6);
    }
}
