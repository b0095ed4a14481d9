//! Statistics collectors for simulation output.
//!
//! [`Tally`] accumulates per-observation statistics (Welford's algorithm);
//! [`TimeWeighted`] accumulates a piecewise-constant signal weighted by how
//! long it held each value; [`Histogram`] buckets observations for
//! distribution summaries (used for the sorted speedup curves of the paper's
//! Figure 6/10 style plots).

use crate::time::SimTime;

/// Streaming mean/variance/min/max over individual observations.
///
/// # Examples
///
/// ```
/// use wadc_sim::stats::Tally;
///
/// let mut t = Tally::new();
/// for x in [2.0, 4.0, 6.0] {
///     t.record(x);
/// }
/// assert_eq!(t.mean(), 4.0);
/// assert_eq!(t.count(), 3);
/// assert_eq!(t.min(), Some(2.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the observations (0.0 with < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Extend<f64> for Tally {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Tally {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut t = Tally::new();
        t.extend(iter);
        t
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. queue length
/// or NIC utilisation over simulated time.
///
/// # Examples
///
/// ```
/// use wadc_sim::stats::TimeWeighted;
/// use wadc_sim::time::SimTime;
///
/// let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
/// u.set(SimTime::from_secs(10), 1.0); // 0.0 for 10 s
/// u.set(SimTime::from_secs(30), 0.0); // 1.0 for 20 s
/// assert!((u.mean(SimTime::from_secs(40)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_change: SimTime,
    current: f64,
    weighted_sum: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Creates a collector whose signal holds `initial` from time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_change: start,
            current: initial,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Records that the signal changed to `value` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the previous change.
    pub fn set(&mut self, at: SimTime, value: f64) {
        debug_assert!(at >= self.last_change, "time-weighted update in the past");
        let dt = at.saturating_since(self.last_change).as_secs_f64();
        self.weighted_sum += self.current * dt;
        self.last_change = at;
        self.current = value;
    }

    /// Adds `delta` to the current signal value at time `at`.
    pub fn add(&mut self, at: SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(at, v);
    }

    /// Current signal value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Time-weighted mean of the signal from the start up to `now`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let tail = now.saturating_since(self.last_change).as_secs_f64();
        let total = now.saturating_since(self.start).as_secs_f64();
        if total == 0.0 {
            self.current
        } else {
            (self.weighted_sum + self.current * tail) / total
        }
    }
}

/// Fixed-width histogram over `[lo, hi)` with saturating edge buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal-width buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "histogram needs at least one bucket");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.buckets.len() as f64) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Bucket counts (excluding under/overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate quantile (0.0..=1.0) by bucket interpolation, or `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + width * (i as f64 + 0.5));
            }
        }
        Some(self.hi)
    }
}

/// Computes the median of a slice (averaging the two central elements for
/// even lengths). Returns `None` for an empty slice. Does not require the
/// input to be sorted.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median of NaN"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_var() {
        let t: Tally = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(t.mean(), 2.5);
        assert!((t.variance() - 1.25).abs() < 1e-12);
        assert_eq!(t.min(), Some(1.0));
        assert_eq!(t.max(), Some(4.0));
    }

    #[test]
    fn tally_empty_is_sane() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn time_weighted_mean() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 2.0);
        u.set(SimTime::from_secs(5), 4.0);
        // 2.0 for 5 s then 4.0 for 5 s → mean 3.0 at t=10.
        assert!((u.mean(SimTime::from_secs(10)) - 3.0).abs() < 1e-12);
        assert_eq!(u.current(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut q = TimeWeighted::new(SimTime::ZERO, 0.0);
        q.add(SimTime::from_secs(1), 1.0);
        q.add(SimTime::from_secs(2), 1.0);
        q.add(SimTime::from_secs(3), -2.0);
        assert_eq!(q.current(), 0.0);
        // 0 for 1 s, 1 for 1 s, 2 for 1 s → mean 1.0 at t=3.
        assert!((q.mean(SimTime::from_secs(3)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_duration_intervals() {
        let mut u = TimeWeighted::new(SimTime::from_secs(5), 3.0);
        // Before any time passes, the mean degenerates to the current value.
        assert_eq!(u.mean(SimTime::from_secs(5)), 3.0);
        // A same-instant change contributes zero weight: the overwritten
        // value never shows up in the mean.
        u.set(SimTime::from_secs(5), 7.0);
        assert_eq!(u.current(), 7.0);
        assert_eq!(u.mean(SimTime::from_secs(5)), 7.0);
        assert!((u.mean(SimTime::from_secs(15)) - 7.0).abs() < 1e-12);
        // Querying before the start saturates to a zero-length window.
        assert_eq!(u.mean(SimTime::ZERO), 7.0);
    }

    #[test]
    fn histogram_single_bucket() {
        let mut h = Histogram::new(0.0, 1.0, 1);
        for x in [-0.5, 0.0, 0.5, 0.999, 1.0] {
            h.record(x);
        }
        assert_eq!(h.buckets(), &[3]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
        // Every in-range quantile lands on the lone bucket's midpoint.
        assert_eq!(h.quantile(0.5), Some(0.5));
        assert_eq!(h.quantile(0.1), Some(0.0)); // inside the underflow mass
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[5], 1);
        assert_eq!(h.buckets()[9], 1);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() <= 1.0, "median ≈ 50, got {med}");
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
