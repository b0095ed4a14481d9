//! Bandwidth forecasting in the style of the Network Weather Service.
//!
//! The paper points at NWS ("Dynamically forecasting network performance
//! using the Network Weather Service") as the monitoring substrate. NWS
//! does not hand back the last raw measurement: it runs a family of simple
//! predictors over the measurement history and serves the forecast of
//! whichever predictor has recently been most accurate. This module
//! implements that scheme as an optional upgrade over the raw
//! [`crate::cache::BandwidthCache`] value — the ablation benches compare
//! planning from forecasts against planning from last measurements.

use std::collections::VecDeque;

use wadc_plan::ids::{pair_index, HostId};
use wadc_sim::time::SimTime;

/// The predictor family (NWS's core set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Predictor {
    /// The most recent measurement.
    LastValue,
    /// Mean of the window.
    WindowMean,
    /// Median of the window.
    WindowMedian,
    /// Exponentially weighted moving average (α = 0.3).
    Ewma,
}

impl Predictor {
    /// All predictors, in evaluation order.
    pub const ALL: [Predictor; 4] = [
        Predictor::LastValue,
        Predictor::WindowMean,
        Predictor::WindowMedian,
        Predictor::Ewma,
    ];

    fn predict(self, window: &VecDeque<f64>, ewma: f64) -> f64 {
        match self {
            Predictor::LastValue => *window.back().expect("non-empty window"),
            Predictor::WindowMean => window.iter().sum::<f64>() / window.len() as f64,
            Predictor::WindowMedian => window_median(window),
            Predictor::Ewma => ewma,
        }
    }
}

const EWMA_ALPHA: f64 = 0.3;

/// Median of the window, identical to sorting a copy and taking the
/// middle — but through a stack buffer, because `observe` recomputes
/// every predictor on every measurement and a heap allocation here was
/// the engine's single hottest allocation site. Windows larger than the
/// buffer (none of the shipped configurations) fall back to the heap.
fn window_median(window: &VecDeque<f64>) -> f64 {
    let mut buf = [0.0f64; 64];
    let n = window.len();
    let mut heap: Vec<f64>;
    let v: &mut [f64] = if n <= buf.len() {
        let s = &mut buf[..n];
        for (d, x) in s.iter_mut().zip(window.iter()) {
            *d = *x;
        }
        s
    } else {
        heap = window.iter().copied().collect();
        &mut heap
    };
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite bandwidths"));
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[derive(Debug, Clone)]
struct SeriesState {
    window: VecDeque<f64>,
    ewma: f64,
    /// Cumulative absolute forecast error per predictor.
    errors: [f64; 4],
    /// Forecast each predictor made before the next observation arrives.
    pending: Option<[f64; 4]>,
    last_at: SimTime,
}

/// A per-host forecaster: feed it the measurements the cache observes,
/// ask it for NWS-style forecasts.
///
/// # Examples
///
/// ```
/// use wadc_monitor::forecast::Forecaster;
/// use wadc_plan::ids::HostId;
/// use wadc_sim::time::SimTime;
///
/// let mut f = Forecaster::new(8);
/// let (a, b) = (HostId::new(0), HostId::new(1));
/// for i in 0..10 {
///     f.observe(a, b, 50_000.0, SimTime::from_secs(i));
/// }
/// let fc = f.forecast(a, b).unwrap();
/// assert!((fc - 50_000.0).abs() < 1.0, "constant series forecasts itself");
/// ```
#[derive(Debug, Clone)]
pub struct Forecaster {
    window_len: usize,
    /// One series per host pair, at [`pair_index`]; `None` until observed.
    series: Vec<Option<SeriesState>>,
    /// Pairs with history.
    observed: usize,
}

impl Forecaster {
    /// Forgets every series (keeping the table's capacity) and installs a
    /// new window length, so run arenas can recycle forecasters between
    /// runs. Observationally identical to `Forecaster::new(window_len)`.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is zero.
    pub fn reset(&mut self, window_len: usize) {
        assert!(window_len > 0, "window must hold at least one measurement");
        self.window_len = window_len;
        self.series.clear();
        self.observed = 0;
    }

    /// Creates a forecaster keeping up to `window_len` measurements per
    /// host pair.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is zero.
    pub fn new(window_len: usize) -> Self {
        assert!(window_len > 0, "window must hold at least one measurement");
        Forecaster {
            window_len,
            series: Vec::new(),
            observed: 0,
        }
    }

    /// Feeds a measurement; out-of-order (older than the last) samples are
    /// ignored.
    ///
    /// # Panics
    ///
    /// If `a == b`.
    pub fn observe(&mut self, a: HostId, b: HostId, bytes_per_sec: f64, at: SimTime) {
        let i = pair_index(a, b).expect("a forecast pair joins two hosts");
        if i >= self.series.len() {
            self.series.resize(i + 1, None);
        }
        let slot = &mut self.series[i];
        if slot.is_none() {
            self.observed += 1;
        }
        let window_len = self.window_len;
        let entry = slot.get_or_insert_with(|| SeriesState {
            window: VecDeque::with_capacity(window_len),
            ewma: bytes_per_sec,
            errors: [0.0; 4],
            pending: None,
            last_at: at,
        });
        if at < entry.last_at {
            return;
        }
        // Score the forecasts made before this observation.
        if let Some(pending) = entry.pending.take() {
            for (e, f) in entry.errors.iter_mut().zip(pending) {
                *e += (f - bytes_per_sec).abs();
            }
        }
        entry.last_at = at;
        entry.window.push_back(bytes_per_sec);
        if entry.window.len() > self.window_len {
            entry.window.pop_front();
        }
        entry.ewma = EWMA_ALPHA * bytes_per_sec + (1.0 - EWMA_ALPHA) * entry.ewma;
        // Pre-compute what every predictor says next, for scoring.
        entry.pending = Some(Predictor::ALL.map(|p| p.predict(&entry.window, entry.ewma)));
    }

    /// The NWS-style forecast for a pair: the prediction of the predictor
    /// with the lowest cumulative error so far (ties favour
    /// [`Predictor::LastValue`]). `None` for pairs never observed.
    pub fn forecast(&self, a: HostId, b: HostId) -> Option<f64> {
        let entry = self.series_of(a, b)?;
        let best = Self::best_predictor_of(entry);
        Some(best.predict(&entry.window, entry.ewma))
    }

    /// Which predictor currently wins for a pair.
    pub fn best_predictor(&self, a: HostId, b: HostId) -> Option<Predictor> {
        self.series_of(a, b).map(Self::best_predictor_of)
    }

    fn series_of(&self, a: HostId, b: HostId) -> Option<&SeriesState> {
        self.series.get(pair_index(a, b)?)?.as_ref()
    }

    fn best_predictor_of(entry: &SeriesState) -> Predictor {
        let mut best = Predictor::LastValue;
        let mut best_err = f64::INFINITY;
        for (p, &e) in Predictor::ALL.iter().zip(&entry.errors) {
            if e < best_err {
                best_err = e;
                best = *p;
            }
        }
        best
    }

    /// Number of host pairs with history.
    pub fn pair_count(&self) -> usize {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn feed(f: &mut Forecaster, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            f.observe(h(0), h(1), v, SimTime::from_secs(i as u64));
        }
    }

    #[test]
    fn constant_series_forecasts_exactly() {
        let mut f = Forecaster::new(10);
        feed(&mut f, &[100.0; 20]);
        assert_eq!(f.forecast(h(0), h(1)), Some(100.0));
    }

    #[test]
    fn unknown_pair_is_none() {
        let f = Forecaster::new(4);
        assert_eq!(f.forecast(h(0), h(1)), None);
        assert_eq!(f.best_predictor(h(0), h(1)), None);
    }

    #[test]
    fn median_wins_on_spiky_series() {
        // A series that is 100 with occasional huge spikes: the median
        // predictor accumulates far less error than last-value.
        let mut f = Forecaster::new(8);
        let mut series = Vec::new();
        for i in 0..60 {
            series.push(if i % 5 == 4 { 10_000.0 } else { 100.0 });
        }
        feed(&mut f, &series);
        let fc = f.forecast(h(0), h(1)).unwrap();
        assert!(
            fc < 1_000.0,
            "forecast {fc} should ignore spikes (best: {:?})",
            f.best_predictor(h(0), h(1))
        );
    }

    #[test]
    fn tracks_level_shift() {
        // After a persistent regime change every reasonable predictor
        // converges to the new level.
        let mut f = Forecaster::new(8);
        let mut series = vec![100.0; 20];
        series.extend(vec![500.0; 20]);
        feed(&mut f, &series);
        let fc = f.forecast(h(0), h(1)).unwrap();
        assert!(fc > 400.0, "forecast {fc} should track the new regime");
    }

    #[test]
    fn out_of_order_samples_ignored() {
        let mut f = Forecaster::new(4);
        f.observe(h(0), h(1), 100.0, SimTime::from_secs(10));
        f.observe(h(0), h(1), 999.0, SimTime::from_secs(5)); // stale
        assert_eq!(f.forecast(h(0), h(1)), Some(100.0));
    }

    #[test]
    fn symmetric_pairs() {
        let mut f = Forecaster::new(4);
        f.observe(h(3), h(1), 42.0, SimTime::ZERO);
        assert_eq!(f.forecast(h(1), h(3)), Some(42.0));
        assert_eq!(f.pair_count(), 1);
    }

    #[test]
    fn reset_is_a_fresh_forecaster() {
        // Three pairs, one spiky, so the predictors' scores differ.
        let obs: Vec<(usize, usize, f64)> = (0..30)
            .map(|k| match k % 3 {
                0 => (0, 1, 100.0 + k as f64),
                1 => (4, 2, if k % 4 == 1 { 9_000.0 } else { 300.0 }),
                _ => (3, 0, 50.0 * (k % 5) as f64 + 10.0),
            })
            .collect();
        let feed_all = |f: &mut Forecaster| {
            for (k, &(a, b, v)) in obs.iter().enumerate() {
                f.observe(h(a), h(b), v, SimTime::from_secs(k as u64));
            }
        };
        let mut f = Forecaster::new(4);
        feed_all(&mut f);
        f.reset(6);
        for &(a, b, _) in &obs {
            assert_eq!(f.forecast(h(a), h(b)), None);
            assert_eq!(f.best_predictor(h(a), h(b)), None);
        }
        assert_eq!(f.pair_count(), 0);
        // The same samples again, at the same (now earlier) times: no
        // window, score or clock survives the reset.
        feed_all(&mut f);
        let mut fresh = Forecaster::new(6);
        feed_all(&mut fresh);
        for &(a, b, _) in &obs {
            assert!(f.forecast(h(a), h(b)).is_some());
            assert_eq!(f.forecast(h(a), h(b)), fresh.forecast(h(a), h(b)));
            assert_eq!(
                f.best_predictor(h(a), h(b)),
                fresh.best_predictor(h(a), h(b))
            );
        }
        assert_eq!(f.pair_count(), 3);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        Forecaster::new(0);
    }
}
