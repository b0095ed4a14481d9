//! Runtime bandwidth gauging from in-flight transfer progress.
//!
//! WANify's observation: when links are shared, the bandwidth a pair
//! will actually get is better read off *live transfers* than predicted
//! from past idle-time measurements — a passive forecaster extrapolates
//! the uncontended rate and never sees the contention a concurrent
//! workload creates. The gauger is the complementary instrument: the
//! engine feeds it the effective rate of every transfer currently on the
//! wire (under the shared-bottleneck model, the max-min fair share), and
//! it serves a lightly smoothed per-pair estimate.
//!
//! Smoothing is a fast EWMA (α = 0.5): effective rates move abruptly at
//! every flow start/finish, and the gauger should track those steps
//! quickly while damping one-recompute blips.

use wadc_plan::ids::{pair_index, HostId};
use wadc_sim::time::SimTime;

/// EWMA weight of the newest in-flight rate sample. Deliberately much
/// faster than the forecaster's 0.3: gauged rates are direct readings of
/// the current allocation, not noisy probes.
const GAUGE_ALPHA: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
struct PairGauge {
    ewma: f64,
    last_at: SimTime,
}

/// A per-pair runtime gauger: feed it effective in-flight transfer
/// rates, ask it for the pair's current achievable bandwidth.
///
/// # Examples
///
/// ```
/// use wadc_monitor::gauge::Gauge;
/// use wadc_plan::ids::HostId;
/// use wadc_sim::time::SimTime;
///
/// let mut g = Gauge::new();
/// let (a, b) = (HostId::new(0), HostId::new(1));
/// g.observe(a, b, 40_000.0, SimTime::from_secs(1));
/// g.observe(a, b, 20_000.0, SimTime::from_secs(2));
/// // EWMA(0.5): 40k then halfway towards 20k.
/// assert_eq!(g.estimate(a, b), Some(30_000.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    /// One slot per host pair, at [`pair_index`]; `None` until observed.
    /// The engine feeds every in-flight rate on every fair-share sync, so
    /// the table is indexed, never hashed.
    pairs: Vec<Option<PairGauge>>,
    /// Pairs with at least one observation.
    observed: usize,
}

impl Gauge {
    /// An empty gauger.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Forgets every pair, keeping the table's capacity so a run can
    /// reuse the gauger of the one before. Observationally identical to
    /// `Gauge::new()`.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.observed = 0;
    }

    /// Records the effective rate (bytes/sec) a transfer between `a` and
    /// `b` is currently achieving. Non-finite or non-positive rates and
    /// observations older than the pair's newest are ignored.
    ///
    /// # Panics
    ///
    /// If `a == b`.
    pub fn observe(&mut self, a: HostId, b: HostId, bytes_per_sec: f64, at: SimTime) {
        if !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
            return;
        }
        let i = pair_index(a, b).expect("a gauged transfer joins two hosts");
        if i >= self.pairs.len() {
            self.pairs.resize(i + 1, None);
        }
        match &mut self.pairs[i] {
            Some(g) => {
                if at < g.last_at {
                    return;
                }
                g.ewma = GAUGE_ALPHA * bytes_per_sec + (1.0 - GAUGE_ALPHA) * g.ewma;
                g.last_at = at;
            }
            slot => {
                *slot = Some(PairGauge {
                    ewma: bytes_per_sec,
                    last_at: at,
                });
                self.observed += 1;
            }
        }
    }

    /// The pair's gauged bandwidth, if any transfer has been observed.
    pub fn estimate(&self, a: HostId, b: HostId) -> Option<f64> {
        self.pairs.get(pair_index(a, b)?)?.as_ref().map(|g| g.ewma)
    }

    /// Number of pairs with at least one observation.
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

    #[test]
    fn tracks_rate_steps_quickly() {
        let mut g = Gauge::new();
        g.observe(h(0), h(1), 100.0, SimTime::from_secs(1));
        for s in 2..8 {
            g.observe(h(0), h(1), 50.0, SimTime::from_secs(s));
        }
        let e = g.estimate(h(0), h(1)).unwrap();
        assert!((e - 50.0).abs() < 1.0, "six halved samples converge: {e}");
    }

    #[test]
    fn pairs_are_unordered_and_isolated() {
        let mut g = Gauge::new();
        g.observe(h(1), h(0), 80.0, SimTime::from_secs(1));
        assert_eq!(g.estimate(h(0), h(1)), Some(80.0));
        assert_eq!(g.estimate(h(0), h(2)), None);
        assert_eq!(g.pair_count(), 1);
    }

    #[test]
    fn clear_forgets_every_pair() {
        let mut g = Gauge::new();
        g.observe(h(2), h(5), 80.0, SimTime::from_secs(3));
        g.clear();
        assert_eq!(g.estimate(h(2), h(5)), None);
        assert_eq!(g.pair_count(), 0);
        g.observe(h(2), h(5), 10.0, SimTime::from_secs(1));
        assert_eq!(
            g.estimate(h(5), h(2)),
            Some(10.0),
            "no EWMA or clock left over"
        );
    }

    #[test]
    fn rejects_garbage_and_stale_observations() {
        let mut g = Gauge::new();
        g.observe(h(0), h(1), f64::NAN, SimTime::from_secs(1));
        g.observe(h(0), h(1), -5.0, SimTime::from_secs(1));
        g.observe(h(0), h(1), 0.0, SimTime::from_secs(1));
        assert_eq!(g.estimate(h(0), h(1)), None);
        g.observe(h(0), h(1), 60.0, SimTime::from_secs(5));
        g.observe(h(0), h(1), 999.0, SimTime::from_secs(4)); // out of order
        assert_eq!(g.estimate(h(0), h(1)), Some(60.0));
    }
}
