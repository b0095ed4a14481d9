//! Estimate-vs-truth gauges for the bandwidth cache.
//!
//! The paper's monitoring scheme trades measurement effort for estimate
//! staleness; these gauges make that trade-off visible. For every host
//! pair, [`EstimateGauges`] samples the true link bandwidth (from an
//! oracle [`BandwidthView`]) next to the monitoring cache's current
//! estimate, plus one global `|est − true| / true` error gauge. The
//! sampling is purely read-only: it draws no randomness and schedules
//! nothing, so traced and untraced runs are digest-identical.

use wadc_obs::metrics::SeriesKind;
use wadc_obs::recorder::{Obs, SeriesId, SeriesName};
use wadc_plan::bandwidth::BandwidthView;
use wadc_plan::ids::{pairs, HostId};
use wadc_sim::time::SimTime;

use crate::cache::BandwidthCache;

/// Registered per-pair truth/estimate series and the global error gauge.
#[derive(Debug, Clone)]
pub struct EstimateGauges {
    /// `(a, b, true series, estimate series)` per unordered host pair.
    pairs: Vec<(HostId, HostId, SeriesId, SeriesId)>,
    error: SeriesId,
}

impl EstimateGauges {
    /// Registers series for every unordered pair of `n_hosts` hosts.
    pub fn new(obs: &Obs, n_hosts: usize) -> EstimateGauges {
        let pairs = pairs(n_hosts)
            .map(|(a, b)| {
                let (lo, hi) = (a.index() as u32, b.index() as u32);
                let truth = obs.series(SeriesKind::Gauge, SeriesName::TrueBandwidth(lo, hi));
                let est = obs.series(SeriesKind::Gauge, SeriesName::EstBandwidth(lo, hi));
                (a, b, truth, est)
            })
            .collect();
        let error = obs.series(SeriesKind::Gauge, SeriesName::EstAbsRelError);
        EstimateGauges { pairs, error }
    }

    /// Samples every pair: the oracle's value always, the cache's estimate
    /// and the relative error only when the cache has a live entry.
    pub fn sample(
        &self,
        obs: &Obs,
        cache: &BandwidthCache,
        truth: &impl BandwidthView,
        now: SimTime,
    ) {
        for &(a, b, truth_sid, est_sid) in &self.pairs {
            let Some(actual) = truth.bandwidth(a, b) else {
                continue;
            };
            obs.sample(truth_sid, now, actual);
            if let Some(est) = cache.lookup(a, b, now) {
                obs.sample(est_sid, now, est);
                if actual > 0.0 {
                    obs.sample(self.error, now, (est - actual).abs() / actual);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MonitorConfig;
    use std::collections::HashMap;
    use wadc_obs::tracer::Tracer;

    struct FixedView(HashMap<(usize, usize), f64>);

    impl BandwidthView for FixedView {
        fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
            let key = (a.index().min(b.index()), a.index().max(b.index()));
            self.0.get(&key).copied()
        }
    }

    #[test]
    fn samples_truth_estimate_and_error() {
        let (obs, tracer) = Tracer::install();
        let gauges = EstimateGauges::new(&obs, 2);
        let truth = FixedView(HashMap::from([((0, 1), 1000.0)]));
        let mut cache = BandwidthCache::new(MonitorConfig::paper_defaults());
        let now = SimTime::from_secs(10);
        cache.observe(HostId::new(0), HostId::new(1), 800.0, now);
        gauges.sample(&obs, &cache, &truth, now);
        let tr = tracer.borrow();
        let reg = tr.registry();
        let (_, t) = reg.find(SeriesName::TrueBandwidth(0, 1)).unwrap();
        assert_eq!(t.last, 1000.0);
        let (_, e) = reg.find(SeriesName::EstBandwidth(0, 1)).unwrap();
        assert_eq!(e.last, 800.0);
        let (_, err) = reg.find(SeriesName::EstAbsRelError).unwrap();
        assert!((err.last - 0.2).abs() < 1e-12);
    }

    #[test]
    fn no_estimate_means_no_error_sample() {
        let (obs, tracer) = Tracer::install();
        let gauges = EstimateGauges::new(&obs, 2);
        let truth = FixedView(HashMap::from([((0, 1), 1000.0)]));
        let cache = BandwidthCache::new(MonitorConfig::paper_defaults());
        gauges.sample(&obs, &cache, &truth, SimTime::from_secs(1));
        let tr = tracer.borrow();
        let reg = tr.registry();
        let (_, t) = reg.find(SeriesName::TrueBandwidth(0, 1)).unwrap();
        assert_eq!(t.tally.count(), 1);
        let (_, err) = reg.find(SeriesName::EstAbsRelError).unwrap();
        assert_eq!(err.tally.count(), 0);
    }

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        let gauges = EstimateGauges::new(&obs, 3);
        let truth = FixedView(HashMap::new());
        let cache = BandwidthCache::new(MonitorConfig::paper_defaults());
        gauges.sample(&obs, &cache, &truth, SimTime::ZERO);
    }
}
