//! What the placement algorithms know about the network.
//!
//! The paper's algorithms consume bandwidth information from on-demand
//! monitoring: a cache of passively observed values, with active probes for
//! pairs the cache cannot answer. [`PlannerView`] composes those sources;
//! [`KnowledgeMode`] selects between the realistic monitored view and a
//! perfect oracle (useful for ablations isolating monitoring error).

use wadc_monitor::cache::BandwidthCache;
use wadc_monitor::forecast::Forecaster;
use wadc_monitor::gauge::Gauge;
use wadc_plan::bandwidth::BandwidthView;
use wadc_plan::ids::HostId;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_topo::link::LinkTable;

/// How a placement decision sees the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KnowledgeMode {
    /// The paper's model: the decision-maker's measurement cache, with an
    /// on-demand probe (reading the true current bandwidth) for pairs the
    /// cache cannot answer. Cached values may be up to `T_thres` stale.
    #[default]
    Monitored,
    /// Perfect knowledge of the true current bandwidth of every link.
    Oracle,
    /// NWS-style forecasts over the measurement history (see
    /// [`wadc_monitor::forecast`]), falling back to a probe for pairs
    /// with no history. An extension: the paper's planners consume raw
    /// cached measurements.
    Forecast,
    /// WANify-style runtime gauging (see [`wadc_monitor::gauge`]): the
    /// effective rates of in-flight transfers, which under a
    /// shared-bottleneck topology reflect contention no passive source
    /// sees. Falls back to the cache, then to a probe.
    Gauged,
}

impl KnowledgeMode {
    /// The CLI name of the mode (`--knowledge` accepts these).
    pub fn name(self) -> &'static str {
        match self {
            KnowledgeMode::Monitored => "monitored",
            KnowledgeMode::Oracle => "oracle",
            KnowledgeMode::Forecast => "forecast",
            KnowledgeMode::Gauged => "gauged",
        }
    }
}

/// A [`BandwidthView`] for planning: cache first, on-demand probe on miss.
///
/// Probes read the true link bandwidth at the view's timestamp, modelling
/// the paper's on-demand monitoring (Komodo / NWS style); with
/// [`KnowledgeMode::Oracle`] every lookup probes.
#[derive(Debug, Clone, Copy)]
pub struct PlannerView<'a> {
    cache: Option<&'a BandwidthCache>,
    forecaster: Option<&'a Forecaster>,
    gauge: Option<&'a Gauge>,
    links: &'a LinkTable,
    now: SimTime,
    grace: SimDuration,
}

impl<'a> PlannerView<'a> {
    /// The monitored view: `cache` backed by probes of `links`.
    pub fn monitored(cache: &'a BandwidthCache, links: &'a LinkTable, now: SimTime) -> Self {
        PlannerView {
            cache: Some(cache),
            forecaster: None,
            gauge: None,
            links,
            now,
            grace: SimDuration::ZERO,
        }
    }

    /// The oracle view: every lookup reads the true bandwidth.
    pub fn oracle(links: &'a LinkTable, now: SimTime) -> Self {
        PlannerView {
            cache: None,
            forecaster: None,
            gauge: None,
            links,
            now,
            grace: SimDuration::ZERO,
        }
    }

    /// The forecast view: NWS-style predictions over the measurement
    /// history, probe fallback for unseen pairs.
    pub fn forecast(forecaster: &'a Forecaster, links: &'a LinkTable, now: SimTime) -> Self {
        PlannerView {
            cache: None,
            forecaster: Some(forecaster),
            gauge: None,
            links,
            now,
            grace: SimDuration::ZERO,
        }
    }

    /// The gauged view: live in-flight transfer rates first, then the
    /// measurement cache, then a probe.
    pub fn gauged(
        gauge: &'a Gauge,
        cache: &'a BandwidthCache,
        links: &'a LinkTable,
        now: SimTime,
    ) -> Self {
        PlannerView {
            cache: Some(cache),
            forecaster: None,
            gauge: Some(gauge),
            links,
            now,
            grace: SimDuration::ZERO,
        }
    }

    /// Accepts cache entries up to `grace` past their normal `T_thres`
    /// expiry. Under fault injection measurements stop arriving (lost
    /// probes, dead links); a stale value is a better planning input than
    /// pretending the pair was never measured. Zero grace (the default)
    /// leaves behaviour untouched.
    pub fn with_grace(mut self, grace: SimDuration) -> Self {
        self.grace = grace;
        self
    }

    /// Builds the view selected by `mode`.
    pub fn for_mode(
        mode: KnowledgeMode,
        cache: &'a BandwidthCache,
        forecaster: &'a Forecaster,
        gauge: &'a Gauge,
        links: &'a LinkTable,
        now: SimTime,
    ) -> Self {
        match mode {
            KnowledgeMode::Monitored => PlannerView::monitored(cache, links, now),
            KnowledgeMode::Oracle => PlannerView::oracle(links, now),
            KnowledgeMode::Forecast => PlannerView::forecast(forecaster, links, now),
            KnowledgeMode::Gauged => PlannerView::gauged(gauge, cache, links, now),
        }
    }
}

impl BandwidthView for PlannerView<'_> {
    fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
        if a == b {
            return None;
        }
        if let Some(gauge) = self.gauge {
            if let Some(bw) = gauge.estimate(a, b) {
                return Some(bw);
            }
        }
        if let Some(forecaster) = self.forecaster {
            if let Some(bw) = forecaster.forecast(a, b) {
                return Some(bw);
            }
        }
        if let Some(cache) = self.cache {
            if let Some(bw) = cache.lookup_within(a, b, self.now, self.grace) {
                return Some(bw);
            }
        }
        self.links.bandwidth_at(a, b, self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wadc_monitor::cache::MonitorConfig;
    use wadc_trace::model::BandwidthTrace;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn links() -> LinkTable {
        let mut l = LinkTable::new(3);
        for (a, b, bw) in [(0, 1, 100.0), (0, 2, 200.0), (1, 2, 300.0)] {
            l.set(h(a), h(b), Arc::new(BandwidthTrace::constant(bw)));
        }
        l
    }

    #[test]
    fn cache_hit_wins_over_probe() {
        let l = links();
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 42.0, SimTime::from_secs(10));
        let v = PlannerView::monitored(&c, &l, SimTime::from_secs(11));
        assert_eq!(v.bandwidth(h(0), h(1)), Some(42.0));
    }

    #[test]
    fn cache_miss_probes_truth() {
        let l = links();
        let c = BandwidthCache::new(MonitorConfig::paper_defaults());
        let v = PlannerView::monitored(&c, &l, SimTime::ZERO);
        assert_eq!(v.bandwidth(h(1), h(2)), Some(300.0));
    }

    #[test]
    fn expired_cache_entry_falls_back_to_probe() {
        let l = links();
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(2), 1.0, SimTime::ZERO);
        let v = PlannerView::monitored(&c, &l, SimTime::from_secs(100));
        assert_eq!(v.bandwidth(h(0), h(2)), Some(200.0));
    }

    #[test]
    fn grace_keeps_stale_entries_usable() {
        let l = links();
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(2), 1.0, SimTime::ZERO);
        let at = SimTime::from_secs(100);
        // Without grace the 100 s old entry has expired → probe.
        let strict = PlannerView::monitored(&c, &l, at);
        assert_eq!(strict.bandwidth(h(0), h(2)), Some(200.0));
        // With a wide grace the stale measurement is still consulted.
        let lenient = PlannerView::monitored(&c, &l, at).with_grace(SimDuration::from_secs(100));
        assert_eq!(lenient.bandwidth(h(0), h(2)), Some(1.0));
    }

    #[test]
    fn oracle_ignores_cache() {
        let l = links();
        let v = PlannerView::oracle(&l, SimTime::ZERO);
        assert_eq!(v.bandwidth(h(0), h(1)), Some(100.0));
        assert_eq!(v.bandwidth(h(0), h(0)), None);
    }

    #[test]
    fn for_mode_selects() {
        let l = links();
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 7.0, SimTime::ZERO);
        let mut f = Forecaster::new(8);
        f.observe(h(0), h(1), 55.0, SimTime::ZERO);
        let mut g = Gauge::new();
        g.observe(h(0), h(1), 21.0, SimTime::ZERO);
        let m = PlannerView::for_mode(KnowledgeMode::Monitored, &c, &f, &g, &l, SimTime::ZERO);
        let o = PlannerView::for_mode(KnowledgeMode::Oracle, &c, &f, &g, &l, SimTime::ZERO);
        let fc = PlannerView::for_mode(KnowledgeMode::Forecast, &c, &f, &g, &l, SimTime::ZERO);
        let ga = PlannerView::for_mode(KnowledgeMode::Gauged, &c, &f, &g, &l, SimTime::ZERO);
        assert_eq!(m.bandwidth(h(0), h(1)), Some(7.0));
        assert_eq!(o.bandwidth(h(0), h(1)), Some(100.0));
        assert_eq!(fc.bandwidth(h(0), h(1)), Some(55.0));
        assert_eq!(ga.bandwidth(h(0), h(1)), Some(21.0));
        // Forecast falls back to a probe for unseen pairs.
        assert_eq!(fc.bandwidth(h(1), h(2)), Some(300.0));
    }

    #[test]
    fn gauged_falls_back_to_cache_then_probe() {
        let l = links();
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(2), 9.0, SimTime::ZERO);
        let g = Gauge::new();
        let v = PlannerView::gauged(&g, &c, &l, SimTime::ZERO);
        // Nothing gauged: cache answers (0,2), the probe answers (1,2).
        assert_eq!(v.bandwidth(h(0), h(2)), Some(9.0));
        assert_eq!(v.bandwidth(h(1), h(2)), Some(300.0));
    }
}
