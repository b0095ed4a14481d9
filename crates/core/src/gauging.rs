//! Forecaster vs. gauger: which instrument should a planner trust on a
//! shared bottleneck?
//!
//! The NWS-style forecaster ([`wadc_monitor::forecast`]) extrapolates
//! from *probe* measurements. Probes are short and solo, so under the
//! shared-bottleneck model they read the path's nominal (uncontended)
//! bandwidth — the forecaster never sees the contention a concurrent
//! workload creates. The WANify-style gauger
//! ([`wadc_monitor::gauge::Gauge`]) reads the effective rate of
//! transfers already on the wire, which under max-min fairness *is* the
//! contended share. This module runs both instruments side by side on a
//! synthetic shared backbone and scores them against the true fair
//! share, producing the analysis table committed under
//! `results/ANALYSIS_gauge_vs_forecast.md`.
//!
//! The expected shape: with one flow the two instruments are close (no
//! contention to miss), and from two concurrent flows up the forecaster
//! overestimates by roughly the flow count while the gauger tracks the
//! fair share — its error must be strictly lower.

use std::sync::Arc;

use wadc_monitor::forecast::Forecaster;
use wadc_monitor::gauge::Gauge;
use wadc_plan::ids::{pairs, HostId};
use wadc_sim::time::{SimDuration, SimTime};
use wadc_topo::fair::{max_min_shares, FairScratch};
use wadc_topo::graph::{LinkId, Topology, TopologyBuilder};
use wadc_trace::model::BandwidthTrace;
use wadc_trace::synth::{generate, SynthParams};

/// One row of the instrument comparison: both instruments' mean absolute
/// error against the true max-min fair share, at a fixed concurrency.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeAnalysisRow {
    /// Concurrent flows crossing the shared backbone.
    pub concurrent_flows: usize,
    /// Mean true fair-share rate over the timeline (bytes/sec).
    pub mean_true_rate: f64,
    /// Forecaster MAE against the true share (bytes/sec).
    pub forecast_mae: f64,
    /// Gauger MAE against the true share (bytes/sec).
    pub gauge_mae: f64,
}

impl GaugeAnalysisRow {
    /// Forecast MAE divided by gauge MAE (> 1 means the gauger wins).
    pub fn advantage(&self) -> f64 {
        self.forecast_mae / self.gauge_mae
    }
}

/// Forecaster window length used by the comparison (matches the
/// engine's monitoring substrate defaults).
const FORECAST_WINDOW: usize = 32;

/// Builds the comparison world: `flows` host pairs, each behind a fast
/// private access link, all routed over one time-varying backbone.
fn backbone_world(flows: usize, seed: u64) -> (Topology, Arc<BandwidthTrace>) {
    let n_hosts = flows + 1;
    let client = HostId::new(flows);
    let backbone_trace = Arc::new(generate(
        &SynthParams::wide_area(64.0 * 1024.0),
        SimDuration::from_hours(1),
        seed,
    ));
    // Access links far above the backbone: the backbone is always the
    // path bottleneck, so nominal = backbone trace for every pair.
    let access_trace = Arc::new(BandwidthTrace::constant(10.0 * 1024.0 * 1024.0));
    let mut b = TopologyBuilder::new(n_hosts);
    let backbone = b.add_link("backbone", backbone_trace.clone());
    let client_access = b.add_link("access-client", access_trace.clone());
    let access: Vec<LinkId> = (0..flows)
        .map(|i| b.add_link(&format!("access-{i}"), access_trace.clone()))
        .collect();
    for (i, &acc) in access.iter().enumerate() {
        b.route(HostId::new(i), client, &[acc, backbone, client_access]);
    }
    // Pairs among the servers themselves never carry traffic here but a
    // topology must route every pair.
    for (x, y) in pairs(flows) {
        b.route(x, y, &[access[x.index()], backbone, access[y.index()]]);
    }
    (b.build(), backbone_trace)
}

/// Runs the side-by-side comparison at `concurrent_flows` concurrency.
///
/// Every `sample_every` the harness: (1) asks both instruments for their
/// current estimate of each pair's bandwidth and scores it against the
/// true fair share at that instant, then (2) feeds each instrument its
/// own kind of observation — the forecaster a solo-probe reading (the
/// nominal path bottleneck), the gauger the in-flight effective rate.
/// The first sample only trains; estimates are scored from the second
/// sample on, so both instruments are always judged on data they had.
pub fn compare_instruments(concurrent_flows: usize, seed: u64) -> GaugeAnalysisRow {
    assert!(concurrent_flows >= 1, "need at least one flow");
    let (topo, _backbone) = backbone_world(concurrent_flows, seed);
    let client = HostId::new(concurrent_flows);

    let mut forecaster = Forecaster::new(FORECAST_WINDOW);
    let mut gauge = Gauge::new();
    let mut capacities = vec![0.0; topo.link_count()];
    let mut fair = FairScratch::default();
    let mut rates = Vec::new();

    let sample_every = SimDuration::from_secs(5);
    let horizon = SimTime::ZERO + SimDuration::from_mins(30);
    let mut t = SimTime::ZERO;
    let mut step = 0usize;
    let (mut abs_forecast, mut abs_gauge, mut true_sum, mut scored) = (0.0, 0.0, 0.0, 0usize);
    while t <= horizon {
        for (i, cap) in capacities.iter_mut().enumerate() {
            *cap = topo.link(LinkId::new(i)).trace.bandwidth_at(t);
        }
        max_min_shares(
            &capacities,
            concurrent_flows,
            |i| topo.route(HostId::new(i), client),
            &mut fair,
            &mut rates,
        );
        for (i, &truth) in rates.iter().enumerate() {
            let src = HostId::new(i);
            if step > 0 {
                if let (Some(f), Some(g)) = (
                    forecaster.forecast(src, client),
                    gauge.estimate(src, client),
                ) {
                    abs_forecast += (f - truth).abs();
                    abs_gauge += (g - truth).abs();
                    true_sum += truth;
                    scored += 1;
                }
            }
            // The forecaster's diet: what a solo probe would measure —
            // the uncontended nominal path bottleneck.
            let nominal = topo.nominal_trace(src, client).bandwidth_at(t);
            forecaster.observe(src, client, nominal, t);
            // The gauger's diet: the rate the in-flight transfer is
            // actually achieving under contention.
            gauge.observe(src, client, truth, t);
        }
        t += sample_every;
        step += 1;
    }
    assert!(scored > 0, "the timeline must score at least one sample");
    GaugeAnalysisRow {
        concurrent_flows,
        mean_true_rate: true_sum / scored as f64,
        forecast_mae: abs_forecast / scored as f64,
        gauge_mae: abs_gauge / scored as f64,
    }
}

/// The full sweep: one row per concurrency level `1..=max_flows`.
pub fn gauge_vs_forecast(max_flows: usize, seed: u64) -> Vec<GaugeAnalysisRow> {
    (1..=max_flows)
        .map(|flows| compare_instruments(flows, seed))
        .collect()
}

/// Renders the comparison as the markdown table committed under
/// `results/ANALYSIS_gauge_vs_forecast.md`.
pub fn render_markdown(rows: &[GaugeAnalysisRow], seed: u64) -> String {
    let mut out = String::new();
    out.push_str("# Forecaster vs. gauger on a shared bottleneck\n\n");
    out.push_str(&format!(
        "Concurrent transfers over one time-varying backbone (seed {seed}, \
         30 min timeline, 5 s samples). Both instruments estimate each \
         pair's achievable bandwidth; error is measured against the true \
         max-min fair share. The forecaster eats solo-probe readings \
         (nominal path bottleneck); the gauger eats in-flight effective \
         rates. Regenerate with `wadc study --gauge-analysis`.\n\n"
    ));
    out.push_str("| flows | mean true rate (KB/s) | forecast MAE (KB/s) | gauge MAE (KB/s) | forecast/gauge |\n");
    out.push_str("|------:|----------------------:|--------------------:|-----------------:|---------------:|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1}x |\n",
            r.concurrent_flows,
            r.mean_true_rate / 1024.0,
            r.forecast_mae / 1024.0,
            r.gauge_mae / 1024.0,
            r.advantage()
        ));
    }
    out.push_str(
        "\nWith a single flow there is no contention to miss and the two \
         instruments are comparable. From two concurrent flows up, the \
         forecaster keeps reporting the uncontended rate — overestimating \
         by roughly the flow count — while the gauger tracks the fair \
         share, so its error stays an order of magnitude lower.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauger_wins_under_contention() {
        // The acceptance criterion: at >= 2 concurrent flows on a shared
        // bottleneck the gauger's error is strictly lower.
        for row in gauge_vs_forecast(3, 1998) {
            if row.concurrent_flows >= 2 {
                assert!(
                    row.gauge_mae < row.forecast_mae,
                    "{} flows: gauge MAE {} not below forecast MAE {}",
                    row.concurrent_flows,
                    row.gauge_mae,
                    row.forecast_mae
                );
            }
        }
    }

    #[test]
    fn comparison_is_deterministic() {
        assert_eq!(compare_instruments(2, 7), compare_instruments(2, 7));
    }

    #[test]
    fn single_flow_truth_is_the_nominal_rate() {
        // One flow on the backbone gets the whole bottleneck: the mean
        // true rate is the trace's own mean, and the forecaster (which
        // eats exactly that signal) is highly accurate.
        let row = compare_instruments(1, 42);
        assert!(row.forecast_mae < row.mean_true_rate * 0.5);
    }

    #[test]
    fn markdown_has_one_row_per_concurrency() {
        let rows = gauge_vs_forecast(3, 5);
        let md = render_markdown(&rows, 5);
        assert_eq!(md.matches("\n| ").count(), 3 + 1);
        assert!(md.contains("| 3 |"));
    }
}
