//! The counting recorder the observed pass attaches to every engine.
//!
//! It keeps two things and ignores the rest: the bandwidth-estimate error
//! samples (`monitor.est_rel_error_p50`) and, per transfer, whether the
//! transfer entered service while another in-flight transfer's route
//! shared a link with its own (`topo.shared_path_transfer_share`). Like
//! `NoopRecorder`, it hands back the invalid series id for every series it
//! does not read, so the engine skips those samples.

use std::sync::Arc;

use wadc_obs::metrics::SeriesKind;
use wadc_obs::recorder::{
    EventArgs, EventKind, Recorder, SeriesId, SeriesName, SpanArgs, SpanId, SpanKind, TrackId,
    TrackName,
};
use wadc_plan::ids::HostId;
use wadc_sim::stats::Histogram;
use wadc_sim::time::SimTime;
use wadc_topo::graph::Topology;

const EST_ERROR: SeriesId = SeriesId(0);

/// Id handed out for spans the recorder does not follow.
const UNTRACKED: SpanId = SpanId(u32::MAX - 1);

/// Totals over every run the recorder was attached to.
pub struct CountingRecorder {
    topology: Option<Arc<Topology>>,
    /// In-flight transfer spans: `(span id, src, dst)`.
    in_flight: Vec<(SpanId, HostId, HostId)>,
    next_span: u32,
    /// Transfer spans opened.
    pub transfers: u64,
    /// Of those, the ones whose route shared a link with an in-flight
    /// transfer's route when they entered service.
    pub shared_transfers: u64,
    /// `|estimate - truth| / truth` samples.
    pub est_error: Histogram,
}

impl CountingRecorder {
    /// An empty recorder.
    pub fn new() -> CountingRecorder {
        CountingRecorder {
            topology: None,
            in_flight: Vec::new(),
            next_span: 0,
            transfers: 0,
            shared_transfers: 0,
            // 1e-4 resolution over relative errors up to 400%.
            est_error: Histogram::new(0.0, 4.0, 40_000),
        }
    }

    /// Starts a run over `topology` (`None` for the per-pair link table,
    /// where no two routes share a link).
    pub fn begin_run(&mut self, topology: Option<Arc<Topology>>) {
        self.topology = topology;
        self.in_flight.clear();
        self.next_span = 0;
    }

    /// Share of transfers that entered service on a shared link.
    pub fn shared_transfer_share(&self) -> f64 {
        self.shared_transfers as f64 / self.transfers.max(1) as f64
    }

    fn shares_a_link(&self, src: HostId, dst: HostId) -> bool {
        let Some(topo) = &self.topology else {
            return false;
        };
        if src == dst {
            return false;
        }
        let path = topo.route(src, dst);
        self.in_flight
            .iter()
            .filter(|(_, a, b)| a != b)
            .any(|&(_, a, b)| topo.route(a, b).iter().any(|l| path.contains(l)))
    }
}

impl Recorder for CountingRecorder {
    fn track(&mut self, _name: TrackName) -> TrackId {
        TrackId(0)
    }

    fn open_span(
        &mut self,
        _track: TrackId,
        kind: SpanKind,
        _at: SimTime,
        args: SpanArgs,
    ) -> SpanId {
        if kind != SpanKind::Transfer {
            return UNTRACKED;
        }
        let (src, dst) = (HostId::new(args.a as usize), HostId::new(args.b as usize));
        self.transfers += 1;
        if self.shares_a_link(src, dst) {
            self.shared_transfers += 1;
        }
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.in_flight.push((id, src, dst));
        id
    }

    fn close_span(&mut self, id: SpanId, _at: SimTime, _ok: bool) {
        if let Some(i) = self.in_flight.iter().position(|(s, _, _)| *s == id) {
            self.in_flight.swap_remove(i);
        }
    }

    fn instant(&mut self, _track: TrackId, _kind: EventKind, _at: SimTime, _args: EventArgs) {}

    fn series(&mut self, _kind: SeriesKind, name: SeriesName) -> SeriesId {
        match name {
            SeriesName::EstAbsRelError => EST_ERROR,
            _ => SeriesId::INVALID,
        }
    }

    fn sample(&mut self, series: SeriesId, _at: SimTime, value: f64) {
        if series == EST_ERROR {
            self.est_error.record(value);
        }
    }

    fn add(&mut self, _series: SeriesId, _at: SimTime, _delta: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_trace::model::BandwidthTrace;

    fn transfer(r: &mut CountingRecorder, src: u64, dst: u64) -> SpanId {
        let args = SpanArgs {
            a: src,
            b: dst,
            c: 1024,
            d: 0,
        };
        r.open_span(TrackId(0), SpanKind::Transfer, SimTime::ZERO, args)
    }

    #[test]
    fn transfers_count_as_shared_only_while_a_linked_flow_is_in_flight() {
        // Hosts 1 and 2 reach host 0 over one shared uplink; host 3 has a
        // private link to host 0.
        let trace = Arc::new(BandwidthTrace::constant(1.0e6));
        let mut b = wadc_topo::graph::TopologyBuilder::new(4);
        let shared = b.add_link("shared", trace.clone());
        let private = b.add_link("private", trace.clone());
        let spare = b.add_link("spare", trace);
        b.route(HostId::new(0), HostId::new(1), &[shared]);
        b.route(HostId::new(0), HostId::new(2), &[shared]);
        b.route(HostId::new(0), HostId::new(3), &[private]);
        for (x, y) in [(1, 2), (1, 3), (2, 3)] {
            b.route(HostId::new(x), HostId::new(y), &[spare]);
        }
        let mut r = CountingRecorder::new();
        r.begin_run(Some(Arc::new(b.build())));
        let first = transfer(&mut r, 1, 0);
        transfer(&mut r, 2, 0); // shares the uplink with `first`
        transfer(&mut r, 3, 0); // private
        r.close_span(first, SimTime::ZERO, true);
        assert_eq!((r.transfers, r.shared_transfers), (3, 1));
        // Without a topology nothing is shared.
        r.begin_run(None);
        transfer(&mut r, 1, 0);
        transfer(&mut r, 2, 0);
        assert_eq!((r.transfers, r.shared_transfers), (5, 1));
        assert!((r.shared_transfer_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn only_the_error_gauge_is_kept() {
        let mut r = CountingRecorder::new();
        let err = r.series(SeriesKind::Gauge, SeriesName::EstAbsRelError);
        let depth = r.series(SeriesKind::TimeWeighted, SeriesName::QueueDepth);
        assert_eq!(depth, SeriesId::INVALID);
        for v in [0.1, 0.2, 0.3] {
            r.sample(err, SimTime::ZERO, v);
        }
        assert_eq!(r.est_error.count(), 3);
        let p50 = r.est_error.quantile(0.5).expect("three samples");
        assert!((p50 - 0.2).abs() < 1e-3, "{p50}");
    }
}
