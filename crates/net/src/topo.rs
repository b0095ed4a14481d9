//! The throughput model: a [`wadc_topo::graph::Topology`] plugged behind
//! the [`Network`](crate::network::Network) surface.
//!
//! Every world is a topology. The paper's per-pair world gives each host
//! pair one private link ([`Topology::per_pair`]); a preset such as
//! paper-WAN routes pairs over shared backbones. Flows crossing a shared
//! link split its instantaneous bandwidth max-min fairly, recomputed on
//! every flow start, flow finish and bandwidth-trace step.
//!
//! The split mirrors dslab-network's model boundary: the network stays
//! the transfer scheduler (NICs, queueing, priorities) and delegates
//! *throughput* to this model. A flow is in one of three states:
//!
//! - **untracked** — its route crosses no shared link, so the path is the
//!   pair's own and never divided (every flow of a per-pair world);
//! - **solo** — tracked, but sharing no path link with any other active
//!   flow;
//! - **managed** — sharing a path link with another active flow: it
//!   progresses stepwise at its max-min fair rate, and its completion
//!   event is re-estimated (rescheduled) at every recompute point.
//!
//! Untracked and solo flows complete by the network's exact integral of
//! the pair's nominal trace; the gauger sees solo and managed flows.
//!
//! Rates are constant between recompute points (capacities are step
//! functions and every step boundary is a recompute point), so the
//! stepwise integration of managed flows is exact too, up to float
//! accumulation.

use std::sync::Arc;

use wadc_plan::ids::HostId;
use wadc_sim::time::SimTime;
use wadc_topo::fair::{check_max_min, max_min_shares, FairScratch};
use wadc_topo::graph::{LinkId, Topology};
use wadc_trace::model::TraceCursor;

use crate::faults::FaultPlan;
use crate::network::{StartedTransfer, TransferId, TransferSpec};

/// Expands an outage of one *topology link* into the per-pair outages the
/// fault injector understands: every host pair routed over the link goes
/// dark for the window. A backbone outage thus degrades many pairs at
/// once — the collective failure mode per-pair plans cannot express.
///
/// # Panics
///
/// Panics if the topology has no link named `link`.
pub fn expand_backbone_outage(
    mut plan: FaultPlan,
    topo: &Topology,
    link: &str,
    from: SimTime,
    until: SimTime,
) -> FaultPlan {
    let id = topo
        .find_link(link)
        .unwrap_or_else(|| panic!("topology has no link named {link}"));
    for (a, b) in topo.pairs_over(id) {
        plan = plan.outage(a, b, from, until);
    }
    plan
}

#[derive(Debug)]
struct ActiveFlow {
    id: TransferId,
    src: HostId,
    dst: HostId,
    /// Total payload bytes.
    bytes: u64,
    /// When data starts flowing (submission + startup cost).
    data_start: SimTime,
    /// Bytes still to move (meaningful once managed).
    remaining: f64,
    /// Current fair-share rate in bytes/sec (managed flows only).
    rate: f64,
    /// Progress has been integrated up to this instant (managed only).
    advanced_to: SimTime,
    /// Scheduled completion, kept in sync with the engine's event.
    completes_at: SimTime,
    /// `false` while the flow shares no path link with any other active
    /// flow and its original exact-integral completion stands.
    managed: bool,
}

/// The fair-share model state riding alongside the network.
///
/// The network feeds it every transfer start and completion; the engine,
/// through [`Network::topo_mut`](crate::network::Network::topo_mut),
/// drives trace-step recomputes via [`TopoModel::next_step`] +
/// [`TopoModel::step`] and drains completion-time corrections with
/// [`TopoModel::drain_resched`].
#[derive(Debug)]
pub struct TopoModel {
    topo: Arc<Topology>,
    /// Instant of the last fair-share recompute.
    last_recompute: SimTime,
    pub(crate) buf: TopoScratch,
}

/// A [`TopoModel`]'s growable state, recycled across runs through
/// [`NetScratch`](crate::network::NetScratch).
#[derive(Debug, Default)]
pub(crate) struct TopoScratch {
    /// Tracked flows: those whose route crosses a shared link.
    flows: Vec<ActiveFlow>,
    /// Completion-time corrections the engine must apply (cancel the old
    /// completion event, schedule the new one).
    resched: Vec<StartedTransfer>,
    // Reused scratch for the recompute, which allocates nothing once
    // these have grown.
    capacities: Vec<f64>,
    /// One capacity-lookup hint per topology link.
    link_cursors: Vec<TraceCursor>,
    /// Indices into `flows` of the managed flows, in order.
    managed: Vec<usize>,
    fair: FairScratch,
    rates: Vec<f64>,
    managed_links: Vec<LinkId>,
}

impl TopoModel {
    /// Creates the model over a topology on recycled buffers; only their
    /// capacity survives.
    pub(crate) fn new(topo: Arc<Topology>, mut buf: TopoScratch) -> Self {
        buf.flows.clear();
        buf.resched.clear();
        // Only a topology with a shared link ever recomputes, so a
        // per-pair world leaves the cursors unallocated.
        let cursors = if topo.has_shared_link() {
            topo.link_count()
        } else {
            0
        };
        buf.link_cursors.clear();
        buf.link_cursors.resize(cursors, TraceCursor::new());
        TopoModel {
            topo,
            last_recompute: SimTime::ZERO,
            buf,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// `true` when the model tracks no flow and holds no correction, so
    /// there is nothing to reschedule, re-arm or gauge.
    pub fn is_idle(&self) -> bool {
        self.buf.flows.is_empty() && self.buf.resched.is_empty()
    }

    /// Admits a flow that just entered service. `default_completes` is
    /// the exact-integral completion the network computed over the
    /// nominal trace; it is returned unchanged when the flow is untracked
    /// (its route is the pair's own) or solo. When the flow shares a
    /// link, every flow in its sharing component becomes managed and the
    /// fair shares are recomputed; corrections for *other* flows land in
    /// the reschedule queue, the new flow's own estimate is the return
    /// value.
    pub(crate) fn on_start(
        &mut self,
        id: TransferId,
        spec: &TransferSpec,
        now: SimTime,
        data_start: SimTime,
        default_completes: SimTime,
    ) -> SimTime {
        if !self.topo.route_is_shared(spec.src, spec.dst) {
            return default_completes;
        }
        let pair = (spec.src, spec.dst);
        let shares_a_link = self.buf.flows.iter().any(|f| self.meet(pair, f));
        self.buf.flows.push(ActiveFlow {
            id,
            src: spec.src,
            dst: spec.dst,
            bytes: spec.bytes,
            data_start,
            remaining: spec.bytes as f64,
            rate: 0.0,
            advanced_to: now,
            completes_at: default_completes,
            managed: false,
        });
        if !shares_a_link {
            return default_completes;
        }
        self.manage_component(self.buf.flows.len() - 1, now);
        self.recompute(now);
        // The new flow's correction is the return value, not a resched.
        let est = self.buf.flows.last().expect("just pushed").completes_at;
        self.buf.resched.retain(|r| r.id != id);
        est
    }

    /// Removes a finished flow. If it was managed, survivors are
    /// re-shared and their corrections queued.
    pub(crate) fn on_complete(&mut self, id: TransferId, spec: &TransferSpec, now: SimTime) {
        if !self.topo.route_is_shared(spec.src, spec.dst) {
            return;
        }
        let i = self
            .buf
            .flows
            .iter()
            .position(|f| f.id == id)
            .expect("completing a flow the model never saw");
        let was_managed = self.buf.flows[i].managed;
        if was_managed {
            // Integrate everyone up to `now` *before* the capacity the
            // finished flow releases is redistributed.
            self.advance_to(now);
        }
        self.buf.flows.swap_remove(i);
        if was_managed {
            self.recompute(now);
        }
    }

    /// A bandwidth-trace step boundary was reached: re-integrate progress
    /// and recompute fair shares at the new capacities.
    pub fn step(&mut self, now: SimTime) {
        self.advance_to(now);
        self.recompute(now);
    }

    /// The next instant a recompute is due with no flow starting or
    /// finishing: the earliest capacity-step boundary strictly after the
    /// last recompute on any link a managed flow crosses. `None` when no
    /// flow is managed — solo flows already carry exact completions.
    pub fn next_step(&mut self) -> Option<SimTime> {
        self.buf.managed_links.clear();
        for f in self.buf.flows.iter().filter(|f| f.managed) {
            for l in self.topo.route(f.src, f.dst) {
                if !self.buf.managed_links.contains(l) {
                    self.buf.managed_links.push(*l);
                }
            }
        }
        if self.buf.managed_links.is_empty() {
            return None;
        }
        self.topo
            .next_step_after(&self.buf.managed_links, self.last_recompute)
    }

    /// Drains queued completion-time corrections. The engine cancels
    /// each flow's old completion event and schedules the corrected one.
    pub fn drain_resched(&mut self) -> std::vec::Drain<'_, StartedTransfer> {
        self.buf.resched.drain(..)
    }

    /// Every managed flow's `(src, dst, rate)` — the effective per-pair
    /// bandwidth a WANify-style gauger reads off in-flight transfer
    /// progress. Solo flows are reported at their nominal (uncontended)
    /// bandwidth; untracked flows, and flows still in startup (no data
    /// on the wire yet), not at all.
    pub fn active_rates(&self, now: SimTime) -> impl Iterator<Item = (HostId, HostId, f64)> + '_ {
        self.buf
            .flows
            .iter()
            .filter(move |f| now >= f.data_start)
            .map(move |f| {
                let rate = if f.managed {
                    f.rate
                } else {
                    self.topo.nominal_trace(f.src, f.dst).bandwidth_at(now)
                };
                (f.src, f.dst, rate)
            })
    }

    /// Number of managed (fair-shared) flows.
    pub fn managed_count(&self) -> usize {
        self.buf.flows.iter().filter(|f| f.managed).count()
    }

    /// Converts the whole link-sharing component of `seed` to managed:
    /// any solo flow sharing a link with a managed flow must be managed
    /// too, else the fair share would hand out capacity the solo flow is
    /// already using. Transitive closure by fixpoint.
    fn manage_component(&mut self, seed: usize, now: SimTime) {
        self.convert(seed, now);
        loop {
            let mut changed = false;
            for i in 0..self.buf.flows.len() {
                if self.buf.flows[i].managed {
                    continue;
                }
                let pair = (self.buf.flows[i].src, self.buf.flows[i].dst);
                if self
                    .buf
                    .flows
                    .iter()
                    .any(|f| f.managed && self.meet(pair, f))
                {
                    self.convert(i, now);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// `true` if the route of the pair `(src, dst)` and `flow`'s route
    /// cross a common link.
    fn meet(&self, (src, dst): (HostId, HostId), flow: &ActiveFlow) -> bool {
        let path = self.topo.route(src, dst);
        self.topo
            .route(flow.src, flow.dst)
            .iter()
            .any(|l| path.contains(l))
    }

    /// Converts one solo flow to managed, crediting the progress it made
    /// uncontended: the exact integral of its nominal trace since data
    /// started flowing.
    fn convert(&mut self, i: usize, now: SimTime) {
        let f = &mut self.buf.flows[i];
        debug_assert!(!f.managed);
        let done = self
            .topo
            .nominal_trace(f.src, f.dst)
            .bytes_transferred(f.data_start, now);
        f.remaining = (f.bytes as f64 - done).max(0.0);
        f.advanced_to = now;
        f.managed = true;
    }

    /// Integrates every managed flow's progress at its current rate up to
    /// `now`. Exact because rates are constant between recompute points.
    fn advance_to(&mut self, now: SimTime) {
        for f in self.buf.flows.iter_mut().filter(|f| f.managed) {
            let from = f.advanced_to.max(f.data_start);
            if now > from {
                f.remaining = (f.remaining - f.rate * (now - from).as_secs_f64()).max(0.0);
            }
            f.advanced_to = now;
        }
    }

    /// Recomputes max-min fair shares at `now` and queues a completion
    /// correction for every managed flow whose estimate moved.
    fn recompute(&mut self, now: SimTime) {
        self.last_recompute = now;
        let TopoModel { topo, buf, .. } = self;
        let TopoScratch {
            flows,
            capacities,
            link_cursors,
            managed,
            fair,
            rates,
            ..
        } = buf;
        capacities.clear();
        capacities.extend(
            link_cursors
                .iter_mut()
                .enumerate()
                .map(|(i, c)| topo.link(LinkId::new(i)).trace.bandwidth_at_with(c, now)),
        );
        managed.clear();
        managed.extend((0..flows.len()).filter(|&i| flows[i].managed));
        let route = |r: usize| topo.route(flows[managed[r]].src, flows[managed[r]].dst);
        max_min_shares(capacities, managed.len(), route, fair, rates);
        debug_assert_eq!(
            check_max_min(
                capacities,
                &(0..managed.len()).map(route).collect::<Vec<_>>(),
                rates
            ),
            Ok(()),
            "fair shares at {now}"
        );
        for (r, f) in self.buf.flows.iter_mut().filter(|f| f.managed).enumerate() {
            f.rate = self.buf.rates[r];
            debug_assert!(f.rate > 0.0, "positive capacities give positive shares");
            let est = f.data_start.max(now)
                + wadc_sim::time::SimDuration::from_secs_f64(f.remaining / f.rate);
            if est != f.completes_at {
                f.completes_at = est;
                self.buf.resched.push(StartedTransfer {
                    id: f.id,
                    completes_at: est,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Priority;
    use std::sync::Arc;
    use wadc_plan::ids::pairs;
    use wadc_sim::time::SimDuration;
    use wadc_topo::graph::TopologyBuilder;
    use wadc_topo::link::LinkTable;
    use wadc_trace::model::BandwidthTrace;

    use crate::faults::TrafficKind;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn model(topo: Arc<Topology>) -> TopoModel {
        TopoModel::new(topo, TopoScratch::default())
    }

    fn spec(src: usize, dst: usize, bytes: u64) -> TransferSpec {
        TransferSpec {
            src: h(src),
            dst: h(dst),
            bytes,
            priority: Priority::Normal,
            kind: TrafficKind::Data,
        }
    }

    /// Four hosts: pairs (0,1) and (2,3) both route over one backbone.
    fn shared_backbone(bb_bw: f64, access_bw: f64) -> Arc<Topology> {
        let mut b = TopologyBuilder::new(4);
        let acc: Vec<_> = (0..4)
            .map(|i| {
                b.add_link(
                    &format!("access-{i}"),
                    Arc::new(BandwidthTrace::constant(access_bw)),
                )
            })
            .collect();
        let bb = b.add_link("backbone", Arc::new(BandwidthTrace::constant(bb_bw)));
        for (x, y) in pairs(4) {
            b.route(x, y, &[acc[x.index()], bb, acc[y.index()]]);
        }
        Arc::new(b.build())
    }

    #[test]
    fn nominal_table_is_the_path_bottleneck() {
        let topo = shared_backbone(100.0, 1000.0);
        let links = topo.nominal();
        assert!(links.is_complete());
        assert_eq!(links.bandwidth_at(h(0), h(3), SimTime::ZERO), Some(100.0));
    }

    #[test]
    fn solo_flow_keeps_the_default_completion() {
        let topo = shared_backbone(100.0, 1000.0);
        let mut m = model(topo);
        let est = m.on_start(
            TransferId::from_raw(0),
            &spec(0, 1, 1000),
            SimTime::ZERO,
            SimTime::from_millis(50),
            SimTime::from_secs(999),
        );
        assert_eq!(est, SimTime::from_secs(999), "solo flows are untouched");
        assert_eq!(m.managed_count(), 0);
        assert_eq!(m.next_step(), None);
        assert_eq!(m.drain_resched().count(), 0);
    }

    #[test]
    fn two_flows_halve_the_backbone() {
        let topo = shared_backbone(100.0, 1000.0);
        let mut m = model(topo);
        // Flow A: 1000 bytes at 100 B/s solo → completes at data_start+10s.
        let a = TransferId::from_raw(0);
        let est_a = m.on_start(
            a,
            &spec(0, 1, 1000),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert_eq!(est_a, SimTime::from_secs(10));
        // Flow B starts at t=5 over the same backbone: A has 500 bytes
        // left, both now run at 50 B/s.
        let b = TransferId::from_raw(1);
        let est_b = m.on_start(
            b,
            &spec(2, 3, 1000),
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            SimTime::from_secs(15),
        );
        // B: 1000 bytes at 50 B/s from t=5 → t=25.
        assert_eq!(est_b, SimTime::from_secs(25));
        assert_eq!(m.managed_count(), 2);
        let out: Vec<_> = m.drain_resched().collect();
        // A: 500 bytes left at 50 B/s from t=5 → t=15.
        assert_eq!(
            out,
            vec![StartedTransfer {
                id: a,
                completes_at: SimTime::from_secs(15)
            }]
        );
        // A finishes at 15: B gets the link back, 500 bytes left at
        // 100 B/s → t=20.
        m.on_complete(a, &spec(0, 1, 1000), SimTime::from_secs(15));
        let out: Vec<_> = m.drain_resched().collect();
        assert_eq!(
            out,
            vec![StartedTransfer {
                id: b,
                completes_at: SimTime::from_secs(20)
            }]
        );
        m.on_complete(b, &spec(2, 3, 1000), SimTime::from_secs(20));
        assert_eq!(m.managed_count(), 0);
    }

    #[test]
    fn trace_step_triggers_reschedule() {
        // Backbone drops from 100 to 10 B/s at t=10.
        let mut bld = TopologyBuilder::new(4);
        let acc: Vec<_> = (0..4)
            .map(|i| {
                bld.add_link(
                    &format!("access-{i}"),
                    Arc::new(BandwidthTrace::constant(1000.0)),
                )
            })
            .collect();
        let bb = bld.add_link(
            "backbone",
            Arc::new(BandwidthTrace::from_steps(&[(0.0, 100.0), (10.0, 10.0)]).unwrap()),
        );
        for (x, y) in pairs(4) {
            bld.route(x, y, &[acc[x.index()], bb, acc[y.index()]]);
        }
        let mut m = model(Arc::new(bld.build()));
        let (a, b) = (TransferId::from_raw(0), TransferId::from_raw(1));
        m.on_start(
            a,
            &spec(0, 1, 1000),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        m.on_start(
            b,
            &spec(2, 3, 1000),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        // Both at 50 B/s → estimated t=20, but a step is due at t=10.
        let out: Vec<_> = m.drain_resched().collect(); // engine drains after every start
        assert_eq!(
            out,
            vec![StartedTransfer {
                id: a,
                completes_at: SimTime::from_secs(20)
            }]
        );
        assert_eq!(m.next_step(), Some(SimTime::from_secs(10)));
        m.step(SimTime::from_secs(10));
        let out: Vec<_> = m.drain_resched().collect();
        // 500 bytes left each at 5 B/s → t=110.
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|r| r.completes_at == SimTime::from_secs(110)));
        assert_eq!(m.next_step(), None, "no boundary after t=10");
    }

    #[test]
    fn managed_flow_respects_its_startup_delay() {
        let topo = shared_backbone(100.0, 1000.0);
        let mut m = model(topo);
        let a = TransferId::from_raw(0);
        let b = TransferId::from_raw(1);
        m.on_start(
            a,
            &spec(0, 1, 1000),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        // B submitted at t=0 with 2 s startup: no data before t=2, but
        // the link is shared from t=0 (conservative, as both occupy it).
        let est_b = m.on_start(
            b,
            &spec(2, 3, 100),
            SimTime::ZERO,
            SimTime::from_secs(2),
            SimTime::from_secs(3),
        );
        // B: data 2..4 at 50 B/s.
        assert_eq!(est_b, SimTime::from_secs(4));
        // A meanwhile is halved immediately: 1000 bytes at 50 → t=20.
        let out: Vec<_> = m.drain_resched().collect();
        assert_eq!(out[0].completes_at, SimTime::from_secs(20));
        // After B's completion at t=4, A advanced: 0..4 at 50 = 200 bytes
        // done, 800 left at 100 → t=12.
        m.on_complete(b, &spec(2, 3, 100), SimTime::from_secs(4));
        let out: Vec<_> = m.drain_resched().collect();
        assert_eq!(
            out,
            vec![StartedTransfer {
                id: a,
                completes_at: SimTime::from_secs(12)
            }]
        );
    }

    #[test]
    fn private_links_are_never_fair_shared() {
        // Two hosts behind one private link, 100 B/s: flows in opposite
        // directions (NIC capacity 2) each keep the exact integral.
        let mut links = LinkTable::new(2);
        links.set(h(0), h(1), Arc::new(BandwidthTrace::constant(100.0)));
        let mut m = model(Arc::new(Topology::per_pair(links)));
        let (a, b) = (TransferId::from_raw(0), TransferId::from_raw(1));
        let est_a = m.on_start(
            a,
            &spec(0, 1, 1000),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let est_b = m.on_start(
            b,
            &spec(1, 0, 500),
            SimTime::from_secs(1),
            SimTime::from_secs(1),
            SimTime::from_secs(6),
        );
        assert_eq!(est_a, SimTime::from_secs(10));
        assert_eq!(est_b, SimTime::from_secs(6));
        assert_eq!(m.managed_count(), 0);
        assert!(m.is_idle(), "untracked flows leave the model idle");
        assert_eq!(m.next_step(), None);
        assert_eq!(
            m.active_rates(SimTime::from_secs(2)).count(),
            0,
            "the gauger never sees a private path"
        );
        m.on_complete(b, &spec(1, 0, 500), SimTime::from_secs(6));
        m.on_complete(a, &spec(0, 1, 1000), SimTime::from_secs(10));
        assert_eq!(m.drain_resched().count(), 0);
        assert_eq!(m.managed_count(), 0);
    }

    #[test]
    fn expand_backbone_outage_covers_every_routed_pair() {
        let topo = shared_backbone(100.0, 1000.0);
        let plan = expand_backbone_outage(
            FaultPlan::none(),
            &topo,
            "backbone",
            SimTime::ZERO,
            SimTime::from_secs(5),
        );
        // All 6 pairs route over the backbone.
        assert_eq!(plan.outages.len(), 6);
    }

    #[test]
    fn active_rates_reports_fair_shares() {
        let topo = shared_backbone(100.0, 1000.0);
        let mut m = model(topo);
        let (a, b) = (TransferId::from_raw(0), TransferId::from_raw(1));
        m.on_start(
            a,
            &spec(0, 1, 1000),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let rates: Vec<_> = m.active_rates(SimTime::from_secs(1)).collect();
        assert_eq!(rates, vec![(h(0), h(1), 100.0)], "solo flow at nominal");
        m.on_start(
            b,
            &spec(2, 3, 1000),
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            SimTime::from_secs(15),
        );
        let rates: Vec<_> = m.active_rates(SimTime::from_secs(6)).collect();
        assert_eq!(rates.len(), 2);
        assert!(
            rates.iter().all(|&(_, _, r)| r == 50.0),
            "fair halves: {rates:?}"
        );
        // Elapsed duration sanity: estimates moved as two_flows test pins.
        let _ = SimDuration::from_secs(1);
    }
}
