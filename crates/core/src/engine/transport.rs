//! Message transport: sending, delivery with passive monitoring, loss and
//! retransmission, planning and daemon probes, and the throughput
//! model's completion-time corrections.

use std::collections::BTreeSet;

use wadc_monitor::daemon::ProbeScheduler;
use wadc_monitor::gauge::Gauge;
use wadc_monitor::piggyback;
use wadc_net::faults::TrafficKind;
use wadc_net::network::{Priority, StartedTransfer, TransferId, TransferSpec};
use wadc_obs::recorder::{EventArgs, EventKind, TrackName};
use wadc_plan::ids::{pairs, HostId, NodeId};
use wadc_sim::event::EventId;
use wadc_sim::rng::derive_seed;
use wadc_sim::time::SimTime;

use super::config::retry;
use super::message::{Message, MsgPool, Payload};
use super::{AuditEvent, Engine, EngineConfig, Ev};
use crate::knowledge::KnowledgeMode;

/// The transport layer's state: the message free list, the reusable
/// buffer of the send path, the probe daemon, and the bookkeeping of the
/// throughput model's completion events.
#[derive(Debug, Default)]
pub(super) struct Transport {
    /// Free list of message boxes; the steady-state send path draws from
    /// it instead of the allocator. See [`MsgPool`].
    pub(super) msgs: MsgPool,
    /// Reusable buffer for [`Engine::pump`]'s started-transfer batch.
    started: Vec<StartedTransfer>,
    /// The scheduled completion event of every in-flight transfer the
    /// throughput model tracks, so fair-share corrections can cancel and
    /// reschedule it. A flat slab indexed by [`TransferId::as_u64`] — ids
    /// are minted sequentially from zero per run, so no hashing on the
    /// hot path; it stays empty on a per-pair world.
    deliver_events: Vec<Option<EventId>>,
    /// The armed trace-step recompute event, if any.
    topo_step_event: Option<EventId>,
    /// Probes rolled as black-holed at submission: their transfer still
    /// occupies the wire, but delivery discards them unmeasured.
    doomed_probes: BTreeSet<TransferId>,
    /// The active monitoring daemon, if the run has one.
    pub(super) probe_scheduler: Option<ProbeScheduler>,
    /// The client-side runtime bandwidth gauger (WANify-style), fed from
    /// in-flight transfer rates only under [`KnowledgeMode::Gauged`], the
    /// one mode whose planner reads it.
    pub(super) gauge: Gauge,
}

impl Transport {
    /// Starts a run: empties the per-run bookkeeping (keeping buffer
    /// capacity) and arms the probe daemon the config asks for.
    pub(super) fn reset(&mut self, cfg: &EngineConfig, n_hosts: usize) {
        self.deliver_events.clear();
        self.topo_step_event = None;
        self.doomed_probes.clear();
        self.probe_scheduler = cfg
            .active_monitoring
            .map(|interval| ProbeScheduler::all_pairs(n_hosts, interval, derive_seed(cfg.seed, 3)));
        self.gauge.clear();
    }
}

/// The traffic class a payload travels as, used both for fault injection
/// and for per-class accounting.
fn traffic_kind(payload: &Payload) -> TrafficKind {
    match payload {
        Payload::Probe => TrafficKind::Probe,
        Payload::Data(_) => TrafficKind::Data,
        Payload::OperatorState { .. } => TrafficKind::OperatorState,
        _ => TrafficKind::Control,
    }
}

impl Engine {
    /// The outage/blackout state just changed: re-poll the network (a
    /// revived link may unblock queued transfers) and re-arm for the next
    /// transition.
    pub(super) fn handle_fault_tick(&mut self) {
        self.pump();
        let now = self.now();
        if let Some(t) = self
            .faults
            .as_ref()
            .and_then(|f| f.next_transition_after(now))
        {
            self.queue.schedule(t, Ev::FaultTick);
        }
    }

    /// Shared-bottleneck model: a capacity-step boundary was reached on a
    /// link carrying fair-shared flows — recompute the shares and apply
    /// the completion-time corrections.
    pub(super) fn handle_topo_step(&mut self) {
        let now = self.now();
        self.transport.topo_step_event = None;
        self.net.topo_mut().step(now);
        self.sync_topo(now);
    }

    /// Fires the active monitoring daemon's due probes and re-arms.
    pub(super) fn handle_monitor_tick(&mut self) {
        let now = self.now();
        let Some(scheduler) = self.transport.probe_scheduler.as_mut() else {
            return;
        };
        let due = scheduler.due(now);
        let next = scheduler.next_due();
        for (a, b) in due {
            self.submit_probe(a, b, now);
        }
        self.pump();
        if let Some(next) = next {
            self.queue.schedule(next.max(now), Ev::MonitorTick);
        }
    }

    pub(super) fn handle_delivery(&mut self, tid: TransferId) {
        let now = self.now();
        if let Some(slot) = self.transport.deliver_events.get_mut(tid.as_u64() as usize) {
            *slot = None;
        }
        let delivery = self.net.complete(tid, now);
        self.pump();
        let spec = delivery.spec;
        // Post-detection traffic ban: once an endpoint is *declared* dead
        // the engine stops accounting its traffic entirely — the transfer
        // still completed (NICs freed above) but the payload is released
        // with no drop record and no `MessageLost` audit, so the invariant
        // "no traffic to a dead host after detection" is checkable.
        if self.hosts[spec.src.index()].declared_dead || self.hosts[spec.dst.index()].declared_dead
        {
            self.transport.doomed_probes.remove(&tid);
            self.transport.msgs.release(delivery.payload);
            return;
        }
        // Fault injection: the wire time was paid, but the payload may be
        // discarded — no passive measurement, no gossip, no dispatch.
        if let Some(inj) = &self.faults {
            let doomed_probe = self.transport.doomed_probes.remove(&tid);
            let kind = spec.kind;
            // A permanently crashed endpoint black-holes everything: the
            // transfer started and paid wire time (crashes do not block
            // links), but nothing survives at a dead host.
            let crashed = inj.host_crashed(spec.src, now) || inj.host_crashed(spec.dst, now);
            if crashed {
                self.handle_lost_message(delivery.payload, spec, kind, true);
                return;
            }
            if doomed_probe || inj.drop_delivery(kind, tid.as_u64()) {
                self.handle_lost_message(delivery.payload, spec, kind, false);
                return;
            }
        }
        // Passive monitoring at both endpoints.
        let elapsed = delivery.elapsed();
        let measured = self.hosts[spec.src.index()]
            .cache
            .observe_transfer(spec.src, spec.dst, spec.bytes, elapsed, now);
        self.hosts[spec.dst.index()]
            .cache
            .observe_transfer(spec.src, spec.dst, spec.bytes, elapsed, now);
        if measured && self.forecasting() {
            let bw = spec.bytes as f64 / elapsed.as_secs_f64();
            self.hosts[spec.src.index()]
                .forecaster
                .observe(spec.src, spec.dst, bw, now);
            self.hosts[spec.dst.index()]
                .forecaster
                .observe(spec.src, spec.dst, bw, now);
        }
        self.dispatch_message(delivery.payload);
    }

    /// A delivered transfer's payload was destroyed by fault injection
    /// (`crashed` distinguishes a permanently dead endpoint from a
    /// transient loss — the accounting differs, the recovery does not).
    /// Accounts the loss and arms the sender-side recovery: data and
    /// control messages are retransmitted after a backoff (up to
    /// [`retry::MAX_RETRIES`] times), a lost operator-state transfer rolls
    /// the move back at the old host (or, for a respawn, retries and
    /// eventually prunes the subtree), and a lost probe simply never
    /// reports (the measurement channel is allowed to be lossy).
    ///
    /// Retry exhaustion doubles as the failure detector's sensor: a live
    /// sender abandoning a message is one count of evidence against the
    /// destination host, and [`retry::DETECTION_K`] counts declare it dead. The
    /// detector is honest — it cannot distinguish a crash from repeated
    /// transient loss, so a false declaration is possible; it is
    /// deterministic and merely degrades the run.
    fn handle_lost_message(
        &mut self,
        msg: Box<Message>,
        spec: TransferSpec,
        kind: TrafficKind,
        crashed: bool,
    ) {
        let now = self.now();
        if crashed {
            self.net.record_crash_drop(&spec);
        } else {
            self.net.record_drop(&spec);
        }
        self.record_audit(AuditEvent::MessageLost {
            at: now,
            from: spec.src,
            to: spec.dst,
            kind,
            attempt: msg.attempt,
        });
        match &msg.payload {
            Payload::Probe => self.transport.msgs.release(msg),
            Payload::OperatorState {
                op,
                after_iteration,
                respawn: false,
                ..
            } => {
                // The new host never saw the state packet; after the
                // detection timeout the old host unfreezes the operator
                // and resumes under the old placement.
                let (op, after_iteration) = (*op, *after_iteration);
                self.queue.schedule_in(
                    retry::backoff(msg.attempt),
                    Ev::MoveRollback {
                        node: msg.dst_node,
                        op,
                        after_iteration,
                    },
                );
                self.transport.msgs.release(msg);
            }
            // Data, control and respawn packets are resent. A lost respawn
            // has no old host to roll back to; its retransmit re-targets
            // if the chosen site has died meanwhile.
            _ if msg.attempt < retry::MAX_RETRIES => {
                // The box rides into the retransmit event unchanged.
                self.queue
                    .schedule_in(retry::backoff(msg.attempt), Ev::Retransmit(msg));
            }
            Payload::OperatorState { .. } => {
                // A respawn out of retries loses its subtree for good.
                let node = msg.dst_node;
                self.transport.msgs.release(msg);
                self.prune_subtree(node);
            }
            _ => {
                // Abandoned. A live sender giving up on a peer is the
                // failure detector's evidence; a dead sender's messages
                // accuse nobody.
                let src_down = self.host_down(spec.src);
                self.transport.msgs.release(msg);
                if !src_down {
                    self.note_exhausted(spec.dst);
                }
            }
        }
    }

    /// A lost message's backoff expired: refresh its routing (the
    /// destination operator may have moved) and gossip, then resend.
    pub(super) fn handle_retransmit(&mut self, mut msg: Box<Message>) {
        let now = self.now();
        msg.attempt += 1;
        let src_node = match &msg.payload {
            Payload::Demand(d) => Some(d.consumer),
            Payload::Data(d) => Some(d.producer),
            _ => None,
        };
        let from_host = src_node
            .map(|n| self.nodes[n.index()].host)
            .unwrap_or(msg.src_host);
        let mut to_host = self.nodes[msg.dst_node.index()].host;
        // A dead sender retransmits nothing.
        if self.host_down(from_host) {
            self.transport.msgs.release(msg);
            return;
        }
        if self.hosts[to_host.index()].declared_dead {
            if matches!(msg.payload, Payload::OperatorState { respawn: true, .. }) {
                // The respawn's chosen site died while the packet was in
                // flight: fall back to the coordinator itself — the client
                // is live (its death aborts the run), so the retry always
                // has a reachable target.
                let client = self.roster.client();
                self.nodes[msg.dst_node.index()].host = client;
                to_host = client;
            } else {
                // Post-detection ban: no new traffic toward a declared-dead
                // host. The message is abandoned without further accounting.
                self.transport.msgs.release(msg);
                return;
            }
        }
        msg.src_host = from_host;
        msg.dst_host = to_host;
        self.stamp(&mut msg, now);
        // Barrier traffic goes at high priority; every other retransmit,
        // a respawn included, at normal priority.
        let priority = match msg.payload {
            Payload::BarrierReport { .. }
            | Payload::BarrierCommit { .. }
            | Payload::BarrierAbort { .. } => Priority::High,
            _ => Priority::Normal,
        };
        if let Some(st) = self.obs.as_deref() {
            let track = st.recorder.track(TrackName::Host(from_host.index() as u32));
            st.recorder.add(st.s_retransmits, now, 1.0);
            st.recorder.instant(
                track,
                EventKind::Retransmit,
                now,
                EventArgs {
                    a: traffic_kind(&msg.payload).tag(),
                    b: msg.attempt as u64,
                    x: 0.0,
                    y: 0.0,
                },
            );
        }
        self.transmit(msg, priority);
    }

    /// Sends a message from `from_node`'s host to `to_node`'s current host.
    pub(super) fn send(
        &mut self,
        from_node: NodeId,
        to_node: NodeId,
        payload: Payload,
        priority: Priority,
        notify_sender: Option<NodeId>,
    ) {
        let from_host = self.nodes[from_node.index()].host;
        let to_host = self.nodes[to_node.index()].host;
        self.send_to_host(
            to_node,
            from_host,
            to_host,
            payload,
            priority,
            notify_sender,
        );
    }

    pub(super) fn send_to_host(
        &mut self,
        to_node: NodeId,
        from_host: HostId,
        to_host: HostId,
        payload: Payload,
        priority: Priority,
        notify_sender: Option<NodeId>,
    ) {
        // Post-detection traffic ban: a declared-dead host neither sends
        // nor receives. The payload is silently discarded — no transfer,
        // no drop record — so audits can prove the ban held.
        if self.hosts[from_host.index()].declared_dead || self.hosts[to_host.index()].declared_dead
        {
            return;
        }
        let now = self.now();
        let mut msg = self.transport.msgs.acquire();
        msg.src_host = from_host;
        msg.dst_host = to_host;
        msg.dst_node = to_node;
        msg.notify_sender = notify_sender;
        msg.payload = payload;
        self.stamp(&mut msg, now);
        self.transmit(msg, priority);
    }

    /// Stamps what the sending host (`msg.src_host`) knows onto `msg`:
    /// its piggybacked bandwidth values and, in local mode, its location
    /// vector. A resent message's stale vector is refreshed in place.
    fn stamp(&mut self, msg: &mut Message, now: SimTime) {
        let from = &mut self.hosts[msg.src_host.index()];
        piggyback::collect_into(&mut from.cache, now, &mut msg.piggyback);
        if self.local_mode {
            let mut v = msg
                .locations
                .take()
                .unwrap_or_else(|| self.transport.msgs.acquire_vector());
            v.copy_from(&from.vector);
            msg.locations = Some(v);
        }
    }

    /// Hands a stamped message to the wire. A co-located delivery needs no
    /// NIC and pays no startup cost; its sender notification (light
    /// point) fires when it arrives, exactly as for remote transfers. A
    /// resent message (`attempt > 0`) is accounted as a retransmit.
    fn transmit(&mut self, msg: Box<Message>, priority: Priority) {
        if msg.src_host == msg.dst_host {
            self.queue.schedule_now(Ev::Local(msg));
            return;
        }
        let spec = TransferSpec {
            src: msg.src_host,
            dst: msg.dst_host,
            bytes: msg.wire_bytes(self.cfg.operator_state_bytes),
            priority,
            kind: traffic_kind(&msg.payload),
        };
        if msg.attempt > 0 {
            self.net.submit_retransmit(spec, msg);
        } else {
            self.net.submit(spec, msg);
        }
        self.pump();
    }

    /// Records `eid` as the pending completion event for transfer `tid`
    /// in the flat slab `slots` (transfer ids are minted sequentially
    /// from zero, so the index is dense; the slab grows once per run to
    /// the live high-water mark and is then allocation-free).
    fn set_deliver_slot(slots: &mut Vec<Option<EventId>>, tid: TransferId, eid: EventId) {
        let i = tid.as_u64() as usize;
        if i >= slots.len() {
            slots.resize(i + 1, None);
        }
        slots[i] = Some(eid);
    }

    /// Starts every transfer that can start now and schedules their
    /// completions. The event ids of transfers the throughput model
    /// tracks are kept so fair-share corrections can cancel and
    /// reschedule them, and the model's bookkeeping runs after every
    /// poll.
    fn pump(&mut self) {
        let now = self.now();
        let mut started = std::mem::take(&mut self.transport.started);
        self.net.poll_start_into(now, &mut started);
        for s in &started {
            let eid = self.queue.schedule(s.completes_at, Ev::Deliver(s.id));
            if self.net.topo_tracks(s.id) {
                Self::set_deliver_slot(&mut self.transport.deliver_events, s.id, eid);
            }
        }
        self.transport.started = started;
        self.sync_topo(now);
    }

    /// Throughput-model bookkeeping after any event that may have changed
    /// fair shares: apply completion-time corrections (cancel the stale
    /// event, schedule the corrected one), re-arm the trace-step
    /// recompute, and feed the runtime gauger. Returns at once when the
    /// model is idle and no step is armed — always, on a per-pair world.
    fn sync_topo(&mut self, now: SimTime) {
        let t = &mut self.transport;
        if t.topo_step_event.is_none() && self.net.topo().is_idle() {
            return;
        }
        for r in self.net.topo_mut().drain_resched() {
            let i = r.id.as_u64() as usize;
            if let Some(old) = t.deliver_events.get_mut(i).and_then(|s| s.take()) {
                let cancelled = self.queue.cancel(old);
                debug_assert!(cancelled, "a live flow's completion event is pending");
            }
            let eid = self.queue.schedule(r.completes_at, Ev::Deliver(r.id));
            Self::set_deliver_slot(&mut t.deliver_events, r.id, eid);
        }
        if let Some(old) = t.topo_step_event.take() {
            self.queue.cancel(old);
        }
        if let Some(step) = self.net.topo_mut().next_step() {
            t.topo_step_event = Some(self.queue.schedule(step, Ev::TopoStep));
        }
        if self.cfg.knowledge == KnowledgeMode::Gauged {
            for (a, b, rate) in self.net.topo().active_rates(now) {
                t.gauge.observe(a, b, rate, now);
            }
        }
    }

    /// Models the planner's on-demand monitoring: every host pair without
    /// a fresh entry in the client's cache is probed with a real transfer
    /// ("in the worst case, this algorithm requires bandwidth to be
    /// measured for all links"). The probes contend with application
    /// traffic for NICs — the cost that penalises very frequent
    /// re-planning. Their completions feed the caches through passive
    /// monitoring like any other large transfer.
    pub(super) fn emit_probe_traffic(&mut self, now: SimTime) {
        if self.cfg.probe_bytes == 0 {
            return;
        }
        let client = self.roster.client();
        for (a, b) in pairs(self.roster.host_count()) {
            if !self.hosts[a.index()].declared_dead
                && !self.hosts[b.index()].declared_dead
                && self.hosts[client.index()].cache.lookup(a, b, now).is_none()
            {
                self.submit_probe(a, b, now);
            }
        }
        self.pump();
    }

    /// Submits one probe transfer between a host pair.
    fn submit_probe(&mut self, a: HostId, b: HostId, now: SimTime) {
        if self.cfg.probe_bytes == 0 {
            return;
        }
        // Probing a declared-dead host would be traffic to it.
        if self.hosts[a.index()].declared_dead || self.hosts[b.index()].declared_dead {
            return;
        }
        let mut msg = self.transport.msgs.acquire();
        msg.src_host = a;
        msg.dst_host = b;
        msg.dst_node = self.tree.root();
        piggyback::collect_into(&mut self.hosts[a.index()].cache, now, &mut msg.piggyback);
        let tid = self.net.submit(
            TransferSpec {
                src: a,
                dst: b,
                bytes: self.cfg.probe_bytes,
                priority: Priority::Normal,
                kind: TrafficKind::Probe,
            },
            msg,
        );
        // The black-hole verdict is rolled once, at submission, and
        // applied to both sides of the probe: the measurement never
        // materialises (see `seed_cache_from_probes`) and the wire copy
        // is discarded at delivery.
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.blackholes_probe(a, b, now))
        {
            self.transport.doomed_probes.insert(tid);
        }
    }

    /// An on-demand planning probe measures real links; the measured
    /// values stay in the prober's cache (client-side), as the paper's
    /// on-demand monitoring would leave them. They are timestamped now
    /// and so expire after `T_thres` like any other measurement.
    ///
    /// Under fault injection a black-holed probe yields no measurement:
    /// the verdict is rolled on the same `(pair, now)` key that dooms the
    /// wire copy in [`Engine::submit_probe`], so the two sides always
    /// agree.
    pub(super) fn seed_cache_from_probes(&mut self) {
        let now = self.now();
        let links = self.net.links();
        let cache = &mut self.hosts[self.roster.client().index()].cache;
        for a in self.roster.hosts() {
            for b in self.roster.hosts() {
                if a < b {
                    if self
                        .faults
                        .as_ref()
                        .is_some_and(|f| f.blackholes_probe(a, b, now))
                    {
                        continue;
                    }
                    if let Some(tr) = links.trace(a, b) {
                        cache.observe(a, b, tr.bandwidth_at(now), now);
                    }
                }
            }
        }
    }
}
