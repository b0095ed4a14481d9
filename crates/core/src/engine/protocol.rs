//! The demand-driven data flow: demands travel down the tree, data up;
//! operators compose once every live input has arrived and dispatch when
//! demanded; servers read images from disk. Each host serves disk reads
//! and compositions at two stations.

use std::collections::VecDeque;
use std::sync::Arc;

use wadc_app::compose::{compose_secs, PAPER_SECS_PER_PIXEL};
use wadc_app::image::ImageDims;
use wadc_monitor::piggyback;
use wadc_net::network::Priority;
use wadc_plan::ids::{HostId, NodeId};
use wadc_plan::tree::NodeKind;
use wadc_sim::time::{SimDuration, SimTime};

use super::arena::{InputSlot, OutputItem};
use super::message::{DataMsg, Demand, Message, Payload, PlacementUpdate};
use super::{AuditEvent, Engine, Ev};

/// Which of a host's two stations serves a job.
#[derive(Debug, Clone, Copy)]
pub(super) enum Unit {
    Disk = 0,
    Cpu = 1,
}

/// A disk read or a composition: the output it produces for `node` and
/// how long the station is busy with it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Job {
    node: NodeId,
    iteration: u32,
    dims: ImageDims,
    duration: SimDuration,
}

/// A host's disk or CPU: the job in service and the jobs waiting for
/// it, served first come, first served.
#[derive(Debug, Default)]
pub(super) struct Station {
    /// `Some` while the station is busy. It stays `Some` once the host
    /// crashes, so nothing queued behind it ever starts.
    current: Option<Job>,
    waiting: VecDeque<Job>,
}

impl Station {
    pub(super) fn reset(&mut self) {
        self.current = None;
        self.waiting.clear();
    }
}

impl Engine {
    /// Absorbs a message's gossip and routes it to its destination node,
    /// then fires the sender-side notification (the light-move point for
    /// data dispatches).
    pub(super) fn dispatch_message(&mut self, msg: Box<Message>) {
        let forecasting = self.forecasting();
        let dst = &mut self.hosts[msg.dst_host.index()];
        piggyback::absorb(&mut dst.cache, &msg.piggyback);
        if forecasting {
            for e in &msg.piggyback.entries {
                dst.forecaster
                    .observe(e.a, e.b, e.measurement.bytes_per_sec, e.measurement.at);
            }
        }
        if let Some(v) = &msg.locations {
            if self.local_mode {
                dst.vector.merge(v);
            }
        }
        let notify = msg.notify_sender;
        let dispatched_iter = match &msg.payload {
            Payload::Data(d) => Some(d.iteration),
            _ => None,
        };
        self.deliver_to_node(msg);
        if let (Some(sender), Some(iter)) = (notify, dispatched_iter) {
            self.light_point(sender, iter);
        }
    }

    pub(super) fn deliver_to_node(&mut self, mut msg: Box<Message>) {
        let node = msg.dst_node;
        let rt = &mut self.nodes[node.index()];
        // A pruned node is no longer part of the computation; anything
        // still addressed to it is dropped on the floor.
        if rt.pruned {
            self.transport.msgs.release(msg);
            return;
        }
        if rt.frozen && !matches!(msg.payload, Payload::OperatorState { .. }) {
            rt.buffered.push(msg);
            return;
        }
        // The message is consumed here: take the payload out and recycle
        // the box before handling, so the handlers' sends can reuse it.
        let dst_host = msg.dst_host;
        let payload = std::mem::replace(&mut msg.payload, Payload::Probe);
        self.transport.msgs.release(msg);
        match payload {
            Payload::Demand(d) => self.handle_demand(node, d),
            Payload::Data(d) => self.handle_data(node, d),
            Payload::BarrierReport {
                server,
                iteration,
                version,
            } => self.handle_barrier_report(server, iteration, version),
            Payload::BarrierCommit {
                version,
                switch_iteration,
                placement,
            } => self.handle_barrier_commit(node, version, switch_iteration, &placement),
            Payload::OperatorState {
                op,
                after_iteration,
                from,
                respawn,
                ..
            } => self.complete_relocation(node, op, after_iteration, from, dst_host, respawn),
            Payload::BarrierAbort { version } => self.handle_barrier_abort(node, version),
            // A probe's only effect is the passive measurement taken when
            // its transfer completed (already recorded in handle_delivery).
            Payload::Probe => {}
        }
    }

    fn handle_demand(&mut self, node: NodeId, d: Demand) {
        debug_assert_eq!(d.producer, node);
        let is_server = matches!(self.tree.node(node).kind, NodeKind::Server(_));
        // Crash recovery: a respawned consumer re-demands an iteration
        // whose in-flight copy died with a host. The producer serves it
        // again from its retained output (`last_output`); a duplicate of a
        // still-pending demand is absorbed idempotently. Clean runs never
        // reach this branch.
        if self.faults.is_some() {
            let replay = {
                let rt = &mut self.nodes[node.index()];
                if d.iteration <= rt.last_dispatched || rt.pending_demand == Some(d.iteration) {
                    if rt.output.is_none() {
                        if let Some(o) = rt.last_output {
                            if o.iteration == d.iteration {
                                rt.output = Some(o);
                            }
                        }
                    }
                    rt.pending_demand = Some(d.iteration);
                    true
                } else {
                    false
                }
            };
            if replay {
                self.try_dispatch(node);
                return;
            }
        }
        let mut report: Option<(usize, u32, u32)> = None;
        {
            let rt = &mut self.nodes[node.index()];
            if d.marked_later {
                rt.later_marks += 1;
            }
            rt.consumer_on_cp = d.consumer_on_cp;
            if let Some(update) = &d.placement_update {
                if update.version > rt.seen_proposal_version {
                    rt.seen_proposal_version = update.version;
                    if is_server {
                        // First sight of a proposal at a server: report the
                        // current iteration to the client and suspend.
                        rt.suspended = true;
                        if let NodeKind::Server(s) = self.tree.node(node).kind {
                            report = Some((s, rt.last_dispatched, update.version));
                        }
                    }
                }
            }
            debug_assert!(
                rt.pending_demand.is_none(),
                "consumer demanded twice without receiving data"
            );
            rt.pending_demand = Some(d.iteration);
        }
        if let Some((server, iteration, version)) = report {
            self.record_audit(AuditEvent::ServerSuspended {
                at: self.now(),
                server,
                reported_iteration: iteration,
                version,
            });
            self.send(
                node,
                self.tree.root(),
                Payload::BarrierReport {
                    server,
                    iteration,
                    version,
                },
                Priority::High,
                None,
            );
        }
        if is_server {
            self.ensure_disk_read(node, d.iteration);
        } else if d.iteration == 1 && self.nodes[node.index()].gather_iter == 0 {
            // Bootstrap: an operator has no previous output to dispatch, so
            // its very first demand triggers its own demands immediately.
            // Every later round is triggered by the light point instead.
            self.send_demands(node, 1);
        }
        self.try_dispatch(node);
    }

    fn handle_data(&mut self, node: NodeId, d: DataMsg) {
        debug_assert_eq!(d.consumer, node);
        let now = self.now();
        let tolerant = self.faults.is_some();
        if node == self.tree.root() {
            // Under faults a replayed partition can race its retransmitted
            // original; duplicates and stale iterations are ignored.
            if tolerant && d.iteration as usize != self.arrivals.len() + 1 {
                return;
            }
            // Client: record the arrival, demand the next partition.
            debug_assert_eq!(
                d.iteration as usize,
                self.arrivals.len() + 1,
                "client received partitions out of order"
            );
            self.obs_close_iteration(now, true);
            self.arrivals.push(now);
            self.nodes[node.index()].later_child = Some(0);
            if d.iteration < self.n_iterations {
                self.send_demands(node, d.iteration + 1);
            }
            return;
        }
        // Operator: store the input; compose when every live child's
        // input has arrived.
        let child_idx = self
            .tree
            .node(node)
            .children
            .iter()
            .position(|&c| c == d.producer)
            .expect("data from a non-child");
        {
            let rt = &mut self.nodes[node.index()];
            if tolerant && (d.iteration != rt.gather_iter || rt.inputs[child_idx].is_some()) {
                // Stale replay or duplicate from the retransmit/replay
                // race — the gather has what it needs, ignore.
                return;
            }
            debug_assert_eq!(
                d.iteration, rt.gather_iter,
                "data for an iteration the operator did not demand"
            );
            debug_assert!(rt.inputs[child_idx].is_none(), "duplicate input");
            rt.inputs[child_idx] = Some(InputSlot {
                dims: d.dims,
                arrived: now,
            });
        }
        self.maybe_compose(node);
    }

    /// Requests the composition for `node`'s current gather once every
    /// *live* input has arrived: a pruned child's slot counts as
    /// satisfied, so a gather can complete around a hole in the tree.
    /// Called both when data arrives and when a child is pruned (pruning
    /// may be exactly what makes a waiting gather ready). `composed_iter`
    /// guards against requesting the same composition twice.
    pub(super) fn maybe_compose(&mut self, node: NodeId) {
        if node == self.tree.root() {
            return;
        }
        let n_children = self.tree.node(node).children.len();
        let (host, iteration) = {
            let rt = &self.nodes[node.index()];
            if rt.pruned
                || rt.frozen
                || rt.gather_iter <= rt.composed_iter
                || rt.gather_iter <= rt.last_dispatched
            {
                return;
            }
            (rt.host, rt.gather_iter)
        };
        let mut any_live_input = false;
        for ci in 0..n_children {
            if self.nodes[node.index()].inputs[ci].is_some() {
                any_live_input = true;
                continue;
            }
            let child = self.tree.node(node).children[ci];
            if self.nodes[child.index()].pruned {
                continue;
            }
            return; // still waiting on a live child
        }
        if !any_live_input {
            return; // a fully orphaned operator composes nothing
        }
        let rt = &mut self.nodes[node.index()];
        // One pass over the slots: mark the later producer (ties: the
        // higher index, i.e. the one whose message was processed last)
        // and fold the output dimensions.
        let mut later = None;
        let mut later_arrived = SimTime::ZERO;
        let mut out_dims: Option<ImageDims> = None;
        for (i, slot) in rt.inputs.iter().enumerate() {
            let Some(s) = slot else { continue };
            out_dims = Some(match out_dims {
                Some(d) => d.larger(s.dims),
                None => s.dims,
            });
            if later.is_none() || s.arrived >= later_arrived {
                later = Some(i);
                later_arrived = s.arrived;
            }
        }
        rt.later_child = later;
        rt.composed_iter = iteration;
        let out_dims = out_dims.expect("at least one live input");
        let duration = SimDuration::from_secs_f64(compose_secs(out_dims, PAPER_SECS_PER_PIXEL));
        self.request_job(
            host,
            Unit::Cpu,
            Job {
                node,
                iteration,
                dims: out_dims,
                duration,
            },
        );
    }

    /// Dispatches the held output if a matching demand is pending.
    pub(super) fn try_dispatch(&mut self, node: NodeId) {
        let (iteration, dims) = {
            let rt = &mut self.nodes[node.index()];
            if rt.frozen || rt.suspended || rt.pruned {
                return;
            }
            match (rt.output, rt.pending_demand) {
                (Some(out), Some(demanded)) if out.iteration == demanded => {
                    rt.output = None;
                    rt.pending_demand = None;
                    // `max`: a replayed dispatch of an older iteration must
                    // not regress the watermark (clean runs always advance).
                    rt.last_dispatched = rt.last_dispatched.max(out.iteration);
                    rt.dispatches_this_epoch += 1;
                    // Retain a copy so a respawned consumer can ask again.
                    rt.last_output = Some(out);
                    (out.iteration, out.dims)
                }
                _ => return,
            }
        };
        let parent = self
            .tree
            .node(node)
            .parent
            .expect("only the client lacks a parent, and it never dispatches");
        self.send(
            node,
            parent,
            Payload::Data(DataMsg {
                producer: node,
                consumer: parent,
                iteration,
                dims,
            }),
            Priority::Normal,
            Some(node),
        );
    }

    /// The light-move point: fires at the producer when its data dispatch
    /// for `iteration` has fully arrived at the consumer.
    fn light_point(&mut self, node: NodeId, iteration: u32) {
        // A node whose host has died fires no light points: the process
        // that would react to the acknowledgement no longer exists. (The
        // node may later be respawned elsewhere, which restarts its cycle.)
        if self.faults.is_some()
            && (self.nodes[node.index()].pruned || self.host_down(self.nodes[node.index()].host))
        {
            return;
        }
        match self.tree.node(node).kind {
            NodeKind::Server(_) => {
                // Prefetch the next image ("a node requests data from its
                // producers — here, the disk — after dispatching output").
                if iteration < self.n_iterations {
                    self.ensure_disk_read(node, iteration + 1);
                }
            }
            NodeKind::Operator(_) => {
                // Committed global switch?
                let mut move_to: Option<HostId> = None;
                {
                    let rt = &mut self.nodes[node.index()];
                    if let Some((switch, site)) = rt.next_placement {
                        if iteration + 1 >= switch {
                            rt.next_placement = None;
                            if site != rt.host {
                                move_to = Some(site);
                            }
                        }
                    }
                    if move_to.is_none() {
                        if let Some(site) = rt.pending_move.take() {
                            if site != rt.host {
                                move_to = Some(site);
                            }
                        }
                    }
                }
                // Never move onto a host the detector has written off.
                if let Some(site) = move_to {
                    if self.hosts[site.index()].declared_dead {
                        move_to = None;
                    }
                }
                match move_to {
                    Some(site) => self.begin_relocation(node, site, iteration),
                    None => {
                        // The replay of an old dispatch must not restart a
                        // gather that is already further along.
                        let already_demanded = self.faults.is_some()
                            && self.nodes[node.index()].gather_iter > iteration;
                        if iteration < self.n_iterations && !already_demanded {
                            self.send_demands(node, iteration + 1);
                        }
                    }
                }
            }
            NodeKind::Client => unreachable!("the client never dispatches data"),
        }
    }

    /// Sends demands for `iteration` to all of `node`'s children and
    /// resets the gather state.
    pub(super) fn send_demands(&mut self, node: NodeId, iteration: u32) {
        if iteration > self.n_iterations {
            return;
        }
        if node == self.tree.root() {
            self.obs_open_iteration(iteration);
        }
        let n_children = self.tree.node(node).children.len();
        let (later_child, on_cp, seen_version) = {
            let rt = &mut self.nodes[node.index()];
            rt.gather_iter = iteration;
            for slot in rt.inputs.iter_mut() {
                *slot = None;
            }
            (rt.later_child, rt.on_cp, rt.seen_proposal_version)
        };
        let is_client = node == self.tree.root();
        let placement_update = self.barrier.proposal.as_ref().and_then(|p| {
            (is_client || seen_version >= p.version).then(|| PlacementUpdate {
                version: p.version,
                placement: Arc::clone(&p.placement),
            })
        });
        for ci in 0..n_children {
            let child = self.tree.node(node).children[ci];
            // A pruned child will never answer; its slot reads as
            // satisfied in `maybe_compose` instead.
            if self.nodes[child.index()].pruned {
                continue;
            }
            self.send(
                node,
                child,
                Payload::Demand(Demand {
                    consumer: node,
                    producer: child,
                    iteration,
                    marked_later: later_child == Some(ci),
                    consumer_on_cp: is_client || on_cp,
                    placement_update: placement_update.clone(),
                }),
                Priority::Normal,
                None,
            );
        }
    }

    fn ensure_disk_read(&mut self, node: NodeId, iteration: u32) {
        let NodeKind::Server(server) = self.tree.node(node).kind else {
            unreachable!("disk reads happen at servers");
        };
        let host = self.nodes[node.index()].host;
        {
            let rt = &mut self.nodes[node.index()];
            if rt.disk_requested >= iteration {
                return;
            }
            debug_assert_eq!(
                rt.disk_requested + 1,
                iteration,
                "disk reads must be sequential"
            );
            rt.disk_requested = iteration;
        }
        let dims = self
            .workload
            .server(server)
            .image_dims(iteration as usize - 1);
        let duration = self.cfg.disk.read_duration(dims.bytes());
        self.request_job(
            host,
            Unit::Disk,
            Job {
                node,
                iteration,
                dims,
                duration,
            },
        );
    }

    fn request_job(&mut self, host: HostId, unit: Unit, job: Job) {
        let station = &mut self.hosts[host.index()].stations[unit as usize];
        if station.current.is_some() {
            station.waiting.push_back(job);
        } else {
            self.start_job(host.index(), unit, job);
        }
    }

    fn start_job(&mut self, host: usize, unit: Unit, job: Job) {
        let station = &mut self.hosts[host].stations[unit as usize];
        debug_assert!(station.current.is_none());
        station.current = Some(job);
        self.queue
            .schedule_in(job.duration, Ev::JobDone { host, unit });
    }

    /// A station finished its job: the node holds the output (and may
    /// dispatch it), and the next waiting job starts.
    pub(super) fn handle_job_done(&mut self, host: usize, unit: Unit) {
        // Dead silicon: a crashed host finishes nothing, and its station
        // stays occupied, so its queued jobs never start.
        if self.host_down(HostId::new(host)) {
            return;
        }
        let job = self.hosts[host].stations[unit as usize]
            .current
            .take()
            .expect("completion without a job");
        if !self.nodes[job.node.index()].pruned {
            // Under faults a not-yet-replayed restored output may still be
            // held; the fresh result wins (newer data supersedes a replay).
            let tolerant = self.faults.is_some();
            let rt = &mut self.nodes[job.node.index()];
            debug_assert!(tolerant || rt.output.is_none(), "output overwritten");
            rt.output = Some(OutputItem {
                iteration: job.iteration,
                dims: job.dims,
            });
            self.try_dispatch(job.node);
        }
        if let Some(next) = self.hosts[host].stations[unit as usize].waiting.pop_front() {
            self.start_job(host, unit, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use wadc_app::image::ImageDims;
    use wadc_sim::time::SimDuration;

    use super::super::{Algorithm, Engine, RunScratch};
    use super::{Job, Unit};
    use crate::experiment::Experiment;

    /// An unrun quick world and its first server's host.
    fn world() -> (Engine, usize) {
        let engine =
            Experiment::quick(4, 42).engine_scratch(Algorithm::DownloadAll, RunScratch::new());
        let host = engine.roster.server_host(0).index();
        (engine, host)
    }

    /// Queues a one-second read of `iteration` at the first server's disk.
    fn request_read(engine: &mut Engine, iteration: u32) {
        let job = Job {
            node: engine.tree.server_nodes()[0],
            iteration,
            dims: ImageDims::new(8, 8),
            duration: SimDuration::from_secs(1),
        };
        let host = engine.roster.server_host(0);
        engine.request_job(host, Unit::Disk, job);
    }

    /// Completes the read in service; returns the iteration it produced.
    fn finish_read(engine: &mut Engine, host: usize) -> Option<u32> {
        engine.handle_job_done(host, Unit::Disk);
        let server = engine.tree.server_nodes()[0];
        engine.nodes[server.index()]
            .output
            .take()
            .map(|o| o.iteration)
    }

    fn in_service(engine: &Engine, host: usize) -> Option<u32> {
        engine.hosts[host].stations[Unit::Disk as usize]
            .current
            .map(|j| j.iteration)
    }

    fn waiting(engine: &Engine, host: usize) -> Vec<u32> {
        let station = &engine.hosts[host].stations[Unit::Disk as usize];
        station.waiting.iter().map(|j| j.iteration).collect()
    }

    #[test]
    fn a_station_serves_its_jobs_first_come_first_served() {
        let (mut engine, host) = world();
        for iteration in 1..=3 {
            request_read(&mut engine, iteration);
        }
        assert_eq!(in_service(&engine, host), Some(1));
        assert_eq!(waiting(&engine, host), [2, 3]);
        for iteration in 1..=3 {
            assert_eq!(finish_read(&mut engine, host), Some(iteration));
        }
        assert_eq!(in_service(&engine, host), None);
        assert!(waiting(&engine, host).is_empty());
    }

    #[test]
    fn a_crashed_hosts_station_stays_occupied_and_its_queue_never_starts() {
        let (mut engine, host) = world();
        request_read(&mut engine, 1);
        request_read(&mut engine, 2);
        engine.hosts[host].declared_dead = true;
        let scheduled = engine.queue.len();
        assert_eq!(finish_read(&mut engine, host), None);
        // Nothing finished and nothing started: the read stays in
        // service, so a later request queues behind it too.
        assert_eq!(in_service(&engine, host), Some(1));
        request_read(&mut engine, 3);
        assert_eq!(waiting(&engine, host), [2, 3]);
        assert_eq!(engine.queue.len(), scheduled, "no job started");
    }
}
