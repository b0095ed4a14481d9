//! The global algorithm: the periodic re-plan and the barrier change-over
//! (§2.2). A proposal rides demands down the tree; each server reports
//! its iteration and suspends; once every live server has reported, the
//! client broadcasts the switch iteration at high priority.

use std::sync::Arc;

use wadc_net::network::Priority;
use wadc_plan::ids::NodeId;
use wadc_plan::placement::Placement;
use wadc_plan::tree::NodeKind;

use super::config::retry;
use super::message::Payload;
use super::{Algorithm, AuditEvent, Engine, Ev};

#[derive(Debug)]
pub(super) struct Proposal {
    pub(super) version: u32,
    /// Shared with every demand and commit message that carries it.
    pub(super) placement: Arc<Placement>,
    /// Each server's reported iteration, `None` until it reports.
    reports: Vec<Option<u32>>,
}

/// The placement every operator runs under, and the change-over in
/// flight, if any.
#[derive(Debug)]
pub(super) struct Barrier {
    /// The placement in force: the initial search's result, then each
    /// committed proposal's, then the failover re-plan's.
    pub(super) committed: Placement,
    /// Highest proposal version ever created. Versions are never reused,
    /// even when a proposal is aborted, so the audit trail stays
    /// unambiguous.
    proposal_counter: u32,
    pub(super) proposal: Option<Proposal>,
    /// Recycled storage for a proposal's reports, so steady-state
    /// barriers allocate nothing; empty while a proposal is pending (the
    /// proposal holds it).
    report_slots: Vec<Option<u32>>,
    pub(super) changeovers: u32,
}

impl Barrier {
    pub(super) fn new(committed: Placement, report_slots: Vec<Option<u32>>) -> Self {
        Barrier {
            committed,
            proposal_counter: 0,
            proposal: None,
            report_slots,
            changeovers: 0,
        }
    }

    /// Hands the report storage back to the arena, wherever it is.
    pub(super) fn into_slots(self) -> Vec<Option<u32>> {
        match self.proposal {
            Some(p) => p.reports,
            None => self.report_slots,
        }
    }
}

impl Engine {
    pub(super) fn handle_global_timer(&mut self) {
        let Algorithm::Global { period } = self.cfg.algorithm else {
            return;
        };
        self.queue.schedule_in(period, Ev::GlobalTimer);
        if self.barrier.proposal.is_some() {
            // Previous change-over still in flight; skip this tick.
            return;
        }
        let now = self.now();
        self.emit_probe_traffic(now);
        let found = self.replan();
        self.seed_cache_from_probes();
        let Some(placement) = found else {
            return;
        };
        let moves = self.barrier.committed.diff(&placement).len();
        // Versions count proposals, not commits: an aborted proposal's
        // version is never reused. Without faults every proposal commits
        // before the next is created.
        let version = self.barrier.proposal_counter + 1;
        self.barrier.proposal_counter = version;
        self.record_audit(AuditEvent::ChangeoverProposed {
            at: now,
            version,
            moves,
        });
        let mut reports = std::mem::take(&mut self.barrier.report_slots);
        reports.clear();
        reports.resize(self.cfg.n_servers, None);
        self.barrier.proposal = Some(Proposal {
            version,
            placement: Arc::new(placement),
            reports,
        });
        // Under fault injection a report can be lost past its retry
        // budget; the timeout guarantees the barrier cannot wedge the
        // run. Clean runs arm no timer (zero perturbation).
        if self.faults.is_some() {
            self.queue
                .schedule_in(retry::BARRIER_TIMEOUT, Ev::BarrierTimeout { version });
        }
    }

    /// The barrier patience timer fired. If the proposal it was armed for
    /// is still pending, abandon it: keep the old placement, tell every
    /// server (suspended or about to be) to resume, and let a later
    /// planning tick try again.
    pub(super) fn handle_barrier_timeout(&mut self, version: u32) {
        let still_pending = self
            .barrier
            .proposal
            .as_ref()
            .is_some_and(|p| p.version == version);
        if !still_pending {
            return;
        }
        self.abort_pending_proposal();
    }

    /// Abandons the pending change-over proposal (if any): keep the old
    /// placement, tell every surviving server to resume, and let a later
    /// planning tick try again. Shared between the barrier patience timer
    /// and host-death declarations (a proposal computed before a crash
    /// rests on knowledge the crash invalidated).
    pub(super) fn abort_pending_proposal(&mut self) {
        let Some(p) = self.barrier.proposal.take() else {
            return;
        };
        let version = p.version;
        self.record_audit(AuditEvent::ChangeoverAborted {
            at: self.now(),
            version,
        });
        let client = self.tree.root();
        for i in 0..self.tree.nodes().len() {
            let node = NodeId::new(i);
            if matches!(self.tree.node(node).kind, NodeKind::Server(_))
                && !self.nodes[node.index()].pruned
            {
                self.send(
                    client,
                    node,
                    Payload::BarrierAbort { version },
                    Priority::High,
                    None,
                );
            }
        }
        self.barrier.report_slots = p.reports;
    }

    /// A server learns a proposal was abandoned: resume if it suspended
    /// for it, and remember the version so a stale in-flight copy of the
    /// proposal (riding an older demand) cannot re-suspend it.
    pub(super) fn handle_barrier_abort(&mut self, node: NodeId, version: u32) {
        {
            let rt = &mut self.nodes[node.index()];
            if rt.seen_proposal_version <= version {
                rt.seen_proposal_version = version;
                rt.suspended = false;
            }
        }
        self.try_dispatch(node);
    }

    pub(super) fn handle_barrier_report(&mut self, server: usize, iteration: u32, version: u32) {
        {
            let Some(p) = self.barrier.proposal.as_mut() else {
                return; // stale report for an abandoned proposal
            };
            if p.version != version {
                return;
            }
            p.reports[server] = Some(iteration);
        }
        self.try_commit_barrier();
    }

    /// Commits the pending change-over once every *live* server has
    /// reported. In clean runs this is exactly "all `n_servers` reported";
    /// after a death the quorum shrinks to the survivors, so the barrier
    /// cannot wait forever on a host that will never answer.
    pub(super) fn try_commit_barrier(&mut self) {
        let all_in = {
            let Some(p) = self.barrier.proposal.as_ref() else {
                return;
            };
            (0..self.cfg.n_servers).all(|s| p.reports[s].is_some() || self.server_is_down(s))
        };
        if !all_in {
            return;
        }
        if self
            .barrier
            .proposal
            .as_ref()
            .is_some_and(|p| p.reports.iter().all(Option::is_none))
        {
            // Every server is gone; there is nothing to switch over.
            self.abort_pending_proposal();
            return;
        }
        let p = self.barrier.proposal.take().expect("checked above");
        let switch_iteration = p.reports.iter().flatten().max().expect("non-empty") + 1;
        self.barrier.committed = Placement::clone(&p.placement);
        self.barrier.changeovers += 1;
        self.record_audit(AuditEvent::ChangeoverCommitted {
            at: self.now(),
            version: p.version,
            switch_iteration,
        });
        // Broadcast the commit to every node at high priority.
        let client = self.tree.root();
        for i in 0..self.tree.nodes().len() {
            let node = NodeId::new(i);
            if node == client || self.nodes[node.index()].pruned {
                continue;
            }
            self.send(
                client,
                node,
                Payload::BarrierCommit {
                    version: p.version,
                    switch_iteration,
                    placement: Arc::clone(&p.placement),
                },
                Priority::High,
                None,
            );
        }
        self.barrier.report_slots = p.reports;
    }

    pub(super) fn handle_barrier_commit(
        &mut self,
        node: NodeId,
        version: u32,
        switch_iteration: u32,
        placement: &Placement,
    ) {
        let kind = self.tree.node(node).kind;
        {
            let rt = &mut self.nodes[node.index()];
            rt.seen_proposal_version = rt.seen_proposal_version.max(version);
            match kind {
                NodeKind::Server(_) => {
                    rt.suspended = false;
                }
                NodeKind::Operator(op) => {
                    rt.next_placement = Some((switch_iteration, placement.site(op)));
                }
                NodeKind::Client => {}
            }
        }
        // A resumed server may have a demand waiting.
        self.try_dispatch(node);
    }
}
