//! Crash detection and failover: the retry-exhaustion failure detector,
//! the post-detection traffic ban, pruning dead subtrees, and respawning
//! orphaned operators over the surviving hosts.

use wadc_net::network::Priority;
use wadc_plan::ids::{HostId, NodeId, OperatorId};
use wadc_plan::tree::NodeKind;

use super::config::retry;
use super::message::Payload;
use super::{AuditEvent, Engine};

/// The failover layer's run state. All zero and `None` in clean runs.
#[derive(Debug, Default)]
pub(super) struct Failover {
    pub(super) hosts_declared_dead: u32,
    pub(super) operators_respawned: u32,
    /// Set once the run cannot produce further useful work (client host
    /// dead, or every data source lost); the main loop stops immediately
    /// and the result reports [`RunOutcome::Aborted`](super::RunOutcome::Aborted).
    pub(super) aborted: Option<&'static str>,
}

impl Engine {
    /// Whether a host is out of service, either physically (crashed) or by
    /// detector verdict (declared dead). Always `false` in clean runs.
    pub(super) fn host_down(&self, host: HostId) -> bool {
        self.hosts[host.index()].declared_dead
            || self
                .faults
                .as_ref()
                .is_some_and(|f| f.host_crashed(host, self.now()))
    }

    /// One count of detector evidence against `dst`; at
    /// [`retry::DETECTION_K`] distinct abandoned messages the host is
    /// declared dead.
    pub(super) fn note_exhausted(&mut self, dst: HostId) {
        let h = &mut self.hosts[dst.index()];
        if h.declared_dead {
            return;
        }
        h.abandoned += 1;
        if h.abandoned >= retry::DETECTION_K {
            self.declare_dead(dst);
        }
    }

    /// Marks the run as unable to make further progress: the main loop
    /// stops at the next event boundary and the result reports
    /// [`RunOutcome::Aborted`](super::RunOutcome::Aborted). Idempotent;
    /// the first reason wins.
    fn abort_run(&mut self, reason: &'static str) {
        if self.failover.aborted.is_some() {
            return;
        }
        self.failover.aborted = Some(reason);
        self.record_audit(AuditEvent::RunAborted {
            at: self.now(),
            reason,
        });
    }

    /// The failure detector's verdict became final for `host`: ban its
    /// traffic, prune the servers that lived there, and respawn the
    /// orphaned operators over the surviving-host subgraph. Client death
    /// aborts the run — there is nobody left to deliver to.
    fn declare_dead(&mut self, host: HostId) {
        if self.hosts[host.index()].declared_dead {
            return;
        }
        self.hosts[host.index()].declared_dead = true;
        self.failover.hosts_declared_dead += 1;
        let evidence = self.hosts[host.index()].abandoned;
        self.record_audit(AuditEvent::HostDeclaredDead {
            at: self.now(),
            host,
            evidence,
        });
        if host == self.roster.client() {
            self.abort_run("client host declared dead");
            return;
        }
        // A pending change-over rests on pre-crash knowledge; abandon it
        // and let the next planning tick work from the masked view.
        self.abort_pending_proposal();
        // The partitions on the dead host are gone with it.
        for i in 0..self.tree.nodes().len() {
            let node = NodeId::new(i);
            if matches!(self.tree.node(node).kind, NodeKind::Server(_))
                && self.nodes[node.index()].host == host
                && !self.nodes[node.index()].pruned
            {
                self.prune_node(node);
            }
        }
        if self.failover.aborted.is_some() {
            return; // pruning collapsed the tree
        }
        // Orphaned operators are respawned from origin images at sites
        // chosen by the placement search over the surviving hosts.
        let mut orphans: Vec<(NodeId, OperatorId)> = Vec::new();
        for i in 0..self.tree.operator_count() {
            let op = OperatorId::new(i);
            let node = self.tree.operator_node(op);
            let rt = &self.nodes[node.index()];
            if rt.host == host && !rt.pruned {
                orphans.push((node, op));
            }
        }
        if orphans.is_empty() {
            return;
        }
        let client = self.roster.client();
        // Re-home the orphans before searching: the masked search never
        // *selects* a dead host but must not *start* from one either.
        for &(_, op) in &orphans {
            self.barrier.committed.set_site(op, client);
        }
        if let Some(placement) = self.replan() {
            self.barrier.committed = placement;
        }
        for &(node, op) in &orphans {
            let to = self.barrier.committed.site(op);
            self.start_respawn(node, op, to);
        }
    }

    /// Ships a fresh copy of `op` (rebuilt from its origin image — the
    /// dead host's working state is lost) from the client to `to`. The
    /// node is frozen and re-targeted immediately so in-flight traffic
    /// buffers at — or retransmits toward — the new site.
    fn start_respawn(&mut self, node: NodeId, op: OperatorId, to: HostId) {
        let client = self.roster.client();
        let (after_iteration, from) = {
            let rt = &mut self.nodes[node.index()];
            let from = rt.host;
            rt.frozen = true;
            rt.respawning = true;
            rt.host = to;
            rt.output = None;
            rt.later_marks = 0;
            rt.dispatches_this_epoch = 0;
            rt.on_cp = false;
            rt.pending_move = None;
            rt.next_placement = None;
            (rt.last_dispatched, from)
        };
        let code_bytes = self.code.code_bytes_for_move(to);
        self.send_to_host(
            node,
            client,
            to,
            Payload::OperatorState {
                op,
                after_iteration,
                from,
                code_bytes,
                respawn: true,
            },
            Priority::High,
            None,
        );
    }

    /// Takes `node` out of the computation and releases the messages it
    /// buffered. Returns `false` if it was already pruned.
    fn mark_pruned(&mut self, node: NodeId) -> bool {
        let rt = &mut self.nodes[node.index()];
        if rt.pruned {
            return false;
        }
        rt.pruned = true;
        rt.frozen = false;
        rt.respawning = false;
        rt.output = None;
        rt.pending_demand = None;
        for msg in rt.buffered.drain(..) {
            self.transport.msgs.release(msg);
        }
        true
    }

    /// Permanently removes `node` from the tree and propagates the hole
    /// upward: a parent left with no live children is pruned too (all the
    /// way to aborting the run when the root loses its last child), and a
    /// parent that was only waiting on this child may now compose.
    fn prune_node(&mut self, node: NodeId) {
        if !self.mark_pruned(node) {
            return;
        }
        let Some(parent) = self.tree.node(node).parent else {
            self.abort_run("combination tree fully pruned");
            return;
        };
        let all_gone = self
            .tree
            .node(parent)
            .children
            .iter()
            .all(|&c| self.nodes[c.index()].pruned);
        if all_gone {
            if parent == self.tree.root() {
                self.abort_run("all data sources lost");
            } else {
                self.prune_node(parent);
            }
        } else if !self.nodes[parent.index()].pruned {
            self.maybe_compose(parent);
        }
    }

    /// Prunes `node` and its whole subtree (a respawn that exhausted its
    /// retry budget takes everything beneath it out of the computation),
    /// then re-checks the barrier — the quorum may have shrunk past a
    /// pending proposal's missing reports.
    pub(super) fn prune_subtree(&mut self, node: NodeId) {
        for i in 0..self.tree.node(node).children.len() {
            self.prune_subtree_mark(self.tree.node(node).children[i]);
        }
        self.prune_node(node);
        self.try_commit_barrier();
    }

    fn prune_subtree_mark(&mut self, node: NodeId) {
        if !self.mark_pruned(node) {
            return;
        }
        for i in 0..self.tree.node(node).children.len() {
            self.prune_subtree_mark(self.tree.node(node).children[i]);
        }
    }

    /// Whether server `s` is out of the computation: its host was declared
    /// dead or its node pruned. Down servers are excluded from the barrier
    /// quorum — a dead server's report will never arrive.
    pub(super) fn server_is_down(&self, s: usize) -> bool {
        if self.hosts[self.roster.server_host(s).index()].declared_dead {
            return true;
        }
        self.tree
            .nodes()
            .iter()
            .enumerate()
            .any(|(i, n)| matches!(n.kind, NodeKind::Server(x) if x == s) && self.nodes[i].pruned)
    }
}
