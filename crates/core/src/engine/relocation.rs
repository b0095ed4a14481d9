//! Operator relocation at light points: the state packet's departure,
//! its arrival (an ordinary move or a crash-failover respawn), and the
//! rollback of a move whose packet was lost.

use wadc_mobile::protocol::{LightPointWitness, MovePlan};
use wadc_mobile::state::OperatorState as MobileState;
use wadc_plan::ids::{HostId, NodeId, OperatorId};
use wadc_sim::resource::Priority;

use super::message::Payload;
use super::{AuditEvent, Engine};

impl Engine {
    pub(super) fn begin_relocation(&mut self, node: NodeId, to: HostId, after_iteration: u32) {
        let op = self
            .tree
            .operator_at(node)
            .expect("only operators relocate");
        let (from, mobile_state, witness) = {
            let rt = &self.nodes[node.index()];
            (
                rt.host,
                MobileState {
                    op,
                    last_dispatched: rt.last_dispatched,
                    later_marks: rt.later_marks,
                    dispatches_this_epoch: rt.dispatches_this_epoch,
                    consumer_on_cp: rt.consumer_on_cp,
                    on_cp: rt.on_cp,
                },
                LightPointWitness {
                    holds_output: rt.output.is_some(),
                    // A gather for iteration i+1 is in progress when demands
                    // for it went out (gather_iter advanced past the last
                    // dispatch) and any input already arrived; inputs left
                    // over from the just-dispatched iteration don't count.
                    has_gathered_inputs: rt.gather_iter > rt.last_dispatched
                        && rt.inputs.iter().any(Option::is_some),
                },
            )
        };
        // The mobility substrate re-validates the light-move requirement
        // and prices the move (state packet + code on a first visit).
        let plan = self
            .mobility
            .plan_move(&mobile_state, from, to, witness)
            .expect("engine only relocates at light points");
        self.nodes[node.index()].frozen = true;
        self.relocations += 1;
        self.record_audit(AuditEvent::RelocationStarted {
            at: self.now(),
            op,
            from,
            to,
            after_iteration,
        });
        self.send_to_host(
            node,
            from,
            to,
            Payload::OperatorState {
                op,
                after_iteration,
                plan,
                respawn: false,
            },
            Priority::Normal,
            None,
        );
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn complete_relocation(
        &mut self,
        node: NodeId,
        op: OperatorId,
        after_iteration: u32,
        from_host: HostId,
        new_host: HostId,
        plan: &MovePlan,
        respawn: bool,
    ) {
        // A stale pre-crash move packet must not resurrect an operator the
        // failover machinery is already respawning, and a duplicate
        // respawn packet has nothing left to install.
        if self.nodes[node.index()].respawning != respawn {
            return;
        }
        // The substrate validates the packet and records the code install.
        let restored = self
            .mobility
            .complete_move(plan)
            .expect("engine-produced state packets are valid");
        debug_assert_eq!(restored.op, op);
        {
            let rt = &mut self.nodes[node.index()];
            debug_assert!(
                rt.frozen,
                "operator state arrived without a move in progress"
            );
            debug_assert_eq!(restored.last_dispatched, rt.last_dispatched);
            rt.frozen = false;
            rt.host = new_host;
        }
        if respawn {
            {
                let rt = &mut self.nodes[node.index()];
                rt.respawning = false;
                // The interrupted gather restarts from scratch at the new
                // site: whatever had arrived at the dead host died with it.
                rt.composed_iter = rt.last_dispatched;
                rt.output = None;
            }
            self.failover.operators_respawned += 1;
            self.record_audit(AuditEvent::OperatorRespawned {
                at: self.now(),
                op,
                from: plan.from,
                to: new_host,
            });
            // The coordinator (client) knows the new site; gossip it.
            self.gossip_move(self.roster.client(), op, new_host);
            let resume = {
                let rt = &self.nodes[node.index()];
                rt.gather_iter.max(rt.last_dispatched + 1)
            };
            self.resume(node, resume);
            return;
        }
        self.record_audit(AuditEvent::RelocationFinished {
            at: self.now(),
            op,
            host: new_host,
        });
        // The original site records the move and the new site learns it.
        self.gossip_move(from_host, op, new_host);
        self.resume(node, after_iteration + 1);
    }

    /// Rolls a failed move back: the operator unfreezes at its old host
    /// (its state never left — only the copy in transit was lost), resumes
    /// demanding, and replays anything buffered during the attempt. A
    /// later placement decision is free to retry the move.
    pub(super) fn handle_move_rollback(
        &mut self,
        node: NodeId,
        op: OperatorId,
        after_iteration: u32,
    ) {
        let now = self.now();
        // A crash-failover respawn supersedes any pre-crash move recovery,
        // and a pruned subtree has nothing left to roll back.
        if self.nodes[node.index()].respawning || self.nodes[node.index()].pruned {
            return;
        }
        let host = {
            let rt = &mut self.nodes[node.index()];
            debug_assert!(rt.frozen, "rollback of a move that is not in flight");
            rt.frozen = false;
            rt.host
        };
        self.record_audit(AuditEvent::RelocationAborted { at: now, op, host });
        self.resume(node, after_iteration + 1);
    }

    /// Local mode: `recorder` stamps `op`'s move to `to` in its location
    /// vector, and `to` merges that vector (a vector merged into itself
    /// is unchanged, so a host recording its own arrival skips it).
    fn gossip_move(&mut self, recorder: HostId, op: OperatorId, to: HostId) {
        if !self.local_mode {
            return;
        }
        self.hosts[recorder.index()].vector.record_move(op, to);
        if recorder != to {
            let [src, dst] = self
                .hosts
                .get_disjoint_mut([recorder.index(), to.index()])
                .expect("two distinct hosts of the roster");
            dst.vector.merge(&src.vector);
        }
    }

    /// Resumes an operator whose move settled: demands `iteration` (if the
    /// run has one), replays the messages buffered while it was frozen,
    /// and dispatches if a demand is already waiting.
    fn resume(&mut self, node: NodeId, iteration: u32) {
        self.send_demands(node, iteration);
        let buffered = std::mem::take(&mut self.nodes[node.index()].buffered);
        for msg in buffered {
            self.deliver_to_node(msg);
        }
        self.try_dispatch(node);
    }
}
