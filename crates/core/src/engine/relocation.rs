//! Operator relocation at light points: the state packet's departure,
//! its arrival (an ordinary move or a crash-failover respawn), and the
//! rollback of a move whose packet was lost.

use wadc_net::network::Priority;
use wadc_plan::ids::{HostId, NodeId, OperatorId};

use super::message::Payload;
use super::{AuditEvent, Engine};

impl Engine {
    pub(super) fn begin_relocation(&mut self, node: NodeId, to: HostId, after_iteration: u32) {
        let op = self
            .tree
            .operator_at(node)
            .expect("only operators relocate");
        let rt = &self.nodes[node.index()];
        let from = rt.host;
        // The light-move requirement: an operator moves only while its
        // state is small, holding no output and no input of a gather in
        // progress. A gather for iteration i+1 is in progress when demands
        // for it went out (gather_iter advanced past the last dispatch)
        // and any input already arrived; inputs left over from the
        // just-dispatched iteration don't count.
        let gathering =
            rt.gather_iter > rt.last_dispatched && rt.inputs.iter().any(Option::is_some);
        assert!(
            from != to && rt.output.is_none() && !gathering,
            "engine only relocates at light points"
        );
        let code_bytes = self.code.code_bytes_for_move(to);
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
                from,
                code_bytes,
                respawn: false,
            },
            Priority::Normal,
            None,
        );
    }

    pub(super) fn complete_relocation(
        &mut self,
        node: NodeId,
        op: OperatorId,
        after_iteration: u32,
        from: HostId,
        new_host: HostId,
        respawn: bool,
    ) {
        // A stale pre-crash move packet must not resurrect an operator the
        // failover machinery is already respawning, and a duplicate
        // respawn packet has nothing left to install.
        if self.nodes[node.index()].respawning != respawn {
            return;
        }
        self.code.install(new_host);
        {
            let rt = &mut self.nodes[node.index()];
            debug_assert!(
                rt.frozen,
                "operator state arrived without a move in progress"
            );
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
                from,
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
        self.gossip_move(from, op, new_host);
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

#[cfg(test)]
mod tests {
    use wadc_app::image::ImageDims;
    use wadc_plan::ids::{HostId, NodeId, OperatorId};
    use wadc_sim::time::SimTime;

    use super::super::arena::{InputSlot, OutputItem};
    use super::super::{Algorithm, Engine, RunScratch};
    use crate::experiment::Experiment;

    /// An unrun quick world, the node of its first operator (download-all
    /// keeps it at the client) and a server host to move it to.
    fn world() -> (Engine, NodeId, HostId) {
        let engine =
            Experiment::quick(4, 42).engine_scratch(Algorithm::DownloadAll, RunScratch::new());
        let node = engine.tree.operator_node(OperatorId::new(0));
        let to = engine.roster.server_host(0);
        (engine, node, to)
    }

    #[test]
    fn a_clean_light_point_moves() {
        let (mut engine, node, to) = world();
        engine.begin_relocation(node, to, 0);
        assert!(engine.nodes[node.index()].frozen);
        assert_eq!(engine.relocations, 1);
    }

    #[test]
    #[should_panic(expected = "engine only relocates at light points")]
    fn a_move_holding_output_panics() {
        let (mut engine, node, to) = world();
        engine.nodes[node.index()].output = Some(OutputItem {
            iteration: 1,
            dims: ImageDims::new(8, 8),
        });
        engine.begin_relocation(node, to, 0);
    }

    #[test]
    #[should_panic(expected = "engine only relocates at light points")]
    fn a_move_with_a_gathered_input_panics() {
        let (mut engine, node, to) = world();
        let rt = &mut engine.nodes[node.index()];
        rt.gather_iter = rt.last_dispatched + 1;
        rt.inputs[0] = Some(InputSlot {
            dims: ImageDims::new(8, 8),
            arrived: SimTime::ZERO,
        });
        engine.begin_relocation(node, to, 0);
    }

    #[test]
    #[should_panic(expected = "engine only relocates at light points")]
    fn a_move_to_its_own_host_panics() {
        let (mut engine, node, _) = world();
        let host = engine.nodes[node.index()].host;
        engine.begin_relocation(node, host, 0);
    }
}
