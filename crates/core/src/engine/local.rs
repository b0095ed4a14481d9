//! The local algorithm (§2.3): a staggered epoch wavefront in which each
//! critical-path operator picks its best site among its neighbours' hosts
//! (plus random extra candidates) and moves at its next light point.

use wadc_plan::ids::{HostId, NodeId, OperatorId};
use wadc_plan::tree::{CombinationTree, NodeKind};
use wadc_sim::rng::{derive_seed, Rng64};
use wadc_sim::time::SimDuration;

use super::{Algorithm, AuditEvent, Engine, EngineConfig, Ev};
use crate::algorithms::local_step::{best_local_site, LocalContext};
use crate::knowledge::PlannerView;

/// Scratch storage for [`Engine::fill_local_context`]: the context handed
/// to [`best_local_site`] plus the working vectors used to draw the extra
/// random candidates. Reused across decisions; contents are rebuilt from
/// scratch each call, so stale data cannot leak between operators.
#[derive(Debug, Default)]
pub(super) struct LocalScratch {
    ctx: LocalContext,
    fixed: Vec<HostId>,
    remaining: Vec<HostId>,
}

/// The epoch wavefront's run state.
#[derive(Debug)]
pub(super) struct Local {
    /// One tree level decides per epoch; zero outside local runs.
    pub(super) epoch_len: SimDuration,
    epoch_index: u64,
    extra_candidates: usize,
    /// Draws the extra random candidates.
    rng: Rng64,
    pub(super) scratch: LocalScratch,
}

impl Local {
    pub(super) fn build(cfg: &EngineConfig, tree: &CombinationTree, scratch: LocalScratch) -> Self {
        let (epoch_len, extra_candidates) = match cfg.algorithm {
            Algorithm::Local {
                period,
                extra_candidates,
            } => {
                let depth = tree.depth().max(1) as u64;
                (
                    (period / depth).max(SimDuration::from_secs(1)),
                    extra_candidates,
                )
            }
            _ => (SimDuration::ZERO, 0),
        };
        Local {
            epoch_len,
            epoch_index: 0,
            extra_candidates,
            rng: Rng64::seed_from_u64(derive_seed(cfg.seed, 2)),
            scratch,
        }
    }
}

impl Engine {
    pub(super) fn handle_epoch_tick(&mut self) {
        let depth = self.tree.depth().max(1);
        let level = (self.local.epoch_index % depth as u64) as usize;
        self.local.epoch_index += 1;
        self.queue.schedule_in(self.local.epoch_len, Ev::EpochTick);

        let now = self.now();
        for i in 0..self.tree.operator_count() {
            let op = OperatorId::new(i);
            if self.tree.operator_level(op) != level {
                continue;
            }
            let node = self.tree.operator_node(op);
            let (later, dispatched, consumer_on_cp, host, frozen) = {
                let rt = &self.nodes[node.index()];
                (
                    rt.later_marks,
                    rt.dispatches_this_epoch,
                    rt.consumer_on_cp,
                    rt.host,
                    rt.frozen,
                )
            };
            // "an operator decides that it is on the critical path iff it
            // was marked the 'later' producer more than half the times it
            // sent data during the epoch and its consumer was also on the
            // critical path"
            let on_cp = dispatched > 0 && later * 2 > dispatched && consumer_on_cp;
            {
                let rt = &mut self.nodes[node.index()];
                rt.on_cp = on_cp;
                rt.later_marks = 0;
                rt.dispatches_this_epoch = 0;
            }
            if !on_cp || frozen {
                continue;
            }
            self.fill_local_context(node, host);
            let view =
                PlannerView::monitored(&self.hosts[host.index()].cache, self.net.links(), now)
                    .with_grace(self.planner_grace());
            let decision = best_local_site(&self.local.scratch.ctx, view, &self.cfg.cost_model);
            if decision.moves() {
                self.record_audit(AuditEvent::LocalDecision {
                    at: now,
                    op,
                    level,
                    from: host,
                    to: decision.site,
                });
                self.nodes[node.index()].pending_move = Some(decision.site);
            }
        }
    }

    /// Builds the operator's local view into `self.local.scratch.ctx`:
    /// producer and consumer locations from the host's location vector
    /// (servers and the client are pinned by the roster), plus `k` random
    /// extra candidates. Fills reusable buffers instead of allocating —
    /// the epoch wavefront calls this for every critical-path operator.
    fn fill_local_context(&mut self, node: NodeId, host: HostId) {
        // Take the scratch out so its buffers can be filled while reading
        // the rest of the engine; `take` swaps in empty (non-allocating)
        // vectors, so no per-call allocation happens either way.
        let mut scratch = std::mem::take(&mut self.local.scratch);
        let believed = |engine: &Engine, peer: NodeId| -> HostId {
            match engine.tree.node(peer).kind {
                NodeKind::Server(s) => engine.roster.server_host(s),
                NodeKind::Client => engine.roster.client(),
                NodeKind::Operator(op) => engine.hosts[host.index()].vector.location(op),
            }
        };
        scratch.ctx.producers.clear();
        scratch.ctx.producers.extend(
            self.tree
                .node(node)
                .children
                .iter()
                .map(|&c| believed(self, c)),
        );
        scratch.ctx.consumer = believed(
            self,
            self.tree.node(node).parent.expect("operators have parents"),
        );
        scratch.ctx.current = host;
        scratch.fixed.clear();
        scratch.fixed.extend_from_slice(&scratch.ctx.producers);
        scratch.fixed.push(scratch.ctx.consumer);
        scratch.fixed.push(host);
        scratch.ctx.extra_candidates.clear();
        if self.local.extra_candidates > 0 {
            scratch.remaining.clear();
            scratch
                .remaining
                .extend(self.roster.hosts().filter(|h| !scratch.fixed.contains(h)));
            for _ in 0..self.local.extra_candidates.min(scratch.remaining.len()) {
                let idx = self.local.rng.range_usize(scratch.remaining.len());
                scratch
                    .ctx
                    .extra_candidates
                    .push(scratch.remaining.swap_remove(idx));
            }
        }
        self.local.scratch = scratch;
    }
}
