//! The adaptive demand-driven execution engine.
//!
//! Runs the paper's computation end to end on the simulated network: a
//! demand-driven data-flow tree (servers → operators → client) processing
//! 180 image partitions, with operators relocating according to the
//! selected algorithm. The structure enforces the paper's three on-line
//! requirements:
//!
//! - **light-move**: an operator may relocate only after dispatching its
//!   output and before demanding new data,
//! - **concurrency**: placement searches are pure computations outside the
//!   simulated timeline (the paper runs them concurrently on a lightly
//!   loaded node; their network *effects* — probes, barriers, state moves —
//!   are fully modelled),
//! - **coordination**: global change-overs use the barrier protocol
//!   (placement proposals ride demands; servers report their iteration and
//!   suspend; the client broadcasts a switch iteration at high priority);
//!   local relocations are staggered by tree level so the wavefront never
//!   routes data over links absent from both the old and new placements.
//!
//! Each layer lives in its own file and owns its state: `arena` (the
//! [`RunScratch`] arena and the per-node and per-host runtime state),
//! `transport` (sends, deliveries, losses, probes and the throughput
//! model's events), `protocol` (the demand-driven data flow and the
//! hosts' disk and CPU stations), `barrier` (the global algorithm's
//! re-plan and change-over), `local` (the local algorithm's epoch
//! wavefront), `relocation` (operator moves), `failover` (crash
//! detection, pruning and respawn) and `obs` (the recorder bridge). This
//! file builds a world and runs its event loop.

pub mod audit;
pub mod config;
pub mod message;

mod arena;
mod barrier;
mod failover;
mod local;
mod obs;
mod protocol;
mod relocation;
mod transport;

use std::sync::Arc;

use wadc_app::workload::Workload;
use wadc_mobile::registry::CodeRegistry;
use wadc_net::faults::FaultInjector;
use wadc_net::network::{Network, TransferId};
use wadc_plan::bandwidth::MaskedView;
use wadc_plan::ids::{HostId, NodeId, OperatorId};
use wadc_plan::placement::{HostRoster, Placement};
use wadc_plan::tree::CombinationTree;
use wadc_sim::event::EventQueue;
use wadc_sim::rng::derive_seed;
use wadc_sim::stats::Tally;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_topo::graph::Topology;

use crate::algorithms::one_shot::{improve_placement, SearchScratch};
use crate::knowledge::{KnowledgeMode, PlannerView};

pub use arena::RunScratch;
use arena::{recycle, HostRt, NodeRt};
pub use audit::{AuditEvent, AuditLog};
use barrier::Barrier;
pub use config::{Algorithm, EngineConfig, RunOutcome, RunResult};
use failover::Failover;
use local::Local;
pub use message::{DataMsg, Demand, Message, Payload, PlacementUpdate};
use obs::ObsState;
use protocol::Unit;
use transport::Transport;

/// Events driving the engine.
#[derive(Debug)]
enum Ev {
    /// A network transfer completed.
    Deliver(TransferId),
    /// A co-located (same-host) message delivery.
    Local(Box<Message>),
    /// A disk read or a composition finished at the host.
    JobDone { host: usize, unit: Unit },
    /// The global algorithm's periodic re-planning tick.
    GlobalTimer,
    /// The local algorithm's epoch tick.
    EpochTick,
    /// The active monitoring daemon's next probe slot.
    MonitorTick,
    /// The fault schedule's next outage/blackout transition: re-poll the
    /// network so transfers queued behind a dead link start the moment it
    /// revives.
    FaultTick,
    /// Shared-bottleneck model only: a bandwidth-trace step boundary on a
    /// link carrying fair-shared flows — recompute the shares and correct
    /// the affected completion events.
    TopoStep,
    /// A lost message's backoff expired: resend it.
    Retransmit(Box<Message>),
    /// The client's patience for barrier reports ran out; if the proposal
    /// is still pending, abandon it and keep the old placement.
    BarrierTimeout {
        /// The proposal the timer was armed for.
        version: u32,
    },
    /// A lost operator-state transfer was detected: the operator rolls
    /// back at its old host and resumes under the old placement.
    MoveRollback {
        /// The operator's tree node.
        node: NodeId,
        /// The operator.
        op: OperatorId,
        /// The light point it was moving at.
        after_iteration: u32,
    },
}

/// The simulation engine for one run.
///
/// [`Experiment::engine_scratch`] builds one and
/// [`Engine::run_reclaim_scratch`] executes it; [`Experiment::run`] does
/// both.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use wadc_core::engine::{Algorithm, EngineConfig, RunScratch};
/// use wadc_core::experiment::Experiment;
/// use wadc_topo::link::LinkTable;
/// use wadc_trace::model::BandwidthTrace;
///
/// let pool = vec![Arc::new(BandwidthTrace::constant(256_000.0))];
/// let links = LinkTable::random_from_pool(5, &pool, 1);
/// let mut cfg = EngineConfig::new(4, Algorithm::DownloadAll);
/// cfg.workload.images_per_server = 5; // keep the doctest fast
/// let exp = Experiment::new(links, cfg);
/// let engine = exp.engine_scratch(Algorithm::DownloadAll, RunScratch::new());
/// let (result, warm) = engine.run_reclaim_scratch();
/// assert!(result.completed);
/// assert_eq!(result.images_delivered, 5);
/// assert!(warm.is_warm(), "the next run starts on recycled capacity");
/// ```
///
/// [`Experiment::engine_scratch`]: crate::experiment::Experiment::engine_scratch
/// [`Experiment::run`]: crate::experiment::Experiment::run
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    tree: CombinationTree,
    roster: HostRoster,
    /// Shared by every run of one experiment, which synthesizes it once.
    workload: Arc<Workload>,
    n_iterations: u32,
    queue: EventQueue<Ev>,
    net: Network<Box<Message>>,
    nodes: Vec<NodeRt>,
    hosts: Vec<HostRt>,
    /// `Some` iff the run's fault plan is non-empty; `None` guarantees
    /// zero perturbation of clean runs.
    faults: Option<FaultInjector>,
    /// Whether the local algorithm runs; only then do messages carry the
    /// sender's location vector.
    local_mode: bool,
    transport: Transport,
    barrier: Barrier,
    local: Local,
    failover: Failover,
    /// Which hosts hold the operator code, to price each move.
    code: CodeRegistry,
    relocations: u32,
    planner_runs: u32,
    /// Recycled working buffers for the placement search (dense bandwidth
    /// snapshot, critical-path evaluator arrays).
    search: SearchScratch,
    arrivals: Vec<SimTime>,
    audit: AuditLog,
    /// High-water audit-log length across the runs this engine's arena
    /// has served, used to pre-size the next run's log.
    audit_cap: usize,
    /// The attached recorder and its bookkeeping; `None` unless
    /// [`Engine::attach_obs`] was called. Purely passive — see
    /// `attach_obs` for the neutrality guarantee.
    obs: Option<Box<ObsState>>,
}

impl Engine {
    /// Builds the world for one run out of `scratch`. `cfg` must already
    /// pass [`EngineConfig::validate`] and `tree` must be built;
    /// [`Experiment::engine_scratch`], the only caller, does both. The
    /// planner, probes and uncontended transfers see the topology's
    /// nominal path-bottleneck traces, while concurrent transfers over a
    /// shared link split its bandwidth max-min fairly. `workload` must be
    /// what `cfg` generates.
    ///
    /// # Panics
    ///
    /// Panics if the tree, roster and topology disagree about server and
    /// host counts.
    ///
    /// [`Experiment::engine_scratch`]: crate::experiment::Experiment::engine_scratch
    pub(crate) fn build(
        cfg: EngineConfig,
        topology: Arc<Topology>,
        tree: CombinationTree,
        roster: HostRoster,
        workload: Arc<Workload>,
        mut scratch: RunScratch,
    ) -> Self {
        assert_eq!(
            tree.server_count(),
            cfg.n_servers,
            "tree must cover exactly the configured servers"
        );
        assert_eq!(
            roster.server_count(),
            cfg.n_servers,
            "roster must cover exactly the configured servers"
        );
        assert_eq!(
            topology.host_count(),
            roster.host_count(),
            "topology must cover one host per server plus the client"
        );

        let n_iterations = u32::try_from(cfg.workload.images_per_server)
            .expect("validate bounds the images per server");
        let n_hosts = roster.host_count();
        // Seed stream 4 is reserved for fault injection (1 = workload,
        // 2 = engine decisions, 3 = probe stagger). An empty plan builds
        // no injector at all — the zero-perturbation guarantee.
        let faults = (!cfg.faults.is_empty())
            .then(|| FaultInjector::new(&cfg.faults, derive_seed(cfg.seed, 4), n_hosts));

        // Acquire all growable state from the arena. Every part is reset
        // to exactly what a cold construction would build — only spare
        // capacity survives from earlier runs, so results are
        // bit-identical either way (a cold `RunScratch::new()` builds
        // everything fresh).
        scratch.queue.reset();
        recycle(
            &mut scratch.hosts,
            n_hosts,
            || HostRt::new(cfg.monitor),
            |_, h| h.reset(cfg.monitor, n_hosts),
        );
        scratch.transport.reset(&cfg, n_hosts);
        let mut net = Network::with_scratch(cfg.net, topology, scratch.net);
        if let Some(f) = &faults {
            net.set_faults(f.clone());
        }
        let mut engine = Engine {
            barrier: Barrier::new(Placement::download_all(&tree, &roster), scratch.reports),
            net,
            faults,
            local_mode: matches!(cfg.algorithm, Algorithm::Local { .. }),
            transport: scratch.transport,
            local: Local::build(&cfg, &tree, scratch.local),
            failover: Failover::default(),
            code: CodeRegistry::new(cfg.mobility, cfg.code_package_bytes),
            relocations: 0,
            planner_runs: 0,
            search: scratch.search,
            arrivals: Vec::with_capacity(n_iterations as usize),
            audit: AuditLog::with_capacity(scratch.audit_cap),
            audit_cap: scratch.audit_cap,
            obs: None,
            cfg,
            tree,
            roster,
            workload,
            n_iterations,
            queue: scratch.queue,
            nodes: scratch.nodes,
            hosts: scratch.hosts,
        };

        // Initial placement: download-all keeps every operator at the
        // client; the other algorithms start from a search, whose
        // on-demand probes leave their measurements in the prober's
        // cache.
        if engine.cfg.algorithm != Algorithm::DownloadAll {
            if let Some(placement) = engine.replan() {
                engine.barrier.committed = placement;
            }
            engine.seed_cache_from_probes();
        }
        let (tree, roster, initial) = (&engine.tree, &engine.roster, &engine.barrier.committed);
        recycle(
            &mut engine.nodes,
            tree.nodes().len(),
            NodeRt::default,
            |i, node| {
                let host = initial.node_host(tree, roster, NodeId::new(i));
                node.reset(host, tree.nodes()[i].children.len());
            },
        );
        if engine.local_mode {
            for h in &mut engine.hosts {
                h.vector.assign(initial.sites());
            }
        }
        engine
    }

    /// Runs the simulation to completion (or the safety cap) and returns
    /// the results together with the [`RunScratch`] arena — message pool,
    /// event-queue slab, per-node and per-host state, every reusable
    /// buffer — so the next run built from it starts with warmed capacity
    /// everywhere.
    pub fn run_reclaim_scratch(mut self) -> (RunResult, RunScratch) {
        let result = self.execute();
        let scratch = self.reclaim(result.audit.len());
        (result, scratch)
    }

    /// Drives the simulation to completion (or the safety cap) and builds
    /// the [`RunResult`], leaving recyclable state behind on `self` for
    /// [`Engine::reclaim`].
    fn execute(&mut self) -> RunResult {
        // Kick off: the client demands the first partition; on-line
        // algorithms arm their timers.
        match self.cfg.algorithm {
            Algorithm::Global { period } => {
                self.queue.schedule(SimTime::ZERO + period, Ev::GlobalTimer);
            }
            Algorithm::Local { .. } => {
                self.queue
                    .schedule(SimTime::ZERO + self.local.epoch_len, Ev::EpochTick);
            }
            _ => {}
        }
        if let Some(next) = self
            .transport
            .probe_scheduler
            .as_ref()
            .and_then(|s| s.next_due())
        {
            self.queue.schedule(next, Ev::MonitorTick);
        }
        if let Some(t) = self
            .faults
            .as_ref()
            .and_then(|f| f.next_transition_after(SimTime::ZERO))
        {
            self.queue.schedule(t, Ev::FaultTick);
        }
        self.send_demands(self.tree.root(), 1);

        let cap = SimTime::ZERO + self.cfg.max_sim_time;
        let mut completed = false;
        while let Some((t, _, ev)) = self.queue.pop() {
            if t > cap {
                Self::harvest_ev(&mut self.transport.msgs, ev);
                break;
            }
            self.handle(ev);
            self.obs_sample_tick(t);
            if self.failover.aborted.is_some() {
                break;
            }
            if self.arrivals.len() as u32 >= self.n_iterations {
                completed = true;
                break;
            }
        }
        self.obs_finish(completed);

        let completion_time = self
            .arrivals
            .last()
            .map(|&t| t - SimTime::ZERO)
            .unwrap_or(SimDuration::ZERO);
        let mut interarrival = Tally::new();
        let mut prev = SimTime::ZERO;
        for &a in &self.arrivals {
            interarrival.record((a - prev).as_secs_f64());
            prev = a;
        }
        // The liveness guarantee: every run ends in exactly one of three
        // explicit states. `Completed` is reserved for runs that delivered
        // everything over a fully live host set; anything the failure
        // detector touched is at best `Degraded`, and a run that lost its
        // client (or every data source) is `Aborted`.
        let outcome = if self.failover.aborted.is_some() {
            RunOutcome::Aborted
        } else if completed && self.failover.hosts_declared_dead == 0 {
            RunOutcome::Completed
        } else {
            RunOutcome::Degraded
        };
        RunResult {
            completed,
            outcome,
            hosts_declared_dead: self.failover.hosts_declared_dead,
            operators_respawned: self.failover.operators_respawned,
            completion_time,
            images_delivered: self.arrivals.len(),
            interarrival,
            arrivals: std::mem::take(&mut self.arrivals),
            relocations: self.relocations,
            changeovers: self.barrier.changeovers,
            planner_runs: self.planner_runs,
            net_stats: self.net.stats(),
            audit: std::mem::take(&mut self.audit),
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Deliver(tid) => self.handle_delivery(tid),
            Ev::Local(msg) => {
                // A co-located delivery on a crashed (or declared-dead)
                // host dies with the host: no accounting, no recovery —
                // there is no wire and no surviving sender.
                if self.host_down(msg.dst_host) {
                    self.transport.msgs.release(msg);
                } else {
                    self.dispatch_message(msg);
                }
            }
            Ev::JobDone { host, unit } => self.handle_job_done(host, unit),
            Ev::GlobalTimer => self.handle_global_timer(),
            Ev::EpochTick => self.handle_epoch_tick(),
            Ev::MonitorTick => self.handle_monitor_tick(),
            Ev::FaultTick => self.handle_fault_tick(),
            Ev::TopoStep => self.handle_topo_step(),
            Ev::Retransmit(msg) => self.handle_retransmit(msg),
            Ev::BarrierTimeout { version } => self.handle_barrier_timeout(version),
            Ev::MoveRollback {
                node,
                op,
                after_iteration,
            } => self.handle_move_rollback(node, op, after_iteration),
        }
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// How far past `T_thres` planners may trust cached measurements.
    /// Zero in clean runs; one extra `T_thres` under fault injection,
    /// where measurements go missing and a stale value beats a blind
    /// probe of a possibly-dead link.
    fn planner_grace(&self) -> SimDuration {
        if self.faults.is_some() {
            self.cfg.monitor.t_thres
        } else {
            SimDuration::ZERO
        }
    }

    /// Whether the planner reads NWS forecasts
    /// ([`KnowledgeMode::Forecast`]). When it does not, the forecasters
    /// are never consulted, so passive monitoring skips feeding them —
    /// their statistics were the engine's dominant steady-state
    /// allocation cost.
    fn forecasting(&self) -> bool {
        self.cfg.knowledge == KnowledgeMode::Forecast
    }

    /// Runs the placement search from the committed placement over the
    /// client's view, counts the run and records it in the audit log.
    /// After a declared host death the search runs over the
    /// surviving-host subgraph: stale measurements through a dead host
    /// are masked and its sites excluded from candidacy. Clean runs take
    /// the unmasked path. Returns the found placement if it differs from
    /// the committed one.
    fn replan(&mut self) -> Option<Placement> {
        let now = self.now();
        let grace = self.planner_grace();
        // Empty, and so not allocated, in clean runs.
        let dead: Vec<HostId> = self
            .roster
            .hosts()
            .filter(|h| self.hosts[h.index()].declared_dead)
            .collect();
        self.planner_runs += 1;
        let client = &self.hosts[self.roster.client().index()];
        let view = PlannerView::for_mode(
            self.cfg.knowledge,
            &client.cache,
            &client.forecaster,
            &self.transport.gauge,
            self.net.links(),
            now,
        )
        .with_grace(grace);
        let start = self.barrier.committed.clone();
        let (model, objective) = (&self.cfg.cost_model, self.cfg.objective);
        let (tree, roster, scratch) = (&self.tree, &self.roster, &mut self.search);
        let result = if dead.is_empty() {
            improve_placement(tree, roster, start, view, model, objective, &dead, scratch)
        } else {
            let masked = MaskedView::new(view, roster.host_count(), dead.iter().copied());
            improve_placement(
                tree, roster, start, &masked, model, objective, &dead, scratch,
            )
        };
        let changed = result.placement != self.barrier.committed;
        self.record_audit(AuditEvent::PlannerRan {
            at: now,
            cost_before: result.start_cost,
            cost_after: result.cost,
            changed,
        });
        changed.then_some(result.placement)
    }
}
