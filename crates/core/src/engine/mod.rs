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

pub mod audit;
pub mod config;
pub mod message;

use std::collections::BTreeSet;

use std::sync::Arc;

use wadc_app::compose::{compose_secs, PAPER_SECS_PER_PIXEL};
use wadc_app::image::ImageDims;
use wadc_app::workload::Workload;
use wadc_mobile::protocol::{LightPointWitness, MoveProtocol};
use wadc_mobile::registry::CodeRegistry;
use wadc_mobile::state::OperatorState as MobileState;
use wadc_monitor::cache::BandwidthCache;
use wadc_monitor::daemon::ProbeScheduler;
use wadc_monitor::forecast::Forecaster;
use wadc_monitor::gauge::Gauge;
use wadc_monitor::observe::EstimateGauges;
use wadc_monitor::piggyback;
use wadc_monitor::vector::LocationVector;
use wadc_net::faults::{FaultInjector, TrafficKind};
use wadc_net::network::{NetScratch, Network, StartedTransfer, TransferId, TransferSpec};
use wadc_obs::metrics::SeriesKind;
use wadc_obs::recorder::{
    EventArgs, EventKind, Obs, SeriesId, SeriesName, SpanArgs, SpanId, SpanKind, TrackId, TrackName,
};
use wadc_plan::bandwidth::MaskedView;
use wadc_plan::ids::{HostId, NodeId, OperatorId};
use wadc_plan::placement::{HostRoster, Placement};
use wadc_plan::tree::{CombinationTree, NodeKind};
use wadc_sim::event::{EventId, EventQueue};
use wadc_sim::resource::{Priority, Resource};
use wadc_sim::rng::{derive_seed, Rng64};
use wadc_sim::stats::Tally;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_topo::graph::Topology;
use wadc_topo::link::LinkTable;

use crate::algorithms::local_step::{best_local_site, LocalContext};
use crate::algorithms::one_shot::{improve_placement_scratch, SearchScratch};
use crate::knowledge::{KnowledgeMode, PlannerView};

pub use audit::{AuditEvent, AuditLog};
pub use config::{Algorithm, EngineConfig, RetryPolicy, RunOutcome, RunResult};
use message::MsgPool;
pub use message::{DataMsg, Demand, Message, Payload, PlacementUpdate};

/// Events driving the engine.
#[derive(Debug)]
enum Ev {
    /// A network transfer completed.
    Deliver(TransferId),
    /// A co-located (same-host) message delivery.
    Local(Box<Message>),
    /// A disk read finished at the host.
    DiskDone { host: usize },
    /// A composition finished at the host.
    ComputeDone { host: usize },
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

#[derive(Debug, Clone, Copy)]
struct OutputItem {
    iteration: u32,
    dims: ImageDims,
}

#[derive(Debug, Clone, Copy)]
struct InputSlot {
    dims: ImageDims,
    arrived: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct ComputeJob {
    node: NodeId,
    iteration: u32,
    dims: ImageDims,
    duration: SimDuration,
}

#[derive(Debug, Clone, Copy)]
struct DiskJob {
    node: NodeId,
    iteration: u32,
    dims: ImageDims,
}

/// Per-node runtime state.
#[derive(Debug, Default)]
struct NodeRt {
    host: HostId,
    /// `true` while the operator's state is in transit between hosts.
    frozen: bool,
    /// Messages that arrived during a relocation, replayed on arrival.
    /// Boxes, not values: they re-enter delivery and return to the pool.
    #[allow(clippy::vec_box)]
    buffered: Vec<Box<Message>>,
    output: Option<OutputItem>,
    pending_demand: Option<u32>,
    gather_iter: u32,
    inputs: Vec<Option<InputSlot>>,
    last_dispatched: u32,
    /// Which child delivered later in the last completed gather.
    later_child: Option<usize>,
    /// Local algorithm: times this node was marked the later producer
    /// during the current epoch.
    later_marks: u32,
    /// Local algorithm: data dispatches during the current epoch.
    dispatches_this_epoch: u32,
    consumer_on_cp: bool,
    on_cp: bool,
    /// Local algorithm: relocation decided, applied at the next light point.
    pending_move: Option<HostId>,
    /// Global algorithm: committed `(switch_iteration, new_site)`.
    next_placement: Option<(u32, HostId)>,
    seen_proposal_version: u32,
    /// Server: suspended between reporting a barrier and its commit.
    suspended: bool,
    /// Server: highest iteration whose disk read has been requested.
    disk_requested: u32,
    /// Permanently removed from the tree: its host was declared dead (for
    /// servers) or every child is pruned / a respawn exhausted its retry
    /// budget (for operators). A pruned node neither receives demands nor
    /// blocks its parent's gather. Always `false` in clean runs.
    pruned: bool,
    /// A crash-failover respawn of this operator is in flight; stale
    /// pre-crash move packets and rollbacks must not race it.
    respawning: bool,
    /// Copy of the most recently dispatched output, retained so a
    /// respawned consumer can ask for a replay after the in-flight copy
    /// died with a crashed host. Never read in clean runs.
    last_output: Option<OutputItem>,
    /// Highest gather iteration whose composition was already requested;
    /// guards [`Engine::maybe_compose`] against double-composing when a
    /// child is pruned after readiness was reached.
    composed_iter: u32,
}

impl NodeRt {
    /// Initialises this node at `host` with `n_children` empty input
    /// slots, reusing the `inputs` and `buffered` buffers. A cold node is
    /// a default node passed through here. Any boxes still in `buffered`
    /// must have been harvested by the caller first.
    fn reset(&mut self, host: HostId, n_children: usize) {
        debug_assert!(self.buffered.is_empty(), "buffered boxes not harvested");
        self.host = host;
        self.frozen = false;
        self.buffered.clear();
        self.output = None;
        self.pending_demand = None;
        self.gather_iter = 0;
        self.inputs.clear();
        self.inputs.resize(n_children, None);
        self.last_dispatched = 0;
        self.later_child = None;
        self.later_marks = 0;
        self.dispatches_this_epoch = 0;
        self.consumer_on_cp = false;
        self.on_cp = false;
        self.pending_move = None;
        self.next_placement = None;
        self.seen_proposal_version = 0;
        self.suspended = false;
        self.disk_requested = 0;
        self.pruned = false;
        self.respawning = false;
        self.last_output = None;
        self.composed_iter = 0;
    }
}

/// The barrier's per-server iteration reports: a flat slot per server
/// plus a filled-slot count, replacing the old `BTreeMap<usize, u32>` on
/// the hot path. The slot vector is recycled through the engine (and the
/// [`RunScratch`] arena) across proposals, so steady-state barriers
/// allocate nothing.
#[derive(Debug, Default)]
struct BarrierReports {
    slots: Vec<Option<u32>>,
    filled: usize,
}

impl BarrierReports {
    /// Builds an empty report set for `n_servers` on recycled storage.
    fn on_slots(mut slots: Vec<Option<u32>>, n_servers: usize) -> Self {
        slots.clear();
        slots.resize(n_servers, None);
        BarrierReports { slots, filled: 0 }
    }

    fn insert(&mut self, server: usize, iteration: u32) {
        if self.slots[server].is_none() {
            self.filled += 1;
        }
        self.slots[server] = Some(iteration);
    }

    fn contains(&self, server: usize) -> bool {
        self.slots[server].is_some()
    }

    fn is_empty(&self) -> bool {
        self.filled == 0
    }

    fn max_iteration(&self) -> Option<u32> {
        self.slots.iter().flatten().copied().max()
    }

    /// Hands the slot storage back for reuse by the next proposal.
    fn into_slots(self) -> Vec<Option<u32>> {
        self.slots
    }
}

#[derive(Debug)]
struct Proposal {
    version: u32,
    placement: Placement,
    reports: BarrierReports,
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
    caches: Vec<BandwidthCache>,
    forecasters: Vec<Forecaster>,
    vectors: Vec<LocationVector>,
    cpus: Vec<Resource<ComputeJob>>,
    cpu_current: Vec<Option<ComputeJob>>,
    disks: Vec<Resource<DiskJob>>,
    disk_current: Vec<Option<DiskJob>>,
    committed_placement: Placement,
    committed_version: u32,
    /// Highest proposal version ever created. Distinct from
    /// `committed_version` once a proposal has been aborted: versions are
    /// never reused, so the audit trail stays unambiguous.
    proposal_counter: u32,
    proposal: Option<Proposal>,
    local_mode: bool,
    /// Whether the planner reads NWS forecasts
    /// ([`KnowledgeMode::Forecast`]). When it does not, the forecasters
    /// are never consulted, so passive monitoring skips feeding them —
    /// their statistics were the engine's dominant steady-state
    /// allocation cost.
    forecasting: bool,
    epoch_len: SimDuration,
    epoch_index: u64,
    extra_candidates: usize,
    rng: Rng64,
    arrivals: Vec<SimTime>,
    relocations: u32,
    changeovers: u32,
    planner_runs: u32,
    audit: AuditLog,
    mobility: MoveProtocol,
    probe_scheduler: Option<ProbeScheduler>,
    /// `Some` iff the run's fault plan is non-empty; `None` guarantees
    /// zero perturbation of clean runs.
    faults: Option<FaultInjector>,
    /// Failure detector verdicts: `declared_dead[h]` once host `h` has
    /// exhausted the retry budget on `detection_k` distinct messages.
    /// Declaration — not the physical crash — triggers failover and the
    /// traffic ban; all-false in clean runs.
    declared_dead: Vec<bool>,
    /// Detector evidence: retry-exhausted (abandoned) messages per
    /// destination host, counted only while the sender itself is alive.
    abandoned: Vec<u32>,
    hosts_declared_dead: u32,
    operators_respawned: u32,
    /// Set once the run cannot produce further useful work (client host
    /// dead, or every data source lost); the main loop stops immediately
    /// and the result reports [`RunOutcome::Aborted`].
    aborted: Option<&'static str>,
    /// Probes rolled as black-holed at submission: their transfer still
    /// occupies the wire, but delivery discards them unmeasured.
    doomed_probes: BTreeSet<TransferId>,
    /// Reusable buffers for the local algorithm's per-operator decision so
    /// the epoch hot loop allocates nothing once warmed up.
    local_scratch: LocalScratch,
    /// Free list of message boxes; the steady-state send path draws from
    /// it instead of the allocator. See [`MsgPool`].
    msg_pool: MsgPool,
    /// Reusable buffer for [`Engine::pump`]'s started-transfer batch.
    started_scratch: Vec<StartedTransfer>,
    /// The scheduled completion event of every in-flight transfer the
    /// throughput model tracks, so fair-share corrections can cancel and
    /// reschedule it. A flat slab indexed by [`TransferId::as_u64`] — ids
    /// are minted sequentially from zero per run, so no hashing on the
    /// hot path; it stays empty on a per-pair world.
    deliver_events: Vec<Option<EventId>>,
    /// The armed trace-step recompute event, if any.
    topo_step_event: Option<EventId>,
    /// The client-side runtime bandwidth gauger (WANify-style), fed from
    /// in-flight transfer rates while `gauging`.
    gauge: Gauge,
    /// Whether the planner reads the gauge ([`KnowledgeMode::Gauged`]).
    /// When it does not, the gauge is never fed — same allocation
    /// discipline as `forecasting`.
    gauging: bool,
    /// Reusable buffer for [`Engine::emit_probe_traffic`]'s pair sweep.
    probe_pairs: Vec<(HostId, HostId)>,
    /// Reusable buffer for the batched main loop's current event cluster.
    batch: Vec<EventId>,
    /// Recycled storage for [`BarrierReports`]; empty while a proposal is
    /// pending (the proposal holds it).
    report_slots: Vec<Option<u32>>,
    /// Location vectors parked here by non-local runs so the arena's
    /// warmed vectors survive algorithm interleaving; never read.
    spare_vectors: Vec<LocationVector>,
    /// Recycled working buffers for the placement search (dense bandwidth
    /// snapshot, critical-path evaluator arrays); also reused by the
    /// periodic global re-plan and crash respawn.
    search_scratch: SearchScratch,
    /// High-water audit-log length across the runs this engine's arena
    /// has served, used to pre-size the next run's log.
    audit_cap: usize,
    /// Observability sink; disabled unless [`Engine::attach_obs`] was
    /// called. Purely passive — see `attach_obs` for the neutrality
    /// guarantee.
    obs: Obs,
    /// Track/series handles and open-span bookkeeping for the attached
    /// recorder. `None` exactly when `obs` is disabled.
    obs_state: Option<Box<ObsState>>,
}

/// Handles into the attached recorder plus the currently open spans the
/// audit bridge must close later. Boxed so the disabled path costs one
/// null pointer in [`Engine`].
#[derive(Debug)]
struct ObsState {
    run_span: SpanId,
    client_track: TrackId,
    planner_track: TrackId,
    /// One track per operator, indexed by operator id.
    op_tracks: Vec<TrackId>,
    /// Residency gauge per operator (value = current host index).
    op_sites: Vec<SeriesId>,
    /// Client-side iteration span currently open, if any.
    iter_span: SpanId,
    /// Barrier change-over span currently open, if any.
    changeover_span: SpanId,
    /// In-flight relocation span per operator.
    reloc_spans: Vec<SpanId>,
    s_queue_depth: SeriesId,
    s_drops: SeriesId,
    s_retransmits: SeriesId,
    gauges: EstimateGauges,
    /// Next time the decimated sampling tick fires.
    next_sample: SimTime,
}

/// How often the run loop samples queue depth and bandwidth gauges. The
/// tick piggybacks on whatever event the loop is already processing — it
/// never schedules anything, so sampling cannot perturb the run.
const OBS_SAMPLE_EVERY: SimDuration = SimDuration::from_secs(5);

/// Measurements each host's forecaster keeps per host pair.
const FORECAST_WINDOW: usize = 16;

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

/// Scratch storage for [`Engine::fill_local_context`]: the context handed
/// to [`best_local_site`] plus the working vectors used to draw the extra
/// random candidates. Reused across decisions; contents are rebuilt from
/// scratch each call, so stale data cannot leak between operators.
#[derive(Debug)]
struct LocalScratch {
    ctx: LocalContext,
    fixed: Vec<HostId>,
    remaining: Vec<HostId>,
}

impl Default for LocalScratch {
    fn default() -> Self {
        LocalScratch {
            ctx: LocalContext {
                producers: Vec::new(),
                consumer: HostId::new(0),
                current: HostId::new(0),
                extra_candidates: Vec::new(),
            },
            fixed: Vec::new(),
            remaining: Vec::new(),
        }
    }
}

/// A reusable per-worker arena for everything growable a run allocates:
/// the event queue's slab, per-node runtime state, per-host caches,
/// forecasters, resources and flag vectors, the message pool, every
/// reusable engine buffer, and capacity hints for the buffers that must
/// move into the [`RunResult`] (the audit log).
///
/// Thread one through consecutive runs:
/// [`Experiment::engine_scratch`] builds the world out of it,
/// [`Engine::run_reclaim_scratch`] hands it back for the next run, and
/// [`Experiment::run_scratch`] does both. Steady-state runs then allocate
/// near-zero: capacity is *reset*, never freed, between runs.
///
/// Reuse is **observationally inert**. Every recycled structure is reset
/// to exactly the state a cold construction would produce (clocks,
/// sequence counters and contents — only spare capacity survives), so a
/// warm-arena run is bit-identical to a cold run of the same
/// `(seed, config)`, even when the previous world had a different host or
/// node count; `tests/pool_reuse.rs` and `tests/sweep_determinism.rs`
/// prove it across algorithms, fault plans, world sizes, rosters,
/// per-pair and shared topologies, and thread counts.
///
/// [`Experiment::engine_scratch`]: crate::experiment::Experiment::engine_scratch
/// [`Experiment::run_scratch`]: crate::experiment::Experiment::run_scratch
#[derive(Debug, Default)]
pub struct RunScratch {
    msgs: MsgPool,
    queue: EventQueue<Ev>,
    nodes: Vec<NodeRt>,
    caches: Vec<BandwidthCache>,
    forecasters: Vec<Forecaster>,
    vectors: Vec<LocationVector>,
    cpus: Vec<Resource<ComputeJob>>,
    disks: Vec<Resource<DiskJob>>,
    cpu_current: Vec<Option<ComputeJob>>,
    disk_current: Vec<Option<DiskJob>>,
    declared_dead: Vec<bool>,
    abandoned: Vec<u32>,
    local_scratch: LocalScratch,
    started: Vec<StartedTransfer>,
    probe_pairs: Vec<(HostId, HostId)>,
    deliver_slots: Vec<Option<EventId>>,
    batch: Vec<EventId>,
    report_slots: Vec<Option<u32>>,
    net: NetScratch<Box<Message>>,
    search: SearchScratch,
    audit_cap: usize,
}

impl RunScratch {
    /// Creates an empty (cold) arena; it warms up as runs recycle their
    /// state through it.
    pub fn new() -> Self {
        RunScratch::default()
    }

    /// Returns `true` once at least one run has parked capacity here.
    pub fn is_warm(&self) -> bool {
        !self.msgs.is_empty() || !self.nodes.is_empty() || !self.caches.is_empty()
    }

    /// Returns `true` once a run has parked message boxes on the arena's
    /// message free list.
    pub fn has_parked_messages(&self) -> bool {
        !self.msgs.is_empty()
    }
}

/// Sizes a recycled arena vector to `n` entries and initialises each with
/// `init(index, entry)`. Survivors keep their capacity; missing entries
/// start as `blank()` and pass through the same `init`, so a cold entry
/// is initialised exactly like a warm one.
fn recycle<T>(
    v: &mut Vec<T>,
    n: usize,
    blank: impl FnMut() -> T,
    mut init: impl FnMut(usize, &mut T),
) {
    v.truncate(n);
    v.resize_with(n, blank);
    for (i, x) in v.iter_mut().enumerate() {
        init(i, x);
    }
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
        scratch: RunScratch,
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
        let links = topology.nominal();

        let n_iterations = cfg.workload.images_per_server as u32;
        let n_hosts = roster.host_count();
        // Seed stream 4 is reserved for fault injection (1 = workload,
        // 2 = engine decisions, 3 = probe stagger). An empty plan builds
        // no injector at all — the zero-perturbation guarantee.
        let faults = (!cfg.faults.is_empty())
            .then(|| FaultInjector::new(&cfg.faults, derive_seed(cfg.seed, 4), n_hosts));
        let grace = if faults.is_some() {
            cfg.monitor.t_thres
        } else {
            SimDuration::ZERO
        };

        // Acquire all growable state from the arena. Every structure is
        // reset to exactly what a cold construction would build — only
        // spare capacity survives from earlier runs, so results are
        // bit-identical either way (a cold `RunScratch::new()` builds
        // everything fresh).
        let RunScratch {
            msgs: msg_pool,
            mut queue,
            nodes: scratch_nodes,
            mut caches,
            mut forecasters,
            vectors: scratch_vectors,
            mut cpus,
            mut disks,
            mut cpu_current,
            mut disk_current,
            mut declared_dead,
            mut abandoned,
            local_scratch,
            started: started_scratch,
            probe_pairs,
            deliver_slots: mut deliver_events,
            batch,
            report_slots,
            net: net_scratch,
            search: mut search_scratch,
            audit_cap,
        } = scratch;
        queue.reset();
        deliver_events.clear();
        recycle(
            &mut caches,
            n_hosts,
            || BandwidthCache::new(cfg.monitor),
            |_, c| c.reset(cfg.monitor),
        );
        recycle(
            &mut forecasters,
            n_hosts,
            || Forecaster::new(FORECAST_WINDOW),
            |_, f| f.reset(FORECAST_WINDOW),
        );
        recycle(&mut cpus, n_hosts, Resource::new, |_, r| r.reset());
        recycle(&mut disks, n_hosts, Resource::new, |_, r| r.reset());
        cpu_current.clear();
        cpu_current.resize(n_hosts, None);
        disk_current.clear();
        disk_current.resize(n_hosts, None);
        declared_dead.clear();
        declared_dead.resize(n_hosts, false);
        abandoned.clear();
        abandoned.resize(n_hosts, 0);

        // Initial placement per algorithm.
        let mut planner_runs = 0;
        let gauge = Gauge::new();
        let mut audit = AuditLog::with_capacity(audit_cap);
        let initial = match cfg.algorithm {
            Algorithm::DownloadAll => Placement::download_all(&tree, &roster),
            _ => {
                planner_runs += 1;
                let view = PlannerView::for_mode(
                    cfg.knowledge,
                    &caches[roster.client().index()],
                    &forecasters[roster.client().index()],
                    &gauge,
                    links,
                    SimTime::ZERO,
                )
                .with_grace(grace);
                let download_all_cost = cfg.objective.evaluate(
                    &tree,
                    &roster,
                    &Placement::download_all(&tree, &roster),
                    view,
                    &cfg.cost_model,
                );
                let result = improve_placement_scratch(
                    &tree,
                    &roster,
                    Placement::download_all(&tree, &roster),
                    view,
                    &cfg.cost_model,
                    cfg.objective,
                    &[],
                    &mut search_scratch,
                );
                audit.record(AuditEvent::PlannerRan {
                    at: SimTime::ZERO,
                    cost_before: download_all_cost,
                    cost_after: result.cost,
                    changed: result.placement != Placement::download_all(&tree, &roster),
                });
                // An on-demand probe leaves the measured values in the
                // prober's cache.
                seed_cache_from_probes(
                    &mut caches[roster.client().index()],
                    links,
                    &roster,
                    SimTime::ZERO,
                    faults.as_ref(),
                );
                result.placement
            }
        };

        let mut nodes = scratch_nodes;
        recycle(
            &mut nodes,
            tree.nodes().len(),
            NodeRt::default,
            |i, node| {
                let host = initial.node_host(&tree, &roster, NodeId::new(i));
                node.reset(host, tree.nodes()[i].children.len());
            },
        );

        let (local_mode, epoch_len, extra_candidates) = match cfg.algorithm {
            Algorithm::Local {
                period,
                extra_candidates,
            } => {
                let depth = tree.depth().max(1) as u64;
                (
                    true,
                    (period / depth).max(SimDuration::from_secs(1)),
                    extra_candidates,
                )
            }
            _ => (false, SimDuration::ZERO, 0),
        };
        // Non-local runs park the arena's warmed vectors in
        // `spare_vectors` (never read) so a later local run can reuse
        // them; `vectors` itself must stay empty, as the cold build
        // leaves it.
        let mut spare_vectors = Vec::new();
        let vectors = if local_mode {
            let mut vectors = scratch_vectors;
            recycle(
                &mut vectors,
                n_hosts,
                || LocationVector::new(Vec::new()),
                |_, v| v.assign(initial.sites()),
            );
            vectors
        } else {
            spare_vectors = scratch_vectors;
            Vec::new()
        };

        let rng = Rng64::seed_from_u64(derive_seed(cfg.seed, 2));
        let mut net = Network::with_scratch(cfg.net, topology, net_scratch);
        if let Some(f) = &faults {
            net.set_faults(f.clone());
        }
        Engine {
            net,
            cpus,
            cpu_current,
            disks,
            disk_current,
            committed_placement: initial,
            committed_version: 0,
            proposal_counter: 0,
            proposal: None,
            local_mode,
            forecasting: cfg.knowledge == KnowledgeMode::Forecast,
            epoch_len,
            epoch_index: 0,
            extra_candidates,
            rng,
            arrivals: Vec::with_capacity(n_iterations as usize),
            relocations: 0,
            changeovers: 0,
            planner_runs,
            audit,
            mobility: MoveProtocol::new(CodeRegistry::new(cfg.mobility, cfg.code_package_bytes)),
            probe_scheduler: cfg.active_monitoring.map(|interval| {
                ProbeScheduler::all_pairs(n_hosts, interval, derive_seed(cfg.seed, 3))
            }),
            faults,
            declared_dead,
            abandoned,
            hosts_declared_dead: 0,
            operators_respawned: 0,
            aborted: None,
            doomed_probes: BTreeSet::new(),
            local_scratch,
            msg_pool,
            started_scratch,
            deliver_events,
            topo_step_event: None,
            gauge,
            gauging: cfg.knowledge == KnowledgeMode::Gauged,
            probe_pairs,
            batch,
            report_slots,
            spare_vectors,
            search_scratch,
            audit_cap,
            obs: Obs::disabled(),
            obs_state: None,
            cfg,
            tree,
            roster,
            workload,
            n_iterations,
            queue,
            nodes,
            caches,
            forecasters,
            vectors,
        }
    }

    /// Attaches an observability recorder (see [`wadc_obs`]): registers
    /// tracks and series, opens the run span, and replays adaptation
    /// events recorded during construction (the initial placement search)
    /// so the trace covers the whole run.
    ///
    /// Instrumentation is purely observational — it draws no randomness,
    /// schedules no events and feeds nothing back into the simulation —
    /// so traced and untraced runs of the same `(seed, config)` produce
    /// byte-identical digests. A disabled `obs` is a no-op.
    pub fn attach_obs(&mut self, obs: Obs) {
        if !obs.recording() {
            return;
        }
        self.net.set_obs(obs.clone());
        let now = self.now();
        let run_track = obs.track(TrackName::Run);
        let planner_track = obs.track(TrackName::Planner);
        let client_track = obs.track(TrackName::Client);
        let n_ops = self.tree.operator_count();
        let op_tracks: Vec<TrackId> = (0..n_ops)
            .map(|i| obs.track(TrackName::Operator(i as u32)))
            .collect();
        let op_sites: Vec<SeriesId> = (0..n_ops)
            .map(|i| obs.series(SeriesKind::Gauge, SeriesName::OperatorSite(i as u32)))
            .collect();
        let s_queue_depth = obs.series(SeriesKind::TimeWeighted, SeriesName::QueueDepth);
        let s_drops = obs.series(SeriesKind::Counter, SeriesName::Drops);
        let s_retransmits = obs.series(SeriesKind::Counter, SeriesName::Retransmits);
        let gauges = EstimateGauges::new(&obs, self.roster.host_count());
        let run_span = obs.open_span(run_track, SpanKind::Run, now, SpanArgs::default());
        for (i, series) in op_sites.iter().enumerate() {
            let node = self.tree.operator_node(OperatorId::new(i));
            obs.sample(*series, now, self.nodes[node.index()].host.index() as f64);
        }
        self.obs = obs;
        self.obs_state = Some(Box::new(ObsState {
            run_span,
            client_track,
            planner_track,
            op_tracks,
            op_sites,
            iter_span: SpanId::INVALID,
            changeover_span: SpanId::INVALID,
            reloc_spans: vec![SpanId::INVALID; n_ops],
            s_queue_depth,
            s_drops,
            s_retransmits,
            gauges,
            next_sample: now,
        }));
        let replay: Vec<AuditEvent> = self.audit.events().to_vec();
        for e in &replay {
            self.obs_audit(e);
        }
    }

    /// Records an adaptation event in the audit log and mirrors it into
    /// the attached recorder (if any).
    fn record_audit(&mut self, event: AuditEvent) {
        if self.obs_state.is_some() {
            self.obs_audit(&event);
        }
        self.audit.record(event);
    }

    /// Bridges one [`AuditEvent`] into spans and instants: change-overs
    /// and relocations become spans (closed `ok = false` when aborted),
    /// everything else becomes a point event; relocation outcomes also
    /// move the operator's residency gauge.
    fn obs_audit(&mut self, e: &AuditEvent) {
        let obs = self.obs.clone();
        let Some(st) = self.obs_state.as_deref_mut() else {
            return;
        };
        match *e {
            AuditEvent::PlannerRan {
                at,
                cost_before,
                cost_after,
                changed,
            } => obs.instant(
                st.planner_track,
                EventKind::PlannerRan,
                at,
                EventArgs {
                    a: changed as u64,
                    b: 0,
                    x: cost_before,
                    y: cost_after,
                },
            ),
            AuditEvent::ChangeoverProposed { at, version, moves } => {
                st.changeover_span = obs.open_span(
                    st.planner_track,
                    SpanKind::Changeover,
                    at,
                    SpanArgs {
                        a: version as u64,
                        b: moves as u64,
                        c: 0,
                        d: 0,
                    },
                );
            }
            AuditEvent::ChangeoverCommitted { at, .. } => {
                let span = std::mem::replace(&mut st.changeover_span, SpanId::INVALID);
                if span != SpanId::INVALID {
                    obs.close_span(span, at, true);
                }
            }
            AuditEvent::ChangeoverAborted { at, .. } => {
                let span = std::mem::replace(&mut st.changeover_span, SpanId::INVALID);
                if span != SpanId::INVALID {
                    obs.close_span(span, at, false);
                }
            }
            AuditEvent::ServerSuspended {
                at,
                server,
                reported_iteration,
                version,
            } => obs.instant(
                st.planner_track,
                EventKind::ServerSuspended,
                at,
                EventArgs {
                    a: server as u64,
                    b: version as u64,
                    x: reported_iteration as f64,
                    y: 0.0,
                },
            ),
            AuditEvent::LocalDecision {
                at, op, from, to, ..
            } => obs.instant(
                st.op_tracks[op.index()],
                EventKind::LocalDecision,
                at,
                EventArgs {
                    a: from.index() as u64,
                    b: to.index() as u64,
                    x: 0.0,
                    y: 0.0,
                },
            ),
            AuditEvent::RelocationStarted {
                at, op, from, to, ..
            } => {
                st.reloc_spans[op.index()] = obs.open_span(
                    st.op_tracks[op.index()],
                    SpanKind::Relocation,
                    at,
                    SpanArgs {
                        a: op.index() as u64,
                        b: from.index() as u64,
                        c: to.index() as u64,
                        d: 0,
                    },
                );
            }
            AuditEvent::RelocationFinished { at, op, host } => {
                let span = std::mem::replace(&mut st.reloc_spans[op.index()], SpanId::INVALID);
                if span != SpanId::INVALID {
                    obs.close_span(span, at, true);
                }
                obs.sample(st.op_sites[op.index()], at, host.index() as f64);
            }
            AuditEvent::RelocationAborted { at, op, host } => {
                let span = std::mem::replace(&mut st.reloc_spans[op.index()], SpanId::INVALID);
                if span != SpanId::INVALID {
                    obs.close_span(span, at, false);
                }
                obs.sample(st.op_sites[op.index()], at, host.index() as f64);
            }
            AuditEvent::MessageLost {
                at,
                from,
                kind,
                attempt,
                ..
            } => {
                let track = obs.track(TrackName::Host(from.index() as u32));
                obs.instant(
                    track,
                    EventKind::MessageLost,
                    at,
                    EventArgs {
                        a: kind.tag(),
                        b: attempt as u64,
                        x: 0.0,
                        y: 0.0,
                    },
                );
                obs.add(st.s_drops, at, 1.0);
            }
            AuditEvent::HostDeclaredDead { at, host, evidence } => obs.instant(
                st.planner_track,
                EventKind::HostDeclaredDead,
                at,
                EventArgs {
                    a: host.index() as u64,
                    b: evidence as u64,
                    x: 0.0,
                    y: 0.0,
                },
            ),
            AuditEvent::OperatorRespawned { at, op, to, .. } => {
                obs.instant(
                    st.op_tracks[op.index()],
                    EventKind::OperatorRespawned,
                    at,
                    EventArgs {
                        a: op.index() as u64,
                        b: to.index() as u64,
                        x: 0.0,
                        y: 0.0,
                    },
                );
                obs.sample(st.op_sites[op.index()], at, to.index() as f64);
            }
            AuditEvent::RunAborted { at, .. } => obs.instant(
                st.planner_track,
                EventKind::RunAborted,
                at,
                EventArgs::default(),
            ),
        }
    }

    /// The decimated sampling tick: at most once per [`OBS_SAMPLE_EVERY`]
    /// of simulated time, records the event-queue depth and the per-link
    /// true/estimated bandwidth gauges. Piggybacks on the event the run
    /// loop just processed; never schedules anything.
    fn obs_sample_tick(&mut self, now: SimTime) {
        match self.obs_state.as_deref() {
            Some(st) if now >= st.next_sample => {}
            _ => return,
        }
        let st = self.obs_state.as_deref_mut().expect("checked above");
        st.next_sample = now + OBS_SAMPLE_EVERY;
        let obs = self.obs.clone();
        obs.sample(st.s_queue_depth, now, self.queue.len() as f64);
        let client = self.roster.client();
        let view = self.net.links().oracle_at(now);
        st.gauges
            .sample(&obs, &self.caches[client.index()], &view, now);
    }

    /// Opens the client-side iteration span (the client just demanded
    /// partition `iteration`).
    fn obs_open_iteration(&mut self, iteration: u32, now: SimTime) {
        if let Some(st) = self.obs_state.as_deref_mut() {
            st.iter_span = self.obs.open_span(
                st.client_track,
                SpanKind::Iteration,
                now,
                SpanArgs {
                    a: iteration as u64,
                    b: 0,
                    c: 0,
                    d: 0,
                },
            );
        }
    }

    /// Closes the open iteration span, if any (the partition arrived, or
    /// the run ended with one outstanding).
    fn obs_close_iteration(&mut self, now: SimTime, ok: bool) {
        if let Some(st) = self.obs_state.as_deref_mut() {
            let span = std::mem::replace(&mut st.iter_span, SpanId::INVALID);
            if span != SpanId::INVALID {
                self.obs.close_span(span, now, ok);
            }
        }
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

    /// Tears the engine down into its [`RunScratch`] arena *without*
    /// running — the world-setup microbench uses this to measure pure
    /// construction cost on a warm arena, and callers that build an
    /// engine speculatively can recover its capacity.
    pub fn into_scratch(self) -> RunScratch {
        let audit_len = self.audit.len();
        self.reclaim(audit_len)
    }

    /// Returns retired message boxes to `pool` when an event payload
    /// carries one (pending local deliveries and armed retransmissions).
    fn harvest_ev(pool: &mut MsgPool, ev: Ev) {
        match ev {
            Ev::Local(m) | Ev::Retransmit(m) => pool.release(m),
            _ => {}
        }
    }

    /// Tears the finished engine down into a reusable [`RunScratch`]:
    /// harvests every message box still held by the queue, the unhandled
    /// batch remainder, or node replay buffers, resets the queue, and
    /// parks all growable state for the next run.
    fn reclaim(mut self, audit_len: usize) -> RunScratch {
        let mut msgs = std::mem::take(&mut self.msg_pool);
        let mut batch = std::mem::take(&mut self.batch);
        for id in batch.drain(..) {
            if let Some(ev) = self.queue.claim(id) {
                Self::harvest_ev(&mut msgs, ev);
            }
        }
        while let Some((_, _, ev)) = self.queue.pop() {
            Self::harvest_ev(&mut msgs, ev);
        }
        let mut queue = std::mem::take(&mut self.queue);
        queue.reset();
        let mut nodes = std::mem::take(&mut self.nodes);
        for n in &mut nodes {
            for m in n.buffered.drain(..) {
                msgs.release(m);
            }
        }
        let mut vectors = std::mem::take(&mut self.vectors);
        vectors.append(&mut self.spare_vectors);
        let mut deliver_slots = std::mem::take(&mut self.deliver_events);
        deliver_slots.clear();
        let report_slots = match self.proposal.take() {
            Some(p) => p.reports.into_slots(),
            None => std::mem::take(&mut self.report_slots),
        };
        let net = self.net.into_scratch(|m| msgs.release(m));
        RunScratch {
            msgs,
            queue,
            nodes,
            caches: std::mem::take(&mut self.caches),
            forecasters: std::mem::take(&mut self.forecasters),
            vectors,
            cpus: std::mem::take(&mut self.cpus),
            disks: std::mem::take(&mut self.disks),
            cpu_current: std::mem::take(&mut self.cpu_current),
            disk_current: std::mem::take(&mut self.disk_current),
            declared_dead: std::mem::take(&mut self.declared_dead),
            abandoned: std::mem::take(&mut self.abandoned),
            local_scratch: std::mem::take(&mut self.local_scratch),
            started: std::mem::take(&mut self.started_scratch),
            probe_pairs: std::mem::take(&mut self.probe_pairs),
            deliver_slots,
            batch,
            report_slots,
            net,
            search: std::mem::take(&mut self.search_scratch),
            audit_cap: self.audit_cap.max(audit_len),
        }
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
                    .schedule(SimTime::ZERO + self.epoch_len, Ev::EpochTick);
            }
            _ => {}
        }
        if let Some(next) = self.probe_scheduler.as_ref().and_then(|s| s.next_due()) {
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
        // Batched dispatch: drain every event sharing the minimum
        // timestamp in one heap pass, then claim them in seq order —
        // bit-identical to the one-at-a-time pop loop (handlers that
        // cancel a same-timestamp neighbour see the claim return `None`,
        // exactly as `pop` would never surface a cancelled entry).
        let mut batch = std::mem::take(&mut self.batch);
        'run: while let Some(t) = self.queue.pop_batch(&mut batch) {
            if t > cap {
                break;
            }
            for &id in &batch {
                let Some(ev) = self.queue.claim(id) else {
                    continue;
                };
                self.handle(ev);
                self.obs_sample_tick(t);
                if self.aborted.is_some() {
                    break 'run;
                }
                if self.arrivals.len() as u32 >= self.n_iterations {
                    completed = true;
                    break 'run;
                }
            }
        }
        self.batch = batch;

        if self.obs_state.is_some() {
            let end = self.now();
            // An incomplete run leaves the last iteration open; close it
            // `ok = false` so the trace shows where the run stalled.
            self.obs_close_iteration(end, false);
            let st = self.obs_state.as_deref().expect("checked above");
            // One final queue-depth sample at the exact high-water mark:
            // zero time remains, so the weighted mean is untouched while
            // the tally's max becomes the true peak.
            self.obs
                .sample(st.s_queue_depth, end, self.queue.high_water() as f64);
            self.obs.close_span(st.run_span, end, completed);
        }

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
        let outcome = if self.aborted.is_some() {
            RunOutcome::Aborted
        } else if completed && self.hosts_declared_dead == 0 {
            RunOutcome::Completed
        } else {
            RunOutcome::Degraded
        };
        RunResult {
            completed,
            outcome,
            hosts_declared_dead: self.hosts_declared_dead,
            operators_respawned: self.operators_respawned,
            completion_time,
            images_delivered: self.arrivals.len(),
            interarrival,
            arrivals: std::mem::take(&mut self.arrivals),
            relocations: self.relocations,
            changeovers: self.changeovers,
            planner_runs: self.planner_runs,
            net_stats: self.net.stats(),
            audit: std::mem::take(&mut self.audit),
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Deliver(tid) => self.handle_delivery(tid),
            Ev::Local(msg) => {
                // A co-located delivery on a crashed (or declared-dead)
                // host dies with the host: no accounting, no recovery —
                // there is no wire and no surviving sender.
                if self.host_down(msg.dst_host) {
                    self.msg_pool.release(msg);
                } else {
                    self.dispatch_message(msg);
                }
            }
            Ev::DiskDone { host } => self.handle_disk_done(host),
            Ev::ComputeDone { host } => self.handle_compute_done(host),
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

    /// The outage/blackout state just changed: re-poll the network (a
    /// revived link may unblock queued transfers) and re-arm for the next
    /// transition.
    fn handle_fault_tick(&mut self) {
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
    fn handle_topo_step(&mut self) {
        let now = self.now();
        self.topo_step_event = None;
        self.net.topo_mut().step(now);
        self.sync_topo(now);
    }

    /// Fires the active monitoring daemon's due probes and re-arms.
    fn handle_monitor_tick(&mut self) {
        let now = self.now();
        let Some(scheduler) = self.probe_scheduler.as_mut() else {
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

    fn handle_delivery(&mut self, tid: TransferId) {
        let now = self.now();
        if let Some(slot) = self.deliver_events.get_mut(tid.as_u64() as usize) {
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
        if self.declared_dead[spec.src.index()] || self.declared_dead[spec.dst.index()] {
            self.doomed_probes.remove(&tid);
            self.msg_pool.release(delivery.payload);
            return;
        }
        // Fault injection: the wire time was paid, but the payload may be
        // discarded — no passive measurement, no gossip, no dispatch.
        if let Some(inj) = &self.faults {
            let doomed_probe = self.doomed_probes.remove(&tid);
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
        let measured = self.caches[spec.src.index()]
            .observe_transfer(spec.src, spec.dst, spec.bytes, elapsed, now);
        self.caches[spec.dst.index()]
            .observe_transfer(spec.src, spec.dst, spec.bytes, elapsed, now);
        if measured && self.forecasting {
            let bw = spec.bytes as f64 / elapsed.as_secs_f64();
            self.forecasters[spec.src.index()].observe(spec.src, spec.dst, bw, now);
            self.forecasters[spec.dst.index()].observe(spec.src, spec.dst, bw, now);
        }
        self.dispatch_message(delivery.payload);
    }

    /// A delivered transfer's payload was destroyed by fault injection
    /// (`crashed` distinguishes a permanently dead endpoint from a
    /// transient loss — the accounting differs, the recovery does not).
    /// Accounts the loss and arms the sender-side recovery: data and
    /// control messages are retransmitted after a backoff (up to
    /// `retry.max_retries` times), a lost operator-state transfer rolls
    /// the move back at the old host (or, for a respawn, retries and
    /// eventually prunes the subtree), and a lost probe simply never
    /// reports (the measurement channel is allowed to be lossy).
    ///
    /// Retry exhaustion doubles as the failure detector's sensor: a live
    /// sender abandoning a message is one count of evidence against the
    /// destination host, and `detection_k` counts declare it dead. The
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
            Payload::Probe => self.msg_pool.release(msg),
            Payload::OperatorState { respawn: true, .. } => {
                // A lost respawn has no old host to roll back to: retry
                // through the ordinary retransmit path (which re-targets
                // if the chosen site has died meanwhile); once the budget
                // is exhausted the subtree is permanently lost.
                if msg.attempt < self.cfg.retry.max_retries {
                    self.queue
                        .schedule_in(self.cfg.retry.backoff(msg.attempt), Ev::Retransmit(msg));
                } else {
                    let node = msg.dst_node;
                    self.msg_pool.release(msg);
                    self.prune_subtree(node);
                }
            }
            Payload::OperatorState {
                op,
                after_iteration,
                ..
            } => {
                // The new host never saw the state packet; after the
                // detection timeout the old host unfreezes the operator
                // and resumes under the old placement.
                let (op, after_iteration) = (*op, *after_iteration);
                self.queue.schedule_in(
                    self.cfg.retry.backoff(msg.attempt),
                    Ev::MoveRollback {
                        node: msg.dst_node,
                        op,
                        after_iteration,
                    },
                );
                self.msg_pool.release(msg);
            }
            _ => {
                if msg.attempt < self.cfg.retry.max_retries {
                    // The box rides into the retransmit event unchanged.
                    self.queue
                        .schedule_in(self.cfg.retry.backoff(msg.attempt), Ev::Retransmit(msg));
                } else {
                    // Abandoned. A live sender giving up on a peer is the
                    // failure detector's evidence; a dead sender's
                    // messages accuse nobody.
                    let src_down = self.host_down(spec.src);
                    self.msg_pool.release(msg);
                    if !src_down {
                        self.note_exhausted(spec.dst);
                    }
                }
            }
        }
    }

    /// Whether a host is out of service, either physically (crashed) or by
    /// detector verdict (declared dead). Always `false` in clean runs.
    fn host_down(&self, host: HostId) -> bool {
        self.declared_dead[host.index()]
            || self
                .faults
                .as_ref()
                .is_some_and(|f| f.host_crashed(host, self.now()))
    }

    /// One count of detector evidence against `dst`; at `detection_k`
    /// distinct abandoned messages the host is declared dead.
    fn note_exhausted(&mut self, dst: HostId) {
        if self.declared_dead[dst.index()] {
            return;
        }
        self.abandoned[dst.index()] += 1;
        if self.abandoned[dst.index()] >= self.cfg.retry.detection_k {
            self.declare_dead(dst);
        }
    }

    /// A lost message's backoff expired: refresh its routing (the
    /// destination operator may have moved) and gossip, then resend.
    fn handle_retransmit(&mut self, mut msg: Box<Message>) {
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
            self.msg_pool.release(msg);
            return;
        }
        if self.declared_dead[to_host.index()] {
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
                self.msg_pool.release(msg);
                return;
            }
        }
        msg.src_host = from_host;
        msg.dst_host = to_host;
        piggyback::collect_into(&self.caches[from_host.index()], now, &mut msg.piggyback);
        if self.local_mode {
            // Refresh in place: the stale vector's buffers are reused.
            let mut v = msg
                .locations
                .take()
                .unwrap_or_else(|| self.msg_pool.acquire_vector());
            v.copy_from(&self.vectors[from_host.index()]);
            msg.locations = Some(v);
        } else {
            msg.locations = None;
        }
        let priority = match msg.payload {
            Payload::BarrierReport { .. }
            | Payload::BarrierCommit { .. }
            | Payload::BarrierAbort { .. } => Priority::High,
            _ => Priority::Normal,
        };
        if let Some(st) = self.obs_state.as_deref() {
            let track = self.obs.track(TrackName::Host(from_host.index() as u32));
            self.obs.add(st.s_retransmits, now, 1.0);
            self.obs.instant(
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
        if from_host == to_host {
            self.queue.schedule_now(Ev::Local(msg));
            return;
        }
        let bytes = msg.wire_bytes(self.cfg.operator_state_bytes);
        let kind = traffic_kind(&msg.payload);
        self.net.submit_retransmit(
            TransferSpec {
                src: from_host,
                dst: to_host,
                bytes,
                priority,
                kind,
            },
            msg,
        );
        self.pump();
    }

    /// Rolls a failed move back: the operator unfreezes at its old host
    /// (its state never left — only the copy in transit was lost), resumes
    /// demanding, and replays anything buffered during the attempt. A
    /// later placement decision is free to retry the move.
    fn handle_move_rollback(&mut self, node: NodeId, op: OperatorId, after_iteration: u32) {
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
        if after_iteration < self.n_iterations {
            self.send_demands(node, after_iteration + 1);
        }
        let buffered = std::mem::take(&mut self.nodes[node.index()].buffered);
        for msg in buffered {
            self.deliver_to_node(msg);
        }
        self.try_dispatch(node);
    }

    /// Absorbs a message's gossip and routes it to its destination node,
    /// then fires the sender-side notification (the light-move point for
    /// data dispatches).
    fn dispatch_message(&mut self, msg: Box<Message>) {
        let dst_host = msg.dst_host;
        piggyback::absorb(&mut self.caches[dst_host.index()], &msg.piggyback);
        if self.forecasting {
            for e in &msg.piggyback.entries {
                self.forecasters[dst_host.index()].observe(
                    e.a,
                    e.b,
                    e.measurement.bytes_per_sec,
                    e.measurement.at,
                );
            }
        }
        if let Some(v) = &msg.locations {
            if self.local_mode {
                self.vectors[dst_host.index()].merge(v);
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

    fn deliver_to_node(&mut self, mut msg: Box<Message>) {
        let node = msg.dst_node;
        let rt = &mut self.nodes[node.index()];
        // A pruned node is no longer part of the computation; anything
        // still addressed to it is dropped on the floor.
        if rt.pruned {
            self.msg_pool.release(msg);
            return;
        }
        if rt.frozen && !matches!(msg.payload, Payload::OperatorState { .. }) {
            rt.buffered.push(msg);
            return;
        }
        // The message is consumed here: take the payload out and recycle
        // the box before handling, so the handlers' sends can reuse it.
        let src_host = msg.src_host;
        let dst_host = msg.dst_host;
        let payload = std::mem::replace(&mut msg.payload, Payload::Probe);
        self.msg_pool.release(msg);
        match payload {
            Payload::Demand(d) => self.handle_demand(node, d, src_host),
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
                plan,
                respawn,
            } => self.complete_relocation(
                node,
                op,
                after_iteration,
                src_host,
                dst_host,
                &plan,
                respawn,
            ),
            Payload::BarrierAbort { version } => self.handle_barrier_abort(node, version),
            // A probe's only effect is the passive measurement taken when
            // its transfer completed (already recorded in handle_delivery).
            Payload::Probe => {}
        }
    }

    // ------------------------------------------------------------------
    // The demand-driven protocol
    // ------------------------------------------------------------------

    fn handle_demand(&mut self, node: NodeId, d: Demand, src_host: HostId) {
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
        let _ = src_host;
        if let Some((server, iteration, version)) = report {
            self.record_audit(AuditEvent::ServerSuspended {
                at: self.now(),
                server,
                reported_iteration: iteration,
                version,
            });
            self.send_barrier_report(node, server, iteration, version);
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
    fn maybe_compose(&mut self, node: NodeId) {
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
        self.request_cpu(
            host,
            ComputeJob {
                node,
                iteration,
                dims: out_dims,
                duration,
            },
        );
    }

    /// Dispatches the held output if a matching demand is pending.
    fn try_dispatch(&mut self, node: NodeId) {
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
                    if self.declared_dead[site.index()] {
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
    fn send_demands(&mut self, node: NodeId, iteration: u32) {
        if iteration > self.n_iterations {
            return;
        }
        if node == self.tree.root() && self.obs_state.is_some() {
            let now = self.now();
            self.obs_open_iteration(iteration, now);
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
        let placement_update = self.proposal.as_ref().and_then(|p| {
            (is_client || seen_version >= p.version).then(|| PlacementUpdate {
                version: p.version,
                placement: p.placement.clone(),
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

    // ------------------------------------------------------------------
    // Relocation
    // ------------------------------------------------------------------

    fn begin_relocation(&mut self, node: NodeId, to: HostId, after_iteration: u32) {
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
    fn complete_relocation(
        &mut self,
        node: NodeId,
        op: OperatorId,
        after_iteration: u32,
        from_host: HostId,
        new_host: HostId,
        plan: &wadc_mobile::protocol::MovePlan,
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
            self.operators_respawned += 1;
            self.record_audit(AuditEvent::OperatorRespawned {
                at: self.now(),
                op,
                from: plan.from,
                to: new_host,
            });
            if self.local_mode {
                // The coordinator (client) knows the new site; gossip it.
                let client = self.roster.client();
                self.vectors[client.index()].record_move(op, new_host);
                let updated = self.vectors[client.index()].clone();
                self.vectors[new_host.index()].merge(&updated);
            }
            let resume = {
                let rt = &self.nodes[node.index()];
                rt.gather_iter.max(rt.last_dispatched + 1)
            };
            self.send_demands(node, resume);
            let buffered = std::mem::take(&mut self.nodes[node.index()].buffered);
            for msg in buffered {
                self.deliver_to_node(msg);
            }
            self.try_dispatch(node);
            return;
        }
        self.record_audit(AuditEvent::RelocationFinished {
            at: self.now(),
            op,
            host: new_host,
        });
        // The original site records the move and the new site learns it.
        if self.local_mode {
            self.vectors[from_host.index()].record_move(op, new_host);
            let updated = self.vectors[from_host.index()].clone();
            self.vectors[new_host.index()].merge(&updated);
        }
        if after_iteration < self.n_iterations {
            self.send_demands(node, after_iteration + 1);
        }
        // Replay anything that arrived mid-flight.
        let buffered = std::mem::take(&mut self.nodes[node.index()].buffered);
        for msg in buffered {
            self.deliver_to_node(msg);
        }
        self.try_dispatch(node);
    }

    // ------------------------------------------------------------------
    // Crash detection and failover
    // ------------------------------------------------------------------

    /// Marks the run as unable to make further progress: the main loop
    /// stops at the next event boundary and the result reports
    /// [`RunOutcome::Aborted`]. Idempotent; the first reason wins.
    fn abort_run(&mut self, reason: &'static str) {
        if self.aborted.is_some() {
            return;
        }
        self.aborted = Some(reason);
        self.record_audit(AuditEvent::RunAborted {
            at: self.now(),
            reason,
        });
    }

    /// Every host currently declared dead. Returns an empty (non-allocated)
    /// vector in clean runs.
    fn dead_hosts(&self) -> Vec<HostId> {
        (0..self.roster.host_count())
            .map(HostId::new)
            .filter(|h| self.declared_dead[h.index()])
            .collect()
    }

    /// The failure detector's verdict became final for `host`: ban its
    /// traffic, prune the servers that lived there, and respawn the
    /// orphaned operators over the surviving-host subgraph. Client death
    /// aborts the run — there is nobody left to deliver to.
    fn declare_dead(&mut self, host: HostId) {
        if self.declared_dead[host.index()] {
            return;
        }
        self.declared_dead[host.index()] = true;
        self.hosts_declared_dead += 1;
        let evidence = self.abandoned[host.index()];
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
        if self.aborted.is_some() {
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
        let now = self.now();
        let client = self.roster.client();
        // Re-home the orphans before searching: the masked search never
        // *selects* a dead host but must not *start* from one either.
        for &(_, op) in &orphans {
            self.committed_placement.set_site(op, client);
        }
        let dead = self.dead_hosts();
        self.planner_runs += 1;
        let (cost_before, result) = {
            let view = PlannerView::for_mode(
                self.cfg.knowledge,
                &self.caches[client.index()],
                &self.forecasters[client.index()],
                &self.gauge,
                self.net.links(),
                now,
            )
            .with_grace(self.planner_grace());
            let masked = MaskedView::new(view, self.roster.host_count(), dead.iter().copied());
            let cost_before = self.cfg.objective.evaluate(
                &self.tree,
                &self.roster,
                &self.committed_placement,
                &masked,
                &self.cfg.cost_model,
            );
            let result = improve_placement_scratch(
                &self.tree,
                &self.roster,
                self.committed_placement.clone(),
                &masked,
                &self.cfg.cost_model,
                self.cfg.objective,
                &dead,
                &mut self.search_scratch,
            );
            (cost_before, result)
        };
        let changed = result.placement != self.committed_placement;
        self.record_audit(AuditEvent::PlannerRan {
            at: now,
            cost_before,
            cost_after: result.cost,
            changed,
        });
        self.committed_placement = result.placement;
        for &(node, op) in &orphans {
            let to = self.committed_placement.site(op);
            self.start_respawn(node, op, to);
        }
    }

    /// Ships a fresh copy of `op` (rebuilt from its origin image — the
    /// dead host's working state is lost) from the client to `to`. The
    /// node is frozen and re-targeted immediately so in-flight traffic
    /// buffers at — or retransmits toward — the new site.
    fn start_respawn(&mut self, node: NodeId, op: OperatorId, to: HostId) {
        let client = self.roster.client();
        let (state, after_iteration, origin) = {
            let rt = &mut self.nodes[node.index()];
            let state = MobileState {
                op,
                last_dispatched: rt.last_dispatched,
                later_marks: 0,
                dispatches_this_epoch: 0,
                consumer_on_cp: false,
                on_cp: false,
            };
            let origin = rt.host;
            rt.frozen = true;
            rt.respawning = true;
            rt.host = to;
            rt.output = None;
            rt.later_marks = 0;
            rt.dispatches_this_epoch = 0;
            rt.on_cp = false;
            rt.pending_move = None;
            rt.next_placement = None;
            (state, rt.last_dispatched, origin)
        };
        let plan = self.mobility.plan_respawn(&state, origin, to);
        self.send_to_host(
            node,
            client,
            to,
            Payload::OperatorState {
                op,
                after_iteration,
                plan,
                respawn: true,
            },
            Priority::High,
            None,
        );
    }

    /// Permanently removes `node` from the tree and propagates the hole
    /// upward: a parent left with no live children is pruned too (all the
    /// way to aborting the run when the root loses its last child), and a
    /// parent that was only waiting on this child may now compose.
    fn prune_node(&mut self, node: NodeId) {
        if self.nodes[node.index()].pruned {
            return;
        }
        {
            let rt = &mut self.nodes[node.index()];
            rt.pruned = true;
            rt.frozen = false;
            rt.respawning = false;
            rt.output = None;
            rt.pending_demand = None;
        }
        let buffered = std::mem::take(&mut self.nodes[node.index()].buffered);
        for msg in buffered {
            self.msg_pool.release(msg);
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
    fn prune_subtree(&mut self, node: NodeId) {
        let children = self.tree.node(node).children.clone();
        for c in children {
            self.prune_subtree_mark(c);
        }
        self.prune_node(node);
        self.try_commit_barrier();
    }

    fn prune_subtree_mark(&mut self, node: NodeId) {
        if self.nodes[node.index()].pruned {
            return;
        }
        {
            let rt = &mut self.nodes[node.index()];
            rt.pruned = true;
            rt.frozen = false;
            rt.respawning = false;
            rt.output = None;
            rt.pending_demand = None;
        }
        let buffered = std::mem::take(&mut self.nodes[node.index()].buffered);
        for msg in buffered {
            self.msg_pool.release(msg);
        }
        let children = self.tree.node(node).children.clone();
        for c in children {
            self.prune_subtree_mark(c);
        }
    }

    // ------------------------------------------------------------------
    // Global algorithm: periodic re-planning + barrier change-over
    // ------------------------------------------------------------------

    fn handle_global_timer(&mut self) {
        let Algorithm::Global { period } = self.cfg.algorithm else {
            return;
        };
        self.queue.schedule_in(period, Ev::GlobalTimer);
        if self.proposal.is_some() {
            // Previous change-over still in flight; skip this tick.
            return;
        }
        self.planner_runs += 1;
        let now = self.now();
        let client = self.roster.client();
        self.emit_probe_traffic(now);
        let view = PlannerView::for_mode(
            self.cfg.knowledge,
            &self.caches[client.index()],
            &self.forecasters[client.index()],
            &self.gauge,
            self.net.links(),
            now,
        )
        .with_grace(self.planner_grace());
        // After a declared host death the search runs over the
        // surviving-host subgraph: stale measurements through the dead
        // host are masked and its sites excluded from candidacy. Clean
        // runs take the unmasked path untouched.
        let dead = self.dead_hosts();
        let (cost_before, result) = if dead.is_empty() {
            let cost_before = self.cfg.objective.evaluate(
                &self.tree,
                &self.roster,
                &self.committed_placement,
                view,
                &self.cfg.cost_model,
            );
            let result = improve_placement_scratch(
                &self.tree,
                &self.roster,
                self.committed_placement.clone(),
                view,
                &self.cfg.cost_model,
                self.cfg.objective,
                &[],
                &mut self.search_scratch,
            );
            (cost_before, result)
        } else {
            let masked = MaskedView::new(view, self.roster.host_count(), dead.iter().copied());
            let cost_before = self.cfg.objective.evaluate(
                &self.tree,
                &self.roster,
                &self.committed_placement,
                &masked,
                &self.cfg.cost_model,
            );
            let result = improve_placement_scratch(
                &self.tree,
                &self.roster,
                self.committed_placement.clone(),
                &masked,
                &self.cfg.cost_model,
                self.cfg.objective,
                &dead,
                &mut self.search_scratch,
            );
            (cost_before, result)
        };
        seed_cache_from_probes(
            &mut self.caches[client.index()],
            self.net.links(),
            &self.roster,
            now,
            self.faults.as_ref(),
        );
        let changed = result.placement != self.committed_placement;
        self.record_audit(AuditEvent::PlannerRan {
            at: now,
            cost_before,
            cost_after: result.cost,
            changed,
        });
        if changed {
            let moves = self.committed_placement.diff(&result.placement).len();
            // Versions count proposals, not commits: an aborted proposal's
            // version is never reused. Without faults every proposal
            // commits before the next is created, so this is identical to
            // `committed_version + 1`.
            let version = self.proposal_counter + 1;
            self.proposal_counter = version;
            self.record_audit(AuditEvent::ChangeoverProposed {
                at: now,
                version,
                moves,
            });
            self.proposal = Some(Proposal {
                version,
                placement: result.placement,
                reports: BarrierReports::on_slots(
                    std::mem::take(&mut self.report_slots),
                    self.cfg.n_servers,
                ),
            });
            // Under fault injection a report can be lost past its retry
            // budget; the timeout guarantees the barrier cannot wedge the
            // run. Clean runs arm no timer (zero perturbation).
            if self.faults.is_some() {
                self.queue.schedule_in(
                    self.cfg.retry.barrier_timeout,
                    Ev::BarrierTimeout { version },
                );
            }
        }
    }

    /// The barrier patience timer fired. If the proposal it was armed for
    /// is still pending, abandon it: keep the old placement, tell every
    /// server (suspended or about to be) to resume, and let a later
    /// planning tick try again.
    fn handle_barrier_timeout(&mut self, version: u32) {
        let still_pending = self.proposal.as_ref().is_some_and(|p| p.version == version);
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
    fn abort_pending_proposal(&mut self) {
        let Some(p) = self.proposal.take() else {
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
        self.report_slots = p.reports.into_slots();
    }

    /// A server learns a proposal was abandoned: resume if it suspended
    /// for it, and remember the version so a stale in-flight copy of the
    /// proposal (riding an older demand) cannot re-suspend it.
    fn handle_barrier_abort(&mut self, node: NodeId, version: u32) {
        {
            let rt = &mut self.nodes[node.index()];
            if rt.seen_proposal_version <= version {
                rt.seen_proposal_version = version;
                rt.suspended = false;
            }
        }
        self.try_dispatch(node);
    }

    fn send_barrier_report(&mut self, node: NodeId, server: usize, iteration: u32, version: u32) {
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

    fn handle_barrier_report(&mut self, server: usize, iteration: u32, version: u32) {
        {
            let Some(p) = self.proposal.as_mut() else {
                return; // stale report for an abandoned proposal
            };
            if p.version != version {
                return;
            }
            p.reports.insert(server, iteration);
        }
        self.try_commit_barrier();
    }

    /// Whether server `s` is out of the computation: its host was declared
    /// dead or its node pruned. Down servers are excluded from the barrier
    /// quorum — a dead server's report will never arrive.
    fn server_is_down(&self, s: usize) -> bool {
        if self.declared_dead[self.roster.server_host(s).index()] {
            return true;
        }
        self.tree
            .nodes()
            .iter()
            .enumerate()
            .any(|(i, n)| matches!(n.kind, NodeKind::Server(x) if x == s) && self.nodes[i].pruned)
    }

    /// Commits the pending change-over once every *live* server has
    /// reported. In clean runs this is exactly "all `n_servers` reported";
    /// after a death the quorum shrinks to the survivors, so the barrier
    /// cannot wait forever on a host that will never answer.
    fn try_commit_barrier(&mut self) {
        let all_in = {
            let Some(p) = self.proposal.as_ref() else {
                return;
            };
            (0..self.cfg.n_servers).all(|s| p.reports.contains(s) || self.server_is_down(s))
        };
        if !all_in {
            return;
        }
        if self.proposal.as_ref().is_some_and(|p| p.reports.is_empty()) {
            // Every server is gone; there is nothing to switch over.
            self.abort_pending_proposal();
            return;
        }
        let p = self.proposal.take().expect("checked above");
        let switch_iteration = p.reports.max_iteration().expect("non-empty") + 1;
        self.committed_placement = p.placement.clone();
        self.committed_version = p.version;
        self.changeovers += 1;
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
                    placement: p.placement.clone(),
                },
                Priority::High,
                None,
            );
        }
        self.report_slots = p.reports.into_slots();
    }

    fn handle_barrier_commit(
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

    // ------------------------------------------------------------------
    // Local algorithm: staggered epoch wavefront
    // ------------------------------------------------------------------

    fn handle_epoch_tick(&mut self) {
        let depth = self.tree.depth().max(1);
        let level = (self.epoch_index % depth as u64) as usize;
        self.epoch_index += 1;
        self.queue.schedule_in(self.epoch_len, Ev::EpochTick);

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
            let view = PlannerView::monitored(&self.caches[host.index()], self.net.links(), now)
                .with_grace(self.planner_grace());
            let decision = best_local_site(&self.local_scratch.ctx, view, &self.cfg.cost_model);
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

    /// Builds the operator's local view into `self.local_scratch.ctx`:
    /// producer and consumer locations from the host's location vector
    /// (servers and the client are pinned by the roster), plus `k` random
    /// extra candidates. Fills reusable buffers instead of allocating —
    /// the epoch wavefront calls this for every critical-path operator.
    fn fill_local_context(&mut self, node: NodeId, host: HostId) {
        // Take the scratch out so its buffers can be filled while reading
        // the rest of the engine; `take` swaps in empty (non-allocating)
        // vectors, so no per-call allocation happens either way.
        let mut scratch = std::mem::take(&mut self.local_scratch);
        let believed = |engine: &Engine, peer: NodeId| -> HostId {
            match engine.tree.node(peer).kind {
                NodeKind::Server(s) => engine.roster.server_host(s),
                NodeKind::Client => engine.roster.client(),
                NodeKind::Operator(op) => engine.vectors[host.index()].location(op),
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
        if self.extra_candidates > 0 {
            scratch.remaining.clear();
            scratch
                .remaining
                .extend(self.roster.hosts().filter(|h| !scratch.fixed.contains(h)));
            for _ in 0..self.extra_candidates.min(scratch.remaining.len()) {
                let idx = self.rng.range_usize(scratch.remaining.len());
                scratch
                    .ctx
                    .extra_candidates
                    .push(scratch.remaining.swap_remove(idx));
            }
        }
        self.local_scratch = scratch;
    }

    // ------------------------------------------------------------------
    // Disk and CPU
    // ------------------------------------------------------------------

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
        let job = DiskJob {
            node,
            iteration,
            dims,
        };
        if let Some(granted) = self.disks[host.index()].request(job, Priority::Normal) {
            self.start_disk(host, granted);
        }
    }

    fn start_disk(&mut self, host: HostId, job: DiskJob) {
        debug_assert!(self.disk_current[host.index()].is_none());
        let duration = self.cfg.disk.read_duration(job.dims.bytes());
        self.disk_current[host.index()] = Some(job);
        self.queue
            .schedule_in(duration, Ev::DiskDone { host: host.index() });
    }

    fn handle_disk_done(&mut self, host: usize) {
        let job = self.disk_current[host]
            .take()
            .expect("disk completion without a job");
        // Dead silicon: a crashed host finishes nothing, and its queued
        // jobs never start.
        if self.host_down(HostId::new(host)) {
            return;
        }
        if self.nodes[job.node.index()].pruned {
            if let Some(next) = self.disks[host].release() {
                self.start_disk(HostId::new(host), next);
            }
            return;
        }
        {
            // Under faults a not-yet-replayed restored output may still be
            // held; the fresh read wins (newer data supersedes a replay).
            let tolerant = self.faults.is_some();
            let rt = &mut self.nodes[job.node.index()];
            debug_assert!(tolerant || rt.output.is_none(), "server output overwritten");
            rt.output = Some(OutputItem {
                iteration: job.iteration,
                dims: job.dims,
            });
        }
        self.try_dispatch(job.node);
        if let Some(next) = self.disks[host].release() {
            self.start_disk(HostId::new(host), next);
        }
    }

    fn request_cpu(&mut self, host: HostId, job: ComputeJob) {
        if let Some(granted) = self.cpus[host.index()].request(job, Priority::Normal) {
            self.start_cpu(host, granted);
        }
    }

    fn start_cpu(&mut self, host: HostId, job: ComputeJob) {
        debug_assert!(self.cpu_current[host.index()].is_none());
        self.cpu_current[host.index()] = Some(job);
        self.queue
            .schedule_in(job.duration, Ev::ComputeDone { host: host.index() });
    }

    fn handle_compute_done(&mut self, host: usize) {
        let job = self.cpu_current[host]
            .take()
            .expect("compute completion without a job");
        if self.host_down(HostId::new(host)) {
            return;
        }
        if self.nodes[job.node.index()].pruned {
            if let Some(next) = self.cpus[host].release() {
                self.start_cpu(HostId::new(host), next);
            }
            return;
        }
        {
            let tolerant = self.faults.is_some();
            let rt = &mut self.nodes[job.node.index()];
            debug_assert!(
                tolerant || rt.output.is_none(),
                "operator output overwritten"
            );
            rt.output = Some(OutputItem {
                iteration: job.iteration,
                dims: job.dims,
            });
        }
        self.try_dispatch(job.node);
        if let Some(next) = self.cpus[host].release() {
            self.start_cpu(HostId::new(host), next);
        }
    }

    /// Models the planner's on-demand monitoring: every host pair without
    /// a fresh entry in the client's cache is probed with a real transfer
    /// ("in the worst case, this algorithm requires bandwidth to be
    /// measured for all links"). The probes contend with application
    /// traffic for NICs — the cost that penalises very frequent
    /// re-planning. Their completions feed the caches through passive
    /// monitoring like any other large transfer.
    fn emit_probe_traffic(&mut self, now: SimTime) {
        if self.cfg.probe_bytes == 0 {
            return;
        }
        let client = self.roster.client();
        let mut pairs = std::mem::take(&mut self.probe_pairs);
        pairs.clear();
        for a in self.roster.hosts() {
            for b in self.roster.hosts() {
                if a < b
                    && !self.declared_dead[a.index()]
                    && !self.declared_dead[b.index()]
                    && self.caches[client.index()].lookup(a, b, now).is_none()
                {
                    pairs.push((a, b));
                }
            }
        }
        for &(a, b) in &pairs {
            self.submit_probe(a, b, now);
        }
        self.probe_pairs = pairs;
        self.pump();
    }

    /// Submits one probe transfer between a host pair.
    fn submit_probe(&mut self, a: HostId, b: HostId, now: SimTime) {
        if self.cfg.probe_bytes == 0 {
            return;
        }
        // Probing a declared-dead host would be traffic to it.
        if self.declared_dead[a.index()] || self.declared_dead[b.index()] {
            return;
        }
        let mut msg = self.msg_pool.acquire();
        msg.src_host = a;
        msg.dst_host = b;
        msg.dst_node = self.tree.root();
        piggyback::collect_into(&self.caches[a.index()], now, &mut msg.piggyback);
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
            self.doomed_probes.insert(tid);
        }
    }

    // ------------------------------------------------------------------
    // Message transport
    // ------------------------------------------------------------------

    /// Sends a message from `from_node`'s host to `to_node`'s current host.
    fn send(
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

    fn send_to_host(
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
        if self.declared_dead[from_host.index()] || self.declared_dead[to_host.index()] {
            return;
        }
        let now = self.now();
        let mut msg = self.msg_pool.acquire();
        msg.src_host = from_host;
        msg.dst_host = to_host;
        msg.dst_node = to_node;
        msg.notify_sender = notify_sender;
        msg.payload = payload;
        piggyback::collect_into(&self.caches[from_host.index()], now, &mut msg.piggyback);
        if self.local_mode {
            let mut v = self.msg_pool.acquire_vector();
            v.copy_from(&self.vectors[from_host.index()]);
            msg.locations = Some(v);
        }
        if from_host == to_host {
            // Co-located delivery: no NIC, no startup cost. The sender
            // notification (light point) fires when the message arrives,
            // exactly as for remote transfers.
            self.queue.schedule_now(Ev::Local(msg));
            return;
        }
        let bytes = msg.wire_bytes(self.cfg.operator_state_bytes);
        let kind = traffic_kind(&msg.payload);
        self.net.submit(
            TransferSpec {
                src: from_host,
                dst: to_host,
                bytes,
                priority,
                kind,
            },
            msg,
        );
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
        let mut started = std::mem::take(&mut self.started_scratch);
        self.net.poll_start_into(now, &mut started);
        for s in &started {
            let eid = self.queue.schedule(s.completes_at, Ev::Deliver(s.id));
            if self.net.topo_tracks(s.id) {
                Self::set_deliver_slot(&mut self.deliver_events, s.id, eid);
            }
        }
        self.started_scratch = started;
        self.sync_topo(now);
    }

    /// Throughput-model bookkeeping after any event that may have changed
    /// fair shares: apply completion-time corrections (cancel the stale
    /// event, schedule the corrected one), re-arm the trace-step
    /// recompute, and feed the runtime gauger. Returns at once when the
    /// model is idle and no step is armed — always, on a per-pair world.
    fn sync_topo(&mut self, now: SimTime) {
        if self.topo_step_event.is_none() && self.net.topo().is_idle() {
            return;
        }
        for r in self.net.topo_mut().drain_resched() {
            let i = r.id.as_u64() as usize;
            if let Some(old) = self.deliver_events.get_mut(i).and_then(|s| s.take()) {
                let cancelled = self.queue.cancel(old);
                debug_assert!(cancelled, "a live flow's completion event is pending");
            }
            let eid = self.queue.schedule(r.completes_at, Ev::Deliver(r.id));
            Self::set_deliver_slot(&mut self.deliver_events, r.id, eid);
        }
        if let Some(old) = self.topo_step_event.take() {
            self.queue.cancel(old);
        }
        if let Some(t) = self.net.topo_mut().next_step() {
            self.topo_step_event = Some(self.queue.schedule(t, Ev::TopoStep));
        }
        if self.gauging {
            for (a, b, rate) in self.net.topo().active_rates(now) {
                self.gauge.observe(a, b, rate, now);
            }
        }
    }
}

/// An on-demand planning probe measures real links; the measured values
/// stay in the prober's cache (client-side), as the paper's on-demand
/// monitoring would leave them. They are timestamped `now` and so expire
/// after `T_thres` like any other measurement.
///
/// Under fault injection a black-holed probe yields no measurement: the
/// verdict is rolled on the same `(pair, now)` key that dooms the wire
/// copy in [`Engine::submit_probe`], so the two sides always agree.
fn seed_cache_from_probes(
    cache: &mut BandwidthCache,
    links: &LinkTable,
    roster: &HostRoster,
    now: SimTime,
    faults: Option<&FaultInjector>,
) {
    for a in roster.hosts() {
        for b in roster.hosts() {
            if a < b {
                if faults.is_some_and(|f| f.blackholes_probe(a, b, now)) {
                    continue;
                }
                if let Some(tr) = links.trace(a, b) {
                    cache.observe(a, b, tr.bandwidth_at(now), now);
                }
            }
        }
    }
}
