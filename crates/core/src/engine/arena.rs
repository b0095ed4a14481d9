//! The run arena: per-node and per-host runtime state, and the
//! [`RunScratch`] that carries every layer's recyclable part from one run
//! to the next.

use wadc_app::image::ImageDims;
use wadc_monitor::cache::{BandwidthCache, MonitorConfig};
use wadc_monitor::forecast::Forecaster;
use wadc_monitor::vector::LocationVector;
use wadc_net::network::NetScratch;
use wadc_plan::ids::HostId;
use wadc_sim::event::EventQueue;
use wadc_sim::time::SimTime;

use super::local::LocalScratch;
use super::message::{Message, MsgPool};
use super::protocol::Station;
use super::transport::Transport;
use super::{Engine, Ev};
use crate::algorithms::one_shot::SearchScratch;

#[derive(Debug, Clone, Copy)]
pub(super) struct OutputItem {
    pub(super) iteration: u32,
    pub(super) dims: ImageDims,
}

#[derive(Debug, Clone, Copy)]
pub(super) struct InputSlot {
    pub(super) dims: ImageDims,
    pub(super) arrived: SimTime,
}

/// Per-node runtime state.
#[derive(Debug, Default)]
pub(super) struct NodeRt {
    pub(super) host: HostId,
    /// `true` while the operator's state is in transit between hosts.
    pub(super) frozen: bool,
    /// Messages that arrived during a relocation, replayed on arrival.
    /// Boxes, not values: they re-enter delivery and return to the pool.
    #[allow(clippy::vec_box)]
    pub(super) buffered: Vec<Box<Message>>,
    pub(super) output: Option<OutputItem>,
    pub(super) pending_demand: Option<u32>,
    pub(super) gather_iter: u32,
    pub(super) inputs: Vec<Option<InputSlot>>,
    pub(super) last_dispatched: u32,
    /// Which child delivered later in the last completed gather.
    pub(super) later_child: Option<usize>,
    /// Local algorithm: times this node was marked the later producer
    /// during the current epoch.
    pub(super) later_marks: u32,
    /// Local algorithm: data dispatches during the current epoch.
    pub(super) dispatches_this_epoch: u32,
    pub(super) consumer_on_cp: bool,
    pub(super) on_cp: bool,
    /// Local algorithm: relocation decided, applied at the next light point.
    pub(super) pending_move: Option<HostId>,
    /// Global algorithm: committed `(switch_iteration, new_site)`.
    pub(super) next_placement: Option<(u32, HostId)>,
    pub(super) seen_proposal_version: u32,
    /// Server: suspended between reporting a barrier and its commit.
    pub(super) suspended: bool,
    /// Server: highest iteration whose disk read has been requested.
    pub(super) disk_requested: u32,
    /// Permanently removed from the tree: its host was declared dead (for
    /// servers) or every child is pruned / a respawn exhausted its retry
    /// budget (for operators). A pruned node neither receives demands nor
    /// blocks its parent's gather. Always `false` in clean runs.
    pub(super) pruned: bool,
    /// A crash-failover respawn of this operator is in flight; stale
    /// pre-crash move packets and rollbacks must not race it.
    pub(super) respawning: bool,
    /// Copy of the most recently dispatched output, retained so a
    /// respawned consumer can ask for a replay after the in-flight copy
    /// died with a crashed host. Never read in clean runs.
    pub(super) last_output: Option<OutputItem>,
    /// Highest gather iteration whose composition was already requested;
    /// guards [`Engine::maybe_compose`] against double-composing when a
    /// child is pruned after readiness was reached.
    pub(super) composed_iter: u32,
}

impl NodeRt {
    /// Initialises this node at `host` with `n_children` empty input
    /// slots, reusing the `inputs` and `buffered` buffers. A cold node is
    /// a default node passed through here. Any boxes still in `buffered`
    /// must have been harvested by the caller first.
    pub(super) fn reset(&mut self, host: HostId, n_children: usize) {
        debug_assert!(self.buffered.is_empty(), "buffered boxes not harvested");
        let mut inputs = std::mem::take(&mut self.inputs);
        inputs.clear();
        inputs.resize(n_children, None);
        *self = NodeRt {
            host,
            buffered: std::mem::take(&mut self.buffered),
            inputs,
            ..NodeRt::default()
        };
    }
}

/// Measurements each host's forecaster keeps per host pair.
const FORECAST_WINDOW: usize = 16;

/// Per-host runtime state: what the host knows of the network, where it
/// believes the operators are, its disk and CPU, and the failure
/// detector's view of it.
#[derive(Debug)]
pub(super) struct HostRt {
    pub(super) cache: BandwidthCache,
    pub(super) forecaster: Forecaster,
    /// Local mode: the host's operator-location vector. Empty in every
    /// other mode.
    pub(super) vector: LocationVector,
    /// The disk and the CPU, indexed by [`Unit`](super::protocol::Unit).
    pub(super) stations: [Station; 2],
    /// The failure detector's verdict: set once the host has exhausted
    /// the retry budget on
    /// [`DETECTION_K`](super::config::retry::DETECTION_K) distinct
    /// messages. Declaration — not the physical crash — triggers failover
    /// and the traffic ban; `false` in clean runs.
    pub(super) declared_dead: bool,
    /// Detector evidence: retry-exhausted (abandoned) messages to this
    /// host, counted only while the sender itself is alive.
    pub(super) abandoned: u32,
}

impl HostRt {
    pub(super) fn new(monitor: MonitorConfig) -> Self {
        HostRt {
            cache: BandwidthCache::new(monitor),
            forecaster: Forecaster::new(FORECAST_WINDOW),
            vector: LocationVector::new(Vec::new()),
            stations: Default::default(),
            declared_dead: false,
            abandoned: 0,
        }
    }

    /// Restores the state a fresh host of an `n_hosts`-host world starts a
    /// run with, keeping every buffer's capacity.
    pub(super) fn reset(&mut self, monitor: MonitorConfig, n_hosts: usize) {
        self.cache.reset(monitor, n_hosts);
        self.forecaster.reset(FORECAST_WINDOW);
        self.vector.assign(&[]);
        for s in &mut self.stations {
            s.reset();
        }
        self.declared_dead = false;
        self.abandoned = 0;
    }
}

/// A reusable per-worker arena for everything growable a run allocates:
/// the event queue's slab, per-node and per-host runtime state, the
/// network's buffers, the transport's message pool and buffers, the
/// barrier's report slots, the local algorithm's and the placement
/// search's scratch, and a capacity hint for the audit log, which moves
/// into the [`RunResult`](super::RunResult).
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
/// prove it across algorithms, knowledge modes, fault plans, world sizes,
/// rosters, per-pair and shared topologies, and thread counts.
///
/// [`Experiment::engine_scratch`]: crate::experiment::Experiment::engine_scratch
/// [`Experiment::run_scratch`]: crate::experiment::Experiment::run_scratch
#[derive(Debug, Default)]
pub struct RunScratch {
    pub(super) queue: EventQueue<Ev>,
    pub(super) nodes: Vec<NodeRt>,
    pub(super) hosts: Vec<HostRt>,
    pub(super) net: NetScratch<Box<Message>>,
    pub(super) transport: Transport,
    pub(super) reports: Vec<Option<u32>>,
    pub(super) local: LocalScratch,
    pub(super) search: SearchScratch,
    pub(super) audit_cap: usize,
}

impl RunScratch {
    /// Creates an empty (cold) arena; it warms up as runs recycle their
    /// state through it.
    pub fn new() -> Self {
        RunScratch::default()
    }

    /// Returns `true` once at least one run has parked capacity here.
    pub fn is_warm(&self) -> bool {
        self.has_parked_messages() || !self.nodes.is_empty() || !self.hosts.is_empty()
    }

    /// Returns `true` once a run has parked message boxes on the arena's
    /// message free list.
    pub fn has_parked_messages(&self) -> bool {
        !self.transport.msgs.is_empty()
    }
}

/// Sizes a recycled arena vector to `n` entries and initialises each with
/// `init(index, entry)`. Survivors keep their capacity; missing entries
/// start as `blank()` and pass through the same `init`, so a cold entry
/// is initialised exactly like a warm one.
pub(super) fn recycle<T>(
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
    /// Returns retired message boxes to `pool` when an event payload
    /// carries one (pending local deliveries and armed retransmissions).
    pub(super) fn harvest_ev(pool: &mut MsgPool, ev: Ev) {
        match ev {
            Ev::Local(m) | Ev::Retransmit(m) => pool.release(m),
            _ => {}
        }
    }

    /// Tears the finished engine down into a reusable [`RunScratch`]:
    /// harvests every message box still held by the queue or node replay
    /// buffers, and parks every layer's recyclable part for the next run.
    pub(super) fn reclaim(mut self, audit_len: usize) -> RunScratch {
        let msgs = &mut self.transport.msgs;
        while let Some((_, _, ev)) = self.queue.pop() {
            Self::harvest_ev(msgs, ev);
        }
        for n in &mut self.nodes {
            for m in n.buffered.drain(..) {
                msgs.release(m);
            }
        }
        let net = self.net.into_scratch(|m| msgs.release(m));
        RunScratch {
            queue: self.queue,
            nodes: self.nodes,
            hosts: self.hosts,
            net,
            transport: self.transport,
            reports: self.barrier.into_slots(),
            local: self.local.scratch,
            search: self.search,
            audit_cap: self.audit_cap.max(audit_len),
        }
    }
}
