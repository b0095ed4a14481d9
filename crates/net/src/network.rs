//! The transfer scheduler: half-duplex NICs over traced links.
//!
//! Models the paper's network semantics:
//!
//! - every host has a **single network interface** — it "can send or
//!   receive at most one message at a time", so a transfer occupies both
//!   endpoints' NICs for its whole duration (end-point congestion),
//! - every message pays a fixed **startup cost** (50 ms in the paper,
//!   [`STARTUP`]) before data flows at the traced, time-varying link
//!   bandwidth,
//! - **high-priority messages** (barriers and other control traffic) are
//!   "preferentially processed": they overtake queued data messages but do
//!   not preempt a transfer already in progress.
//!
//! The scheduler is a pure data structure: the engine submits transfers,
//! asks what can start *now*, schedules the returned completion times on
//! its event queue, and reports completions back.

use std::fmt;

use wadc_obs::metrics::SeriesKind;
use wadc_obs::recorder::{
    Obs, SeriesId, SeriesName, SpanArgs, SpanId, SpanKind, TrackId, TrackName,
};
use wadc_obs::report::fmt_bytes;
use wadc_plan::cost::STARTUP;
use wadc_plan::ids::{pair_count, pair_index, HostId};
use wadc_sim::time::{SimDuration, SimTime};

use wadc_trace::model::TraceCursor;

use std::sync::Arc;

use wadc_topo::graph::Topology;
use wadc_topo::link::LinkTable;

use crate::faults::{FaultInjector, TrafficKind};
use crate::topo::{TopoModel, TopoScratch};

/// Handle to a submitted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

impl TransferId {
    /// The raw id.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Wraps a raw id; ids are otherwise only minted by
    /// [`Network::submit`].
    #[cfg(test)]
    pub(crate) fn from_raw(raw: u64) -> Self {
        TransferId(raw)
    }
}

/// Network-wide parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Concurrent transfers a host can participate in. The paper assumes
    /// a single half-duplex interface (capacity 1, "send or receive at
    /// most one message at a time"); the paper notes this assumption "can
    /// be relaxed", which raising the capacity models (2 ≈ full duplex).
    pub nic_capacity: usize,
}

impl NetworkParams {
    /// The paper's network: one half-duplex interface per host.
    pub fn paper_defaults() -> Self {
        NetworkParams { nic_capacity: 1 }
    }

    /// Hosts with `capacity` interfaces each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_nic_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a host needs at least one channel");
        NetworkParams {
            nic_capacity: capacity,
        }
    }
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams::paper_defaults()
    }
}

/// Queueing class of a transfer. The paper distinguishes two: "if
/// multiple messages are enqueued, barrier messages get priority".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Bulk data transfers and ordinary traffic.
    Normal,
    /// Control traffic: barrier messages, iteration reports, relocation
    /// directives. Overtakes queued normal transfers without preempting
    /// one in progress.
    High,
}

/// What to transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferSpec {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Message size in bytes.
    pub bytes: u64,
    /// Queueing priority.
    pub priority: Priority,
    /// Traffic class, for per-class accounting and trace labels.
    pub kind: TrafficKind,
}

#[derive(Debug)]
struct Pending<P> {
    id: TransferId,
    spec: TransferSpec,
    payload: P,
}

#[derive(Debug)]
struct InFlight<P> {
    spec: TransferSpec,
    started: SimTime,
    payload: P,
    /// Open trace span on the source host's track ([`SpanId::INVALID`]
    /// when observation is off).
    span: SpanId,
}

/// A [`Network`]'s growable buffers, detached for reuse by a later run.
///
/// A simulation run builds a fresh `Network`, pushes a few thousand
/// transfers through it, and drops it; the buffers below are the only
/// heap state whose *capacity* is worth carrying across runs. Obtain one
/// from [`Network::into_scratch`], hand it to [`Network::with_scratch`];
/// a `NetScratch::new()` makes `with_scratch` exactly [`Network::new`].
#[derive(Debug)]
pub struct NetScratch<P> {
    nic_busy: Vec<usize>,
    pending_high: Vec<Pending<P>>,
    pending_norm: Vec<Pending<P>>,
    in_flight: Vec<Option<InFlight<P>>>,
    link_cursors: Vec<TraceCursor>,
    topo: TopoScratch,
}

impl<P> Default for NetScratch<P> {
    fn default() -> Self {
        NetScratch::new()
    }
}

impl<P> NetScratch<P> {
    /// An empty scratch (all capacities zero).
    pub fn new() -> Self {
        NetScratch {
            nic_busy: Vec::new(),
            pending_high: Vec::new(),
            pending_norm: Vec::new(),
            in_flight: Vec::new(),
            link_cursors: Vec::new(),
            topo: TopoScratch::default(),
        }
    }
}

/// A transfer that just entered service; the caller must schedule its
/// completion at `completes_at` and later call [`Network::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedTransfer {
    /// The transfer.
    pub id: TransferId,
    /// Absolute completion time.
    pub completes_at: SimTime,
}

/// A completed transfer handed back to the caller.
#[derive(Debug)]
pub struct Delivery<P> {
    /// The transfer.
    pub id: TransferId,
    /// What was transferred.
    pub spec: TransferSpec,
    /// When it entered service.
    pub started: SimTime,
    /// When it completed.
    pub completed: SimTime,
    /// The caller's payload.
    pub payload: P,
}

impl<P> Delivery<P> {
    /// Time spent in service (startup + data transfer).
    pub fn elapsed(&self) -> SimDuration {
        self.completed - self.started
    }
}

/// Per-[`TrafficKind`] message and byte counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Messages of this class submitted.
    pub submitted: u64,
    /// Bytes of this class submitted.
    pub bytes_submitted: u64,
    /// Messages of this class delivered.
    pub delivered: u64,
    /// Bytes of this class delivered.
    pub bytes_delivered: u64,
    /// Messages of this class discarded by fault injection.
    pub dropped: u64,
    /// Bytes carried by dropped messages of this class.
    pub bytes_dropped: u64,
}

/// Aggregate transfer statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Transfers submitted.
    pub submitted: u64,
    /// Transfers completed.
    pub completed: u64,
    /// Bytes submitted for transfer (conservation: every submitted byte is
    /// either delivered or still pending/in flight).
    pub bytes_submitted: u64,
    /// Data bytes delivered.
    pub bytes_delivered: u64,
    /// Completed transfers that were high priority.
    pub high_priority_completed: u64,
    /// Retransmissions (also counted in `submitted`).
    pub retransmits: u64,
    /// Bytes resubmitted by retransmissions (also in `bytes_submitted`).
    pub bytes_retransmitted: u64,
    /// Transfers whose payload was discarded by fault injection after the
    /// wire time was paid (also counted in `completed`).
    pub dropped: u64,
    /// Bytes carried by dropped transfers (also in `bytes_delivered`).
    pub bytes_dropped: u64,
    /// Transfers dropped because an endpoint had permanently crashed
    /// (a subset of `dropped`).
    pub crash_dropped: u64,
    /// Per-traffic-class breakdown, indexed by [`TrafficKind::tag`].
    /// Not folded into run digests — the aggregate counters above remain
    /// the digest surface.
    pub by_kind: [KindStats; 4],
}

impl NetStats {
    /// The counters for one traffic class.
    pub fn kind(&self, kind: TrafficKind) -> &KindStats {
        &self.by_kind[kind.tag() as usize]
    }

    fn kind_mut(&mut self, kind: TrafficKind) -> &mut KindStats {
        &mut self.by_kind[kind.tag() as usize]
    }
}

impl fmt::Display for NetStats {
    /// A multi-line human-readable summary: aggregate counters, a
    /// per-traffic-class breakdown, and (only when present) loss and
    /// retransmission lines.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "network: {} transfers submitted ({}), {} delivered ({}), {} high-priority",
            self.submitted,
            fmt_bytes(self.bytes_submitted as f64),
            self.completed,
            fmt_bytes(self.bytes_delivered as f64),
            self.high_priority_completed,
        )?;
        for kind in TrafficKind::ALL {
            let k = self.kind(kind);
            if k.submitted == 0 && k.delivered == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<7}: {} msgs ({}) submitted, {} msgs ({}) delivered",
                kind.label(),
                k.submitted,
                fmt_bytes(k.bytes_submitted as f64),
                k.delivered,
                fmt_bytes(k.bytes_delivered as f64),
            )?;
        }
        if self.dropped > 0 {
            let by_class: Vec<String> = TrafficKind::ALL
                .iter()
                .map(|&kind| format!("{} {}", kind.label(), self.kind(kind).dropped))
                .collect();
            writeln!(
                f,
                "losses by class: {} ({} total, {})",
                by_class.join(" | "),
                self.dropped,
                fmt_bytes(self.bytes_dropped as f64),
            )?;
        }
        if self.crash_dropped > 0 {
            writeln!(f, "crashed-host drops: {}", self.crash_dropped)?;
        }
        if self.retransmits > 0 {
            writeln!(
                f,
                "retransmits: {} ({})",
                self.retransmits,
                fmt_bytes(self.bytes_retransmitted as f64),
            )?;
        }
        Ok(())
    }
}

/// The network: pending queue, in-flight transfers, NIC occupancy.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use wadc_net::network::{Network, NetworkParams, Priority, TransferSpec};
/// use wadc_plan::ids::HostId;
/// use wadc_sim::time::SimTime;
/// use wadc_topo::graph::Topology;
/// use wadc_topo::link::LinkTable;
/// use wadc_trace::model::BandwidthTrace;
///
/// let mut links = LinkTable::new(2);
/// links.set(HostId::new(0), HostId::new(1), Arc::new(BandwidthTrace::constant(1000.0)));
/// let topology = Arc::new(Topology::per_pair(links));
/// let mut net: Network<&str> = Network::new(NetworkParams::paper_defaults(), topology);
/// net.submit(
///     TransferSpec {
///         src: HostId::new(0),
///         dst: HostId::new(1),
///         bytes: 1000,
///         priority: Priority::Normal,
///         kind: wadc_net::TrafficKind::Data,
///     },
///     "hello",
/// );
/// let started = net.poll_start(SimTime::ZERO);
/// assert_eq!(started.len(), 1);
/// // 50 ms startup + 1 s of data.
/// assert_eq!(started[0].completes_at, SimTime::from_millis(1050));
/// ```
#[derive(Debug)]
pub struct Network<P> {
    params: NetworkParams,
    /// Number of transfers each host currently participates in.
    nic_busy: Vec<usize>,
    /// Waiting transfers, one FIFO per priority class. Ids are monotonic,
    /// so each queue is sorted by submission order by construction and
    /// scanning high before normal reproduces a full
    /// (priority desc, id asc) sort without sorting.
    pending_high: Vec<Pending<P>>,
    pending_norm: Vec<Pending<P>>,
    /// In-service transfers, indexed by [`TransferId`] (ids are minted
    /// densely from zero, so a slot vector replaces a hash map on the
    /// start/complete path).
    in_flight: Vec<Option<InFlight<P>>>,
    in_flight_len: usize,
    next_id: u64,
    stats: NetStats,
    faults: Option<FaultInjector>,
    /// The throughput model over the network's topology.
    topo: TopoModel,
    /// One trace-lookup cursor per host pair, at [`pair_index`] (both
    /// directions of a pair share a nominal trace, so they share a
    /// cursor). Transfer start times
    /// on a link advance nearly monotonically, which the cursors turn into
    /// O(1) segment lookups; results are identical to cursor-free lookups.
    link_cursors: Vec<TraceCursor>,
    /// Observation sink; disabled by default.
    obs: Obs,
    /// One trace track per host (filled by [`Network::set_obs`]).
    host_tracks: Vec<TrackId>,
    s_in_flight_bytes: SeriesId,
    s_pending: SeriesId,
    in_flight_bytes: u64,
}

impl<P> Network<P> {
    /// Creates a network over a topology. Transfers take the exact
    /// integral of their pair's nominal trace, except that flows crossing
    /// a shared link split it max-min fairly.
    pub fn new(params: NetworkParams, topology: Arc<Topology>) -> Self {
        Network::with_scratch(params, topology, NetScratch::new())
    }

    /// [`Network::new`] drawing its buffers from a recycled scratch.
    /// Every buffer is reset to exactly the cold-constructed state — only
    /// spare capacity survives, so the two constructors are
    /// observationally identical.
    pub fn with_scratch(
        params: NetworkParams,
        topology: Arc<Topology>,
        scratch: NetScratch<P>,
    ) -> Self {
        assert!(params.nic_capacity > 0, "a host needs at least one channel");
        let n = topology.host_count();
        let NetScratch {
            mut nic_busy,
            pending_high,
            pending_norm,
            in_flight,
            mut link_cursors,
            topo,
        } = scratch;
        debug_assert!(pending_high.is_empty() && pending_norm.is_empty());
        debug_assert!(in_flight.is_empty());
        nic_busy.clear();
        nic_busy.resize(n, 0);
        link_cursors.clear();
        link_cursors.resize_with(pair_count(n), TraceCursor::new);
        Network {
            params,
            nic_busy,
            pending_high,
            pending_norm,
            in_flight,
            in_flight_len: 0,
            next_id: 0,
            stats: NetStats::default(),
            faults: None,
            topo: TopoModel::new(topology, topo),
            link_cursors,
            obs: Obs::disabled(),
            host_tracks: Vec::new(),
            s_in_flight_bytes: SeriesId::INVALID,
            s_pending: SeriesId::INVALID,
            in_flight_bytes: 0,
        }
    }

    /// Tears the network down into its reusable buffers, handing every
    /// payload still queued or in flight to `salvage` (a finished run's
    /// undelivered messages go back to the caller's pool rather than to
    /// the allocator).
    pub fn into_scratch(mut self, mut salvage: impl FnMut(P)) -> NetScratch<P> {
        for p in self
            .pending_high
            .drain(..)
            .chain(self.pending_norm.drain(..))
        {
            salvage(p.payload);
        }
        for slot in &mut self.in_flight {
            if let Some(f) = slot.take() {
                salvage(f.payload);
            }
        }
        self.in_flight.clear();
        NetScratch {
            nic_busy: self.nic_busy,
            pending_high: self.pending_high,
            pending_norm: self.pending_norm,
            in_flight: self.in_flight,
            link_cursors: self.link_cursors,
            topo: self.topo.buf,
        }
    }

    /// Attaches a fault injector: links it reports as blocked stop
    /// admitting new transfers (in-flight transfers still complete).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// The network's topology.
    pub fn topology(&self) -> &Arc<Topology> {
        self.topo.topology()
    }

    /// The throughput model, for its trace-step recomputes, completion
    /// corrections and in-flight rates.
    pub fn topo(&self) -> &TopoModel {
        &self.topo
    }

    /// Mutable access to the throughput model; flows enter and leave it
    /// only through [`Network::poll_start`] and [`Network::complete`].
    pub fn topo_mut(&mut self) -> &mut TopoModel {
        &mut self.topo
    }

    /// `true` if the throughput model tracks in-flight transfer `id` (its
    /// route crosses a shared link), so its completion may be corrected
    /// through [`TopoModel::drain_resched`].
    pub fn topo_tracks(&self, id: TransferId) -> bool {
        self.in_flight
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .is_some_and(|f| self.topology().route_is_shared(f.spec.src, f.spec.dst))
    }

    /// Attaches an observation sink: transfers become spans on the source
    /// host's track, and in-flight bytes / pending depth become
    /// time-weighted gauges. Purely passive — attaching a recorder changes
    /// no scheduling decision and no digest.
    ///
    /// Transfer spans are recorded only at NIC capacity 1 (the paper's
    /// model), where at most one outgoing transfer per host exists at a
    /// time and spans on one track therefore never overlap; at higher
    /// capacities the gauges still record.
    pub fn set_obs(&mut self, obs: Obs) {
        let n = self.nic_busy.len();
        self.host_tracks = (0..n)
            .map(|h| obs.track(TrackName::Host(h as u32)))
            .collect();
        self.s_in_flight_bytes = obs.series(SeriesKind::TimeWeighted, SeriesName::InFlightBytes);
        self.s_pending = obs.series(SeriesKind::TimeWeighted, SeriesName::PendingTransfers);
        self.obs = obs;
    }

    /// Every pair's nominal trace: the topology's link table.
    pub fn links(&self) -> &LinkTable {
        self.topology().nominal()
    }

    /// The network parameters.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Submits a transfer. It will start once both endpoints' NICs are
    /// free and no higher-priority (or earlier same-priority) transfer is
    /// contending for them; call [`Network::poll_start`] to find out.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (co-located messages never touch the
    /// network — the engine delivers them directly).
    pub fn submit(&mut self, spec: TransferSpec, payload: P) -> TransferId {
        assert_ne!(
            spec.src, spec.dst,
            "co-located transfer submitted to the network"
        );
        let id = TransferId(self.next_id);
        self.next_id += 1;
        self.stats.submitted += 1;
        self.stats.bytes_submitted += spec.bytes;
        let k = self.stats.kind_mut(spec.kind);
        k.submitted += 1;
        k.bytes_submitted += spec.bytes;
        let queue = match spec.priority {
            Priority::High => &mut self.pending_high,
            Priority::Normal => &mut self.pending_norm,
        };
        queue.push(Pending { id, spec, payload });
        id
    }

    /// Submits a retransmission: identical to [`Network::submit`] but also
    /// accounted under [`NetStats::retransmits`].
    ///
    /// # Panics
    ///
    /// As for [`Network::submit`].
    pub fn submit_retransmit(&mut self, spec: TransferSpec, payload: P) -> TransferId {
        self.stats.retransmits += 1;
        self.stats.bytes_retransmitted += spec.bytes;
        self.submit(spec, payload)
    }

    /// Accounts a completed transfer whose payload fault injection
    /// discarded: the wire time was paid, the message never arrived.
    pub fn record_drop(&mut self, spec: &TransferSpec) {
        self.stats.dropped += 1;
        self.stats.bytes_dropped += spec.bytes;
        let k = self.stats.kind_mut(spec.kind);
        k.dropped += 1;
        k.bytes_dropped += spec.bytes;
    }

    /// [`Network::record_drop`] for a transfer lost to a crashed
    /// endpoint, additionally tallied under [`NetStats::crash_dropped`].
    pub fn record_crash_drop(&mut self, spec: &TransferSpec) {
        self.record_drop(spec);
        self.stats.crash_dropped += 1;
    }

    /// Starts every pending transfer whose endpoints are both free, in
    /// priority order (high first, FIFO within a class). Returns the
    /// started transfers with their completion times; the caller schedules
    /// those completions.
    ///
    /// Within a priority class a blocked head-of-line transfer does not
    /// stop later transfers between *other* hosts from starting
    /// (work-conserving greedy matching).
    pub fn poll_start(&mut self, now: SimTime) -> Vec<StartedTransfer> {
        let mut started = Vec::new();
        self.poll_start_into(now, &mut started);
        started
    }

    /// [`Network::poll_start`] into a caller-owned buffer: clears `out`
    /// and fills it with the started transfers. The engine's steady-state
    /// pump reuses one buffer across every poll, so the common case — no
    /// transfer unblocked — allocates nothing.
    pub fn poll_start_into(&mut self, now: SimTime, out: &mut Vec<StartedTransfer>) {
        out.clear();
        // High first, then normal: each queue is FIFO by construction, so
        // this is the old stable (priority desc, id asc) scan order.
        self.scan_queue(now, out, Priority::High);
        self.scan_queue(now, out, Priority::Normal);
    }

    /// One [`Network::poll_start_into`] pass over a single priority class.
    fn scan_queue(&mut self, now: SimTime, out: &mut Vec<StartedTransfer>, class: Priority) {
        // The queue is detached during the scan so the start bookkeeping
        // below can borrow `self` freely; blocked entries stay in place.
        let mut queue = match class {
            Priority::High => std::mem::take(&mut self.pending_high),
            Priority::Normal => std::mem::take(&mut self.pending_norm),
        };
        let mut i = 0;
        let capacity = self.params.nic_capacity;
        while i < queue.len() {
            let spec = queue[i].spec;
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.link_blocked(spec.src, spec.dst, now))
            {
                // Outage or blackout: the transfer waits without occupying
                // a NIC; the engine polls again at the next fault
                // transition.
                i += 1;
                continue;
            }
            if self.nic_busy[spec.src.index()] < capacity
                && self.nic_busy[spec.dst.index()] < capacity
            {
                let p = queue.remove(i);
                self.nic_busy[spec.src.index()] += 1;
                self.nic_busy[spec.dst.index()] += 1;
                let data_start = now + STARTUP;
                let pair =
                    pair_index(spec.src, spec.dst).expect("submit refuses co-located transfers");
                let trace = self.topo.topology().nominal_trace(spec.src, spec.dst);
                let completes_at = data_start
                    + trace.transfer_duration_with(
                        &mut self.link_cursors[pair],
                        spec.bytes,
                        data_start,
                    );
                // The exact-integral time above stands while the flow is
                // uncontended; the model replaces it with a fair-share
                // estimate when the flow shares a link.
                let completes_at = self
                    .topo
                    .on_start(p.id, &spec, now, data_start, completes_at);
                let span = if self.obs.recording() {
                    self.in_flight_bytes += spec.bytes;
                    self.obs
                        .sample(self.s_in_flight_bytes, now, self.in_flight_bytes as f64);
                    let other = match class {
                        Priority::High => self.pending_norm.len(),
                        Priority::Normal => self.pending_high.len(),
                    };
                    self.obs
                        .sample(self.s_pending, now, (queue.len() + other) as f64);
                    if capacity == 1 {
                        let track = self
                            .host_tracks
                            .get(spec.src.index())
                            .copied()
                            .unwrap_or(TrackId(0));
                        self.obs.open_span(
                            track,
                            SpanKind::Transfer,
                            now,
                            SpanArgs {
                                a: spec.src.index() as u64,
                                b: spec.dst.index() as u64,
                                c: spec.bytes,
                                d: spec.kind.tag(),
                            },
                        )
                    } else {
                        SpanId::INVALID
                    }
                } else {
                    SpanId::INVALID
                };
                let slot = p.id.0 as usize;
                if slot >= self.in_flight.len() {
                    self.in_flight.resize_with(slot + 1, || None);
                }
                self.in_flight[slot] = Some(InFlight {
                    spec,
                    started: now,
                    payload: p.payload,
                    span,
                });
                self.in_flight_len += 1;
                out.push(StartedTransfer {
                    id: p.id,
                    completes_at,
                });
            } else {
                i += 1;
            }
        }
        match class {
            Priority::High => self.pending_high = queue,
            Priority::Normal => self.pending_norm = queue,
        }
    }

    /// Completes an in-flight transfer: frees both NICs and returns the
    /// delivery. The caller should call [`Network::poll_start`] afterwards
    /// to start any unblocked transfers.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight.
    pub fn complete(&mut self, id: TransferId, now: SimTime) -> Delivery<P> {
        let f = self
            .in_flight
            .get_mut(id.0 as usize)
            .and_then(|s| s.take())
            .expect("completing a transfer that is not in flight");
        self.in_flight_len -= 1;
        self.topo.on_complete(id, &f.spec, now);
        self.nic_busy[f.spec.src.index()] -= 1;
        self.nic_busy[f.spec.dst.index()] -= 1;
        self.stats.completed += 1;
        self.stats.bytes_delivered += f.spec.bytes;
        let k = self.stats.kind_mut(f.spec.kind);
        k.delivered += 1;
        k.bytes_delivered += f.spec.bytes;
        if f.spec.priority == Priority::High {
            self.stats.high_priority_completed += 1;
        }
        if self.obs.recording() {
            self.in_flight_bytes = self.in_flight_bytes.saturating_sub(f.spec.bytes);
            self.obs
                .sample(self.s_in_flight_bytes, now, self.in_flight_bytes as f64);
            self.obs.close_span(f.span, now, true);
        }
        Delivery {
            id,
            spec: f.spec,
            started: f.started,
            completed: now,
            payload: f.payload,
        }
    }

    /// Number of transfers waiting to start.
    pub fn pending_count(&self) -> usize {
        self.pending_high.len() + self.pending_norm.len()
    }

    /// Number of transfers in service.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight_len
    }

    /// Returns `true` if the host's NIC is at capacity.
    pub fn nic_busy(&self, host: HostId) -> bool {
        self.nic_busy[host.index()] >= self.params.nic_capacity
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wadc_plan::ids::pairs;
    use wadc_trace::model::BandwidthTrace;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn net(n: usize, bw: f64) -> Network<u32> {
        let mut links = LinkTable::new(n);
        for (a, b) in pairs(n) {
            links.set(a, b, Arc::new(BandwidthTrace::constant(bw)));
        }
        Network::new(NetworkParams::paper_defaults(), per_pair(links))
    }

    fn per_pair(links: LinkTable) -> Arc<Topology> {
        Arc::new(Topology::per_pair(links))
    }

    fn spec(src: usize, dst: usize, bytes: u64) -> TransferSpec {
        TransferSpec {
            src: h(src),
            dst: h(dst),
            bytes,
            priority: Priority::Normal,
            kind: TrafficKind::Data,
        }
    }

    #[test]
    fn startup_plus_transfer_time() {
        let mut n = net(2, 1000.0);
        n.submit(spec(0, 1, 2000), 0);
        let s = n.poll_start(SimTime::ZERO);
        assert_eq!(s[0].completes_at, SimTime::from_millis(2050));
        assert!(n.nic_busy(h(0)) && n.nic_busy(h(1)));
        let d = n.complete(s[0].id, s[0].completes_at);
        assert_eq!(d.elapsed(), SimDuration::from_millis(2050));
        assert!(!n.nic_busy(h(0)) && !n.nic_busy(h(1)));
    }

    #[test]
    fn nic_serialises_transfers_to_same_host() {
        // Two senders target host 2; only one transfer runs at a time.
        let mut n = net(3, 1000.0);
        n.submit(spec(0, 2, 1000), 1);
        n.submit(spec(1, 2, 1000), 2);
        let s = n.poll_start(SimTime::ZERO);
        assert_eq!(s.len(), 1, "second transfer blocked on host 2's NIC");
        assert_eq!(n.pending_count(), 1);
        let s2 = n.poll_start(SimTime::from_millis(10));
        assert!(s2.is_empty(), "still blocked");
        n.complete(s[0].id, s[0].completes_at);
        let s3 = n.poll_start(s[0].completes_at);
        assert_eq!(s3.len(), 1, "unblocked after completion");
    }

    #[test]
    fn disjoint_transfers_run_concurrently() {
        let mut n = net(4, 1000.0);
        n.submit(spec(0, 1, 1000), 1);
        n.submit(spec(2, 3, 1000), 2);
        assert_eq!(n.poll_start(SimTime::ZERO).len(), 2);
    }

    #[test]
    fn sender_nic_blocks_second_send() {
        let mut n = net(3, 1000.0);
        n.submit(spec(0, 1, 1000), 1);
        n.submit(spec(0, 2, 1000), 2);
        assert_eq!(n.poll_start(SimTime::ZERO).len(), 1);
    }

    #[test]
    fn high_priority_overtakes_queue() {
        let mut n = net(2, 1000.0);
        n.submit(spec(0, 1, 1000), 1);
        let s1 = n.poll_start(SimTime::ZERO); // data transfer in service
        assert_eq!(s1.len(), 1);
        n.submit(spec(0, 1, 1000), 2); // queued (normal)
        let mut high = spec(1, 0, 100);
        high.priority = Priority::High;
        n.submit(high, 3); // queued (high) — behind in submission order
        assert!(
            n.poll_start(SimTime::from_millis(1)).is_empty(),
            "no preemption of the transfer in service"
        );
        n.complete(s1[0].id, s1[0].completes_at);
        let s2 = n.poll_start(s1[0].completes_at);
        assert_eq!(s2.len(), 1);
        let d = n.complete(s2[0].id, s2[0].completes_at);
        assert_eq!(d.payload, 3, "high-priority message went first");
    }

    #[test]
    fn work_conserving_overtake_between_other_hosts() {
        // Transfer A occupies hosts 0 and 1; B (0→2) is blocked on host 0,
        // but C (2→3) is free to go even though it was submitted later.
        let mut n = net(4, 1000.0);
        n.submit(spec(0, 1, 1000), 1);
        n.poll_start(SimTime::ZERO);
        n.submit(spec(0, 2, 1000), 2);
        n.submit(spec(2, 3, 1000), 3);
        let s = n.poll_start(SimTime::ZERO);
        assert_eq!(s.len(), 1);
        assert_eq!(n.in_flight_count(), 2);
        let d = n.complete(s[0].id, s[0].completes_at);
        assert_eq!(d.payload, 3);
    }

    #[test]
    fn transfer_time_tracks_bandwidth_trace() {
        let mut links = LinkTable::new(2);
        // 1000 B/s for the first second (after startup), then 100 B/s.
        links.set(
            h(0),
            h(1),
            Arc::new(BandwidthTrace::from_steps(&[(0.0, 1000.0), (1.05, 100.0)]).unwrap()),
        );
        let mut n: Network<()> = Network::new(NetworkParams::paper_defaults(), per_pair(links));
        n.submit(spec(0, 1, 1500), ());
        let s = n.poll_start(SimTime::ZERO);
        // startup 0.05; data: 1000 B in 1 s, then 500 B at 100 B/s = 5 s.
        assert_eq!(s[0].completes_at, SimTime::from_millis(6050));
    }

    #[test]
    fn capacity_two_allows_concurrent_transfers_per_host() {
        // With two channels, host 2 can receive from 0 and 1 at once.
        let mut links = LinkTable::new(3);
        for (a, b) in pairs(3) {
            links.set(a, b, Arc::new(BandwidthTrace::constant(1000.0)));
        }
        let mut n: Network<u32> =
            Network::new(NetworkParams::with_nic_capacity(2), per_pair(links));
        n.submit(spec(0, 2, 1000), 1);
        n.submit(spec(1, 2, 1000), 2);
        n.submit(spec(0, 2, 1000), 3); // host 0 and host 2 both saturated
        let s = n.poll_start(SimTime::ZERO);
        assert_eq!(s.len(), 2, "two channels → two concurrent transfers");
        assert!(n.nic_busy(h(2)));
        assert!(!n.nic_busy(h(1)));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_capacity_rejected() {
        let _ = NetworkParams::with_nic_capacity(0);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(2, 1000.0);
        n.submit(spec(0, 1, 500), 1);
        let s = n.poll_start(SimTime::ZERO);
        n.complete(s[0].id, s[0].completes_at);
        let st = n.stats();
        assert_eq!(st.submitted, 1);
        assert_eq!(st.completed, 1);
        assert_eq!(st.bytes_submitted, 500);
        assert_eq!(st.bytes_delivered, 500);
        assert_eq!(st.high_priority_completed, 0);
    }

    #[test]
    #[should_panic(expected = "co-located")]
    fn rejects_self_transfer() {
        net(2, 1000.0).submit(spec(1, 1, 10), 0);
    }

    #[test]
    fn outage_defers_transfer_until_link_revives() {
        use crate::faults::FaultPlan;
        let mut n = net(2, 1000.0);
        let plan = FaultPlan::none().outage(h(0), h(1), SimTime::ZERO, SimTime::from_secs(10));
        n.set_faults(FaultInjector::new(&plan, 1, 2));
        n.submit(spec(0, 1, 1000), 7);
        assert!(n.poll_start(SimTime::ZERO).is_empty(), "link is down");
        assert!(n.poll_start(SimTime::from_secs(9)).is_empty(), "still down");
        assert!(!n.nic_busy(h(0)), "blocked transfer holds no NIC");
        let s = n.poll_start(SimTime::from_secs(10));
        assert_eq!(s.len(), 1, "starts the instant the outage ends");
        assert_eq!(
            s[0].completes_at,
            SimTime::from_secs(10) + SimDuration::from_millis(1050)
        );
    }

    #[test]
    fn blackout_blocks_only_the_dark_hosts_transfers() {
        use crate::faults::FaultPlan;
        let mut n = net(3, 1000.0);
        let plan = FaultPlan::none().blackout(h(2), SimTime::ZERO, SimTime::from_secs(5));
        n.set_faults(FaultInjector::new(&plan, 1, 3));
        n.submit(spec(0, 2, 1000), 1);
        n.submit(spec(0, 1, 1000), 2);
        let s = n.poll_start(SimTime::ZERO);
        assert_eq!(s.len(), 1, "only the transfer avoiding host 2 starts");
        let d = n.complete(s[0].id, s[0].completes_at);
        assert_eq!(d.payload, 2);
    }

    #[test]
    fn retransmit_and_drop_accounting() {
        let mut n = net(2, 1000.0);
        n.submit(spec(0, 1, 500), 1);
        n.submit_retransmit(spec(0, 1, 500), 2);
        let s = n.poll_start(SimTime::ZERO);
        let first = n.complete(s[0].id, s[0].completes_at);
        n.record_drop(&first.spec);
        let st = n.stats();
        assert_eq!(st.submitted, 2, "retransmits are counted in submitted");
        assert_eq!(st.retransmits, 1);
        assert_eq!(st.bytes_retransmitted, 500);
        assert_eq!(st.dropped, 1);
        assert_eq!(st.bytes_dropped, 500);
        assert_eq!(st.kind(TrafficKind::Data).dropped, 1);
    }

    #[test]
    fn crash_drop_accounting_is_a_subset_of_drops() {
        let mut n = net(2, 1000.0);
        n.submit(spec(0, 1, 300), 1);
        let s = n.poll_start(SimTime::ZERO);
        let d = n.complete(s[0].id, s[0].completes_at);
        n.record_crash_drop(&d.spec);
        let st = n.stats();
        assert_eq!(st.dropped, 1, "crash drops are ordinary drops too");
        assert_eq!(st.bytes_dropped, 300);
        assert_eq!(st.crash_dropped, 1);
        let text = st.to_string();
        assert!(text.contains("crashed-host drops: 1"));
        let clean = NetStats::default();
        assert!(!clean.to_string().contains("crashed-host"));
    }

    #[test]
    fn per_kind_counters_split_by_class() {
        let mut n = net(4, 1000.0);
        n.submit(spec(0, 1, 400), 1);
        let mut probe = spec(2, 3, 64);
        probe.kind = TrafficKind::Probe;
        n.submit(probe, 2);
        let s = n.poll_start(SimTime::ZERO);
        for t in s {
            n.complete(t.id, t.completes_at);
        }
        let st = n.stats();
        assert_eq!(st.kind(TrafficKind::Data).submitted, 1);
        assert_eq!(st.kind(TrafficKind::Data).bytes_delivered, 400);
        assert_eq!(st.kind(TrafficKind::Probe).delivered, 1);
        assert_eq!(st.kind(TrafficKind::Probe).bytes_submitted, 64);
        assert_eq!(st.kind(TrafficKind::Control).submitted, 0);
        // Per-kind totals tie out with the aggregates.
        let sum: u64 = st.by_kind.iter().map(|k| k.bytes_delivered).sum();
        assert_eq!(sum, st.bytes_delivered);
    }

    #[test]
    fn display_summarises_and_hides_empty_sections() {
        let mut n = net(2, 1000.0);
        n.submit(spec(0, 1, 2048), 1);
        let s = n.poll_start(SimTime::ZERO);
        n.complete(s[0].id, s[0].completes_at);
        let text = n.stats().to_string();
        assert!(text.contains("1 transfers submitted (2.0 KB)"));
        assert!(text.contains("data   : 1 msgs (2.0 KB) submitted"));
        assert!(!text.contains("losses by class"), "no losses → no line");
        assert!(!text.contains("retransmits"), "no retransmits → no line");
        let mut dropped = n.stats();
        dropped.dropped = 2;
        dropped.by_kind[0].dropped = 1;
        dropped.by_kind[2].dropped = 1;
        let text = dropped.to_string();
        assert!(text.contains("losses by class: data 1 | control 0 | probe 1 | state 0"));
    }

    #[test]
    fn traced_run_records_transfer_spans_and_gauges() {
        use wadc_obs::recorder::SpanKind;
        use wadc_obs::tracer::Tracer;

        let (obs, tracer) = Tracer::install();
        let mut n = net(2, 1000.0);
        n.set_obs(obs);
        n.submit(spec(0, 1, 1000), 7);
        let s = n.poll_start(SimTime::ZERO);
        n.complete(s[0].id, s[0].completes_at);
        let tr = tracer.borrow();
        let spans = tr.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::Transfer);
        assert_eq!(spans[0].args.c, 1000);
        assert_eq!(spans[0].close, Some(SimTime::from_millis(1050)));
        tr.check_well_formed().unwrap();
    }

    #[test]
    fn traced_and_untraced_runs_behave_identically() {
        use wadc_obs::tracer::Tracer;

        let drive = |with_obs: bool| {
            let mut n = net(3, 1000.0);
            if with_obs {
                let (obs, _tracer) = Tracer::install();
                n.set_obs(obs);
            }
            n.submit(spec(0, 2, 1000), 1);
            n.submit(spec(1, 2, 800), 2);
            let mut done: Vec<(u32, SimTime)> = Vec::new();
            let mut now = SimTime::ZERO;
            loop {
                let started = n.poll_start(now);
                if started.is_empty() && n.in_flight_count() == 0 {
                    break;
                }
                if let Some(t) = started.first().copied() {
                    now = t.completes_at;
                    let d = n.complete(t.id, now);
                    done.push((d.payload, d.completed));
                }
            }
            (done, n.stats())
        };
        assert_eq!(drive(false), drive(true));
    }
}
