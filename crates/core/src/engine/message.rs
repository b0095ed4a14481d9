//! Messages exchanged by the demand-driven data-flow computation.
//!
//! Four kinds of traffic cross the simulated network:
//!
//! - **demands** — requests for the next data partition, flowing down the
//!   tree (client → servers). Demands piggyback the local algorithm's
//!   later-producer marks and critical-path flags, and the global
//!   algorithm's proposed placements,
//! - **data** — composed images flowing up the tree,
//! - **barrier control** — the global algorithm's iteration reports and
//!   switch-iteration commits, sent at high priority,
//! - **operator state** — the (small) state of a relocating operator.
//!
//! Every message additionally carries the sender host's piggybacked
//! bandwidth values and (in local mode) its operator-location vector; both
//! are charged to the message's wire size.

use std::sync::Arc;

use wadc_app::image::ImageDims;
use wadc_mobile::STATE_PACKET_BYTES;
use wadc_monitor::piggyback::Piggyback;
use wadc_monitor::vector::LocationVector;
use wadc_plan::ids::{HostId, NodeId, OperatorId};
use wadc_plan::placement::Placement;

/// Fixed per-message header bytes (addressing, type, iteration fields).
pub const HEADER_BYTES: u64 = 256;

/// Wire bytes of one location-vector entry (host + timestamp).
pub const LOCATION_ENTRY_BYTES: u64 = 12;

/// Wire bytes of one placement entry inside a proposal/commit.
pub const PLACEMENT_ENTRY_BYTES: u64 = 8;

/// A placement proposal propagating down the tree with demands.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementUpdate {
    /// Proposal version (monotonically increasing per run).
    pub version: u32,
    /// The proposed placement, shared by every demand that carries it.
    pub placement: Arc<Placement>,
}

/// A request for a data partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Demand {
    /// The requesting node (the producer's consumer).
    pub consumer: NodeId,
    /// The node being asked for data.
    pub producer: NodeId,
    /// The 1-based iteration (partition) requested.
    pub iteration: u32,
    /// Local algorithm: "you were the later producer" mark for the
    /// previous gather, "propagated to the producers on the next request
    /// for data".
    pub marked_later: bool,
    /// Local algorithm: whether the consumer currently believes itself on
    /// the critical path (grounds the recursion; the client always does).
    pub consumer_on_cp: bool,
    /// Global algorithm: a placement proposal riding this demand.
    pub placement_update: Option<PlacementUpdate>,
}

/// A data partition (one composed or raw image).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataMsg {
    /// Producing node.
    pub producer: NodeId,
    /// Consuming node it was demanded by.
    pub consumer: NodeId,
    /// The 1-based iteration this image belongs to.
    pub iteration: u32,
    /// Image dimensions (size drives the transfer and compute costs).
    pub dims: ImageDims,
}

/// Message payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A demand flowing down the tree.
    Demand(Demand),
    /// A data partition flowing up the tree.
    Data(DataMsg),
    /// Barrier: a server reporting its current iteration to the client
    /// after first seeing a placement proposal (sent at high priority).
    BarrierReport {
        /// Reporting server index.
        server: usize,
        /// The server's current iteration number.
        iteration: u32,
        /// The proposal being acknowledged.
        version: u32,
    },
    /// Barrier: the client's switch-iteration broadcast (high priority).
    BarrierCommit {
        /// The committed proposal version.
        version: u32,
        /// First iteration to execute under the new placement.
        switch_iteration: u32,
        /// The committed placement, shared by every commit message.
        placement: Arc<Placement>,
    },
    /// A relocating operator's state arriving at its new host.
    OperatorState {
        /// The operator in transit.
        op: OperatorId,
        /// Iteration after which it moved (its light point).
        after_iteration: u32,
        /// The operator's host before the move (for a respawn, the dead
        /// host whose operator it replaces).
        from: HostId,
        /// Code-package bytes the move carries: nonzero only on a mobile
        /// object's first visit to the destination.
        code_bytes: u64,
        /// `true` when this is a crash-failover respawn from origin
        /// images rather than an ordinary relocation: a lost respawn is
        /// re-placed and resent (there is no old host to roll back to).
        respawn: bool,
    },
    /// Barrier: the client abandoned a timed-out change-over proposal;
    /// suspended servers resume under the old placement (high priority).
    BarrierAbort {
        /// The abandoned proposal version.
        version: u32,
    },
    /// An on-demand monitoring probe (content-free; its completion is the
    /// measurement, captured by passive monitoring at both endpoints).
    Probe,
}

/// A complete message as it crosses the network (or a host's loopback).
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Host the message was sent from.
    pub src_host: HostId,
    /// Host the message was sent to (where it is physically delivered —
    /// for an operator-state transfer, the operator's *new* host).
    pub dst_host: HostId,
    /// Node the message is addressed to.
    pub dst_node: NodeId,
    /// If set, the engine notifies this node (at the source) when the
    /// transfer completes — used for data dispatches (the light-move
    /// point) and operator-state arrivals.
    pub notify_sender: Option<NodeId>,
    /// The payload.
    pub payload: Payload,
    /// Piggybacked bandwidth values from the sender's cache.
    pub piggyback: Piggyback,
    /// Local mode: the sender host's operator-location vector.
    pub locations: Option<LocationVector>,
    /// How many earlier transmissions of this message fault injection has
    /// already destroyed (0 for the original send; only ever nonzero in
    /// lossy runs, where the retry machinery resends with a fresh count).
    pub attempt: u32,
}

impl Message {
    /// Total wire size: header + payload body + piggyback + location
    /// vector.
    pub fn wire_bytes(&self, operator_state_bytes: u64) -> u64 {
        let body = match &self.payload {
            Payload::Demand(d) => d.placement_update.as_ref().map_or(0, |u| {
                u.placement.operator_count() as u64 * PLACEMENT_ENTRY_BYTES
            }),
            Payload::Data(d) => d.dims.bytes(),
            Payload::BarrierReport { .. } => 0,
            Payload::BarrierAbort { .. } => 0,
            Payload::BarrierCommit { placement, .. } => {
                placement.operator_count() as u64 * PLACEMENT_ENTRY_BYTES
            }
            Payload::OperatorState { code_bytes, .. } => {
                operator_state_bytes + STATE_PACKET_BYTES + code_bytes
            }
            // The probe's size is carried in the transfer spec directly;
            // the payload body adds nothing beyond the header.
            Payload::Probe => 0,
        };
        let locations = self
            .locations
            .as_ref()
            .map_or(0, |v| v.len() as u64 * LOCATION_ENTRY_BYTES);
        HEADER_BYTES + body + self.piggyback.wire_bytes() as u64 + locations
    }
}

/// A free list of message boxes (plus spare location vectors) so the
/// engine's steady state sends without touching the global allocator.
///
/// Every message the engine transmits is heap-boxed (the event queue and
/// the network hold them by pointer). Without pooling, each send allocates
/// a fresh box, a piggyback entry buffer, and — in local mode — a location
/// vector, all of which die at delivery. The pool recycles them:
/// [`MsgPool::acquire`] hands out a blank message reusing a released box's
/// buffers, and [`MsgPool::release`] takes a delivered box back, parking
/// its location vector on a side list so the `Option` round-trips without
/// reallocating.
///
/// Pooling is *observationally inert*: a recycled message is field-reset on
/// acquire, so run digests are bit-identical with a cold or warm pool. The
/// pool is the message free list of the run arena
/// ([`RunScratch`](super::RunScratch)), so it outlives an engine and warms
/// the next run.
#[derive(Debug, Default)]
pub(crate) struct MsgPool {
    // The boxes ARE the pooled resource: acquire/release trade stable
    // allocations, never messages by value.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Message>>,
    vectors: Vec<LocationVector>,
}

impl MsgPool {
    /// Returns `true` if the pool holds no recycled boxes.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Hands out a message box with every field blanked (payload
    /// [`Payload::Probe`], no locations, attempt 0). The piggyback entry
    /// buffer keeps its capacity; senders overwrite it via
    /// `piggyback::collect_into`.
    pub fn acquire(&mut self) -> Box<Message> {
        match self.free.pop() {
            Some(mut msg) => {
                msg.notify_sender = None;
                msg.payload = Payload::Probe;
                msg.piggyback.entries.clear();
                debug_assert!(msg.locations.is_none(), "release strips locations");
                msg.attempt = 0;
                msg
            }
            None => Box::new(Message {
                src_host: HostId::new(0),
                dst_host: HostId::new(0),
                dst_node: NodeId::new(0),
                notify_sender: None,
                payload: Payload::Probe,
                piggyback: Piggyback::empty(),
                locations: None,
                attempt: 0,
            }),
        }
    }

    /// Hands out a spare location vector for `Message::locations`;
    /// callers overwrite it with [`LocationVector::copy_from`].
    pub fn acquire_vector(&mut self) -> LocationVector {
        self.vectors
            .pop()
            .unwrap_or_else(|| LocationVector::new(Vec::new()))
    }

    /// Returns a delivered box to the free list. The location vector (if
    /// any) is parked separately so its buffers survive the `Option`.
    pub fn release(&mut self, mut msg: Box<Message>) {
        if let Some(v) = msg.locations.take() {
            self.vectors.push(v);
        }
        self.free.push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(payload: Payload) -> Message {
        Message {
            src_host: HostId::new(0),
            dst_host: HostId::new(1),
            dst_node: NodeId::new(1),
            notify_sender: None,
            payload,
            piggyback: Piggyback::empty(),
            locations: None,
            attempt: 0,
        }
    }

    #[test]
    fn data_wire_size_includes_image() {
        let m = base(Payload::Data(DataMsg {
            producer: NodeId::new(0),
            consumer: NodeId::new(1),
            iteration: 3,
            dims: ImageDims::new(100, 100),
        }));
        assert_eq!(m.wire_bytes(4096), HEADER_BYTES + 10_000);
    }

    #[test]
    fn demand_wire_size_is_small_without_update() {
        let m = base(Payload::Demand(Demand {
            consumer: NodeId::new(1),
            producer: NodeId::new(0),
            iteration: 1,
            marked_later: false,
            consumer_on_cp: true,
            placement_update: None,
        }));
        assert_eq!(m.wire_bytes(4096), HEADER_BYTES);
    }

    #[test]
    fn operator_state_size_includes_plan_payload() {
        let m = base(Payload::OperatorState {
            op: OperatorId::new(0),
            after_iteration: 7,
            from: HostId::new(0),
            code_bytes: 10_000,
            respawn: false,
        });
        assert_eq!(m.wire_bytes(4096), HEADER_BYTES + 4096 + 34 + 10_000);
        assert_eq!(m.wire_bytes(1024), HEADER_BYTES + 1024 + 34 + 10_000);
    }

    #[test]
    fn piggyback_and_locations_are_charged() {
        use wadc_monitor::cache::{BandwidthCache, MonitorConfig};
        use wadc_monitor::piggyback::collect;
        use wadc_sim::time::SimTime;

        let mut cache = BandwidthCache::new(MonitorConfig::paper_defaults());
        cache.observe(HostId::new(0), HostId::new(1), 1.0, SimTime::ZERO);
        let mut m = base(Payload::BarrierReport {
            server: 0,
            iteration: 1,
            version: 1,
        });
        m.piggyback = collect(&mut cache, SimTime::ZERO);
        m.locations = Some(LocationVector::new(vec![HostId::new(0); 3]));
        assert_eq!(m.wire_bytes(0), HEADER_BYTES + 24 + 36);
    }

    #[test]
    fn pool_recycles_boxes_and_vectors() {
        let mut pool = MsgPool::default();
        assert!(pool.is_empty());
        let mut msg = pool.acquire();
        msg.payload = Payload::BarrierAbort { version: 3 };
        msg.attempt = 7;
        msg.locations = Some(LocationVector::new(vec![HostId::new(4); 2]));
        pool.release(msg);
        assert_eq!(pool.free.len(), 1);
        let recycled = pool.acquire();
        assert!(pool.is_empty());
        assert_eq!(recycled.payload, Payload::Probe, "acquire blanks the box");
        assert_eq!(recycled.attempt, 0);
        assert!(recycled.locations.is_none());
        let v = pool.acquire_vector();
        assert_eq!(v.len(), 2, "the parked vector's buffers come back");
    }
}
