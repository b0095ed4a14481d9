//! Piggybacked bandwidth dissemination.
//!
//! "When a message is sent between two nodes, the most recent bandwidth
//! values (those that fit within 1KB) are piggybacked onto the message."
//! [`collect`] selects those values from the sender's cache; [`absorb`]
//! merges them into the receiver's. Absorption uses the cache's
//! newest-wins rule, so stale gossip can never overwrite fresher local
//! knowledge, and values propagate transitively across the tree.
//!
//! A payload is a set: it holds at most one entry per host pair, and
//! every consumer (absorption, the forecaster, the wire size) is
//! indifferent to entry order. Collection therefore walks only the
//! cache's list of live pairs and leaves entries in that list's order;
//! only a payload over the byte budget is ranked, newest first, by a key
//! unique per pair, so truncation keeps the same entries whatever the
//! list's order.

use wadc_plan::ids::HostId;
use wadc_sim::time::SimTime;

use crate::cache::{BandwidthCache, Measurement};

/// Wire size of one piggybacked measurement: two 4-byte host ids, an 8-byte
/// bandwidth and an 8-byte timestamp.
pub const ENTRY_WIRE_BYTES: usize = 24;

/// Byte budget for the bandwidth values piggybacked on each message
/// (paper: "the most recent bandwidth values (those that fit within 1KB)
/// are piggybacked").
pub const PIGGYBACK_BUDGET_BYTES: usize = 1024;

/// One piggybacked bandwidth value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiggybackEntry {
    /// First host of the pair (normalised: `a <= b`).
    pub a: HostId,
    /// Second host of the pair.
    pub b: HostId,
    /// The measurement.
    pub measurement: Measurement,
}

/// The bandwidth values attached to one message.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Piggyback {
    /// Entries, at most one per host pair. Order carries no meaning:
    /// absorption is per-pair newest-wins, so receivers treat the payload
    /// as a set.
    pub entries: Vec<PiggybackEntry>,
}

impl Piggyback {
    /// An empty payload.
    pub fn empty() -> Self {
        Piggyback::default()
    }

    /// Wire size of the payload in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.entries.len() * ENTRY_WIRE_BYTES
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no values are attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Selects the most recent unexpired values from `cache` (as of `now`) that
/// fit within [`PIGGYBACK_BUDGET_BYTES`].
///
/// # Panics
///
/// If `now` is earlier than the cache's previous collection.
pub fn collect(cache: &mut BandwidthCache, now: SimTime) -> Piggyback {
    let mut p = Piggyback::empty();
    collect_into(cache, now, &mut p);
    p
}

/// [`collect`] into a caller-owned payload, reusing its entry buffer.
/// The engine's message pool keeps warm `Piggyback`s, so the per-message
/// steady state performs no allocation here. The walk visits only the
/// cache's live pairs, dropping those that expired, so it costs the
/// entries it carries rather than the number of host pairs. When every
/// fresh entry fits the byte budget the entries stay in live-list order;
/// only when the payload must be truncated are they ranked newest first
/// (then by pair), a key unique per entry, so truncation keeps exactly
/// the newest values.
///
/// # Panics
///
/// If `now` is earlier than the cache's previous collection.
pub fn collect_into(cache: &mut BandwidthCache, now: SimTime, out: &mut Piggyback) {
    let max_entries = PIGGYBACK_BUDGET_BYTES / ENTRY_WIRE_BYTES;
    out.entries.clear();
    cache.for_each_fresh(now, |(a, b), measurement| {
        out.entries.push(PiggybackEntry { a, b, measurement })
    });
    if out.entries.len() > max_entries {
        out.entries.sort_unstable_by(|x, y| {
            y.measurement
                .at
                .cmp(&x.measurement.at)
                .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
        });
        out.entries.truncate(max_entries);
    }
}

/// Merges a received payload into `cache` (newest measurement per pair
/// wins). Returns the number of entries that updated the cache.
pub fn absorb(cache: &mut BandwidthCache, payload: &Piggyback) -> usize {
    let mut updated = 0;
    for e in &payload.entries {
        if cache.observe(e.a, e.b, e.measurement.bytes_per_sec, e.measurement.at) {
            updated += 1;
        }
    }
    updated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MonitorConfig;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn cache_with(n: usize) -> BandwidthCache {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        for i in 0..n {
            c.observe(h(i), h(i + 1), i as f64, SimTime::from_secs(i as u64));
        }
        c
    }

    #[test]
    fn collect_respects_budget() {
        // 100 entries observed over the last 40 s all qualify, but only
        // 1024 / 24 = 42 fit.
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        for i in 0..100 {
            c.observe(h(i), h(i + 1), 1.0, SimTime::from_secs(100));
        }
        let p = collect(&mut c, SimTime::from_secs(100));
        assert_eq!(p.len(), 42);
        assert!(p.wire_bytes() <= 1024);
    }

    #[test]
    fn truncation_keeps_newest() {
        // 60 fresh pairs at distinct times spread over 30 s; only the
        // 42 newest (t >= 118.0) survive the 1 KB budget.
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        for i in 0..60 {
            c.observe(
                h(i),
                h(i + 1),
                1.0,
                SimTime::from_secs_f64(100.0 + i as f64 * 0.5),
            );
        }
        let p = collect(&mut c, SimTime::from_secs(130));
        assert_eq!(p.len(), 42);
        let oldest_kept = p.entries.iter().map(|e| e.measurement.at).min().unwrap();
        assert_eq!(oldest_kept, SimTime::from_secs_f64(109.0));
    }

    #[test]
    fn collect_skips_expired() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 1.0, SimTime::ZERO);
        c.observe(h(1), h(2), 2.0, SimTime::from_secs(100));
        let p = collect(&mut c, SimTime::from_secs(120));
        assert_eq!(p.len(), 1);
        assert_eq!(p.entries[0].a, h(1));
    }

    #[test]
    fn absorb_merges_newest_wins() {
        let mut sender = cache_with(3);
        let mut receiver = BandwidthCache::new(MonitorConfig::paper_defaults());
        // Receiver already knows a *newer* value for pair (0,1).
        receiver.observe(h(0), h(1), 777.0, SimTime::from_secs(50));
        let p = collect(&mut sender, SimTime::from_secs(2));
        let updated = absorb(&mut receiver, &p);
        assert_eq!(updated, 2, "pairs (1,2) and (2,3) are new");
        assert_eq!(
            receiver.lookup(h(0), h(1), SimTime::from_secs(51)),
            Some(777.0),
            "newer local value survives stale gossip"
        );
        assert_eq!(receiver.len(), 3);
    }

    #[test]
    fn absorb_is_idempotent() {
        let mut sender = cache_with(4);
        let mut receiver = BandwidthCache::new(MonitorConfig::paper_defaults());
        let p = collect(&mut sender, SimTime::from_secs(3));
        let first = absorb(&mut receiver, &p);
        let second = absorb(&mut receiver, &p);
        assert!(first > 0);
        assert_eq!(second, 0);
    }

    #[test]
    fn empty_payload() {
        let p = Piggyback::empty();
        assert!(p.is_empty());
        assert_eq!(p.wire_bytes(), 0);
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        assert_eq!(absorb(&mut c, &p), 0);
    }

    #[test]
    fn transitive_propagation() {
        // A knows (0,1); gossips to B; B gossips to C; C learns (0,1).
        let mut a = cache_with(1);
        let mut b = BandwidthCache::new(MonitorConfig::paper_defaults());
        absorb(&mut b, &collect(&mut a, SimTime::from_secs(1)));
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        absorb(&mut c, &collect(&mut b, SimTime::from_secs(2)));
        assert!(c.lookup(h(0), h(1), SimTime::from_secs(2)).is_some());
    }
}
