//! The per-host bandwidth measurement cache.
//!
//! The paper's monitoring model: "(1) if node A sends node B a message of
//! size greater than S_thres both node A and node B know the bandwidth
//! between A and B (passive monitoring); (2) each node maintains a
//! bandwidth measurement cache; entries are timed out after T_thres
//! seconds". The experiments used `S_thres = 16 KB` and `T_thres = 40 s`.

use wadc_plan::ids::HostId;
use wadc_sim::time::{SimDuration, SimTime};

/// Monitoring parameters, defaulting to the paper's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Transfers at least this large produce a passive bandwidth
    /// measurement at both endpoints (paper: 16 KB).
    pub s_thres_bytes: u64,
    /// Cache entries older than this are expired (paper: 40 s, chosen as
    /// "a little less than half" the ~2-minute expected interval between
    /// significant bandwidth changes).
    pub t_thres: SimDuration,
    /// Byte budget for bandwidth values piggybacked on each message
    /// (paper: "the most recent bandwidth values (those that fit within
    /// 1KB) are piggybacked").
    pub piggyback_budget_bytes: usize,
}

impl MonitorConfig {
    /// The paper's monitoring constants.
    pub fn paper_defaults() -> Self {
        MonitorConfig {
            s_thres_bytes: 16 * 1024,
            t_thres: SimDuration::from_secs(40),
            piggyback_budget_bytes: 1024,
        }
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig::paper_defaults()
    }
}

/// One bandwidth measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Measured application-level bandwidth, bytes per second.
    pub bytes_per_sec: f64,
    /// When the measurement was taken.
    pub at: SimTime,
}

fn norm(a: HostId, b: HostId) -> (HostId, HostId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A host's cache of pairwise bandwidth measurements with `T_thres` expiry.
///
/// # Examples
///
/// ```
/// use wadc_monitor::cache::{BandwidthCache, MonitorConfig};
/// use wadc_plan::ids::HostId;
/// use wadc_sim::time::{SimDuration, SimTime};
///
/// let mut cache = BandwidthCache::new(MonitorConfig::paper_defaults());
/// let (a, b) = (HostId::new(0), HostId::new(1));
/// cache.observe(a, b, 50_000.0, SimTime::ZERO);
/// assert_eq!(cache.lookup(a, b, SimTime::from_secs(30)), Some(50_000.0));
/// // After T_thres = 40 s the entry has expired.
/// assert_eq!(cache.lookup(a, b, SimTime::from_secs(41)), None);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthCache {
    config: MonitorConfig,
    /// Hosts covered by the matrix: pairs with both ids `< n` have a slot.
    n: usize,
    /// Row-major `n × n` slots; the pair `(lo, hi)` (normalised `lo < hi`)
    /// lives at `lo * n + hi`, the lower triangle and diagonal stay
    /// `None`. A dense matrix instead of a hash map because `observe` and
    /// `measurement` sit on the engine's hottest path (every piggyback
    /// entry of every message) — host counts are small, so the whole
    /// matrix is a few cache lines and every access is one index.
    slots: Vec<Option<Measurement>>,
    /// Occupied slot count.
    len: usize,
}

impl BandwidthCache {
    /// Creates an empty cache.
    pub fn new(config: MonitorConfig) -> Self {
        BandwidthCache {
            config,
            n: 0,
            slots: Vec::new(),
            len: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Empties the cache and installs a (possibly different) monitoring
    /// configuration, keeping the matrix's capacity so run arenas can
    /// recycle caches without reallocating. Observationally identical to
    /// `BandwidthCache::new(config)`.
    pub fn reset(&mut self, config: MonitorConfig) {
        self.config = config;
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
    }

    /// Grows the matrix to cover host index `hi` (rare: at most a handful
    /// of times over a cache's life, then never again on the hot path).
    fn ensure(&mut self, hi: usize) {
        if hi < self.n {
            return;
        }
        let n = hi + 1;
        let mut slots = vec![None; n * n];
        for lo in 0..self.n {
            for h in (lo + 1)..self.n {
                slots[lo * n + h] = self.slots[lo * self.n + h];
            }
        }
        self.slots = slots;
        self.n = n;
    }

    /// The slot index of the normalised pair, or `None` if the matrix
    /// does not cover it (equivalently: the pair was never observed).
    fn slot(&self, a: HostId, b: HostId) -> Option<usize> {
        let (lo, hi) = norm(a, b);
        (hi.index() < self.n).then(|| lo.index() * self.n + hi.index())
    }

    /// Records a measurement for the pair `(a, b)`. Older measurements for
    /// the pair are replaced only by newer ones, so absorbing stale
    /// piggybacked values never regresses the cache.
    pub fn observe(&mut self, a: HostId, b: HostId, bytes_per_sec: f64, at: SimTime) {
        debug_assert_ne!(a, b, "no self-measurements");
        let (lo, hi) = norm(a, b);
        self.ensure(hi.index());
        let slot = &mut self.slots[lo.index() * self.n + hi.index()];
        match slot {
            Some(m) if at < m.at => {}
            Some(m) => *m = Measurement { bytes_per_sec, at },
            None => {
                *slot = Some(Measurement { bytes_per_sec, at });
                self.len += 1;
            }
        }
    }

    /// Records a passive measurement from a completed transfer of
    /// `bytes` over `elapsed`, but only when the transfer meets `S_thres`.
    /// Returns `true` if a measurement was recorded.
    pub fn observe_transfer(
        &mut self,
        a: HostId,
        b: HostId,
        bytes: u64,
        elapsed: SimDuration,
        completed_at: SimTime,
    ) -> bool {
        if bytes < self.config.s_thres_bytes || elapsed.is_zero() {
            return false;
        }
        self.observe(a, b, bytes as f64 / elapsed.as_secs_f64(), completed_at);
        true
    }

    /// The cached bandwidth for a pair, or `None` if absent or older than
    /// `T_thres` relative to `now`.
    pub fn lookup(&self, a: HostId, b: HostId, now: SimTime) -> Option<f64> {
        self.lookup_within(a, b, now, SimDuration::ZERO)
    }

    /// [`BandwidthCache::lookup`] with an extra staleness allowance: the
    /// entry survives until `T_thres + grace` past its measurement time.
    ///
    /// Under fault injection probes are black-holed and measurements stop
    /// arriving; rather than wedging the planner with an empty view, the
    /// engine widens the window and plans on stale-but-plausible values
    /// (graceful degradation). A `grace` of zero is exactly `lookup`.
    pub fn lookup_within(
        &self,
        a: HostId,
        b: HostId,
        now: SimTime,
        grace: SimDuration,
    ) -> Option<f64> {
        let m = self.slots[self.slot(a, b)?].as_ref()?;
        (now.saturating_since(m.at) <= self.config.t_thres + grace).then_some(m.bytes_per_sec)
    }

    /// The raw measurement for a pair regardless of expiry.
    pub fn measurement(&self, a: HostId, b: HostId) -> Option<Measurement> {
        self.slots[self.slot(a, b)?]
    }

    /// Unexpired measurements at `now` in pair order (`(lo, hi)`
    /// ascending), without allocating. Callers that need the newest-first
    /// order must sort; `(at, pair)` keys are unique, so any comparison
    /// sort yields one sequence.
    pub fn iter_fresh(
        &self,
        now: SimTime,
    ) -> impl Iterator<Item = ((HostId, HostId), Measurement)> + '_ {
        let n = self.n;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.map(|m| ((HostId::new(i / n), HostId::new(i % n)), m)))
            .filter(move |(_, m)| now.saturating_since(m.at) <= self.config.t_thres)
    }

    /// Number of entries, including expired ones.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn observe_and_lookup_symmetric() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(3), h(1), 9_000.0, SimTime::from_secs(5));
        assert_eq!(c.lookup(h(1), h(3), SimTime::from_secs(6)), Some(9_000.0));
        assert_eq!(c.lookup(h(3), h(1), SimTime::from_secs(6)), Some(9_000.0));
    }

    #[test]
    fn expiry_at_t_thres() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 1.0, SimTime::from_secs(100));
        assert!(c.lookup(h(0), h(1), SimTime::from_secs(140)).is_some());
        assert!(c.lookup(h(0), h(1), SimTime::from_secs(141)).is_none());
    }

    #[test]
    fn stale_observation_does_not_regress() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 100.0, SimTime::from_secs(50));
        c.observe(h(0), h(1), 999.0, SimTime::from_secs(10)); // stale
        assert_eq!(c.lookup(h(0), h(1), SimTime::from_secs(55)), Some(100.0));
    }

    #[test]
    fn observe_transfer_respects_s_thres() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        assert!(!c.observe_transfer(
            h(0),
            h(1),
            1024,
            SimDuration::from_secs(1),
            SimTime::from_secs(1)
        ));
        assert!(c.observe_transfer(
            h(0),
            h(1),
            32 * 1024,
            SimDuration::from_secs(2),
            SimTime::from_secs(3)
        ));
        assert_eq!(
            c.lookup(h(0), h(1), SimTime::from_secs(3)),
            Some(16.0 * 1024.0)
        );
    }

    #[test]
    fn grace_window_extends_expiry() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 5.0, SimTime::from_secs(100));
        let late = SimTime::from_secs(160); // 60 s old, past T_thres = 40 s
        assert_eq!(c.lookup(h(0), h(1), late), None);
        assert_eq!(
            c.lookup_within(h(0), h(1), late, SimDuration::from_secs(40)),
            Some(5.0)
        );
        assert_eq!(
            c.lookup_within(h(0), h(1), late, SimDuration::from_secs(10)),
            None
        );
        // Zero grace is exactly `lookup`.
        let t = SimTime::from_secs(140);
        assert_eq!(
            c.lookup_within(h(0), h(1), t, SimDuration::ZERO),
            c.lookup(h(0), h(1), t)
        );
    }
}
