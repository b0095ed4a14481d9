//! The per-host bandwidth measurement cache.
//!
//! The paper's monitoring model: "(1) if node A sends node B a message of
//! size greater than S_thres both node A and node B know the bandwidth
//! between A and B (passive monitoring); (2) each node maintains a
//! bandwidth measurement cache; entries are timed out after T_thres
//! seconds". The experiments used `S_thres = 16 KB` and `T_thres = 40 s`.

use wadc_plan::ids::{pair_count, pair_index, HostId};
use wadc_sim::time::{SimDuration, SimTime};

/// Transfers at least this large produce a passive bandwidth measurement
/// at both endpoints (paper: `S_thres` = 16 KB).
pub const S_THRES_BYTES: u64 = 16 * 1024;

/// Monitoring parameters, defaulting to the paper's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Cache entries older than this are expired (paper: 40 s, chosen as
    /// "a little less than half" the ~2-minute expected interval between
    /// significant bandwidth changes).
    pub t_thres: SimDuration,
}

impl MonitorConfig {
    /// The paper's monitoring constants.
    pub fn paper_defaults() -> Self {
        MonitorConfig {
            t_thres: SimDuration::from_secs(40),
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

/// Whether a measurement taken `at` is at most `window` old at `now`.
fn within(at: SimTime, now: SimTime, window: SimDuration) -> bool {
    now.saturating_since(at) <= window
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
    /// One row per host pair, at [`pair_index`]. Indexed rather than
    /// hashed because `observe` and `lookup` sit on the engine's hottest
    /// path (every piggyback entry of every message), and the few hosts of
    /// a world make the whole table a few cache lines.
    rows: Vec<Row>,
    /// Length of the live list, which is the `live` column of rows
    /// `0..live_len`: exactly the pairs whose measurement was fresh at
    /// `collected_at`, each once. A write lists its pair when the new
    /// measurement is fresh there and the old one was not, and
    /// [`Self::for_each_fresh`] drops the pairs it finds expired, so
    /// piggyback collection walks only these pairs. Every listed pair
    /// holds a row, so the list always fits the table and shares its one
    /// allocation.
    live_len: usize,
    /// The time of the latest [`Self::for_each_fresh`]; collections may
    /// not go back in time, which keeps a dropped pair expired for good.
    collected_at: SimTime,
    /// Occupied row count.
    len: usize,
}

/// One row of a [`BandwidthCache`]'s table. Its two columns are indexed
/// differently: `measurement` by [`pair_index`], `live` by position in
/// the live list.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The measurement of the pair at this row's [`pair_index`], `None`
    /// until the pair is observed.
    measurement: Option<Measurement>,
    /// The live list's entry at this row's position, if below `live_len`.
    live: (HostId, HostId),
}

impl Row {
    const EMPTY: Row = Row {
        measurement: None,
        live: (HostId::new(0), HostId::new(0)),
    };
}

impl BandwidthCache {
    /// Creates an empty cache.
    pub fn new(config: MonitorConfig) -> Self {
        BandwidthCache {
            config,
            rows: Vec::new(),
            live_len: 0,
            collected_at: SimTime::ZERO,
            len: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Empties the cache, installs a (possibly different) monitoring
    /// configuration and sizes the table for every pair of hosts
    /// `0..hosts`, keeping its capacity so run arenas can recycle caches
    /// without reallocating and no observation in a world of `hosts`
    /// hosts grows it. Observationally identical to
    /// `BandwidthCache::new(config)`.
    pub fn reset(&mut self, config: MonitorConfig, hosts: usize) {
        self.config = config;
        self.rows.iter_mut().for_each(|r| *r = Row::EMPTY);
        self.live_len = 0;
        self.collected_at = SimTime::ZERO;
        self.len = 0;
        self.cover(hosts);
    }

    /// Grows the table to hold every pair of hosts `0..hosts`.
    fn cover(&mut self, hosts: usize) {
        let rows = pair_count(hosts);
        if rows > self.rows.len() {
            self.rows.resize(rows, Row::EMPTY);
        }
    }

    /// Records a measurement for the pair `(a, b)`. Older measurements for
    /// the pair are replaced only by newer ones, so absorbing stale
    /// piggybacked values never regresses the cache. Returns `true` if the
    /// pair's measurement changed.
    ///
    /// # Panics
    ///
    /// If `a == b`.
    pub fn observe(&mut self, a: HostId, b: HostId, bytes_per_sec: f64, at: SimTime) -> bool {
        let i = pair_index(a, b).expect("no self-measurements");
        if i >= self.rows.len() {
            self.cover(a.max(b).index() + 1);
        }
        let old = self.rows[i].measurement;
        let listed = match old {
            Some(m) if at < m.at => return false,
            Some(m) => within(m.at, self.collected_at, self.config.t_thres),
            None => {
                self.len += 1;
                false
            }
        };
        // Newest wins, so a listed pair's new measurement is fresh too.
        if !listed && within(at, self.collected_at, self.config.t_thres) {
            self.rows[self.live_len].live = (a.min(b), a.max(b));
            self.live_len += 1;
        }
        let new = Some(Measurement { bytes_per_sec, at });
        self.rows[i].measurement = new;
        old != new
    }

    /// Records a passive measurement from a completed transfer of
    /// `bytes` over `elapsed`, but only when the transfer meets
    /// [`S_THRES_BYTES`].
    /// Returns `true` if a measurement was recorded.
    pub fn observe_transfer(
        &mut self,
        a: HostId,
        b: HostId,
        bytes: u64,
        elapsed: SimDuration,
        completed_at: SimTime,
    ) -> bool {
        if bytes < S_THRES_BYTES || elapsed.is_zero() {
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
        let m = self.measurement(a, b)?;
        within(m.at, now, self.config.t_thres + grace).then_some(m.bytes_per_sec)
    }

    /// The raw measurement for a pair regardless of expiry.
    pub fn measurement(&self, a: HostId, b: HostId) -> Option<Measurement> {
        self.rows.get(pair_index(a, b)?)?.measurement
    }

    /// Calls `f` with every measurement still fresh at `now`, in the live
    /// list's order, and drops the pairs found expired from the list.
    ///
    /// # Panics
    ///
    /// If `now` is earlier than the previous call's `now` (since the last
    /// reset): a pair dropped as expired could otherwise be fresh again.
    pub(crate) fn for_each_fresh(
        &mut self,
        now: SimTime,
        mut f: impl FnMut((HostId, HostId), Measurement),
    ) {
        assert!(
            now >= self.collected_at,
            "cache collected at {now:?}, after a collection at {:?}",
            self.collected_at
        );
        self.collected_at = now;
        let t_thres = self.config.t_thres;
        let mut kept = 0;
        for k in 0..self.live_len {
            let (a, b) = self.rows[k].live;
            let i = pair_index(a, b).expect("listed pairs join two hosts");
            let m = self.rows[i]
                .measurement
                .expect("a listed pair holds a measurement");
            if within(m.at, now, t_thres) {
                f((a, b), m);
                self.rows[kept].live = (a, b);
                kept += 1;
            }
        }
        self.live_len = kept;
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
    fn observe_reports_a_change() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        assert!(c.observe(h(2), h(0), 5.0, SimTime::from_secs(10)));
        assert!(
            !c.observe(h(0), h(2), 5.0, SimTime::from_secs(10)),
            "same value"
        );
        assert!(!c.observe(h(0), h(2), 6.0, SimTime::from_secs(9)), "older");
        assert!(
            c.observe(h(0), h(2), 6.0, SimTime::from_secs(10)),
            "same time"
        );
        assert!(c.observe(h(0), h(2), 6.0, SimTime::from_secs(11)), "newer");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn growth_and_reset_keep_the_cache_exact() {
        let mut c = BandwidthCache::new(MonitorConfig::paper_defaults());
        c.observe(h(0), h(1), 1.0, SimTime::ZERO);
        c.observe(h(4), h(7), 2.0, SimTime::ZERO);
        assert_eq!(c.lookup(h(1), h(0), SimTime::ZERO), Some(1.0));
        assert_eq!(c.lookup(h(7), h(4), SimTime::ZERO), Some(2.0));
        let mut fresh = Vec::new();
        c.for_each_fresh(SimTime::from_secs(100), |pair, _| fresh.push(pair));
        assert!(fresh.is_empty());
        // A reset cache is a new one: empty, and collecting from zero.
        c.reset(MonitorConfig::paper_defaults(), 3);
        assert!(c.is_empty());
        assert_eq!(c.measurement(h(4), h(7)), None);
        c.observe(h(1), h(2), 3.0, SimTime::ZERO);
        c.for_each_fresh(SimTime::ZERO, |pair, _| fresh.push(pair));
        assert_eq!(fresh, [(h(1), h(2))]);
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
