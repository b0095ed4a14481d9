//! The link table: a bandwidth trace per host pair.
//!
//! Every [`Topology`](crate::graph::Topology) owns one: the per-pair
//! nominal (path-bottleneck) traces that probes, planners and uncontended
//! transfers see. The paper built each of its 300 network configurations
//! "by different assignments of the Internet bandwidth traces to the
//! links in a complete graph of nine nodes". [`LinkTable::random_from_pool`]
//! reproduces that construction: every link of the complete graph
//! receives a trace drawn uniformly at random from the study's trace
//! pool.

use std::sync::Arc;

use wadc_plan::bandwidth::BandwidthView;
use wadc_plan::ids::{pair_count, pair_index, pairs, HostId};
use wadc_sim::rng::Rng64;
use wadc_sim::time::SimTime;
use wadc_trace::model::BandwidthTrace;

/// Per-pair bandwidth traces over a complete graph of hosts.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use wadc_topo::link::LinkTable;
/// use wadc_plan::ids::HostId;
/// use wadc_sim::time::SimTime;
/// use wadc_trace::model::BandwidthTrace;
///
/// let mut links = LinkTable::new(3);
/// links.set(HostId::new(0), HostId::new(1), Arc::new(BandwidthTrace::constant(1000.0)));
/// assert_eq!(
///     links.bandwidth_at(HostId::new(1), HostId::new(0), SimTime::ZERO),
///     Some(1000.0)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct LinkTable {
    n: usize,
    /// One trace per host pair, at [`pair_index`].
    traces: Vec<Option<Arc<BandwidthTrace>>>,
}

impl LinkTable {
    /// Creates a table over `n` hosts with no traces assigned.
    pub fn new(n: usize) -> Self {
        LinkTable {
            n,
            traces: vec![None; pair_count(n)],
        }
    }

    /// The paper's configuration generator: assigns every link of the
    /// complete graph on `n` hosts a trace drawn uniformly (with
    /// replacement) from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn random_from_pool(n: usize, pool: &[Arc<BandwidthTrace>], seed: u64) -> Self {
        assert!(!pool.is_empty(), "trace pool must be non-empty");
        let mut rng = Rng64::seed_from_u64(seed);
        let mut table = LinkTable::new(n);
        for (a, b) in pairs(n) {
            table.set(a, b, pool[rng.range_usize(pool.len())].clone());
        }
        table
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.n
    }

    /// Assigns a trace to the (symmetric) link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either host is out of range or `a == b`.
    pub fn set(&mut self, a: HostId, b: HostId, trace: Arc<BandwidthTrace>) {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "host out of range"
        );
        let i = pair_index(a, b).expect("no self-links");
        self.traces[i] = Some(trace);
    }

    /// The trace for a link, or `None` if unassigned.
    pub fn trace(&self, a: HostId, b: HostId) -> Option<&Arc<BandwidthTrace>> {
        self.traces.get(pair_index(a, b)?)?.as_ref()
    }

    /// True bandwidth of a link at time `t`.
    pub fn bandwidth_at(&self, a: HostId, b: HostId, t: SimTime) -> Option<f64> {
        self.trace(a, b).map(|tr| tr.bandwidth_at(t))
    }

    /// Returns `true` if every link of the complete graph has a trace.
    pub fn is_complete(&self) -> bool {
        self.traces.iter().all(Option::is_some)
    }

    /// An oracle [`BandwidthView`] of the true link bandwidths at time
    /// `at` — what a perfect on-demand monitoring probe would report.
    pub fn oracle_at(&self, at: SimTime) -> OracleView<'_> {
        OracleView { links: self, at }
    }

    /// A copy of the table with every trace's bandwidth multiplied by
    /// `factor` — the metamorphic scaling transform used by the
    /// verification suite (scaling all links by `k` must scale
    /// network-bound completion times by about `1/k`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(&self, factor: f64) -> LinkTable {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        LinkTable {
            n: self.n,
            traces: self
                .traces
                .iter()
                .map(|tr| tr.as_ref().map(|tr| Arc::new(tr.scaled(factor))))
                .collect(),
        }
    }

    /// A copy of the table with the hosts relabeled by `perm` (host `i`
    /// becomes host `perm[i]`): the relabeled world is isomorphic to the
    /// original, which the verification suite exploits as a metamorphic
    /// relation.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..host_count()`.
    pub fn relabeled(&self, perm: &[usize]) -> LinkTable {
        assert_eq!(perm.len(), self.n, "permutation must cover every host");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!(p < self.n && !seen[p], "not a permutation of 0..n");
            seen[p] = true;
        }
        let mut out = LinkTable::new(self.n);
        for (a, b) in pairs(self.n) {
            if let Some(tr) = self.trace(a, b) {
                out.set(
                    HostId::new(perm[a.index()]),
                    HostId::new(perm[b.index()]),
                    tr.clone(),
                );
            }
        }
        out
    }
}

/// Point-in-time oracle view over a [`LinkTable`].
#[derive(Debug, Clone, Copy)]
pub struct OracleView<'a> {
    links: &'a LinkTable,
    at: SimTime,
}

impl BandwidthView for OracleView<'_> {
    fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
        self.links.bandwidth_at(a, b, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn set_is_symmetric() {
        let mut t = LinkTable::new(4);
        t.set(h(0), h(3), Arc::new(BandwidthTrace::constant(5.0)));
        assert!(t.trace(h(3), h(0)).is_some());
        assert_eq!(t.bandwidth_at(h(0), h(3), SimTime::ZERO), Some(5.0));
    }

    #[test]
    fn self_and_out_of_range_links_absent() {
        let t = LinkTable::new(2);
        assert!(t.trace(h(0), h(0)).is_none());
        assert!(t.trace(h(0), h(9)).is_none());
    }

    #[test]
    fn random_from_pool_is_complete_and_deterministic() {
        let pool: Vec<Arc<BandwidthTrace>> = (1..=5)
            .map(|i| Arc::new(BandwidthTrace::constant(i as f64 * 100.0)))
            .collect();
        let a = LinkTable::random_from_pool(9, &pool, 77);
        let b = LinkTable::random_from_pool(9, &pool, 77);
        assert!(a.is_complete());
        for (x, y) in pairs(9) {
            assert_eq!(
                a.bandwidth_at(x, y, SimTime::ZERO),
                b.bandwidth_at(x, y, SimTime::ZERO)
            );
        }
    }

    #[test]
    fn different_seeds_give_different_assignments() {
        let pool: Vec<Arc<BandwidthTrace>> = (1..=50)
            .map(|i| Arc::new(BandwidthTrace::constant(i as f64)))
            .collect();
        let a = LinkTable::random_from_pool(9, &pool, 1);
        let b = LinkTable::random_from_pool(9, &pool, 2);
        let differs = pairs(9).any(|(x, y)| {
            a.bandwidth_at(x, y, SimTime::ZERO) != b.bandwidth_at(x, y, SimTime::ZERO)
        });
        assert!(differs);
    }

    #[test]
    fn incomplete_table_reports_incomplete() {
        let mut t = LinkTable::new(3);
        t.set(h(0), h(1), Arc::new(BandwidthTrace::constant(1.0)));
        assert!(!t.is_complete());
    }

    #[test]
    fn scaled_multiplies_every_link() {
        let pool: Vec<Arc<BandwidthTrace>> = (1..=3)
            .map(|i| Arc::new(BandwidthTrace::constant(i as f64 * 10.0)))
            .collect();
        let t = LinkTable::random_from_pool(4, &pool, 5);
        let s = t.scaled(3.0);
        for (a, b) in pairs(4) {
            let base = t.bandwidth_at(a, b, SimTime::ZERO).unwrap();
            let scaled = s.bandwidth_at(a, b, SimTime::ZERO).unwrap();
            assert!((scaled - 3.0 * base).abs() < 1e-9);
        }
    }

    #[test]
    fn relabeled_moves_traces_with_hosts() {
        let mut t = LinkTable::new(3);
        t.set(h(0), h(1), Arc::new(BandwidthTrace::constant(10.0)));
        t.set(h(0), h(2), Arc::new(BandwidthTrace::constant(20.0)));
        t.set(h(1), h(2), Arc::new(BandwidthTrace::constant(30.0)));
        // 0 -> 2, 1 -> 0, 2 -> 1.
        let r = t.relabeled(&[2, 0, 1]);
        assert_eq!(r.bandwidth_at(h(2), h(0), SimTime::ZERO), Some(10.0));
        assert_eq!(r.bandwidth_at(h(2), h(1), SimTime::ZERO), Some(20.0));
        assert_eq!(r.bandwidth_at(h(0), h(1), SimTime::ZERO), Some(30.0));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabeled_rejects_non_permutation() {
        LinkTable::new(3).relabeled(&[0, 0, 1]);
    }

    #[test]
    fn oracle_view_tracks_time() {
        let mut t = LinkTable::new(2);
        t.set(
            h(0),
            h(1),
            Arc::new(BandwidthTrace::from_steps(&[(0.0, 10.0), (5.0, 99.0)]).unwrap()),
        );
        assert_eq!(t.oracle_at(SimTime::ZERO).bandwidth(h(0), h(1)), Some(10.0));
        assert_eq!(
            t.oracle_at(SimTime::from_secs(6)).bandwidth(h(0), h(1)),
            Some(99.0)
        );
    }
}
