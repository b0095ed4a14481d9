//! Bandwidth knowledge for planning.
//!
//! The placement algorithms consume "information about network bandwidth
//! (represented as a sparse matrix)". [`BandwidthView`] is that interface;
//! [`BwMatrix`] is the concrete sparse symmetric matrix. Entries may be
//! missing — the monitoring system only knows pairs it has observed — and
//! the cost model decides what to assume for unknown links.

use crate::ids::{pair_count, pair_index, pairs, HostId};

/// Read access to (estimated) pairwise bandwidth, bytes per second.
///
/// Implementations may be an oracle over the true simulated network, a
/// monitoring cache, or a static matrix. Bandwidth is treated as symmetric,
/// matching the paper's round-trip-probe methodology.
pub trait BandwidthView {
    /// Estimated bandwidth between two hosts, or `None` if unknown.
    /// `bandwidth(a, a)` is local and should be `None` (callers treat
    /// same-host edges as free).
    fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64>;
}

impl<T: BandwidthView + ?Sized> BandwidthView for &T {
    fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
        (**self).bandwidth(a, b)
    }
}

/// A sparse symmetric bandwidth matrix.
///
/// # Examples
///
/// ```
/// use wadc_plan::bandwidth::{BandwidthView, BwMatrix};
/// use wadc_plan::ids::HostId;
///
/// let mut m = BwMatrix::new(3);
/// m.set(HostId::new(0), HostId::new(2), 50_000.0);
/// assert_eq!(m.bandwidth(HostId::new(2), HostId::new(0)), Some(50_000.0));
/// assert_eq!(m.bandwidth(HostId::new(0), HostId::new(1)), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BwMatrix {
    n: usize,
    /// One entry per host pair, at [`pair_index`].
    vals: Vec<Option<f64>>,
}

impl BwMatrix {
    /// Creates an empty matrix over `n` hosts.
    pub fn new(n: usize) -> Self {
        BwMatrix {
            n,
            vals: vec![None; pair_count(n)],
        }
    }

    /// Builds a fully populated matrix from a function of host pairs.
    pub fn from_fn(n: usize, mut f: impl FnMut(HostId, HostId) -> f64) -> Self {
        let mut m = BwMatrix::new(n);
        for (a, b) in pairs(n) {
            m.set(a, b, f(a, b));
        }
        m
    }

    /// Number of hosts the matrix covers.
    pub fn host_count(&self) -> usize {
        self.n
    }

    /// Sets the (symmetric) bandwidth between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either host is out of range or `a == b`.
    pub fn set(&mut self, a: HostId, b: HostId, bytes_per_sec: f64) {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "host out of range"
        );
        let i = pair_index(a, b).expect("no self-links");
        self.vals[i] = Some(bytes_per_sec);
    }

    /// Clears the entry for a pair.
    ///
    /// # Panics
    ///
    /// Panics if either host is out of range.
    pub fn clear(&mut self, a: HostId, b: HostId) {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "host out of range"
        );
        if let Some(i) = pair_index(a, b) {
            self.vals[i] = None;
        }
    }

    /// Number of known (unordered) pairs.
    pub fn known_pairs(&self) -> usize {
        self.vals.iter().filter(|v| v.is_some()).count()
    }
}

impl BandwidthView for BwMatrix {
    fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
        *self.vals.get(pair_index(a, b)?)?
    }
}

/// A dense one-shot snapshot of another [`BandwidthView`].
///
/// Search loops query the same small host set thousands of times per
/// planner run; layered views (forecaster over cache over oracle probe)
/// pay a hash lookup or worse per query. A `DenseView` materialises every
/// ordered pair once up front, so each subsequent query is a single array
/// read. It stores both directions independently and therefore returns
/// exactly what the snapshotted view returned, asymmetries included.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseView {
    n: usize,
    vals: Vec<Option<f64>>,
}

impl Default for DenseView {
    /// An empty snapshot covering zero hosts; fill it with
    /// [`DenseView::snapshot_into`].
    fn default() -> Self {
        DenseView {
            n: 0,
            vals: Vec::new(),
        }
    }
}

impl DenseView {
    /// Captures `view` over hosts `0..n`.
    pub fn snapshot(n: usize, view: impl BandwidthView) -> Self {
        let mut dense = DenseView::default();
        dense.snapshot_into(n, view);
        dense
    }

    /// [`DenseView::snapshot`] in place, reusing the matrix's capacity.
    /// The refilled view is identical to a fresh snapshot.
    pub fn snapshot_into(&mut self, n: usize, view: impl BandwidthView) {
        self.n = n;
        self.vals.clear();
        self.vals.resize(n * n, None);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    self.vals[a * n + b] = view.bandwidth(HostId::new(a), HostId::new(b));
                }
            }
        }
    }

    /// Number of hosts the snapshot covers.
    pub fn host_count(&self) -> usize {
        self.n
    }
}

impl BandwidthView for DenseView {
    fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
        if a == b || a.index() >= self.n || b.index() >= self.n {
            return None;
        }
        self.vals[a.index() * self.n + b.index()]
    }
}

/// A [`BandwidthView`] with a set of hosts masked out: every edge
/// touching a masked host reads as unknown.
///
/// This is the planner's surviving-host subgraph after a crash: stale
/// measurements *through* a dead host must not inform placement, even
/// if the monitoring cache still remembers them. Masking alone does not
/// exclude a dead host from the placement search — the cost model
/// treats unknown bandwidth as "pessimistic but usable" — so the search
/// additionally skips masked hosts at candidate-enumeration time; the
/// view keeps the cost estimates honest for the hosts that remain.
#[derive(Debug, Clone)]
pub struct MaskedView<V> {
    inner: V,
    masked: Vec<bool>,
}

impl<V: BandwidthView> MaskedView<V> {
    /// Wraps `inner`, masking every host whose index is in `masked`
    /// (indices beyond `n_hosts` are ignored).
    pub fn new(inner: V, n_hosts: usize, masked: impl IntoIterator<Item = HostId>) -> Self {
        let mut mask = vec![false; n_hosts];
        for h in masked {
            if h.index() < n_hosts {
                mask[h.index()] = true;
            }
        }
        MaskedView {
            inner,
            masked: mask,
        }
    }

    /// Whether `host` is masked out.
    pub fn is_masked(&self, host: HostId) -> bool {
        self.masked.get(host.index()).copied().unwrap_or(false)
    }
}

impl<V: BandwidthView> BandwidthView for MaskedView<V> {
    fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
        if self.is_masked(a) || self.is_masked(b) {
            return None;
        }
        self.inner.bandwidth(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_set_get() {
        let mut m = BwMatrix::new(4);
        m.set(HostId::new(1), HostId::new(3), 100.0);
        assert_eq!(m.bandwidth(HostId::new(1), HostId::new(3)), Some(100.0));
        assert_eq!(m.bandwidth(HostId::new(3), HostId::new(1)), Some(100.0));
        assert_eq!(m.known_pairs(), 1);
    }

    #[test]
    fn self_link_is_none() {
        let m = BwMatrix::from_fn(3, |_, _| 1.0);
        assert_eq!(m.bandwidth(HostId::new(1), HostId::new(1)), None);
    }

    #[test]
    fn out_of_range_is_none() {
        let m = BwMatrix::new(2);
        assert_eq!(m.bandwidth(HostId::new(0), HostId::new(9)), None);
    }

    #[test]
    fn from_fn_fills_all_pairs() {
        let m = BwMatrix::from_fn(5, |a, b| (a.index() + b.index()) as f64);
        assert_eq!(m.known_pairs(), 10);
        assert_eq!(m.bandwidth(HostId::new(2), HostId::new(4)), Some(6.0));
    }

    #[test]
    fn clear_removes_both_directions() {
        let mut m = BwMatrix::from_fn(3, |_, _| 5.0);
        m.clear(HostId::new(0), HostId::new(1));
        assert_eq!(m.bandwidth(HostId::new(0), HostId::new(1)), None);
        assert_eq!(m.bandwidth(HostId::new(1), HostId::new(0)), None);
        assert_eq!(m.known_pairs(), 2);
    }

    #[test]
    #[should_panic(expected = "no self-links")]
    fn set_self_link_panics() {
        BwMatrix::new(2).set(HostId::new(0), HostId::new(0), 1.0);
    }

    #[test]
    fn dense_snapshot_matches_source_exactly() {
        let m = BwMatrix::from_fn(4, |a, b| (3 + a.index() * 5 + b.index()) as f64);
        let d = DenseView::snapshot(4, &m);
        assert_eq!(d.host_count(), 4);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    d.bandwidth(HostId::new(a), HostId::new(b)),
                    m.bandwidth(HostId::new(a), HostId::new(b))
                );
            }
        }
        // Out of range behaves like any view.
        assert_eq!(d.bandwidth(HostId::new(0), HostId::new(9)), None);
    }

    #[test]
    fn dense_snapshot_preserves_asymmetry() {
        // A view that is (artificially) asymmetric must snapshot per
        // direction — the search only ever queries child→parent pairs.
        struct Asym;
        impl BandwidthView for Asym {
            fn bandwidth(&self, a: HostId, b: HostId) -> Option<f64> {
                (a != b).then(|| (a.index() * 10 + b.index()) as f64)
            }
        }
        let d = DenseView::snapshot(3, Asym);
        assert_eq!(d.bandwidth(HostId::new(1), HostId::new(2)), Some(12.0));
        assert_eq!(d.bandwidth(HostId::new(2), HostId::new(1)), Some(21.0));
    }

    #[test]
    fn masked_view_hides_every_edge_of_a_dead_host() {
        let m = BwMatrix::from_fn(4, |_, _| 100.0);
        let masked = MaskedView::new(&m, 4, [HostId::new(2)]);
        assert!(masked.is_masked(HostId::new(2)));
        assert!(!masked.is_masked(HostId::new(1)));
        assert_eq!(masked.bandwidth(HostId::new(0), HostId::new(2)), None);
        assert_eq!(masked.bandwidth(HostId::new(2), HostId::new(3)), None);
        assert_eq!(
            masked.bandwidth(HostId::new(0), HostId::new(1)),
            Some(100.0),
            "surviving edges pass through untouched"
        );
        // An empty mask is transparent.
        let clear = MaskedView::new(&m, 4, []);
        assert_eq!(clear.bandwidth(HostId::new(0), HostId::new(2)), Some(100.0));
        // Out-of-range mask entries are ignored, not a panic.
        let oob = MaskedView::new(&m, 4, [HostId::new(99)]);
        assert_eq!(oob.bandwidth(HostId::new(0), HostId::new(2)), Some(100.0));
    }

    #[test]
    fn view_through_reference() {
        fn takes_view(v: impl BandwidthView) -> Option<f64> {
            v.bandwidth(HostId::new(0), HostId::new(1))
        }
        let mut m = BwMatrix::new(2);
        m.set(HostId::new(0), HostId::new(1), 7.0);
        assert_eq!(takes_view(&m), Some(7.0));
    }
}
