//! The topology graph and its routing table.
//!
//! A [`Topology`] is a set of named links — access links private to one
//! host, backbone links shared by many routes — plus a route (an ordered
//! list of [`LinkId`]s) for every unordered host pair. Each link carries
//! a [`BandwidthTrace`]; a pair's *nominal* bandwidth (what an
//! uncontended transfer, or an on-demand probe, sees) is the pointwise
//! minimum of its path's traces, and the topology owns the per-pair
//! [`LinkTable`] of those nominal traces.
//!
//! The paper's network — one independently traced link per host pair —
//! is the topology [`Topology::per_pair`] builds: one private link per
//! pair, none shared.

use std::sync::Arc;

use wadc_plan::ids::{pair_count, pair_index, pairs, HostId};
use wadc_sim::time::SimTime;
use wadc_trace::model::{BandwidthTrace, Sample};

use crate::link::LinkTable;

/// Handle to one link of a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(usize);

impl LinkId {
    /// Wraps a raw link index. Meaningful only against the topology (or
    /// capacity slice) the index came from.
    pub const fn new(index: usize) -> Self {
        LinkId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// One physical link: a stable name and its bandwidth trace.
#[derive(Debug, Clone)]
pub struct TopoLink {
    /// Stable human-readable name ("access-3", "transatlantic", …);
    /// empty for the private links of [`Topology::per_pair`].
    pub name: String,
    /// The link's capacity over time, in bytes per second.
    pub trace: Arc<BandwidthTrace>,
    /// Number of pair routes crossing the link.
    routes: usize,
}

/// Where one pair's route lies in a topology's flat hop list.
#[derive(Debug, Clone, Copy, Default)]
struct Route {
    start: u32,
    len: u32,
    /// Whether the route crosses a link another pair's route crosses too.
    shared: bool,
}

impl Route {
    /// The `len` hops from `start` on, not yet marked shared.
    fn new(start: usize, len: usize) -> Route {
        let fit = |x: usize| u32::try_from(x).expect("hop list offsets fit in 32 bits");
        Route {
            start: fit(start),
            len: fit(len),
            shared: false,
        }
    }

    fn hops(self, hops: &[LinkId]) -> &[LinkId] {
        &hops[self.start as usize..][..self.len as usize]
    }
}

/// An explicit topology: links plus a routed path per host pair.
///
/// Built through [`TopologyBuilder`] or [`Topology::per_pair`];
/// construction verifies that every pair of the complete graph is routed,
/// then precomputes each pair's nominal (path-bottleneck) trace.
#[derive(Debug, Clone)]
pub struct Topology {
    links: Vec<TopoLink>,
    /// Route per host pair, at [`pair_index`].
    routes: Vec<Route>,
    /// Every route's links, back to back.
    hops: Vec<LinkId>,
    /// Nominal trace per pair. For single-link paths this is the link's
    /// own `Arc`, so a topology of private per-pair links carries exactly
    /// the link table it was built from.
    nominal: LinkTable,
}

/// Builder for [`Topology`]: add links, then route every host pair. It
/// holds the topology under construction; [`TopologyBuilder::build`]
/// counts the routes over each link and fills in the nominal table.
#[derive(Debug)]
pub struct TopologyBuilder(Topology);

impl TopologyBuilder {
    /// Starts a topology over `n_hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `n_hosts < 2`.
    pub fn new(n_hosts: usize) -> Self {
        assert!(n_hosts >= 2, "a topology needs at least two hosts");
        TopologyBuilder(Topology {
            links: Vec::new(),
            routes: vec![Route::default(); pair_count(n_hosts)],
            hops: Vec::new(),
            nominal: LinkTable::new(n_hosts),
        })
    }

    /// Adds a link and returns its handle.
    pub fn add_link(&mut self, name: &str, trace: Arc<BandwidthTrace>) -> LinkId {
        self.0.links.push(TopoLink {
            name: name.to_string(),
            trace,
            routes: 0,
        });
        LinkId(self.0.links.len() - 1)
    }

    /// Routes the (symmetric) pair `a`–`b` over `path`, replacing any
    /// earlier route of the pair.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, a host is out of range, the path is empty,
    /// a link id is unknown, or the path repeats a link.
    pub fn route(&mut self, a: HostId, b: HostId, path: &[LinkId]) {
        let t = &mut self.0;
        let n = t.host_count();
        assert!(a.index() < n && b.index() < n, "host out of range");
        let pair = pair_index(a, b).expect("no self-routes");
        assert!(!path.is_empty(), "a route crosses at least one link");
        for (i, l) in path.iter().enumerate() {
            assert!(l.0 < t.links.len(), "unknown link in route");
            assert!(
                !path[..i].contains(l),
                "route visits link {} twice",
                t.links[l.0].name
            );
        }
        t.routes[pair] = Route::new(t.hops.len(), path.len());
        t.hops.extend_from_slice(path);
    }

    /// Finalises the topology.
    ///
    /// # Panics
    ///
    /// Panics if any host pair was left unrouted.
    pub fn build(self) -> Topology {
        let mut t = self.0;
        for (a, b) in pairs(t.host_count()) {
            let path = t.routes[pair_index(a, b).expect("two distinct hosts")].hops(&t.hops);
            let (lo, hi) = (a.index(), b.index());
            assert!(!path.is_empty(), "pair {lo} - {hi} has no route");
            for l in path {
                t.links[l.0].routes += 1;
            }
            let trace = match path {
                // One private link: reuse its trace verbatim, so a
                // star-of-private-links topology carries exactly the
                // per-pair link table it was built from.
                [only] => t.links[only.0].trace.clone(),
                _ => Arc::new(min_trace(path.iter().map(|l| t.links[l.0].trace.as_ref()))),
            };
            t.nominal.set(a, b, trace);
        }
        for r in &mut t.routes {
            r.shared = r.hops(&t.hops).iter().any(|l| t.links[l.0].routes > 1);
        }
        t
    }
}

/// Pointwise minimum of several step functions, in one linear pass. Every
/// trace starts at time zero; one cursor per trace marks the sample in
/// effect. At each boundary the minimum over the traces (in order) is
/// folded and runs of equal value are compressed; then every trace whose
/// next sample sits at the earliest next boundary advances.
fn min_trace<'a>(traces: impl Iterator<Item = &'a BandwidthTrace>) -> BandwidthTrace {
    let mut cursors: Vec<(&[Sample], usize)> = traces.map(|t| (t.samples(), 0)).collect();
    // Traces sampled on one grid share every boundary, so the longest
    // trace is usually the merged length.
    let longest = cursors.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    let mut samples: Vec<Sample> = Vec::with_capacity(longest);
    let mut at = SimTime::ZERO;
    loop {
        let bw = cursors
            .iter()
            .map(|&(s, i)| s[i].bytes_per_sec)
            .fold(f64::INFINITY, f64::min);
        if samples.last().map(|s| s.bytes_per_sec) != Some(bw) {
            samples.push(Sample {
                at,
                bytes_per_sec: bw,
            });
        }
        let next_at = |&(s, i): &(&[Sample], usize)| s.get(i + 1).map(|n| n.at);
        let Some(next) = cursors.iter().filter_map(next_at).min() else {
            break;
        };
        for c in &mut cursors {
            if next_at(c) == Some(next) {
                c.1 += 1;
            }
        }
        at = next;
    }
    BandwidthTrace::from_samples(samples).expect("merged boundaries form a valid trace")
}

impl Topology {
    /// The paper's network: every host pair gets one private link
    /// carrying its trace from `links`, which becomes the topology's
    /// nominal table. No link is shared, so the fair-share model never
    /// touches a flow and every transfer takes its exact trace integral.
    /// Private links are unnamed.
    ///
    /// # Panics
    ///
    /// Panics if `links` covers fewer than two hosts or leaves a pair
    /// without a trace.
    pub fn per_pair(links: LinkTable) -> Topology {
        let n = links.host_count();
        assert!(n >= 2, "a topology needs at least two hosts");
        let mut t = Topology {
            links: Vec::with_capacity(pair_count(n)),
            routes: vec![Route::default(); pair_count(n)],
            hops: Vec::with_capacity(pair_count(n)),
            nominal: links,
        };
        for (a, b) in pairs(n) {
            let (lo, hi) = (a.index(), b.index());
            let trace = t
                .nominal
                .trace(a, b)
                .unwrap_or_else(|| panic!("pair {lo} - {hi} has no bandwidth trace"))
                .clone();
            t.routes[pair_index(a, b).expect("two distinct hosts")] = Route::new(t.hops.len(), 1);
            t.hops.push(LinkId(t.links.len()));
            t.links.push(TopoLink {
                name: String::new(),
                trace,
                routes: 1,
            });
        }
        t
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.nominal.host_count()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The link behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &TopoLink {
        &self.links[id.0]
    }

    /// Looks a link up by name.
    pub fn find_link(&self, name: &str) -> Option<LinkId> {
        self.links.iter().position(|l| l.name == name).map(LinkId)
    }

    /// The routed path of a pair.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or a host is out of range.
    pub fn route(&self, a: HostId, b: HostId) -> &[LinkId] {
        let n = self.host_count();
        assert!(a.index() < n && b.index() < n, "host out of range");
        self.routes[pair_index(a, b).expect("no self-routes")].hops(&self.hops)
    }

    /// `true` if the pair's route crosses a link some other pair's route
    /// crosses too. Only such flows can ever be fair-shared; any other
    /// route is the pair's own path.
    ///
    /// # Panics
    ///
    /// As for [`Topology::route`].
    pub fn route_is_shared(&self, a: HostId, b: HostId) -> bool {
        self.routes[pair_index(a, b).expect("no self-routes")].shared
    }

    /// The pair's nominal trace: the pointwise minimum bandwidth along
    /// its path — what an uncontended transfer (or an on-demand probe)
    /// experiences.
    ///
    /// # Panics
    ///
    /// As for [`Topology::route`].
    pub fn nominal_trace(&self, a: HostId, b: HostId) -> &Arc<BandwidthTrace> {
        assert_ne!(a, b, "no self-routes");
        self.nominal
            .trace(a, b)
            .expect("built topologies route every pair")
    }

    /// Every pair's nominal trace: what probes and planners read as link
    /// state.
    pub fn nominal(&self) -> &LinkTable {
        &self.nominal
    }

    /// `true` if more than one pair's route crosses the link — the
    /// links where fair sharing can actually bite.
    pub fn is_shared(&self, id: LinkId) -> bool {
        self.links[id.0].routes > 1
    }

    /// `true` if any link is shared; `false` for a per-pair topology.
    pub fn has_shared_link(&self) -> bool {
        self.links.iter().any(|l| l.routes > 1)
    }

    /// Every host pair whose route crosses `link`, in `(lo, hi)` order.
    pub fn pairs_over(&self, link: LinkId) -> Vec<(HostId, HostId)> {
        pairs(self.host_count())
            .filter(|&(a, b)| self.route(a, b).contains(&link))
            .collect()
    }

    /// The earliest bandwidth-step boundary strictly after `t` on any of
    /// `links` — the next instant a fairness recompute is due even if no
    /// flow starts or finishes.
    pub fn next_step_after(&self, links: &[LinkId], t: SimTime) -> Option<SimTime> {
        links
            .iter()
            .filter_map(|l| {
                let samples = self.links[l.0].trace.samples();
                let i = samples.partition_point(|s| s.at <= t);
                samples.get(i).map(|s| s.at)
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn two_host_shared() -> Topology {
        let mut b = TopologyBuilder::new(3);
        let a0 = b.add_link("access-0", Arc::new(BandwidthTrace::constant(1000.0)));
        let a1 = b.add_link("access-1", Arc::new(BandwidthTrace::constant(1000.0)));
        let a2 = b.add_link("access-2", Arc::new(BandwidthTrace::constant(1000.0)));
        let bb = b.add_link("backbone", Arc::new(BandwidthTrace::constant(300.0)));
        b.route(h(0), h(1), &[a0, bb, a1]);
        b.route(h(0), h(2), &[a0, bb, a2]);
        b.route(h(1), h(2), &[a1, a2]);
        b.build()
    }

    #[test]
    fn routes_are_symmetric_and_nominal_is_bottleneck() {
        let t = two_host_shared();
        assert_eq!(t.route(h(0), h(1)), t.route(h(1), h(0)));
        assert_eq!(
            t.nominal_trace(h(0), h(1)).bandwidth_at(SimTime::ZERO),
            300.0
        );
        assert_eq!(
            t.nominal_trace(h(1), h(2)).bandwidth_at(SimTime::ZERO),
            1000.0
        );
    }

    #[test]
    fn shared_link_classification_and_pairs_over() {
        let t = two_host_shared();
        let bb = t.find_link("backbone").unwrap();
        assert!(t.is_shared(bb));
        assert!(
            t.is_shared(t.find_link("access-0").unwrap()),
            "access-0 carries two routes"
        );
        assert!(
            !t.is_shared(t.find_link("access-1").unwrap())
                || t.pairs_over(t.find_link("access-1").unwrap()).len() > 1
        );
        assert_eq!(t.pairs_over(bb), vec![(h(0), h(1)), (h(0), h(2))]);
        // (0,1) and (0,2) cross the backbone; (1,2) crosses access-1,
        // which (0,1) crosses too.
        assert!(t.route_is_shared(h(1), h(0)) && t.route_is_shared(h(2), h(1)));
        assert!(t.has_shared_link());
    }

    #[test]
    fn min_trace_merges_boundaries() {
        let a = BandwidthTrace::from_steps(&[(0.0, 100.0), (10.0, 500.0)]).unwrap();
        let b = BandwidthTrace::from_steps(&[(0.0, 400.0), (5.0, 50.0)]).unwrap();
        let m = min_trace([&a, &b].into_iter());
        assert_eq!(m.bandwidth_at(SimTime::ZERO), 100.0);
        assert_eq!(m.bandwidth_at(SimTime::from_secs(5)), 50.0);
        assert_eq!(m.bandwidth_at(SimTime::from_secs(10)), 50.0);
        assert_eq!(m.len(), 2, "equal-value runs are compressed");
    }

    /// The merge as first written, kept as the oracle for [`min_trace`]:
    /// collect every boundary, sort and dedup them, and binary-search
    /// every trace at each one.
    fn min_trace_by_sort(traces: &[&BandwidthTrace]) -> BandwidthTrace {
        let mut boundaries: Vec<SimTime> = traces
            .iter()
            .flat_map(|t| t.samples().iter().map(|s| s.at))
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        let mut samples: Vec<Sample> = Vec::with_capacity(boundaries.len());
        for at in boundaries {
            let bw = traces
                .iter()
                .map(|t| t.bandwidth_at(at))
                .fold(f64::INFINITY, f64::min);
            if samples.last().map(|s| s.bytes_per_sec) != Some(bw) {
                samples.push(Sample {
                    at,
                    bytes_per_sec: bw,
                });
            }
        }
        BandwidthTrace::from_samples(samples).expect("merged boundaries form a valid trace")
    }

    /// 2–4 traces per case, 1–40 samples each at random integer-second
    /// gaps, bandwidths from a four-value set: equal-value runs, shared
    /// boundaries and one trace outlasting the others are all common.
    #[test]
    fn min_trace_matches_the_sort_based_merge() {
        use wadc_sim::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x4d_16_7e);
        for case in 0..500 {
            let traces: Vec<BandwidthTrace> = (0..rng.range_usize(3) + 2)
                .map(|_| {
                    let mut t = 0.0;
                    let steps: Vec<(f64, f64)> = (0..rng.range_usize(40) + 1)
                        .map(|k| {
                            if k > 0 {
                                t += (rng.range_usize(4) + 1) as f64;
                            }
                            (t, [10.0, 20.0, 30.0, 40.0][rng.range_usize(4)])
                        })
                        .collect();
                    BandwidthTrace::from_steps(&steps).unwrap()
                })
                .collect();
            let refs: Vec<&BandwidthTrace> = traces.iter().collect();
            assert_eq!(
                min_trace(refs.iter().copied()),
                min_trace_by_sort(&refs),
                "case {case}: {traces:?}"
            );
        }
    }

    #[test]
    fn single_link_path_reuses_the_trace_arc() {
        let tr = Arc::new(BandwidthTrace::constant(77.0));
        let mut b = TopologyBuilder::new(3);
        for (lo, hi) in [(0, 1), (0, 2), (1, 2)] {
            let link = b.add_link(&format!("private-{lo}-{hi}"), tr.clone());
            b.route(h(lo), h(hi), &[link]);
        }
        let t = b.build();
        assert!(Arc::ptr_eq(t.nominal_trace(h(0), h(2)), &tr));
        assert!(!t.has_shared_link() && !t.route_is_shared(h(2), h(0)));
    }

    #[test]
    fn per_pair_topology_gives_every_pair_a_private_link() {
        let mut links = LinkTable::new(3);
        for (lo, hi, bw) in [(0, 1, 10.0), (0, 2, 20.0), (1, 2, 30.0)] {
            links.set(h(lo), h(hi), Arc::new(BandwidthTrace::constant(bw)));
        }
        let t = Topology::per_pair(links);
        assert_eq!(t.link_count(), 3);
        assert!(!t.has_shared_link());
        for (lo, hi) in [(0, 1), (0, 2), (1, 2)] {
            let route = t.route(h(hi), h(lo));
            assert_eq!(route.len(), 1);
            assert!(!t.is_shared(route[0]) && !t.route_is_shared(h(lo), h(hi)));
            assert!(Arc::ptr_eq(
                &t.link(route[0]).trace,
                t.nominal().trace(h(lo), h(hi)).unwrap()
            ));
        }
        assert_eq!(
            t.nominal().bandwidth_at(h(2), h(1), SimTime::ZERO),
            Some(30.0)
        );
    }

    #[test]
    #[should_panic(expected = "pair 0 - 2 has no bandwidth trace")]
    fn per_pair_rejects_an_incomplete_table() {
        let mut links = LinkTable::new(3);
        links.set(h(0), h(1), Arc::new(BandwidthTrace::constant(1.0)));
        let _ = Topology::per_pair(links);
    }

    #[test]
    fn a_replaced_route_is_the_only_one_counted() {
        let mut b = TopologyBuilder::new(2);
        let x = b.add_link("x", Arc::new(BandwidthTrace::constant(1.0)));
        let y = b.add_link("y", Arc::new(BandwidthTrace::constant(2.0)));
        b.route(h(0), h(1), &[x]);
        b.route(h(1), h(0), &[y]);
        let t = b.build();
        assert_eq!(t.route(h(0), h(1)), &[y]);
        assert_eq!(t.pairs_over(x), vec![]);
        assert_eq!(t.nominal_trace(h(0), h(1)).bandwidth_at(SimTime::ZERO), 2.0);
    }

    #[test]
    fn next_step_after_finds_earliest_boundary() {
        let mut b = TopologyBuilder::new(2);
        let l0 = b.add_link(
            "a",
            Arc::new(BandwidthTrace::from_steps(&[(0.0, 1.0), (30.0, 2.0)]).unwrap()),
        );
        let l1 = b.add_link(
            "b",
            Arc::new(BandwidthTrace::from_steps(&[(0.0, 1.0), (20.0, 2.0)]).unwrap()),
        );
        b.route(h(0), h(1), &[l0, l1]);
        let t = b.build();
        assert_eq!(
            t.next_step_after(&[l0, l1], SimTime::ZERO),
            Some(SimTime::from_secs(20))
        );
        assert_eq!(
            t.next_step_after(&[l0, l1], SimTime::from_secs(20)),
            Some(SimTime::from_secs(30))
        );
        assert_eq!(t.next_step_after(&[l0, l1], SimTime::from_secs(30)), None);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn build_rejects_unrouted_pairs() {
        let mut b = TopologyBuilder::new(3);
        let l = b.add_link("x", Arc::new(BandwidthTrace::constant(1.0)));
        b.route(h(0), h(1), &[l]);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn route_rejects_repeated_links() {
        let mut b = TopologyBuilder::new(2);
        let l = b.add_link("x", Arc::new(BandwidthTrace::constant(1.0)));
        b.route(h(0), h(1), &[l, l]);
    }
}
