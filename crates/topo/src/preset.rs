//! Paper-shaped topology presets.
//!
//! The source paper's experiments span US, European and Brazilian sites;
//! inter-region traffic funnels through two oceanic links. The
//! [`TopoPreset::PaperWan`] preset reproduces that shape: hosts are split
//! into three contiguous regions, each host sits behind a private access
//! link, and cross-region routes traverse one or two shared backbones
//! ("transatlantic" between US and EU, "transamerican" between US and
//! Brazil; EU–Brazil routes cross both).

use std::sync::Arc;

use wadc_plan::ids::pairs;
use wadc_sim::rng::{derive_seed2, Rng64};
use wadc_trace::model::BandwidthTrace;

use crate::graph::{Topology, TopologyBuilder};

/// Seed stream for preset trace assignment (distinct from the engine's
/// streams 1–4 and the experiment streams 10/11).
const STREAM_TOPO: u64 = 12;

/// A named topology shape selectable from the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoPreset {
    /// US / EU / Brazil regions behind two shared oceanic backbones.
    PaperWan,
}

impl TopoPreset {
    /// All presets, for help text and sweeps.
    pub const ALL: &'static [TopoPreset] = &[TopoPreset::PaperWan];

    /// The CLI name of the preset.
    pub fn name(self) -> &'static str {
        match self {
            TopoPreset::PaperWan => "paper-wan",
        }
    }

    /// Parses a CLI name (the inverse of [`TopoPreset::name`]).
    pub fn parse(s: &str) -> Option<TopoPreset> {
        TopoPreset::ALL.iter().copied().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for TopoPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The region of a host under [`TopoPreset::PaperWan`]: hosts are split
/// into three contiguous thirds — US first (taking the remainder), then
/// EU, then Brazil.
fn region_of(host: usize, n_hosts: usize) -> usize {
    let third = n_hosts / 3;
    let eu_start = n_hosts - 2 * third;
    let br_start = n_hosts - third;
    if host >= br_start {
        2
    } else if host >= eu_start {
        1
    } else {
        0
    }
}

/// Builds a preset topology over `n_hosts` hosts.
///
/// Link traces are drawn deterministically from `pool` (the same kind of
/// trace pool the per-pair model samples): each backbone carries an
/// unscaled pool draw, and each access link carries a pool draw scaled
/// 4–8×, so the shared oceanic links — not the edges — are the usual
/// bottleneck, as in the paper's WAN. The same `(preset, n_hosts, seed)`
/// always yields the same routing table; `pool` only affects traces.
///
/// # Panics
///
/// Panics if `pool` is empty or `n_hosts < 2`.
pub fn build_preset(
    preset: TopoPreset,
    n_hosts: usize,
    pool: &[Arc<BandwidthTrace>],
    seed: u64,
) -> Topology {
    assert!(!pool.is_empty(), "preset needs a non-empty trace pool");
    match preset {
        TopoPreset::PaperWan => build_paper_wan(n_hosts, pool, seed),
    }
}

fn build_paper_wan(n_hosts: usize, pool: &[Arc<BandwidthTrace>], seed: u64) -> Topology {
    let mut rng = Rng64::seed_from_u64(derive_seed2(seed, STREAM_TOPO, 0));
    let mut b = TopologyBuilder::new(n_hosts);

    // Per-host access links: a pool draw scaled up so the edge rarely
    // bottlenecks an inter-region transfer.
    let access: Vec<_> = (0..n_hosts)
        .map(|h| {
            let draw = pool[rng.range_usize(pool.len())].as_ref();
            let factor = rng.range_f64(4.0, 8.0);
            b.add_link(&format!("access-{h}"), Arc::new(draw.scaled(factor)))
        })
        .collect();

    // The two shared oceanic bottlenecks: unscaled pool draws.
    let transatlantic = b.add_link("transatlantic", pool[rng.range_usize(pool.len())].clone());
    let transamerican = b.add_link("transamerican", pool[rng.range_usize(pool.len())].clone());

    for (a, z) in pairs(n_hosts) {
        let (lo, hi) = (a.index(), z.index());
        let (x, y) = (access[lo], access[hi]);
        match (region_of(lo, n_hosts), region_of(hi, n_hosts)) {
            // Intra-region: the two access links suffice.
            (ra, rb) if ra == rb => b.route(a, z, &[x, y]),
            // US <-> EU over the Atlantic.
            (0, 1) | (1, 0) => b.route(a, z, &[x, transatlantic, y]),
            // US <-> Brazil over the American backbone.
            (0, 2) | (2, 0) => b.route(a, z, &[x, transamerican, y]),
            // EU <-> Brazil crosses both oceans via the US.
            _ => b.route(a, z, &[x, transatlantic, transamerican, y]),
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_plan::ids::HostId;
    use wadc_sim::time::SimTime;

    fn pool() -> Vec<Arc<BandwidthTrace>> {
        [8.0, 32.0, 128.0]
            .iter()
            .map(|kb| Arc::new(BandwidthTrace::constant(kb * 1024.0)))
            .collect()
    }

    #[test]
    fn regions_are_contiguous_thirds() {
        let regions: Vec<usize> = (0..9).map(|h| region_of(h, 9)).collect();
        assert_eq!(regions, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
        // Remainder goes to the US region.
        let regions: Vec<usize> = (0..8).map(|h| region_of(h, 8)).collect();
        assert_eq!(regions, vec![0, 0, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn paper_wan_routes_cross_the_right_backbones() {
        let t = build_preset(TopoPreset::PaperWan, 9, &pool(), 7);
        let atl = t.find_link("transatlantic").unwrap();
        let ame = t.find_link("transamerican").unwrap();
        let (us, eu, br) = (HostId::new(0), HostId::new(3), HostId::new(6));
        assert!(t.route(us, eu).contains(&atl) && !t.route(us, eu).contains(&ame));
        assert!(t.route(us, br).contains(&ame) && !t.route(us, br).contains(&atl));
        assert!(t.route(eu, br).contains(&atl) && t.route(eu, br).contains(&ame));
        let intra = t.route(HostId::new(0), HostId::new(1));
        assert!(!intra.contains(&atl) && !intra.contains(&ame));
        assert!(t.is_shared(atl) && t.is_shared(ame));
    }

    #[test]
    fn preset_is_deterministic_in_seed() {
        let (a, b) = (
            build_preset(TopoPreset::PaperWan, 7, &pool(), 42),
            build_preset(TopoPreset::PaperWan, 7, &pool(), 42),
        );
        for (x, y) in pairs(7) {
            assert_eq!(a.route(x, y), b.route(x, y));
            assert_eq!(
                a.nominal_trace(x, y).bandwidth_at(SimTime::ZERO),
                b.nominal_trace(x, y).bandwidth_at(SimTime::ZERO)
            );
        }
    }

    #[test]
    fn parse_round_trips() {
        for p in TopoPreset::ALL {
            assert_eq!(TopoPreset::parse(p.name()), Some(*p));
        }
        assert_eq!(TopoPreset::parse("nope"), None);
    }
}
