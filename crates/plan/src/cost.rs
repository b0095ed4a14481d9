//! The planning cost model.
//!
//! Converts an edge of the placed data-flow tree into estimated seconds:
//! `startup + bytes / bandwidth` for a remote edge, zero for a co-located
//! edge, plus per-node processing costs (disk read at servers, composition
//! at operators). The constants default to the paper's simulation
//! parameters: 50 ms message startup, 3 MB/s disk, 7 µs/pixel composition,
//! 128 KB expected images. The startup and the disk rate are also what the
//! simulated network and disks charge, so both are defined here once.

use wadc_sim::time::SimDuration;

use crate::bandwidth::BandwidthView;
use crate::ids::HostId;

/// Per-message startup cost, paid before a message's data flows (the
/// paper's 50 ms). The simulated network charges it and the cost model
/// prices it.
pub const STARTUP: SimDuration = SimDuration::from_millis(50);

/// Server disk read bandwidth, bytes per second. The paper's simulation
/// "includes ... retrieval of images from disk" with "the disk bandwidth
/// set to 3MB/s"; the engine's disk stations read at it and the cost model
/// prices it.
pub const DISK_BYTES_PER_SEC: f64 = 3.0 * 1024.0 * 1024.0;

/// Expected image size used for planning, bytes (the paper's measured mean
/// for hurricane-imagery web sites).
pub const DEFAULT_IMAGE_BYTES: f64 = 128.0 * 1024.0;

/// Cost constants for evaluating candidate placements.
///
/// # Examples
///
/// ```
/// use wadc_plan::cost::CostModel;
/// use wadc_plan::bandwidth::BwMatrix;
/// use wadc_plan::ids::HostId;
///
/// let model = CostModel::paper_defaults();
/// let mut bw = BwMatrix::new(2);
/// bw.set(HostId::new(0), HostId::new(1), 64.0 * 1024.0);
/// // 50 ms startup + 128 KB at 64 KB/s = 2.05 s.
/// let c = model.edge_cost(&bw, HostId::new(0), HostId::new(1));
/// assert!((c - 2.05).abs() < 1e-9);
/// assert_eq!(model.edge_cost(&bw, HostId::new(1), HostId::new(1)), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Per-message startup cost, seconds (paper: 50 ms).
    pub startup_secs: f64,
    /// Expected bytes shipped across each tree edge per partition
    /// (paper: mean image size, 128 KB).
    pub edge_bytes: f64,
    /// Assumed bandwidth for links with no measurement, bytes/sec. Chosen
    /// pessimistically so the search avoids unmeasured links unless a
    /// measured one is clearly worse.
    pub unknown_bandwidth: f64,
    /// Composition cost per operator per partition, seconds
    /// (paper: 7 µs/pixel × ~128 K pixels ≈ 0.92 s).
    pub compute_secs: f64,
    /// Disk read per server per partition, seconds
    /// (paper: 128 KB at 3 MB/s ≈ 0.042 s).
    pub disk_secs: f64,
}

impl CostModel {
    /// The paper's simulation constants.
    pub fn paper_defaults() -> Self {
        CostModel::for_image_bytes(DEFAULT_IMAGE_BYTES)
    }

    /// The paper's constants scaled to a different expected image size —
    /// keeps the planner's size estimates consistent with a non-default
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not finite and positive.
    pub fn for_image_bytes(bytes: f64) -> Self {
        assert!(
            bytes.is_finite() && bytes > 0.0,
            "expected image size must be finite and positive"
        );
        CostModel {
            startup_secs: STARTUP.as_secs_f64(),
            edge_bytes: bytes,
            unknown_bandwidth: 8.0 * 1024.0,
            compute_secs: 7e-6 * bytes, // one byte per pixel
            disk_secs: bytes / DISK_BYTES_PER_SEC,
        }
    }

    /// Estimated seconds to ship one partition from `from` to `to`:
    /// zero when co-located, otherwise startup plus transfer at the
    /// estimated (or assumed) bandwidth.
    pub fn edge_cost(&self, view: impl BandwidthView, from: HostId, to: HostId) -> f64 {
        if from == to {
            return 0.0;
        }
        let bw = view
            .bandwidth(from, to)
            .unwrap_or(self.unknown_bandwidth)
            .max(1.0);
        self.startup_secs + self.edge_bytes / bw
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::BwMatrix;

    #[test]
    fn paper_defaults_match_constants() {
        let m = CostModel::paper_defaults();
        assert_eq!(m.startup_secs, 0.05);
        assert_eq!(m.edge_bytes, 131072.0);
        assert!((m.compute_secs - 0.917504).abs() < 1e-9);
        assert!((m.disk_secs - 0.0416666).abs() < 1e-6);
    }

    #[test]
    fn colocated_edge_is_free() {
        let m = CostModel::paper_defaults();
        let bw = BwMatrix::new(3);
        assert_eq!(m.edge_cost(&bw, HostId::new(2), HostId::new(2)), 0.0);
    }

    #[test]
    fn unknown_link_uses_pessimistic_default() {
        let m = CostModel::paper_defaults();
        let bw = BwMatrix::new(3);
        let c = m.edge_cost(&bw, HostId::new(0), HostId::new(1));
        assert!((c - (0.05 + 131072.0 / 8192.0)).abs() < 1e-9);
    }

    #[test]
    fn faster_links_cost_less() {
        let m = CostModel::paper_defaults();
        let mut bw = BwMatrix::new(3);
        bw.set(HostId::new(0), HostId::new(1), 10_000.0);
        bw.set(HostId::new(0), HostId::new(2), 100_000.0);
        assert!(
            m.edge_cost(&bw, HostId::new(0), HostId::new(2))
                < m.edge_cost(&bw, HostId::new(0), HostId::new(1))
        );
    }

    #[test]
    fn degenerate_bandwidth_is_clamped() {
        let m = CostModel::paper_defaults();
        let mut bw = BwMatrix::new(2);
        bw.set(HostId::new(0), HostId::new(1), 1e-12);
        let c = m.edge_cost(&bw, HostId::new(0), HostId::new(1));
        assert!(c.is_finite());
    }
}
