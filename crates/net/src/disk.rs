//! The server disk model.
//!
//! The paper's simulation "includes ... retrieval of images from disk" with
//! "the disk bandwidth set to 3MB/s". Disks are sequential: one read at a
//! time per host, the rest waiting first-come-first-served in the
//! engine's per-host disk station.

use wadc_sim::time::SimDuration;

/// A fixed-rate disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sustained read bandwidth, bytes per second.
    pub bytes_per_sec: f64,
}

impl DiskModel {
    /// The paper's disk: 3 MB/s.
    pub fn paper_defaults() -> Self {
        DiskModel {
            bytes_per_sec: 3.0 * 1024.0 * 1024.0,
        }
    }

    /// Time to read `bytes` sequentially.
    ///
    /// # Examples
    ///
    /// ```
    /// use wadc_net::disk::DiskModel;
    /// use wadc_sim::time::SimDuration;
    ///
    /// let d = DiskModel::paper_defaults();
    /// assert_eq!(
    ///     d.read_duration(3 * 1024 * 1024),
    ///     SimDuration::from_secs(1)
    /// );
    /// ```
    pub fn read_duration(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate() {
        let d = DiskModel::paper_defaults();
        assert_eq!(d.bytes_per_sec, 3.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn read_duration_scales_linearly() {
        let d = DiskModel {
            bytes_per_sec: 1000.0,
        };
        assert_eq!(d.read_duration(500), SimDuration::from_millis(500));
        assert_eq!(d.read_duration(2000), SimDuration::from_secs(2));
        assert_eq!(d.read_duration(0), SimDuration::ZERO);
    }

    #[test]
    fn typical_image_read_time() {
        // 128 KB at 3 MB/s ≈ 42 ms.
        let d = DiskModel::paper_defaults();
        let t = d.read_duration(128 * 1024).as_secs_f64();
        assert!((t - 0.0416666).abs() < 1e-4);
    }
}
