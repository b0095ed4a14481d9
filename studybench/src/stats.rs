//! The benchmark's one statistic of its own: the tail rule. Medians come
//! from [`wadc_sim::stats::median`].

/// Minimum number of samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail value and the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Share of samples at or below it, in percent.
    pub percentile: f64,
}

/// The highest-percentile sample that still has `beyond` samples ranked
/// above it, or `None` when there are not more than `beyond` samples.
/// Rank-based: with `n` samples it is the `(n - beyond)`-th smallest, at
/// percentile `100 (n - beyond) / n`.
pub fn tail(samples: &[f64], beyond: usize) -> Option<Tail> {
    let n = samples.len();
    if n <= beyond {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - beyond;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100 in scrambled order: the 90th smallest is 90, and the ten
        // values 91..=100 lie beyond it.
        let samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let t = tail(&samples, TAIL_BEYOND).expect("100 samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(samples.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_percentile_rises_with_the_sample_count() {
        let samples: Vec<f64> = (1..=1200).map(f64::from).collect();
        let t = tail(&samples, TAIL_BEYOND).expect("1200 samples");
        assert_eq!(t.value, 1190.0);
        assert!((t.percentile - 99.1667).abs() < 1e-3, "{}", t.percentile);
    }

    #[test]
    fn tail_needs_more_samples_than_it_leaves_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten, TAIL_BEYOND), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven, TAIL_BEYOND).expect("11 samples");
        assert_eq!(t.value, 1.0);
    }
}
