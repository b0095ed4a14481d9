//! Randomized tests of the simulation kernel's ordering guarantees.
//!
//! Each test draws many random cases from the in-repo [`Rng64`] so runs
//! are deterministic and platform-independent — property-based testing
//! without an external framework.

use wadc_sim::event::EventQueue;
use wadc_sim::rng::{derive_seed2, Rng64};
use wadc_sim::stats::Tally;
use wadc_sim::time::{SimDuration, SimTime};

const CASES: u64 = 64;

fn case_rng(test: u64, case: u64) -> Rng64 {
    Rng64::seed_from_u64(derive_seed2(0x51D0_7E57, test, case))
}

/// Events pop in non-decreasing time order, with scheduling order breaking
/// ties, regardless of insertion order.
#[test]
fn event_queue_total_order() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n = rng.range_usize(199) + 1;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 999)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, id, seq)) = q.pop() {
            popped.push((t, id, seq));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            let ((t1, id1, _), (t2, id2, _)) = (w[0], w[1]);
            assert!(t1 < t2 || (t1 == t2 && id1 < id2));
        }
        // Every event's pop time equals its scheduled time.
        for (t, _, seq) in popped {
            assert_eq!(t, SimTime::from_micros(times[seq]));
        }
    }
}

/// Cancelling an arbitrary subset removes exactly that subset.
#[test]
fn event_queue_cancellation() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let n = rng.range_usize(99) + 1;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 999)).collect();
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_micros(t), i))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for &id in &ids {
            if rng.bool_with(0.5) {
                q.cancel(id);
                cancelled.insert(id);
            }
        }
        let mut seen = 0;
        while let Some((_, id, _)) = q.pop() {
            assert!(!cancelled.contains(&id));
            seen += 1;
        }
        assert_eq!(seen, times.len() - cancelled.len());
    }
}

/// Welford tally agrees with the naive two-pass computation.
#[test]
fn tally_matches_naive() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let n = rng.range_usize(199) + 1;
        let values: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let tally: Tally = values.iter().copied().collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!((tally.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((tally.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        assert_eq!(tally.count(), values.len() as u64);
    }
}

/// Duration arithmetic is consistent: (t + d) - t == d.
#[test]
fn time_addition_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let t = rng.range_u64(0, u64::MAX / 4 - 1);
        let d = rng.range_u64(0, u64::MAX / 4 - 1);
        let base = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        assert_eq!((base + dur) - base, dur);
        assert_eq!((base + dur) - dur, base);
    }
}
