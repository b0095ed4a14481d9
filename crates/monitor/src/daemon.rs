//! The probe scheduler of a Komodo/NWS-style monitoring daemon.
//!
//! The paper's infrastructure section points at "user-level distributed
//! network monitoring systems like Komodo and the Network Weather
//! Service"; those systems probe continuously in the background rather
//! than on demand. [`ProbeScheduler`] is that behaviour as a pure data
//! structure: each subscribed host pair is probed once per interval, with
//! deterministic per-pair jitter so probes spread out instead of
//! thundering in phase (exactly the NWS token-ring motivation).

use wadc_plan::ids::{pairs, HostId};
use wadc_sim::rng::derive_seed2;
use wadc_sim::time::{SimDuration, SimTime};

/// Schedules periodic probes over a set of host pairs.
///
/// # Examples
///
/// ```
/// use wadc_monitor::daemon::ProbeScheduler;
/// use wadc_plan::ids::HostId;
/// use wadc_sim::time::{SimDuration, SimTime};
///
/// let pairs = vec![(HostId::new(0), HostId::new(1))];
/// let mut sched = ProbeScheduler::new(pairs, SimDuration::from_secs(30), 7);
/// // Nothing is due before the jittered first slot...
/// let first = sched.next_due().unwrap();
/// assert!(first <= SimTime::from_secs(30));
/// // ...and once we reach it, the pair is handed out and rescheduled.
/// assert_eq!(sched.due(first).len(), 1);
/// assert!(sched.next_due().unwrap() > first);
/// ```
#[derive(Debug, Clone)]
pub struct ProbeScheduler {
    interval: SimDuration,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    pair: (HostId, HostId),
    next_due: SimTime,
}

impl ProbeScheduler {
    /// Creates a scheduler probing every pair once per `interval`.
    /// Initial probes are staggered pseudo-randomly (from `seed`) across
    /// the first interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(pairs: Vec<(HostId, HostId)>, interval: SimDuration, seed: u64) -> Self {
        assert!(!interval.is_zero(), "probe interval must be positive");
        let entries = pairs
            .into_iter()
            .enumerate()
            .map(|(i, pair)| {
                let jitter = derive_seed2(
                    seed,
                    pair.0.index() as u64,
                    pair.1.index() as u64 ^ i as u64,
                ) % interval.as_micros().max(1);
                Entry {
                    pair,
                    next_due: SimTime::ZERO + SimDuration::from_micros(jitter),
                }
            })
            .collect();
        ProbeScheduler { interval, entries }
    }

    /// Builds the all-pairs scheduler over `n_hosts` hosts.
    pub fn all_pairs(n_hosts: usize, interval: SimDuration, seed: u64) -> Self {
        ProbeScheduler::new(pairs(n_hosts).collect(), interval, seed)
    }

    /// The probing interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of subscribed pairs.
    pub fn pair_count(&self) -> usize {
        self.entries.len()
    }

    /// The earliest time any pair is due, or `None` with no subscriptions.
    pub fn next_due(&self) -> Option<SimTime> {
        self.entries.iter().map(|e| e.next_due).min()
    }

    /// Returns every pair due at or before `now` and reschedules each one
    /// interval later (from its due time, so cadence does not drift).
    pub fn due(&mut self, now: SimTime) -> Vec<(HostId, HostId)> {
        let mut out = Vec::new();
        for e in &mut self.entries {
            if e.next_due <= now {
                out.push(e.pair);
                // Catch up if the caller polled late.
                while e.next_due <= now {
                    e.next_due += self.interval;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn all_pairs_covers_complete_graph() {
        let s = ProbeScheduler::all_pairs(5, SimDuration::from_secs(30), 1);
        assert_eq!(s.pair_count(), 10);
    }

    #[test]
    fn every_pair_probed_once_per_interval() {
        let mut s = ProbeScheduler::all_pairs(4, SimDuration::from_secs(30), 3);
        let mut counts = std::collections::HashMap::new();
        // Walk 5 minutes in 1-second steps.
        for t in 0..300 {
            for pair in s.due(SimTime::from_secs(t)) {
                *counts.entry(pair).or_insert(0usize) += 1;
            }
        }
        assert_eq!(counts.len(), 6);
        for (&pair, &c) in &counts {
            assert!(
                (9..=10).contains(&c),
                "pair {pair:?} probed {c} times in 300 s at a 30 s interval"
            );
        }
    }

    #[test]
    fn jitter_staggers_first_probes() {
        let s = ProbeScheduler::all_pairs(6, SimDuration::from_secs(60), 5);
        let first_times: std::collections::HashSet<u64> =
            s.entries.iter().map(|e| e.next_due.as_micros()).collect();
        assert!(
            first_times.len() > s.pair_count() / 2,
            "initial probes should be spread, not in phase"
        );
    }

    #[test]
    fn late_polling_catches_up_without_bursts() {
        let mut s = ProbeScheduler::new(vec![(h(0), h(1))], SimDuration::from_secs(10), 0);
        // Poll very late: the pair is due once, then rescheduled beyond now.
        let due = s.due(SimTime::from_secs(100));
        assert_eq!(due.len(), 1);
        assert!(s.next_due().unwrap() > SimTime::from_secs(100));
        assert!(s.due(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ProbeScheduler::all_pairs(4, SimDuration::from_secs(30), 9);
        let b = ProbeScheduler::all_pairs(4, SimDuration::from_secs(30), 9);
        assert_eq!(a.next_due(), b.next_due());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        ProbeScheduler::new(vec![(h(0), h(1))], SimDuration::ZERO, 0);
    }
}
