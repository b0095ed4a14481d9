//! Randomized tests of the monitoring substrate: cache expiry, piggyback
//! budgets and collection, and the location-vector join semilattice.
//! Cases are drawn from the in-repo [`Rng64`] so runs are deterministic.

use wadc_monitor::cache::{BandwidthCache, MonitorConfig};
use wadc_monitor::piggyback::{
    absorb, collect, collect_into, Piggyback, PiggybackEntry, ENTRY_WIRE_BYTES,
    PIGGYBACK_BUDGET_BYTES,
};
use wadc_monitor::vector::LocationVector;
use wadc_plan::ids::{HostId, OperatorId};
use wadc_sim::rng::{derive_seed2, Rng64};
use wadc_sim::time::{SimDuration, SimTime};

const CASES: u64 = 48;

fn case_rng(test: u64, case: u64) -> Rng64 {
    Rng64::seed_from_u64(derive_seed2(0x4040, test, case))
}

/// A sequence of (a, b, bandwidth, time) observations.
fn arb_observations(rng: &mut Rng64) -> Vec<(usize, usize, f64, u64)> {
    let n = rng.range_usize(100);
    (0..n)
        .map(|_| {
            (
                rng.range_usize(8),
                rng.range_usize(8),
                rng.range_f64(1.0, 1e6),
                rng.range_u64(0, 499),
            )
        })
        .collect()
}

/// A location vector over 8 operators built by a random move sequence.
fn arb_vector(rng: &mut Rng64) -> LocationVector {
    let mut v = LocationVector::new(vec![HostId::new(0); 8]);
    for _ in 0..rng.range_usize(32) {
        let op = rng.range_usize(8);
        let host = rng.range_usize(16);
        v.record_move(OperatorId::new(op), HostId::new(host));
    }
    v
}

/// A cache lookup never returns a value older than T_thres, and always
/// returns the *newest* observation for the pair.
#[test]
fn cache_serves_newest_unexpired() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let obs = arb_observations(&mut rng);
        let now = SimTime::from_secs(rng.range_u64(0, 599));
        let config = MonitorConfig::paper_defaults();
        let mut cache = BandwidthCache::new(config);
        for &(a, b, bw, t) in &obs {
            if a == b {
                continue;
            }
            cache.observe(HostId::new(a), HostId::new(b), bw, SimTime::from_secs(t));
        }
        for &(a, b, _, _) in &obs {
            if a == b {
                continue;
            }
            let newest = obs
                .iter()
                .filter(|&&(x, y, _, _)| (x.min(y), x.max(y)) == (a.min(b), a.max(b)))
                .max_by_key(|&&(_, _, _, t)| t);
            let expect = newest.and_then(|&(_, _, bw, t)| {
                (now.saturating_since(SimTime::from_secs(t)) <= config.t_thres).then_some(bw)
            });
            // `observe` keeps the newest per pair; equal-time ties keep the
            // later write, which also satisfies "a newest observation".
            let got = cache.lookup(HostId::new(a), HostId::new(b), now);
            match (got, expect) {
                (None, None) => {}
                (Some(g), Some(_)) => {
                    // must be one of the newest-time observations for the pair
                    let newest_t = newest.unwrap().3;
                    let candidates: Vec<f64> = obs
                        .iter()
                        .filter(|&&(x, y, _, t)| {
                            (x.min(y), x.max(y)) == (a.min(b), a.max(b)) && t == newest_t
                        })
                        .map(|&(_, _, bw, _)| bw)
                        .collect();
                    assert!(candidates.contains(&g));
                }
                (g, e) => panic!("lookup {g:?} vs expected {e:?}"),
            }
        }
    }
}

/// Piggyback payloads never exceed the byte budget and only carry
/// unexpired entries; absorption is idempotent.
#[test]
fn piggyback_budget_and_idempotence() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let obs = arb_observations(&mut rng);
        let now = SimTime::from_secs(rng.range_u64(0, 599));
        let config = MonitorConfig::paper_defaults();
        let mut sender = BandwidthCache::new(config);
        for &(a, b, bw, t) in &obs {
            if a == b {
                continue;
            }
            sender.observe(HostId::new(a), HostId::new(b), bw, SimTime::from_secs(t));
        }
        let payload = collect(&mut sender, now);
        assert!(payload.wire_bytes() <= PIGGYBACK_BUDGET_BYTES);
        assert_eq!(payload.wire_bytes(), payload.len() * ENTRY_WIRE_BYTES);
        for e in &payload.entries {
            assert!(now.saturating_since(e.measurement.at) <= config.t_thres);
        }
        let mut receiver = BandwidthCache::new(config);
        absorb(&mut receiver, &payload);
        let snapshot: Vec<_> = payload
            .entries
            .iter()
            .map(|e| receiver.measurement(e.a, e.b))
            .collect();
        assert_eq!(
            absorb(&mut receiver, &payload),
            0,
            "second absorb is a no-op"
        );
        for (e, before) in payload.entries.iter().zip(snapshot) {
            assert_eq!(receiver.measurement(e.a, e.b), before);
        }
    }
}

/// The reference collection: the full-table scan the cache's live list
/// replaced. It visits every pair of hosts `0..hosts` in row-major order,
/// keeps the unexpired measurements and, only when they overflow the
/// byte budget, ranks them newest first (then by pair) and keeps the
/// newest.
fn reference_collect(cache: &BandwidthCache, hosts: usize, now: SimTime) -> Vec<PiggybackEntry> {
    let config = cache.config();
    let mut entries = Vec::new();
    for lo in 0..hosts {
        for hi in lo + 1..hosts {
            let (a, b) = (HostId::new(lo), HostId::new(hi));
            if let Some(m) = cache.measurement(a, b) {
                if now.saturating_since(m.at) <= config.t_thres {
                    entries.push(PiggybackEntry {
                        a,
                        b,
                        measurement: m,
                    });
                }
            }
        }
    }
    let max_entries = PIGGYBACK_BUDGET_BYTES / ENTRY_WIRE_BYTES;
    if entries.len() > max_entries {
        entries.sort_unstable_by(|x, y| {
            y.measurement
                .at
                .cmp(&x.measurement.at)
                .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
        });
        entries.truncate(max_entries);
    }
    entries
}

/// `entries` in pair order, so two payloads compare as sets.
fn as_set(entries: &[PiggybackEntry]) -> Vec<PiggybackEntry> {
    let mut set = entries.to_vec();
    set.sort_by_key(|e| (e.a, e.b));
    set
}

/// Every pair's measurement and the entry count: all a cache answers.
fn state(cache: &BandwidthCache, hosts: usize) -> (Vec<Option<(f64, SimTime)>>, usize) {
    let mut pairs = Vec::new();
    for hi in 0..hosts {
        for lo in 0..hi {
            let m = cache.measurement(HostId::new(lo), HostId::new(hi));
            pairs.push(m.map(|m| (m.bytes_per_sec, m.at)));
        }
    }
    (pairs, cache.len())
}

/// Collection walks only the cache's live pairs. Over random observations
/// (fresh, stale and already expired, as absorbed gossip can be) on up to
/// 12 hosts, whose 66 pairs overflow the 42-entry budget, interleaved with
/// collections at non-decreasing times, each payload equals the full
/// scan's as a set, and absorbing either leaves a receiver in the same
/// state.
#[test]
fn collect_matches_full_scan() {
    let config = MonitorConfig::paper_defaults();
    let max_entries = PIGGYBACK_BUDGET_BYTES / ENTRY_WIRE_BYTES;
    let mut truncated = 0;
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let hosts = if case % 2 == 0 {
            12
        } else {
            2 + rng.range_usize(11)
        };
        let mut sender = BandwidthCache::new(config);
        let (mut via_live, mut via_scan) =
            (BandwidthCache::new(config), BandwidthCache::new(config));
        let mut payload = Piggyback::empty();
        let mut now = SimTime::from_secs(60);
        for _ in 0..400 {
            if rng.bool_with(0.9) {
                let a = rng.range_usize(hosts);
                let b = (a + 1 + rng.range_usize(hosts - 1)) % hosts;
                // Up to 60 s old, past T_thres = 40 s, or up to 1 s ahead.
                let at = now + SimDuration::from_secs(1)
                    - SimDuration::from_millis(rng.range_u64(0, 61_000));
                let bw = rng.range_f64(1.0, 1e6);
                sender.observe(HostId::new(a), HostId::new(b), bw, at);
                continue;
            }
            now += SimDuration::from_millis(rng.range_u64(0, 4_000));
            collect_into(&mut sender, now, &mut payload);
            let reference = reference_collect(&sender, hosts, now);
            assert_eq!(as_set(&payload.entries), as_set(&reference), "case {case}");
            if reference.len() == max_entries {
                truncated += 1;
            }
            assert_eq!(
                absorb(&mut via_live, &payload),
                absorb(&mut via_scan, &Piggyback { entries: reference }),
                "case {case}"
            );
            assert_eq!(state(&via_live, hosts), state(&via_scan, hosts));
            // The receiver's own live list agrees with the scan too.
            let relayed = collect(&mut via_live, now);
            assert_eq!(
                as_set(&relayed.entries),
                as_set(&reference_collect(&via_scan, hosts, now))
            );
        }
    }
    assert!(truncated > 0, "some payloads must fill the budget");
}

/// A cache's collections must run forward in time: an entry dropped as
/// expired would otherwise be fresh again at the earlier time.
#[test]
#[should_panic(expected = "after a collection at")]
fn collecting_back_in_time_panics() {
    let mut cache = BandwidthCache::new(MonitorConfig::paper_defaults());
    cache.observe(HostId::new(0), HostId::new(1), 1.0, SimTime::ZERO);
    collect(&mut cache, SimTime::from_secs(10));
    collect(&mut cache, SimTime::from_secs(9));
}

/// Location-vector merge is a join: commutative, associative, idempotent,
/// and an upper bound of both inputs.
#[test]
fn vector_merge_is_semilattice() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let a = arb_vector(&mut rng);
        let b = arb_vector(&mut rng);
        let c = arb_vector(&mut rng);
        // Commutative.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(&ab, &ba);
        // Associative.
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(&ab_c, &a_bc);
        // Idempotent.
        let mut aa = a.clone();
        assert!(!aa.merge(&a));
        assert_eq!(&aa, &a);
        // Upper bound: the merge result's stamps dominate-or-equal both.
        for i in 0..8 {
            let op = OperatorId::new(i);
            assert!(ab.stamp(op) >= a.stamp(op));
            assert!(ab.stamp(op) >= b.stamp(op));
        }
    }
}

/// Dominance is irreflexive and asymmetric, and merge(a,b) dominates a
/// strict sub-vector.
#[test]
fn dominance_properties() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let a = arb_vector(&mut rng);
        let b = arb_vector(&mut rng);
        assert!(!a.dominates(&a), "irreflexive");
        if a.dominates(&b) {
            assert!(!b.dominates(&a), "asymmetric");
        }
        let mut joined = a.clone();
        joined.merge(&b);
        // The join is an upper bound of `a`; it strictly dominates `a`
        // exactly when some stamp increased (a location tie-break alone
        // does not change stamps).
        let mut any_stamp_increased = false;
        for i in 0..8 {
            let op = OperatorId::new(i);
            assert!(joined.stamp(op) >= a.stamp(op));
            any_stamp_increased |= joined.stamp(op) > a.stamp(op);
        }
        assert_eq!(joined.dominates(&a), any_stamp_increased);
    }
}
