//! Max-min fair sharing by progressive filling.
//!
//! Given the instantaneous capacity of every link and the link path of
//! every concurrent flow, [`max_min_shares`] computes the unique max-min
//! fair allocation: repeatedly find the most contended link (smallest
//! remaining capacity per unfrozen flow), freeze its flows at that equal
//! share, subtract what they consume from every link they cross, repeat
//! until all flows are frozen. No flow can be given more without taking
//! from a flow that already has less.
//!
//! [`check_max_min`] certifies an allocation against the textbook
//! characterisation instead of recomputing it, so it can catch bugs in
//! the progressive filling.

use crate::graph::LinkId;

/// The working buffers of [`max_min_shares`]: remaining capacity and
/// unfrozen-flow count per link, and a frozen flag per flow. Reusing one
/// across calls makes a recompute allocation-free once the buffers have
/// grown to the largest instance; only their capacity survives a call.
#[derive(Debug, Clone, Default)]
pub struct FairScratch {
    remaining: Vec<f64>,
    unfrozen_on: Vec<usize>,
    frozen: Vec<bool>,
}

/// Computes the max-min fair rate of every flow.
///
/// `capacities[l]` is the instantaneous capacity (bytes/sec) of link
/// `LinkId(l)`; `path(f)` is the link path of flow `f`, for each of the
/// `n_flows` flows. Rates are written into `rates` (cleared first),
/// `rates[f]` belonging to flow `f`. Ties in the bottleneck search
/// resolve to the lowest link index, so the result is deterministic, and
/// it does not depend on what `scratch` held before the call.
///
/// # Panics
///
/// Panics if a flow's path is empty or references a link outside
/// `capacities`.
///
/// # Examples
///
/// ```
/// use wadc_topo::fair::{max_min_shares, FairScratch};
/// use wadc_topo::graph::LinkId;
///
/// // Two flows share link 0 (cap 100); flow 1 also crosses link 1 (cap 30).
/// // Flow 1 is bottlenecked at 30, leaving 70 for flow 0.
/// let caps = [100.0, 30.0];
/// let flows = [vec![LinkId::new(0)], vec![LinkId::new(0), LinkId::new(1)]];
/// let mut scratch = FairScratch::default();
/// let mut rates = Vec::new();
/// max_min_shares(&caps, flows.len(), |f| &flows[f], &mut scratch, &mut rates);
/// assert_eq!(rates, vec![70.0, 30.0]);
/// ```
pub fn max_min_shares<'p>(
    capacities: &[f64],
    n_flows: usize,
    path: impl Fn(usize) -> &'p [LinkId],
    scratch: &mut FairScratch,
    rates: &mut Vec<f64>,
) {
    rates.clear();
    rates.resize(n_flows, 0.0);
    if n_flows == 0 {
        return;
    }
    for f in 0..n_flows {
        let p = path(f);
        assert!(!p.is_empty(), "a flow crosses at least one link");
        for l in p {
            assert!(l.index() < capacities.len(), "flow references unknown link");
        }
    }

    // Remaining capacity and unfrozen-flow count per link.
    let FairScratch {
        remaining,
        unfrozen_on,
        frozen,
    } = scratch;
    remaining.clear();
    remaining.extend_from_slice(capacities);
    unfrozen_on.clear();
    unfrozen_on.resize(capacities.len(), 0);
    for f in 0..n_flows {
        for l in path(f) {
            unfrozen_on[l.index()] += 1;
        }
    }
    frozen.clear();
    frozen.resize(n_flows, false);
    let mut n_frozen = 0usize;

    while n_frozen < n_flows {
        // The bottleneck: the link whose equal split of remaining
        // capacity among its unfrozen flows is smallest.
        let mut best: Option<(usize, f64)> = None;
        for (l, (&cap, &cnt)) in remaining.iter().zip(unfrozen_on.iter()).enumerate() {
            if cnt == 0 {
                continue;
            }
            let share = (cap / cnt as f64).max(0.0);
            match best {
                Some((_, s)) if s <= share => {}
                _ => best = Some((l, share)),
            }
        }
        let (bottleneck, share) = best.expect("unfrozen flows cross at least one link");

        // Freeze every unfrozen flow crossing the bottleneck at `share`.
        for f in 0..n_flows {
            let p = path(f);
            if frozen[f] || !p.contains(&LinkId::new(bottleneck)) {
                continue;
            }
            frozen[f] = true;
            n_frozen += 1;
            rates[f] = share;
            for l in p {
                remaining[l.index()] = (remaining[l.index()] - share).max(0.0);
                unfrozen_on[l.index()] -= 1;
            }
        }
    }
}

/// Certifies that `rates` is the max-min fair allocation of `capacities`
/// among the flows whose link paths are `paths`, by the characterisation
/// in Bertsekas & Gallager, *Data Networks* §6.5: a feasible allocation
/// is max-min fair exactly when every flow has a bottleneck — a saturated
/// link on its path on which no flow has a higher rate. It reads only the
/// final allocation and shares no code with [`max_min_shares`].
/// Comparisons use a relative tolerance of 1e-9.
///
/// # Errors
///
/// Returns a description of the first violation: a rate count that
/// differs from the flow count, a negative or non-finite rate, a path
/// through an unknown link, a link carrying more than its capacity, or a
/// flow without a bottleneck.
pub fn check_max_min(capacities: &[f64], paths: &[&[LinkId]], rates: &[f64]) -> Result<(), String> {
    const TOL: f64 = 1e-9;
    if rates.len() != paths.len() {
        return Err(format!("{} rates for {} flows", rates.len(), paths.len()));
    }
    // Load and highest rate per link.
    let mut load = vec![0.0; capacities.len()];
    let mut highest = vec![0.0f64; capacities.len()];
    for (f, (path, &rate)) in paths.iter().zip(rates).enumerate() {
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(format!("flow {f} has rate {rate}"));
        }
        for l in *path {
            let Some(used) = load.get_mut(l.index()) else {
                return Err(format!("flow {f} crosses unknown link {}", l.index()));
            };
            *used += rate;
            highest[l.index()] = highest[l.index()].max(rate);
        }
    }
    if let Some(l) = (0..capacities.len()).find(|&l| load[l] > capacities[l] * (1.0 + TOL)) {
        let (used, cap) = (load[l], capacities[l]);
        return Err(format!("link {l} carries {used} over its capacity {cap}"));
    }
    let is_bottleneck = |l: &LinkId, rate: f64| {
        let l = l.index();
        load[l] >= capacities[l] * (1.0 - TOL) && rate >= highest[l] * (1.0 - TOL)
    };
    match (paths.iter().zip(rates)).position(|(p, &r)| !p.iter().any(|l| is_bottleneck(l, r))) {
        Some(f) => Err(format!(
            "flow {f} at rate {} has no bottleneck link",
            rates[f]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_sim::rng::Rng64;

    fn l(i: usize) -> LinkId {
        LinkId::new(i)
    }

    fn shares(caps: &[f64], flows: &[Vec<LinkId>]) -> Vec<f64> {
        shares_with(caps, flows, &mut FairScratch::default())
    }

    fn shares_with(caps: &[f64], flows: &[Vec<LinkId>], scratch: &mut FairScratch) -> Vec<f64> {
        let mut rates = Vec::new();
        max_min_shares(caps, flows.len(), |f| &flows[f], scratch, &mut rates);
        rates
    }

    #[test]
    fn single_flow_gets_full_bottleneck_bandwidth() {
        let rates = shares(&[500.0, 80.0, 900.0], &[vec![l(0), l(1), l(2)]]);
        assert_eq!(rates, vec![80.0]);
    }

    #[test]
    fn equal_flows_split_a_shared_link_evenly() {
        let rates = shares(&[90.0], &[vec![l(0)], vec![l(0)], vec![l(0)]]);
        assert_eq!(rates, vec![30.0, 30.0, 30.0]);
    }

    #[test]
    fn classic_two_bottleneck_example() {
        // Flow 1 squeezed to 30 by link 1; flow 0 inherits the slack.
        let rates = shares(&[100.0, 30.0], &[vec![l(0)], vec![l(0), l(1)]]);
        assert_eq!(rates, vec![70.0, 30.0]);
    }

    #[test]
    fn parking_lot_topology() {
        // One long flow over links 0,1,2 (caps 10 each) against a short
        // flow on each link: every link splits 5/5.
        let rates = shares(
            &[10.0, 10.0, 10.0],
            &[vec![l(0), l(1), l(2)], vec![l(0)], vec![l(1)], vec![l(2)]],
        );
        assert_eq!(rates, vec![5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn no_flows_yields_no_rates() {
        let rates = shares(&[10.0], &[]);
        assert!(rates.is_empty());
    }

    /// A random instance: up to 6 links of capacity 10..1010 and up to 8
    /// flows, each over a duplicate-free random path.
    fn random_instance(rng: &mut Rng64) -> (Vec<f64>, Vec<Vec<LinkId>>) {
        let n_links = 1 + (rng.next_u64() % 6) as usize;
        let caps: Vec<f64> = (0..n_links)
            .map(|_| 10.0 + (rng.next_u64() % 1000) as f64)
            .collect();
        let n_flows = 1 + (rng.next_u64() % 8) as usize;
        let flows: Vec<Vec<LinkId>> = (0..n_flows)
            .map(|_| {
                let hops = 1 + (rng.next_u64() % n_links as u64) as usize;
                let mut path: Vec<usize> = (0..n_links).collect();
                // Deterministic partial shuffle for a duplicate-free path.
                for i in 0..hops {
                    let j = i + (rng.next_u64() as usize) % (n_links - i);
                    path.swap(i, j);
                }
                path[..hops].iter().map(|&i| l(i)).collect()
            })
            .collect();
        (caps, flows)
    }

    fn certify(caps: &[f64], flows: &[Vec<LinkId>], rates: &[f64]) -> Result<(), String> {
        let paths: Vec<&[LinkId]> = flows.iter().map(|f| f.as_slice()).collect();
        check_max_min(caps, &paths, rates)
    }

    /// Property sweep over random topologies: conservation (per-link sum
    /// of allocations never exceeds capacity), positivity, and bottleneck
    /// saturation (every flow crosses at least one link that is fully
    /// used — the defining property of max-min fairness).
    #[test]
    fn random_allocations_conserve_and_saturate() {
        let mut rng = Rng64::seed_from_u64(0x70_70_01);
        for case in 0..200 {
            let (caps, flows) = random_instance(&mut rng);
            let rates = shares(&caps, &flows);

            for &r in &rates {
                assert!(r >= 0.0 && r.is_finite(), "case {case}: rate {r}");
            }
            // Conservation: Σ allocations ≤ capacity on every link.
            for (li, &cap) in caps.iter().enumerate() {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(p, _)| p.contains(&l(li)))
                    .map(|(_, &r)| r)
                    .sum();
                assert!(
                    used <= cap * (1.0 + 1e-9),
                    "case {case}: link {li} oversubscribed: {used} > {cap}"
                );
            }
            // Bottleneck saturation: every flow is limited somewhere.
            for (fi, path) in flows.iter().enumerate() {
                let saturated = path.iter().any(|lk| {
                    let used: f64 = flows
                        .iter()
                        .zip(&rates)
                        .filter(|(p, _)| p.contains(lk))
                        .map(|(_, &r)| r)
                        .sum();
                    used >= caps[lk.index()] * (1.0 - 1e-9)
                });
                assert!(saturated, "case {case}: flow {fi} has no saturated link");
            }
        }
    }

    /// One scratch serves every instance, though link and flow counts
    /// vary between them: each result must equal a fresh-scratch call.
    #[test]
    fn certificate_accepts_progressive_filling_on_random_instances() {
        let mut scratch = FairScratch::default();
        for seed in 0..20u64 {
            let mut rng = Rng64::seed_from_u64(0xFA_1E_00 + seed);
            for case in 0..100 {
                let (caps, flows) = random_instance(&mut rng);
                let rates = shares_with(&caps, &flows, &mut scratch);
                assert_eq!(rates, shares(&caps, &flows), "seed {seed} case {case}");
                assert_eq!(
                    certify(&caps, &flows, &rates),
                    Ok(()),
                    "seed {seed} case {case}: caps {caps:?} flows {flows:?} rates {rates:?}"
                );
            }
        }
    }

    #[test]
    fn certificate_rejects_feasible_but_unfair_allocations() {
        let shared = [vec![l(0)], vec![l(0)]];
        assert_eq!(certify(&[100.0], &shared, &[50.0, 50.0]), Ok(()));
        // Saturated and within capacity, but flow 1 is below flow 0 on
        // its only link: it has no bottleneck.
        let unfair = certify(&[100.0], &shared, &[70.0, 30.0]).unwrap_err();
        assert!(unfair.contains("flow 1"), "{unfair}");
        // Classic two-bottleneck example: flow 0 must take link 0's slack.
        let two = [vec![l(0)], vec![l(0), l(1)]];
        assert_eq!(certify(&[100.0, 30.0], &two, &[70.0, 30.0]), Ok(()));
        let slack = certify(&[100.0, 30.0], &two, &[50.0, 30.0]).unwrap_err();
        assert!(slack.contains("flow 0"), "{slack}");
    }

    #[test]
    fn certificate_rejects_infeasible_and_malformed_allocations() {
        let shared = [vec![l(0)], vec![l(0)]];
        let over = certify(&[100.0], &shared, &[60.0, 60.0]).unwrap_err();
        assert!(over.contains("over its capacity"), "{over}");
        assert!(
            certify(&[100.0], &shared, &[40.0, 40.0]).is_err(),
            "idle slack"
        );
        assert!(certify(&[100.0], &shared, &[50.0]).is_err(), "missing rate");
        assert!(certify(&[100.0], &shared, &[f64::NAN, 50.0]).is_err());
        assert!(certify(&[100.0], &[vec![l(3)]], &[100.0]).is_err());
    }
}
