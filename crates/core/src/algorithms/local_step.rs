//! The local algorithm's per-operator relocation decision (paper §2.3).
//!
//! "The local critical path for an operator is defined as the longest path
//! from either of its producers to its consumer. It considers the locations
//! of the two producers, location of the consumer and the current location
//! as alternative sites for the operator in question and picks the location
//! that minimizes the local critical path." The Figure 7 experiment extends
//! the candidate set with up to `k` additional randomly chosen hosts.
//!
//! This module is the pure decision function; the epoch/wavefront machinery
//! that decides *when* to invoke it lives in the engine.

use wadc_plan::bandwidth::BandwidthView;
use wadc_plan::cost::CostModel;
use wadc_plan::ids::HostId;

/// The local neighbourhood an operator can see.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalContext {
    /// Hosts of the operator's producers (its two children).
    pub producers: Vec<HostId>,
    /// Host of the operator's consumer (its parent).
    pub consumer: HostId,
    /// The operator's current host.
    pub current: HostId,
    /// Extra randomly drawn candidate hosts (the paper's `k` additional
    /// locations; empty in the base algorithm).
    pub extra_candidates: Vec<HostId>,
}

/// A relocation decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalDecision {
    /// The chosen site (== the current site when no candidate improves).
    pub site: HostId,
    /// The local critical path cost at the chosen site.
    pub cost: f64,
    /// The local critical path cost at the current site.
    pub current_cost: f64,
}

impl LocalDecision {
    /// Returns `true` if the decision relocates the operator.
    pub fn moves(&self) -> bool {
        self.cost < self.current_cost
    }
}

/// The local critical path through a candidate site: the slowest
/// producer-to-candidate edge plus the candidate-to-consumer edge (the
/// operator's own compute cost is site-independent and cancels).
pub fn local_path_cost(
    ctx: &LocalContext,
    candidate: HostId,
    view: impl BandwidthView + Copy,
    model: &CostModel,
) -> f64 {
    let slowest_in = ctx
        .producers
        .iter()
        .map(|&p| model.edge_cost(view, p, candidate))
        .fold(0.0f64, f64::max);
    slowest_in + model.edge_cost(view, candidate, ctx.consumer)
}

/// Picks the candidate site minimising the local critical path. Ties favour
/// the current site (no gratuitous moves), then earlier candidates in the
/// order {current, producers…, consumer, extras…}.
pub fn best_local_site(
    ctx: &LocalContext,
    view: impl BandwidthView + Copy,
    model: &CostModel,
) -> LocalDecision {
    let current_cost = local_path_cost(ctx, ctx.current, view, model);
    let mut best = ctx.current;
    let mut best_cost = current_cost;
    let candidates = ctx
        .producers
        .iter()
        .chain(std::iter::once(&ctx.consumer))
        .chain(ctx.extra_candidates.iter());
    for &cand in candidates {
        if cand == best {
            continue;
        }
        let c = local_path_cost(ctx, cand, view, model);
        if c < best_cost * (1.0 - 1e-9) {
            best = cand;
            best_cost = c;
        }
    }
    LocalDecision {
        site: best,
        cost: best_cost,
        current_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_plan::bandwidth::BwMatrix;
    use wadc_plan::ids::pairs;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn ctx(producers: &[usize], consumer: usize, current: usize) -> LocalContext {
        LocalContext {
            producers: producers.iter().copied().map(h).collect(),
            consumer: h(consumer),
            current: h(current),
            extra_candidates: Vec::new(),
        }
    }

    #[test]
    fn stays_put_when_current_is_best() {
        // Uniform bandwidth: sitting at the consumer leaves only the input
        // edges (taken as a max), which no other site can beat — moving to
        // a producer would add an output edge. Current = consumer site →
        // no move.
        let bw = BwMatrix::from_fn(4, |_, _| 50_000.0);
        let model = CostModel::paper_defaults();
        let d = best_local_site(&ctx(&[0, 1], 2, 2), &bw, &model);
        assert!(!d.moves());
        assert_eq!(d.site, h(2));
        assert_eq!(d.cost, d.current_cost);
    }

    #[test]
    fn consumer_site_beats_producer_site_under_uniform_bandwidth() {
        // From a producer site the path pays an input max plus an output
        // edge; from the consumer site only the input max. The decision
        // should move a producer-sited operator to its consumer.
        let bw = BwMatrix::from_fn(4, |_, _| 50_000.0);
        let model = CostModel::paper_defaults();
        let d = best_local_site(&ctx(&[0, 1], 2, 0), &bw, &model);
        assert!(d.moves());
        assert_eq!(d.site, h(2));
    }

    #[test]
    fn moves_to_consumer_when_output_link_is_slow() {
        let model = CostModel::paper_defaults();
        let mut bw = BwMatrix::new(4);
        // producers 0,1; consumer 2; current 3.
        bw.set(h(0), h(3), 100_000.0);
        bw.set(h(1), h(3), 100_000.0);
        bw.set(h(3), h(2), 1_000.0); // slow output edge from current site
        bw.set(h(0), h(2), 100_000.0);
        bw.set(h(1), h(2), 100_000.0);
        bw.set(h(0), h(1), 100_000.0);
        let d = best_local_site(&ctx(&[0, 1], 2, 3), &bw, &model);
        assert!(d.moves());
        assert_eq!(d.site, h(2), "moving to the consumer removes the slow edge");
    }

    #[test]
    fn escapes_a_doubly_slow_site() {
        // Producer 1 is behind a slow link from everywhere. From the
        // current site (3) the path pays the slow input AND a fast output
        // edge; from the consumer site it pays only the slow input — the
        // one unavoidable cost. The operator should move to the consumer.
        let model = CostModel::paper_defaults();
        let mut bw = BwMatrix::new(4);
        for (a, b) in [(0, 2), (0, 3), (2, 3)] {
            bw.set(h(a), h(b), 200_000.0);
        }
        for x in [0, 2, 3] {
            bw.set(h(1), h(x), 2_000.0);
        }
        let d = best_local_site(&ctx(&[0, 1], 2, 3), &bw, &model);
        assert!(d.moves());
        assert_eq!(d.site, h(2));
        // And the slow edge is indeed the floor: no site beats one slow edge.
        let slow_edge = model.edge_cost(&bw, h(1), h(2));
        assert!((d.cost - slow_edge).abs() < 1e-9);
    }

    #[test]
    fn extra_candidates_can_win() {
        let model = CostModel::paper_defaults();
        // All neighbourhood links slow; host 4 has fast links to everyone.
        let mut bw = BwMatrix::new(5);
        for (a, b) in pairs(4) {
            bw.set(a, b, 2_000.0);
        }
        for x in 0..4usize {
            bw.set(h(4), h(x), 1_000_000.0);
        }
        let mut c = ctx(&[0, 1], 2, 3);
        let without = best_local_site(&c, &bw, &model);
        c.extra_candidates.push(h(4));
        let with = best_local_site(&c, &bw, &model);
        assert!(with.cost < without.cost);
        assert_eq!(with.site, h(4));
    }

    #[test]
    fn local_path_cost_matches_hand_computation() {
        let model = CostModel::paper_defaults();
        let mut bw = BwMatrix::new(4);
        bw.set(h(0), h(3), 131_072.0); // 1 s data + startup
        bw.set(h(1), h(3), 65_536.0); // 2 s data + startup
        bw.set(h(3), h(2), 131_072.0);
        let c = ctx(&[0, 1], 2, 3);
        let cost = local_path_cost(&c, h(3), &bw, &model);
        // slowest in: 0.05 + 2.0; out: 0.05 + 1.0.
        assert!((cost - 3.1).abs() < 1e-9);
    }

    #[test]
    fn decision_never_exceeds_current_cost() {
        let model = CostModel::paper_defaults();
        for seed in 0..20u64 {
            let bw = BwMatrix::from_fn(6, |a, b| {
                1_000.0
                    + ((a.index() as u64 * 7 + b.index() as u64 * 13 + seed * 31) % 100) as f64
                        * 5_000.0
            });
            let mut c = ctx(&[0, 1], 2, 3);
            c.extra_candidates = vec![h(4), h(5)];
            let d = best_local_site(&c, &bw, &model);
            assert!(d.cost <= d.current_cost + 1e-12);
        }
    }
}
