//! The one-shot placement algorithm (paper §2.1).
//!
//! "Initialization: all operators are placed at the client. Iterative step:
//! compute the critical path ... for each operator in K consider all
//! alternative locations ... if the cheapest alternative is at most the
//! best found, keep it; if the best found improves on the current
//! placement, adopt it" — repeated until no improvement. The same
//! procedure seeded with the *current* placement instead of
//! all-at-the-client is the re-planning step of the global algorithm
//! (paper §2.2).

use wadc_plan::bandwidth::{BandwidthView, DenseView};
use wadc_plan::cost::CostModel;
use wadc_plan::critical_path::{nic_occupancy, IncrementalCriticalPath};
use wadc_plan::ids::{HostId, OperatorId};
use wadc_plan::placement::{HostRoster, Placement};
use wadc_plan::tree::CombinationTree;

/// The objective a placement search minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// The paper's objective: the critical-path length.
    #[default]
    CriticalPath,
    /// Extension: max(critical path, busiest NIC occupancy), which also
    /// sees end-point congestion (see
    /// [`wadc_plan::critical_path::contended_placement_cost`]).
    Contended,
}

/// Minimum relative improvement for a move to be adopted; guards against
/// floating-point churn producing endless equal-cost oscillation.
const MIN_IMPROVEMENT: f64 = 1e-9;

/// Outcome of a placement search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The placement found.
    pub placement: Placement,
    /// Its estimated cost under the search's objective, seconds per
    /// partition.
    pub cost: f64,
    /// The cost of the initial placement under the same objective and
    /// view, priced before the first move.
    pub start_cost: f64,
    /// Number of improvement iterations performed.
    pub iterations: usize,
}

/// Reusable buffers for [`improve_placement`]: the dense bandwidth
/// snapshot, the incremental evaluator's two per-node caches, and the
/// critical-operator list. A run that re-plans repeatedly (the global
/// algorithm) or an arena that recycles run state across a study threads
/// one of these through every search; contents are rebuilt from the
/// inputs each time, so a warmed scratch changes no decision.
#[derive(Debug, Default)]
pub struct SearchScratch {
    dense: DenseView,
    node_hosts: Vec<HostId>,
    costs: Vec<f64>,
    cp_ops: Vec<OperatorId>,
}

impl SearchScratch {
    /// An empty (cold) scratch.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

/// Improves `initial` by iteratively relocating operators on the critical
/// path, until a local optimum. This is the paper's iterative step; with
/// `initial = Placement::download_all(..)` it is the one-shot algorithm,
/// with the running placement it is the global algorithm's re-planning
/// procedure.
///
/// The search scans the operators on the critical path (that is where the
/// candidate moves come from in the paper's algorithm) but scores
/// candidates by `objective`.
///
/// Hosts in `dead` are never considered as candidate sites: after a host
/// death the search runs over the surviving-host subgraph. Masking must
/// happen here, at candidate enumeration, because the cost model treats
/// unknown bandwidth as "pessimistic but reachable": a dead host hidden
/// only from the bandwidth view would still be selectable. The caller is
/// responsible for handing in an `initial` placement that no longer
/// resides operators on dead hosts (the engine re-homes orphans before
/// re-planning).
///
/// Working buffers come from `scratch`; a warmed scratch gives the same
/// result as a cold one.
#[allow(clippy::too_many_arguments)]
pub fn improve_placement(
    tree: &CombinationTree,
    roster: &HostRoster,
    initial: Placement,
    view: impl BandwidthView + Copy,
    model: &CostModel,
    objective: Objective,
    dead: &[HostId],
    scratch: &mut SearchScratch,
) -> SearchResult {
    // Snapshot the (possibly layered, hash-backed) view into a dense
    // matrix once: the scan below queries the same few host pairs
    // thousands of times. The snapshot returns exactly the same values,
    // so the search's decisions are unchanged.
    let mut dense = std::mem::take(&mut scratch.dense);
    dense.snapshot_into(roster.host_count(), view);
    let mut current = initial;
    let mut eval = IncrementalCriticalPath::new_in(
        tree,
        roster,
        &current,
        &dense,
        model,
        std::mem::take(&mut scratch.node_hosts),
        std::mem::take(&mut scratch.costs),
    );
    let nic_max = |placement: &Placement, dense: &DenseView| {
        nic_occupancy(tree, roster, placement, dense, model)
            .into_iter()
            .fold(0.0f64, f64::max)
    };
    let start_cost = match objective {
        Objective::CriticalPath => eval.root_cost(),
        Objective::Contended => eval.root_cost().max(nic_max(&current, &dense)),
    };
    let mut cost = start_cost;
    let mut iterations = 0;
    let mut cp_ops = std::mem::take(&mut scratch.cp_ops);
    loop {
        iterations += 1;
        eval.critical_operators(&mut cp_ops);
        // Scan every (operator on K) × (alternative host) pair; remember
        // the cheapest alternative move found this round. Candidates are
        // scored by an O(depth) incremental probe instead of a full
        // recompute; the probe is bit-identical to the full evaluation.
        let mut best_cost = cost;
        let mut best: Option<(OperatorId, HostId)> = None;
        for &op in &cp_ops {
            let original = current.site(op);
            for host in roster.hosts() {
                if host == original || dead.contains(&host) {
                    continue;
                }
                let c = match objective {
                    Objective::CriticalPath => eval.cost_if_moved(op, host),
                    Objective::Contended => {
                        current.set_site(op, host);
                        let nic = nic_max(&current, &dense);
                        current.set_site(op, original);
                        eval.cost_if_moved(op, host).max(nic)
                    }
                };
                if c < best_cost * (1.0 - MIN_IMPROVEMENT) {
                    best_cost = c;
                    best = Some((op, host));
                }
            }
        }
        match best {
            Some((op, host)) => {
                current.set_site(op, host);
                eval.apply_move(op, host);
                cost = best_cost;
            }
            None => break,
        }
    }
    let (node_hosts, costs) = eval.into_buffers();
    scratch.dense = dense;
    scratch.node_hosts = node_hosts;
    scratch.costs = costs;
    scratch.cp_ops = cp_ops;
    SearchResult {
        placement: current,
        cost,
        start_cost,
        iterations,
    }
}

/// The one-shot algorithm: run once at the beginning of the computation,
/// starting from the download-all placement.
///
/// # Examples
///
/// ```
/// use wadc_core::algorithms::one_shot::one_shot_placement;
/// use wadc_plan::bandwidth::BwMatrix;
/// use wadc_plan::cost::CostModel;
/// use wadc_plan::placement::HostRoster;
/// use wadc_plan::tree::CombinationTree;
///
/// let tree = CombinationTree::complete_binary(4)?;
/// let roster = HostRoster::one_host_per_server(4);
/// let bw = BwMatrix::from_fn(5, |_, _| 64_000.0);
/// let result = one_shot_placement(&tree, &roster, &bw, &CostModel::paper_defaults());
/// assert!(result.cost > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn one_shot_placement(
    tree: &CombinationTree,
    roster: &HostRoster,
    view: impl BandwidthView + Copy,
    model: &CostModel,
) -> SearchResult {
    improve_placement(
        tree,
        roster,
        Placement::download_all(tree, roster),
        view,
        model,
        Objective::CriticalPath,
        &[],
        &mut SearchScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_plan::bandwidth::{BwMatrix, MaskedView};
    use wadc_plan::critical_path::{contended_placement_cost, critical_path, placement_cost};
    use wadc_plan::ids::HostId;
    use wadc_sim::rng::Rng64;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    fn setup(n: usize) -> (CombinationTree, HostRoster, CostModel) {
        (
            CombinationTree::complete_binary(n).unwrap(),
            HostRoster::one_host_per_server(n),
            CostModel::paper_defaults(),
        )
    }

    #[test]
    fn never_worse_than_download_all() {
        let (tree, roster, model) = setup(8);
        let bw = BwMatrix::from_fn(9, |a, b| {
            5_000.0 + ((a.index() * 31 + b.index() * 17) % 97) as f64 * 2_000.0
        });
        let da = placement_cost(
            &tree,
            &roster,
            &Placement::download_all(&tree, &roster),
            &bw,
            &model,
        );
        let result = one_shot_placement(&tree, &roster, &bw, &model);
        assert!(result.cost <= da + 1e-9);
    }

    #[test]
    fn result_cost_is_consistent() {
        let (tree, roster, model) = setup(8);
        let bw = BwMatrix::from_fn(9, |a, b| {
            10_000.0 * (1 + (a.index() + b.index()) % 5) as f64
        });
        let r = one_shot_placement(&tree, &roster, &bw, &model);
        let recomputed = placement_cost(&tree, &roster, &r.placement, &bw, &model);
        assert!((r.cost - recomputed).abs() < 1e-9);
    }

    #[test]
    fn fixed_point_is_locally_optimal_on_critical_path() {
        let (tree, roster, model) = setup(8);
        let bw = BwMatrix::from_fn(9, |a, b| {
            3_000.0 + ((a.index() * 13 + b.index() * 7) % 53) as f64 * 4_000.0
        });
        let r = one_shot_placement(&tree, &roster, &bw, &model);
        let cp = critical_path(&tree, &roster, &r.placement, &bw, &model);
        // No single move of a critical-path operator improves the cost.
        let mut p = r.placement.clone();
        for op in cp.operators(&tree) {
            let original = p.site(op);
            for host in roster.hosts() {
                p.set_site(op, host);
                let c = placement_cost(&tree, &roster, &p, &bw, &model);
                assert!(
                    c >= r.cost * (1.0 - 1e-9),
                    "move of {op} to {host} improves a supposed fixed point"
                );
            }
            p.set_site(op, original);
        }
    }

    #[test]
    fn routes_around_a_slow_client_link() {
        // Server 1 can only reach the client slowly, but reaches host 0
        // quickly; the operator combining servers 0 and 1 should leave the
        // client.
        let (tree, roster, model) = setup(2);
        let mut bw = BwMatrix::new(3);
        bw.set(h(0), h(2), 80_000.0);
        bw.set(h(1), h(2), 1_000.0);
        bw.set(h(0), h(1), 800_000.0);
        let r = one_shot_placement(&tree, &roster, &bw, &model);
        let op = wadc_plan::ids::OperatorId::new(0);
        assert_ne!(r.placement.site(op), roster.client());
        assert_eq!(r.placement.site(op), h(0), "host 0 minimises the path");
    }

    #[test]
    fn uniform_fast_network_keeps_placement_cheap() {
        // With uniform bandwidth, download-all is already near-optimal in
        // the critical-path metric; the search must terminate quickly and
        // not thrash.
        let (tree, roster, model) = setup(8);
        let bw = BwMatrix::from_fn(9, |_, _| 1_000_000.0);
        let r = one_shot_placement(&tree, &roster, &bw, &model);
        assert!(r.iterations <= 10, "search should converge fast");
    }

    #[test]
    fn improve_from_current_never_regresses() {
        let (tree, roster, model) = setup(8);
        let bw = BwMatrix::from_fn(9, |a, b| {
            2_000.0 + ((a.index() * 41 + b.index() * 3) % 29) as f64 * 9_000.0
        });
        // Start from an arbitrary placement (as the global algorithm does).
        let mut start = Placement::download_all(&tree, &roster);
        for i in 0..tree.operator_count() {
            start.set_site(
                wadc_plan::ids::OperatorId::new(i),
                h(i % roster.host_count()),
            );
        }
        let before = placement_cost(&tree, &roster, &start, &bw, &model);
        let r = improve_placement(
            &tree,
            &roster,
            start,
            &bw,
            &model,
            Objective::CriticalPath,
            &[],
            &mut SearchScratch::new(),
        );
        assert!(r.cost <= before + 1e-9);
    }

    #[test]
    fn masked_search_never_places_on_dead_hosts() {
        let (tree, roster, model) = setup(8);
        // Host 0 has by far the best links — the unmasked search uses it.
        let bw = BwMatrix::from_fn(9, |a, b| {
            if a.index() == 0 || b.index() == 0 {
                900_000.0
            } else {
                2_000.0 + ((a.index() * 31 + b.index() * 17) % 97) as f64 * 1_500.0
            }
        });
        let search = |dead: &[HostId]| {
            improve_placement(
                &tree,
                &roster,
                Placement::download_all(&tree, &roster),
                &bw,
                &model,
                Objective::CriticalPath,
                dead,
                &mut SearchScratch::new(),
            )
        };
        let free = search(&[]);
        assert!(
            (0..tree.operator_count())
                .any(|i| free.placement.site(wadc_plan::ids::OperatorId::new(i)) == h(0)),
            "unmasked search should exploit the fast host"
        );
        let masked = search(&[h(0)]);
        for i in 0..tree.operator_count() {
            assert_ne!(
                masked.placement.site(wadc_plan::ids::OperatorId::new(i)),
                h(0),
                "operator {i} placed on a dead host"
            );
        }
    }

    /// Prices `placement` with the full evaluator of `objective`.
    fn full_price(
        objective: Objective,
        tree: &CombinationTree,
        roster: &HostRoster,
        placement: &Placement,
        view: impl BandwidthView + Copy,
        model: &CostModel,
    ) -> f64 {
        match objective {
            Objective::CriticalPath => placement_cost(tree, roster, placement, view, model),
            Objective::Contended => contended_placement_cost(tree, roster, placement, view, model),
        }
    }

    /// `start_cost` is bit-identical to pricing the start placement with
    /// the full evaluator under the same view: the engine records it as
    /// the audit log's `cost_before`.
    #[test]
    fn start_cost_is_the_full_price_of_the_start() {
        let (tree, roster, model) = setup(8);
        let mut rng = Rng64::seed_from_u64(18);
        let mut scratch = SearchScratch::new();
        for case in 0..40 {
            let bw = BwMatrix::from_fn(roster.host_count(), |_, _| {
                rng.range_f64(1_000.0, 900_000.0)
            });
            let mut start = Placement::download_all(&tree, &roster);
            for i in 0..tree.operator_count() {
                let host = HostId::new(rng.range_usize(roster.host_count()));
                start.set_site(OperatorId::new(i), host);
            }
            // A dead server, with the start re-homed off it as the engine
            // re-homes orphans before re-planning.
            let dead = HostId::new(rng.range_usize(roster.host_count() - 1));
            let mut rehomed = start.clone();
            for i in 0..tree.operator_count() {
                if rehomed.site(OperatorId::new(i)) == dead {
                    rehomed.set_site(OperatorId::new(i), roster.client());
                }
            }
            let masked = MaskedView::new(&bw, roster.host_count(), [dead]);
            for objective in [Objective::CriticalPath, Objective::Contended] {
                let clean = improve_placement(
                    &tree,
                    &roster,
                    start.clone(),
                    &bw,
                    &model,
                    objective,
                    &[],
                    &mut scratch,
                );
                let expected = full_price(objective, &tree, &roster, &start, &bw, &model);
                assert_eq!(
                    clean.start_cost.to_bits(),
                    expected.to_bits(),
                    "case {case}, {objective:?}, no dead host"
                );
                let survivors = improve_placement(
                    &tree,
                    &roster,
                    rehomed.clone(),
                    &masked,
                    &model,
                    objective,
                    &[dead],
                    &mut scratch,
                );
                let expected = full_price(objective, &tree, &roster, &rehomed, &masked, &model);
                assert_eq!(
                    survivors.start_cost.to_bits(),
                    expected.to_bits(),
                    "case {case}, {objective:?}, {dead} dead"
                );
            }
        }
    }

    #[test]
    fn left_deep_trees_are_searchable_too() {
        let tree = CombinationTree::left_deep(6).unwrap();
        let roster = HostRoster::one_host_per_server(6);
        let model = CostModel::paper_defaults();
        let bw = BwMatrix::from_fn(7, |a, b| {
            4_000.0 + ((a.index() + 2 * b.index()) % 11) as f64 * 11_000.0
        });
        let da = placement_cost(
            &tree,
            &roster,
            &Placement::download_all(&tree, &roster),
            &bw,
            &model,
        );
        let r = one_shot_placement(&tree, &roster, &bw, &model);
        assert!(r.cost <= da + 1e-9);
    }
}
