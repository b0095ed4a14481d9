//! Replica-aware planning — relaxing the paper's "data is not replicated"
//! assumption.
//!
//! The paper (§2): "we make three assumptions about the servers ... (3)
//! data is not replicated. The remaining assumptions can be relaxed — the
//! algorithms presented in this paper can be easily adapted to work
//! without them." This module is that adaptation for planning: when a
//! server's dataset exists on several hosts, the placement search also
//! chooses *which replica serves*, by the same critical-path hill-climb
//! that moves operators.
//!
//! The chosen binding is installed at startup (a static replica choice for
//! the run); on-line replica switching is left as future work, as the
//! paper left replication entirely.

use wadc_plan::bandwidth::BandwidthView;
use wadc_plan::cost::CostModel;
use wadc_plan::critical_path::{critical_path, placement_cost};
use wadc_plan::ids::HostId;
use wadc_plan::placement::{HostRoster, Placement, PlacementError};
use wadc_plan::tree::{CombinationTree, NodeKind};

use crate::algorithms::one_shot::{improve_placement, SearchResult};

/// The replica hosts available for each server's dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSet {
    /// `replicas[s]` lists every host holding server `s`'s data; the
    /// first entry is the primary.
    replicas: Vec<Vec<HostId>>,
}

impl ReplicaSet {
    /// Creates a replica set.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::WrongOperatorCount`] — reused for arity —
    /// if any server has no replica. (Host range validation happens when
    /// a roster is built.)
    pub fn new(replicas: Vec<Vec<HostId>>) -> Result<Self, PlacementError> {
        for (s, r) in replicas.iter().enumerate() {
            if r.is_empty() {
                return Err(PlacementError::WrongOperatorCount {
                    got: 0,
                    expected: s + 1,
                });
            }
        }
        Ok(ReplicaSet { replicas })
    }

    /// An unreplicated set: each server only on its primary host.
    pub fn unreplicated(primaries: &[HostId]) -> Self {
        ReplicaSet {
            replicas: primaries.iter().map(|&h| vec![h]).collect(),
        }
    }

    /// Number of servers covered.
    pub fn server_count(&self) -> usize {
        self.replicas.len()
    }

    /// The replica hosts of server `s` (primary first).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn replicas(&self, s: usize) -> &[HostId] {
        &self.replicas[s]
    }
}

/// The outcome of a replica-aware placement search.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaPlan {
    /// The chosen replica host per server.
    pub bindings: Vec<HostId>,
    /// The roster with servers bound to the chosen replicas.
    pub roster: HostRoster,
    /// The operator placement found under those bindings.
    pub search: SearchResult,
}

/// Jointly chooses replica bindings and an operator placement: alternate
/// between the paper's operator hill-climb and re-binding the server at
/// the foot of the critical path to its cheapest replica, until neither
/// step improves.
///
/// # Panics
///
/// Panics if `replica_set` does not cover the tree's servers, or a
/// replica host is outside `n_hosts`.
///
/// # Examples
///
/// ```
/// use wadc_core::replication::{choose_replicas, ReplicaSet};
/// use wadc_plan::bandwidth::BwMatrix;
/// use wadc_plan::cost::CostModel;
/// use wadc_plan::ids::HostId;
/// use wadc_plan::tree::CombinationTree;
///
/// let tree = CombinationTree::complete_binary(2)?;
/// // Hosts 0,1 = primaries, 2 = a replica of server 0, 3 = client.
/// let set = ReplicaSet::new(vec![
///     vec![HostId::new(0), HostId::new(2)],
///     vec![HostId::new(1)],
/// ])?;
/// let bw = BwMatrix::from_fn(4, |_, _| 50_000.0);
/// let plan = choose_replicas(&tree, &set, 4, HostId::new(3), &bw, &CostModel::paper_defaults());
/// assert_eq!(plan.bindings.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn choose_replicas(
    tree: &CombinationTree,
    replica_set: &ReplicaSet,
    n_hosts: usize,
    client: HostId,
    view: impl BandwidthView + Copy,
    model: &CostModel,
) -> ReplicaPlan {
    assert_eq!(
        replica_set.server_count(),
        tree.server_count(),
        "replica set must cover the tree's servers"
    );
    let mut bindings: Vec<HostId> = (0..tree.server_count())
        .map(|s| replica_set.replicas(s)[0])
        .collect();
    let roster_for = |b: &[HostId]| {
        HostRoster::new(n_hosts, client, b.to_vec()).expect("replica hosts within range")
    };

    let mut roster = roster_for(&bindings);
    let mut search = improve_placement(
        tree,
        &roster,
        Placement::download_all(tree, &roster),
        view,
        model,
    );
    loop {
        // Which server sits at the foot of the critical path?
        let cp = critical_path(tree, &roster, &search.placement, view, model);
        let NodeKind::Server(critical_server) = tree.node(cp.path[0]).kind else {
            break;
        };
        // Try every replica of that server; keep the cheapest binding.
        let mut best_cost = search.cost;
        let mut best: Option<(HostId, HostRoster, f64)> = None;
        for &candidate in replica_set.replicas(critical_server) {
            if candidate == bindings[critical_server] {
                continue;
            }
            let mut trial = bindings.clone();
            trial[critical_server] = candidate;
            let trial_roster = roster_for(&trial);
            let cost = placement_cost(tree, &trial_roster, &search.placement, view, model);
            if cost < best_cost * (1.0 - 1e-9) {
                best_cost = cost;
                best = Some((candidate, trial_roster, cost));
            }
        }
        match best {
            Some((host, new_roster, _)) => {
                bindings[critical_server] = host;
                roster = new_roster;
                // Re-run the operator search under the new binding.
                search = improve_placement(tree, &roster, search.placement, view, model);
            }
            None => break,
        }
    }
    ReplicaPlan {
        bindings,
        roster,
        search,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_plan::bandwidth::BwMatrix;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn unreplicated_set_keeps_primaries() {
        let tree = CombinationTree::complete_binary(4).unwrap();
        let set = ReplicaSet::unreplicated(&[h(0), h(1), h(2), h(3)]);
        let bw = BwMatrix::from_fn(5, |a, b| 1_000.0 + (a.index() * b.index()) as f64);
        let plan = choose_replicas(&tree, &set, 5, h(4), &bw, &CostModel::paper_defaults());
        assert_eq!(plan.bindings, vec![h(0), h(1), h(2), h(3)]);
    }

    #[test]
    fn critical_server_moves_to_its_fast_replica() {
        // Server 0's primary (host 0) is badly connected; its replica
        // (host 2) has fast links everywhere. The plan must bind server 0
        // to host 2.
        let tree = CombinationTree::complete_binary(2).unwrap();
        let set = ReplicaSet::new(vec![vec![h(0), h(2)], vec![h(1)]]).unwrap();
        let bw = BwMatrix::from_fn(4, |a, b| {
            if a == h(0) || b == h(0) {
                1_000.0
            } else {
                500_000.0
            }
        });
        let model = CostModel::paper_defaults();
        let plan = choose_replicas(&tree, &set, 4, h(3), &bw, &model);
        assert_eq!(plan.bindings[0], h(2), "replica rescue expected");
        // And the result is strictly better than the primary binding.
        let primary_roster = HostRoster::new(4, h(3), vec![h(0), h(1)]).unwrap();
        let primary = improve_placement(
            &tree,
            &primary_roster,
            Placement::download_all(&tree, &primary_roster),
            &bw,
            &model,
        );
        assert!(plan.search.cost < primary.cost * 0.5);
    }

    #[test]
    fn replication_never_hurts() {
        let tree = CombinationTree::complete_binary(4).unwrap();
        let model = CostModel::paper_defaults();
        for seed in 0..10u64 {
            let bw = BwMatrix::from_fn(7, |a, b| {
                let x = (a.index() as u64 + 3)
                    .wrapping_mul(b.index() as u64 + 7)
                    .wrapping_mul(seed | 1);
                1_000.0 + (x % 90_000) as f64
            });
            let primaries = vec![h(0), h(1), h(2), h(3)];
            // Hosts 4 and 5 hold replicas of servers 0 and 1.
            let set = ReplicaSet::new(vec![
                vec![h(0), h(4)],
                vec![h(1), h(5)],
                vec![h(2)],
                vec![h(3)],
            ])
            .unwrap();
            let replicated = choose_replicas(&tree, &set, 7, h(6), &bw, &model);
            let unreplicated = choose_replicas(
                &tree,
                &ReplicaSet::unreplicated(&primaries),
                7,
                h(6),
                &bw,
                &model,
            );
            assert!(
                replicated.search.cost <= unreplicated.search.cost + 1e-9,
                "seed {seed}: replication regressed"
            );
        }
    }

    #[test]
    fn empty_replica_list_rejected() {
        assert!(ReplicaSet::new(vec![vec![h(0)], vec![]]).is_err());
    }

    #[test]
    fn end_to_end_run_with_replica_bindings() {
        use crate::engine::{Algorithm, EngineConfig};
        use crate::experiment::Experiment;
        use std::sync::Arc;
        use wadc_app::image::SizeDistribution;
        use wadc_app::workload::WorkloadParams;
        use wadc_topo::link::LinkTable;
        use wadc_trace::model::BandwidthTrace;

        // 2 servers + 1 replica host + client = 4 hosts. Server 0's
        // primary link to everyone is dreadful; its replica is fast.
        let tree = CombinationTree::complete_binary(2).unwrap();
        let mut links = LinkTable::new(4);
        let slow = Arc::new(BandwidthTrace::constant(1_000.0));
        let fast = Arc::new(BandwidthTrace::constant(500_000.0));
        for a in 0..4 {
            for b in (a + 1)..4 {
                let tr = if a == 0 { slow.clone() } else { fast.clone() };
                links.set(h(a), h(b), tr);
            }
        }
        let set = ReplicaSet::new(vec![vec![h(0), h(2)], vec![h(1)]]).unwrap();
        let model = CostModel::for_image_bytes(16.0 * 1024.0);
        let plan = choose_replicas(
            &tree,
            &set,
            4,
            h(3),
            links.oracle_at(Default::default()),
            &model,
        );
        assert_eq!(plan.bindings[0], h(2));

        let cfg = EngineConfig::new(2, Algorithm::OneShot).with_workload(WorkloadParams {
            images_per_server: 4,
            sizes: SizeDistribution {
                mean_bytes: 16.0 * 1024.0,
                rel_std_dev: 0.0,
                aspect: 1.0,
            },
        });
        let r = Experiment::new(links, cfg)
            .with_tree(tree)
            .with_roster(plan.roster)
            .run(Algorithm::OneShot);
        assert!(r.completed);
        assert_eq!(r.images_delivered, 4);
        // Thanks to the replica, the slow host never carries an image.
        assert!(
            r.completion_time.as_secs_f64() < 10.0,
            "run should be fast off the replica, took {}",
            r.completion_time
        );
    }
}
