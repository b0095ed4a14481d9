//! Bandwidth-aware combination ordering.
//!
//! The paper distinguishes two adaptation levers: changing the *order* of
//! combination operations (the query-scrambling lineage) and changing
//! their *location* (its contribution). Its experiments use two fixed,
//! bandwidth-oblivious orders — the complete binary tree and the left-deep
//! tree. This module adds the natural bandwidth-*aware* ordering as an
//! extension: a greedy bottom-up pairing (Huffman-style) that repeatedly
//! combines the two partial results whose hosts enjoy the best mutual
//! bandwidth, producing a binary tree whose structure already reflects the
//! network. The ablation bench compares ordering-only, relocation-only,
//! and both.

use crate::bandwidth::BandwidthView;
use crate::ids::{HostId, NodeId};
use crate::placement::HostRoster;
use crate::tree::{Builder, CombinationTree, TreeError, TreeShape};

/// Builds a binary combination tree over the roster's servers by greedy
/// bandwidth-aware pairing: at every step, the two clusters whose
/// representative hosts have the highest bandwidth between them are
/// combined. The cluster's representative after a merge is the member
/// with the best bandwidth to the client (the side the result must
/// eventually travel toward).
///
/// Unknown links rank below all measured ones.
///
/// # Errors
///
/// Returns [`TreeError::TooFewServers`] if the roster has fewer than two
/// servers.
///
/// # Examples
///
/// ```
/// use wadc_plan::bandwidth::BwMatrix;
/// use wadc_plan::ordering::bandwidth_aware_binary;
/// use wadc_plan::placement::HostRoster;
///
/// let roster = HostRoster::one_host_per_server(4);
/// let bw = BwMatrix::from_fn(5, |a, b| (a.index() + b.index()) as f64 * 1000.0);
/// let tree = bandwidth_aware_binary(&roster, &bw)?;
/// assert_eq!(tree.server_count(), 4);
/// # Ok::<(), wadc_plan::tree::TreeError>(())
/// ```
pub fn bandwidth_aware_binary(
    roster: &HostRoster,
    view: impl BandwidthView + Copy,
) -> Result<CombinationTree, TreeError> {
    let n = roster.server_count();
    if n < 2 {
        return Err(TreeError::TooFewServers);
    }

    // Cluster = (representative host, nesting of its servers). Pairing
    // order determines the nesting, which the tree builder then assembles.
    #[derive(Clone)]
    struct Cluster {
        rep: HostId,
        merge: Merge,
    }
    #[derive(Clone)]
    enum Merge {
        Leaf(usize),
        Node(Box<Merge>, Box<Merge>),
    }

    let bw_or = |a: HostId, b: HostId| view.bandwidth(a, b).unwrap_or(0.0);
    let client = roster.client();

    let mut clusters: Vec<Cluster> = (0..n)
        .map(|s| Cluster {
            rep: roster.server_host(s),
            merge: Merge::Leaf(s),
        })
        .collect();

    while clusters.len() > 1 {
        // Find the best pair (i, j), i < j; deterministic tie-break on
        // indices keeps the construction reproducible.
        let (mut bi, mut bj, mut best) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let bw = bw_or(clusters[i].rep, clusters[j].rep);
                if bw > best {
                    best = bw;
                    bi = i;
                    bj = j;
                }
            }
        }
        let right = clusters.remove(bj);
        let left = clusters.remove(bi);
        let rep = if bw_or(left.rep, client) >= bw_or(right.rep, client) {
            left.rep
        } else {
            right.rep
        };
        clusters.push(Cluster {
            rep,
            merge: Merge::Node(Box::new(left.merge), Box::new(right.merge)),
        });
    }

    fn build(merge: &Merge, b: &mut Builder) -> NodeId {
        match merge {
            Merge::Leaf(s) => b.server(*s),
            Merge::Node(l, r) => {
                let left = build(l, b);
                let right = build(r, b);
                b.operator(left, right)
            }
        }
    }
    let mut b = Builder::new(n);
    let top = build(&clusters[0].merge, &mut b);
    Ok(b.finish(top, TreeShape::Custom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::BwMatrix;
    use crate::tree::NodeKind;

    fn h(i: usize) -> HostId {
        HostId::new(i)
    }

    #[test]
    fn produces_valid_trees_for_all_sizes() {
        for n in 2..=16 {
            let roster = HostRoster::one_host_per_server(n);
            let bw = BwMatrix::from_fn(n + 1, |a, b| {
                1000.0 + ((a.index() * 7 + b.index() * 13) % 50) as f64
            });
            let tree = bandwidth_aware_binary(&roster, &bw).unwrap();
            tree.check_invariants().unwrap();
            assert_eq!(tree.server_count(), n);
            assert_eq!(tree.operator_count(), n - 1);
        }
    }

    #[test]
    fn pairs_the_fastest_link_first() {
        // Servers 1 and 2 share a fast link; everyone else is slow. The
        // bottom of the tree must combine 1 and 2 directly.
        let roster = HostRoster::one_host_per_server(4);
        let mut bw = BwMatrix::from_fn(5, |_, _| 1_000.0);
        bw.set(h(1), h(2), 1_000_000.0);
        let tree = bandwidth_aware_binary(&roster, &bw).unwrap();
        // Find the operator whose children are exactly servers 1 and 2.
        let found = tree.operator_nodes().iter().any(|&opn| {
            let servers: Vec<usize> = tree
                .node(opn)
                .children
                .iter()
                .filter_map(|&c| match tree.node(c).kind {
                    NodeKind::Server(s) => Some(s),
                    _ => None,
                })
                .collect();
            servers.len() == 2 && servers.contains(&1) && servers.contains(&2)
        });
        assert!(found, "fast pair (1,2) should be combined first");
    }

    #[test]
    fn rejects_single_server() {
        let roster = HostRoster::one_host_per_server(1);
        let bw = BwMatrix::new(2);
        assert_eq!(
            bandwidth_aware_binary(&roster, &bw).err(),
            Some(TreeError::TooFewServers)
        );
    }

    #[test]
    fn deterministic_for_fixed_inputs() {
        let roster = HostRoster::one_host_per_server(8);
        let bw = BwMatrix::from_fn(9, |a, b| ((a.index() * 31 + b.index() * 17) % 97) as f64);
        let a = bandwidth_aware_binary(&roster, &bw).unwrap();
        let b = bandwidth_aware_binary(&roster, &bw).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_links_rank_last() {
        // Only (0,3) measured; it must be the first merge.
        let roster = HostRoster::one_host_per_server(4);
        let mut bw = BwMatrix::new(5);
        bw.set(h(0), h(3), 10.0);
        let tree = bandwidth_aware_binary(&roster, &bw).unwrap();
        let first_op = tree.operator_nodes()[0];
        let servers: Vec<usize> = tree
            .node(first_op)
            .children
            .iter()
            .filter_map(|&c| match tree.node(c).kind {
                NodeKind::Server(s) => Some(s),
                _ => None,
            })
            .collect();
        assert!(servers.contains(&0) && servers.contains(&3));
    }

    #[test]
    fn every_server_appears_exactly_once() {
        let roster = HostRoster::one_host_per_server(9);
        let bw = BwMatrix::from_fn(10, |a, b| (a.index() ^ b.index()) as f64 + 1.0);
        let tree = bandwidth_aware_binary(&roster, &bw).unwrap();
        let mut seen = vec![false; 9];
        for i in 0..tree.nodes().len() {
            if let NodeKind::Server(s) = tree.node(NodeId::new(i)).kind {
                assert!(!seen[s], "server {s} duplicated");
                seen[s] = true;
            }
        }
        assert!(seen.into_iter().all(|x| x));
    }
}
