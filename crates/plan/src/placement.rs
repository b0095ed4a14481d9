//! Placements: the assignment of combination operators to hosts.
//!
//! A [`Placement`] maps every operator of a combination tree to one of the
//! participating hosts. The [`HostRoster`] pins the fixed endpoints — which
//! host each server's data lives on, and which host is the client — so a
//! placement only has freedom over the operators, exactly as in the paper.

use crate::ids::{HostId, NodeId, OperatorId};
use crate::tree::{CombinationTree, NodeKind};

/// The fixed host assignment: one host per server (data is not replicated)
/// plus the client host.
///
/// In the paper's configurations each server is its own host and the client
/// is a ninth host; the roster also supports servers sharing hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRoster {
    n_hosts: usize,
    client: HostId,
    server_hosts: Vec<HostId>,
}

/// Errors from roster or placement construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A host id was out of range for the roster.
    UnknownHost(HostId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::UnknownHost(h) => write!(f, "host {h} is not in the roster"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl HostRoster {
    /// Creates a roster of `n_hosts`, with the client on `client` and each
    /// server `s` on `server_hosts[s]`.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::UnknownHost`] if any host index is out of
    /// range.
    pub fn new(
        n_hosts: usize,
        client: HostId,
        server_hosts: Vec<HostId>,
    ) -> Result<Self, PlacementError> {
        if client.index() >= n_hosts {
            return Err(PlacementError::UnknownHost(client));
        }
        for &h in &server_hosts {
            if h.index() >= n_hosts {
                return Err(PlacementError::UnknownHost(h));
            }
        }
        Ok(HostRoster {
            n_hosts,
            client,
            server_hosts,
        })
    }

    /// The paper's canonical layout: `n_servers` hosts carrying one server
    /// each (hosts `0..n_servers`) plus a distinct client host (the last
    /// host).
    pub fn one_host_per_server(n_servers: usize) -> Self {
        HostRoster {
            n_hosts: n_servers + 1,
            client: HostId::new(n_servers),
            server_hosts: (0..n_servers).map(HostId::new).collect(),
        }
    }

    /// Total number of participating hosts.
    pub fn host_count(&self) -> usize {
        self.n_hosts
    }

    /// The client's host.
    pub fn client(&self) -> HostId {
        self.client
    }

    /// The host carrying server `s`'s data.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn server_host(&self, s: usize) -> HostId {
        self.server_hosts[s]
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.server_hosts.len()
    }

    /// Iterator over all host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> {
        (0..self.n_hosts).map(HostId::new)
    }
}

/// An assignment of every operator to a host.
///
/// # Examples
///
/// ```
/// use wadc_plan::ids::{HostId, OperatorId};
/// use wadc_plan::placement::{HostRoster, Placement};
/// use wadc_plan::tree::CombinationTree;
///
/// let tree = CombinationTree::complete_binary(4)?;
/// let roster = HostRoster::one_host_per_server(4);
/// // The paper's base case: every operator at the client ("download-all").
/// let p = Placement::download_all(&tree, &roster);
/// assert_eq!(p.site(OperatorId::new(0)), roster.client());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    sites: Vec<HostId>,
}

impl Placement {
    /// Places every operator of `tree` at `host`.
    pub fn all_at(tree: &CombinationTree, host: HostId) -> Self {
        Placement {
            sites: vec![host; tree.operator_count()],
        }
    }

    /// The "download-all" placement: all operators at the client. This is
    /// "currently the dominant mode of combining data over wide-area
    /// networks" and the paper's base case.
    pub fn download_all(tree: &CombinationTree, roster: &HostRoster) -> Self {
        Placement::all_at(tree, roster.client())
    }

    /// Host of an operator.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn site(&self, op: OperatorId) -> HostId {
        self.sites[op.index()]
    }

    /// Moves an operator to a new host.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn set_site(&mut self, op: OperatorId, host: HostId) {
        self.sites[op.index()] = host;
    }

    /// Number of operators covered.
    pub fn operator_count(&self) -> usize {
        self.sites.len()
    }

    /// Per-operator sites, indexable by [`OperatorId::index`].
    pub fn sites(&self) -> &[HostId] {
        &self.sites
    }

    /// The host of an arbitrary tree node under this placement: servers and
    /// the client resolve through the roster, operators through the
    /// placement.
    pub fn node_host(&self, tree: &CombinationTree, roster: &HostRoster, node: NodeId) -> HostId {
        match tree.node(node).kind {
            NodeKind::Server(s) => roster.server_host(s),
            NodeKind::Operator(op) => self.site(op),
            NodeKind::Client => roster.client(),
        }
    }

    /// Set of operators whose sites differ between `self` and `other`.
    pub fn diff(&self, other: &Placement) -> Vec<OperatorId> {
        self.sites
            .iter()
            .zip(&other.sites)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| OperatorId::new(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CombinationTree, HostRoster) {
        (
            CombinationTree::complete_binary(4).unwrap(),
            HostRoster::one_host_per_server(4),
        )
    }

    #[test]
    fn canonical_roster_layout() {
        let r = HostRoster::one_host_per_server(8);
        assert_eq!(r.host_count(), 9);
        assert_eq!(r.client(), HostId::new(8));
        assert_eq!(r.server_host(0), HostId::new(0));
        assert_eq!(r.server_count(), 8);
        assert_eq!(r.hosts().count(), 9);
    }

    #[test]
    fn roster_validates_hosts() {
        assert_eq!(
            HostRoster::new(2, HostId::new(5), vec![HostId::new(0)]),
            Err(PlacementError::UnknownHost(HostId::new(5)))
        );
        assert_eq!(
            HostRoster::new(2, HostId::new(1), vec![HostId::new(3)]),
            Err(PlacementError::UnknownHost(HostId::new(3)))
        );
    }

    #[test]
    fn download_all_puts_everything_at_client() {
        let (tree, roster) = setup();
        let p = Placement::download_all(&tree, &roster);
        for i in 0..tree.operator_count() {
            assert_eq!(p.site(OperatorId::new(i)), roster.client());
        }
    }

    #[test]
    fn node_host_resolves_all_kinds() {
        let (tree, roster) = setup();
        let mut p = Placement::download_all(&tree, &roster);
        p.set_site(OperatorId::new(0), HostId::new(1));
        assert_eq!(
            p.node_host(&tree, &roster, tree.server_nodes()[2]),
            HostId::new(2)
        );
        assert_eq!(
            p.node_host(&tree, &roster, tree.operator_node(OperatorId::new(0))),
            HostId::new(1)
        );
        assert_eq!(p.node_host(&tree, &roster, tree.root()), roster.client());
    }

    #[test]
    fn diff_lists_moved_operators() {
        let (tree, roster) = setup();
        let a = Placement::download_all(&tree, &roster);
        let mut b = a.clone();
        assert!(a.diff(&b).is_empty());
        b.set_site(OperatorId::new(1), HostId::new(0));
        b.set_site(OperatorId::new(2), HostId::new(3));
        assert_eq!(a.diff(&b), vec![OperatorId::new(1), OperatorId::new(2)]);
    }
}
