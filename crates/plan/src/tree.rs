//! Combination trees.
//!
//! The order of combination operations is "represented as a data-flow tree"
//! with "the servers as the leaves, combination operators as internal nodes
//! and the client as the root". This module provides the tree structure and
//! the two orderings the paper studies: the **complete binary tree**
//! (maximally bushy) and the **left-deep tree** (linear, the shape of
//! classic database query plans — Figure 5).

use crate::ids::{NodeId, OperatorId};

/// What a tree node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A data server — a leaf. The payload is the server index
    /// (0-based, dense).
    Server(usize),
    /// A combination operator — an internal node, the unit of relocation.
    Operator(OperatorId),
    /// The client — the root, the final destination of combined data.
    Client,
}

/// One node of a combination tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// What the node is.
    pub kind: NodeKind,
    /// Parent node (`None` only for the client root).
    pub parent: Option<NodeId>,
    /// Child nodes (producers). Empty for servers; exactly one for the
    /// client; two for binary combination operators.
    pub children: Vec<NodeId>,
    /// Operator level for epoch staggering: operators whose producers are
    /// all servers are level 0; a parent operator is one level above its
    /// highest child. Servers are level 0 as well (unused); the client is
    /// one above the top operator.
    pub level: usize,
}

/// Errors from tree construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// Fewer than two servers were requested; combination needs at least two.
    TooFewServers,
    /// [`TreeShape::Custom`] trees cannot be built from a shape alone; use
    /// a dedicated constructor such as
    /// [`crate::ordering::bandwidth_aware_binary`].
    CustomShape,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::TooFewServers => write!(f, "a combination tree needs at least two servers"),
            TreeError::CustomShape => {
                write!(f, "custom-shaped trees need an explicit constructor")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// The shape of the combination ordering, as compared in the paper's
/// Figure 10 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TreeShape {
    /// Maximally bushy: pairs combined in a balanced binary tree. The
    /// paper's default and the shape that adapts best.
    #[default]
    CompleteBinary,
    /// Linear: each operator combines the previous result with the next
    /// server, as in database left-deep query plans.
    LeftDeep,
    /// A tree built by a dedicated constructor (e.g. the bandwidth-aware
    /// ordering in [`crate::ordering`]) rather than from the shape alone.
    Custom,
}

/// A data-flow combination tree: server leaves, binary combination
/// operators, client root.
///
/// # Examples
///
/// ```
/// use wadc_plan::tree::{CombinationTree, TreeShape};
///
/// let t = CombinationTree::build(TreeShape::CompleteBinary, 8)?;
/// assert_eq!(t.server_count(), 8);
/// assert_eq!(t.operator_count(), 7); // n - 1 binary operators
/// assert_eq!(t.depth(), 3); // three operator levels for 8 servers
/// # Ok::<(), wadc_plan::tree::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinationTree {
    nodes: Vec<TreeNode>,
    root: NodeId,
    operator_nodes: Vec<NodeId>,
    server_nodes: Vec<NodeId>,
    shape: TreeShape,
}

impl CombinationTree {
    /// Builds a combination tree of the given shape over `n_servers`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::TooFewServers`] if `n_servers < 2`.
    pub fn build(shape: TreeShape, n_servers: usize) -> Result<Self, TreeError> {
        if n_servers < 2 {
            return Err(TreeError::TooFewServers);
        }
        let mut b = Builder::new(n_servers);
        let top = match shape {
            TreeShape::Custom => return Err(TreeError::CustomShape),
            TreeShape::CompleteBinary => b.balanced(0, n_servers),
            TreeShape::LeftDeep => {
                let mut acc = b.server(0);
                for s in 1..n_servers {
                    let right = b.server(s);
                    acc = b.operator(acc, right);
                }
                acc
            }
        };
        Ok(b.finish(top, shape))
    }

    /// Convenience: a complete binary tree over `n_servers`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::TooFewServers`] if `n_servers < 2`.
    pub fn complete_binary(n_servers: usize) -> Result<Self, TreeError> {
        Self::build(TreeShape::CompleteBinary, n_servers)
    }

    /// Convenience: a left-deep tree over `n_servers`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::TooFewServers`] if `n_servers < 2`.
    pub fn left_deep(n_servers: usize) -> Result<Self, TreeError> {
        Self::build(TreeShape::LeftDeep, n_servers)
    }

    /// The shape this tree was built with.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// The client root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this tree.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id.index()]
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of server leaves.
    pub fn server_count(&self) -> usize {
        self.server_nodes.len()
    }

    /// Number of combination operators (always `server_count() - 1`).
    pub fn operator_count(&self) -> usize {
        self.operator_nodes.len()
    }

    /// Node ids of the server leaves, ordered by server index.
    pub fn server_nodes(&self) -> &[NodeId] {
        &self.server_nodes
    }

    /// Node ids of the operators, ordered by [`OperatorId`].
    pub fn operator_nodes(&self) -> &[NodeId] {
        &self.operator_nodes
    }

    /// The node of an operator.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn operator_node(&self, op: OperatorId) -> NodeId {
        self.operator_nodes[op.index()]
    }

    /// The operator at the given node, or `None` if the node is not an
    /// operator.
    pub fn operator_at(&self, id: NodeId) -> Option<OperatorId> {
        match self.node(id).kind {
            NodeKind::Operator(op) => Some(op),
            _ => None,
        }
    }

    /// Number of operator levels (1 for two servers; `log2 n` for a
    /// complete binary tree; `n - 1` for a left-deep tree).
    pub fn depth(&self) -> usize {
        self.operator_nodes
            .iter()
            .map(|&n| self.node(n).level + 1)
            .max()
            .unwrap_or(0)
    }

    /// Level of an operator (0 = producers are all servers).
    pub fn operator_level(&self, op: OperatorId) -> usize {
        self.node(self.operator_node(op)).level
    }

    /// Nodes in post-order (children before parents), ending at the root.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                out.push(n);
            } else {
                stack.push((n, true));
                for &c in self.node(n).children.iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        out
    }

    /// Validates internal structural invariants; used by tests and
    /// debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.server_count();
        if self.operator_count() != n - 1 {
            return Err(format!(
                "expected {} operators for {n} servers, found {}",
                n - 1,
                self.operator_count()
            ));
        }
        let root_node = self.node(self.root);
        if root_node.kind != NodeKind::Client || root_node.parent.is_some() {
            return Err("root must be the parentless client".into());
        }
        if root_node.children.len() != 1 {
            return Err("client must consume exactly one operator".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId::new(i);
            match node.kind {
                NodeKind::Server(_) if !node.children.is_empty() => {
                    return Err(format!("server {id} has children"));
                }
                NodeKind::Operator(_) if node.children.len() != 2 => {
                    return Err(format!("operator node {id} is not binary"));
                }
                _ => {}
            }
            for &c in &node.children {
                if self.node(c).parent != Some(id) {
                    return Err(format!("parent link of {c} does not match {id}"));
                }
            }
        }
        Ok(())
    }
}

/// Assembles a [`CombinationTree`] node by node: the standard shapes in
/// [`CombinationTree::build`] and any binary nesting of the server leaves,
/// such as the bandwidth-aware ordering in [`crate::ordering`].
pub(crate) struct Builder {
    nodes: Vec<TreeNode>,
    operator_nodes: Vec<NodeId>,
    server_nodes: Vec<NodeId>,
}

impl Builder {
    pub(crate) fn new(n_servers: usize) -> Self {
        Builder {
            nodes: Vec::with_capacity(2 * n_servers),
            operator_nodes: Vec::new(),
            server_nodes: vec![NodeId::new(0); n_servers],
        }
    }

    fn push(&mut self, node: TreeNode) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(node);
        id
    }

    pub(crate) fn server(&mut self, index: usize) -> NodeId {
        let id = self.push(TreeNode {
            kind: NodeKind::Server(index),
            parent: None,
            children: Vec::new(),
            level: 0,
        });
        self.server_nodes[index] = id;
        id
    }

    pub(crate) fn operator(&mut self, left: NodeId, right: NodeId) -> NodeId {
        let level = [left, right]
            .iter()
            .map(|&c| match self.nodes[c.index()].kind {
                NodeKind::Server(_) => 0,
                _ => self.nodes[c.index()].level + 1,
            })
            .max()
            .expect("two children");
        let op = OperatorId::new(self.operator_nodes.len());
        let id = self.push(TreeNode {
            kind: NodeKind::Operator(op),
            parent: None,
            children: vec![left, right],
            level,
        });
        self.operator_nodes.push(id);
        self.nodes[left.index()].parent = Some(id);
        self.nodes[right.index()].parent = Some(id);
        id
    }

    /// Balanced binary combination over servers `[lo, lo + len)`.
    fn balanced(&mut self, lo: usize, len: usize) -> NodeId {
        if len == 1 {
            return self.server(lo);
        }
        let half = len / 2;
        let left = self.balanced(lo, len - half);
        let right = self.balanced(lo + (len - half), half);
        self.operator(left, right)
    }

    pub(crate) fn finish(mut self, top: NodeId, shape: TreeShape) -> CombinationTree {
        let level = self.nodes[top.index()].level + 1;
        let root = self.push(TreeNode {
            kind: NodeKind::Client,
            parent: None,
            children: vec![top],
            level,
        });
        self.nodes[top.index()].parent = Some(root);
        let tree = CombinationTree {
            nodes: self.nodes,
            root,
            operator_nodes: self.operator_nodes,
            server_nodes: self.server_nodes,
            shape,
        };
        debug_assert_eq!(tree.check_invariants(), Ok(()));
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_tree_shape() {
        for n in 2..=32 {
            let t = CombinationTree::complete_binary(n).unwrap();
            assert_eq!(t.server_count(), n);
            assert_eq!(t.operator_count(), n - 1);
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn left_deep_shape() {
        for n in 2..=16 {
            let t = CombinationTree::left_deep(n).unwrap();
            assert_eq!(t.operator_count(), n - 1);
            assert_eq!(t.depth(), n - 1, "left-deep depth is linear");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn binary_depth_is_logarithmic() {
        assert_eq!(CombinationTree::complete_binary(2).unwrap().depth(), 1);
        assert_eq!(CombinationTree::complete_binary(4).unwrap().depth(), 2);
        assert_eq!(CombinationTree::complete_binary(8).unwrap().depth(), 3);
        assert_eq!(CombinationTree::complete_binary(32).unwrap().depth(), 5);
        // Non-powers of two stay within ceil(log2 n).
        assert_eq!(CombinationTree::complete_binary(6).unwrap().depth(), 3);
    }

    #[test]
    fn too_few_servers_rejected() {
        assert_eq!(
            CombinationTree::complete_binary(1),
            Err(TreeError::TooFewServers)
        );
        assert_eq!(CombinationTree::left_deep(0), Err(TreeError::TooFewServers));
    }

    #[test]
    fn postorder_visits_children_first() {
        let t = CombinationTree::complete_binary(4).unwrap();
        let order = t.postorder();
        assert_eq!(order.len(), t.nodes().len());
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for (i, node) in t.nodes().iter().enumerate() {
            for &c in &node.children {
                assert!(pos(c) < pos(NodeId::new(i)));
            }
        }
        assert_eq!(*order.last().unwrap(), t.root());
    }

    #[test]
    fn levels_stagger_bottom_up() {
        let t = CombinationTree::complete_binary(8).unwrap();
        let mut level_counts = vec![0usize; t.depth()];
        for op in 0..t.operator_count() {
            level_counts[t.operator_level(OperatorId::new(op))] += 1;
        }
        assert_eq!(level_counts, vec![4, 2, 1]);
    }

    #[test]
    fn left_deep_levels_are_distinct() {
        let t = CombinationTree::left_deep(5).unwrap();
        let mut levels: Vec<usize> = (0..t.operator_count())
            .map(|i| t.operator_level(OperatorId::new(i)))
            .collect();
        levels.sort_unstable();
        assert_eq!(levels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn server_nodes_ordered_by_index() {
        let t = CombinationTree::complete_binary(8).unwrap();
        for (i, &n) in t.server_nodes().iter().enumerate() {
            assert_eq!(t.node(n).kind, NodeKind::Server(i));
        }
    }

    #[test]
    fn operator_at_distinguishes_kinds() {
        let t = CombinationTree::complete_binary(2).unwrap();
        assert!(t.operator_at(t.root()).is_none());
        assert!(t.operator_at(t.server_nodes()[0]).is_none());
        assert!(t.operator_at(t.operator_nodes()[0]).is_some());
    }
}
