//! The modification tree (§6.1.3).
//!
//! Every explored candidate is a tree node: the root is the original query,
//! a child is its parent plus one modification, annotated with the measured
//! cardinality and its deviation from the threshold. The tree records which
//! branches were *discarded* as non-contributing (§6.3.2) — a change that
//! left the cardinality identical cannot move the search toward the goal
//! and its whole branch is cut. A child proven non-contributing before
//! execution carries its parent's cardinality, the count it provably has.

use whyq_query::GraphMod;

/// Lifecycle of a tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Generated and queued for expansion.
    Open,
    /// Expanded into children.
    Expanded,
    /// Discarded (non-contributing change, §6.3.2).
    Discarded,
    /// Satisfies the cardinality goal.
    Solution,
}

/// One node of the modification tree.
#[derive(Debug, Clone)]
pub struct ModTreeNode {
    /// Node id (index into the tree's arena).
    pub id: usize,
    /// Parent node id (`None` for the root).
    pub parent: Option<usize>,
    /// The modification that produced this node (`None` for the root).
    pub applied: Option<GraphMod>,
    /// Measured (capped) result cardinality; the parent's for a child
    /// proven non-contributing without execution.
    pub cardinality: u64,
    /// `|C_thr − C|` deviation from the goal.
    pub deviation: u64,
    /// Tree depth (root = 0).
    pub depth: usize,
    /// Lifecycle status.
    pub status: NodeStatus,
}

/// Arena-backed modification tree.
#[derive(Debug, Clone, Default)]
pub struct ModificationTree {
    nodes: Vec<ModTreeNode>,
}

impl ModificationTree {
    /// Tree with a root for the original query.
    pub fn with_root(cardinality: u64, deviation: u64) -> Self {
        ModificationTree {
            nodes: vec![ModTreeNode {
                id: 0,
                parent: None,
                applied: None,
                cardinality,
                deviation,
                depth: 0,
                status: NodeStatus::Open,
            }],
        }
    }

    /// Add a child node; returns its id.
    pub fn add_child(
        &mut self,
        parent: usize,
        applied: GraphMod,
        cardinality: u64,
        deviation: u64,
    ) -> usize {
        let depth = self.nodes[parent].depth + 1;
        let id = self.nodes.len();
        self.nodes.push(ModTreeNode {
            id,
            parent: Some(parent),
            applied: Some(applied),
            cardinality,
            deviation,
            depth,
            status: NodeStatus::Open,
        });
        id
    }

    /// Update a node's status.
    pub fn set_status(&mut self, id: usize, status: NodeStatus) {
        self.nodes[id].status = status;
    }

    /// Node by id.
    pub fn node(&self, id: usize) -> &ModTreeNode {
        &self.nodes[id]
    }

    /// All nodes in creation order.
    pub fn nodes(&self) -> &[ModTreeNode] {
        &self.nodes
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True only before a root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes with a given status.
    pub fn count_status(&self, status: NodeStatus) -> usize {
        self.nodes.iter().filter(|n| n.status == status).count()
    }

    /// The modification path from the root to `id` (root first).
    pub fn path_to(&self, id: usize) -> Vec<GraphMod> {
        let mut mods = Vec::new();
        let mut cur = Some(id);
        while let Some(i) = cur {
            if let Some(m) = &self.nodes[i].applied {
                mods.push(m.clone());
            }
            cur = self.nodes[i].parent;
        }
        mods.reverse();
        mods
    }

    /// Maximum depth reached.
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_query::{QEid, Target};

    fn sample_mod() -> GraphMod {
        GraphMod::RemovePredicate {
            target: Target::Edge(QEid(0)),
            attr: "x".into(),
        }
    }

    #[test]
    fn tree_construction_and_paths() {
        let mut t = ModificationTree::with_root(0, 10);
        let a = t.add_child(0, sample_mod(), 5, 5);
        let b = t.add_child(a, GraphMod::RemoveEdge(QEid(1)), 10, 0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.node(b).depth, 2);
        assert_eq!(t.path_to(b).len(), 2);
        assert_eq!(t.path_to(0).len(), 0);
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn status_tracking() {
        let mut t = ModificationTree::with_root(0, 10);
        let a = t.add_child(0, sample_mod(), 0, 10);
        t.set_status(a, NodeStatus::Discarded);
        t.set_status(0, NodeStatus::Expanded);
        assert_eq!(t.count_status(NodeStatus::Discarded), 1);
        assert_eq!(t.count_status(NodeStatus::Expanded), 1);
        assert_eq!(t.count_status(NodeStatus::Solution), 0);
    }
}
