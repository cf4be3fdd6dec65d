//! The best-first frontier both rewriters search (§5.3, §6.2.1).
//!
//! The coarse relax loop (Ch. 5), TRAVERSESEARCHTREE (§6.2.1) and the
//! §6.4.1 breadth-first baseline explore a modification lattice the same
//! way: pop the best node, derive its children by one modification each,
//! drop every child whose signature was derived before, and rank the rest.
//! [`Frontier`] owns that shared part: the heap, the visited signatures and
//! the count of generated children. The searches differ in when a child is
//! evaluated. The relax loop pushes children unkeyed and keys one only at
//! pop, while another node of its tier waits; TRAVERSESEARCHTREE counts a
//! child as it is generated, unless it can prove the child non-contributing
//! first, and pushes it keyed by its deviation.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;
use whyq_query::{signature::signature, GraphMod, PatternQuery};

/// A totally ordered frontier key; the greater key pops first.
pub(crate) trait Key {
    fn rank(&self, other: &Self) -> Ordering;
}

impl Key for f64 {
    fn rank(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl<K: Ord> Key for Reverse<K> {
    fn rank(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

/// A frontier node, ranked by *(tier, key, FIFO seq)*: a top-tier node
/// outranks every bottom-tier node, the key orders nodes within a tier, and
/// the earlier admitted node wins a tie.
///
/// An unkeyed node ranks above every keyed node of its tier, so its rank
/// bounds the rank it will have once keyed. A search that keys a popped
/// unkeyed node and pushes it back while another node of its tier waits
/// pops in the order of keying every node at push.
pub(crate) struct Node<K, T> {
    pub tier: bool,
    /// `None` until the search ranks the node.
    pub key: Option<K>,
    seq: u64,
    /// Canonical signature of `query`.
    pub sig: String,
    pub query: Rc<PatternQuery>,
    /// The query `query` was derived from; the root is its own parent.
    pub parent: Rc<PatternQuery>,
    /// The modifications that derive `query` from the root.
    pub mods: Vec<GraphMod>,
    /// The search's own annotation.
    pub data: T,
}

impl<K: Key, T> PartialEq for Node<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K: Key, T> Eq for Node<K, T> {}
impl<K: Key, T> PartialOrd for Node<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Key, T> Ord for Node<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap on (tier, key); unkeyed ranks as +∞; FIFO tie-break for
        // determinism
        let key = match (&self.key, &other.key) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Greater,
            (Some(_), None) => Ordering::Less,
            (Some(a), Some(b)) => a.rank(b),
        };
        self.tier
            .cmp(&other.tier)
            .then(key)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The frontier of one search: its heap of nodes and the signatures of
/// every query admitted so far.
pub(crate) struct Frontier<K, T> {
    heap: BinaryHeap<Node<K, T>>,
    visited: HashSet<String>,
    seq: u64,
    /// Children admitted so far; the root is not one.
    pub generated: usize,
}

impl<K: Key, T: Default> Frontier<K, T> {
    /// An empty frontier, and the search's root `q`: visited, unkeyed and
    /// bottom-tier, but not pushed.
    pub fn new(q: &PatternQuery) -> (Self, Node<K, T>) {
        let sig = signature(q);
        let query = Rc::new(q.clone());
        let frontier = Frontier {
            heap: BinaryHeap::new(),
            visited: HashSet::from([sig.clone()]),
            seq: 0,
            generated: 0,
        };
        let root = Node {
            tier: false,
            key: None,
            seq: 0,
            sig,
            parent: Rc::clone(&query),
            query,
            mods: Vec::new(),
            data: T::default(),
        };
        (frontier, root)
    }

    /// `parent` with `m` applied, as an unkeyed bottom-tier node, unless
    /// `m` does not apply or its result was admitted before.
    pub fn admit(&mut self, parent: &Node<K, T>, m: GraphMod) -> Option<Node<K, T>> {
        let (child, _) = m.applied(&parent.query).ok()?;
        let sig = signature(&child);
        if !self.visited.insert(sig.clone()) {
            return None;
        }
        self.generated += 1;
        self.seq += 1;
        let mut mods = parent.mods.clone();
        mods.push(m);
        Some(Node {
            tier: false,
            key: None,
            seq: self.seq,
            sig,
            query: Rc::new(child),
            parent: Rc::clone(&parent.query),
            mods,
            data: T::default(),
        })
    }

    /// Admit every candidate of `parent` and push it unkeyed, in the top
    /// tier when `top` says so.
    pub fn expand(
        &mut self,
        parent: &Node<K, T>,
        candidates: Vec<GraphMod>,
        top: impl Fn(&GraphMod) -> bool,
    ) {
        for m in candidates {
            if let Some(mut child) = self.admit(parent, m) {
                child.tier = child.mods.last().is_some_and(&top);
                self.push(child);
            }
        }
    }

    /// Push `node`; a node pushed back keeps its place in the FIFO order.
    pub fn push(&mut self, node: Node<K, T>) {
        self.heap.push(node);
    }

    pub fn pop(&mut self) -> Option<Node<K, T>> {
        self.heap.pop()
    }

    /// The tier of the node [`Frontier::pop`] returns next.
    pub fn peek_tier(&self) -> Option<bool> {
        self.heap.peek().map(|n| n.tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_query::QueryBuilder;

    #[test]
    fn frontier_key_is_tier_then_score_then_fifo() {
        let q = Rc::new(QueryBuilder::new("q").vertex("v", []).build());
        let node = |tier, key, seq| Node::<f64, ()> {
            tier,
            key,
            seq,
            sig: String::new(),
            query: Rc::clone(&q),
            parent: Rc::clone(&q),
            mods: Vec::new(),
            data: (),
        };
        // the top tier outranks any key
        assert!(node(true, Some(-5.0), 2) > node(false, Some(1e12), 1));
        // an unkeyed node bounds its tier from above
        assert!(node(false, None, 2) > node(false, Some(f64::INFINITY), 1));
        assert!(node(true, Some(-5.0), 2) > node(false, None, 1));
        // equal keys pop first-in, first-out
        let mut heap = BinaryHeap::from([node(false, Some(1.0), 2), node(false, Some(1.0), 1)]);
        assert_eq!(heap.pop().map(|n| n.seq), Some(1));
        assert!(node(true, None, 3) == node(true, None, 3));
        // a reversed key pops its least value first
        let rev = |deviation: u64, seq| Node {
            tier: false,
            key: Some(Reverse((deviation, 1usize))),
            seq,
            sig: String::new(),
            query: Rc::clone(&q),
            parent: Rc::clone(&q),
            mods: Vec::new(),
            data: (),
        };
        assert!(rev(3, 2) > rev(7, 1));
    }

    #[test]
    fn admitted_children_are_deduplicated_and_counted() {
        let q = QueryBuilder::new("q")
            .vertex("a", [whyq_query::Predicate::eq("type", "x")])
            .build();
        let (mut frontier, root) = Frontier::<f64, ()>::new(&q);
        let drop_type = GraphMod::RemovePredicate {
            target: whyq_query::Target::Vertex(whyq_query::QVid(0)),
            attr: "type".into(),
        };
        let child = frontier.admit(&root, drop_type.clone()).expect("fresh");
        assert_eq!(child.mods, vec![drop_type.clone()]);
        assert!(
            frontier.admit(&root, drop_type.clone()).is_none(),
            "seen before"
        );
        assert!(
            frontier.admit(&child, drop_type).is_none(),
            "does not apply"
        );
        assert_eq!(frontier.generated, 1);
    }
}
