//! Query-dependent statistics (§5.2).
//!
//! The coarse-grained rewriter estimates candidate cardinalities instead of
//! executing every candidate. Statistics are computed against the data graph
//! *for the elements of the original query* (they are query-dependent, not
//! global histograms):
//!
//! * `vertex_card(v)` — how many data vertices satisfy query vertex `v`'s
//!   predicates (§5.2.2);
//! * `edge_card(e)` — the `path(1)` cardinality: how many data edges, with
//!   their endpoints, satisfy query edge `e` including its endpoint
//!   predicates (§5.2.2);
//! * `path_card(edges)` — the `paths(n)` cardinality of a connected chain
//!   of query edges (§5.2.3).
//!
//! Every statistic is a (small) pattern-match count, memoized by the
//! canonical signature of the subquery it counts. The key is written
//! straight from the original query — the vertex's block, or the edge set's
//! blocks plus their endpoints — and the subquery is built only on a miss,
//! so re-querying statistics for unchanged query parts costs one key,
//! which is what makes the §5.3 candidate selection cheap. The
//! coarse rewriter also asks only where it must: it scores a candidate
//! when the candidate is popped and another candidate of its conflict tier
//! is still waiting, so a candidate whose rank is never in question (a
//! lone conflict-set fix, a candidate the search never reaches) costs no
//! lookup at all.
//!
//! A search may govern the provider with its [`Budget`]: a lookup whose
//! count trips it returns a lower bound and memoizes nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use whyq_matcher::{Budget, MatchOptions};
use whyq_query::signature::{edge_subquery_signature, signature};
use whyq_query::{component_signature, PatternQuery, QEid, QVid};
use whyq_session::{Database, Session};

/// Memoizing statistics provider bound to one database.
pub struct Statistics<'g> {
    session: Session<'g>,
    cache: RefCell<HashMap<String, u64>>,
    lookups: RefCell<u64>,
    misses: RefCell<u64>,
    budget: RefCell<Budget>,
}

impl<'g> Statistics<'g> {
    /// New provider over `db` (counting runs through an own session, so
    /// statistics measurement shares the database's indexes and plan
    /// cache with every other consumer).
    pub fn new(db: &'g Database) -> Self {
        Statistics {
            session: db.session(),
            cache: RefCell::new(HashMap::new()),
            lookups: RefCell::new(0),
            misses: RefCell::new(0),
            budget: RefCell::new(Budget::unlimited()),
        }
    }

    /// Charge every later count to `budget`.
    pub(crate) fn govern(&self, budget: &Budget) {
        self.budget.replace(budget.clone());
    }

    /// Cardinality of a single query vertex: matching data vertices.
    pub fn vertex_card(&self, q: &PatternQuery, v: QVid) -> u64 {
        self.cached_count(component_signature(q, &[v]), || q.induced_subquery(&[v]))
    }

    /// `path(1)` cardinality of a query edge including endpoint predicates.
    pub fn edge_card(&self, q: &PatternQuery, e: QEid) -> u64 {
        self.path_card(q, &[e])
    }

    /// `paths(n)` cardinality of a chain of query edges.
    pub fn path_card(&self, q: &PatternQuery, edges: &[QEid]) -> u64 {
        self.cached_count(edge_subquery_signature(q, edges), || q.edge_subquery(edges))
    }

    /// Average `path(1)` cardinality over all live edges of `q` — the
    /// aggregate driving the §5.5.3 priority function. Vertex-only queries
    /// fall back to the average vertex cardinality.
    pub fn avg_path1(&self, q: &PatternQuery) -> f64 {
        let edges: Vec<QEid> = q.edge_ids().collect();
        if edges.is_empty() {
            let verts: Vec<QVid> = q.vertex_ids().collect();
            if verts.is_empty() {
                return 0.0;
            }
            let sum: u64 = verts.iter().map(|&v| self.vertex_card(q, v)).sum();
            return sum as f64 / verts.len() as f64;
        }
        let sum: u64 = edges.iter().map(|&e| self.edge_card(q, e)).sum();
        sum as f64 / edges.len() as f64
    }

    /// A cheap cardinality estimate for a whole candidate query: the
    /// minimum `path(1)` cardinality over its edges (the most selective
    /// edge bounds how many embeddings can survive), or the minimum vertex
    /// cardinality for vertex-only queries. Zero whenever any element is
    /// unsatisfiable — exactly the signal relaxation needs.
    pub fn estimate(&self, q: &PatternQuery) -> u64 {
        let edges: Vec<QEid> = q.edge_ids().collect();
        if edges.is_empty() {
            return q
                .vertex_ids()
                .map(|v| self.vertex_card(q, v))
                .min()
                .unwrap_or(0);
        }
        edges
            .iter()
            .map(|&e| self.edge_card(q, e))
            .min()
            .unwrap_or(0)
    }

    /// Induced cardinality change of a candidate relative to its parent
    /// (§5.3.2): `estimate(candidate) − estimate(parent)`.
    pub fn induced_change(&self, parent: &PatternQuery, candidate: &PatternQuery) -> i64 {
        self.estimate(candidate) as i64 - self.estimate(parent) as i64
    }

    /// `paths(n)`-based estimate (§5.2.3): decompose the query into
    /// 2-edge chains along a BFS spanning order and combine their measured
    /// `paths(2)` cardinalities under an independence assumption:
    ///
    /// ```text
    /// est = Π paths2(eᵢ, eᵢ₊₁) / Π path1(shared interior edges)
    /// ```
    ///
    /// This is the classic chain-join estimator lifted to graph patterns —
    /// more accurate than the min-edge bound on path-shaped queries because
    /// it observes *join* selectivity between consecutive edges, at the
    /// cost of measuring each consecutive pair once (memoized).
    pub fn estimate_paths(&self, q: &PatternQuery) -> f64 {
        // BFS edge order (pairs share an endpoint whenever possible)
        let edges: Vec<QEid> = bfs_edge_order(q);
        match edges.len() {
            0 => q
                .vertex_ids()
                .map(|v| self.vertex_card(q, v))
                .min()
                .unwrap_or(0) as f64,
            1 => self.edge_card(q, edges[0]) as f64,
            _ => {
                let mut est = self.path_card(q, &edges[0..2]) as f64;
                for w in edges.windows(2).skip(1) {
                    let pair = self.path_card(q, w) as f64;
                    let shared = self.edge_card(q, w[0]) as f64;
                    if shared == 0.0 {
                        return 0.0;
                    }
                    est *= pair / shared;
                }
                est
            }
        }
    }

    /// `(lookups, misses)` counters — Appendix B.2 reports these.
    pub fn counters(&self) -> (u64, u64) {
        (*self.lookups.borrow(), *self.misses.borrow())
    }

    /// Number of memoized statistic entries.
    pub fn cache_size(&self) -> usize {
        self.cache.borrow().len()
    }

    /// The count of the subquery `key` stands for, memoized under `key`
    /// (its signature, written from the original query); the subquery is
    /// built with `sub` on a miss only.
    fn cached_count(&self, key: String, sub: impl FnOnce() -> PatternQuery) -> u64 {
        *self.lookups.borrow_mut() += 1;
        if let Some(&c) = self.cache.borrow().get(&key) {
            return c;
        }
        *self.misses.borrow_mut() += 1;
        let sub = sub();
        debug_assert_eq!(key, signature(&sub));
        let opts = MatchOptions::counting(None).with_budget(self.budget.borrow().clone());
        let counted = self.session.count_governed(&sub, opts);
        let counted = counted.expect("statistics subqueries derive from validated queries");
        if counted.termination.is_complete() {
            self.cache.borrow_mut().insert(key, counted.value);
        }
        counted.value
    }
}

/// Edge order where consecutive edges share an endpoint whenever the query
/// permits (BFS over edges from the smallest vertex id; jumps across
/// unconnected parts).
fn bfs_edge_order(q: &PatternQuery) -> Vec<QEid> {
    let Some(start) = q.vertex_ids().next() else {
        return Vec::new();
    };
    let mut bound = vec![start];
    let mut remaining: Vec<QEid> = q.edge_ids().collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|&e| {
                let ed = q.edge(e).expect("live");
                bound.contains(&ed.src) || bound.contains(&ed.dst)
            })
            .unwrap_or(0);
        let e = remaining.remove(pos);
        let ed = q.edge(e).expect("live");
        for v in [ed.src, ed.dst] {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        order.push(e);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QueryBuilder};

    fn social() -> Database {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let b = g.add_vertex([("type", Value::str("person"))]);
        let c = g.add_vertex([("type", Value::str("person"))]);
        let city = g.add_vertex([("type", Value::str("city"))]);
        g.add_edge(a, b, "knows", []);
        g.add_edge(b, c, "knows", []);
        g.add_edge(a, city, "livesIn", []);
        g.add_edge(b, city, "livesIn", []);
        Database::open(g).expect("open")
    }

    fn path_query() -> PatternQuery {
        QueryBuilder::new("p")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p1", "p2", "knows")
            .edge("p2", "c", "livesIn")
            .build()
    }

    #[test]
    fn vertex_and_edge_cardinalities() {
        let db = social();
        let s = Statistics::new(&db);
        let q = path_query();
        assert_eq!(s.vertex_card(&q, QVid(0)), 3);
        assert_eq!(s.vertex_card(&q, QVid(2)), 1);
        assert_eq!(s.edge_card(&q, QEid(0)), 2); // two knows edges
        assert_eq!(s.edge_card(&q, QEid(1)), 2); // two livesIn edges
    }

    #[test]
    fn path_cardinalities() {
        let db = social();
        let s = Statistics::new(&db);
        let q = path_query();
        // p1-knows->p2-livesIn->city: (a,b,city) and (b,c,?) — c has no city
        assert_eq!(s.path_card(&q, &[QEid(0), QEid(1)]), 1);
    }

    #[test]
    fn memoization_counts() {
        let db = social();
        let s = Statistics::new(&db);
        let q = path_query();
        let _ = s.edge_card(&q, QEid(0));
        let _ = s.edge_card(&q, QEid(0));
        let (lookups, misses) = s.counters();
        assert_eq!(lookups, 2);
        assert_eq!(misses, 1);
        assert_eq!(s.cache_size(), 1);
    }

    #[test]
    fn a_tripped_lookup_is_not_memoized() {
        let mut g = PropertyGraph::new();
        for _ in 0..3000 {
            g.add_vertex([("type", Value::str("person"))]);
        }
        let db = Database::open(g).expect("open");
        let q = QueryBuilder::new("people")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        let s = Statistics::new(&db);
        s.govern(&Budget::steps(0));
        assert!(s.vertex_card(&q, QVid(0)) < 3000, "a lower bound");
        s.govern(&Budget::unlimited());
        assert_eq!(s.vertex_card(&q, QVid(0)), 3000);
        assert_eq!(s.counters(), (2, 2));
    }

    #[test]
    fn estimates_and_induced_change() {
        let db = social();
        let s = Statistics::new(&db);
        let q = path_query();
        assert_eq!(s.estimate(&q), 2); // min(2, 2)
                                       // relaxing the whole livesIn edge away raises the estimate? both
                                       // edges have card 2 — removing one leaves min = 2; removing a
                                       // *failing* constraint would raise it. Add a failing predicate:
        let mut bad = q.clone();
        bad.vertex_mut(QVid(2))
            .unwrap()
            .predicates
            .push(Predicate::eq("name", "Atlantis"));
        assert_eq!(s.estimate(&bad), 0);
        assert!(s.induced_change(&bad, &q) > 0);
    }

    #[test]
    fn paths_estimate_is_exact_on_chains() {
        let db = social();
        let s = Statistics::new(&db);
        let q = path_query();
        // on a pure 2-edge chain the paths(2) estimate *is* the true count
        let est = s.estimate_paths(&q);
        assert!((est - 1.0).abs() < 1e-9, "est = {est}");
        // single-edge and vertex-only queries fall back gracefully
        let e1 = q.edge_subquery(&[QEid(0)]);
        assert!((s.estimate_paths(&e1) - 2.0).abs() < 1e-9);
        let v = q.induced_subquery(&[QVid(0)]);
        assert!((s.estimate_paths(&v) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn paths_estimate_zero_on_failing_queries() {
        let db = social();
        let s = Statistics::new(&db);
        let mut q = path_query();
        q.vertex_mut(QVid(2))
            .unwrap()
            .predicates
            .push(Predicate::eq("name", "Atlantis"));
        assert_eq!(s.estimate_paths(&q), 0.0);
    }

    #[test]
    fn avg_path1() {
        let db = social();
        let s = Statistics::new(&db);
        let q = path_query();
        assert!((s.avg_path1(&q) - 2.0).abs() < 1e-12);
        // vertex-only query
        let vq = QueryBuilder::new("v")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        assert!((s.avg_path1(&vq) - 3.0).abs() < 1e-12);
    }
}
