//! Baseline approaches for the §6.4.1 comparison.
//!
//! The thesis compares TRAVERSESEARCHTREE against simpler strategies:
//!
//! * [`random_walk`] — apply uniformly random direction-aware
//!   modifications, keeping a change only when it improves the deviation;
//! * [`exhaustive_bfs`] — enumerate the modification lattice breadth-first
//!   without any cardinality guidance (a SEAVE-style level-wise search);
//! * predicate-only search — TRAVERSESEARCHTREE with
//!   [`crate::fine::FineConfig::allow_topology`] `= false` (§6.4.3).
//!
//! Both baselines search the space TRAVERSESEARCHTREE searches: they draw
//! candidates from the same [`Database::domains`] catalog, count them at the
//! same cap, `max(50,000, goal.decisive_cap())`, and report a
//! [`FineOutcome`]. Exhaustive BFS is TRAVERSESEARCHTREE's own loop in
//! breadth-first order. The random walk is a hill-climb, not a frontier
//! search: it keeps one current query and its own loop.

use crate::fine::generate::fine_candidates;
use crate::fine::{count, need_more, FineConfig, FineOutcome, Order, TraverseSearchTree};
use crate::problem::CardinalityGoal;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use whyq_matcher::Budget;
use whyq_query::{signature::signature, GraphMod, PatternQuery};
use whyq_session::Database;

/// Cap on a random walk's sampling attempts, executed or not.
const MAX_ATTEMPTS: usize = 10_000;

/// Greedy random walk: sample a random candidate modification of the
/// current query, execute it, move only when the deviation improves.
///
/// The walk stops after `budget` executed candidates, after 10,000
/// samples, or when no candidate of the current query is left to execute.
pub fn random_walk(
    db: &Database,
    q: &PatternQuery,
    goal: CardinalityGoal,
    budget: usize,
    seed: u64,
) -> FineOutcome {
    let (session, unlimited) = (db.session(), Budget::unlimited());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current_c = count(&session, q, goal, &unlimited);
    let mut out = FineOutcome::root(q, current_c, goal);
    if out.explanation.is_some() {
        return out;
    }
    let (mut current, mut current_id, mut current_mods) = (q.clone(), 0, Vec::new());
    let mut candidates = fine_candidates(q, db.domains(), need_more(goal, current_c), true);
    let mut visited = HashSet::from([signature(q)]);
    // a candidate is fresh when it applies and was not executed before
    let fresh = |current: &PatternQuery, m: &GraphMod, visited: &HashSet<String>| {
        let (child, _) = m.applied(current).ok()?;
        let sig = signature(&child);
        (!visited.contains(&sig)).then_some((child, sig))
    };

    for _ in 0..MAX_ATTEMPTS {
        if out.executed >= budget || candidates.is_empty() {
            break;
        }
        let m = candidates[rng.random_range(0..candidates.len())].clone();
        let Some((child, sig)) = fresh(&current, &m, &visited) else {
            // a stale sample: give up once every candidate is stale
            if candidates
                .iter()
                .all(|m| fresh(&current, m, &visited).is_none())
            {
                break;
            }
            continue;
        };
        visited.insert(sig);
        let c = count(&session, &child, goal, &unlimited);
        let dev = goal.deviation(c);
        let id = out.tree.add_child(current_id, m.clone(), c, dev);
        out.record(dev);
        if goal.satisfied(c) {
            current_mods.push(m);
            out.solve(id, q, child, current_mods, c);
            return out;
        }
        // hill-climb: adopt the child only on improvement
        if dev < goal.deviation(current_c) {
            current_mods.push(m);
            (current, current_c, current_id) = (child, c, id);
            candidates = fine_candidates(&current, db.domains(), need_more(goal, c), true);
        }
    }
    out
}

/// Breadth-first lattice enumeration without cardinality guidance: the
/// TRAVERSESEARCHTREE loop in breadth-first order, with no cap on children
/// per expansion and no discarding of non-contributing children.
pub fn exhaustive_bfs(
    db: &Database,
    q: &PatternQuery,
    goal: CardinalityGoal,
    budget: usize,
) -> FineOutcome {
    let tst = TraverseSearchTree::new(db).with_config(FineConfig {
        max_executed: budget,
        allow_topology: true,
    });
    let unlimited = Budget::unlimited();
    let c0 = count(&tst.session, q, goal, &unlimited);
    tst.search(q, goal, c0, Order::Breadth, &unlimited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QueryBuilder};

    fn data() -> Database {
        let mut g = PropertyGraph::new();
        let city = g.add_vertex([("type", Value::str("city"))]);
        for i in 0..10 {
            let p = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(20 + i))]);
            g.add_edge(p, city, "livesIn", []);
        }
        Database::open(g).expect("open")
    }

    fn narrow_query() -> PatternQuery {
        QueryBuilder::new("q")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("age", 24.0, 26.0),
                ],
            )
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build()
    }

    #[test]
    fn random_walk_eventually_finds_solution() {
        let db = data();
        let out = random_walk(&db, &narrow_query(), CardinalityGoal::AtLeast(7), 500, 42);
        assert!(out.explanation.is_some());
    }

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let db = data();
        let a = random_walk(&db, &narrow_query(), CardinalityGoal::AtLeast(7), 200, 7);
        let b = random_walk(&db, &narrow_query(), CardinalityGoal::AtLeast(7), 200, 7);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn bfs_finds_solution_with_enough_budget() {
        let db = data();
        let out = exhaustive_bfs(&db, &narrow_query(), CardinalityGoal::AtLeast(7), 2000);
        assert!(out.explanation.is_some());
    }

    #[test]
    fn trajectories_are_monotone() {
        let db = data();
        let out = exhaustive_bfs(&db, &narrow_query(), CardinalityGoal::AtLeast(1000), 50);
        for w in out.trajectory.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        assert!(out.explanation.is_none());
    }

    /// Breadth order counts the tree level by level and keeps every child;
    /// the deviation order discards the non-contributing ones.
    #[test]
    fn bfs_runs_level_by_level_without_pruning() {
        use crate::fine::NodeStatus;
        let db = data();
        let goal = CardinalityGoal::AtLeast(1000);
        let bfs = exhaustive_bfs(&db, &narrow_query(), goal, 50);
        let depths: Vec<usize> = bfs.tree.nodes().iter().map(|n| n.depth).collect();
        assert!(depths.windows(2).all(|w| w[0] <= w[1]), "{depths:?}");
        assert!(depths.contains(&2), "a second level was reached");
        assert_eq!(bfs.tree.count_status(NodeStatus::Discarded), 0);
        let tst = TraverseSearchTree::new(&db)
            .with_config(FineConfig {
                max_executed: 50,
                ..FineConfig::default()
            })
            .run(&narrow_query(), goal);
        assert!(tst.tree.count_status(NodeStatus::Discarded) > 0);
    }

    /// A walk records every executed candidate in its tree, under the query
    /// it was sampled from.
    #[test]
    fn random_walk_builds_its_tree() {
        let db = data();
        let out = random_walk(&db, &narrow_query(), CardinalityGoal::AtLeast(1000), 40, 3);
        assert_eq!(out.tree.len(), out.executed);
        assert!(out.explanation.is_none());
    }
}
