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
//! candidates from the same [`Database::domains`] catalog and count them
//! at the same cap, `max(50,000, goal.decisive_cap())`.

use crate::explanation::ModificationExplanation;
use crate::fine::count_cap;
use crate::fine::generate::fine_candidates;
use crate::problem::CardinalityGoal;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashSet, VecDeque};
use whyq_matcher::{Budget, MatchOptions, Termination};
use whyq_metrics::syntactic_distance;
use whyq_query::{signature::signature, GraphMod, PatternQuery};
use whyq_session::Database;

/// Attempt budget substituted when a baseline's `governor` is unlimited:
/// it bounds the sampling loop of [`random_walk`] (a node whose
/// neighborhood is fully visited would otherwise spin without consuming
/// execution budget) with the same shared [`Budget`] machinery callers use
/// for deadlines and cancellation, instead of an ad-hoc multiple of the
/// execution budget.
pub const DEFAULT_ATTEMPT_BUDGET: u64 = 10_000;

/// Effective governor of a baseline run: the caller's, or — when that one
/// is unlimited — a fresh [`DEFAULT_ATTEMPT_BUDGET`]-step budget.
fn effective_governor(governor: &Budget) -> Budget {
    if governor.is_unlimited() {
        Budget::steps(DEFAULT_ATTEMPT_BUDGET)
    } else {
        governor.clone()
    }
}

/// Outcome of a baseline run (same shape as the §6.4.2 series).
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Goal-satisfying explanation, if found within budget.
    pub explanation: Option<ModificationExplanation>,
    /// Executed candidate queries.
    pub executed: usize,
    /// Convergence trajectory `(executed, best deviation so far)`.
    pub trajectory: Vec<(usize, u64)>,
    /// Best deviation reached.
    pub best_deviation: u64,
    /// How the run ended: [`Termination::Complete`] when the search
    /// finished on its own (explanation found, execution budget or
    /// candidate space exhausted); otherwise the cause the governor
    /// tripped on — [`Termination::BudgetExhausted`] for the implicit
    /// attempt budget of an ungoverned [`random_walk`].
    pub termination: Termination,
}

/// Greedy random walk: sample a random candidate modification of the
/// current query, execute it, move only when the deviation improves.
///
/// `governor` bounds the *sampling attempts* (one step charged per
/// attempt) and carries any deadline or cancellation; pass
/// [`Budget::unlimited`] to get the default attempt budget.
pub fn random_walk(
    db: &Database,
    q: &PatternQuery,
    goal: CardinalityGoal,
    budget: usize,
    seed: u64,
    governor: &Budget,
) -> BaselineOutcome {
    let governor = effective_governor(governor);
    let session = db.session();
    let cap = count_cap(goal);
    let count = |query: &PatternQuery| {
        session
            .count_opts(query, MatchOptions::counting(Some(cap)))
            .expect("baseline modification preserves query validity")
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut executed = 0usize;
    let mut trajectory = Vec::new();

    let mut current = q.clone();
    let mut current_c = count(&current);
    executed += 1;
    let mut current_mods: Vec<GraphMod> = Vec::new();
    let mut best_dev = goal.deviation(current_c);
    trajectory.push((executed, best_dev));
    if goal.satisfied(current_c) {
        return BaselineOutcome {
            explanation: Some(ModificationExplanation {
                query: current,
                mods: current_mods,
                cardinality: current_c,
                syntactic_distance: 0.0,
            }),
            executed,
            trajectory,
            best_deviation: 0,
            termination: governor.termination(),
        };
    }

    let mut visited: HashSet<String> = HashSet::new();
    visited.insert(signature(&current));

    // the governor bounds the sampling loop (one step per attempt): a node
    // whose neighborhood is fully visited would otherwise spin without
    // consuming execution budget
    while executed < budget {
        if governor.charge(1).is_err() {
            break;
        }
        let need_more = current_c == 0
            || !matches!(
                goal.classify(current_c),
                crate::problem::WhyProblem::WhySoMany
            );
        let candidates = fine_candidates(&current, db.domains(), need_more, true);
        if candidates.is_empty() {
            break;
        }
        let m = &candidates[rng.random_range(0..candidates.len())];
        let Ok((child, _)) = m.applied(&current) else {
            continue;
        };
        let sig = signature(&child);
        if visited.contains(&sig) {
            continue;
        }
        visited.insert(sig);
        let c = count(&child);
        executed += 1;
        let dev = goal.deviation(c);
        if dev < best_dev {
            best_dev = dev;
        }
        trajectory.push((executed, best_dev));
        if goal.satisfied(c) {
            let mut mods = current_mods;
            mods.push(m.clone());
            return BaselineOutcome {
                explanation: Some(ModificationExplanation {
                    syntactic_distance: syntactic_distance(q, &child),
                    query: child,
                    mods,
                    cardinality: c,
                }),
                executed,
                trajectory,
                best_deviation: 0,
                termination: governor.termination(),
            };
        }
        // hill-climb: adopt the child only on improvement
        if dev < goal.deviation(current_c) {
            current = child;
            current_c = c;
            current_mods.push(m.clone());
        }
    }

    BaselineOutcome {
        explanation: None,
        executed,
        trajectory,
        best_deviation: best_dev,
        termination: governor.termination(),
    }
}

/// Breadth-first lattice enumeration without cardinality guidance.
///
/// `governor` carries any deadline or cancellation (one step charged per
/// executed candidate); [`Budget::unlimited`] leaves the run bounded by
/// `budget` alone — unlike [`random_walk`], BFS never spins without
/// executing, so no implicit attempt budget is substituted.
pub fn exhaustive_bfs(
    db: &Database,
    q: &PatternQuery,
    goal: CardinalityGoal,
    budget: usize,
    governor: &Budget,
) -> BaselineOutcome {
    let session = db.session();
    let cap = count_cap(goal);
    let count = |query: &PatternQuery| {
        session
            .count_opts(query, MatchOptions::counting(Some(cap)))
            .expect("baseline modification preserves query validity")
    };
    let mut executed = 0usize;
    let mut trajectory = Vec::new();
    let mut best_dev;

    let c0 = count(q);
    executed += 1;
    best_dev = goal.deviation(c0);
    trajectory.push((executed, best_dev));
    if goal.satisfied(c0) {
        return BaselineOutcome {
            explanation: Some(ModificationExplanation {
                query: q.clone(),
                mods: Vec::new(),
                cardinality: c0,
                syntactic_distance: 0.0,
            }),
            executed,
            trajectory,
            best_deviation: 0,
            termination: governor.termination(),
        };
    }

    let mut visited: HashSet<String> = HashSet::new();
    visited.insert(signature(q));
    let mut queue: VecDeque<(PatternQuery, u64, Vec<GraphMod>)> = VecDeque::new();
    queue.push_back((q.clone(), c0, Vec::new()));

    'outer: while let Some((node, node_c, mods)) = queue.pop_front() {
        if executed >= budget || governor.poll().is_err() {
            break;
        }
        let need_more =
            node_c == 0 || !matches!(goal.classify(node_c), crate::problem::WhyProblem::WhySoMany);
        for m in fine_candidates(&node, db.domains(), need_more, true) {
            if executed >= budget {
                break;
            }
            if governor.charge(1).is_err() {
                break 'outer;
            }
            let Ok((child, _)) = m.applied(&node) else {
                continue;
            };
            let sig = signature(&child);
            if !visited.insert(sig) {
                continue;
            }
            let c = count(&child);
            executed += 1;
            let dev = goal.deviation(c);
            if dev < best_dev {
                best_dev = dev;
            }
            trajectory.push((executed, best_dev));
            if goal.satisfied(c) {
                let mut all_mods = mods.clone();
                all_mods.push(m);
                return BaselineOutcome {
                    explanation: Some(ModificationExplanation {
                        syntactic_distance: syntactic_distance(q, &child),
                        query: child,
                        mods: all_mods,
                        cardinality: c,
                    }),
                    executed,
                    trajectory,
                    best_deviation: 0,
                    termination: governor.termination(),
                };
            }
            let mut all_mods = mods.clone();
            all_mods.push(m);
            queue.push_back((child, c, all_mods));
        }
    }

    BaselineOutcome {
        explanation: None,
        executed,
        trajectory,
        best_deviation: best_dev,
        termination: governor.termination(),
    }
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
        let out = random_walk(
            &db,
            &narrow_query(),
            CardinalityGoal::AtLeast(7),
            500,
            42,
            &Budget::unlimited(),
        );
        assert!(out.explanation.is_some());
    }

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let db = data();
        let a = random_walk(
            &db,
            &narrow_query(),
            CardinalityGoal::AtLeast(7),
            200,
            7,
            &Budget::unlimited(),
        );
        let b = random_walk(
            &db,
            &narrow_query(),
            CardinalityGoal::AtLeast(7),
            200,
            7,
            &Budget::unlimited(),
        );
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn bfs_finds_solution_with_enough_budget() {
        let db = data();
        let out = exhaustive_bfs(
            &db,
            &narrow_query(),
            CardinalityGoal::AtLeast(7),
            2000,
            &Budget::unlimited(),
        );
        assert!(out.explanation.is_some());
    }

    #[test]
    fn cancelled_governor_stops_the_walk_tagged() {
        use whyq_matcher::CancelToken;
        let db = data();
        let token = CancelToken::new();
        token.cancel();
        let out = random_walk(
            &db,
            &narrow_query(),
            CardinalityGoal::AtLeast(7),
            500,
            42,
            &Budget::cancelled_by(&token),
        );
        assert!(out.explanation.is_none());
        // only the original query was measured before the governor tripped
        assert_eq!(out.executed, 1);
        assert_eq!(out.termination, Termination::Cancelled);
    }

    #[test]
    fn trajectories_are_monotone() {
        let db = data();
        let out = exhaustive_bfs(
            &db,
            &narrow_query(),
            CardinalityGoal::AtLeast(1000),
            50,
            &Budget::unlimited(),
        );
        for w in out.trajectory.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        assert!(out.explanation.is_none());
    }
}
