//! Fine-grained cardinality-driven query modification (Ch. 6).
//!
//! When a cardinality threshold is involved, discarding whole constraints
//! is too blunt: every change must move the result size *toward* the
//! threshold. The TRAVERSESEARCHTREE method constructs a modification tree
//! at runtime (§6.1.3), expands the node with the smallest cardinality
//! deviation first (§6.2.1), generates value-level predicate changes and
//! topology edits (§6.2.2) and discards non-contributing changes and their
//! branches (§6.3.2).
//!
//! Every child is counted as one session count. The change propagation of
//! §6.3.1 — re-evaluate only what a changed operator affects — comes from
//! the session's caches: a child differs from its parent in one element,
//! so the sibling store replays every query component the change leaves
//! untouched, and `derive_sibling` patches the cached plan of a
//! one-constant change instead of recompiling it.
//!
//! Value-level changes draw neighbouring values from [`Database::domains`].
//! Children are counted at `max(50,000, goal.decisive_cap())`, so a count
//! cap never hides whether a child meets the goal.

pub mod baselines;
pub mod generate;
pub mod mod_tree;

pub use mod_tree::{ModTreeNode, ModificationTree, NodeStatus};

use crate::explanation::ModificationExplanation;
use crate::fine::generate::fine_candidates;
use crate::problem::CardinalityGoal;
use std::collections::{BinaryHeap, HashSet};
use whyq_matcher::MatchOptions;
use whyq_metrics::syntactic_distance;
use whyq_query::{signature::signature, GraphMod, PatternQuery};
use whyq_session::{Database, Session};

/// Cap on children generated per expansion.
const MAX_CHILDREN: usize = 48;

/// Cap on counted results of the fine rewriter and its baselines: 50,000,
/// raised to `goal`'s decisive cap when that is larger.
pub(crate) fn count_cap(goal: CardinalityGoal) -> u64 {
    goal.decisive_cap().max(50_000)
}

/// Configuration of the fine-grained rewriter.
#[derive(Debug, Clone)]
pub struct FineConfig {
    /// Budget: maximum number of executed candidate queries.
    pub max_executed: usize,
    /// Allow topology modifications (§6.4.3 ablates this).
    pub allow_topology: bool,
}

impl Default for FineConfig {
    fn default() -> Self {
        FineConfig {
            max_executed: 300,
            allow_topology: true,
        }
    }
}

/// Outcome of a TRAVERSESEARCHTREE run.
#[derive(Debug, Clone)]
pub struct FineOutcome {
    /// The goal-satisfying explanation, if found within budget.
    pub explanation: Option<ModificationExplanation>,
    /// Executed candidate queries.
    pub executed: usize,
    /// The constructed modification tree.
    pub tree: ModificationTree,
    /// Convergence trajectory: `(executed, best deviation so far)`.
    pub trajectory: Vec<(usize, u64)>,
    /// Best deviation reached (0 when a solution was found).
    pub best_deviation: u64,
}

struct FrontierNode {
    deviation: u64,
    depth: usize,
    seq: u64,
    tree_id: usize,
    query: PatternQuery,
    cardinality: u64,
    mods: Vec<GraphMod>,
}

impl PartialEq for FrontierNode {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for FrontierNode {}
impl PartialOrd for FrontierNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: smaller deviation = greater priority
        other
            .deviation
            .cmp(&self.deviation)
            .then(other.depth.cmp(&self.depth))
            .then(other.seq.cmp(&self.seq))
    }
}

/// The TRAVERSESEARCHTREE algorithm (§6.2.1).
pub struct TraverseSearchTree<'g> {
    db: &'g Database,
    session: Session<'g>,
    config: FineConfig,
}

impl<'g> TraverseSearchTree<'g> {
    /// Rewriter over `db` with default configuration.
    pub fn new(db: &'g Database) -> Self {
        TraverseSearchTree {
            db,
            session: db.session(),
            config: FineConfig::default(),
        }
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: FineConfig) -> Self {
        self.config = config;
        self
    }

    /// Modify `q` until its cardinality satisfies `goal`.
    pub fn run(&self, q: &PatternQuery, goal: CardinalityGoal) -> FineOutcome {
        self.run_measured(q, goal, self.count(q, goal))
    }

    /// [`TraverseSearchTree::run`] for a query the caller already counted
    /// at a cap of at least [`count_cap`]`(goal)`. Capping `measured` at
    /// [`count_cap`]`(goal)` gives exactly the root count `run` takes, so
    /// the search is the same; `executed` still counts the root.
    pub(crate) fn run_measured(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
        measured: u64,
    ) -> FineOutcome {
        let c0 = measured.min(count_cap(goal));
        let mut executed = 1usize;
        let mut trajectory = Vec::new();

        let dev0 = goal.deviation(c0);
        let mut tree = ModificationTree::with_root(c0, dev0);
        let mut best_dev = dev0;
        trajectory.push((executed, best_dev));
        if goal.satisfied(c0) {
            tree.set_status(0, NodeStatus::Solution);
            return FineOutcome {
                explanation: Some(ModificationExplanation {
                    query: q.clone(),
                    mods: Vec::new(),
                    cardinality: c0,
                    syntactic_distance: 0.0,
                }),
                executed,
                tree,
                trajectory,
                best_deviation: 0,
            };
        }

        let mut visited: HashSet<String> = HashSet::new();
        visited.insert(signature(q));
        let mut frontier: BinaryHeap<FrontierNode> = BinaryHeap::new();
        let mut seq = 0u64;
        frontier.push(FrontierNode {
            deviation: dev0,
            depth: 0,
            seq,
            tree_id: 0,
            query: q.clone(),
            cardinality: c0,
            mods: Vec::new(),
        });

        while let Some(node) = frontier.pop() {
            if executed >= self.config.max_executed {
                break;
            }
            tree.set_status(node.tree_id, NodeStatus::Expanded);
            // direction per node — this is the holistic oscillation of
            // Fig. 3.1: a node below the goal relaxes, one above restricts
            let need_more = node.cardinality == 0
                || !matches!(
                    goal.classify(node.cardinality),
                    crate::problem::WhyProblem::WhySoMany
                );

            let mut candidates = fine_candidates(
                &node.query,
                self.db.domains(),
                need_more,
                self.config.allow_topology,
            );
            candidates.truncate(MAX_CHILDREN);

            for m in candidates {
                if executed >= self.config.max_executed {
                    break;
                }
                let Ok((child, _)) = m.applied(&node.query) else {
                    continue;
                };
                let sig = signature(&child);
                if !visited.insert(sig) {
                    continue;
                }
                let c = self.count(&child, goal);
                executed += 1;
                let dev = goal.deviation(c);
                let tree_id = tree.add_child(node.tree_id, m.clone(), c, dev);
                if dev < best_dev {
                    best_dev = dev;
                }
                trajectory.push((executed, best_dev));

                if goal.satisfied(c) {
                    tree.set_status(tree_id, NodeStatus::Solution);
                    let mut mods = node.mods.clone();
                    mods.push(m);
                    return FineOutcome {
                        explanation: Some(ModificationExplanation {
                            syntactic_distance: syntactic_distance(q, &child),
                            query: child,
                            mods,
                            cardinality: c,
                        }),
                        executed,
                        tree,
                        trajectory,
                        best_deviation: 0,
                    };
                }
                // §6.3.2: a change that did not move the cardinality is
                // non-contributing — discard the branch
                if c == node.cardinality {
                    tree.set_status(tree_id, NodeStatus::Discarded);
                    continue;
                }
                let mut mods = node.mods.clone();
                mods.push(m);
                seq += 1;
                frontier.push(FrontierNode {
                    deviation: dev,
                    depth: node.depth + 1,
                    seq,
                    tree_id,
                    query: child,
                    cardinality: c,
                    mods,
                });
            }
        }

        FineOutcome {
            explanation: None,
            executed,
            tree,
            trajectory,
            best_deviation: best_dev,
        }
    }

    /// Cardinality of `query`, capped at [`count_cap`]`(goal)`.
    fn count(&self, query: &PatternQuery, goal: CardinalityGoal) -> u64 {
        self.session
            .count_opts(query, MatchOptions::counting(Some(count_cap(goal))))
            .expect("fine modification preserves query validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QueryBuilder};

    /// One city, persons aged 20..=29 living there.
    fn data() -> Database {
        let mut g = PropertyGraph::new();
        let city = g.add_vertex([("type", Value::str("city"))]);
        for i in 0..10 {
            let p = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(20 + i))]);
            g.add_edge(p, city, "livesIn", []);
        }
        Database::open(g).expect("open")
    }

    fn age_query(lo: f64, hi: f64) -> PatternQuery {
        QueryBuilder::new("ages")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("age", lo, hi),
                ],
            )
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build()
    }

    #[test]
    fn widens_range_to_reach_at_least() {
        let db = data();
        // 3 matches now (ages 24..=26); user wants at least 7
        let q = age_query(24.0, 26.0);
        let out = TraverseSearchTree::new(&db).run(&q, CardinalityGoal::AtLeast(7));
        let expl = out.explanation.expect("found");
        assert!(expl.cardinality >= 7);
        assert!(!expl.mods.is_empty());
        assert!(expl.syntactic_distance > 0.0);
        assert_eq!(out.best_deviation, 0);
    }

    #[test]
    fn narrows_range_to_reach_at_most() {
        let db = data();
        // 10 matches; user wants at most 4
        let q = age_query(18.0, 32.0);
        let out = TraverseSearchTree::new(&db).run(&q, CardinalityGoal::AtMost(4));
        let expl = out.explanation.expect("found");
        assert!(expl.cardinality <= 4 && expl.cardinality > 0);
    }

    #[test]
    fn satisfied_query_returns_immediately() {
        let db = data();
        let q = age_query(20.0, 29.0);
        let out = TraverseSearchTree::new(&db).run(&q, CardinalityGoal::AtLeast(5));
        assert_eq!(out.executed, 1);
        assert!(out.explanation.unwrap().mods.is_empty());
    }

    #[test]
    fn non_contributing_changes_are_discarded() {
        let db = data();
        let q = age_query(24.0, 26.0);
        let out = TraverseSearchTree::new(&db).run(&q, CardinalityGoal::AtLeast(7));
        // some generated changes (e.g. direction flips on livesIn) change
        // nothing — they must be in the tree as Discarded
        assert!(out.tree.count_status(NodeStatus::Discarded) > 0);
    }

    #[test]
    fn budget_limits_execution() {
        let db = data();
        let q = age_query(24.0, 26.0);
        let out = TraverseSearchTree::new(&db)
            .with_config(FineConfig {
                max_executed: 3,
                ..FineConfig::default()
            })
            .run(&q, CardinalityGoal::AtLeast(1000));
        assert!(out.executed <= 3);
        assert!(out.explanation.is_none());
        assert!(out.best_deviation > 0);
        // trajectory is monotone non-increasing in deviation
        for w in out.trajectory.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn oscillation_converges_to_interval() {
        let db = data();
        // start with 10 answers, goal: between 4 and 6
        let q = age_query(18.0, 32.0);
        let out = TraverseSearchTree::new(&db).run(&q, CardinalityGoal::Between(4, 6));
        let expl = out.explanation.expect("found");
        assert!((4..=6).contains(&expl.cardinality));
    }
}
