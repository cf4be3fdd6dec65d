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
//! The search runs on the frontier the coarse rewriter uses
//! (`crate::search`). Unlike the relax loop, it counts a child as the
//! child is generated: the count is the child's deviation, hence its key.
//! The §6.4.1 exhaustive BFS baseline ([`baselines::exhaustive_bfs`]) is
//! the same loop in breadth-first order, without the §6.3.2 pruning.
//!
//! §6.3.2 acts before execution where it can. Before counting a child,
//! the search asks [`prune::non_contributing`] whether the catalog's type
//! triples prove that the child matches exactly what its parent matches.
//! Such a child enters the tree with its parent's count as `Discarded`,
//! as counting it would have left it, without being executed
//! ([`FineOutcome::pruned`]). Every other child is counted, and
//! discarded afterwards if its count equals its parent's.
//!
//! A counted child is one session count. The change propagation of
//! §6.3.1 — re-evaluate only what a changed operator affects — comes from
//! the session's caches: a child differs from its parent in one element,
//! so the sibling store replays every query component the change leaves
//! untouched, and `derive_sibling` patches the cached plan of a
//! one-constant change instead of recompiling it.
//!
//! Value-level changes draw neighbouring values from [`Database::domains`],
//! and the pruning reads its type triples. Children are counted at
//! `max(50,000, goal.decisive_cap())`, so a count cap never hides whether
//! a child meets the goal. Under the why-engine's budget a trip ends the
//! search: a tripped count is only a lower bound, which may wrongly meet
//! an `AtMost` goal.

pub mod baselines;
pub mod generate;
pub mod mod_tree;
pub mod prune;

pub use mod_tree::{ModTreeNode, ModificationTree, NodeStatus};

use crate::explanation::ModificationExplanation;
use crate::fine::generate::fine_candidates;
use crate::fine::prune::non_contributing;
use crate::problem::{CardinalityGoal, WhyProblem};
use crate::search::Frontier;
use std::cmp::Reverse;
use std::rc::Rc;
use whyq_matcher::{Budget, MatchOptions};
use whyq_metrics::syntactic_distance;
use whyq_query::{GraphMod, PatternQuery};
use whyq_session::{Database, Session};

/// Cap on children generated per expansion.
const MAX_CHILDREN: usize = 48;

/// Cap on counted results of the fine rewriter and its baselines: 50,000,
/// raised to `goal`'s decisive cap when that is larger.
pub(crate) fn count_cap(goal: CardinalityGoal) -> u64 {
    goal.decisive_cap().max(50_000)
}

/// Cardinality of `q`, capped at [`count_cap`]`(goal)` and charged to
/// `budget`: a lower bound once `budget` has tripped.
fn count(session: &Session<'_>, q: &PatternQuery, goal: CardinalityGoal, budget: &Budget) -> u64 {
    let opts = MatchOptions::counting(Some(count_cap(goal))).with_budget(budget.clone());
    session
        .count_governed(q, opts)
        .expect("fine modification preserves query validity")
        .value
}

/// Does a query counted `c` have to grow toward `goal`? A node below the
/// goal relaxes, one above restricts: the holistic oscillation of Fig. 3.1.
fn need_more(goal: CardinalityGoal, c: u64) -> bool {
    goal.classify(c) != WhyProblem::WhySoMany
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

/// Outcome of a TRAVERSESEARCHTREE run or of a §6.4.1 baseline.
#[derive(Debug, Clone)]
pub struct FineOutcome {
    /// The goal-satisfying explanation, if found within budget.
    pub explanation: Option<ModificationExplanation>,
    /// Executed candidate queries, the root included. A child
    /// TRAVERSESEARCHTREE proves non-contributing before counting it is
    /// not executed (see [`FineOutcome::pruned`]).
    pub executed: usize,
    /// Children discarded as non-contributing without being executed.
    pub pruned: usize,
    /// The constructed modification tree.
    pub tree: ModificationTree,
    /// Convergence trajectory: `(executed, best deviation so far)`.
    pub trajectory: Vec<(usize, u64)>,
    /// Best deviation reached (0 when a solution was found).
    pub best_deviation: u64,
}

impl FineOutcome {
    /// The outcome of a search whose root `q` counted `c0`: the root is the
    /// first executed candidate, and the answer when it meets `goal`.
    fn root(q: &PatternQuery, c0: u64, goal: CardinalityGoal) -> Self {
        let dev0 = goal.deviation(c0);
        let mut out = FineOutcome {
            explanation: None,
            executed: 1,
            pruned: 0,
            tree: ModificationTree::with_root(c0, dev0),
            trajectory: vec![(1, dev0)],
            best_deviation: dev0,
        };
        if goal.satisfied(c0) {
            out.solve(0, q, q.clone(), Vec::new(), c0);
        }
        out
    }

    /// Record one more executed candidate, of deviation `dev`.
    fn record(&mut self, dev: u64) {
        self.executed += 1;
        self.best_deviation = self.best_deviation.min(dev);
        self.trajectory.push((self.executed, self.best_deviation));
    }

    /// Accept tree node `id`, `query` derived from `q` by `mods` and
    /// counted `cardinality`, as the explanation.
    fn solve(
        &mut self,
        id: usize,
        q: &PatternQuery,
        query: PatternQuery,
        mods: Vec<GraphMod>,
        cardinality: u64,
    ) {
        self.tree.set_status(id, NodeStatus::Solution);
        self.best_deviation = 0;
        self.explanation = Some(ModificationExplanation {
            syntactic_distance: if mods.is_empty() {
                0.0
            } else {
                syntactic_distance(q, &query)
            },
            query,
            mods,
            cardinality,
        });
    }
}

/// The order a search pops its frontier in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Smallest deviation first, then the shallowest (§6.2.1). An expansion
    /// keeps its first [`MAX_CHILDREN`] candidates and discards the
    /// non-contributing children (§6.3.2), those it can prove so before
    /// counting them.
    Deviation,
    /// Shallowest first, without cardinality guidance or pruning: the
    /// §6.4.1 exhaustive BFS baseline.
    Breadth,
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

    /// Modify `q` until its cardinality satisfies `goal`, ungoverned.
    pub fn run(&self, q: &PatternQuery, goal: CardinalityGoal) -> FineOutcome {
        let unlimited = Budget::unlimited();
        let c0 = count(&self.session, q, goal, &unlimited);
        self.run_measured(q, goal, c0, &unlimited)
    }

    /// [`TraverseSearchTree::run`] for a query the caller already counted
    /// at a cap of at least [`count_cap`]`(goal)`, charging every child
    /// count to `budget`. Capping `measured` at [`count_cap`]`(goal)` gives
    /// exactly the root count `run` takes, so the search is the same;
    /// `executed` still counts the root.
    pub(crate) fn run_measured(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
        measured: u64,
        budget: &Budget,
    ) -> FineOutcome {
        let c0 = measured.min(count_cap(goal));
        self.search(q, goal, c0, Order::Deviation, budget)
    }

    /// Search from `q`, counted `c0`, in `order` until a child meets `goal`,
    /// `max_executed` candidates ran or `budget` trips. A child is counted
    /// as it is generated and pushed keyed by its rank under `order`,
    /// unless the deviation order proves it non-contributing first.
    fn search(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
        c0: u64,
        order: Order,
        budget: &Budget,
    ) -> FineOutcome {
        let mut out = FineOutcome::root(q, c0, goal);
        if out.explanation.is_some() {
            return out;
        }
        // a node carries its tree id and its count
        let (mut frontier, mut root) = Frontier::<Reverse<(u64, usize)>, (usize, u64)>::new(q);
        root.data = (0, c0);
        frontier.push(root);

        while let Some(node) = frontier.pop() {
            if out.executed >= self.config.max_executed || budget.poll().is_err() {
                break;
            }
            let (tree_id, node_c) = node.data;
            out.tree.set_status(tree_id, NodeStatus::Expanded);
            let mut candidates = fine_candidates(
                &node.query,
                self.db.domains(),
                need_more(goal, node_c),
                self.config.allow_topology,
            );
            if order == Order::Deviation {
                candidates.truncate(MAX_CHILDREN);
            }

            for m in candidates {
                if out.executed >= self.config.max_executed {
                    break;
                }
                let Some(mut child) = frontier.admit(&node, m.clone()) else {
                    continue;
                };
                // §6.3.2 before execution: a child proven to match what its
                // parent matches has its parent's count without counting
                let proven = order == Order::Deviation
                    && non_contributing(self.db.domains(), &node.query, &m, &child.query);
                let c = if proven {
                    node_c
                } else {
                    count(&self.session, &child.query, goal, budget)
                };
                if !budget.termination().is_complete() {
                    return out;
                }
                let dev = goal.deviation(c);
                let id = out.tree.add_child(tree_id, m, c, dev);
                if proven {
                    out.pruned += 1;
                } else {
                    out.record(dev);
                }
                if goal.satisfied(c) {
                    out.solve(id, q, Rc::unwrap_or_clone(child.query), child.mods, c);
                    return out;
                }
                // §6.3.2: a change that did not move the cardinality is
                // non-contributing — discard the branch
                if order == Order::Deviation && c == node_c {
                    out.tree.set_status(id, NodeStatus::Discarded);
                    continue;
                }
                let depth = child.mods.len();
                child.key = Some(Reverse(match order {
                    Order::Deviation => (dev, depth),
                    Order::Breadth => (0, depth),
                }));
                child.data = (id, c);
                frontier.push(child);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
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

    /// Test-only reference: the search as it ran before §6.3.2 moved
    /// before execution. It counts every child and discards the
    /// non-contributing ones only after counting them.
    fn counting_every_child(
        tst: &TraverseSearchTree<'_>,
        q: &PatternQuery,
        goal: CardinalityGoal,
    ) -> FineOutcome {
        let c0 = count(&tst.session, q, goal, &Budget::unlimited());
        let mut out = FineOutcome::root(q, c0, goal);
        if out.explanation.is_some() {
            return out;
        }
        let (mut frontier, mut root) = Frontier::<Reverse<(u64, usize)>, (usize, u64)>::new(q);
        root.data = (0, c0);
        frontier.push(root);
        while let Some(node) = frontier.pop() {
            if out.executed >= tst.config.max_executed {
                break;
            }
            let (tree_id, node_c) = node.data;
            out.tree.set_status(tree_id, NodeStatus::Expanded);
            let mut candidates = fine_candidates(
                &node.query,
                tst.db.domains(),
                need_more(goal, node_c),
                tst.config.allow_topology,
            );
            candidates.truncate(MAX_CHILDREN);
            for m in candidates {
                if out.executed >= tst.config.max_executed {
                    break;
                }
                let Some(mut child) = frontier.admit(&node, m.clone()) else {
                    continue;
                };
                let c = count(&tst.session, &child.query, goal, &Budget::unlimited());
                let dev = goal.deviation(c);
                let id = out.tree.add_child(tree_id, m, c, dev);
                out.record(dev);
                if goal.satisfied(c) {
                    out.solve(id, q, Rc::unwrap_or_clone(child.query), child.mods, c);
                    return out;
                }
                if c == node_c {
                    out.tree.set_status(id, NodeStatus::Discarded);
                    continue;
                }
                child.key = Some(Reverse((dev, child.mods.len())));
                child.data = (id, c);
                frontier.push(child);
            }
        }
        out
    }

    /// A random graph of `n` vertices: a `type` out of three or none, an
    /// `x` out of six; edges of three types, self-loops included.
    fn random_graph(rng: &mut StdRng, n: usize) -> Database {
        let mut g = PropertyGraph::new();
        let vs: Vec<_> = (0..n)
            .map(|_| {
                let x = ("x", Value::Int(rng.random_range(0..6)));
                match rng.random_range(0..4usize) {
                    3 => g.add_vertex([x]),
                    t => g.add_vertex([x, ("type", Value::str(["a", "b", "c"][t]))]),
                }
            })
            .collect();
        for _ in 0..rng.random_range(n..3 * n) {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            g.add_edge(
                vs[a],
                vs[b],
                ["r", "s", "t"][rng.random_range(0..3usize)],
                [],
            );
        }
        Database::open(g).expect("open")
    }

    /// A random path query of 2 or 3 vertices: typed or untyped vertices,
    /// one with an `x` range; edges of one type, of none, forward or both
    /// ways; sometimes a self-loop on the first vertex.
    fn random_query(rng: &mut StdRng) -> PatternQuery {
        use whyq_query::{DirectionSet, QueryEdge, QueryVertex};
        let mut q = PatternQuery::named("random");
        let mut prev = None;
        for i in 0..rng.random_range(2..4usize) {
            let mut preds = Vec::new();
            if rng.random_range(0..4usize) > 0 {
                preds.push(Predicate::eq(
                    "type",
                    ["a", "b", "c"][rng.random_range(0..3usize)],
                ));
            }
            if i == 0 {
                let lo = rng.random_range(0..5i32);
                preds.push(Predicate::between("x", f64::from(lo), f64::from(lo + 1)));
            }
            let v = q.add_vertex(QueryVertex::with(preds));
            let edges = match prev {
                Some(p) => vec![(p, v)],
                None => Vec::new(),
            };
            let loops = if rng.random_range(0..5usize) == 0 {
                vec![(v, v)]
            } else {
                Vec::new()
            };
            for (a, b) in edges.into_iter().chain(loops) {
                let mut e = QueryEdge::typed(a, b, ["r", "s", "t"][rng.random_range(0..3usize)]);
                if rng.random_range(0..4usize) == 0 {
                    e.types.clear();
                }
                if rng.random_range(0..3usize) == 0 {
                    e.directions = DirectionSet::BOTH;
                }
                q.add_edge(e);
            }
            prev = Some(v);
        }
        q
    }

    /// Pruning before execution changes no search: on random graphs where
    /// the budget does not bind, the run returns the reference's
    /// explanation and tree, with no more executed candidates.
    #[test]
    fn pruning_keeps_the_search_of_counting_every_child() {
        let mut rng = StdRng::seed_from_u64(34);
        let (mut runs, mut pruned) = (0, 0);
        for _ in 0..60 {
            let n = rng.random_range(5..12);
            let db = random_graph(&mut rng, n);
            let q = random_query(&mut rng);
            let c = count(
                &db.session(),
                &q,
                CardinalityGoal::NonEmpty,
                &Budget::unlimited(),
            );
            let k = rng.random_range(1..8u64);
            for goal in [
                CardinalityGoal::AtLeast(c + k),
                CardinalityGoal::AtMost(c.saturating_sub(k)),
                CardinalityGoal::Between(c + 1, c + k),
            ] {
                let tst = TraverseSearchTree::new(&db).with_config(FineConfig {
                    max_executed: 300,
                    ..FineConfig::default()
                });
                let reference = counting_every_child(&tst, &q, goal);
                if reference.executed >= tst.config.max_executed {
                    continue;
                }
                let out = tst.run(&q, goal);
                let what = format!("{} {goal:?}", whyq_query::signature::signature(&q));
                let shown = |o: &FineOutcome| {
                    let e = o.explanation.as_ref().map(|e| {
                        let sig = whyq_query::signature::signature(&e.query);
                        (sig, e.mods.clone(), e.cardinality, e.syntactic_distance)
                    });
                    format!("{e:?}\n{:?}\n{}", o.tree.nodes(), o.best_deviation)
                };
                assert_eq!(shown(&out), shown(&reference), "{what}");
                assert_eq!(out.executed + out.pruned, reference.executed, "{what}");
                runs += 1;
                pruned += out.pruned;
            }
        }
        assert!(runs > 100, "the budget bound too often: {runs} runs");
        assert!(
            pruned > runs,
            "too little was pruned: {pruned} in {runs} runs"
        );
    }

    /// A count the budget cut short is a lower bound, which can meet an
    /// `AtMost` goal its full count misses: the search stops on it instead.
    #[test]
    fn a_tripped_count_is_never_accepted() {
        let mut g = PropertyGraph::new();
        let city = g.add_vertex([("type", Value::str("city"))]);
        for i in 0..4000 {
            let p = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(i % 2))]);
            g.add_edge(p, city, "livesIn", []);
        }
        let db = Database::open(g).expect("open");
        let q = QueryBuilder::new("all")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build();
        // the first child, `age = 0`, matches 2,000; its count trips after
        // about a thousand
        let goal = CardinalityGoal::AtMost(1500);
        let budget = Budget::steps(0);
        let out = TraverseSearchTree::new(&db).run_measured(&q, goal, 4000, &budget);
        assert_eq!(
            budget.termination(),
            whyq_matcher::Termination::BudgetExhausted
        );
        assert!(out.explanation.is_none());
        assert_eq!(out.executed, 1, "the tripped child is not recorded");
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
