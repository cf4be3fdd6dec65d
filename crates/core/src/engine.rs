//! The holistic why-query engine (§3.1.3).
//!
//! `WhyEngine` is the user-facing entry point: given a query and a
//! cardinality goal it measures the result size, classifies the problem
//! (why-empty / why-so-few / why-so-many, Fig. 3.1) and dispatches to the
//! matching explanation generator:
//!
//! | problem      | subgraph-based        | modification-based          |
//! |--------------|-----------------------|-----------------------------|
//! | why-empty    | DISCOVERMCS (§4.2.1)  | coarse rewriting (Ch. 5)    |
//! | why-so-few   | BOUNDEDMCS (§4.2.2)   | TRAVERSESEARCHTREE (Ch. 6)  |
//! | why-so-many  | BOUNDEDMCS (§4.2.2)   | TRAVERSESEARCHTREE (Ch. 6)  |
//!
//! Every count stops where its answer is decided. A count whose size is
//! reported ([`WhyEngine::cardinality`], [`WhyEngine::diagnose`]) runs to
//! 1,000,000; a count that only classifies stops at the goal's decisive
//! cap, and the coarse rewriter counts each candidate to its first match.
//!
//! A diagnosis has one [`Budget`], set by [`WhyEngine::governed`], which
//! every count the engine makes charges. A tripped count is only a lower
//! bound, so it decides nothing: it is never memoized or accepted.

use crate::explanation::{ModificationExplanation, SubgraphExplanation};
use crate::fine::TraverseSearchTree;
use crate::problem::{CardinalityGoal, WhyProblem};
use crate::relax::{CoarseRewriter, RelaxConfig};
use crate::subgraph::{BoundedMcs, DiscoverMcs};
use std::collections::HashSet;
use whyq_matcher::{Budget, MatchOptions};
use whyq_query::PatternQuery;
use whyq_session::{Database, Session, WhyqError};

/// Cap of the counts whose size is reported: [`WhyEngine::cardinality`]
/// and [`WhyEngine::diagnose`].
const COUNT_CAP: u64 = 1_000_000;

/// A complete diagnosis: classification plus both explanation kinds. A
/// budget that trips after the classification degrades it; read how it
/// ended from a clone of the budget ([`Budget::termination`]).
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// The classified problem.
    pub problem: WhyProblem,
    /// Measured cardinality of the original query, capped at
    /// `max(1,000,000, goal.decisive_cap())`.
    pub cardinality: u64,
    /// Subgraph-based explanation (absent when the goal is satisfied).
    pub subgraph: Option<SubgraphExplanation>,
    /// Modification-based explanation (absent when the goal is satisfied,
    /// the rewriter's candidate cap ran out or the budget tripped).
    pub rewrite: Option<ModificationExplanation>,
}

/// The why-query engine bound to one [`Database`].
///
/// Every entry point returns `Result<_, WhyqError>`: queries are validated
/// through [`Session::prepare`] before any algorithm runs, and all
/// cardinality measurements flow through the database's shared plan cache
/// — the relax loop's hundreds of sibling candidates pay for compilation
/// once per distinct signature.
///
/// Counts stop where they decide. `cardinality` and `diagnose` report the
/// size, so they count to `max(1,000,000, goal.decisive_cap())`.
/// `classify` counts to the goal's decisive cap and `rewrite` to its
/// dispatch's cap (1 for the coarse rewriter, the fine rewriter's own cap
/// otherwise): every goal is still judged exactly. The coarse rewriter
/// counts each candidate to its first match, so its explanation reports
/// `cardinality` 1; count the rewritten query for its size.
///
/// The MCS generators count every traversed prefix on the engine's own
/// session, so their prefixes share the plan cache and sibling store with
/// the rewriters; the fine rewriter borrows [`Database::domains`].
/// Everything here runs serially on the calling thread.
///
/// A tripped budget stays tripped: govern one engine per diagnosis. A trip
/// in the engine's own count is [`WhyqError::Interrupted`], elsewhere a degraded answer.
pub struct WhyEngine<'db> {
    db: &'db Database,
    /// Session reused across every cardinality measurement (its scratch
    /// arena is built exactly once; indexes come from the database
    /// configuration instead of a hard-coded attribute).
    session: Session<'db>,
    budget: Budget,
}

impl<'db> WhyEngine<'db> {
    /// An ungoverned engine.
    pub fn new(db: &'db Database) -> Self {
        WhyEngine::governed(db, Budget::unlimited())
    }

    /// An engine whose every count charges `budget`: deadline, step budget
    /// and cancellation.
    pub fn governed(db: &'db Database, budget: Budget) -> Self {
        WhyEngine {
            db,
            session: db.session(),
            budget,
        }
    }

    /// Measured cardinality of a query, capped at 1,000,000.
    pub fn cardinality(&self, q: &PatternQuery) -> Result<u64, WhyqError> {
        self.count(q, COUNT_CAP)
    }

    /// Classify the why-problem of `q` under `goal`, counting `q` only to
    /// the goal's decisive cap.
    pub fn classify(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
    ) -> Result<WhyProblem, WhyqError> {
        Ok(goal.classify(self.count(q, goal.decisive_cap())?))
    }

    /// Cardinality of `q`, counted to `cap`; a tripped budget fails before
    /// the plan cache is probed.
    fn count(&self, q: &PatternQuery, cap: u64) -> Result<u64, WhyqError> {
        self.budget
            .poll()
            .map_err(|termination| WhyqError::Interrupted { termination })?;
        let opts = MatchOptions::counting(Some(cap)).with_budget(self.budget.clone());
        self.session.count_opts(q, opts)
    }

    /// Subgraph-based explanation for an empty result (DISCOVERMCS).
    ///
    /// A budget that trips mid-traversal is not an error: the partial
    /// explanation is tagged with its
    /// [`termination`](SubgraphExplanation::termination).
    pub fn why_empty(&self, q: &PatternQuery) -> Result<SubgraphExplanation, WhyqError> {
        // validate (and warm the plan cache) before the traversal starts
        self.session.prepare(q)?;
        DiscoverMcs::new(self.db).run_with(q, &self.session, &self.budget)
    }

    /// Subgraph-based explanation for any cardinality problem.
    pub fn subgraph_explanation(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
    ) -> Result<SubgraphExplanation, WhyqError> {
        let problem = self.classify(q, goal)?;
        self.subgraph_for(q, goal, problem)
    }

    /// Modification-based explanation: rewrite `q` so it satisfies `goal`.
    ///
    /// `q` is counted only as far as the dispatch needs: to its first
    /// match for `NonEmpty`, else to the fine rewriter's cap, which then
    /// takes that count as its root.
    pub fn rewrite(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
    ) -> Result<Option<ModificationExplanation>, WhyqError> {
        let cap = match goal {
            CardinalityGoal::NonEmpty => goal.decisive_cap(),
            _ => crate::fine::count_cap(goal),
        };
        let cardinality = self.count(q, cap)?;
        self.rewrite_for(q, goal, cardinality)
    }

    /// Full diagnosis: count `q` once, classify it, then produce both
    /// explanation kinds for that one classification.
    pub fn diagnose(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
    ) -> Result<Diagnosis, WhyqError> {
        let cardinality = self.count(q, COUNT_CAP.max(goal.decisive_cap()))?;
        let problem = goal.classify(cardinality);
        if problem == WhyProblem::Satisfied {
            return Ok(Diagnosis {
                problem,
                cardinality,
                subgraph: None,
                rewrite: None,
            });
        }
        Ok(Diagnosis {
            problem,
            cardinality,
            subgraph: Some(self.subgraph_for(q, goal, problem)?),
            rewrite: self.rewrite_for(q, goal, cardinality)?,
        })
    }

    /// [`WhyEngine::subgraph_explanation`] for an already classified `q`.
    fn subgraph_for(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
        problem: WhyProblem,
    ) -> Result<SubgraphExplanation, WhyqError> {
        match problem {
            WhyProblem::WhyEmpty => self.why_empty(q),
            _ => BoundedMcs::new(self.db).run_with(q, goal, &self.session, &self.budget),
        }
    }

    /// [`WhyEngine::rewrite`] for a `q` already measured at `cardinality`;
    /// the fine rewriter takes that count as its root instead of counting
    /// `q` again.
    fn rewrite_for(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
        cardinality: u64,
    ) -> Result<Option<ModificationExplanation>, WhyqError> {
        Ok(match goal.classify(cardinality) {
            WhyProblem::Satisfied => None,
            WhyProblem::WhyEmpty if matches!(goal, CardinalityGoal::NonEmpty) => {
                let (config, none) = (RelaxConfig::default(), HashSet::new());
                let rewriter = CoarseRewriter::new(self.db);
                let relaxed = rewriter.rewrite_guided(q, &config, None, &none, &self.budget);
                relaxed.explanation
            }
            // cardinality-driven problems (including empty results under a
            // threshold goal) go to the fine-grained engine
            _ => {
                TraverseSearchTree::new(self.db)
                    .run_measured(q, goal, cardinality, &self.budget)
                    .explanation
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QueryBuilder};

    fn data() -> Database {
        let mut g = PropertyGraph::new();
        let city = g.add_vertex([
            ("type", Value::str("city")),
            ("name", Value::str("Dresden")),
        ]);
        for i in 0..8 {
            let p = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(20 + i))]);
            g.add_edge(p, city, "livesIn", []);
        }
        Database::open(g).expect("open")
    }

    #[test]
    fn diagnose_why_empty() {
        let db = data();
        let engine = WhyEngine::new(&db);
        let q = QueryBuilder::new("berlin")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex(
                "c",
                [
                    Predicate::eq("type", "city"),
                    Predicate::eq("name", "Berlin"),
                ],
            )
            .edge("p", "c", "livesIn")
            .build();
        let d = engine.diagnose(&q, CardinalityGoal::NonEmpty).unwrap();
        assert_eq!(d.problem, WhyProblem::WhyEmpty);
        assert_eq!(d.cardinality, 0);
        let sub = d.subgraph.expect("subgraph explanation");
        assert!(!sub.differential.is_empty());
        let rw = d.rewrite.expect("rewrite found");
        assert!(rw.cardinality > 0);
    }

    #[test]
    fn diagnose_why_so_many() {
        let db = data();
        let engine = WhyEngine::new(&db);
        let q = QueryBuilder::new("all")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build();
        let d = engine.diagnose(&q, CardinalityGoal::AtMost(3)).unwrap();
        assert_eq!(d.problem, WhyProblem::WhySoMany);
        assert_eq!(d.cardinality, 8);
        let rw = d.rewrite.expect("rewrite found");
        assert!(rw.cardinality <= 3 && rw.cardinality > 0);
    }

    #[test]
    fn diagnose_why_so_few() {
        let db = data();
        let engine = WhyEngine::new(&db);
        let q = QueryBuilder::new("narrow")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("age", 20.0, 21.0),
                ],
            )
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build();
        let d = engine.diagnose(&q, CardinalityGoal::AtLeast(5)).unwrap();
        assert_eq!(d.problem, WhyProblem::WhySoFew);
        let rw = d.rewrite.expect("rewrite found");
        assert!(rw.cardinality >= 5);
    }

    #[test]
    fn satisfied_goal_produces_no_explanations() {
        let db = data();
        let engine = WhyEngine::new(&db);
        let q = QueryBuilder::new("ok")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        let d = engine.diagnose(&q, CardinalityGoal::NonEmpty).unwrap();
        assert_eq!(d.problem, WhyProblem::Satisfied);
        assert!(d.subgraph.is_none());
        assert!(d.rewrite.is_none());
        assert!(engine
            .rewrite(&q, CardinalityGoal::NonEmpty)
            .unwrap()
            .is_none());
    }

    #[test]
    fn diagnose_counts_the_query_once() {
        let probes = |db: &Database| {
            let s = db.cache_stats();
            s.hits + s.misses
        };
        let goals = [
            CardinalityGoal::NonEmpty,
            CardinalityGoal::AtMost(3),
            CardinalityGoal::AtLeast(5),
        ];
        let qs = [
            QueryBuilder::new("berlin")
                .vertex("p", [Predicate::eq("type", "person")])
                .vertex(
                    "c",
                    [
                        Predicate::eq("type", "city"),
                        Predicate::eq("name", "Berlin"),
                    ],
                )
                .edge("p", "c", "livesIn")
                .build(),
            QueryBuilder::new("all")
                .vertex("p", [Predicate::eq("type", "person")])
                .vertex("c", [Predicate::eq("type", "city")])
                .edge("p", "c", "livesIn")
                .build(),
            QueryBuilder::new("narrow")
                .vertex(
                    "p",
                    [
                        Predicate::eq("type", "person"),
                        Predicate::between("age", 20.0, 21.0),
                    ],
                )
                .vertex("c", [Predicate::eq("type", "city")])
                .edge("p", "c", "livesIn")
                .build(),
        ];
        for (q, goal) in qs.iter().zip(goals) {
            let (whole, parts) = (data(), data());
            WhyEngine::new(&whole).diagnose(q, goal).unwrap();
            let engine = WhyEngine::new(&parts);
            engine.cardinality(q).unwrap();
            engine.subgraph_explanation(q, goal).unwrap();
            engine.rewrite(q, goal).unwrap();
            // the two classifications of the separate calls are not repeated
            assert_eq!(probes(&whole), probes(&parts) - 2, "{goal:?}");
        }
    }

    #[test]
    fn diagnose_hands_its_count_to_the_fine_rewriter() {
        let probes = |db: &Database| {
            let s = db.cache_stats();
            s.hits + s.misses
        };
        let q = QueryBuilder::new("all")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build();
        let goal = CardinalityGoal::AtMost(3);
        let (whole, parts) = (data(), data());
        let d = WhyEngine::new(&whole).diagnose(&q, goal).unwrap();
        assert_eq!(d.problem, WhyProblem::WhySoMany);
        WhyEngine::new(&parts).cardinality(&q).unwrap();
        BoundedMcs::new(&parts).run(&q, goal).unwrap();
        TraverseSearchTree::new(&parts).run(&q, goal);
        // the fine rewriter does not count the root a second time
        assert_eq!(probes(&whole), probes(&parts) - 1);
    }

    #[test]
    fn empty_under_threshold_goal_uses_fine_engine() {
        let db = data();
        let engine = WhyEngine::new(&db);
        let q = QueryBuilder::new("none")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("age", 90.0, 95.0),
                ],
            )
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build();
        let d = engine.diagnose(&q, CardinalityGoal::AtLeast(3)).unwrap();
        assert_eq!(d.problem, WhyProblem::WhyEmpty);
        let rw = d.rewrite.expect("rewrite found");
        assert!(rw.cardinality >= 3);
    }
}
