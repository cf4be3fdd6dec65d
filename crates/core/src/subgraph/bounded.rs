//! The BOUNDEDMCS algorithm for why-so-few and why-so-many queries
//! (§4.2.2).
//!
//! BOUNDEDMCS generalizes DISCOVERMCS from "non-empty" to an arbitrary
//! cardinality bound. A traversal path is walked to the end (while the
//! prefix still has *any* matches), the cardinality of every prefix is
//! recorded, and the **bounded MCS** is the longest prefix whose
//! cardinality satisfies the bound; the edge following it is the *crossing
//! edge* where the bound is violated:
//!
//! * **why-so-few** (`AtLeast(t)`): the crossing edge is the constraint
//!   that pushes the count below the threshold — the subgraph to blame for
//!   the missing answers;
//! * **why-so-many** (`AtMost(t)`): the crossing edge is where the
//!   explosion begins (e.g. a high-fan-out traversal). When already every
//!   seed vertex exceeds the bound, the MCS is empty — the query is
//!   under-constrained from the start, which is itself the explanation.
//!
//! Prefixes are counted like DISCOVERMCS's (one governed session count
//! each), capped at the goal's decisive cap — the smallest count that
//! decides it: 1, `t + 1` or `hi + 1`. Every bound test is therefore
//! exact. The engine's classification and the fine rewriter never cap
//! below the same value.

use crate::explanation::SubgraphExplanation;
use crate::problem::CardinalityGoal;
use crate::subgraph::discover::{explain, prefix_count, PrefixOutcome};
use crate::subgraph::traversal::TraversalPath;
use crate::subgraph::McsConfig;
use whyq_matcher::Budget;
use whyq_query::PatternQuery;
use whyq_session::{Database, Session, WhyqError};

/// The BOUNDEDMCS algorithm (§4.2.2).
pub struct BoundedMcs<'g> {
    db: &'g Database,
    config: McsConfig,
}

/// Per-prefix cardinalities of one path: `counts[0]` is the seed count,
/// `counts[i]` the count after traversing `i` edges, each capped at the
/// goal's cap. Every prefix after an empty one is empty too, so it is
/// recorded as 0 without being counted. A budget trip ends the walk,
/// leaving the counts measured so far.
fn traverse_counts(
    session: &Session<'_>,
    q: &PatternQuery,
    path: &TraversalPath,
    cap: u64,
    budget: &Budget,
    extensions: &mut u64,
) -> Result<Vec<u64>, WhyqError> {
    let mut counts = Vec::new();
    for n in 0..=path.edges.len() {
        if counts.last() == Some(&0) {
            counts.push(0);
            continue;
        }
        *extensions += 1;
        match prefix_count(session, q, path.start, &path.edges[..n], cap, budget)? {
            Some(c) => counts.push(c),
            None => break,
        }
    }
    Ok(counts)
}

impl<'g> BoundedMcs<'g> {
    /// BOUNDEDMCS over `db` with default configuration.
    pub fn new(db: &'g Database) -> Self {
        BoundedMcs {
            db,
            config: McsConfig::default(),
        }
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: McsConfig) -> Self {
        self.config = config;
        self
    }

    /// Explain a query whose cardinality violates `goal`.
    ///
    /// The run is ungoverned. Under [`BoundedMcs::run_with`]'s budget a
    /// trip degrades it gracefully: the explanation assembled from the
    /// components finished so far is returned with its
    /// [`termination`](SubgraphExplanation::termination) naming the cause.
    /// `Err` is reserved for real failures (an invalid query).
    pub fn run(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
    ) -> Result<SubgraphExplanation, WhyqError> {
        self.run_with(q, goal, &self.db.session(), &Budget::unlimited())
    }

    /// Like [`BoundedMcs::run`], but counting every prefix through a
    /// caller-provided session (which must belong to the same database)
    /// and charging it to `budget` — the why-engine reuses its long-lived
    /// session and its diagnosis budget this way.
    pub fn run_with(
        &self,
        q: &PatternQuery,
        goal: CardinalityGoal,
        session: &Session<'_>,
        budget: &Budget,
    ) -> Result<SubgraphExplanation, WhyqError> {
        let cap = goal.decisive_cap();
        explain(self.db, q, &self.config, budget, |path, extensions| {
            let counts = traverse_counts(session, q, path, cap, budget, extensions)?;
            // longest prefix position with a satisfied cardinality;
            // position 0 = seed only, position i = i edges traversed
            let satisfied = counts.iter().rposition(|&c| goal.satisfied(c));
            let len = satisfied.unwrap_or(0);
            // the edge after it crosses the bound if its prefix was measured
            // (a budget trip leaves it unmeasured: no crossing edge then)
            let measured = len + 1 < counts.len();
            Ok(PrefixOutcome {
                start: path.start,
                prefix: path.edges[..len].to_vec(),
                crossing: path.edges.get(len).copied().filter(|_| measured),
                seed_ok: satisfied.is_some(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QEid, QVid, QueryBuilder};

    /// Star data: one city with ten inhabitants; only one of them works at
    /// the rare company.
    fn data() -> Database {
        let mut g = PropertyGraph::new();
        let city = g.add_vertex([("type", Value::str("city"))]);
        let rare = g.add_vertex([
            ("type", Value::str("company")),
            ("name", Value::str("RareCo")),
        ]);
        for i in 0..10 {
            let p = g.add_vertex([("type", Value::str("person"))]);
            g.add_edge(p, city, "livesIn", []);
            if i == 0 {
                g.add_edge(p, rare, "worksAt", []);
            }
        }
        Database::open(g).expect("open")
    }

    /// person -livesIn-> city, person -worksAt-> company(RareCo)
    fn star_query() -> PatternQuery {
        QueryBuilder::new("star")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .vertex(
                "co",
                [
                    Predicate::eq("type", "company"),
                    Predicate::eq("name", "RareCo"),
                ],
            )
            .edge("p", "c", "livesIn")
            .edge("p", "co", "worksAt")
            .build()
    }

    #[test]
    fn why_so_few_blames_the_selective_edge() {
        let db = data();
        let q = star_query();
        // full query delivers 1 answer; the user expected ≥ 5
        let expl = BoundedMcs::new(&db)
            .run(&q, CardinalityGoal::AtLeast(5))
            .unwrap();
        // bounded MCS: person + livesIn + city (10 matches ≥ 5)
        assert_eq!(expl.mcs.num_edges(), 1);
        assert!(expl.mcs.edge(whyq_query::QEid(0)).is_some());
        assert_eq!(db.session().count(&expl.mcs).unwrap(), 10);
        // crossing edge: the worksAt edge towards the rare company
        assert_eq!(expl.crossing_edge, Some(whyq_query::QEid(1)));
        let failed: Vec<QEid> = expl.differential.edge_ids().collect();
        assert_eq!(failed, vec![whyq_query::QEid(1)]);
    }

    #[test]
    fn why_so_many_finds_explosion_edge() {
        let db = data();
        // city joined with every inhabitant: 10 answers, user wanted ≤ 3
        let q = QueryBuilder::new("many")
            .vertex("c", [Predicate::eq("type", "city")])
            .vertex("p", [Predicate::eq("type", "person")])
            .edge("p", "c", "livesIn")
            .build();
        let expl = BoundedMcs::new(&db)
            .run(&q, CardinalityGoal::AtMost(3))
            .unwrap();
        // the city seed (1 ≤ 3) is fine; adding livesIn explodes to 10
        assert_eq!(expl.mcs.num_edges(), 0);
        assert!(expl.mcs.vertex(QVid(0)).is_some());
        assert_eq!(expl.crossing_edge, Some(whyq_query::QEid(0)));
    }

    #[test]
    fn satisfied_bound_covers_whole_query() {
        let db = data();
        let q = QueryBuilder::new("ok")
            .vertex("c", [Predicate::eq("type", "city")])
            .vertex("p", [Predicate::eq("type", "person")])
            .edge("p", "c", "livesIn")
            .build();
        let expl = BoundedMcs::new(&db)
            .run(&q, CardinalityGoal::AtMost(50))
            .unwrap();
        assert!(expl.differential.is_empty());
        assert_eq!(db.session().count(&expl.mcs).unwrap(), 10);
    }

    #[test]
    fn bounded_with_nonempty_goal_matches_discover() {
        let db = data();
        let q = QueryBuilder::new("fail")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::eq("gender", "unknown"),
                ],
            )
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build();
        let bounded = BoundedMcs::new(&db)
            .run(&q, CardinalityGoal::NonEmpty)
            .unwrap();
        let discover = crate::subgraph::DiscoverMcs::new(&db).run(&q).unwrap();
        assert_eq!(bounded.mcs.num_edges(), discover.mcs.num_edges());
        assert_eq!(bounded.mcs.num_vertices(), discover.mcs.num_vertices());
    }

    #[test]
    fn cancelled_run_returns_tagged_partial() {
        use whyq_matcher::{CancelToken, Termination};
        let db = data();
        let token = CancelToken::new();
        token.cancel();
        let expl = BoundedMcs::new(&db)
            .run_with(
                &star_query(),
                CardinalityGoal::AtLeast(5),
                &db.session(),
                &Budget::cancelled_by(&token),
            )
            .unwrap();
        assert_eq!(expl.termination, Termination::Cancelled);
        assert_eq!(expl.mcs.num_vertices(), 0);
    }

    #[test]
    fn hopeless_bound_yields_empty_mcs() {
        let db = data();
        let q = star_query();
        // nothing in this data ever reaches 1000 matches
        let expl = BoundedMcs::new(&db)
            .run(&q, CardinalityGoal::AtLeast(1000))
            .unwrap();
        assert_eq!(expl.mcs.num_vertices(), 0);
        assert_eq!(expl.differential.len(), q.num_vertices() + q.num_edges());
    }
}
