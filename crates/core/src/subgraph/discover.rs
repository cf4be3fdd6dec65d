//! The DISCOVERMCS algorithm for why-empty queries (§4.2.1).
//!
//! DISCOVERMCS detects the maximum common connected subgraph (MCS) between
//! a failed query and the data graph: the largest connected subquery that
//! still delivers results. It traverses the query edge-by-edge along
//! traversal paths; the first edge whose addition empties the results is
//! the *crossing edge*, the traversed prefix is an MCS candidate, and the
//! maximum over all tried paths is returned. The differential graph
//! `Q ∖ MCS` — the failed query part — is the explanation (§4.2.3).
//!
//! Every prefix (the path's start vertex plus the edges traversed so far)
//! is one governed count of a subquery on the caller's [`Session`], capped
//! at 1 since only non-emptiness matters. Prefixes of different paths that
//! share an edge set share a signature, so the plan cache and the sibling
//! store answer them after the first evaluation.
//!
//! With exhaustive path enumeration the result is exact (every satisfiable
//! connected subquery is a prefix of some connected order); the single-path
//! strategies of §4.3.2/§4.4.2 approximate it with one traversal.

use crate::explanation::{DifferentialGraph, SubgraphExplanation};
use crate::stats::Statistics;
use crate::subgraph::traversal::{
    enumerate_paths, selectivity_path, user_centric_path, PathStrategy, TraversalPath,
};
use crate::subgraph::McsConfig;
use whyq_matcher::{Budget, MatchOptions};
use whyq_query::{PatternQuery, QEid, QVid};
use whyq_session::{Database, Session, WhyqError};

/// Outcome of traversing one component along its best path.
#[derive(Debug, Clone)]
pub(crate) struct PrefixOutcome {
    pub start: QVid,
    pub prefix: Vec<QEid>,
    pub crossing: Option<QEid>,
    pub seed_ok: bool,
}

/// Put `start` back into `sub` when no kept edge brought it along (an
/// edgeless seed).
fn restore_start(q: &PatternQuery, sub: &mut PatternQuery, start: QVid) {
    if sub.vertex(start).is_none() {
        if let Some(v) = q.vertex(start) {
            sub.restore_vertex(start, v.clone());
        }
    }
}

/// Cardinality of the prefix subquery `start` + `prefix` of `q`: one
/// governed count on `session`, capped at `cap` and charged to the run's
/// `budget`. `None` when the budget tripped — the count is then only a
/// lower bound, so the caller ends the path instead of reading it as a
/// bound violation.
pub(crate) fn prefix_count(
    session: &Session<'_>,
    q: &PatternQuery,
    start: QVid,
    prefix: &[QEid],
    cap: u64,
    budget: &Budget,
) -> Result<Option<u64>, WhyqError> {
    let mut sub = q.edge_subquery(prefix);
    restore_start(q, &mut sub, start);
    let opts = MatchOptions::counting(Some(cap)).with_budget(budget.clone());
    let counted = session.count_governed(&sub, opts)?;
    Ok(counted.termination.is_complete().then_some(counted.value))
}

/// Traverse one path, growing the prefix while it still has a match. A
/// budget trip returns the prefix grown so far with no crossing edge — an
/// exhausted budget is not a semantic bound violation.
fn traverse_path(
    session: &Session<'_>,
    q: &PatternQuery,
    path: &TraversalPath,
    budget: &Budget,
    extensions: &mut u64,
) -> Result<PrefixOutcome, WhyqError> {
    let mut outcome = PrefixOutcome {
        start: path.start,
        prefix: Vec::new(),
        crossing: None,
        seed_ok: false,
    };
    *extensions += 1;
    if prefix_count(session, q, path.start, &[], 1, budget)?.unwrap_or(0) == 0 {
        return Ok(outcome);
    }
    outcome.seed_ok = true;
    for &e in &path.edges {
        outcome.prefix.push(e);
        *extensions += 1;
        match prefix_count(session, q, path.start, &outcome.prefix, 1, budget)? {
            Some(n) if n > 0 => continue,
            Some(_) => outcome.crossing = Some(e),
            None => {}
        }
        outcome.prefix.pop();
        break;
    }
    Ok(outcome)
}

/// One MCS search, shared by DISCOVERMCS and BOUNDEDMCS: per component
/// (§4.3.1), the best prefix over its paths, each traversed by `traverse`
/// (which adds its prefix evaluations to the counter it is handed) — the
/// longest prefix wins, ties break on the earlier path, and a component's
/// exploration stops once a path covers every component edge or `budget`
/// trips. The winners are assembled into the MCS and its explanation; the
/// MCS is not counted again.
pub(crate) fn explain(
    db: &Database,
    q: &PatternQuery,
    config: &McsConfig,
    budget: &Budget,
    mut traverse: impl FnMut(&TraversalPath, &mut u64) -> Result<PrefixOutcome, WhyqError>,
) -> Result<SubgraphExplanation, WhyqError> {
    let stats = Statistics::new(db);
    stats.govern(budget);
    let mut extensions = 0u64;
    let mut paths_tried = 0usize;
    let mut outcomes = Vec::new();
    for component in components_of(q, config.decompose) {
        if budget.poll().is_err() {
            break;
        }
        let component_edges = component_edge_count(q, &component);
        let mut best: Option<PrefixOutcome> = None;
        for path in paths_for(q, &component, config, &stats) {
            if budget.poll().is_err() {
                break;
            }
            paths_tried += 1;
            let outcome = traverse(&path, &mut extensions)?;
            // a longer prefix, or the first matching seed after
            // non-matching ones
            let better = best.as_ref().is_none_or(|b| {
                outcome.prefix.len() > b.prefix.len() || (!b.seed_ok && outcome.seed_ok)
            });
            if better {
                let complete = outcome.prefix.len() == component_edges;
                best = Some(outcome);
                if complete {
                    break;
                }
            }
        }
        outcomes.extend(best);
    }
    let mcs = assemble_mcs(q, &outcomes);
    Ok(SubgraphExplanation {
        differential: DifferentialGraph::between(q, &mcs),
        mcs,
        crossing_edge: outcomes.iter().find_map(|o| o.crossing),
        paths_tried,
        extensions,
        termination: budget.termination(),
    })
}

/// Number of distinct query edges incident to `component`. `incident_edges`
/// yields each edge once per *vertex* it touches (a self-loop once), so
/// the set dedups the edges shared by two component endpoints — the count
/// compares against prefix lengths and must be exact.
fn component_edge_count(q: &PatternQuery, component: &[QVid]) -> usize {
    component
        .iter()
        .flat_map(|&v| q.incident_edges(v))
        .collect::<std::collections::BTreeSet<QEid>>()
        .len()
}

/// Components to traverse: per-WCC when decomposition is on (§4.3.1),
/// otherwise the whole live vertex set at once.
fn components_of(q: &PatternQuery, decompose: bool) -> Vec<Vec<QVid>> {
    if decompose {
        q.weakly_connected_components()
    } else {
        let all: Vec<QVid> = q.vertex_ids().collect();
        if all.is_empty() {
            Vec::new()
        } else {
            vec![all]
        }
    }
}

/// Paths for one component per the configured strategy.
fn paths_for(
    q: &PatternQuery,
    component: &[QVid],
    config: &McsConfig,
    stats: &Statistics<'_>,
) -> Vec<TraversalPath> {
    match &config.strategy {
        PathStrategy::Exhaustive => enumerate_paths(q, component, config.max_paths),
        PathStrategy::SingleSelectivity => vec![selectivity_path(q, component, stats)],
        PathStrategy::UserCentric(prefs) => {
            vec![user_centric_path(q, component, prefs, stats)]
        }
    }
}

/// Assemble the MCS query from per-component outcomes, preserving ids.
fn assemble_mcs(q: &PatternQuery, outcomes: &[PrefixOutcome]) -> PatternQuery {
    let all_edges: Vec<QEid> = outcomes
        .iter()
        .flat_map(|o| o.prefix.iter().copied())
        .collect();
    let mut mcs = q.edge_subquery(&all_edges);
    // an edgeless but matching seed still belongs to the MCS
    for o in outcomes.iter().filter(|o| o.seed_ok) {
        restore_start(q, &mut mcs, o.start);
    }
    mcs
}

/// The DISCOVERMCS algorithm (§4.2.1).
pub struct DiscoverMcs<'g> {
    db: &'g Database,
    config: McsConfig,
}

impl<'g> DiscoverMcs<'g> {
    /// DISCOVERMCS over `db` with default configuration.
    pub fn new(db: &'g Database) -> Self {
        DiscoverMcs {
            db,
            config: McsConfig::default(),
        }
    }

    /// Override the configuration (path strategy, caps, decomposition).
    pub fn with_config(mut self, config: McsConfig) -> Self {
        self.config = config;
        self
    }

    /// Explain a why-empty query: detect the MCS and the differential graph.
    ///
    /// The run is ungoverned. Under [`DiscoverMcs::run_with`]'s budget a
    /// trip degrades it gracefully: the explanation assembled from the
    /// components finished so far is returned with its
    /// [`termination`](SubgraphExplanation::termination) naming the cause.
    /// `Err` is reserved for real failures (an invalid query).
    pub fn run(&self, q: &PatternQuery) -> Result<SubgraphExplanation, WhyqError> {
        self.run_with(q, &self.db.session(), &Budget::unlimited())
    }

    /// Like [`DiscoverMcs::run`], but counting every prefix through a
    /// caller-provided session (which must belong to the same database)
    /// and charging it to `budget` — the why-engine reuses its long-lived
    /// session and its diagnosis budget this way.
    pub fn run_with(
        &self,
        q: &PatternQuery,
        session: &Session<'_>,
        budget: &Budget,
    ) -> Result<SubgraphExplanation, WhyqError> {
        explain(self.db, q, &self.config, budget, |path, extensions| {
            traverse_path(session, q, path, budget, extensions)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QueryBuilder};

    /// Data: Anna works at TUD (since 2003), TUD located in Dresden.
    fn data() -> Database {
        let mut g = PropertyGraph::new();
        let anna = g.add_vertex([("type", Value::str("person")), ("name", Value::str("Anna"))]);
        let tud = g.add_vertex([("type", Value::str("university"))]);
        let dresden = g.add_vertex([
            ("type", Value::str("city")),
            ("name", Value::str("Dresden")),
        ]);
        g.add_edge(anna, tud, "workAt", [("sinceYear", Value::Int(2003))]);
        g.add_edge(tud, dresden, "locatedIn", []);
        Database::open(g).expect("open")
    }

    /// Query asking for the university in *Berlin* — fails on the city name.
    fn failing_query() -> PatternQuery {
        QueryBuilder::new("f")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("u", [Predicate::eq("type", "university")])
            .vertex(
                "c",
                [
                    Predicate::eq("type", "city"),
                    Predicate::eq("name", "Berlin"),
                ],
            )
            .edge("p", "u", "workAt")
            .edge("u", "c", "locatedIn")
            .build()
    }

    /// Three persons (a knows b knows c); a and b live in the one city.
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

    /// Two persons knowing each other, both living in the one city.
    fn social_query() -> PatternQuery {
        QueryBuilder::new("tri")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p1", "p2", "knows")
            .edge("p1", "c", "livesIn")
            .edge("p2", "c", "livesIn")
            .build()
    }

    fn count(db: &Database, q: &PatternQuery, prefix: &[QEid], cap: u64) -> Option<u64> {
        let session = db.session();
        prefix_count(&session, q, QVid(0), prefix, cap, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn prefix_counts_follow_the_traversal() {
        let db = social();
        let q = social_query();
        let (knows, lives1, lives2) = (QEid(0), QEid(1), QEid(2));
        assert_eq!(count(&db, &q, &[], u64::MAX), Some(3));
        assert_eq!(count(&db, &q, &[knows], u64::MAX), Some(2)); // a->b, b->c
        assert_eq!(count(&db, &q, &[knows, lives1], u64::MAX), Some(2));
        let full = count(&db, &q, &[knows, lives1, lives2], u64::MAX);
        assert_eq!(full, Some(db.session().count(&q).unwrap()));
        assert_eq!(full, Some(1));
    }

    #[test]
    fn prefix_count_respects_its_cap() {
        let db = social();
        let q = QueryBuilder::new("p")
            .vertex("p1", [Predicate::eq("type", "person")])
            .build();
        assert_eq!(count(&db, &q, &[], 2), Some(2));
    }

    #[test]
    fn self_loop_prefix_requires_data_self_loop() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([]);
        let b = g.add_vertex([]);
        g.add_edge(a, b, "t", []);
        g.add_edge(b, b, "t", []);
        let db = Database::open(g).expect("open");
        let mut q = PatternQuery::new();
        let v = q.add_vertex(whyq_query::QueryVertex::any());
        let e = q.add_edge(whyq_query::QueryEdge::typed(v, v, "t"));
        assert_eq!(count(&db, &q, &[], u64::MAX), Some(2));
        assert_eq!(count(&db, &q, &[e], u64::MAX), Some(1));
    }

    #[test]
    fn finds_mcs_and_differential() {
        let db = data();
        let expl = DiscoverMcs::new(&db).run(&failing_query()).unwrap();
        // MCS: person -workAt-> university (1 edge, 2 vertices)
        assert_eq!(expl.mcs.num_edges(), 1);
        assert_eq!(expl.mcs.num_vertices(), 2);
        assert_eq!(db.session().count(&expl.mcs).unwrap(), 1);
        // differential: the city vertex and the locatedIn edge
        let failed_vs: Vec<QVid> = expl.differential.vertex_ids().collect();
        let failed_es: Vec<QEid> = expl.differential.edge_ids().collect();
        assert_eq!(failed_vs, vec![QVid(2)]);
        assert_eq!(failed_es, vec![QEid(1)]);
        assert_eq!(expl.crossing_edge, Some(QEid(1)));
        assert!(expl.paths_tried >= 1);
        assert!(expl.extensions >= 2);
    }

    #[test]
    fn succeeding_query_has_empty_differential() {
        let g = data();
        let q = QueryBuilder::new("ok")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("u", [Predicate::eq("type", "university")])
            .edge("p", "u", "workAt")
            .build();
        let expl = DiscoverMcs::new(&g).run(&q).unwrap();
        assert!(expl.differential.is_empty());
        assert_eq!(g.session().count(&expl.mcs).unwrap(), 1);
        assert_eq!(expl.crossing_edge, None);
    }

    #[test]
    fn totally_failing_seed_excludes_component() {
        let g = data();
        let q = QueryBuilder::new("alien")
            .vertex("x", [Predicate::eq("type", "spaceship")])
            .build();
        let expl = DiscoverMcs::new(&g).run(&q).unwrap();
        assert_eq!(expl.mcs.num_vertices(), 0);
        assert_eq!(g.session().count(&expl.mcs).unwrap(), 0);
        assert_eq!(expl.differential.len(), 1);
    }

    #[test]
    fn single_path_strategy_is_cheaper() {
        let db = data();
        let q = failing_query();
        let exhaustive = DiscoverMcs::new(&db).run(&q).unwrap();
        let single = DiscoverMcs::new(&db)
            .with_config(McsConfig {
                strategy: PathStrategy::SingleSelectivity,
                ..McsConfig::default()
            })
            .run(&q)
            .unwrap();
        assert!(single.paths_tried <= exhaustive.paths_tried);
        assert!(single.extensions <= exhaustive.extensions);
        // on this simple query the approximation is exact
        assert_eq!(single.mcs.num_edges(), exhaustive.mcs.num_edges());
    }

    #[test]
    fn elapsed_deadline_degrades_gracefully() {
        use whyq_matcher::Termination;
        let db = data();
        let expl = DiscoverMcs::new(&db)
            .run_with(
                &failing_query(),
                &db.session(),
                &Budget::deadline(std::time::Duration::ZERO),
            )
            .unwrap();
        // the budget tripped before any component was traversed: the
        // partial explanation is empty but tagged, not an error
        assert_eq!(expl.termination, Termination::DeadlineExceeded);
        assert_eq!(expl.mcs.num_vertices(), 0);
        assert_eq!(expl.extensions, 0);
    }

    /// Each traversed prefix is one count, and nothing else is: the plan
    /// cache is probed exactly `extensions` times by either algorithm.
    #[test]
    fn one_plan_cache_probe_per_prefix() {
        use crate::problem::CardinalityGoal;
        use crate::subgraph::BoundedMcs;
        let probes = |db: &Database| {
            let s = db.cache_stats();
            s.hits + s.misses
        };
        let unlimited = Budget::unlimited();
        for (db, q) in [(data(), failing_query()), (social(), social_query())] {
            let session = db.session();
            let before = probes(&db);
            let expl = DiscoverMcs::new(&db)
                .run_with(&q, &session, &unlimited)
                .unwrap();
            assert_eq!(probes(&db) - before, expl.extensions);
            for goal in [CardinalityGoal::AtLeast(2), CardinalityGoal::AtMost(1)] {
                let before = probes(&db);
                let expl = BoundedMcs::new(&db)
                    .run_with(&q, goal, &session, &unlimited)
                    .unwrap();
                assert_eq!(probes(&db) - before, expl.extensions, "{goal:?}");
            }
        }
    }

    #[test]
    fn ungoverned_run_reports_complete() {
        use whyq_matcher::Termination;
        let db = data();
        let expl = DiscoverMcs::new(&db).run(&failing_query()).unwrap();
        assert_eq!(expl.termination, Termination::Complete);
    }

    #[test]
    fn disconnected_query_components_processed_separately() {
        let g = data();
        let q = QueryBuilder::new("two-parts")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex(
                "c",
                [
                    Predicate::eq("type", "city"),
                    Predicate::eq("name", "Atlantis"),
                ],
            )
            .build();
        let expl = DiscoverMcs::new(&g).run(&q).unwrap();
        // person part matches, Atlantis part fails
        assert!(expl.mcs.vertex(QVid(0)).is_some());
        assert!(expl.mcs.vertex(QVid(1)).is_none());
        assert_eq!(expl.differential.len(), 1);
    }
}
