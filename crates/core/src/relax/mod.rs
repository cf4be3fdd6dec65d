//! Coarse-grained modification-based explanations for why-empty queries
//! (Ch. 5).
//!
//! A failed (empty) query is rewritten by *discarding constraints* —
//! predicates, edges, vertices — until a candidate delivers results. The
//! search space is the relaxation lattice over the original query; the
//! rewriter explores it best-first:
//!
//! 1. **Candidate generation** ([`candidates`]) applies every applicable
//!    coarse relaxation to the current query (§5.3.1).
//! 2. **Prioritization** ([`priority`]) ranks candidates with
//!    query-dependent statistics (§5.2) — estimated cardinality, average
//!    `path(1)` cardinality, induced cardinality changes (§5.3.2) — or
//!    syntactic closeness / random order as baselines (§5.5.1). The
//!    search runs on the frontier the fine rewriter uses
//!    (`crate::search`), ranked on demand: candidates are pushed unscored
//!    in their conflict tier (the analyzer's conflict set first), and a
//!    popped candidate is scored only while another candidate of its tier
//!    is still waiting. The pop order is that of scoring every candidate
//!    at push; only the statistics work of candidates whose order never
//!    comes into question is saved.
//! 3. **Execution & caching** ([`cache`]) evaluates the most promising
//!    candidate, memoizing cardinalities by canonical signature so
//!    re-derived candidates are free (§5.5, App. B.2). A candidate only
//!    has to decide whether it is empty, so it is counted to its first
//!    match (the cap of [`CardinalityGoal::NonEmpty`]): an accepted
//!    rewrite reports `cardinality` 1, and callers that show a result
//!    size count the accepted query again. A candidate the matcher refutes
//!    at compile time (see `whyq_matcher::compile`) costs no plan and no
//!    scan.
//! 4. **User integration** ([`user_model`]) learns a preference model from
//!    ratings of delivered explanations and biases the priorities toward
//!    modifications the user tolerates (§5.4).

pub mod cache;
pub mod candidates;
pub mod priority;
pub mod user_model;

use crate::explanation::ModificationExplanation;
use crate::problem::CardinalityGoal;
use crate::relax::cache::{CacheStats, QueryCache};
use crate::relax::candidates::coarse_relaxations;
use crate::relax::priority::PriorityFn;
use crate::relax::user_model::PreferenceModel;
use crate::search::Frontier;
use crate::stats::Statistics;
use crate::user::SimulatedUser;
use std::collections::HashSet;
use std::rc::Rc;
use whyq_matcher::{Budget, MatchOptions, Termination};
use whyq_metrics::syntactic_distance;
use whyq_query::{analyze_against, signature::signature, GraphMod, PatternQuery, Target};
use whyq_session::{Database, Session, WhyqError};

/// Does applying `m` discard a constraint named in `conflicts`?
///
/// `conflicts` is the static analyzer's
/// [`conflict_set`](whyq_query::AnalysisReport::conflict_set): discarding
/// one of its constraints is the *minimal certain* step toward
/// satisfiability. Such a candidate is in the frontier's top tier and
/// outranks every other candidate whatever their statistics; within a tier
/// the score decides.
fn targets_conflict(m: &GraphMod, conflicts: &[(Target, Option<String>)]) -> bool {
    match m {
        // `RemovePredicate` drops *all* predicates with the attribute, so
        // one modification resolves even a merged contradiction like
        // `age > 30 ∧ age < 20`
        GraphMod::RemovePredicate { target, attr } => conflicts
            .iter()
            .any(|(t, a)| t == target && a.as_deref() == Some(attr.as_str())),
        // element-level conflicts (unknown edge type, no direction) are
        // resolved by discarding the element
        GraphMod::RemoveEdge(e) => conflicts
            .iter()
            .any(|(t, a)| *t == Target::Edge(*e) && a.is_none()),
        GraphMod::RemoveVertex(v) => conflicts
            .iter()
            .any(|(t, a)| *t == Target::Vertex(*v) && a.is_none()),
        _ => false,
    }
}

/// Configuration of the coarse-grained rewriter.
#[derive(Debug, Clone)]
pub struct RelaxConfig {
    /// Candidate priority function (§5.5.1).
    pub priority: PriorityFn,
    /// Budget: maximum number of *executed* candidate queries.
    pub max_executed: usize,
    /// Weight of the learned preference model in the priority (0 = model
    /// ignored).
    pub lambda: f64,
}

impl Default for RelaxConfig {
    fn default() -> Self {
        RelaxConfig {
            priority: PriorityFn::Path1PlusInduced,
            max_executed: 200,
            lambda: 0.0,
        }
    }
}

/// One executed candidate in the search trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// 1-based execution index.
    pub executed: usize,
    /// Result cardinality of the candidate, counted to its first match:
    /// 0 or 1.
    pub cardinality: u64,
    /// Syntactic distance of the candidate to the original query.
    pub syntactic: f64,
    /// Relaxation depth (number of applied modifications).
    pub depth: usize,
}

/// Outcome of a rewriting run.
#[derive(Debug, Clone)]
pub struct RelaxOutcome {
    /// The first accepted explanation, if the budget sufficed.
    pub explanation: Option<ModificationExplanation>,
    /// Number of executed candidate queries.
    pub executed: usize,
    /// Number of generated (not necessarily executed) candidates.
    pub generated: usize,
    /// Cache statistics (App. B.2).
    pub cache: CacheStats,
    /// Execution trajectory (§5.5.2 convergence plots).
    pub trajectory: Vec<TrajectoryPoint>,
    /// How the run ended: [`Termination::Complete`] when the search
    /// finished on its own (explanation found or `max_executed`
    /// exhausted), any other variant when the budget handed to
    /// [`CoarseRewriter::rewrite_guided`] tripped and the outcome reflects
    /// only the candidates executed up to that point.
    pub termination: Termination,
}

/// A delivered explanation with the user's rating (§5.5.4, App. B.1).
#[derive(Debug, Clone)]
pub struct RatedRound {
    /// The explanation delivered in this round.
    pub explanation: ModificationExplanation,
    /// The user's rating in `[0, 1]`.
    pub rating: f64,
    /// Candidates executed in this round.
    pub executed: usize,
}

/// Outcome of an interactive session with rating feedback.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// All delivered rounds with ratings.
    pub rounds: Vec<RatedRound>,
    /// Index into `rounds` of the first accepted explanation.
    pub accepted: Option<usize>,
}

/// The coarse-grained why-empty rewriter (Ch. 5).
///
/// The cardinality cache is rewriter state, not per-run state: interactive
/// sessions re-enter the search after every rejected proposal and re-derive
/// many of the same candidates — the re-use the thesis measures in App. B.2.
///
/// The search is strictly serial — pop, execute, expand — whatever
/// `WHYQ_THREADS` says: sibling candidates share most of their weakly
/// connected components, so the database's sibling store replays those and
/// only the component a relaxation touched re-executes.
pub struct CoarseRewriter<'g> {
    db: &'g Database,
    session: Session<'g>,
    stats: Statistics<'g>,
    cache: std::cell::RefCell<QueryCache>,
}

impl<'g> CoarseRewriter<'g> {
    /// Rewriter over `db`. Candidate execution runs through an own
    /// session, so every candidate count benefits from the database's
    /// configured indexes, shared plan cache and sibling store (siblings
    /// re-derived across interactive rounds skip compilation entirely).
    pub fn new(db: &'g Database) -> Self {
        CoarseRewriter {
            db,
            session: db.session(),
            stats: Statistics::new(db),
            cache: std::cell::RefCell::new(QueryCache::new()),
        }
    }

    /// Access to the statistics provider (for reporting).
    pub fn stats(&self) -> &Statistics<'g> {
        &self.stats
    }

    /// Snapshot of the shared cardinality cache (App. B.2 reporting).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.borrow().stats()
    }

    /// Rewrite a why-empty query until its first non-empty candidate, ungoverned.
    pub fn rewrite(&self, q: &PatternQuery, config: &RelaxConfig) -> RelaxOutcome {
        self.rewrite_guided(q, config, None, &HashSet::new(), &Budget::unlimited())
    }

    /// Rewrite with an optional preference model biasing priorities
    /// (`config.lambda` controls its weight) and a set of excluded
    /// candidate signatures (already delivered and rejected explanations).
    /// Every candidate count and scoring lookup charges `budget`; on a trip
    /// the search stops, and a tripped count is neither cached nor accepted.
    pub fn rewrite_guided(
        &self,
        q: &PatternQuery,
        config: &RelaxConfig,
        model: Option<&PreferenceModel>,
        exclude: &HashSet<String>,
        budget: &Budget,
    ) -> RelaxOutcome {
        let mut cache = self.cache.borrow_mut();
        self.stats.govern(budget);
        let mut executed = 0usize;
        let mut trajectory = Vec::new();
        let mut explanation = None;

        // seed the relaxation frontier from the static analyzer's conflict
        // set: when the emptiness is provable from the query text (a
        // contradictory conjunction, an unknown constant/type), the
        // candidates discarding exactly those constraints are explored
        // first instead of blind sibling enumeration
        let conflicts = analyze_against(q, self.db.graph()).report.conflict_set();
        let top = |m: &GraphMod| targets_conflict(m, &conflicts);

        // the original query is known to be empty — expand it directly
        let (mut frontier, root) = Frontier::<f64, ()>::new(q);
        frontier.expand(&root, coarse_relaxations(q), top);

        // every candidate count stops at its first match, which decides
        // it, and shares the run's budget: deadline, step and cancellation
        // checks happen *inside* the matcher DFS, so even one pathological
        // candidate cannot overshoot the deadline
        let counting_opts = MatchOptions::counting(Some(CardinalityGoal::NonEmpty.decisive_cap()))
            .with_budget(budget.clone());

        while let Some(mut node) = frontier.pop() {
            if executed >= config.max_executed || budget.poll().is_err() {
                break;
            }
            // rank on demand: an unscored node that another node of its
            // tier could still outrank is scored and re-enters the frontier
            // at its exact key; one popped scored, or alone in the top
            // tier, is the node that scoring every candidate would pop
            if node.key.is_none() && frontier.peek_tier() == Some(node.tier) {
                node.key = Some(self.score(config, model, &node.query, &node.parent, &node.mods));
                frontier.push(node);
                continue;
            }
            let cardinality = match cache.get(&node.sig) {
                Some(c) => c,
                None => match self.session.count_opts(&node.query, counting_opts.clone()) {
                    Ok(c) => {
                        cache.insert(node.sig.clone(), c);
                        c
                    }
                    // tripped budget: stop the search without caching the
                    // truncated count — a later run with headroom must
                    // re-measure this candidate
                    Err(WhyqError::Interrupted { .. }) => break,
                    Err(e) => panic!("relaxation preserves query validity: {e}"),
                },
            };
            executed += 1;
            let syn = syntactic_distance(q, &node.query);
            trajectory.push(TrajectoryPoint {
                executed,
                cardinality,
                syntactic: syn,
                depth: node.mods.len(),
            });
            if cardinality > 0 && !exclude.contains(&node.sig) {
                explanation = Some(ModificationExplanation {
                    query: Rc::unwrap_or_clone(node.query),
                    mods: node.mods,
                    cardinality,
                    syntactic_distance: syn,
                });
                break;
            }
            // still empty (or excluded) — relax further
            frontier.expand(&node, coarse_relaxations(&node.query), top);
        }

        self.stats.govern(&Budget::unlimited());
        RelaxOutcome {
            explanation,
            executed,
            generated: frontier.generated,
            cache: cache.stats(),
            trajectory,
            termination: budget.termination(),
        }
    }

    /// Interactive session (§5.5.4, App. B.1): deliver explanations, let
    /// the user rate them, learn the preference model and retry until an
    /// explanation is accepted (rating ≥ `accept_threshold`) or `rounds`
    /// are exhausted. Returns the rated rounds and the learned model.
    pub fn session(
        &self,
        q: &PatternQuery,
        config: &RelaxConfig,
        user: &SimulatedUser,
        accept_threshold: f64,
        rounds: usize,
    ) -> (SessionOutcome, PreferenceModel) {
        let mut model = PreferenceModel::default();
        let mut exclude = HashSet::new();
        let mut out = SessionOutcome {
            rounds: Vec::new(),
            accepted: None,
        };
        for round in 0..rounds {
            let unlimited = Budget::unlimited();
            let outcome = self.rewrite_guided(q, config, Some(&model), &exclude, &unlimited);
            let Some(expl) = outcome.explanation else {
                break;
            };
            let rating = user.rate(q, &expl.query);
            model.observe(q, &expl.query, rating);
            exclude.insert(signature(&expl.query));
            let accepted = rating >= accept_threshold;
            out.rounds.push(RatedRound {
                explanation: expl,
                rating,
                executed: outcome.executed,
            });
            if accepted {
                out.accepted = Some(round);
                break;
            }
        }
        (out, model)
    }

    /// The priority of `query`, derived from `parent` by `mods` (§5.3):
    /// `config.priority`'s score, plus `λ·tolerance` of the preference
    /// model when one is given.
    fn score(
        &self,
        config: &RelaxConfig,
        model: Option<&PreferenceModel>,
        query: &PatternQuery,
        parent: &PatternQuery,
        mods: &[GraphMod],
    ) -> f64 {
        let mut score = config
            .priority
            .score(query, parent, &self.stats, mods.len() - 1);
        if let (Some(model), true) = (model, config.lambda > 0.0) {
            score += config.lambda * model.tolerance(parent, query);
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QueryBuilder};

    /// Anna works at TUD in Dresden; the query asks for Berlin → empty.
    fn data() -> Database {
        let mut g = PropertyGraph::new();
        let anna = g.add_vertex([
            ("type", Value::str("person")),
            ("name", Value::str("Anna")),
            ("age", Value::Int(27)),
        ]);
        let tud = g.add_vertex([("type", Value::str("university"))]);
        let dresden = g.add_vertex([
            ("type", Value::str("city")),
            ("name", Value::str("Dresden")),
        ]);
        g.add_edge(anna, tud, "workAt", []);
        g.add_edge(tud, dresden, "locatedIn", []);
        Database::open(g).expect("open")
    }

    fn failing() -> PatternQuery {
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

    /// Test-only reference for the on-demand ranking: the same search, but
    /// every candidate is scored when it is pushed, into a heap of its own
    /// ordered by the (tier, score, FIFO) key.
    fn eager_rewrite(
        rw: &CoarseRewriter<'_>,
        q: &PatternQuery,
        config: &RelaxConfig,
        model: Option<&PreferenceModel>,
        exclude: &HashSet<String>,
    ) -> RelaxOutcome {
        use std::cmp::{Ordering, Reverse};
        use std::collections::BinaryHeap;
        struct Scored {
            conflict: bool,
            score: f64,
            seq: Reverse<u64>,
            sig: String,
            query: PatternQuery,
            mods: Vec<GraphMod>,
        }
        impl Ord for Scored {
            fn cmp(&self, other: &Self) -> Ordering {
                (self.conflict.cmp(&other.conflict))
                    .then(self.score.total_cmp(&other.score))
                    .then(self.seq.cmp(&other.seq))
            }
        }
        impl PartialOrd for Scored {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl PartialEq for Scored {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for Scored {}

        let mut cache = rw.cache.borrow_mut();
        let conflicts = analyze_against(q, rw.db.graph()).report.conflict_set();
        let mut visited = HashSet::from([signature(q)]);
        let mut frontier = BinaryHeap::new();
        let (mut seq, mut generated, mut executed) = (0, 0, 0);
        let mut trajectory = Vec::new();
        let mut expand_scored =
            |parent: &PatternQuery, mods: &[GraphMod], frontier: &mut BinaryHeap<Scored>| {
                for m in coarse_relaxations(parent) {
                    let Ok((child, _)) = m.applied(parent) else {
                        continue;
                    };
                    let sig = signature(&child);
                    if !visited.insert(sig.clone()) {
                        continue;
                    }
                    generated += 1;
                    seq += 1;
                    let conflict = targets_conflict(&m, &conflicts);
                    let mods = [mods, &[m]].concat();
                    let score = rw.score(config, model, &child, parent, &mods);
                    frontier.push(Scored {
                        conflict,
                        score,
                        seq: Reverse(seq),
                        sig,
                        query: child,
                        mods,
                    });
                }
            };
        expand_scored(q, &[], &mut frontier);
        let opts = MatchOptions::counting(Some(CardinalityGoal::NonEmpty.decisive_cap()));
        let mut explanation = None;
        while let Some(node) = frontier.pop() {
            if executed >= config.max_executed {
                break;
            }
            let cardinality = match cache.get(&node.sig) {
                Some(c) => c,
                None => match rw.session.count_opts(&node.query, opts.clone()) {
                    Ok(c) => {
                        cache.insert(node.sig.clone(), c);
                        c
                    }
                    Err(_) => break,
                },
            };
            executed += 1;
            let syn = syntactic_distance(q, &node.query);
            trajectory.push(TrajectoryPoint {
                executed,
                cardinality,
                syntactic: syn,
                depth: node.mods.len(),
            });
            if cardinality > 0 && !exclude.contains(&node.sig) {
                explanation = Some(ModificationExplanation {
                    query: node.query,
                    mods: node.mods,
                    cardinality,
                    syntactic_distance: syn,
                });
                break;
            }
            expand_scored(&node.query, &node.mods, &mut frontier);
        }
        RelaxOutcome {
            explanation,
            executed,
            generated,
            cache: cache.stats(),
            trajectory,
            termination: Termination::Complete,
        }
    }

    fn assert_same_search(lazy: &RelaxOutcome, eager: &RelaxOutcome, what: &str) {
        assert_eq!(lazy.executed, eager.executed, "{what}: executed");
        assert_eq!(lazy.generated, eager.generated, "{what}: generated");
        assert_eq!(lazy.trajectory, eager.trajectory, "{what}: trajectory");
        assert_eq!(lazy.termination, eager.termination, "{what}: termination");
        let key = |o: &RelaxOutcome| {
            o.explanation
                .as_ref()
                .map(|e| (signature(&e.query), e.mods.clone(), e.cardinality))
        };
        assert_eq!(key(lazy), key(eager), "{what}: explanation");
    }

    #[test]
    fn on_demand_ranking_pops_in_the_eager_order() {
        use whyq_datagen::{
            dbpedia_failing_queries, ldbc_failing_queries, ldbc_graph, ldbc_hard_failing_queries,
            LdbcConfig,
        };
        let db = Database::open(ldbc_graph(LdbcConfig::default())).expect("open");
        let queries = [
            ldbc_failing_queries(),
            ldbc_hard_failing_queries(),
            dbpedia_failing_queries(),
        ]
        .concat();
        let priorities = [
            PriorityFn::Random(99),
            PriorityFn::MinSyntactic,
            PriorityFn::EstimatedCardinality,
            PriorityFn::AvgPath1,
            PriorityFn::InducedChange,
            PriorityFn::Path1PlusInduced,
            PriorityFn::PathsN,
        ];
        let none = HashSet::new();
        for q in &queries {
            for priority in priorities {
                let config = RelaxConfig {
                    priority,
                    max_executed: 400,
                    ..RelaxConfig::default()
                };
                let lazy = CoarseRewriter::new(&db).rewrite(q, &config);
                let eager = eager_rewrite(&CoarseRewriter::new(&db), q, &config, None, &none);
                assert_same_search(&lazy, &eager, &format!("{:?} {}", q.name, priority.name()));
            }
        }
        // a learned preference model re-weights every score by λ·tolerance;
        // the session's delivered explanations are excluded, as in its
        // next round
        let q = &ldbc_failing_queries()[0];
        let config = RelaxConfig {
            lambda: 5.0,
            max_executed: 400,
            ..RelaxConfig::default()
        };
        let user = SimulatedUser::protecting_vertices(&[whyq_query::QVid(0)]);
        let (session, model) = CoarseRewriter::new(&db).session(q, &config, &user, 0.6, 6);
        assert!(!model.is_empty(), "the session trained the model");
        let delivered: HashSet<String> = session
            .rounds
            .iter()
            .map(|r| signature(&r.explanation.query))
            .collect();
        assert!(!delivered.is_empty(), "the session delivered explanations");
        let lazy = CoarseRewriter::new(&db).rewrite_guided(
            q,
            &config,
            Some(&model),
            &delivered,
            &Budget::unlimited(),
        );
        let eager = eager_rewrite(
            &CoarseRewriter::new(&db),
            q,
            &config,
            Some(&model),
            &delivered,
        );
        assert_same_search(&lazy, &eager, "lambda 5");
    }

    #[test]
    fn a_lone_conflict_candidate_runs_unscored() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        // the unknown "Berlin" constant yields exactly one candidate in the
        // conflict tier: it is executed without a single statistics count
        let out = rw.rewrite(&failing(), &RelaxConfig::default());
        assert_eq!(out.executed, 1);
        assert!(out.explanation.is_some());
        assert_eq!(rw.stats().counters(), (0, 0));
    }

    #[test]
    fn elapsed_deadline_costs_no_statistics() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        let out = rw.rewrite_guided(
            &failing(),
            &RelaxConfig::default(),
            None,
            &HashSet::new(),
            &Budget::deadline(std::time::Duration::ZERO),
        );
        assert_eq!(out.executed, 0);
        assert_eq!(rw.stats().counters(), (0, 0));
    }

    /// A candidate is counted to its first match: the accepted rewrite
    /// reports 1 however many answers it has.
    #[test]
    fn accepted_candidate_is_counted_to_its_first_match() {
        let mut g = PropertyGraph::new();
        let dresden = g.add_vertex([
            ("type", Value::str("city")),
            ("name", Value::str("Dresden")),
        ]);
        for _ in 0..3 {
            let p = g.add_vertex([("type", Value::str("person"))]);
            g.add_edge(p, dresden, "livesIn", []);
        }
        let db = Database::open(g).expect("open");
        let q = QueryBuilder::new("berliners")
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
        let out = CoarseRewriter::new(&db).rewrite(&q, &RelaxConfig::default());
        let expl = out.explanation.expect("explanation found");
        assert_eq!(expl.cardinality, 1);
        assert_eq!(out.trajectory.last().map(|p| p.cardinality), Some(1));
        assert_eq!(db.session().count(&expl.query).unwrap(), 3);
    }

    #[test]
    fn finds_minimal_relaxation() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        let out = rw.rewrite(&failing(), &RelaxConfig::default());
        let expl = out.explanation.expect("explanation found");
        assert!(expl.cardinality >= 1);
        // a single discarded constraint suffices (the Berlin name predicate)
        assert_eq!(expl.mods.len(), 1);
        assert!(expl.syntactic_distance > 0.0);
        assert!(out.executed >= 1);
        assert!(out.generated >= out.executed);
    }

    #[test]
    fn conflict_set_seeds_the_first_rewrites() {
        use whyq_query::{QVid, Target};
        let db = data();
        let rw = CoarseRewriter::new(&db);
        // statically unsatisfiable: the contradictory age conjunction is
        // provable from the query text, and the analyzer names it
        let q = QueryBuilder::new("contra")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::at_least("age", 31.0),
                    Predicate::at_most("age", 20.0),
                ],
            )
            .build();
        let conflicts = whyq_query::analyze_against(&q, db.graph())
            .report
            .conflict_set();
        assert!(!conflicts.is_empty(), "the contradiction is detected");
        let out = rw.rewrite(&q, &RelaxConfig::default());
        let expl = out.explanation.expect("explanation found");
        // the very first rewrite discards the conflicting constraint: the
        // relax loop starts from the analyzer's conflict set instead of
        // blind sibling enumeration. `RemovePredicate` drops every `age`
        // predicate at once, so one modification resolves the conjunction.
        assert_eq!(
            expl.mods[0],
            GraphMod::RemovePredicate {
                target: Target::Vertex(QVid(0)),
                attr: "age".into(),
            }
        );
        assert!(targets_conflict(&expl.mods[0], &conflicts));
        assert_eq!(out.executed, 1, "the first executed candidate succeeds");
        assert!(expl.cardinality >= 1);
    }

    #[test]
    fn trajectory_is_recorded() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        let out = rw.rewrite(&failing(), &RelaxConfig::default());
        assert_eq!(out.trajectory.len(), out.executed);
        assert!(out.trajectory.last().unwrap().cardinality > 0);
    }

    #[test]
    fn budget_zero_finds_nothing() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        let out = rw.rewrite(
            &failing(),
            &RelaxConfig {
                max_executed: 0,
                ..Default::default()
            },
        );
        assert!(out.explanation.is_none());
        assert_eq!(out.executed, 0);
    }

    #[test]
    fn priority_functions_all_terminate() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        for p in [
            PriorityFn::Random(42),
            PriorityFn::MinSyntactic,
            PriorityFn::EstimatedCardinality,
            PriorityFn::AvgPath1,
            PriorityFn::InducedChange,
            PriorityFn::Path1PlusInduced,
        ] {
            let out = rw.rewrite(
                &failing(),
                &RelaxConfig {
                    priority: p,
                    ..Default::default()
                },
            );
            assert!(out.explanation.is_some(), "no explanation found");
        }
    }

    #[test]
    fn four_concurrent_rewriters_match_the_serial_run() {
        // the reference: one rewriter, alone on its own database
        let reference_db = data();
        let a = CoarseRewriter::new(&reference_db).rewrite(&failing(), &RelaxConfig::default());
        // four rewriters racing on one database share its plan cache and
        // sibling store; whichever of them fills or replays an entry, the
        // executed sequence, trajectory and explanation are bit-identical
        let db = data();
        let barrier = std::sync::Barrier::new(4);
        let outcomes: Vec<RelaxOutcome> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let rw = CoarseRewriter::new(&db);
                        barrier.wait();
                        rw.rewrite(&failing(), &RelaxConfig::default())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for b in &outcomes {
            assert_eq!(a.executed, b.executed);
            assert_eq!(a.generated, b.generated);
            assert_eq!(a.trajectory, b.trajectory);
            assert_eq!(a.cache, b.cache);
            let (x, y) = (
                a.explanation.as_ref().unwrap(),
                b.explanation.as_ref().unwrap(),
            );
            assert_eq!(signature(&x.query), signature(&y.query));
            assert_eq!(x.mods, y.mods);
            assert_eq!(x.cardinality, y.cardinality);
        }
    }

    #[test]
    fn elapsed_deadline_stops_the_search_tagged() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        let out = rw.rewrite_guided(
            &failing(),
            &RelaxConfig::default(),
            None,
            &HashSet::new(),
            &Budget::deadline(std::time::Duration::ZERO),
        );
        assert!(out.explanation.is_none());
        assert_eq!(out.executed, 0);
        assert_eq!(out.termination, Termination::DeadlineExceeded);
    }

    #[test]
    fn ungoverned_run_reports_complete() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        let out = rw.rewrite(&failing(), &RelaxConfig::default());
        assert!(out.explanation.is_some());
        assert_eq!(out.termination, Termination::Complete);
    }

    #[test]
    fn excluded_solutions_are_skipped() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        let first = rw
            .rewrite(&failing(), &RelaxConfig::default())
            .explanation
            .unwrap();
        let mut exclude = HashSet::new();
        exclude.insert(signature(&first.query));
        let second = rw
            .rewrite_guided(
                &failing(),
                &RelaxConfig::default(),
                None,
                &exclude,
                &Budget::unlimited(),
            )
            .explanation
            .unwrap();
        assert_ne!(signature(&first.query), signature(&second.query));
    }

    #[test]
    fn session_with_agreeable_user_accepts_first_round() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        // the user only protects the workAt edge; the natural fix (drop the
        // Berlin name predicate) never touches it
        let user = SimulatedUser::protecting_edges(&[whyq_query::QEid(0)]);
        let (outcome, _) = rw.session(&failing(), &RelaxConfig::default(), &user, 0.9, 5);
        assert_eq!(outcome.accepted, Some(0));
        assert!(outcome.rounds[0].rating >= 0.9);
    }

    #[test]
    fn session_with_protective_user_adapts() {
        let db = data();
        let rw = CoarseRewriter::new(&db);
        // the user insists on keeping the city vertex untouched — but every
        // fix must neutralize the Berlin predicate, so nothing can rate 1.0;
        // with a 0.4 acceptance bar the session rejects the pure predicate
        // fix (rating 0.0) and adapts to a mixed-change explanation
        let user = SimulatedUser::protecting_vertices(&[whyq_query::QVid(2)]);
        let config = RelaxConfig {
            lambda: 10.0,
            ..Default::default()
        };
        let (outcome, model) = rw.session(&failing(), &config, &user, 0.4, 6);
        assert!(outcome.rounds.len() >= 2, "first round must be rejected");
        let accepted = outcome.accepted.expect("eventually accepted");
        assert!(outcome.rounds[accepted].rating >= 0.4);
        // ratings improved over the session
        assert!(outcome.rounds[accepted].rating > outcome.rounds[0].rating);
        assert!(!model.is_empty());
    }
}
