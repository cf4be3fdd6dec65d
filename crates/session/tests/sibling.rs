//! Equivalence of the session's component loop — sibling store, derived
//! plans and all — against an independent full execution.
//!
//! For randomized graph × query × modification sequences, every query in
//! the sibling family is executed through a default database (plans may
//! be *derived* from a sibling's and component results replayed from the
//! sibling store) and compared with the matcher's own whole-query loop
//! over a fresh `compile_full` ([`Matcher::count`] / [`Matcher::find`]:
//! no session, no store, no derivation — a `sibling_cache_capacity(0)`
//! database would be the same loop as the one under test). Counts must
//! agree exactly (with and without limits — counts are enumeration-order
//! independent), unlimited enumerations must agree as canonical multisets
//! (a derived plan may enumerate in a different order than a fresh
//! compile), and a *replayed* execution must be bit-identical to the
//! recomputed one it replays. The same equivalences are checked through
//! the 4-thread `Executor` batch entry points (the `WHYQ_THREADS=4`
//! configuration, pinned explicitly via [`ParallelOpts::with_threads`]),
//! on a capacity-0 database (which must never hit, insert or derive) and
//! under mid-run Budget trips: a tripped partial is a lower bound and is
//! never cached, so a complete re-run after a trip still matches the
//! comparator.

use proptest::prelude::*;
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::{Budget, MatchOptions, Matcher, ResultGraph, Termination};
use whyq_query::{
    DirectionSet, GraphMod, Interval, PatternQuery, Predicate, QVid, QueryBuilder, QueryEdge,
    QueryVertex, Target,
};
use whyq_session::{Database, DatabaseConfig, Executor, ParallelOpts};

fn build_graph(n: usize, types: &[u8], pairs: &[(u8, u8, bool)]) -> PropertyGraph {
    let names = ["red", "green", "blue"];
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|i| {
            g.add_vertex([
                (
                    "type",
                    Value::str(names[types[i % types.len()] as usize % 3]),
                ),
                ("rank", Value::Int((i % 3) as i64)),
            ])
        })
        .collect();
    for &(a, b, t) in pairs {
        g.add_edge(
            vs[a as usize % n],
            vs[b as usize % n],
            if t { "link" } else { "flow" },
            [],
        );
    }
    g
}

fn build_query(len: usize, types: &[u8], etypes: &[bool], undirected: bool) -> PatternQuery {
    let names = ["red", "green", "blue"];
    let mut q = PatternQuery::new();
    let mut prev: Option<QVid> = None;
    for i in 0..len {
        let preds = vec![
            Predicate::eq("type", names[types[i % types.len()] as usize % 3]),
            Predicate::eq("rank", (i % 3) as i64),
        ];
        let v = q.add_vertex(QueryVertex::with(preds));
        if let Some(p) = prev {
            let mut e = QueryEdge::typed(
                p,
                v,
                if etypes[i % etypes.len()] {
                    "link"
                } else {
                    "flow"
                },
            );
            if undirected {
                e.directions = DirectionSet::BOTH;
            }
            q.add_edge(e);
        }
        prev = Some(v);
    }
    q
}

/// The sibling family of `q`: `q` itself plus the cumulative application
/// of a modification sequence decoded from `(op, elem)` pairs. The decoded
/// operations deliberately mix the delta classes the cache distinguishes:
/// `ReplaceInterval` (a `SingleInterval` delta — the plan-derivation and
/// unit-invalidation fast path), predicate/edge/vertex removal (coarse
/// relaxations — component-signature reuse), and type widening.
fn sibling_family(q: &PatternQuery, mods: &[(u8, u8)]) -> Vec<PatternQuery> {
    let names = ["red", "green", "blue"];
    let mut family = vec![q.clone()];
    let mut cur = q.clone();
    for &(op, elem) in mods {
        let vids: Vec<QVid> = cur.vertex_ids().collect();
        let eids: Vec<_> = cur.edge_ids().collect();
        if vids.is_empty() {
            break;
        }
        let v = vids[elem as usize % vids.len()];
        let m = match op % 5 {
            // widen one vertex's type label to a different constant — the
            // one-OneOf-constant sibling shape
            0 => GraphMod::ReplaceInterval {
                target: Target::Vertex(v),
                attr: "type".into(),
                interval: Interval::eq(names[(elem as usize + 1) % 3]),
            },
            // widen to a disjunction (OneOf with several constants)
            1 => GraphMod::ReplaceInterval {
                target: Target::Vertex(v),
                attr: "rank".into(),
                interval: Interval::one_of([(elem % 3) as i64, ((elem + 1) % 3) as i64]),
            },
            2 => GraphMod::RemovePredicate {
                target: Target::Vertex(v),
                attr: if elem % 2 == 0 { "rank" } else { "type" }.into(),
            },
            3 if !eids.is_empty() => GraphMod::RemoveEdge(eids[elem as usize % eids.len()]),
            _ if vids.len() > 1 => GraphMod::RemoveVertex(v),
            _ => continue,
        };
        if m.apply(&mut cur).is_ok() {
            family.push(cur.clone());
        }
    }
    family
}

/// One match in canonical (order-insensitive) form.
type CanonicalMatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

fn canonical(results: &[ResultGraph]) -> Vec<CanonicalMatch> {
    let mut out: Vec<_> = results
        .iter()
        .map(|r| {
            (
                r.vertex_bindings()
                    .iter()
                    .map(|&(qv, d)| (qv.0, d.0))
                    .collect::<Vec<_>>(),
                r.edge_bindings()
                    .iter()
                    .map(|&(qe, d)| (qe.0, d.0))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    out.sort();
    out
}

/// The independent comparator: the matcher's own whole-query loop over a
/// fresh full compile of `q`.
fn oracle(g: &PropertyGraph, q: &PatternQuery, opts: MatchOptions) -> (u64, Vec<CanonicalMatch>) {
    let matcher = Matcher::new(g);
    (
        matcher.count(q, opts.clone()),
        canonical(&matcher.find(q, opts)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial equivalence over randomized sibling families: counts exact
    /// (limited and unlimited), unlimited find canonical-equal, replays
    /// bit-identical to the runs that populated them.
    #[test]
    fn incremental_equals_full_reexecution_serial(
        n in 2usize..7,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        undirected in any::<bool>(),
        mods in prop::collection::vec((any::<u8>(), any::<u8>()), 1..6),
        limit_raw in 0usize..6,
    ) {
        // 5 encodes "no limit" (the shim has no option strategy)
        let limit = (limit_raw < 5).then_some(limit_raw);
        let g = build_graph(n, &vtypes, &pairs);
        let base = build_query(qlen, &qtypes, &qetypes, undirected);
        let family = sibling_family(&base, &mods);
        let inc = Database::open(g.clone()).expect("open");
        let inc_session = inc.session();

        for q in &family {
            let (oracle_count, oracle_rows) = oracle(&g, q, MatchOptions::default());

            // first incremental run (misses fill the cache) …
            let first = inc_session.find_governed(q, MatchOptions::default()).unwrap();
            let count = inc_session.count_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(count.value, oracle_count);
            prop_assert_eq!(count.termination, Termination::Complete);
            prop_assert_eq!(canonical(&first.value), oracle_rows);

            // … and the replayed run must be bit-identical to it
            let replay = inc_session.find_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(&replay.value, &first.value);
            let recount = inc_session.count_governed(q, MatchOptions::default()).unwrap();
            prop_assert_eq!(recount.value, oracle_count);

            // limited counts are enumeration-order independent, so they
            // must agree with the comparator even for derived plans
            if let Some(l) = limit {
                let opts = MatchOptions::limited(l);
                let a = inc_session.count_governed(q, opts.clone()).unwrap();
                prop_assert_eq!(a.value, Matcher::new(&g).count(q, opts));
                // limited rows: replays must be bit-identical within the
                // incremental database (same plan, same prefix)
                let opts = MatchOptions::limited(l);
                let r1 = inc_session.find_governed(q, opts.clone()).unwrap();
                let r2 = inc_session.find_governed(q, opts).unwrap();
                prop_assert_eq!(r1.value.len(), r2.value.len());
                prop_assert_eq!(&r1.value, &r2.value);
            }
        }
        // when any family member was satisfiable the cache participated:
        // its components were inserted on the first run and replayed after
        // (an all-unsatisfiable family never reaches the engine at all)
        let stats = inc.sibling_stats();
        let any_satisfiable = family
            .iter()
            .any(|q| !inc_session.prepare(q).unwrap().is_unsatisfiable());
        prop_assert!(!any_satisfiable || (stats.insertions > 0 && stats.hits > 0));
    }

    /// A `sibling_cache_capacity(0)` database runs the very same loop over
    /// a store that never hits, never inserts and never derives a plan —
    /// and answers exactly like the comparator.
    #[test]
    fn capacity_zero_never_hits_inserts_or_derives(
        n in 2usize..7,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        mods in prop::collection::vec((any::<u8>(), any::<u8>()), 1..6),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let base = build_query(qlen, &qtypes, &qetypes, false);
        let family = sibling_family(&base, &mods);
        let off = Database::open_with(
            g.clone(),
            DatabaseConfig::default().sibling_cache_capacity(0),
        )
        .expect("open");
        let session = off.session();
        let par = ParallelOpts::with_threads(4).min_seeds_per_split(1);
        for q in &family {
            let (oracle_count, oracle_rows) = oracle(&g, q, MatchOptions::default());
            let prepared = session.prepare(q).unwrap();
            // twice: nothing the first run did may change the second
            for _ in 0..2 {
                prop_assert_eq!(prepared.count().unwrap(), oracle_count);
                prop_assert_eq!(&canonical(&prepared.find().unwrap()), &oracle_rows);
                let sharded = prepared.count_par_opts(MatchOptions::default(), &par).unwrap();
                prop_assert_eq!(sharded, oracle_count);
            }
        }
        let stats = off.sibling_stats();
        prop_assert_eq!(
            (stats.hits, stats.insertions, stats.invalidations, stats.derived_plans, stats.len),
            (0, 0, 0, 0, 0)
        );
    }

    /// Four threads at once: counts from four worker sessions and a
    /// 4-thread executor batch of governed finds over the whole sibling
    /// family agree with serial full re-execution.
    #[test]
    fn incremental_equals_full_reexecution_batched(
        n in 2usize..6,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        mods in prop::collection::vec((any::<u8>(), any::<u8>()), 1..5),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let base = build_query(qlen, &qtypes, &qetypes, false);
        let family = sibling_family(&base, &mods);
        let inc = Database::open(g.clone()).expect("open");
        let executor = Executor::new(ParallelOpts::with_threads(4));

        // four worker threads, one session each, counting interleaved
        // slices of the family
        let count_all = || {
            let mut counts = vec![0u64; family.len()];
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4)
                    .map(|w| {
                        let (inc, family) = (&inc, &family);
                        scope.spawn(move || {
                            let session = inc.session();
                            (w..family.len())
                                .step_by(4)
                                .map(|i| (i, session.count(&family[i]).unwrap()))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for worker in workers {
                    for (i, c) in worker.join().unwrap() {
                        counts[i] = c;
                    }
                }
            });
            counts
        };
        let batched = count_all();
        // run the batch twice: the second pass replays what the first
        // inserted, across worker sessions (the cache is database state)
        let replayed = count_all();
        for ((q, got), again) in family.iter().zip(&batched).zip(&replayed) {
            let (oracle_count, _) = oracle(&g, q, MatchOptions::default());
            prop_assert_eq!(*got, oracle_count);
            prop_assert_eq!(*again, oracle_count);
        }

        let requests: Vec<(&PatternQuery, MatchOptions)> = family
            .iter()
            .map(|q| (q, MatchOptions::default()))
            .collect();
        for (q, slot) in family.iter().zip(executor.find_batch(&inc, &requests)) {
            let governed = slot.unwrap();
            prop_assert_eq!(governed.termination, Termination::Complete);
            let (_, oracle_rows) = oracle(&g, q, MatchOptions::default());
            prop_assert_eq!(canonical(&governed.value), oracle_rows);
        }
    }

    /// Mid-run Budget trips: a tripped governed count is a lower bound of
    /// the true count, the tripped partial is never inserted into the
    /// sibling cache, and a subsequent unconstrained run — which would
    /// replay any poisoned entry — still equals the comparator.
    #[test]
    fn tripped_partials_are_lower_bounds_and_never_cached(
        n in 3usize..7,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        mods in prop::collection::vec((any::<u8>(), any::<u8>()), 1..5),
        steps in 1u64..40,
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let base = build_query(qlen, &qtypes, &qetypes, false);
        let family = sibling_family(&base, &mods);
        let inc = Database::open(g.clone()).expect("open");
        let inc_session = inc.session();

        for q in &family {
            let (oracle_count, oracle_rows) = oracle(&g, q, MatchOptions::default());

            let starved = MatchOptions::default().with_budget(Budget::steps(steps));
            let tripped = inc_session.count_governed(q, starved).unwrap();
            prop_assert!(tripped.value <= oracle_count);
            if tripped.termination != Termination::Complete {
                // only units that ran to completion before the trip may
                // have been cached; re-running unconstrained must not
                // replay any truncated component count
                let after = inc_session.count_governed(q, MatchOptions::default()).unwrap();
                prop_assert_eq!(after.value, oracle_count);
                prop_assert_eq!(after.termination, Termination::Complete);
            } else {
                prop_assert_eq!(tripped.value, oracle_count);
            }

            // the row twin under the same starvation
            let starved = MatchOptions::default().with_budget(Budget::steps(steps));
            let rows = inc_session.find_governed(q, starved).unwrap();
            if rows.termination != Termination::Complete {
                let complete = inc_session.find_governed(q, MatchOptions::default()).unwrap();
                prop_assert_eq!(canonical(&complete.value), oracle_rows);
            } else {
                prop_assert_eq!(canonical(&rows.value), oracle_rows);
            }
        }
    }
}

/// An immediately-tripped budget never touches the cache at all: the
/// component loop refuses up front exactly like the engine, and no
/// partial (here: empty) unit result is inserted.
#[test]
fn pre_tripped_budget_inserts_nothing() {
    let g = build_graph(4, &[0, 1, 2], &[(0, 1, true), (1, 2, false)]);
    let db = Database::open(g).expect("open");
    let session = db.session();
    let q = build_query(2, &[0, 1], &[true], false);

    let dead = Budget::steps(1);
    dead.trip(Termination::BudgetExhausted);
    let governed = session
        .count_governed(&q, MatchOptions::default().with_budget(dead))
        .unwrap();
    assert_ne!(governed.termination, Termination::Complete);
    assert_eq!(governed.value, 0);
    assert_eq!(db.sibling_stats().insertions, 0, "{:?}", db.sibling_stats());
}

/// `clear_sibling_cache` bumps the generation: stale entries stop
/// replaying (counted as invalidations) and results stay correct.
#[test]
fn generation_bump_invalidates_replays() {
    let g = build_graph(5, &[0, 1, 2], &[(0, 1, true), (1, 2, true), (2, 3, false)]);
    let db = Database::open(g).expect("open");
    let session = db.session();
    let q = build_query(2, &[0, 1], &[true], false);

    let first = session.count_governed(&q, MatchOptions::default()).unwrap();
    let replayed = session.count_governed(&q, MatchOptions::default()).unwrap();
    assert_eq!(first.value, replayed.value);
    let hits = db.sibling_stats().hits;
    assert!(hits > 0, "{:?}", db.sibling_stats());

    db.clear_sibling_cache();
    let invalidations = db.sibling_stats().invalidations;
    let again = session.count_governed(&q, MatchOptions::default()).unwrap();
    assert_eq!(again.value, first.value);
    assert!(
        db.sibling_stats().invalidations > invalidations,
        "stale-generation entries must be dropped and counted: {:?}",
        db.sibling_stats()
    );
}

/// A one-interval sibling whose new range lies outside the attribute's
/// observed range is unsatisfiable: it is derived from its parent as the
/// empty program, not compiled.
#[test]
fn refuted_sibling_is_derived_not_compiled() {
    let mut g = PropertyGraph::new();
    for age in 20..30 {
        g.add_vertex([("type", Value::str("person")), ("age", Value::Int(age))]);
    }
    let db = Database::open(g).expect("open");
    let session = db.session();
    let aged = |lo: f64, hi: f64| {
        QueryBuilder::new("aged")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("age", lo, hi),
                ],
            )
            .build()
    };
    assert_eq!(session.count(&aged(21.0, 23.0)).unwrap(), 3);
    let compiles = db.compile_count();

    let refuted = session.prepare(&aged(40.0, 50.0)).unwrap();
    assert!(refuted.is_unsatisfiable());
    assert_eq!(refuted.count().unwrap(), 0);
    assert_eq!(db.compile_count(), compiles, "derived, not compiled");
    assert_eq!(db.sibling_stats().derived_plans, 1);
}
