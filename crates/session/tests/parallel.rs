//! Property tests of parallel evaluation: `find_par` equals a full
//! serial execution as an unordered multiset and `count_par` equals its
//! count — on randomized graphs and queries (multi-component and
//! empty-component cases included), for thread counts {1, 2, 8} and
//! adversarial `min_seeds_per_split` values (0 forces maximal sharding, a
//! huge floor forces every component inline).
//!
//! Serial, cached and sharded execution are one loop in `whyq-session`,
//! so the comparator is independent of it: the matcher's own whole-query
//! loop over a fresh `compile_full` ([`Matcher::count`] /
//! [`Matcher::find`]). Every configuration runs twice on a freshly
//! invalidated sibling store: the first call executes (sharding the large
//! components) and fills the store, the second must be all replays —
//! hits, zero new insertions — with the same answer.

use proptest::prelude::*;
use std::collections::BTreeMap;
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::{Budget, MatchOptions, Matcher, ResultGraph};
use whyq_query::{DirectionSet, PatternQuery, Predicate, QueryEdge, QueryVertex};
use whyq_session::{Database, ParallelOpts, WhyqError};

fn build_graph(n: usize, types: &[u8], pairs: &[(u8, u8, bool)]) -> PropertyGraph {
    let names = ["red", "green", "blue"];
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|i| {
            g.add_vertex([(
                "type",
                Value::str(names[types[i % types.len()] as usize % 3]),
            )])
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

/// A random query shape: a path of `len` vertices with typed edges, plus
/// an optional disconnected extra vertex (a second component, possibly
/// matching nothing) and optional direction-agnostic edges.
fn build_query(
    len: usize,
    types: &[u8],
    etypes: &[bool],
    undirected: bool,
    extra_component: bool,
    extra_type: &str,
) -> PatternQuery {
    let names = ["red", "green", "blue"];
    let mut q = PatternQuery::new();
    let mut prev = None;
    for i in 0..len {
        let v = q.add_vertex(QueryVertex::with([Predicate::eq(
            "type",
            names[types[i % types.len()] as usize % 3],
        )]));
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
    if extra_component {
        q.add_vertex(QueryVertex::with([Predicate::eq("type", extra_type)]));
    }
    q
}

fn multiset(results: &[ResultGraph]) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for r in results {
        *m.entry(format!("{r:?}")).or_insert(0) += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every thread count and split floor, `find_par` returns the
    /// comparator's multiset and `count_par` its count — executing, then
    /// replaying from the sibling store it filled.
    #[test]
    fn parallel_equals_serial(
        n in 2usize..7,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        undirected in any::<bool>(),
        extra_component in any::<bool>(),
        // "purple" is absent from every graph: an unsatisfiable second
        // component (the empty-component edge case)
        extra_matches in any::<bool>(),
        injective in any::<bool>(),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let extra_type = if extra_matches { "red" } else { "purple" };
        let q = build_query(qlen, &qtypes, &qetypes, undirected, extra_component, extra_type);
        let opts = MatchOptions { injective, limit: None, ..Default::default() };

        let serial = multiset(&Matcher::new(&g).find(&q, opts.clone()));
        let serial_count = Matcher::new(&g).count(&q, opts.clone());

        let db = Database::open(g).expect("open");
        let session = db.session();
        let prepared = session.prepare(&q).expect("valid query");

        for threads in [1usize, 2, 8] {
            for min_split in [0usize, 1, 3, 1_000_000] {
                let par = ParallelOpts::with_threads(threads).min_seeds_per_split(min_split);
                // every configuration starts from an empty store
                db.clear_sibling_cache();

                let cold = db.sibling_stats();
                let found = prepared.find_par_opts(opts.clone(), &par).expect("find_par");
                prop_assert_eq!(
                    multiset(&found),
                    serial.clone(),
                    "find_par multiset (threads={}, min_split={})", threads, min_split
                );
                let filled = db.sibling_stats();
                prop_assert_eq!(filled.hits, cold.hits, "nothing to replay yet");
                let again = prepared.find_par_opts(opts.clone(), &par).expect("find_par");
                prop_assert_eq!(multiset(&again), serial.clone());
                let replayed = db.sibling_stats();
                prop_assert_eq!(replayed.insertions, filled.insertions, "second find inserts");
                prop_assert_eq!(
                    replayed.hits - filled.hits,
                    filled.insertions - cold.insertions,
                    "second find replays exactly what the first inserted"
                );

                let counted = prepared.count_par_opts(opts.clone(), &par).expect("count_par");
                prop_assert_eq!(
                    counted, serial_count,
                    "count_par (threads={}, min_split={})", threads, min_split
                );
                let filled = db.sibling_stats();
                prop_assert_eq!(filled.hits, replayed.hits, "counts never replay rows");
                let recounted = prepared.count_par_opts(opts.clone(), &par).expect("count_par");
                prop_assert_eq!(recounted, serial_count);
                let after = db.sibling_stats();
                prop_assert_eq!(after.insertions, filled.insertions, "second count inserts");
                prop_assert_eq!(
                    after.hits - filled.hits,
                    filled.insertions - replayed.insertions,
                    "second count replays exactly what the first inserted"
                );
            }
        }
        // a satisfiable query went through the store at all
        if !prepared.is_unsatisfiable() {
            prop_assert!(db.sibling_stats().insertions > 0);
        }
    }

    /// Under a result cap, a parallel count still reports
    /// `min(C(Q), limit)` and a parallel find returns exactly
    /// `min(C(Q), limit)` results, each of which is a genuine serial
    /// result (which ones survive the cap is unspecified).
    #[test]
    fn parallel_limits_agree_with_serial(
        n in 2usize..6,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        extra_component in any::<bool>(),
        limit in 0usize..6,
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes, false, extra_component, "red");
        let opts = MatchOptions { injective: true, limit: Some(limit), ..Default::default() };

        let all = Matcher::new(&g).find(&q, MatchOptions::default());
        let serial_count = Matcher::new(&g).count(&q, opts.clone());
        let universe = multiset(&all);

        let db = Database::open(g).expect("open");
        let session = db.session();
        let prepared = session.prepare(&q).expect("valid query");

        for threads in [2usize, 8] {
            let par = ParallelOpts::with_threads(threads).min_seeds_per_split(1);
            // execute, not replay, under every thread count
            db.clear_sibling_cache();
            prop_assert_eq!(
                prepared.count_par_opts(opts.clone(), &par).expect("count_par"),
                serial_count
            );
            let found = prepared.find_par_opts(opts.clone(), &par).expect("find_par");
            prop_assert_eq!(found.len(), all.len().min(limit));
            for (key, count) in multiset(&found) {
                prop_assert!(
                    universe.get(&key).is_some_and(|&c| c >= count),
                    "capped parallel results are a sub-multiset of the serial results"
                );
            }
        }
    }
}

/// A budget that trips inside a *sharded* component: the interrupted run
/// is an error (never a silently low answer), nothing it computed is
/// memoized, and a later unconstrained run — sharded or not — matches the
/// comparator.
#[test]
fn tripped_sharded_component_inserts_nothing() {
    // complete directed graph: a 4-path has 12·11·10·9 injective matches,
    // and every single seed roots more search than one budget check
    // interval, so even a one-seed shard observes the starved budget
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..12)
        .map(|_| g.add_vertex([("type", Value::str("red"))]))
        .collect();
    for &a in &vs {
        for &b in &vs {
            if a != b {
                g.add_edge(a, b, "link", []);
            }
        }
    }
    let q = build_query(4, &[0], &[true], false, false, "red");
    let expected = multiset(&Matcher::new(&g).find(&q, MatchOptions::default()));
    assert_eq!(expected.len(), 12 * 11 * 10 * 9);

    let db = Database::open(g).expect("open");
    let session = db.session();
    let prepared = session.prepare(&q).expect("valid query");
    // 12 seeds over a floor of 1: the single component shards
    let par = ParallelOpts::with_threads(4).min_seeds_per_split(1);

    let starved = || MatchOptions::default().with_budget(Budget::steps(20));
    let err = prepared.count_par_opts(starved(), &par).unwrap_err();
    assert!(matches!(err, WhyqError::Interrupted { .. }), "{err:?}");
    let err = prepared.find_par_opts(starved(), &par).unwrap_err();
    assert!(matches!(err, WhyqError::Interrupted { .. }), "{err:?}");
    let stats = db.sibling_stats();
    assert_eq!((stats.insertions, stats.len), (0, 0), "{stats:?}");

    let count = prepared.count_par_opts(MatchOptions::default(), &par);
    assert_eq!(count.expect("count_par"), 12 * 11 * 10 * 9);
    let found = prepared.find_par_opts(MatchOptions::default(), &par);
    assert_eq!(multiset(&found.expect("find_par")), expected);
    assert_eq!(prepared.count().expect("count"), 12 * 11 * 10 * 9);
    assert_eq!(db.sibling_stats().insertions, 2, "one count, one row entry");
}

/// Sharded finds share their limit: on a component whose every seed
/// roots matches, the shards stop once they hold `limit` rows together,
/// and the merged answer is exactly `min(limit, C)` genuine matches. A
/// find whose shards reached the limit is not memoized (which rows they
/// kept depends on scheduling), so a later serial find still returns the
/// serial rows; one short of its limit is complete, and memoized.
#[test]
fn sharded_finds_share_their_limit() {
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..12)
        .map(|_| g.add_vertex([("type", Value::str("red"))]))
        .collect();
    for &a in &vs {
        for &b in &vs {
            if a != b {
                g.add_edge(a, b, "link", []);
            }
        }
    }
    let q = build_query(3, &[0], &[true], false, false, "red");
    let all = multiset(&Matcher::new(&g).find(&q, MatchOptions::default()));
    let total = 12 * 11 * 10;
    let serial_of = |limit| {
        let db = Database::open(g.clone()).expect("open");
        let session = db.session();
        let prepared = session.prepare(&q).expect("valid query");
        prepared
            .find_opts(MatchOptions::limited(limit))
            .expect("find")
    };

    let db = Database::open(g.clone()).expect("open");
    let session = db.session();
    let prepared = session.prepare(&q).expect("valid query");
    let par = ParallelOpts::with_threads(4).min_seeds_per_split(1);
    for limit in [1, 7, 200, total - 1] {
        db.clear_sibling_cache();
        let found = prepared
            .find_par_opts(MatchOptions::limited(limit), &par)
            .expect("find_par");
        assert_eq!(found.len(), limit);
        for (key, count) in multiset(&found) {
            assert!(all.get(&key).is_some_and(|&c| c >= count), "{key:?}");
        }
        assert_eq!(
            db.sibling_stats().len,
            0,
            "limit {limit}: capped shards memoized"
        );
        let serial = prepared.find_opts(MatchOptions::limited(limit));
        assert_eq!(serial.expect("find"), serial_of(limit), "limit {limit}");
    }
    db.clear_sibling_cache();
    let found = prepared
        .find_par_opts(MatchOptions::limited(total + 1), &par)
        .expect("find_par");
    assert_eq!(multiset(&found), all);
    assert_eq!(
        db.sibling_stats().len,
        1,
        "a complete sharded find is memoized"
    );
}
