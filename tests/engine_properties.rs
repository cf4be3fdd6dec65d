//! Property-based tests of the why-query engine invariants: MCS
//! satisfiability and maximality, differential complementarity, rewriting
//! soundness, relaxation and fine-change monotonicity — checked over
//! randomly generated small graphs and queries.

use proptest::prelude::*;
use whyquery::core::fine::generate::fine_candidates;
use whyquery::core::fine::prune::non_contributing;
use whyquery::core::relax::candidates::coarse_relaxations;
use whyquery::core::subgraph::{BoundedMcs, DiscoverMcs, McsConfig, PathStrategy};
use whyquery::core::DifferentialGraph;
use whyquery::matcher::budget::CHECK_INTERVAL;
use whyquery::matcher::{count_matches_naive, Budget};
use whyquery::prelude::*;
use whyquery::query::{DirectionSet, GraphMod, QEid, QVid, QueryEdge, QueryVertex};

mod common;
use common::count_matches;

/// Oracle count: the naive reference matcher, no limit.
fn oracle(db: &Database, q: &PatternQuery) -> u64 {
    count_matches_naive(db.graph(), q, MatchOptions::default())
}

/// A cardinality goal out of `NonEmpty | AtLeast | AtMost | Between`.
fn build_goal(kind: u8, k: u64, width: u64) -> CardinalityGoal {
    match kind % 4 {
        0 => CardinalityGoal::NonEmpty,
        1 => CardinalityGoal::AtLeast(k),
        2 => CardinalityGoal::AtMost(k),
        _ => CardinalityGoal::Between(k, k + width),
    }
}

/// Build a small random data graph: `n` vertices with a type out of three
/// (type 3 is no `type` at all), edges from the pair list, one edge type
/// out of two.
fn build_graph(n: usize, types: &[u8], pairs: &[(u8, u8, bool)]) -> Database {
    Database::open(build_data(n, types, pairs)).expect("open")
}

/// The data graph of [`build_graph`], unopened.
fn build_data(n: usize, types: &[u8], pairs: &[(u8, u8, bool)]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let type_names = ["red", "green", "blue"];
    let vs: Vec<_> = (0..n)
        .map(|i| {
            let x = ("x", Value::Int(i as i64));
            match types[i % types.len()] as usize {
                3 => g.add_vertex([x]),
                t => g.add_vertex([("type", Value::str(type_names[t % 3])), x]),
            }
        })
        .collect();
    for &(a, b, t) in pairs {
        let (a, b) = (a as usize % n, b as usize % n);
        g.add_edge(vs[a], vs[b], if t { "link" } else { "flow" }, []);
    }
    g
}

/// Build a small random connected path query over the same vocabulary
/// (type 3 is no `type` predicate).
fn build_query(len: usize, types: &[u8], edge_types: &[bool]) -> PatternQuery {
    let type_names = ["red", "green", "blue"];
    let mut q = PatternQuery::named("pq");
    let mut prev: Option<QVid> = None;
    for i in 0..len {
        let v = q.add_vertex(match types[i % types.len()] as usize {
            3 => QueryVertex::any(),
            t => QueryVertex::with([Predicate::eq("type", type_names[t % 3])]),
        });
        if let Some(p) = prev {
            q.add_edge(QueryEdge::typed(
                p,
                v,
                if edge_types[i % edge_types.len()] {
                    "link"
                } else {
                    "flow"
                },
            ));
        }
        prev = Some(v);
    }
    q
}

/// Reshape `q`'s edges by `shapes`, one per edge: 1 lists no type, 2 admits
/// both directions, 3 adds a forward `link` loop on the edge's source; 0
/// leaves the edge alone.
fn reshape_edges(mut q: PatternQuery, shapes: &[u8]) -> PatternQuery {
    let edges: Vec<QEid> = q.edge_ids().collect();
    for (i, e) in edges.into_iter().enumerate() {
        let edge = q.edge_mut(e).expect("live");
        match shapes[i % shapes.len()] {
            1 => edge.types.clear(),
            2 => edge.directions = DirectionSet::BOTH,
            3 => {
                let src = edge.src;
                q.add_edge(QueryEdge::typed(src, src, "link"));
            }
            _ => {}
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The MCS is always satisfiable, and the differential graph is exactly
    /// the complement of the MCS in the original query.
    #[test]
    fn mcs_satisfiable_and_differential_complementary(
        n in 3usize..8,
        vtypes in prop::collection::vec(0u8..3, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 2..12),
        qlen in 2usize..5,
        qtypes in prop::collection::vec(0u8..3, 5),
        qetypes in prop::collection::vec(any::<bool>(), 5),
    ) {
        let db = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes);
        let expl = DiscoverMcs::new(&db).run(&q).unwrap();

        // complementarity: every query element is either in the MCS or in
        // the differential, never both
        let diff = DifferentialGraph::between(&q, &expl.mcs);
        for v in q.vertex_ids() {
            let in_mcs = expl.mcs.vertex(v).is_some();
            let in_diff = diff.vertex_ids().any(|x| x == v);
            prop_assert!(in_mcs ^ in_diff);
        }
        for e in q.edge_ids() {
            let in_mcs = expl.mcs.edge(e).is_some();
            let in_diff = diff.edge_ids().any(|x| x == e);
            prop_assert!(in_mcs ^ in_diff);
        }

        // satisfiability: a non-empty MCS matches something
        if expl.mcs.num_vertices() > 0 {
            prop_assert!(count_matches(&db, &expl.mcs, Some(1)) > 0);
        }

        // consistency: if the query itself succeeds, the differential is
        // empty and vice versa
        let c = count_matches(&db, &q, Some(1));
        if c > 0 {
            prop_assert!(expl.differential.is_empty());
        } else {
            prop_assert!(!expl.differential.is_empty());
        }
    }

    /// Exhaustive DISCOVERMCS never finds a smaller MCS than the
    /// single-path approximation.
    #[test]
    fn exhaustive_dominates_single_path(
        n in 3usize..8,
        vtypes in prop::collection::vec(0u8..3, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 2..12),
        qlen in 2usize..5,
        qtypes in prop::collection::vec(0u8..3, 5),
        qetypes in prop::collection::vec(any::<bool>(), 5),
    ) {
        let db = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes);
        let exhaustive = DiscoverMcs::new(&db)
            .with_config(McsConfig { max_paths: 512, ..McsConfig::default() })
            .run(&q).unwrap();
        let single = DiscoverMcs::new(&db)
            .with_config(McsConfig {
                strategy: PathStrategy::SingleSelectivity,
                ..McsConfig::default()
            })
            .run(&q).unwrap();
        prop_assert!(exhaustive.mcs.num_edges() >= single.mcs.num_edges());
    }

    /// Whatever the engine returns as a rewrite really satisfies the goal
    /// on re-execution, and its reported cardinality is the oracle's count
    /// capped where the rewriter stops counting: the coarse rewriter
    /// (`NonEmpty`) at the first match, the fine rewriter at 50,000 or
    /// more, beyond any count on these graphs.
    #[test]
    fn rewrites_are_sound(
        n in 4usize..8,
        vtypes in prop::collection::vec(0u8..3, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 3..14),
        qlen in 2usize..4,
        qtypes in prop::collection::vec(0u8..3, 5),
        qetypes in prop::collection::vec(any::<bool>(), 5),
        goal_kind in 0u8..3,
        k in 0u64..6,
    ) {
        let db = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes);
        let engine = WhyEngine::new(&db);
        // NonEmpty reaches the coarse rewriter, the thresholds
        // TRAVERSESEARCHTREE
        let goal = build_goal(goal_kind, k, 0);
        if let Some(rw) = engine.rewrite(&q, goal).expect("valid query") {
            let c = oracle(&db, &rw.query);
            let cap = if goal == CardinalityGoal::NonEmpty { 1 } else { u64::MAX };
            prop_assert_eq!(c.min(cap), rw.cardinality);
            prop_assert!(goal.satisfied(c));
        }
    }

    /// Coarse relaxation is monotone by the oracle (§5.1.2): dropping a
    /// predicate never lowers the count, and no relaxation of a non-empty
    /// query is empty. Dropping an edge or a vertex can lower the count
    /// itself — matches that differ only in the dropped element's binding
    /// (parallel edges, say) collapse into one — so for those only
    /// non-emptiness carries over.
    #[test]
    fn coarse_relaxations_are_monotone(
        n in 3usize..8,
        vtypes in prop::collection::vec(0u8..3, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 2..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 5),
        qetypes in prop::collection::vec(any::<bool>(), 5),
        lo in 0u8..8,
        width in 0u8..4,
    ) {
        let db = build_graph(n, &vtypes, &pairs);
        let mut q = build_query(qlen, &qtypes, &qetypes);
        q.vertex_mut(QVid(0)).expect("live").predicates.push(Predicate::between(
            "x",
            f64::from(lo),
            f64::from(lo + width),
        ));
        let before = oracle(&db, &q);
        for m in coarse_relaxations(&q) {
            let (relaxed, _) = m.applied(&q).expect("applicable");
            let after = oracle(&db, &relaxed);
            if matches!(m, GraphMod::RemovePredicate { .. }) {
                prop_assert!(after >= before, "{m}: {before} -> {after}");
            }
            if before > 0 {
                prop_assert!(after > 0, "{m}: {before} -> {after}");
            }
        }
    }

    /// Fine changes move the count the way they promise (§6.2.2): with
    /// `need_more`, adding a type or a direction, dropping a type or a
    /// direction, widening an interval or adding a predicate never lowers
    /// the oracle count; without it, the restricting changes never raise
    /// it. `InsertEdge` and `InsertVertex` are left out: in a multigraph a
    /// new element can multiply the matches.
    #[test]
    fn fine_changes_are_monotone(
        n in 3usize..8,
        vtypes in prop::collection::vec(0u8..3, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 2..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 5),
        qetypes in prop::collection::vec(any::<bool>(), 5),
        lo in 0u8..8,
        width in 0u8..4,
        need_more in any::<bool>(),
        loose in any::<bool>(),
    ) {
        let db = build_graph(n, &vtypes, &pairs);
        let mut q = build_query(qlen, &qtypes, &qetypes);
        q.vertex_mut(QVid(0)).expect("live").predicates.push(Predicate::between(
            "x",
            f64::from(lo),
            f64::from(lo + width),
        ));
        // loose edges admit both types and both directions, so that the
        // restricting side has types and directions to remove
        let edges: Vec<QEid> = q.edge_ids().collect();
        for e in edges.into_iter().filter(|_| loose) {
            let edge = q.edge_mut(e).expect("live");
            edge.types = vec!["flow".into(), "link".into()];
            edge.directions = DirectionSet::BOTH;
        }
        let before = oracle(&db, &q);
        for m in fine_candidates(&q, db.domains(), need_more, true) {
            if !matches!(
                m,
                GraphMod::InsertType { .. }
                    | GraphMod::InsertDirection { .. }
                    | GraphMod::RemoveType { .. }
                    | GraphMod::RemoveDirection { .. }
                    | GraphMod::ReplaceInterval { .. }
                    | GraphMod::InsertPredicate { .. }
            ) {
                continue;
            }
            let (changed, _) = m.applied(&q).expect("applicable");
            let after = oracle(&db, &changed);
            if need_more {
                prop_assert!(after >= before, "{m}: {before} -> {after}");
            } else {
                prop_assert!(after <= before, "{m}: {before} -> {after}");
            }
        }
    }

    /// A non-empty bounded MCS meets its goal by the oracle's count; a
    /// reported crossing edge added to the MCS violates it.
    #[test]
    fn bounded_mcs_meets_its_goal(
        n in 3usize..8,
        vtypes in prop::collection::vec(0u8..3, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 2..12),
        qlen in 2usize..5,
        qtypes in prop::collection::vec(0u8..3, 5),
        qetypes in prop::collection::vec(any::<bool>(), 5),
        goal_kind in 1u8..4,
        k in 0u64..6,
        width in 0u64..4,
    ) {
        let db = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes);
        let goal = build_goal(goal_kind, k, width);
        let expl = BoundedMcs::new(&db).run(&q, goal).unwrap();
        if expl.mcs.num_vertices() > 0 {
            prop_assert!(goal.satisfied(oracle(&db, &expl.mcs)), "{goal:?}");
        }
        if let Some(e) = expl.crossing_edge {
            let mut edges: Vec<QEid> = expl.mcs.edge_ids().collect();
            edges.push(e);
            let mut grown = q.edge_subquery(&edges);
            for v in expl.mcs.vertex_ids() {
                if grown.vertex(v).is_none() {
                    grown.restore_vertex(v, expl.mcs.vertex(v).unwrap().clone());
                }
            }
            prop_assert!(!goal.satisfied(oracle(&db, &grown)), "{goal:?} crossing {e:?}");
        }
    }

    /// The brute-force check of MCS maximality: no strictly larger
    /// connected subquery (by edge count, over edge subsets) is satisfiable.
    #[test]
    fn mcs_edge_count_is_maximal(
        n in 3usize..7,
        vtypes in prop::collection::vec(0u8..3, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 2..10),
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
    ) {
        let db = build_graph(n, &vtypes, &pairs);
        let q = build_query(3, &qtypes, &qetypes); // 3 vertices, 2 edges
        let expl = DiscoverMcs::new(&db)
            .with_config(McsConfig { max_paths: 512, ..McsConfig::default() })
            .run(&q).unwrap();
        // enumerate all edge subsets (the query has ≤ 2 edges)
        let eids: Vec<QEid> = q.edge_ids().collect();
        let mut best = 0usize;
        for mask in 0..(1u32 << eids.len()) {
            let subset: Vec<QEid> = eids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let sub = q.edge_subquery(&subset);
            if sub.num_vertices() == 0 {
                continue;
            }
            if sub.is_connected() && count_matches(&db, &sub, Some(1)) > 0 {
                best = best.max(subset.len());
            }
        }
        prop_assert_eq!(expl.mcs.num_edges(), best);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The type-triple proof of TRAVERSESEARCHTREE is sound: every
    /// `fine_candidates` change it proves non-contributing leaves the
    /// oracle count as it was. Some data vertices carry no `type` and some
    /// query vertices no `type` predicate; query edges may list no types,
    /// admit both directions or be loops.
    #[test]
    fn proven_non_contributing_changes_keep_the_count(
        n in 3usize..8,
        vtypes in prop::collection::vec(0u8..4, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 2..12),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..4, 5),
        qetypes in prop::collection::vec(any::<bool>(), 5),
        shapes in prop::collection::vec(0u8..4, 4),
        need_more in any::<bool>(),
    ) {
        let db = build_graph(n, &vtypes, &pairs);
        let q = reshape_edges(build_query(qlen, &qtypes, &qetypes), &shapes);
        let before = oracle(&db, &q);
        for m in fine_candidates(&q, db.domains(), need_more, true) {
            let (child, _) = m.applied(&q).expect("applicable");
            if non_contributing(db.domains(), &q, &m, &child) {
                prop_assert_eq!(oracle(&db, &child), before, "{}", m);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A governed count ticks the budget exactly as a governed find does:
    /// under every step budget, swept one check block at a time until the
    /// run completes, both stop at the same candidate — equal count and
    /// row count, equal termination. The count binds no candidate of its
    /// last scan; this is what pins its tick accounting to the find's.
    /// Queries are injective or homomorphic, capped or not, with several
    /// components, edges in both directions, loops and a closing edge.
    #[test]
    fn governed_counts_tick_like_governed_finds(
        n in 8usize..24,
        vtypes in prop::collection::vec(0u8..4, 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 100..400),
        qlen in 1usize..5,
        qtypes in prop::collection::vec(0u8..8, 5),
        qetypes in prop::collection::vec(any::<bool>(), 5),
        shapes in prop::collection::vec(0u8..4, 4),
        extra in prop::collection::vec(0u8..4, 0..3),
        flags in 0u8..8,
        cap in 1usize..4000,
        offset in 0u64..u64::from(CHECK_INTERVAL),
    ) {
        let db = Database::open_with(
            build_data(n, &vtypes, &pairs),
            DatabaseConfig::default().sibling_cache_capacity(0),
        )
        .expect("open");
        // bit 0: injective, bit 1: capped at `cap`, bit 2: a closing edge
        let (injective, capped, close) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        // dense graphs and mostly untyped query vertices: thousands of
        // ticks, so budgets trip mid-run, mostly on last-scan candidates
        let qtypes: Vec<u8> = qtypes.iter().map(|&t| t.min(3)).collect();
        let mut q = reshape_edges(build_query(qlen, &qtypes, &qetypes), &shapes);
        let path: Vec<QVid> = q.vertex_ids().collect();
        if close && path.len() > 1 {
            // bound at both ends by the time the plan reaches it
            q.add_edge(QueryEdge::typed(path[path.len() - 1], path[0], "link"));
        }
        for t in extra {
            q.add_vertex(match t {
                3 => QueryVertex::any(),
                t => QueryVertex::with([Predicate::eq("type", ["red", "green", "blue"][t as usize])]),
            });
        }
        let session = db.session();
        let prepared = session.prepare(&q).expect("valid query");
        let opts = |k: u64| MatchOptions {
            injective,
            limit: capped.then_some(cap),
            budget: Budget::steps(k),
        };
        for block in 0..16u64 {
            let k = block * u64::from(CHECK_INTERVAL) + offset;
            let count = prepared.count_governed(opts(k));
            let find = prepared.find_governed(opts(k));
            prop_assert_eq!(count.value, find.value.len() as u64, "k = {}", k);
            prop_assert_eq!(count.termination, find.termination, "k = {}", k);
            if count.termination.is_complete() {
                break;
            }
        }
    }
}
