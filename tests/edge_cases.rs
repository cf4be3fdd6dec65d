//! Edge-case and failure-injection tests: degenerate graphs, degenerate
//! queries, pathological configurations — the inputs a debugging tool
//! meets precisely when users are already confused.

use whyquery::core::fine::{FineConfig, TraverseSearchTree};
use whyquery::core::relax::{CoarseRewriter, RelaxConfig};
use whyquery::core::subgraph::{BoundedMcs, DiscoverMcs, McsConfig};
use whyquery::graph::io;
use whyquery::matcher::count_matches_naive;
use whyquery::prelude::*;
use whyquery::query::{parse_query, QEid, QVid, QueryEdge, QueryVertex};

fn empty_graph() -> Database {
    Database::open(PropertyGraph::new()).expect("open")
}

fn tiny_graph() -> Database {
    let mut g = PropertyGraph::new();
    let a = g.add_vertex([("type", Value::str("thing"))]);
    let b = g.add_vertex([("type", Value::str("thing"))]);
    g.add_edge(a, b, "rel", []);
    Database::open(g).expect("open")
}

mod common;
use common::{count_matches, find_matches};

#[test]
fn empty_graph_never_panics() {
    let db = empty_graph();
    let q = parse_query("(a:thing)-[:rel]->(b:thing)").unwrap();
    assert_eq!(count_matches(&db, &q, None), 0);
    assert!(find_matches(&db, &q, None).is_empty());
    let engine = WhyEngine::new(&db);
    let d = engine.diagnose(&q, CardinalityGoal::NonEmpty).unwrap();
    assert_eq!(d.problem, WhyProblem::WhyEmpty);
    // nothing in the graph → whole query fails, no rewrite possible
    let sub = d.subgraph.unwrap();
    assert_eq!(sub.mcs.num_vertices(), 0);
    assert!(d.rewrite.is_none());
}

#[test]
fn query_with_unknown_attributes_and_types() {
    let db = tiny_graph();
    let q = parse_query("(a {nonexistent = 1})-[:ghostrel]->(b)").unwrap();
    assert_eq!(count_matches(&db, &q, None), 0);
    let expl = DiscoverMcs::new(&db).run(&q).unwrap();
    // only vertex b (unconstrained) survives
    assert!(expl.mcs.num_edges() == 0);
    assert!(expl.differential.len() >= 2);
}

#[test]
fn tombstone_heavy_queries_stay_consistent() {
    // build a query, delete most of it, keep querying
    let mut q = PatternQuery::new();
    let vs: Vec<QVid> = (0..6)
        .map(|_| q.add_vertex(QueryVertex::with([Predicate::eq("type", "thing")])))
        .collect();
    for w in vs.windows(2) {
        q.add_edge(QueryEdge::typed(w[0], w[1], "rel"));
    }
    for &v in &vs[2..] {
        q.remove_vertex(v);
    }
    assert_eq!(q.num_vertices(), 2);
    assert_eq!(q.num_edges(), 1);
    let db = tiny_graph();
    assert_eq!(count_matches(&db, &q, None), 1);
    // ids beyond the tombstones resolve to None, not panics
    assert!(q.vertex(QVid(5)).is_none());
    assert!(q.edge(QEid(4)).is_none());
}

#[test]
fn zero_and_one_caps() {
    let db = tiny_graph();
    let q = parse_query("(a:thing)").unwrap();
    assert_eq!(count_matches(&db, &q, Some(0)), 0);
    assert_eq!(count_matches(&db, &q, Some(1)), 1);
    assert!(find_matches(&db, &q, Some(0)).is_empty());
}

#[test]
fn huge_thresholds_do_not_overflow() {
    let db = tiny_graph();
    let q = parse_query("(a:thing)").unwrap();
    let engine = WhyEngine::new(&db);
    let d = engine
        .classify(&q, CardinalityGoal::AtLeast(u64::MAX))
        .unwrap();
    assert_eq!(d, WhyProblem::WhySoFew);
    assert_eq!(
        CardinalityGoal::AtLeast(u64::MAX).deviation(2),
        u64::MAX - 2
    );
    // fine search terminates at budget without finding a fix
    let out = TraverseSearchTree::new(&db)
        .with_config(FineConfig {
            max_executed: 10,
            ..FineConfig::default()
        })
        .run(&q, CardinalityGoal::AtLeast(u64::MAX));
    assert!(out.explanation.is_none());
}

/// `n` vertices of type `a`; the disconnected query `(x:a), (y:a)` has
/// `n * n` matches.
fn cross_product(n: usize) -> (Database, PatternQuery) {
    let mut g = PropertyGraph::new();
    for _ in 0..n {
        g.add_vertex([("type", Value::str("a"))]);
    }
    let q = parse_query("(x:a); (y:a)").unwrap();
    (Database::open(g).expect("open"), q)
}

#[test]
fn rewrite_meets_a_goal_above_the_fine_count_cap() {
    let (db, q) = cross_product(300);
    let goal = CardinalityGoal::AtMost(60_000);
    let d = WhyEngine::new(&db).diagnose(&q, goal).unwrap();
    assert_eq!(d.problem, WhyProblem::WhySoMany);
    if let Some(rw) = d.rewrite {
        let oracle = count_matches_naive(db.graph(), &rw.query, MatchOptions::default());
        assert!(
            goal.satisfied(oracle),
            "{} mods, {oracle} matches",
            rw.mods.len()
        );
    }
}

#[test]
fn classification_is_exact_above_the_engine_count_cap() {
    let (db, q) = cross_product(1_001);
    let problem = WhyEngine::new(&db)
        .classify(&q, CardinalityGoal::AtMost(1_000_001))
        .unwrap();
    assert_eq!(problem, WhyProblem::WhySoMany);
}

#[test]
fn unicode_attributes_round_trip() {
    let mut g = PropertyGraph::new();
    let v = g.add_vertex([("名前", Value::str("Анна 😀")), ("type", Value::str("人"))]);
    let text = io::write_graph(&g);
    let g2 = io::read_graph(&text).unwrap();
    let sym = g2.attr_symbol("名前").unwrap();
    assert_eq!(
        g2.vertex_attr(whyquery::graph::VertexId(v.0), sym),
        Some(&Value::str("Анна 😀"))
    );
    // matching on unicode values works
    let mut q = PatternQuery::new();
    q.add_vertex(QueryVertex::with([Predicate::eq("名前", "Анна 😀")]));
    let db2 = Database::open(g2).expect("open");
    assert_eq!(count_matches(&db2, &q, None), 1);
}

#[test]
fn rewriter_with_zero_lambda_ignores_model() {
    let db = tiny_graph();
    let q = parse_query("(a:thing {x = 1})-[:rel]->(b:thing)").unwrap();
    let rw = CoarseRewriter::new(&db);
    let out = rw.rewrite(
        &q,
        &RelaxConfig {
            lambda: 0.0,
            ..RelaxConfig::default()
        },
    );
    let expl = out.explanation.unwrap();
    assert!(expl.cardinality > 0);
}

#[test]
fn self_loop_query_on_self_loop_data() {
    let mut g = PropertyGraph::new();
    let v = g.add_vertex([("type", Value::str("node"))]);
    g.add_edge(v, v, "self", []);
    let db = Database::open(g).expect("open");
    let mut q = PatternQuery::new();
    let qv = q.add_vertex(QueryVertex::with([Predicate::eq("type", "node")]));
    q.add_edge(QueryEdge::typed(qv, qv, "self"));
    assert_eq!(count_matches(&db, &q, None), 1);
    let expl = DiscoverMcs::new(&db).run(&q).unwrap();
    assert!(expl.differential.is_empty());
}

#[test]
fn disconnected_query_with_failing_and_succeeding_components() {
    let db = tiny_graph();
    let mut q = PatternQuery::new();
    q.add_vertex(QueryVertex::with([Predicate::eq("type", "thing")]));
    q.add_vertex(QueryVertex::with([Predicate::eq("type", "ghost")]));
    assert_eq!(count_matches(&db, &q, None), 0); // cartesian with empty part
    let expl = DiscoverMcs::new(&db)
        .with_config(McsConfig::default())
        .run(&q)
        .unwrap();
    assert!(expl.mcs.vertex(QVid(0)).is_some());
    assert!(expl.mcs.vertex(QVid(1)).is_none());
}

/// 10,001 `a` and 10,001 `b` vertices; only the last `a` has a `t` edge,
/// to the last `b`. No seed cap may hide it.
fn one_edge_after_many_seeds() -> (Database, PatternQuery) {
    let mut g = PropertyGraph::new();
    let n = 10_001;
    let a: Vec<_> = (0..n)
        .map(|_| g.add_vertex([("type", Value::str("a"))]))
        .collect();
    let b: Vec<_> = (0..n)
        .map(|_| g.add_vertex([("type", Value::str("b"))]))
        .collect();
    g.add_edge(a[n - 1], b[n - 1], "t", []);
    let q = parse_query("(x:a)-[:t]->(y:b)-[:t]->(z:c)").unwrap();
    (Database::open(g).expect("open"), q)
}

#[test]
fn mcs_prefix_counts_are_exact_past_ten_thousand_seeds() {
    let (db, q) = one_edge_after_many_seeds();
    let expl = DiscoverMcs::new(&db).run(&q).unwrap();
    assert_eq!(expl.mcs.num_edges(), 1);
    assert!(expl.mcs.edge(QEid(0)).is_some());
    assert_eq!(db.session().count(&expl.mcs).unwrap(), 1);
    assert_eq!(expl.crossing_edge, Some(QEid(1)));
}

#[test]
fn bounded_mcs_prefix_counts_are_exact_past_ten_thousand_seeds() {
    let (db, q) = one_edge_after_many_seeds();
    let expl = BoundedMcs::new(&db)
        .run(&q, CardinalityGoal::AtLeast(1))
        .unwrap();
    assert_eq!(expl.mcs.num_edges(), 1);
    assert!(expl.mcs.edge(QEid(0)).is_some());
    assert_eq!(db.session().count(&expl.mcs).unwrap(), 1);
    assert_eq!(expl.crossing_edge, Some(QEid(1)));
}

#[test]
fn malformed_graph_files_are_rejected_not_panicked() {
    for bad in [
        "V\tbroken",
        "E\t0\t0\tt", // edge before any vertex
        "Z\tnothing", // unknown record
        "V\tx=i:notanumber",
    ] {
        assert!(io::read_graph(bad).is_err(), "accepted: {bad:?}");
    }
}

#[test]
fn malformed_patterns_are_rejected_not_panicked() {
    for bad in [
        "",
        "(",
        "(a)-",
        "(a)-[:t]->",
        "(a)->(b)",
        "(a {x})",
        "(a {x = })",
    ] {
        assert!(parse_query(bad).is_err(), "accepted: {bad:?}");
    }
}
