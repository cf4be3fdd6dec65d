//! Cache keys identify only equivalent queries: two queries that share a
//! plan-cache or sibling-store key must have the same answer on every
//! database.

use whyq_graph::{PropertyGraph, Value};
use whyq_query::{Predicate, QueryBuilder};
use whyq_session::Database;

fn nan_graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    g.add_vertex([("x", Value::Float(f64::NAN))]);
    g.add_vertex([("x", Value::Float(f64::NAN))]);
    g.add_vertex([("x", Value::Float(-f64::NAN))]);
    g
}

fn count_x(db: &Database, x: f64) -> u64 {
    let q = QueryBuilder::new("x")
        .vertex("v", [Predicate::eq("x", x)])
        .build();
    db.session().count(&q).expect("valid query")
}

/// `Value` equality tells NaNs apart by their bits, so `x = NaN` and
/// `x = -NaN` are different queries. They once shared a signature, and the
/// second count replayed the first one's plan and component count.
#[test]
fn nan_and_negative_nan_do_not_share_a_key() {
    let fresh = |x| count_x(&Database::open(nan_graph()).expect("open"), x);
    assert_eq!((fresh(f64::NAN), fresh(-f64::NAN)), (2, 1));

    let db = Database::open(nan_graph()).expect("open");
    assert_eq!(count_x(&db, f64::NAN), 2);
    assert_eq!(count_x(&db, -f64::NAN), 1);
    assert_eq!(db.cache_stats().misses, 2, "one plan per query");
}
