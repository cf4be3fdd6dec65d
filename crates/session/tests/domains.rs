//! The attribute-domain catalog has one owner, the `Database`: built on
//! first use, shared by every later call and every thread, and rebuilt
//! only by a reopened database.

use whyq_graph::domains::AttributeDomains;
use whyq_graph::{PropertyGraph, Value};
use whyq_session::Database;

fn graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let a = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(30))]);
    let b = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(25))]);
    let c = g.add_vertex([("type", Value::str("city"))]);
    g.add_edge(a, b, "knows", [("since", Value::Int(2003))]);
    g.add_edge(a, c, "livesIn", []);
    g
}

#[test]
fn one_catalog_per_database() {
    let db = Database::open(graph()).unwrap();
    let first = db.domains();
    assert!(std::ptr::eq(first, db.domains()));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| db.domains())).collect();
        for h in handles {
            assert!(std::ptr::eq(first, h.join().unwrap()));
        }
    });
}

#[test]
fn catalog_equals_a_fresh_build_at_the_default_cap() {
    let db = Database::open(graph()).unwrap();
    assert_eq!(db.domains(), &AttributeDomains::build(db.graph(), 256));
}

#[test]
fn reopened_database_builds_a_fresh_catalog() {
    let db = Database::open(graph()).unwrap();
    assert_eq!(db.domains().vertex_attr("age").unwrap().values.len(), 2);
    let mut g = db.close();
    g.add_vertex([("type", Value::str("person")), ("age", Value::Int(41))]);
    let db = Database::open(g).unwrap();
    let ages = &db.domains().vertex_attr("age").unwrap().values;
    assert_eq!(ages.last(), Some(&Value::Int(41)));
    assert_eq!(db.domains(), &AttributeDomains::build(db.graph(), 256));
}
