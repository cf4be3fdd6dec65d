//! Quickstart: open a tiny property graph as a database, run a prepared
//! pattern query that unexpectedly returns nothing, and ask the why-query
//! engine to explain and repair it.
//!
//! Run with: `cargo run --example quickstart`

use whyquery::prelude::*;

fn main() -> Result<(), WhyqError> {
    // ----------------------------------------------------------------
    // 1. A tiny data graph: Anna works at TU Dresden, located in Dresden.
    // ----------------------------------------------------------------
    let mut g = PropertyGraph::new();
    let anna = g.add_vertex([("type", Value::str("person")), ("name", Value::str("Anna"))]);
    let tud = g.add_vertex([
        ("type", Value::str("university")),
        ("name", Value::str("TU Dresden")),
    ]);
    let dresden = g.add_vertex([
        ("type", Value::str("city")),
        ("name", Value::str("Dresden")),
    ]);
    g.add_edge(anna, tud, "workAt", [("sinceYear", Value::Int(2003))]);
    g.add_edge(tud, dresden, "locatedIn", []);

    // opening seals the topology and builds the configured indexes
    // (default: an equality index over "type")
    let db = Database::open(g)?;
    let session = db.session();

    // ----------------------------------------------------------------
    // 2. The user asks for people working at a university in *Berlin*.
    // ----------------------------------------------------------------
    let query = QueryBuilder::new("who-works-in-berlin")
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
        .build();

    // prepare once — compilation and planning are cached by signature,
    // so every later execution (and re-prepare) skips them
    let prepared = session.prepare(&query)?;
    let n = prepared.count()?;
    println!(
        "query {:?} returned {n} results",
        query.name.as_deref().unwrap()
    );
    assert_eq!(n, 0);

    // ----------------------------------------------------------------
    // 3. Why is it empty? — subgraph-based explanation (DISCOVERMCS)
    // ----------------------------------------------------------------
    let engine = WhyEngine::new(&db);
    let explanation = engine.why_empty(&query)?;
    println!("\n--- subgraph-based explanation ---");
    println!(
        "largest succeeding subquery: {} vertices, {} edges, {} result(s)",
        explanation.mcs.num_vertices(),
        explanation.mcs.num_edges(),
        engine.cardinality(&explanation.mcs)?
    );
    println!("failed query part: {}", explanation.differential);
    if let Some(e) = explanation.crossing_edge {
        println!("the traversal died at query edge {e}");
    }

    // ----------------------------------------------------------------
    // 4. How should the query change? — modification-based explanation
    // ----------------------------------------------------------------
    let diagnosis = engine.diagnose(&query, CardinalityGoal::NonEmpty)?;
    println!("\n--- modification-based explanation ---");
    println!("classified problem: {}", diagnosis.problem);
    let rewrite = diagnosis.rewrite.expect("rewriting found a fix");
    println!("suggested modifications:");
    for m in &rewrite.mods {
        println!("  * {m}");
    }
    // the rewriter stops counting a candidate at its first match: count
    // the accepted query for its size
    println!(
        "rewritten query delivers {} result(s) at syntactic distance {:.3}",
        engine.cardinality(&rewrite.query)?,
        rewrite.syntactic_distance
    );

    // the rewritten query really works — stream the first witness lazily
    let fixed = session.prepare(&rewrite.query)?;
    let witness = fixed.stream().next().expect("repaired query matches");
    println!(
        "\nfirst witness binds {} query vertices",
        witness.vertex_bindings().len()
    );
    println!("quickstart OK");
    Ok(())
}
