//! Debugging a social-network analytics query that returns *too many*
//! answers — the data-integration scenario from the thesis introduction.
//!
//! A seeded LDBC-SNB-like graph is generated, an under-constrained
//! pattern floods the analyst with results, BOUNDEDMCS points at the edge
//! where the explosion starts, and TRAVERSESEARCHTREE tightens the query
//! until the result size fits the analyst's budget.
//!
//! Run with: `cargo run --release --example social_network`

use whyquery::core::fine::{FineConfig, TraverseSearchTree};
use whyquery::core::subgraph::BoundedMcs;
use whyquery::datagen::{ldbc_graph, LdbcConfig};
use whyquery::prelude::*;

fn main() -> Result<(), WhyqError> {
    let db = Database::open(ldbc_graph(LdbcConfig::default()))?;
    let session = db.session();
    println!(
        "LDBC-like social network: {} vertices, {} edges",
        db.graph().num_vertices(),
        db.graph().num_edges()
    );

    // an analyst looks for "female persons who know somebody who lives in
    // some city" — far too unspecific
    let query = QueryBuilder::new("who-knows-city-dwellers")
        .vertex(
            "p1",
            [
                Predicate::eq("type", "person"),
                Predicate::eq("gender", "female"),
            ],
        )
        .vertex("p2", [Predicate::eq("type", "person")])
        .vertex("city", [Predicate::eq("type", "city")])
        .edge("p1", "p2", "knows")
        .edge("p2", "city", "isLocatedIn")
        .build();

    let prepared = session.prepare(&query)?;
    let c = prepared.count()?;
    let budget = 25u64;
    println!("query returns {c} matches — the analyst wanted at most {budget}");

    // the flood never needs to be materialized: stream a handful lazily
    let preview: Vec<_> = prepared.stream().take(3).collect();
    println!(
        "first {} matches pulled lazily from the suspended search",
        preview.len()
    );

    // --- where does the explosion come from? --------------------------
    let goal = CardinalityGoal::AtMost(budget);
    let bounded = BoundedMcs::new(&db).run(&query, goal)?;
    println!("\n--- BOUNDEDMCS ---");
    println!(
        "largest subquery within budget: {} edges ({} results)",
        bounded.mcs.num_edges(),
        session.count(&bounded.mcs)?
    );
    if let Some(e) = bounded.crossing_edge {
        println!("cardinality explodes at query edge {e}");
    }
    println!("over-producing part: {}", bounded.differential);

    // --- tighten the query automatically ------------------------------
    let fine = TraverseSearchTree::new(&db)
        .with_config(FineConfig {
            max_executed: 1500,
            ..FineConfig::default()
        })
        .run(&query, goal);
    println!("\n--- TRAVERSESEARCHTREE ---");
    println!(
        "executed {} candidates, modification tree has {} nodes ({} discarded as non-contributing, {} of them before execution)",
        fine.executed,
        fine.tree.len(),
        fine.tree
            .count_status(whyquery::core::fine::NodeStatus::Discarded),
        fine.pruned
    );
    match fine.explanation {
        Some(expl) => {
            println!("suggested restrictions:");
            for m in &expl.mods {
                println!("  * {m}");
            }
            println!(
                "rewritten query returns {} matches (≤ {budget}), syntactic distance {:.3}",
                expl.cardinality, expl.syntactic_distance
            );
            assert!(expl.cardinality <= budget);
        }
        None => println!(
            "budget exhausted; best deviation reached: {}",
            fine.best_deviation
        ),
    }
    Ok(())
}
