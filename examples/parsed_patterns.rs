//! Pattern queries from text: the parser front-end.
//!
//! Queries can be written in a compact ASCII-art syntax instead of builder
//! calls — convenient for interactive debugging sessions and tooling. This
//! example parses patterns, runs them against the LDBC-like graph, and
//! sends a failing one through the why-query engine.
//!
//! Run with: `cargo run --release --example parsed_patterns`

use whyquery::datagen::{ldbc_graph, LdbcConfig};
use whyquery::prelude::*;
use whyquery::query::parse_query;

fn main() -> Result<(), WhyqError> {
    let db = Database::open(ldbc_graph(LdbcConfig::default()))?;
    let engine = WhyEngine::new(&db);

    let patterns = [
        // a star: a person working somewhere, living somewhere, interested
        // in music
        "(p:person)-[:workAt {workFrom >= 2005}]->(co:company); \
         (p)-[:isLocatedIn]->(c:city); \
         (p)-[:hasInterest]->(t:tag {name: 'music'})",
        // a triangle of co-located acquaintances
        "(a:person)-[:knows]->(b:person); \
         (a)-[:isLocatedIn]->(c:city); \
         (b)-[:isLocatedIn]->(c)",
        // a failing query: nobody is called Zarathustra here
        "(p:person {firstName: 'Zarathustra'})-[:knows]->(q:person)",
    ];

    for text in patterns {
        let query = parse_query(text).expect("pattern parses");
        let c = engine.cardinality(&query)?;
        println!("pattern: {text}\n  → {c} match(es)");
        if c == 0 {
            let why = engine.why_empty(&query)?;
            println!("  → why empty: {}", why.differential);
            if let Some(fix) = engine.rewrite(&query, CardinalityGoal::NonEmpty)? {
                println!(
                    "  → suggested fix ({} mods, {} results): {}",
                    fix.mods.len(),
                    // the rewrite was counted to its first match only
                    engine.cardinality(&fix.query)?,
                    fix.mods
                        .iter()
                        .map(std::string::ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
        }
        println!();
    }
    Ok(())
}
