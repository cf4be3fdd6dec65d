//! Why-empty debugging in a data-integration setting, with non-intrusive
//! user integration (§5.4): a curator queries a freshly integrated
//! DBpedia-like knowledge graph, gets an empty answer, and the rewriter
//! proposes fixes. The curator only *rates* proposals; the engine learns
//! which query parts may be touched and adapts.
//!
//! Run with: `cargo run --release --example data_integration`

use whyquery::core::relax::{CoarseRewriter, RelaxConfig};
use whyquery::core::user::{SimulatedUser, UserPreferences};
use whyquery::datagen::{dbpedia_graph, DbpediaConfig};
use whyquery::prelude::*;
use whyquery::query::{QEid, QVid};

fn main() -> Result<(), WhyqError> {
    let db = Database::open(dbpedia_graph(DbpediaConfig::default()))?;
    let session = db.session();
    println!(
        "DBpedia-like knowledge graph: {} vertices, {} edges",
        db.graph().num_vertices(),
        db.graph().num_edges()
    );

    // films starring persons born in "Borduria" — a country that does not
    // exist in the integrated data
    let query = QueryBuilder::new("films-from-borduria")
        .vertex("f", [Predicate::eq("type", "film")])
        .vertex("p", [Predicate::eq("type", "person")])
        .vertex("s", [Predicate::eq("type", "settlement")])
        .vertex(
            "c",
            [
                Predicate::eq("type", "country"),
                Predicate::eq("name", "Borduria"),
            ],
        )
        .edge("f", "p", "starring")
        .edge("p", "s", "birthPlace")
        .edge("s", "c", "country")
        .build();

    assert_eq!(session.count(&query)?, 0);
    println!("query {:?} is empty", query.name.as_deref().unwrap());

    // the curator cares about the starring relationship and the film
    // vertex — those must survive any rewriting (hidden preferences)
    let mut hidden = UserPreferences::new();
    hidden.set_edge(QEid(0), 1.0); // starring
    hidden.set_vertex(QVid(0), 1.0); // film
    let curator = SimulatedUser::new(hidden);

    let rewriter = CoarseRewriter::new(&db);
    let config = RelaxConfig {
        lambda: 5.0, // let the learned preference model steer
        ..RelaxConfig::default()
    };
    let (outcome, model) = rewriter.session(&query, &config, &curator, 0.75, 6);

    println!("\n--- interactive rewriting session ---");
    for (i, round) in outcome.rounds.iter().enumerate() {
        println!(
            "round {}: {} candidate queries executed, proposal rated {:.2}",
            i + 1,
            round.executed,
            round.rating
        );
        for m in &round.explanation.mods {
            println!("    - {m}");
        }
    }
    match outcome.accepted {
        Some(i) => {
            let accepted = &outcome.rounds[i].explanation;
            // the rewriter counted the proposal to its first match only
            let size = session.count(&accepted.query)?;
            println!(
                "\naccepted in round {}: {size} result(s), syntactic distance {:.3}",
                i + 1,
                accepted.syntactic_distance
            );
            assert!(size > 0);
        }
        None => println!("\nno proposal met the curator's bar"),
    }
    println!(
        "preference model learned weights for {} query element(s)",
        model.len()
    );
    Ok(())
}
