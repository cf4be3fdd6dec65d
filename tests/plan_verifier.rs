//! Debug-mode plan verification over the full generated test corpus.
//!
//! [`whyquery::matcher::verify_plans`] checks the structural invariants of
//! every compiled plan (single seed per component, connected expansion,
//! each element bound exactly once, plans cover exactly the live query).
//! The matcher already asserts these after every compile in debug builds;
//! this suite drives that check across every LDBC and DBpedia workload
//! query — passing and failing, before and after static analysis — so a
//! planner regression is caught by CI's `static-analysis` lane even if no
//! functional test happens to exercise the broken shape.

use whyquery::datagen::{
    dbpedia_failing_queries, dbpedia_graph, dbpedia_queries, ldbc_failing_queries, ldbc_graph,
    ldbc_hard_failing_queries, ldbc_path_query, ldbc_queries, DbpediaConfig, LdbcConfig,
};
use whyquery::matcher::compile::{build_plans_est, Compiled, ComponentPlan};
use whyquery::matcher::verify_plans;
use whyquery::prelude::*;
use whyquery::query::analyze_against;

/// The compile front half: an unsatisfiable query gets no plans.
fn compile(g: &PropertyGraph, q: &PatternQuery) -> (Compiled, Vec<ComponentPlan>) {
    let compiled = Compiled::new(g, q);
    let plans = if compiled.unsatisfiable() {
        Vec::new()
    } else {
        build_plans_est(g, q, &compiled, &[]).0
    };
    (compiled, plans)
}

fn verify_corpus(g: &PropertyGraph, queries: Vec<PatternQuery>, corpus: &str) {
    for q in queries {
        let (compiled, plans) = compile(g, &q);
        verify_plans(&q, &compiled, &plans)
            .unwrap_or_else(|violation| panic!("{corpus}/{:?}: {violation}", q.name));
        // the analyzer's simplified query must compile to equally valid
        // plans — this is the shape the session actually executes
        let analysis = analyze_against(&q, g);
        let (compiled, plans) = compile(g, &analysis.query);
        verify_plans(&analysis.query, &compiled, &plans)
            .unwrap_or_else(|violation| panic!("{corpus}/{:?} (analyzed): {violation}", q.name));
    }
}

#[test]
fn ldbc_corpus_plans_satisfy_invariants() {
    let g = ldbc_graph(LdbcConfig::default());
    verify_corpus(&g, ldbc_queries(), "ldbc");
    verify_corpus(&g, ldbc_failing_queries(), "ldbc-failing");
    verify_corpus(&g, ldbc_hard_failing_queries(), "ldbc-hard-failing");
    verify_corpus(
        &g,
        (1..=4)
            .flat_map(|h| [ldbc_path_query(h, false), ldbc_path_query(h, true)])
            .collect(),
        "ldbc-paths",
    );
}

#[test]
fn dbpedia_corpus_plans_satisfy_invariants() {
    let g = dbpedia_graph(DbpediaConfig::default());
    verify_corpus(&g, dbpedia_queries(), "dbpedia");
    verify_corpus(&g, dbpedia_failing_queries(), "dbpedia-failing");
}
