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
//!
//! The same loop pins the shape of every `compile_full` program: per
//! component `(SeedScan | EdgeSeed) (Expand | Close)* Emit`, one scan per
//! plan step, scan `i` binding plan step `i`'s elements — so the first `k`
//! scans of a program bind exactly the first `k` steps of its plan.

use whyquery::datagen::{
    dbpedia_failing_queries, dbpedia_graph, dbpedia_queries, ldbc_failing_queries, ldbc_graph,
    ldbc_hard_failing_queries, ldbc_path_query, ldbc_queries, DbpediaConfig, LdbcConfig,
};
use whyquery::matcher::compile::{build_plans_est, Compiled, ComponentPlan, Step};
use whyquery::matcher::vm::Instruction;
use whyquery::matcher::{verify_plans, Matcher};
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

/// Check `compile_full`'s program for `q` against `plans`, the plans the
/// same un-indexed compile builds: one scan per step, in step order, each
/// binding its step's element, then `Emit`.
fn check_program_shape(
    g: &PropertyGraph,
    q: &PatternQuery,
    plans: &[ComponentPlan],
) -> Result<(), String> {
    let program = Matcher::new(g).compile_full(q).program;
    if program.components().len() != plans.len() {
        return Err(format!(
            "{} component programs for {} plans",
            program.components().len(),
            plans.len()
        ));
    }
    for (prog, plan) in program.components().iter().zip(plans) {
        let code = prog.code();
        if code.len() != plan.steps.len() + 1 || code.last() != Some(&Instruction::Emit) {
            return Err(format!(
                "{code:?} is not one scan per step of {:?}",
                plan.steps
            ));
        }
        for (i, (ins, step)) in code.iter().zip(&plan.steps).enumerate() {
            let binds_step = match (*ins, *step) {
                (Instruction::SeedScan { vertex, .. }, Step::Seed { vertex: v }) => {
                    u32::from(vertex) == v.0
                }
                (Instruction::Expand { edge, to, .. }, Step::ExpandNew { edge: e, to: t, .. }) => {
                    u32::from(edge) == e.0 && u32::from(to) == t.0
                }
                (Instruction::Close { edge, .. }, Step::Close { edge: e }) => {
                    u32::from(edge) == e.0
                }
                (
                    Instruction::EdgeSeed { edge, from, to, .. },
                    Step::SeedEdge {
                        edge: e,
                        from: f,
                        to: t,
                        ..
                    },
                ) => u32::from(edge) == e.0 && u32::from(from) == f.0 && u32::from(to) == t.0,
                _ => false,
            };
            if !binds_step {
                return Err(format!(
                    "instruction {i} {ins:?} does not bind step {step:?}"
                ));
            }
        }
    }
    Ok(())
}

fn verify_corpus(g: &PropertyGraph, queries: Vec<PatternQuery>, corpus: &str) {
    for q in queries {
        let (compiled, plans) = compile(g, &q);
        verify_plans(&q, &compiled, &plans)
            .and_then(|()| check_program_shape(g, &q, &plans))
            .unwrap_or_else(|violation| panic!("{corpus}/{:?}: {violation}", q.name));
        // the analyzer's simplified query must compile to equally valid
        // plans — this is the shape the session actually executes
        let analysis = analyze_against(&q, g);
        let (compiled, plans) = compile(g, &analysis.query);
        verify_plans(&analysis.query, &compiled, &plans)
            .and_then(|()| check_program_shape(g, &analysis.query, &plans))
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
