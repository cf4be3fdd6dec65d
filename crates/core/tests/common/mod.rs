//! Oracle checks shared by the diagnosis-budget suites.

// each test binary compiles this module independently and uses a subset
#![allow(dead_code)]

use whyq_core::engine::Diagnosis;
use whyq_core::{CardinalityGoal, Database, WhyProblem};
use whyq_matcher::reference::count_matches_naive;
use whyq_matcher::MatchOptions;
use whyq_query::PatternQuery;

/// The reference matcher's count of `q`, stopped at `cap`.
pub fn oracle(db: &Database, q: &PatternQuery, cap: u64) -> u64 {
    count_matches_naive(db.graph(), q, MatchOptions::counting(Some(cap)))
}

/// Every explanation `d` reports for `q` under `goal` holds by the
/// reference matcher, whether or not its budget tripped:
/// - a non-empty DISCOVERMCS answer has a match, a non-empty BOUNDEDMCS
///   answer meets the goal;
/// - a rewrite meets the goal.
///
/// The goal is one of `NonEmpty`, `AtLeast` and `AtMost`, which the
/// oracle decides at its threshold plus one.
pub fn assert_sound(db: &Database, q: &PatternQuery, goal: CardinalityGoal, d: &Diagnosis) {
    let what = format!("{goal:?} on {}", q.signature());
    if let Some(sub) = &d.subgraph {
        if sub.mcs.num_vertices() > 0 {
            let c = oracle(db, &sub.mcs, goal.threshold() + 1);
            match d.problem {
                WhyProblem::WhyEmpty => assert!(c > 0, "empty MCS answer: {what}"),
                _ => assert!(goal.satisfied(c), "MCS misses the goal: {what}"),
            }
        }
    }
    if let Some(rw) = &d.rewrite {
        let c = oracle(db, &rw.query, goal.threshold() + 1);
        assert!(goal.satisfied(c), "rewrite misses the goal: {what}");
    }
}

/// What a diagnosis answers, with queries shown by their signature.
pub fn shown(d: &Diagnosis) -> String {
    let sub = d.subgraph.as_ref().map(|s| {
        let diff = s.differential.to_string();
        let work = (s.paths_tried, s.extensions, s.termination);
        (s.mcs.signature(), diff, s.crossing_edge, work)
    });
    let rw = d.rewrite.as_ref().map(|r| {
        let mods: Vec<String> = r.mods.iter().map(ToString::to_string).collect();
        (
            r.query.signature(),
            mods,
            r.cardinality,
            r.syntactic_distance,
        )
    });
    format!("{:?} {} {sub:?} {rw:?}", d.problem, d.cardinality)
}
