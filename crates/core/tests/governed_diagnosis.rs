//! One budget per diagnosis: `WhyEngine::governed` holds a why-query to a
//! deadline or a step budget, and what a starved diagnosis reports still
//! holds by the reference matcher.

mod common;

use common::assert_sound;
use std::time::{Duration, Instant};
use whyq_core::{Budget, CardinalityGoal, Database, Termination, WhyEngine, WhyqError};
use whyq_datagen::{
    dbpedia_failing_queries, ldbc_failing_queries, ldbc_graph, ldbc_hard_failing_queries,
    LdbcConfig,
};
use whyq_query::PatternQuery;

/// How far past its deadline a diagnosis may return.
const SLACK: Duration = Duration::from_millis(10);

/// The failing corpora on the default LDBC graph, each query under a
/// threshold goal of each kind.
fn corpus() -> (Database, Vec<(PatternQuery, CardinalityGoal)>) {
    let db = Database::open(ldbc_graph(LdbcConfig::default())).expect("open");
    let queries = [
        ldbc_failing_queries(),
        ldbc_hard_failing_queries(),
        dbpedia_failing_queries(),
    ]
    .concat();
    let goals = [CardinalityGoal::AtLeast(5), CardinalityGoal::AtMost(3)];
    let cases = queries
        .iter()
        .flat_map(|q| goals.map(|goal| (q.clone(), goal)))
        .collect();
    (db, cases)
}

fn probes(db: &Database) -> u64 {
    let s = db.cache_stats();
    s.hits + s.misses
}

#[test]
fn an_elapsed_deadline_probes_nothing() {
    let (db, cases) = corpus();
    for (q, goal) in &cases {
        let before = probes(&db);
        let engine = WhyEngine::governed(&db, Budget::deadline(Duration::ZERO));
        match engine.diagnose(q, *goal) {
            Err(WhyqError::Interrupted { termination }) => {
                assert_eq!(termination, Termination::DeadlineExceeded);
            }
            other => panic!("expected an interrupt, got {other:?}"),
        }
        assert_eq!(probes(&db), before, "{goal:?} on {}", q.signature());
    }
}

/// Each run opens the graph afresh, so no run is sped up by the caches
/// an earlier one filled. The attribute-domain catalog is built before
/// the clock starts: the fine rewriter builds it on its first use, once
/// per database and without a budget.
#[test]
fn a_diagnosis_returns_by_its_deadline() {
    let (db, cases) = corpus();
    let mut tripped = 0;
    for d in [Duration::ZERO, Duration::from_millis(1)] {
        for (q, goal) in &cases {
            let fastest = (0..3)
                .map(|_| {
                    let cold = Database::open(db.graph().clone()).expect("open");
                    cold.domains();
                    let budget = Budget::deadline(d);
                    let start = Instant::now();
                    let engine = WhyEngine::governed(&cold, budget.clone());
                    let answer = engine.diagnose(q, *goal);
                    let took = start.elapsed();
                    if let Ok(answer) = answer {
                        assert_sound(&cold, q, *goal, &answer);
                    }
                    tripped += usize::from(!budget.termination().is_complete());
                    took
                })
                .min()
                .expect("three runs");
            assert!(
                fastest <= d + SLACK,
                "{goal:?} on {} took {fastest:?} under a {d:?} deadline",
                q.signature()
            );
        }
    }
    // every zero deadline trips, and some of the 1 ms ones do
    assert!(tripped > 3 * cases.len(), "{tripped} runs tripped");
}

#[test]
fn a_starved_diagnosis_reports_only_sound_explanations() {
    let (db, cases) = corpus();
    let (mut degraded, mut complete) = (0, 0);
    for steps in [0, 1024, 16_384, 262_144] {
        for (q, goal) in &cases {
            let budget = Budget::steps(steps);
            let engine = WhyEngine::governed(&db, budget.clone());
            match engine.diagnose(q, *goal) {
                // the first count tripped: nothing is reported
                Err(WhyqError::Interrupted { .. }) => {}
                Err(e) => panic!("{e}"),
                Ok(d) => {
                    assert_sound(&db, q, *goal, &d);
                    match budget.termination() {
                        Termination::Complete => complete += 1,
                        _ => degraded += 1,
                    }
                }
            }
        }
    }
    // the sweep reaches both a degraded and a complete diagnosis
    assert!(
        degraded > 0 && complete > 0,
        "{degraded} degraded, {complete} complete"
    );
}
