//! A governed diagnosis under injected faults: budget exhaustion forced
//! after every number of charges, and a cancel that lands mid-search.
//!
//! The injection points are process-wide, so every test here holds the
//! fault lock for its whole run, un-armed parts included.
#![cfg(feature = "fault-inject")]

mod common;

use common::{assert_sound, shown};
use std::time::Duration;
use whyq_core::{
    Budget, CancelToken, CardinalityGoal, Database, Termination, WhyEngine, WhyqError,
};
use whyq_datagen::{ldbc_failing_queries, ldbc_graph, ldbc_queries, LdbcConfig};
use whyq_graph::PropertyGraph;
use whyq_matcher::fault::{arm, FaultPlan};

fn small_graph() -> PropertyGraph {
    ldbc_graph(LdbcConfig {
        persons: 60,
        seed: 7,
    })
}

/// A budget that only an injected fault trips.
fn governed() -> Budget {
    Budget::deadline(Duration::from_secs(3600))
}

fn exhaust_after(k: u64) -> FaultPlan {
    FaultPlan {
        exhaust_after_charges: Some(k),
        ..FaultPlan::default()
    }
}

/// Sweep the charge at which the budget is exhausted from the first one
/// until a diagnosis runs untripped. Only the first count may turn a
/// trip into an error; every later trip leaves a diagnosis whose
/// explanations hold by the oracle. Afterwards the database answers as a
/// fresh one does: no tripped count was cached. One guard is held for
/// the whole sweep and re-armed between its parts, so no count here runs
/// while another test's plan is armed.
#[test]
fn exhaustion_at_every_charge_degrades_soundly() {
    let mut armed = arm(FaultPlan::default());
    let g = small_graph();
    // a why-card query: more than one answer where at most one is wanted
    let card = ldbc_queries()[2].clone();
    let db = Database::open(g.clone()).expect("open");
    assert!(db.session().count(&card).expect("count") > 1);
    let cases = [
        (ldbc_failing_queries()[2].clone(), CardinalityGoal::NonEmpty),
        (card, CardinalityGoal::AtMost(1)),
    ];
    for (q, goal) in &cases {
        let db = Database::open(g.clone()).expect("open");
        let (mut interrupted, mut answered) = (false, false);
        let mut k = 0;
        loop {
            let budget = governed();
            armed.rearm(exhaust_after(k));
            let answer = WhyEngine::governed(&db, budget.clone()).diagnose(q, *goal);
            armed.rearm(FaultPlan::default());
            match answer {
                Err(WhyqError::Interrupted { termination }) => {
                    assert_eq!(termination, Termination::BudgetExhausted);
                    assert!(!answered, "K = {k}: a later count interrupted");
                    interrupted = true;
                }
                Err(e) => panic!("K = {k}: {e}"),
                Ok(d) => {
                    answered = true;
                    assert_sound(&db, q, *goal, &d);
                }
            }
            if budget.termination().is_complete() {
                break;
            }
            k += 1;
        }
        assert!(interrupted && answered, "{goal:?}: {k} charges");

        let fresh = Database::open(g.clone()).expect("open");
        let warm = WhyEngine::new(&db).diagnose(q, *goal).expect("diagnose");
        let cold = WhyEngine::new(&fresh).diagnose(q, *goal).expect("diagnose");
        assert_eq!(shown(&warm), shown(&cold), "{goal:?}");
    }
}

/// The unknown first name is refuted at compile time, so the
/// classification binds no seed: the delayed first seed belongs to the
/// first MCS prefix, and the cancel lands mid-search.
#[test]
fn a_cancel_mid_search_ends_the_diagnosis_cancelled() {
    let db = Database::open(small_graph()).expect("open");
    let q = &ldbc_failing_queries()[0];
    let token = CancelToken::new();
    let budget = Budget::cancelled_by(&token);
    let _armed = arm(FaultPlan {
        delay_at_seed: Some((0, Duration::from_millis(500))),
        ..FaultPlan::default()
    });
    let d = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        WhyEngine::governed(&db, budget.clone()).diagnose(q, CardinalityGoal::NonEmpty)
    })
    .expect("the classification count precedes the cancel");
    assert_eq!(budget.termination(), Termination::Cancelled);
    let sub = d.subgraph.expect("a why-empty query has an MCS answer");
    assert_eq!(sub.termination, Termination::Cancelled);
    assert!(d.rewrite.is_none(), "no rewrite after the cancel");
}
