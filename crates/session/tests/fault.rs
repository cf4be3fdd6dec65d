//! Fault-injection robustness tests (compiled only with
//! `--features fault-inject`).
//!
//! Each test arms a deterministic [`FaultPlan`] — panic a specific work
//! unit, delay a specific seed binding, force budget exhaustion — and
//! asserts the execution stack's robustness contract: a panicking worker
//! surfaces [`WhyqError::WorkerPanicked`] without taking the [`Database`]
//! down, a cancelled search returns in bounded time, and a database that
//! survived a fault answers subsequent queries identically to a fresh
//! instance. The [`arm`] guard serializes these tests process-wide, so
//! they compose with any `--test-threads` setting.
#![cfg(feature = "fault-inject")]

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::fault::{arm, FaultGuard, FaultPlan};
use whyq_matcher::{MatchOptions, ResultGraph};
use whyq_query::{PatternQuery, Predicate, QueryBuilder};
use whyq_session::{Budget, CancelToken, Database, Executor, ParallelOpts, Termination, WhyqError};

/// Complete directed graph on `n` same-typed vertices: every ordered pair
/// carries a "link" edge, so a directed path query of length `k` has
/// `n!/(n-k)!` injective matches — combinatorial work on a tiny graph.
fn clique(n: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|_| g.add_vertex([("type", Value::str("red"))]))
        .collect();
    for &a in &vs {
        for &b in &vs {
            if a != b {
                g.add_edge(a, b, "link", []);
            }
        }
    }
    g
}

fn path_query(len: usize) -> PatternQuery {
    let mut b = QueryBuilder::new("path");
    for i in 0..len {
        b = b.vertex(&format!("v{i}"), [Predicate::eq("type", "red")]);
    }
    for i in 1..len {
        b = b.edge(&format!("v{}", i - 1), &format!("v{i}"), "link");
    }
    b.build()
}

fn multiset(results: &[ResultGraph]) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for r in results {
        *m.entry(format!("{r:?}")).or_insert(0) += 1;
    }
    m
}

/// The fault lock held with nothing armed. The recovery half of every test
/// below dispatches work units and charges budgets too — it must not run
/// while a concurrently scheduled sibling test has its plan armed.
fn disarmed() -> FaultGuard {
    arm(FaultPlan::default())
}

/// The cross-check suite the acceptance criterion speaks of: every answer
/// a database gives after surviving a fault must equal the answer a fresh
/// instance over the same graph gives.
fn assert_answers_like_fresh(survivor: &Database, queries: &[PatternQuery]) {
    let fresh = Database::open(survivor.graph().clone()).expect("fresh open");
    let par = ParallelOpts::with_threads(4).min_seeds_per_split(1);
    for q in queries {
        let s = survivor.session();
        let f = fresh.session();
        assert_eq!(s.count(q).unwrap(), f.count(q).unwrap(), "count diverged");
        assert_eq!(
            multiset(&s.find(q).unwrap()),
            multiset(&f.find(q).unwrap()),
            "find diverged"
        );
        let sp = s.prepare(q).unwrap();
        let fp = f.prepare(q).unwrap();
        assert_eq!(
            sp.count_par_opts(MatchOptions::default(), &par).unwrap(),
            fp.count().unwrap(),
            "parallel count diverged"
        );
        assert_eq!(
            multiset(&sp.find_par_opts(MatchOptions::default(), &par).unwrap()),
            multiset(&fp.find().unwrap()),
            "parallel find diverged"
        );
    }
}

// ---------------------------------------------------------------------
// panic isolation
// ---------------------------------------------------------------------

#[test]
fn injected_worker_panic_surfaces_and_database_survives() {
    let db = Database::open(clique(12)).unwrap();
    let session = db.session();
    let q = path_query(3);
    let prepared = session.prepare(&q).unwrap();
    let par = ParallelOpts::with_threads(4).min_seeds_per_split(1);

    {
        let _guard = arm(FaultPlan {
            panic_at_unit: Some(1),
            ..FaultPlan::default()
        });
        let err = prepared
            .find_par_opts(MatchOptions::default(), &par)
            .expect_err("the panicking unit must fail the batch");
        match err {
            WhyqError::WorkerPanicked { message } => {
                assert!(
                    message.contains("fault-inject"),
                    "panic payload should survive the unwind: {message}"
                );
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    // The same database — same plan cache, same prepared query — now
    // answers exactly like a fresh instance, serial and parallel.
    let _quiet = disarmed();
    assert_eq!(prepared.count().unwrap(), 12 * 11 * 10);
    assert_answers_like_fresh(&db, &[q, path_query(2)]);
    // the plan cache was not poisoned by the unwinding worker
    let stats = db.cache_stats();
    assert!(stats.len >= 1, "cache still readable after panic");
}

#[test]
fn injected_panic_in_count_par_is_isolated_too() {
    let db = Database::open(clique(10)).unwrap();
    let q = path_query(3);
    let par = ParallelOpts::with_threads(4).min_seeds_per_split(1);
    {
        let _guard = arm(FaultPlan {
            panic_at_unit: Some(0),
            ..FaultPlan::default()
        });
        let err = db
            .session()
            .prepare(&q)
            .unwrap()
            .count_par_opts(MatchOptions::default(), &par)
            .expect_err("panicked count must error");
        assert!(matches!(err, WhyqError::WorkerPanicked { .. }));
    }
    let _quiet = disarmed();
    assert_eq!(
        db.session()
            .prepare(&q)
            .unwrap()
            .count_par_opts(MatchOptions::default(), &par)
            .unwrap(),
        10 * 9 * 8
    );
}

#[test]
fn executor_stays_usable_after_injected_panic() {
    // Both the serial inline path and the scoped-thread pool route every
    // unit through the same catch_unwind boundary.
    let db = Database::open(clique(5)).unwrap();
    let q = path_query(2);
    let requests: Vec<_> = (0..16).map(|_| (&q, MatchOptions::default())).collect();
    for exec in [
        Executor::serial(),
        Executor::new(ParallelOpts::with_threads(4)),
    ] {
        {
            let _guard = arm(FaultPlan {
                panic_at_unit: Some(3),
                ..FaultPlan::default()
            });
            for slot in exec.find_batch(&db, &requests) {
                assert!(matches!(slot, Err(WhyqError::WorkerPanicked { .. })));
            }
        }
        // disarmed: the very same executor finishes the batch correctly
        let _quiet = disarmed();
        let out = exec.find_batch(&db, &requests);
        assert_eq!(out.len(), 16);
        for slot in out {
            assert_eq!(slot.unwrap().value.len(), 5 * 4);
        }
    }
}

#[test]
fn find_batch_fails_all_slots_on_executor_level_panic() {
    let db = Database::open(clique(6)).unwrap();
    let q2 = path_query(2);
    let q3 = path_query(3);
    let requests = [
        (&q2, MatchOptions::default()),
        (&q3, MatchOptions::default()),
        (&q2, MatchOptions::default()),
    ];
    let exec = Executor::new(ParallelOpts::with_threads(2));
    {
        let _guard = arm(FaultPlan {
            panic_at_unit: Some(0),
            ..FaultPlan::default()
        });
        // the injected panic fires at the dispatch boundary (outside the
        // per-slot isolation), so it is an executor-level stop: every
        // slot reports the same first error
        let slots = exec.find_batch(&db, &requests);
        assert_eq!(slots.len(), 3);
        for slot in &slots {
            assert!(matches!(slot, Err(WhyqError::WorkerPanicked { .. })));
        }
    }
    let _quiet = disarmed();
    let slots = exec.find_batch(&db, &requests);
    assert_eq!(
        slots
            .into_iter()
            .map(|slot| slot.unwrap().value.len())
            .collect::<Vec<_>>(),
        [6 * 5, 6 * 5 * 4, 6 * 5]
    );
}

// Acceptance criterion, property form: whatever (small random) graph the
// database holds, surviving an injected worker panic never changes any
// subsequent answer relative to a fresh instance.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn post_panic_database_is_indistinguishable_from_fresh(
        n in 6usize..12,
        len in 2usize..4,
        unit in 0usize..4,
    ) {
        let db = Database::open(clique(n)).unwrap();
        let q = path_query(len);
        let par = ParallelOpts::with_threads(4).min_seeds_per_split(1);
        {
            let _guard = arm(FaultPlan {
                panic_at_unit: Some(unit),
                ..FaultPlan::default()
            });
            let res = db
                .session()
                .prepare(&q)
                .unwrap()
                .find_par_opts(MatchOptions::default(), &par);
            prop_assert!(matches!(
                res,
                Err(WhyqError::WorkerPanicked { .. })
            ));
        }
        let _quiet = disarmed();
        assert_answers_like_fresh(&db, &[q, path_query(2)]);
    }
}

// ---------------------------------------------------------------------
// cancellation under an injected delay
// ---------------------------------------------------------------------

#[test]
fn cancellation_during_injected_delay_returns_in_bounded_time() {
    let db = Database::open(clique(30)).unwrap();
    let session = db.session();
    let q = path_query(3); // 30*29*28 = 24_360 matches ≫ one check interval
    let token = CancelToken::new();
    let opts = MatchOptions::governed(Budget::cancelled_by(&token));

    let _guard = arm(FaultPlan {
        // the very first seed binding stalls long enough for the
        // cancellation below to land mid-search
        delay_at_seed: Some((0, Duration::from_millis(500))),
        ..FaultPlan::default()
    });
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let start = Instant::now();
    let governed = session.find_governed(&q, opts).unwrap();
    let elapsed = start.elapsed();
    canceller.join().unwrap();

    assert_eq!(governed.termination, Termination::Cancelled);
    assert!(
        governed.value.len() < 24_360,
        "cancelled run must not have enumerated everything"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "cancelled search took {elapsed:?}"
    );
}

/// A vertex-only query counts its seeds in place, binding none of them:
/// the seed scan is the count's last scan. The seed hook must still fire
/// on each counted seed, so the injected delay holds the count until the
/// cancel lands and the next budget block observes it.
#[test]
fn cancellation_during_injected_delay_ends_a_seed_count() {
    let mut g = PropertyGraph::new();
    for _ in 0..5000 {
        g.add_vertex([("type", Value::str("red"))]);
    }
    let db = Database::open(g).unwrap();
    let session = db.session();
    let q = path_query(1);
    let token = CancelToken::new();
    let opts = MatchOptions::governed(Budget::cancelled_by(&token));

    let _guard = arm(FaultPlan {
        delay_at_seed: Some((0, Duration::from_millis(500))),
        ..FaultPlan::default()
    });
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let governed = session.count_governed(&q, opts).unwrap();
    canceller.join().unwrap();

    assert_eq!(governed.termination, Termination::Cancelled);
    assert!(governed.value < 5000, "a cancelled count is partial");
}

// ---------------------------------------------------------------------
// forced budget exhaustion
// ---------------------------------------------------------------------

#[test]
fn forced_exhaustion_degrades_gracefully_and_clears_on_disarm() {
    let db = Database::open(clique(8)).unwrap();
    let session = db.session();
    let q = path_query(3);
    // any governed budget consults the exhaustion hook — generous limits
    // that would never trip on their own
    let opts = MatchOptions::governed(Budget::steps(u64::MAX / 2));
    {
        let _guard = arm(FaultPlan {
            exhaust_after_charges: Some(0),
            ..FaultPlan::default()
        });
        let governed = session.count_governed(&q, opts.clone()).unwrap();
        assert_eq!(governed.termination, Termination::BudgetExhausted);
        assert!(
            governed.value < 8 * 7 * 6,
            "forced trip yields a partial count"
        );
    }
    // a fresh budget after disarm runs to completion
    let _quiet = disarmed();
    let governed = session
        .count_governed(&q, MatchOptions::governed(Budget::steps(u64::MAX / 2)))
        .unwrap();
    assert_eq!(governed.termination, Termination::Complete);
    assert_eq!(governed.value, 8 * 7 * 6);
}
