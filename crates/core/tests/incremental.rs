//! The why-engine's answers are invariant under the sibling cache.
//!
//! The relax loop and the MCS traversals probe hundreds of near-identical
//! sibling queries; with the sibling cache enabled (the default) most of
//! those probes replay memoized per-component results instead of
//! re-executing. These suites pin the contract that this is *purely* a
//! performance optimization: explanations, trajectories, `paths_tried`
//! and `extensions` work measures are bit-identical between a default
//! database and one opened with `sibling_cache_capacity(0)`, and a mid-run
//! Budget trip never poisons the cache for later complete runs.

use std::collections::HashSet;
use whyq_core::problem::CardinalityGoal;
use whyq_core::relax::{CoarseRewriter, RelaxConfig, RelaxOutcome};
use whyq_core::subgraph::{BoundedMcs, DiscoverMcs};
use whyq_core::SubgraphExplanation;
use whyq_datagen::{
    ldbc_failing_queries, ldbc_graph, ldbc_hard_failing_queries, ldbc_queries, LdbcConfig,
};
use whyq_matcher::budget::CHECK_INTERVAL;
use whyq_matcher::{Budget, Termination};
use whyq_query::QueryBuilder;
use whyq_session::{Database, DatabaseConfig};

/// The same graph opened twice: sibling cache on (default) and off.
fn db_pair() -> (Database, Database) {
    let g = ldbc_graph(LdbcConfig::default());
    let inc = Database::open(g.clone()).expect("open");
    let off =
        Database::open_with(g, DatabaseConfig::default().sibling_cache_capacity(0)).expect("open");
    (inc, off)
}

fn assert_same_outcome(a: &RelaxOutcome, b: &RelaxOutcome) {
    assert_eq!(a.executed, b.executed);
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.trajectory, b.trajectory);
    assert_eq!(a.termination, b.termination);
    match (&a.explanation, &b.explanation) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.query.signature(), y.query.signature());
            assert_eq!(x.mods, y.mods);
            assert_eq!(x.cardinality, y.cardinality);
            assert!((x.syntactic_distance - y.syntactic_distance).abs() < f64::EPSILON);
        }
        (x, y) => panic!("explanation presence diverged: {x:?} vs {y:?}"),
    }
}

fn assert_same_subgraph(a: &SubgraphExplanation, b: &SubgraphExplanation) {
    assert_eq!(a.mcs.signature(), b.mcs.signature());
    assert_eq!(a.differential, b.differential);
    assert_eq!(a.crossing_edge, b.crossing_edge);
    assert_eq!(a.paths_tried, b.paths_tried, "paths_tried diverged");
    assert_eq!(a.extensions, b.extensions, "extensions diverged");
    assert_eq!(a.termination, b.termination);
}

#[test]
fn relax_trajectories_are_cache_invariant() {
    let (inc, off) = db_pair();
    for q in &ldbc_failing_queries() {
        let on = CoarseRewriter::new(&inc).rewrite(q, &RelaxConfig::default());
        let reference = CoarseRewriter::new(&off).rewrite(q, &RelaxConfig::default());
        assert_same_outcome(&on, &reference);

        // a second run over the now-warm cache replays instead of
        // re-executing — the outcome must not change
        let warm = CoarseRewriter::new(&inc).rewrite(q, &RelaxConfig::default());
        assert_same_outcome(&warm, &reference);
    }
    let stats = inc.sibling_stats();
    assert!(stats.hits > 0, "warm relax runs should replay: {stats:?}");
}

#[test]
fn discover_mcs_is_cache_invariant() {
    let (inc, off) = db_pair();
    for q in &ldbc_failing_queries() {
        let on = DiscoverMcs::new(&inc).run(q).expect("discover");
        let reference = DiscoverMcs::new(&off).run(q).expect("discover");
        assert_same_subgraph(&on, &reference);

        // a warm replay agrees too
        let warm = DiscoverMcs::new(&inc).run(q).expect("discover");
        assert_same_subgraph(&warm, &reference);
    }
}

#[test]
fn bounded_mcs_is_cache_invariant() {
    let (inc, off) = db_pair();
    let q3 = &ldbc_queries()[2];
    let on = BoundedMcs::new(&inc)
        .run(q3, CardinalityGoal::AtMost(10))
        .expect("bounded");
    let reference = BoundedMcs::new(&off)
        .run(q3, CardinalityGoal::AtMost(10))
        .expect("bounded");
    assert_same_subgraph(&on, &reference);
    let warm = BoundedMcs::new(&inc)
        .run(q3, CardinalityGoal::AtMost(10))
        .expect("bounded");
    assert_same_subgraph(&warm, &reference);
}

/// A step-starved relax run trips mid-search; whatever partial unit
/// results it produced must never be cached, so a later unconstrained
/// run on the same database still matches the cache-off reference.
///
/// The statistics lookups that rank candidates charge the same budget as
/// the candidate counts, so a small step budget mostly trips before the
/// first execution. LDBC QUERY 4 (hard) executes one empty candidate and
/// trips before its second at every budget up to 5,000 steps.
#[test]
fn budget_tripped_relax_does_not_poison_the_cache() {
    let (inc, off) = db_pair();
    let q = &ldbc_hard_failing_queries()[3];

    let tripped = CoarseRewriter::new(&inc).rewrite_guided(
        q,
        &RelaxConfig::default(),
        None,
        &HashSet::new(),
        &Budget::steps(2000),
    );
    assert_ne!(
        tripped.termination,
        Termination::Complete,
        "2,000 steps must trip mid-relax (executed {})",
        tripped.executed
    );
    assert!(tripped.executed > 0, "the trip must come mid-relax");

    let after = CoarseRewriter::new(&inc).rewrite(q, &RelaxConfig::default());
    let reference = CoarseRewriter::new(&off).rewrite(q, &RelaxConfig::default());
    assert_same_outcome(&after, &reference);
}

/// The MCS twin: a budget trip mid-traversal leaves no truncated
/// cardinalities behind for the complete re-run to replay.
///
/// The VM ticks once per accepted candidate and charges the budget every
/// [`CHECK_INTERVAL`] ticks, so a zero-step budget trips the first prefix
/// count that reaches `CHECK_INTERVAL` candidates. Every path of
/// `(a)-[:knows]->(b)` starts at an unconstrained seed with more than
/// `CHECK_INTERVAL` matches (asserted below), which BOUNDEDMCS counts up
/// to the goal's cap `CHECK_INTERVAL + 1`: the trip is certain, and the
/// truncated seed count it leaves behind would fail the goal the full
/// count meets.
#[test]
fn budget_tripped_mcs_does_not_poison_the_cache() {
    let (inc, off) = db_pair();
    let q = QueryBuilder::new("any knows")
        .vertex("a", [])
        .vertex("b", [])
        .edge("a", "b", "knows")
        .build();
    let interval = u64::from(CHECK_INTERVAL);
    let seed = QueryBuilder::new("any").vertex("a", []).build();
    assert!(off.session().count(&seed).unwrap() > interval);
    let goal = CardinalityGoal::AtLeast(interval);

    let tripped = BoundedMcs::new(&inc)
        .run_with(&q, goal, &inc.session(), &Budget::steps(0))
        .expect("bounded");
    assert_ne!(tripped.termination, Termination::Complete);

    let after = BoundedMcs::new(&inc).run(&q, goal).expect("bounded");
    let reference = BoundedMcs::new(&off).run(&q, goal).expect("bounded");
    assert_eq!(reference.termination, Termination::Complete);
    assert_eq!(reference.mcs.num_vertices(), 1);
    assert_same_subgraph(&after, &reference);
}
