//! Subgraph-based explanations (Ch. 4).
//!
//! *Why did the query deliver an unexpected number of answers?* — answered
//! in terms of the query's own topology: traverse the query graph edge by
//! edge while counting the results of the traversed subquery, find the
//! largest subquery that still behaves as expected (the **maximum common
//! connected subgraph** between query and data, §4.1.1) and report the rest
//! as the **differential graph** (§4.1.2).
//!
//! Both algorithms count each traversed prefix as one governed subquery
//! count on a [`whyq_session::Session`] — the same engine, caches and
//! injectivity semantics as every other query — capped at the smallest
//! count that decides the goal.
//!
//! * [`discover::DiscoverMcs`] — the DISCOVERMCS algorithm for why-empty
//!   queries (§4.2.1);
//! * [`bounded::BoundedMcs`] — the BOUNDEDMCS algorithm for why-so-few and
//!   why-so-many queries (§4.2.2);
//! * [`traversal`] — traversal-path enumeration and the single-path
//!   selection heuristics (§4.3.2, §4.4.2).
//!
//! The §4.3 optimizations are configuration switches on [`McsConfig`]:
//! weakly-connected-component decomposition (§4.3.1), single traversal path
//! (§4.3.2) and unconnected-component handling (§4.3.3).

pub mod bounded;
pub mod discover;
pub mod traversal;

pub use bounded::BoundedMcs;
pub use discover::DiscoverMcs;
pub use traversal::{PathStrategy, TraversalPath};

use whyq_matcher::Budget;

/// Configuration shared by DISCOVERMCS and BOUNDEDMCS.
#[derive(Debug, Clone)]
pub struct McsConfig {
    /// How traversal paths are chosen (§4.3.2 / §4.4.2).
    pub strategy: PathStrategy,
    /// Process weakly connected query components separately (§4.3.1).
    pub decompose: bool,
    /// Cap on the number of traversal paths tried per component in
    /// exhaustive mode.
    pub max_paths: usize,
    /// Resource governor of the run: deadline, step budget and external
    /// cancellation, charged in VM ticks by every prefix count (like any
    /// other governed run). On a trip the traversal stops where it stands and
    /// the explanation assembled from the components finished so far is
    /// returned, tagged with the budget's
    /// [`Termination`](whyq_matcher::Termination) — a degraded answer, not
    /// an error. The budget is single-run state: use a fresh one per
    /// `run()` call.
    pub budget: Budget,
}

impl Default for McsConfig {
    fn default() -> Self {
        McsConfig {
            strategy: PathStrategy::Exhaustive,
            decompose: true,
            max_paths: 64,
            budget: Budget::unlimited(),
        }
    }
}
