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
//!
//! Every prefix count charges the budget handed to `run_with`. A tripped
//! count, only a lower bound, ends its path without a crossing edge.

pub mod bounded;
pub mod discover;
pub mod traversal;

pub use bounded::BoundedMcs;
pub use discover::DiscoverMcs;
pub use traversal::{PathStrategy, TraversalPath};

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
}

impl Default for McsConfig {
    fn default() -> Self {
        McsConfig {
            strategy: PathStrategy::Exhaustive,
            decompose: true,
            max_paths: 64,
        }
    }
}
