//! # whyq-core — the why-query engine
//!
//! The primary contribution of *"Why-Query Support in Graph Databases"*
//! (Vasilyeva, 2016): debugging support for pattern-matching queries that
//! deliver **no**, **too few**, or **too many** answers over property
//! graphs. Two explanation families are produced:
//!
//! * **Subgraph-based explanations** (Ch. 4) — *why did the query fail?*
//!   The query graph is traversed edge by edge while the traversed
//!   prefix is counted; the largest succeeding subquery (the maximum common
//!   connected subgraph between query and data) is detected by
//!   [`subgraph::discover::DiscoverMcs`] (why-empty) and
//!   [`subgraph::bounded::BoundedMcs`] (why-so-few / why-so-many), and the
//!   *differential graph* — the failed query part — is returned. The
//!   optimizations of §4.3 (weakly-connected-component decomposition,
//!   single-traversal-path selection) and the user-centric traversal of
//!   §4.4 are implemented in [`subgraph::traversal`] and [`user`].
//!
//! * **Modification-based explanations** — *how should the query change?*
//!   [`relax::CoarseRewriter`] (Ch. 5) relaxes why-empty queries by
//!   discarding predicates and topology, driven by query-dependent
//!   statistics ([`stats::Statistics`]), candidate priority functions
//!   ([`relax::priority`]) and a query cache ([`relax::cache`]).
//!   [`fine::TraverseSearchTree`] (Ch. 6) performs fine-grained,
//!   cardinality-driven modification on the predicate-value level with a
//!   modification tree, change propagation and discarding of
//!   non-contributing branches. Both rewriters, and the §6.4.1
//!   breadth-first baseline, are best-first searches over one
//!   crate-private frontier: the relax loop ranks a candidate when it is
//!   popped, TRAVERSESEARCHTREE counts a child when it is generated.
//!
//! [`engine::WhyEngine`] ties everything together and provides the holistic
//! dispatch of §3.1.3: given a cardinality goal it decides which why-query
//! to run and lets the search oscillate around the threshold (Fig. 3.1).
//!
//! ## Entry point: the `Database` facade
//!
//! Everything in this crate is driven through the `whyq-session` facade
//! (re-exported here): open a [`Database`] over an owned
//! [`whyq_graph::PropertyGraph`] — that seals the topology and builds the
//! configured attribute indexes — then construct the engine from it. All
//! engine entry points return `Result<_, `[`WhyqError`]`>`, and every
//! cardinality measurement (the engine's, the rewriters', the statistics
//! provider's) flows through the database's shared plan cache, so the
//! relax loop's hundreds of sibling candidates compile once per distinct
//! query signature.
//!
//! ```
//! use whyq_core::{CardinalityGoal, WhyEngine};
//! use whyq_graph::{PropertyGraph, Value};
//! use whyq_query::{Predicate, QueryBuilder};
//! use whyq_session::Database;
//!
//! let mut g = PropertyGraph::new();
//! let p = g.add_vertex([("type", Value::str("person"))]);
//! let c = g.add_vertex([("type", Value::str("city")), ("name", Value::str("Dresden"))]);
//! g.add_edge(p, c, "livesIn", []);
//!
//! let db = Database::open(g)?;
//! let engine = WhyEngine::new(&db);
//! let q = QueryBuilder::new("berlin")
//!     .vertex("p", [Predicate::eq("type", "person")])
//!     .vertex("c", [Predicate::eq("type", "city"), Predicate::eq("name", "Berlin")])
//!     .edge("p", "c", "livesIn")
//!     .build();
//! let diagnosis = engine.diagnose(&q, CardinalityGoal::NonEmpty)?;
//! assert_eq!(diagnosis.cardinality, 0);
//! # Ok::<(), whyq_session::WhyqError>(())
//! ```

// The whole workspace is unsafe-free (audited 2026-08): lock it in.
#![forbid(unsafe_code)]
// Every public item documents itself; CI's docs lane denies this warning.
#![warn(missing_docs)]

pub mod engine;
pub mod explanation;
pub mod fine;
pub mod problem;
pub mod relax;
mod search;
pub mod stats;
pub mod subgraph;
pub mod user;

pub use engine::WhyEngine;
pub use explanation::{DifferentialGraph, ModificationExplanation, SubgraphExplanation};
pub use problem::{CardinalityGoal, WhyProblem};
pub use whyq_session::{
    Budget, CacheStats, CancelToken, Database, DatabaseConfig, Governed, PreparedQuery, Session,
    Termination, WhyqError,
};
