//! # whyquery — why-query support for graph databases
//!
//! Facade crate re-exporting the whole workspace: a property-graph store,
//! the `Database`/`Session`/`PreparedQuery` query facade, a
//! predicate-aware pattern matcher, explanation-comparison metrics and the
//! why-query engine (subgraph-based and modification-based explanations
//! for empty, too-few and too-many answers), seeded workload generators,
//! and the `whyqd` network serving layer (admission control,
//! same-signature batching, SLO budgets — see `docs/wire-protocol.md`).
//!
//! Reproduces *"Why-Query Support in Graph Databases"* (E. Vasilyeva,
//! TU Dresden, 2016). `ARCHITECTURE.md` at the repository root documents
//! the whole pipeline stage by stage (parse → analyze → lower → optimize
//! → bytecode → execute → relax loop), the crate map, and the
//! budget/termination semantics; `docs/plan-ir.md` specifies the plan IR
//! and bytecode instruction set.
//!
//! ## Quick start
//!
//! Build a graph, open it as a [`session::Database`] (which seals the
//! topology and builds the configured indexes), take a [`session::Session`]
//! and prepare queries — prepared queries compile once, cache their plans,
//! and expose eager (`find`/`count`) and lazy (`stream`) execution:
//!
//! ```
//! use whyquery::prelude::*;
//!
//! // a tiny data graph
//! let mut g = PropertyGraph::new();
//! let anna = g.add_vertex([("type", Value::str("person")), ("name", Value::str("Anna"))]);
//! let tud = g.add_vertex([("type", Value::str("university"))]);
//! g.add_edge(anna, tud, "workAt", [("sinceYear", Value::Int(2003))]);
//!
//! let db = Database::open(g)?;
//! let session = db.session();
//!
//! // a pattern query that can never match (wrong year)
//! let q = QueryBuilder::new("who-works-since-2005")
//!     .vertex("p", [Predicate::eq("type", "person")])
//!     .vertex("u", [Predicate::eq("type", "university")])
//!     .edge_full("p", "u", "workAt", DirectionSet::FORWARD,
//!                [Predicate::eq("sinceYear", 2005)])
//!     .build();
//!
//! let prepared = session.prepare(&q)?;
//! assert_eq!(prepared.count()?, 0);
//! assert!(prepared.stream().next().is_none()); // lazy: no result set built
//!
//! // ask the why-query engine what went wrong
//! let engine = WhyEngine::new(&db);
//! let explanation = engine.why_empty(&q)?;
//! assert!(explanation.differential.edge_ids().count() > 0);
//! # Ok::<(), WhyqError>(())
//! ```

// The whole workspace is unsafe-free (audited 2026-08): lock it in.
#![forbid(unsafe_code)]

pub use whyq_core as core;
pub use whyq_datagen as datagen;
pub use whyq_graph as graph;
pub use whyq_matcher as matcher;
pub use whyq_metrics as metrics;
pub use whyq_query as query;
pub use whyq_server as server;
pub use whyq_session as session;

/// Convenience imports covering the common API surface: the facade
/// (`Database::open` → `session.prepare(&q)`) is the one supported path
/// to the matcher, and the parallel entry points
/// (`prepared.find_par()`/`count_par()`, [`whyq_session::Executor`]) only
/// exist on it.
pub mod prelude {
    pub use whyq_core::engine::WhyEngine;
    pub use whyq_core::problem::{CardinalityGoal, WhyProblem};
    pub use whyq_graph::{PropertyGraph, Value};
    pub use whyq_matcher::MatchOptions;
    pub use whyq_query::{
        DirectionSet, GraphMod, Interval, PatternQuery, Predicate, QueryBuilder, Target,
    };
    pub use whyq_session::{
        Database, DatabaseConfig, Executor, ParallelOpts, PreparedQuery, Session, WhyqError,
    };
}
