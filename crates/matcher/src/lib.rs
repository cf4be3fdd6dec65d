//! # whyq-matcher — pattern matching over property graphs
//!
//! Evaluates [`whyq_query::PatternQuery`] against a
//! [`whyq_graph::PropertyGraph`]: finds the data subgraphs matching the
//! query (the *result graphs* of Def. 6, §3.2.4), counts them with early
//! termination, or streams them lazily.
//!
//! Matching semantics (§3.1.2):
//!
//! * a result graph maps query vertices to data vertices and query edges to
//!   data edges;
//! * the mapping honors every vertex/edge predicate, the edge-type
//!   disjunction and the admissible direction set of every query edge;
//! * within one weakly connected query component the mapping is
//!   **injective** on vertices and edges (subgraph-isomorphism style;
//!   homomorphic matching is available through [`MatchOptions`]);
//! * unconnected query components are matched independently and combined as
//!   a cartesian product (§4.3.3) — cardinalities multiply.
//!
//! ## Execution model
//!
//! [`Matcher`] is the execution core: it owns a reusable scratch arena and
//! any number of shared attribute indexes ([`AttrIndex`], `Arc`-shared so
//! one database's indexes serve every session). A query is compiled
//! against the graph's name/value dictionaries and planned ([`compile`]),
//! lowered to the plan IR ([`plan_ir`]), optimized ([`mod@optimize`]) and
//! encoded into bytecode that one VM executes ([`vm`]) — the only engine;
//! the brute-force [`mod@reference`] matcher is the single oracle the test
//! suites compare it with. Compilation is exposed separately
//! ([`Matcher::compile_full`] + [`Matcher::find_compiled`] /
//! [`Matcher::count_compiled`] / [`MatchStream::over`]) so the
//! `whyq-session` facade can memoize programs by query signature and skip
//! it entirely on repeat queries.
//!
//! **Most callers should not drive this crate directly**: open a
//! `whyq_session::Database`, take a `Session` and use
//! `session.prepare(&q)?` — prepared queries add plan caching, configured
//! indexes and a `Result`-based error surface on top of the same engine.
//!
//! Result enumeration comes in two shapes: eager ([`Matcher::find`],
//! returning a `Vec`) and lazy ([`Matcher::stream`], the same VM
//! suspended between results, which yields [`ResultGraph`]s one at a
//! time without materializing the result set — see
//! [`stream::MatchStream`]).
//!
//! ## Work model
//!
//! Execution decomposes into component × seed-subrange [`WorkUnit`]s
//! ([`work`]): each weakly connected component over each slice of its
//! [`SeedList`] is independently executable ([`Matcher::find_unit`] /
//! [`Matcher::count_unit`]) against any matcher's private scratch arena,
//! and per-component partial bindings are merged by the standalone
//! cartesian combiner ([`combine`]). [`Matcher::find_compiled`] /
//! [`Matcher::count_compiled`] and the `whyq-session` component loop are
//! built on exactly these pieces — serial evaluation is the
//! one-unit-per-component case, `find_par`/`count_par` shard the large
//! components.
//!
//! The why-query algorithms (DISCOVERMCS, BOUNDEDMCS, the fine rewriter)
//! run on this engine too: each traversed prefix is one governed count of
//! a subquery through a `whyq_session::Session`.

// The whole workspace is unsafe-free (audited 2026-08): lock it in.
#![forbid(unsafe_code)]
// Every public item documents itself; CI's docs lane denies this warning.
#![warn(missing_docs)]

pub mod budget;
pub mod combine;
pub mod compile;
pub mod derive;
pub mod engine;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod index;
pub mod optimize;
pub mod plan_ir;
pub mod reference;
pub mod result;
pub mod stream;
pub mod verify;
pub mod vm;
pub mod work;

pub use budget::{Budget, CancelToken, Termination};
pub use combine::{combine_components, FactorOdometer};
pub use derive::derive_sibling;
pub use engine::{CompiledQuery, MatchOptions, Matcher};
pub use index::AttrIndex;
pub use optimize::{optimize, PassSet};
pub use plan_ir::{lower, PlanIr};
pub use reference::{count_matches_naive, find_matches_naive};
pub use result::ResultGraph;
pub use stream::MatchStream;
pub use verify::{verify_ir, verify_plans};
pub use vm::QueryProgram;
pub use work::{split_ranges, SeedList, WorkUnit};
