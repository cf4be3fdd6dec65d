//! # whyq-datagen — evaluation workloads
//!
//! The thesis evaluates on two data sets (Appendix A): the LDBC social
//! network benchmark (SF1) with four pattern queries (Table A.1) and a
//! DBPEDIA extract with heterogeneous entities. Both are substituted here
//! by **seeded generators** that reproduce the *shape* properties the
//! evaluation depends on — schema structure, degree skew, and predicate
//! selectivities — at laptop scale (see ARCHITECTURE.md § Reproduction
//! for the substitution rationale).
//!
//! * [`ldbc`] — LDBC-SNB-like social network: persons, cities, countries,
//!   universities, companies, tags, forums, posts, comments, with the SNB
//!   relationship types; plus analogues of LDBC QUERY 1–4.
//! * [`dbpedia`] — DBpedia-like heterogeneous knowledge graph with a
//!   long-tailed degree distribution; plus three evaluation queries.
//! * [`mutation`] — the random explanation generator of the §3.2.5 metric
//!   study: seeded pools of modified queries at 1–3 modification levels.

// The whole workspace is unsafe-free (audited 2026-08): lock it in.
#![forbid(unsafe_code)]

pub mod dbpedia;
pub mod ldbc;
pub mod mutation;

pub use dbpedia::{dbpedia_failing_queries, dbpedia_graph, dbpedia_queries, DbpediaConfig};
pub use ldbc::{
    ldbc_failing_queries, ldbc_graph, ldbc_hard_failing_queries, ldbc_path_query, ldbc_queries,
    LdbcConfig,
};
pub use mutation::{random_explanations, MutationConfig};
