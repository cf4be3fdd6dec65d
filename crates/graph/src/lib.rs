//! # whyq-graph — property-graph substrate
//!
//! Implements the property-graph model of Definition 1 (§3.1.1) of
//! *"Why-Query Support in Graph Databases"* (Vasilyeva, 2016):
//! a directed multigraph `G = (V, E, u, f, g, A_V, A_E)` where
//!
//! * `V`, `E` are finite sets of vertices and edges,
//! * `u : E → V²` maps every edge to an ordered pair of endpoint vertices,
//! * `f : V → A_V` and `g : E → A_E` attach attribute values
//!   (key/value pairs) to vertices and edges, and
//! * every edge additionally carries a *type* (a distinguished attribute
//!   that predicates treat specially, §3.2.2).
//!
//! The store is an in-memory arena: vertices and edges are dense `u32`
//! indices, attribute names and edge types are interned symbols, and
//! adjacency lives in two phases — per-vertex in/out edge lists while the
//! graph is being **built**, and a cache-dense compressed-sparse-row arena
//! ([`CsrTopology`]) once it is **sealed** (see [`graph`] for the full
//! lifecycle). This is the substrate every other crate of the workspace
//! builds on — the pattern matcher (`whyq-matcher`), the why-query engine
//! (`whyq-core`) and the workload generators (`whyq-datagen`).

// The whole workspace is unsafe-free (audited 2026-08): lock it in.
#![forbid(unsafe_code)]
// Every public item documents itself; CI's docs lane denies this warning.
#![warn(missing_docs)]

pub mod algo;
pub mod attrs;
pub mod csr;
pub mod domains;
pub mod error;
pub mod graph;
pub mod interner;
pub mod io;
pub mod stats;
pub mod value;

pub use attrs::AttrMap;
pub use csr::{AdjSlice, CsrTopology, TypeRuns};
pub use error::GraphError;
pub use graph::{EdgeData, EdgeId, PropertyGraph, VertexData, VertexId};
pub use interner::{Interner, Symbol};
pub use io::{read_graph, write_graph};
pub use value::{SymStr, Value};
