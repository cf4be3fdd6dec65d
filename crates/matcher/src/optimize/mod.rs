//! The optimizer over the plan IR.
//!
//! [`crate::plan_ir::lower`] already emits the form the VM runs — one
//! scan per plan step, its tests inline — so one pass is left:
//! [`seed_select`], index-aware seed selection. It replaces a seed scan's
//! full-arena source with the cheapest option the attached attribute
//! indexes support — a single bucket, a union of buckets, or the
//! intersection of several point probes — going beyond the planner's
//! greedy estimate-only choice.
//!
//! The pass rewrites only *where* seed candidates come from, never the
//! binding order or the tests that gate a binding, so both settings of
//! [`PassSet::seed_select`] are result-equivalent (enforced by
//! `tests/optimizer_props.rs`). [`optimize`] re-verifies its output with
//! [`crate::verify::verify_ir`] in debug builds.

mod seed_select;

pub use seed_select::seed_select;

use crate::compile::Compiled;
use crate::index::AttrIndex;
use crate::plan_ir::PlanIr;
use whyq_graph::PropertyGraph;
use whyq_query::PatternQuery;

/// Which planner and optimizer passes to run. [`Default`] enables both;
/// the tests switch them off to reach full-scan seeding of an indexed
/// vertex, or the vertex-seeded plan of a walk that starts at an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSet {
    /// Replace seed full-scans with index bucket / union / intersection
    /// sources.
    pub seed_select: bool,
    /// Let the planner start a component at one typed edge
    /// ([`crate::compile::Step::SeedEdge`]) where its list is the cheaper
    /// seed ([`crate::compile::build_plans_with`]).
    pub edge_seed: bool,
}

impl Default for PassSet {
    fn default() -> Self {
        PassSet {
            seed_select: true,
            edge_seed: true,
        }
    }
}

/// Run the enabled passes over `ir`.
///
/// In debug builds the result is verified with
/// [`crate::verify::verify_ir`]; a violation is a bug in the lowering or
/// a pass, so this panics rather than returning an error.
pub fn optimize(
    ir: &mut PlanIr,
    g: &PropertyGraph,
    q: &PatternQuery,
    compiled: &Compiled,
    indexes: &[std::sync::Arc<AttrIndex>],
    passes: PassSet,
) {
    if passes.seed_select {
        seed_select(ir, g, q, indexes);
    }
    if cfg!(debug_assertions) {
        if let Err(e) = crate::verify::verify_ir(q, compiled, ir, indexes.len()) {
            panic!("optimized IR violates invariants: {e}");
        }
    }
}
