//! The explicit plan IR between the greedy planner and the bytecode VM.
//!
//! [`crate::compile::build_plans_est`] produces one [`ComponentPlan`] per
//! weakly connected query component — a list of *what to bind in which
//! order*. This module lowers each plan step into exactly one scan node
//! ([`IrNode::SeedScan`], [`IrNode::ExpandRun`], [`IrNode::CloseRun`]) that
//! produces candidate elements, tests them against its inline
//! [`FilterTest`] list and commits each accepted candidate to the register
//! file (the scratch slot arrays) itself; a final [`IrNode::Emit`] yields
//! the complete assignment. The IR is therefore already in the form the
//! VM runs: one instruction per plan step, plus `Emit`.
//!
//! [`lower`] emits only the tests that can reject a candidate (a vertex's
//! compiled predicates when it has any, an edge's attribute predicates
//! when it has any); an edge's type disjunction is not a test at all —
//! the VM walks only the admissible per-type CSR runs of an edge whose
//! compiled form has one. Seed scans start from [`SeedSpec::FullScan`];
//! the one optimizer pass, [`crate::optimize::seed_select`], swaps in a
//! cheaper index-backed source. A plan that starts at an edge
//! ([`Step::SeedEdge`]) lowers to an [`IrNode::EdgeSeed`] drawing from
//! the edge type's list ([`SeedSpec::TypeEdges`]).
//!
//! Seed and expansion scans carry the selectivity estimate the planner
//! ordered by ([`crate::compile::estimate_candidates`], threaded through
//! [`crate::compile::build_plans_est`]); the seed-selection pass refines
//! the seed's when it finds a cheaper candidate source.
//!
//! Structural invariants of the IR are specified and enforced by
//! [`crate::verify::verify_ir`]; the instruction encoding the IR compiles
//! into lives in [`crate::vm`]. The full node set, invariants and a worked
//! lowering example are documented in `docs/plan-ir.md`.

use crate::compile::{Compiled, ComponentPlan, Step};
use whyq_graph::{Symbol, Value};
use whyq_query::{QEid, QVid};

/// Where a seed scan draws its candidate vertices from, or an edge seed
/// its candidate edges.
///
/// The four vertex sources enumerate candidates in ascending
/// [`whyq_graph::VertexId`] order: index buckets are built by an
/// ascending arena scan, and unions and intersections of ascending lists
/// are kept ascending. Seed-source choice therefore never perturbs result
/// order — only how many candidates the scan has to reject. The edge
/// source lists its edges by ascending seed vertex too, each vertex's run
/// in arena order.
#[derive(Debug, Clone, PartialEq)]
pub enum SeedSpec {
    /// Scan the whole vertex arena.
    FullScan,
    /// Stream one bucket of the `index`-th attached attribute index
    /// (the bucket keyed by `key`).
    Bucket {
        /// Position of the index in the matcher's attached-index list.
        index: usize,
        /// The probe value selecting the bucket.
        key: Value,
    },
    /// The sorted, deduplicated union of several buckets of one index —
    /// a multi-value disjunction (`OneOf`) on the indexed attribute.
    Union {
        /// Position of the index in the matcher's attached-index list.
        index: usize,
        /// The disjunction's probe values.
        keys: Vec<Value>,
    },
    /// The intersection of two or more point-probe buckets, possibly on
    /// different indexes — every candidate must appear in all of them.
    /// Produced only by the seed-selection pass when several indexed
    /// equality predicates constrain one seed vertex; never wider than
    /// the smallest probe's bucket.
    Intersect {
        /// `(index position, probe value)` pairs, smallest bucket first.
        probes: Vec<(usize, Value)>,
    },
    /// The edges of one type in one direction of the sealed CSR
    /// ([`whyq_graph::CsrTopology::type_edges`]) — the source of an
    /// [`IrNode::EdgeSeed`], and of no seed scan.
    TypeEdges {
        /// The edge type.
        ty: Symbol,
        /// The out arena's list (the seed vertex is each edge's source)
        /// or the in arena's (its target).
        outgoing: bool,
    },
}

/// One predicate test a scan applies to its current candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterTest {
    /// All compiled predicates of a query vertex against the candidate
    /// vertex.
    VertexPreds(QVid),
    /// The compiled attribute predicates of a query edge against the
    /// candidate edge's attributes.
    EdgeAttrs(QEid),
}

/// One node of a component's lowered plan.
#[derive(Debug, Clone, PartialEq)]
pub enum IrNode {
    /// Produce seed candidates for the component's first vertex and bind
    /// each accepted one.
    SeedScan {
        /// Query vertex the scan produces candidates for.
        vertex: QVid,
        /// Candidate source.
        spec: SeedSpec,
        /// Planner selectivity estimate for `vertex`.
        est: u64,
        /// Tests applied in order before a candidate is accepted.
        filters: Vec<FilterTest>,
    },
    /// Traverse a query edge from the bound `from` endpoint, producing
    /// and binding `(edge, to)` candidate pairs.
    ExpandRun {
        /// Query edge being traversed.
        edge: QEid,
        /// Already-bound endpoint the traversal leaves.
        from: QVid,
        /// Endpoint the traversal reaches.
        to: QVid,
        /// Planner selectivity estimate for `to`.
        est: u64,
        /// Tests applied in order before a candidate is accepted.
        filters: Vec<FilterTest>,
    },
    /// Produce the edges of a [`SeedSpec::TypeEdges`] list and bind each
    /// accepted one with both its endpoints: the first node of a
    /// component planned with [`Step::SeedEdge`].
    EdgeSeed {
        /// Query edge being bound.
        edge: QEid,
        /// Endpoint bound to each list edge's seed vertex.
        from: QVid,
        /// Endpoint bound to its other vertex.
        to: QVid,
        /// Candidate source: always [`SeedSpec::TypeEdges`].
        spec: SeedSpec,
        /// Tests of the seed vertex, applied once per run of edges
        /// sharing it.
        near: Vec<FilterTest>,
        /// Tests of the edge and of `to`, in order.
        filters: Vec<FilterTest>,
    },
    /// Bind a query edge whose endpoints are both already bound,
    /// producing candidate edges between the two mapped data vertices.
    CloseRun {
        /// Query edge being closed.
        edge: QEid,
        /// Tests applied in order before a candidate is accepted.
        filters: Vec<FilterTest>,
    },
    /// Yield the complete component assignment. Always the last node.
    Emit,
}

/// The lowered plan of one weakly connected query component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentIr {
    /// Nodes in execution order: one scan per plan step, the first a
    /// [`IrNode::SeedScan`] or [`IrNode::EdgeSeed`], then
    /// [`IrNode::Emit`].
    pub nodes: Vec<IrNode>,
    /// The component's seed vertex (copied out of the first node for
    /// cheap access).
    pub seed_vertex: QVid,
}

/// The lowered plan of a whole query: one [`ComponentIr`] per weakly
/// connected component, in plan order. Empty exactly when the query is
/// unsatisfiable or has no vertices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanIr {
    /// Per-component lowered plans.
    pub components: Vec<ComponentIr>,
}

/// Lower `plans` into the IR the VM runs.
///
/// Each [`Step`] becomes one scan node whose inline tests follow the
/// engine's canonical order — edge attributes, then vertex predicates —
/// and appear only when they can reject a candidate: `EdgeAttrs` when the
/// compiled edge needs edge data, `VertexPreds` when the vertex compiled
/// to at least one predicate. `est` are the planner's selectivity
/// estimates from [`crate::compile::build_plans_est`], indexed by `QVid`
/// slot. The result always passes [`crate::verify::verify_ir`].
pub fn lower(compiled: &Compiled, plans: &[ComponentPlan], est: &[u64]) -> PlanIr {
    let est_of = |v: QVid| est.get(v.0 as usize).copied().unwrap_or(0);
    let vertex_test =
        |v: QVid| (!compiled.vertex(v).preds.is_empty()).then_some(FilterTest::VertexPreds(v));
    let edge_test = |e: QEid| {
        compiled
            .edge(e)
            .needs_edge_data()
            .then_some(FilterTest::EdgeAttrs(e))
    };
    let components = plans
        .iter()
        .map(|plan| {
            let mut nodes = Vec::with_capacity(plan.steps.len() + 1);
            for step in &plan.steps {
                nodes.push(match *step {
                    Step::Seed { vertex } => IrNode::SeedScan {
                        vertex,
                        spec: SeedSpec::FullScan,
                        est: est_of(vertex),
                        filters: vertex_test(vertex).into_iter().collect(),
                    },
                    Step::ExpandNew { edge, from, to } => IrNode::ExpandRun {
                        edge,
                        from,
                        to,
                        est: est_of(to),
                        filters: edge_test(edge).into_iter().chain(vertex_test(to)).collect(),
                    },
                    Step::Close { edge } => IrNode::CloseRun {
                        edge,
                        filters: edge_test(edge).into_iter().collect(),
                    },
                    Step::SeedEdge {
                        edge,
                        from,
                        to,
                        outgoing,
                    } => IrNode::EdgeSeed {
                        edge,
                        from,
                        to,
                        spec: SeedSpec::TypeEdges {
                            ty: compiled.edge(edge).types.as_ref().expect("typed")[0],
                            outgoing,
                        },
                        near: vertex_test(from).into_iter().collect(),
                        filters: edge_test(edge).into_iter().chain(vertex_test(to)).collect(),
                    },
                });
            }
            nodes.push(IrNode::Emit);
            ComponentIr {
                nodes,
                seed_vertex: plan.seed_vertex(),
            }
        })
        .collect();
    PlanIr { components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{build_plans_est, build_plans_with, Compiled};
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QueryBuilder};

    #[test]
    fn lowering_is_one_scan_per_step_with_live_tests_only() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let b = g.add_vertex([]);
        g.add_edge(a, b, "knows", []);
        g.seal();
        // "b" is unconstrained and the edge has no attribute predicates:
        // neither gets a test
        let q = QueryBuilder::new("q")
            .vertex("a", [Predicate::eq("type", "person")])
            .vertex("b", [])
            .edge("a", "b", "knows")
            .build();
        let compiled = Compiled::new(&g, &q);
        let a = q.vertex_ids().next().unwrap();
        // seeded at a vertex: the seed scan tests "a", the expansion nothing
        let (plans, est) = build_plans_with(&g, &q, &compiled, &[], false);
        let ir = lower(&compiled, &plans, &est);
        assert_eq!(ir.components.len(), 1);
        let nodes = &ir.components[0].nodes;
        assert_eq!(nodes.len(), plans[0].steps.len() + 1);
        assert!(matches!(
            &nodes[0],
            IrNode::SeedScan {
                spec: SeedSpec::FullScan,
                ..
            }
        ));
        assert!(matches!(nodes.last(), Some(IrNode::Emit)));
        let tests: Vec<FilterTest> = nodes
            .iter()
            .flat_map(|n| match n {
                IrNode::SeedScan { filters, .. }
                | IrNode::ExpandRun { filters, .. }
                | IrNode::CloseRun { filters, .. } => filters.clone(),
                IrNode::EdgeSeed { near, filters, .. } => [&near[..], filters].concat(),
                IrNode::Emit => Vec::new(),
            })
            .collect();
        assert_eq!(tests, vec![FilterTest::VertexPreds(a)]);
        crate::verify::verify_ir(&q, &compiled, &ir, 0).unwrap();
        // seeded at the edge (one entry against two vertices): one node
        // binds all three elements and tests "a" as its seed vertex
        let (plans, est) = build_plans_est(&g, &q, &compiled, &[]);
        let ir = lower(&compiled, &plans, &est);
        let knows = g.type_symbol("knows").unwrap();
        assert_eq!(
            ir.components[0].nodes,
            vec![
                IrNode::EdgeSeed {
                    edge: q.edge_ids().next().unwrap(),
                    from: a,
                    to: QVid(1),
                    spec: SeedSpec::TypeEdges {
                        ty: knows,
                        outgoing: true
                    },
                    near: vec![FilterTest::VertexPreds(a)],
                    filters: Vec::new(),
                },
                IrNode::Emit
            ]
        );
        crate::verify::verify_ir(&q, &compiled, &ir, 0).unwrap();
    }
}
