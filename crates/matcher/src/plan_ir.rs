//! The explicit plan IR between the greedy planner and the bytecode VM.
//!
//! [`crate::compile::build_plans_est`] produces one [`ComponentPlan`] per
//! weakly connected query component — a list of *what to bind in which
//! order*. This module lowers those plans into a finer representation in
//! which every per-candidate test is an explicit node: scans
//! ([`IrNode::SeedScan`], [`IrNode::ExpandRun`], [`IrNode::CloseRun`])
//! produce candidate elements, [`IrNode::Filter`] nodes test them,
//! [`IrNode::Bind`] nodes commit them to the register file (the scratch
//! slot arrays) and a final [`IrNode::Emit`] yields the complete
//! assignment.
//!
//! The naive lowering produced by [`lower`] is deliberately literal: seed
//! scans read the full vertex arena ([`SeedSpec::FullScan`]), expansion
//! and closing scans walk untyped adjacency, and every predicate —
//! including trivially true ones — is a standalone `Filter` node. That
//! gives the optimizer passes of [`mod@crate::optimize`] something meaningful
//! to do (predicate pushdown, dead-bind elimination, index-aware seed
//! selection), and gives the equivalence test suite a genuinely
//! *unoptimized* baseline to compare each pass against.
//!
//! Every scan node carries the selectivity estimate the planner ordered
//! by ([`crate::compile::estimate_candidates`], threaded through
//! [`crate::compile::build_plans_est`]); the seed-selection pass refines
//! these when it finds a cheaper candidate source.
//!
//! Structural invariants of the IR are specified and enforced by
//! [`crate::verify::verify_ir`]; the instruction encoding the IR compiles
//! into lives in [`crate::vm`]. The full node set, invariants and a worked
//! lowering example are documented in `docs/plan-ir.md`.

use crate::compile::{Compiled, ComponentPlan, Step};
use whyq_graph::Value;
use whyq_query::{QEid, QVid};

/// Where a seed scan draws its candidate vertices from.
///
/// All four sources enumerate candidates in ascending [`whyq_graph::VertexId`]
/// order: index buckets are built by an ascending arena scan, and unions
/// and intersections of ascending lists are kept ascending. Seed-source
/// choice therefore never perturbs result order — only how many
/// candidates the scan has to reject.
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
}

/// One predicate test applied to the current scan candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterTest {
    /// All compiled predicates of a query vertex against the candidate
    /// vertex.
    VertexPreds(QVid),
    /// The compiled type disjunction of a query edge against the candidate
    /// edge's type (only emitted for typed edges scanned untyped — the
    /// pushdown pass turns it into per-type CSR run selection instead).
    EdgeType(QEid),
    /// The compiled attribute predicates of a query edge against the
    /// candidate edge's attributes.
    EdgeAttrs(QEid),
}

/// What a [`IrNode::Bind`] node commits to the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindTarget {
    /// The seed vertex of the component.
    Seed {
        /// Query vertex bound by the seed scan.
        vertex: QVid,
    },
    /// An expansion's edge and newly reached vertex.
    Expansion {
        /// Query edge bound by the expansion.
        edge: QEid,
        /// Query vertex the expansion reaches.
        to: QVid,
    },
    /// A closing edge (both endpoints already bound).
    Closure {
        /// Query edge bound by the close.
        edge: QEid,
    },
}

/// One node of a component's lowered plan.
#[derive(Debug, Clone, PartialEq)]
pub enum IrNode {
    /// Produce seed candidates for the component's first vertex.
    SeedScan {
        /// Query vertex the scan produces candidates for.
        vertex: QVid,
        /// Candidate source.
        spec: SeedSpec,
        /// Planner selectivity estimate for `vertex`.
        est: u64,
        /// Filters fused into the scan loop (pushdown pass), applied in
        /// order before the candidate is accepted.
        filters: Vec<FilterTest>,
        /// When true the scan binds accepted candidates itself (dead-bind
        /// pass); otherwise a separate [`IrNode::Bind`] follows.
        bind: bool,
    },
    /// Traverse a query edge from the bound `from` endpoint, producing
    /// `(edge, to)` candidate pairs.
    ExpandRun {
        /// Query edge being traversed.
        edge: QEid,
        /// Already-bound endpoint the traversal leaves.
        from: QVid,
        /// Endpoint the traversal reaches.
        to: QVid,
        /// When true, the scan walks only the CSR per-type runs admitted
        /// by the compiled type disjunction (pushdown pass); when false it
        /// walks the full adjacency and relies on an
        /// [`FilterTest::EdgeType`] filter.
        typed: bool,
        /// Planner selectivity estimate for `to`.
        est: u64,
        /// Filters fused into the scan loop, applied in order.
        filters: Vec<FilterTest>,
        /// When true the scan binds accepted candidates itself.
        bind: bool,
    },
    /// Bind a query edge whose endpoints are both already bound,
    /// producing candidate edges between the two mapped data vertices.
    CloseRun {
        /// Query edge being closed.
        edge: QEid,
        /// Per-type CSR runs (pushdown) vs. full adjacency + type filter.
        typed: bool,
        /// Filters fused into the scan loop, applied in order.
        filters: Vec<FilterTest>,
        /// When true the scan binds accepted candidates itself.
        bind: bool,
    },
    /// Test the current scan candidate; on failure the owning scan
    /// advances to its next candidate.
    Filter {
        /// The predicate test to apply.
        test: FilterTest,
    },
    /// Commit the current scan candidate to the register file (checking
    /// occupancy first in injective mode).
    Bind {
        /// What to bind.
        target: BindTarget,
    },
    /// Yield the complete component assignment. Always the last node.
    Emit,
}

/// The lowered plan of one weakly connected query component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentIr {
    /// Nodes in execution order; the first is always a
    /// [`IrNode::SeedScan`], the last an [`IrNode::Emit`].
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

/// Lower `plans` into the naive (unoptimized) IR.
///
/// Each [`Step`] becomes one scan node followed by its standalone filter
/// and bind nodes, in the engine's canonical test order (edge type, edge
/// attributes, vertex predicates); `est` are the planner's selectivity
/// estimates from [`crate::compile::build_plans_est`], indexed by `QVid`
/// slot. The result always passes [`crate::verify::verify_ir`].
pub fn lower(compiled: &Compiled, plans: &[ComponentPlan], est: &[u64]) -> PlanIr {
    let est_of = |v: QVid| est.get(v.0 as usize).copied().unwrap_or(0);
    let mut components = Vec::with_capacity(plans.len());
    for plan in plans {
        let mut nodes = Vec::new();
        for step in &plan.steps {
            match *step {
                Step::Seed { vertex } => {
                    nodes.push(IrNode::SeedScan {
                        vertex,
                        spec: SeedSpec::FullScan,
                        est: est_of(vertex),
                        filters: Vec::new(),
                        bind: false,
                    });
                    nodes.push(IrNode::Filter {
                        test: FilterTest::VertexPreds(vertex),
                    });
                    nodes.push(IrNode::Bind {
                        target: BindTarget::Seed { vertex },
                    });
                }
                Step::ExpandNew { edge, from, to } => {
                    nodes.push(IrNode::ExpandRun {
                        edge,
                        from,
                        to,
                        typed: false,
                        est: est_of(to),
                        filters: Vec::new(),
                        bind: false,
                    });
                    if compiled.edge(edge).types.is_some() {
                        nodes.push(IrNode::Filter {
                            test: FilterTest::EdgeType(edge),
                        });
                    }
                    nodes.push(IrNode::Filter {
                        test: FilterTest::EdgeAttrs(edge),
                    });
                    nodes.push(IrNode::Filter {
                        test: FilterTest::VertexPreds(to),
                    });
                    nodes.push(IrNode::Bind {
                        target: BindTarget::Expansion { edge, to },
                    });
                }
                Step::Close { edge } => {
                    nodes.push(IrNode::CloseRun {
                        edge,
                        typed: false,
                        filters: Vec::new(),
                        bind: false,
                    });
                    if compiled.edge(edge).types.is_some() {
                        nodes.push(IrNode::Filter {
                            test: FilterTest::EdgeType(edge),
                        });
                    }
                    nodes.push(IrNode::Filter {
                        test: FilterTest::EdgeAttrs(edge),
                    });
                    nodes.push(IrNode::Bind {
                        target: BindTarget::Closure { edge },
                    });
                }
            }
        }
        nodes.push(IrNode::Emit);
        components.push(ComponentIr {
            nodes,
            seed_vertex: plan.seed_vertex(),
        });
    }
    PlanIr { components }
}

impl IrNode {
    /// True for the three candidate-producing nodes.
    pub fn is_scan(&self) -> bool {
        matches!(
            self,
            IrNode::SeedScan { .. } | IrNode::ExpandRun { .. } | IrNode::CloseRun { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{build_plans_est, Compiled};
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::{Predicate, QueryBuilder};

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let b = g.add_vertex([("type", Value::str("person"))]);
        let c = g.add_vertex([("type", Value::str("city"))]);
        g.add_edge(a, b, "knows", []);
        g.add_edge(a, c, "livesIn", []);
        g.seal();
        g
    }

    #[test]
    fn lowering_is_literal_and_verified() {
        let g = graph();
        let q = QueryBuilder::new("q")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .edge("p1", "p2", "knows")
            .build();
        let compiled = Compiled::new(&g, &q);
        let (plans, est) = build_plans_est(&g, &q, &compiled, &[]);
        let ir = lower(&compiled, &plans, &est);
        assert_eq!(ir.components.len(), 1);
        let nodes = &ir.components[0].nodes;
        // Seed + VertexPreds + Bind, Expand + EdgeType + EdgeAttrs +
        // VertexPreds + Bind, Emit
        assert!(matches!(
            nodes[0],
            IrNode::SeedScan {
                spec: SeedSpec::FullScan,
                bind: false,
                ..
            }
        ));
        assert!(matches!(nodes.last(), Some(IrNode::Emit)));
        let filters = nodes
            .iter()
            .filter(|n| matches!(n, IrNode::Filter { .. }))
            .count();
        assert_eq!(filters, 4);
        crate::verify::verify_ir(&q, &compiled, &ir, 0).unwrap();
    }

    #[test]
    fn untyped_edges_get_no_type_filter() {
        let g = graph();
        let mut q = whyq_query::PatternQuery::new();
        let x = q.add_vertex(whyq_query::QueryVertex::any());
        let y = q.add_vertex(whyq_query::QueryVertex::any());
        let mut e = whyq_query::QueryEdge::typed(x, y, "knows");
        e.types.clear(); // any type
        q.add_edge(e);
        let compiled = Compiled::new(&g, &q);
        let (plans, est) = build_plans_est(&g, &q, &compiled, &[]);
        let ir = lower(&compiled, &plans, &est);
        assert!(!ir.components[0].nodes.iter().any(|n| matches!(
            n,
            IrNode::Filter {
                test: FilterTest::EdgeType(_)
            }
        )));
    }
}
