//! Debug-mode plan verifier: structural invariants of compiled plans.
//!
//! The planner ([`crate::compile::build_plans_est`]) is greedy and heuristic;
//! its *ordering* choices are free, but a handful of structural invariants
//! must hold for the engine's DFS to be sound:
//!
//! * one plan per weakly connected component of the live query (or no
//!   plans at all, exactly when the query is unsatisfiable or empty);
//! * every plan starts with a single [`Step::Seed`] whose vertex belongs
//!   to the component the plan covers, or a single [`Step::SeedEdge`]
//!   binding both endpoints of an edge with exactly one type and one
//!   direction, walked the way its `outgoing` flag says;
//! * [`Step::ExpandNew`] traverses from a bound endpoint to an unbound one
//!   and both are the compiled edge's endpoints;
//! * [`Step::Close`] fires only when both endpoints are already bound;
//! * every component edge is bound exactly once, every component vertex
//!   exactly once;
//! * every live query element has a compiled slot.
//!
//! [`verify_plans`] checks all of this in `O(plan size)`. It runs
//! automatically inside [`crate::Matcher::compile_with_passes`] under
//! `cfg(debug_assertions)` — i.e. in every test and debug build, at zero
//! release-mode cost — and the CI static-analysis lane drives it over the
//! whole test corpus.
//!
//! [`verify_ir`] checks the lowered plan IR ([`crate::plan_ir`]): each
//! component must be its seed scan, then expansion and closing scans,
//! then `Emit`, and is verified as the plan its scans spell out — one
//! step per scan — so every invariant above holds on the IR too. On top
//! of that, inline filters may test only their own scan's elements and
//! seed specs may reference attached indexes only.
//! [`crate::optimize::optimize`] runs it on its output in debug builds,
//! and `tests/optimizer_props.rs` asserts it with seed selection on and
//! off.

use crate::compile::{Compiled, ComponentPlan, Step};
use crate::plan_ir::{ComponentIr, FilterTest, IrNode, PlanIr, SeedSpec};
use whyq_query::{PatternQuery, QEid, QVid};

/// Check the structural invariants of `plans` for `q` compiled as
/// `compiled`. Returns `Err` with a description of the first violation.
pub fn verify_plans(
    q: &PatternQuery,
    compiled: &Compiled,
    plans: &[ComponentPlan],
) -> Result<(), String> {
    // every live element must have a compiled slot
    for v in q.vertex_ids() {
        if compiled
            .vertices
            .get(v.0 as usize)
            .is_none_or(Option::is_none)
        {
            return Err(format!("live query vertex {v} has no compiled slot"));
        }
    }
    for e in q.edge_ids() {
        if compiled.edges.get(e.0 as usize).is_none_or(Option::is_none) {
            return Err(format!("live query edge {e} has no compiled slot"));
        }
    }

    let components = q.weakly_connected_components();
    if plans.is_empty() {
        // legal exactly for unsatisfiable or vertex-less queries — the
        // engine short-circuits those to "no matches"
        if compiled.unsatisfiable() || q.num_vertices() == 0 {
            return Ok(());
        }
        return Err("satisfiable non-empty query compiled to zero plans".into());
    }
    if plans.len() != components.len() {
        return Err(format!(
            "{} plans for {} weakly connected components",
            plans.len(),
            components.len()
        ));
    }

    let mut covered_vertices: Vec<QVid> = Vec::new();
    let mut covered_edges: Vec<QEid> = Vec::new();
    for plan in plans {
        verify_component_plan(
            q,
            compiled,
            plan,
            &components,
            &mut covered_vertices,
            &mut covered_edges,
        )?;
    }

    // global coverage: each vertex and edge bound by exactly one plan
    for v in q.vertex_ids() {
        match covered_vertices.iter().filter(|&&x| x == v).count() {
            1 => {}
            0 => return Err(format!("query vertex {v} is never bound by any plan")),
            n => return Err(format!("query vertex {v} is bound {n} times")),
        }
    }
    for e in q.edge_ids() {
        match covered_edges.iter().filter(|&&x| x == e).count() {
            1 => {}
            0 => return Err(format!("query edge {e} is never bound by any plan")),
            n => return Err(format!("query edge {e} is bound {n} times")),
        }
    }
    Ok(())
}

fn verify_component_plan(
    q: &PatternQuery,
    compiled: &Compiled,
    plan: &ComponentPlan,
    components: &[Vec<QVid>],
    covered_vertices: &mut Vec<QVid>,
    covered_edges: &mut Vec<QEid>,
) -> Result<(), String> {
    let Some(&(Step::Seed { vertex: seed } | Step::SeedEdge { from: seed, .. })) =
        plan.steps.first()
    else {
        return Err(format!(
            "plan does not start with a seed step: {:?}",
            plan.steps.first()
        ));
    };
    let Some(comp) = components.iter().find(|c| c.contains(&seed)) else {
        return Err(format!("seed vertex {seed} is not a live query vertex"));
    };

    let mut bound: Vec<QVid> = Vec::with_capacity(comp.len());
    for (i, step) in plan.steps.iter().enumerate() {
        match *step {
            Step::Seed { vertex } => {
                if i != 0 {
                    return Err(format!("Seed step for {vertex} at position {i} (> 0)"));
                }
                bound.push(vertex);
            }
            Step::SeedEdge {
                edge,
                from,
                to,
                outgoing,
            } => {
                if i != 0 {
                    return Err(format!("SeedEdge step for {edge} at position {i} (> 0)"));
                }
                let Some(qe) = q.edge(edge) else {
                    return Err(format!("SeedEdge binds dead query edge {edge}"));
                };
                if !(qe.src == from && qe.dst == to || qe.src == to && qe.dst == from) || from == to
                {
                    return Err(format!(
                        "SeedEdge {edge} claims endpoints {from}->{to}, edge has {}->{}",
                        qe.src, qe.dst
                    ));
                }
                if qe.directions.forward == qe.directions.backward
                    || compiled
                        .edge(edge)
                        .types
                        .as_ref()
                        .is_none_or(|t| t.len() != 1)
                {
                    return Err(format!(
                        "SeedEdge {edge} needs exactly one type and one direction"
                    ));
                }
                if outgoing != (qe.directions.forward == (from == qe.src)) {
                    return Err(format!("SeedEdge {edge} walks its list the wrong way"));
                }
                bound.extend([from, to]);
                if covered_edges.contains(&edge) {
                    return Err(format!("query edge {edge} bound twice"));
                }
                covered_edges.push(edge);
            }
            Step::ExpandNew { edge, from, to } => {
                let Some(qe) = q.edge(edge) else {
                    return Err(format!("ExpandNew binds dead query edge {edge}"));
                };
                if !(qe.src == from && qe.dst == to || qe.src == to && qe.dst == from) {
                    return Err(format!(
                        "ExpandNew {edge} claims endpoints {from}->{to}, edge has {}->{}",
                        qe.src, qe.dst
                    ));
                }
                if !bound.contains(&from) {
                    return Err(format!(
                        "ExpandNew {edge} traverses from unbound vertex {from}"
                    ));
                }
                if bound.contains(&to) {
                    return Err(format!(
                        "ExpandNew {edge} rebinds already-bound vertex {to} (should be Close)"
                    ));
                }
                bound.push(to);
                if covered_edges.contains(&edge) {
                    return Err(format!("query edge {edge} bound twice"));
                }
                covered_edges.push(edge);
            }
            Step::Close { edge } => {
                let Some(qe) = q.edge(edge) else {
                    return Err(format!("Close binds dead query edge {edge}"));
                };
                if !bound.contains(&qe.src) || !bound.contains(&qe.dst) {
                    return Err(format!(
                        "Close {edge} fires before both endpoints are bound"
                    ));
                }
                if covered_edges.contains(&edge) {
                    return Err(format!("query edge {edge} bound twice"));
                }
                covered_edges.push(edge);
            }
        }
    }

    // the plan must bind its whole component, nothing more
    for &v in comp {
        if !bound.contains(&v) {
            return Err(format!(
                "plan seeded at {seed} never binds component vertex {v}"
            ));
        }
    }
    for &v in &bound {
        if !comp.contains(&v) {
            return Err(format!(
                "plan seeded at {seed} binds vertex {v} outside its component"
            ));
        }
    }
    covered_vertices.extend(bound);
    Ok(())
}

/// Check the structural invariants of the lowered IR `ir` for `q`
/// compiled as `compiled`, with `num_indexes` attribute indexes attached.
/// Returns `Err` with a description of the first violation.
///
/// Each component must be `(SeedScan | EdgeSeed) (ExpandRun | CloseRun)*
/// Emit`; it is then checked as the plan its scans spell out, one
/// [`Step`] per scan, so every [`verify_plans`] invariant holds on the IR
/// (seed first, bound-to-unbound expansion, both-bound closes,
/// exactly-once coverage, one component per weakly connected component).
/// On top of that:
///
/// * the component's recorded `seed_vertex` is the one its seed scans
///   (an edge seed's `from`);
/// * inline filters test only their own scan's elements — `VertexPreds`
///   the vertex the scan binds, `EdgeAttrs` the edge it binds; an edge
///   seed's `near` tests only its `from`;
/// * seed specs are well-formed: index positions within `num_indexes`,
///   unions non-empty, intersections of at least two probes, and an
///   edge's list (`TypeEdges`) exactly on an edge seed, of its edge's
///   one type.
///
/// Run by [`crate::optimize::optimize`] on every compile in debug builds.
pub fn verify_ir(
    q: &PatternQuery,
    compiled: &Compiled,
    ir: &PlanIr,
    num_indexes: usize,
) -> Result<(), String> {
    let plans = ir
        .components
        .iter()
        .map(|comp| component_plan(compiled, comp, num_indexes))
        .collect::<Result<Vec<_>, _>>()?;
    verify_plans(q, compiled, &plans)
}

fn verify_seed_spec(spec: &SeedSpec, num_indexes: usize) -> Result<(), String> {
    let check_pos = |pos: usize| {
        if pos >= num_indexes {
            Err(format!(
                "seed spec references index {pos}, only {num_indexes} attached"
            ))
        } else {
            Ok(())
        }
    };
    match spec {
        SeedSpec::FullScan => Ok(()),
        SeedSpec::Bucket { index, .. } => check_pos(*index),
        SeedSpec::Union { index, keys } => {
            if keys.is_empty() {
                return Err("union seed spec with no keys".into());
            }
            check_pos(*index)
        }
        SeedSpec::Intersect { probes } => {
            if probes.len() < 2 {
                return Err(format!(
                    "intersect seed spec with {} probe(s), need at least 2",
                    probes.len()
                ));
            }
            probes.iter().try_for_each(|&(pos, _)| check_pos(pos))
        }
        SeedSpec::TypeEdges { .. } => Err("a seed scan draws from an edge list".into()),
    }
}

/// Check what only the IR carries — the trailing `Emit`, the recorded
/// seed vertex, seed specs and inline filters — and return the plan the
/// component's scans spell out, for [`verify_plans`].
fn component_plan(
    compiled: &Compiled,
    comp: &ComponentIr,
    num_indexes: usize,
) -> Result<ComponentPlan, String> {
    let Some((IrNode::Emit, scans)) = comp.nodes.split_last() else {
        return Err("IR component does not end with Emit".into());
    };
    let mut steps = Vec::with_capacity(scans.len());
    for (i, node) in scans.iter().enumerate() {
        let (step, filters) = match node {
            IrNode::SeedScan {
                vertex,
                spec,
                filters,
                ..
            } => {
                if *vertex != comp.seed_vertex {
                    return Err(format!(
                        "component records seed {} but scans {vertex}",
                        comp.seed_vertex
                    ));
                }
                verify_seed_spec(spec, num_indexes)?;
                (Step::Seed { vertex: *vertex }, filters)
            }
            IrNode::ExpandRun {
                edge,
                from,
                to,
                filters,
                ..
            } => (
                Step::ExpandNew {
                    edge: *edge,
                    from: *from,
                    to: *to,
                },
                filters,
            ),
            IrNode::EdgeSeed {
                edge,
                from,
                to,
                spec,
                near,
                filters,
            } => {
                if *from != comp.seed_vertex {
                    return Err(format!(
                        "component records seed {} but its edge seed binds {from}",
                        comp.seed_vertex
                    ));
                }
                let &SeedSpec::TypeEdges { ty, outgoing } = spec else {
                    return Err(format!("edge seed draws from {spec:?}"));
                };
                if compiled.edge(*edge).types.as_deref() != Some(&[ty]) {
                    return Err(format!("edge seed of {edge} scans the list of {ty:?}"));
                }
                if let Some(t) = near.iter().find(|&&t| t != FilterTest::VertexPreds(*from)) {
                    return Err(format!(
                        "edge seed at node {i} tests {t:?} on its seed vertex {from}"
                    ));
                }
                let step = Step::SeedEdge {
                    edge: *edge,
                    from: *from,
                    to: *to,
                    outgoing,
                };
                (step, filters)
            }
            IrNode::CloseRun { edge, filters } => (Step::Close { edge: *edge }, filters),
            IrNode::Emit => return Err(format!("Emit at node {i}, not last")),
        };
        if let Some(t) = filters.iter().find(|&&t| !tests_own_element(step, t)) {
            return Err(format!(
                "scan at node {i} carries filter {t:?}, which does not test its own candidate"
            ));
        }
        steps.push(step);
    }
    Ok(ComponentPlan { steps })
}

/// Whether `test` tests an element that `step` binds.
/// An edge seed's `filters` test its edge and `to`; its `near` tests are
/// checked apart.
fn tests_own_element(step: Step, test: FilterTest) -> bool {
    match (step, test) {
        (
            Step::Seed { vertex: own }
            | Step::ExpandNew { to: own, .. }
            | Step::SeedEdge { to: own, .. },
            FilterTest::VertexPreds(v),
        ) => v == own,
        (
            Step::ExpandNew { edge: own, .. }
            | Step::Close { edge: own }
            | Step::SeedEdge { edge: own, .. },
            FilterTest::EdgeAttrs(e),
        ) => e == own,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::build_plans_est;
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

    fn query() -> PatternQuery {
        QueryBuilder::new("q")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p1", "p2", "knows")
            .edge("p1", "c", "livesIn")
            .build()
    }

    #[test]
    fn real_plans_verify() {
        let g = graph();
        let q = query();
        let compiled = Compiled::new(&g, &q);
        let (plans, _) = build_plans_est(&g, &q, &compiled, &[]);
        verify_plans(&q, &compiled, &plans).unwrap();
    }

    #[test]
    fn empty_plans_require_unsatisfiability() {
        let g = graph();
        let q = query();
        let compiled = Compiled::new(&g, &q);
        let err = verify_plans(&q, &compiled, &[]).unwrap_err();
        assert!(err.contains("zero plans"), "{err}");

        // unsatisfiable query: empty plans are the *expected* shape
        let unsat = QueryBuilder::new("u")
            .vertex("a", [Predicate::eq("type", "robot")])
            .build();
        let cu = Compiled::new(&g, &unsat);
        assert!(cu.unsatisfiable());
        verify_plans(&unsat, &cu, &[]).unwrap();
    }

    #[test]
    fn corrupted_plans_are_rejected() {
        let g = graph();
        let q = query();
        let compiled = Compiled::new(&g, &q);
        let (good, _) = build_plans_est(&g, &q, &compiled, &[]);

        // drop a step: component not fully bound
        let mut truncated = good.clone();
        truncated[0].steps.pop();
        assert!(verify_plans(&q, &compiled, &truncated).is_err());

        // duplicate the last step: edge bound twice
        let mut duped = good.clone();
        let last = *duped[0].steps.last().unwrap();
        duped[0].steps.push(last);
        assert!(verify_plans(&q, &compiled, &duped).is_err());

        // reverse the steps: seed not first / expand from unbound
        let mut reversed = good.clone();
        reversed[0].steps.reverse();
        assert!(verify_plans(&q, &compiled, &reversed).is_err());
    }

    #[test]
    fn lowered_ir_verifies_across_the_pass_power_set() {
        let g = graph();
        let q = query();
        let indexes = vec![std::sync::Arc::new(
            crate::index::AttrIndex::build(&g, "type").expect("type is an attribute"),
        )];
        let compiled = Compiled::new(&g, &q);
        for (seed_select, edge_seed) in [(false, false), (false, true), (true, false), (true, true)]
        {
            let (plans, est) =
                crate::compile::build_plans_with(&g, &q, &compiled, &indexes, edge_seed);
            let mut ir = crate::plan_ir::lower(&compiled, &plans, &est);
            let passes = crate::optimize::PassSet {
                seed_select,
                edge_seed,
            };
            crate::optimize::optimize(&mut ir, &g, &q, &compiled, &indexes, passes);
            verify_ir(&q, &compiled, &ir, indexes.len())
                .unwrap_or_else(|e| panic!("{passes:?}: {e}"));
        }
    }

    #[test]
    fn corrupted_ir_is_rejected() {
        let g = graph();
        let q = query();
        let compiled = Compiled::new(&g, &q);
        let lowered = |edge_seed| {
            let (plans, est) = crate::compile::build_plans_with(&g, &q, &compiled, &[], edge_seed);
            crate::plan_ir::lower(&compiled, &plans, &est)
        };
        let (good, edged) = (lowered(false), lowered(true));
        verify_ir(&q, &compiled, &good, 0).unwrap();
        verify_ir(&q, &compiled, &edged, 0).unwrap();
        assert!(matches!(
            edged.components[0].nodes[0],
            IrNode::EdgeSeed { .. }
        ));
        let rejected_in = |ir: &PlanIr, edit: &dyn Fn(&mut Vec<IrNode>)| {
            let mut bad = ir.clone();
            edit(&mut bad.components[0].nodes);
            assert_ne!(&bad, ir, "the edit changed nothing");
            verify_ir(&q, &compiled, &bad, 0).is_err()
        };
        let rejected = |edit: &dyn Fn(&mut Vec<IrNode>)| rejected_in(&good, edit);

        // drop the trailing Emit
        assert!(rejected(&|nodes| {
            nodes.pop();
        }));
        // an Emit before the last scan
        assert!(rejected(&|nodes| nodes.insert(1, IrNode::Emit)));
        // drop the last scan: its elements are never bound
        assert!(rejected(&|nodes| {
            nodes.remove(nodes.len() - 2);
        }));
        // seed spec referencing an unattached index
        assert!(rejected(&|nodes| {
            if let IrNode::SeedScan { spec, .. } = &mut nodes[0] {
                *spec = SeedSpec::Bucket {
                    index: 3,
                    key: whyq_graph::Value::Int(1),
                };
            }
        }));
        // a seed scan drawing from an edge list
        assert!(rejected(&|nodes| {
            if let IrNode::SeedScan { spec, .. } = &mut nodes[0] {
                *spec = SeedSpec::TypeEdges {
                    ty: g.type_symbol("knows").unwrap(),
                    outgoing: true,
                };
            }
        }));
        // a foreign inline filter: the seed scan testing an edge
        assert!(rejected(&|nodes| {
            if let IrNode::SeedScan { filters, .. } = &mut nodes[0] {
                filters.push(FilterTest::EdgeAttrs(QEid(0)));
            }
        }));
        // an inline filter testing a vertex that is not the scan's target
        // (the already-bound `from` endpoint instead of `to`)
        assert!(rejected(&|nodes| {
            if let Some(IrNode::ExpandRun { from, filters, .. }) = nodes
                .iter_mut()
                .find(|n| matches!(n, IrNode::ExpandRun { .. }))
            {
                filters.push(FilterTest::VertexPreds(*from));
            }
        }));

        // an edge seed whose seed-vertex tests test its other endpoint
        assert!(rejected_in(&edged, &|nodes| {
            if let IrNode::EdgeSeed { to, near, .. } = &mut nodes[0] {
                near.push(FilterTest::VertexPreds(*to));
            }
        }));
        // ... that scans another type's list, or the other direction's
        assert!(rejected_in(&edged, &|nodes| {
            if let IrNode::EdgeSeed {
                spec: SeedSpec::TypeEdges { ty, .. },
                ..
            } = &mut nodes[0]
            {
                *ty = g
                    .type_symbol(if *ty == g.type_symbol("knows").unwrap() {
                        "livesIn"
                    } else {
                        "knows"
                    })
                    .unwrap();
            }
        }));
        assert!(rejected_in(&edged, &|nodes| {
            if let IrNode::EdgeSeed {
                spec: SeedSpec::TypeEdges { outgoing, .. },
                ..
            } = &mut nodes[0]
            {
                *outgoing = !*outgoing;
            }
        }));
        // ... or that draws from a vertex source
        assert!(rejected_in(&edged, &|nodes| {
            if let IrNode::EdgeSeed { spec, .. } = &mut nodes[0] {
                *spec = SeedSpec::FullScan;
            }
        }));
        // an edge seed in second place
        assert!(rejected_in(&edged, &|nodes| nodes.swap(0, 1)));
    }
}
