//! Debug-mode plan verifier: structural invariants of compiled plans.
//!
//! The planner ([`crate::compile::build_plans_est`]) is greedy and heuristic;
//! its *ordering* choices are free, but a handful of structural invariants
//! must hold for the engine's DFS to be sound:
//!
//! * one plan per weakly connected component of the live query (or no
//!   plans at all, exactly when the query is unsatisfiable or empty);
//! * every plan starts with a single [`Step::Seed`] whose vertex belongs
//!   to the component the plan covers;
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
//! [`verify_ir`] extends the same discipline to the lowered plan IR
//! ([`crate::plan_ir`]): in addition to the plan-level binding-order
//! invariants it checks that filters only test elements whose scan is
//! still pending, that every scan's candidate eventually gets bound by
//! exactly one (inline or standalone) bind, and that seed specs reference
//! attached indexes only. The optimizer re-runs it after every enabled
//! pass (`debug_assertions`), and the pass power-set property suite
//! (`tests/optimizer_props.rs`) asserts it on every pass combination.

use crate::compile::{Compiled, ComponentPlan, Step};
use crate::plan_ir::{BindTarget, FilterTest, IrNode, PlanIr, SeedSpec};
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
    plan: &ComponentPlan,
    components: &[Vec<QVid>],
    covered_vertices: &mut Vec<QVid>,
    covered_edges: &mut Vec<QEid>,
) -> Result<(), String> {
    let Some(&Step::Seed { vertex: seed }) = plan.steps.first() else {
        return Err(format!(
            "plan does not start with a Seed step: {:?}",
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

/// What the most recent scan node produced, until its bind resolves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pending {
    Seed { vertex: QVid },
    Expansion { edge: QEid, to: QVid },
    Closure { edge: QEid },
}

impl Pending {
    /// Is `test` a test of this scan's candidate elements?
    fn admits(self, test: FilterTest) -> bool {
        match (self, test) {
            (Pending::Seed { vertex }, FilterTest::VertexPreds(v)) => v == vertex,
            (Pending::Expansion { to, .. }, FilterTest::VertexPreds(v)) => v == to,
            (
                Pending::Expansion { edge, .. } | Pending::Closure { edge },
                FilterTest::EdgeType(e) | FilterTest::EdgeAttrs(e),
            ) => e == edge,
            _ => false,
        }
    }
}

/// Check the structural invariants of the lowered IR `ir` for `q`
/// compiled as `compiled`, with `num_indexes` attribute indexes attached.
/// Returns `Err` with a description of the first violation.
///
/// On top of the [`verify_plans`] invariants (seed-first, bound-to-unbound
/// expansion, both-bound closes, exactly-once coverage, one component per
/// plan), the IR level adds:
///
/// * the first node of a component is its only [`IrNode::SeedScan`] and
///   the last its only [`IrNode::Emit`];
/// * between a scan and its bind only [`IrNode::Filter`] nodes testing
///   *that scan's* candidate elements may appear, and the bind target
///   must match the scan (no scan's candidate is left unbound, none is
///   bound twice);
/// * inline scan filters likewise test only the scan's own elements;
/// * `typed` scans and `EdgeType` filters only appear on edges whose
///   compiled form has a type disjunction;
/// * seed specs are well-formed: index positions within `num_indexes`,
///   unions non-empty, intersections of at least two probes.
///
/// Enforced over the pass power set by `tests/optimizer_props.rs` and on
/// every compile in debug builds.
pub fn verify_ir(
    q: &PatternQuery,
    compiled: &Compiled,
    ir: &PlanIr,
    num_indexes: usize,
) -> Result<(), String> {
    // compiled slot coverage, shared with verify_plans
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
    if ir.components.is_empty() {
        if compiled.unsatisfiable() || q.num_vertices() == 0 {
            return Ok(());
        }
        return Err("satisfiable non-empty query lowered to zero components".into());
    }
    if ir.components.len() != components.len() {
        return Err(format!(
            "{} IR components for {} weakly connected components",
            ir.components.len(),
            components.len()
        ));
    }

    let mut covered_vertices: Vec<QVid> = Vec::new();
    let mut covered_edges: Vec<QEid> = Vec::new();
    for comp_ir in &ir.components {
        verify_component_ir(
            q,
            compiled,
            comp_ir,
            &components,
            num_indexes,
            &mut covered_vertices,
            &mut covered_edges,
        )?;
    }

    for v in q.vertex_ids() {
        match covered_vertices.iter().filter(|&&x| x == v).count() {
            1 => {}
            0 => return Err(format!("query vertex {v} is never bound by any component")),
            n => return Err(format!("query vertex {v} is bound {n} times")),
        }
    }
    for e in q.edge_ids() {
        match covered_edges.iter().filter(|&&x| x == e).count() {
            1 => {}
            0 => return Err(format!("query edge {e} is never bound by any component")),
            n => return Err(format!("query edge {e} is bound {n} times")),
        }
    }
    Ok(())
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
    }
}

fn verify_component_ir(
    q: &PatternQuery,
    compiled: &Compiled,
    comp_ir: &crate::plan_ir::ComponentIr,
    components: &[Vec<QVid>],
    num_indexes: usize,
    covered_vertices: &mut Vec<QVid>,
    covered_edges: &mut Vec<QEid>,
) -> Result<(), String> {
    let nodes = &comp_ir.nodes;
    let Some(IrNode::SeedScan { vertex: seed, .. }) = nodes.first() else {
        return Err(format!(
            "IR component does not start with a SeedScan: {:?}",
            nodes.first()
        ));
    };
    let seed = *seed;
    if seed != comp_ir.seed_vertex {
        return Err(format!(
            "component records seed {} but scans {seed}",
            comp_ir.seed_vertex
        ));
    }
    let Some(comp) = components.iter().find(|c| c.contains(&seed)) else {
        return Err(format!("seed vertex {seed} is not a live query vertex"));
    };
    if !matches!(nodes.last(), Some(IrNode::Emit)) {
        return Err("IR component does not end with Emit".into());
    }

    let edge_has_types = |e: QEid| -> Result<bool, String> {
        if q.edge(e).is_none() {
            return Err(format!("IR references dead query edge {e}"));
        }
        Ok(compiled.edge(e).types.is_some())
    };
    let check_filter = |test: FilterTest, pending: Pending| -> Result<(), String> {
        if !pending.admits(test) {
            return Err(format!(
                "filter {test:?} does not test the pending scan's candidate"
            ));
        }
        if let FilterTest::EdgeType(e) = test {
            if !edge_has_types(e)? {
                return Err(format!("EdgeType filter on untyped query edge {e}"));
            }
        }
        Ok(())
    };

    let mut bound: Vec<QVid> = Vec::with_capacity(comp.len());
    let mut pending: Option<Pending> = None;
    for (i, node) in nodes.iter().enumerate() {
        if node.is_scan() && i != 0 && pending.is_some() {
            return Err(format!(
                "scan at node {i} while the previous scan's bind is still pending"
            ));
        }
        match node {
            IrNode::SeedScan {
                vertex,
                spec,
                filters,
                bind,
                ..
            } => {
                if i != 0 {
                    return Err(format!("SeedScan for {vertex} at node {i} (> 0)"));
                }
                verify_seed_spec(spec, num_indexes)?;
                let p = Pending::Seed { vertex: *vertex };
                filters.iter().try_for_each(|&t| check_filter(t, p))?;
                if *bind {
                    bound.push(*vertex);
                } else {
                    pending = Some(p);
                }
            }
            IrNode::ExpandRun {
                edge,
                from,
                to,
                typed,
                filters,
                bind,
                ..
            } => {
                let Some(qe) = q.edge(*edge) else {
                    return Err(format!("ExpandRun binds dead query edge {edge}"));
                };
                if !(qe.src == *from && qe.dst == *to || qe.src == *to && qe.dst == *from) {
                    return Err(format!(
                        "ExpandRun {edge} claims endpoints {from}->{to}, edge has {}->{}",
                        qe.src, qe.dst
                    ));
                }
                if !bound.contains(from) {
                    return Err(format!(
                        "ExpandRun {edge} traverses from unbound vertex {from}"
                    ));
                }
                if bound.contains(to) {
                    return Err(format!(
                        "ExpandRun {edge} rebinds already-bound vertex {to} (should be CloseRun)"
                    ));
                }
                if *typed && !edge_has_types(*edge)? {
                    return Err(format!("typed ExpandRun on untyped query edge {edge}"));
                }
                let p = Pending::Expansion {
                    edge: *edge,
                    to: *to,
                };
                filters.iter().try_for_each(|&t| check_filter(t, p))?;
                if covered_edges.contains(edge) {
                    return Err(format!("query edge {edge} bound twice"));
                }
                covered_edges.push(*edge);
                if *bind {
                    bound.push(*to);
                } else {
                    pending = Some(p);
                }
            }
            IrNode::CloseRun {
                edge,
                typed,
                filters,
                bind,
            } => {
                let Some(qe) = q.edge(*edge) else {
                    return Err(format!("CloseRun binds dead query edge {edge}"));
                };
                if !bound.contains(&qe.src) || !bound.contains(&qe.dst) {
                    return Err(format!(
                        "CloseRun {edge} fires before both endpoints are bound"
                    ));
                }
                if *typed && !edge_has_types(*edge)? {
                    return Err(format!("typed CloseRun on untyped query edge {edge}"));
                }
                let p = Pending::Closure { edge: *edge };
                filters.iter().try_for_each(|&t| check_filter(t, p))?;
                if covered_edges.contains(edge) {
                    return Err(format!("query edge {edge} bound twice"));
                }
                covered_edges.push(*edge);
                if !*bind {
                    pending = Some(p);
                }
            }
            IrNode::Filter { test } => {
                let Some(p) = pending else {
                    return Err(format!(
                        "standalone filter {test:?} at node {i} with no pending scan"
                    ));
                };
                check_filter(*test, p)?;
            }
            IrNode::Bind { target } => {
                let Some(p) = pending else {
                    return Err(format!("Bind at node {i} with no pending scan"));
                };
                let matches = match (*target, p) {
                    (BindTarget::Seed { vertex }, Pending::Seed { vertex: pv }) => vertex == pv,
                    (
                        BindTarget::Expansion { edge, to },
                        Pending::Expansion { edge: pe, to: pt },
                    ) => edge == pe && to == pt,
                    (BindTarget::Closure { edge }, Pending::Closure { edge: pe }) => edge == pe,
                    _ => false,
                };
                if !matches {
                    return Err(format!(
                        "Bind target {target:?} does not match the pending scan"
                    ));
                }
                match *target {
                    BindTarget::Seed { vertex } => bound.push(vertex),
                    BindTarget::Expansion { to, .. } => bound.push(to),
                    BindTarget::Closure { .. } => {}
                }
                pending = None;
            }
            IrNode::Emit => {
                if i != nodes.len() - 1 {
                    return Err(format!("Emit at node {i}, not last"));
                }
                if pending.is_some() {
                    return Err("Emit while a scan's bind is still pending".into());
                }
            }
        }
    }

    // the component must bind its whole component, nothing more
    for &v in comp {
        if !bound.contains(&v) {
            return Err(format!(
                "IR component seeded at {seed} never binds component vertex {v}"
            ));
        }
    }
    for &v in &bound {
        if !comp.contains(&v) {
            return Err(format!(
                "IR component seeded at {seed} binds vertex {v} outside its component"
            ));
        }
    }
    covered_vertices.extend(bound);
    Ok(())
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
        let compiled = Compiled::new(&g, &q);
        let (plans, est) = build_plans_est(&g, &q, &compiled, &[]);
        for i in 0..8 {
            let mut ir = crate::plan_ir::lower(&compiled, &plans, &est);
            crate::optimize::optimize(
                &mut ir,
                &g,
                &q,
                &compiled,
                &[],
                crate::optimize::PassSet::subset(i),
            );
            verify_ir(&q, &compiled, &ir, 0).unwrap_or_else(|e| panic!("subset {i}: {e}"));
        }
    }

    #[test]
    fn corrupted_ir_is_rejected() {
        let g = graph();
        let q = query();
        let compiled = Compiled::new(&g, &q);
        let (plans, est) = build_plans_est(&g, &q, &compiled, &[]);
        let good = crate::plan_ir::lower(&compiled, &plans, &est);
        verify_ir(&q, &compiled, &good, 0).unwrap();

        // drop the trailing Emit
        let mut no_emit = good.clone();
        no_emit.components[0].nodes.pop();
        assert!(verify_ir(&q, &compiled, &no_emit, 0).is_err());

        // drop a Bind: the scan's candidate is never committed
        let mut no_bind = good.clone();
        let pos = no_bind.components[0]
            .nodes
            .iter()
            .position(|n| matches!(n, IrNode::Bind { .. }))
            .unwrap();
        no_bind.components[0].nodes.remove(pos);
        assert!(verify_ir(&q, &compiled, &no_bind, 0).is_err());

        // seed spec referencing an unattached index
        let mut bad_spec = good.clone();
        if let IrNode::SeedScan { spec, .. } = &mut bad_spec.components[0].nodes[0] {
            *spec = SeedSpec::Bucket {
                index: 3,
                key: whyq_graph::Value::Int(1),
            };
        }
        assert!(verify_ir(&q, &compiled, &bad_spec, 0).is_err());

        // an inline filter testing a vertex that is not the scan's target
        // (the already-bound `from` endpoint instead of `to`)
        let mut wrong_target = good.clone();
        if let Some(IrNode::ExpandRun { from, filters, .. }) = wrong_target.components[0]
            .nodes
            .iter_mut()
            .find(|n| matches!(n, IrNode::ExpandRun { .. }))
        {
            filters.push(FilterTest::VertexPreds(*from));
        }
        assert!(verify_ir(&q, &compiled, &wrong_target, 0).is_err());
    }
}
