//! Fine-grained candidate generation (§6.2.2).
//!
//! Unlike coarse relaxation (whole constraints), fine-grained modification
//! edits predicates on the *value level*: extend a `OneOf` disjunction with
//! a neighboring domain value, widen or shrink a numeric range by a
//! domain-derived step, add or drop individual values, plus the topology
//! operations when enabled. The direction (relax vs concretize) follows the
//! sign of the current cardinality deviation — holistic support in action.

use whyq_graph::domains::{AttrDomain, AttributeDomains};
use whyq_query::{Direction, DirectionSet, GraphMod, Interval, PatternQuery, Predicate, Target};

/// Candidate modifications for a node needing **more** results
/// (relaxations) or **fewer** results (concretizations).
pub fn fine_candidates(
    q: &PatternQuery,
    domains: &AttributeDomains,
    need_more: bool,
    allow_topology: bool,
) -> Vec<GraphMod> {
    if need_more {
        relaxations(q, domains, allow_topology)
    } else {
        concretizations(q, domains, allow_topology)
    }
}

fn relaxations(q: &PatternQuery, domains: &AttributeDomains, topology: bool) -> Vec<GraphMod> {
    let mut out = Vec::new();
    // value-level predicate widening
    for v in q.vertex_ids() {
        for p in &q.vertex(v).expect("live").predicates {
            widen_interval(Target::Vertex(v), p, domains.vertex_attr(&p.attr), &mut out);
        }
    }
    for e in q.edge_ids() {
        let ed = q.edge(e).expect("live");
        for p in &ed.predicates {
            widen_interval(Target::Edge(e), p, domains.edge_attr(&p.attr), &mut out);
        }
        // direction relaxation: forward-only → both
        if ed.directions.len() == 1 {
            let missing = if ed.directions.forward {
                Direction::Backward
            } else {
                Direction::Forward
            };
            out.push(GraphMod::InsertDirection {
                edge: e,
                dir: missing,
            });
        }
        // type relaxation: admit one more existing type
        if let Some(extra) = domains.edge_types().iter().find(|t| !ed.types.contains(t)) {
            if !ed.types.is_empty() {
                out.push(GraphMod::InsertType {
                    edge: e,
                    ty: extra.clone(),
                });
            }
        }
    }
    // whole-constraint discards
    for v in q.vertex_ids() {
        for p in &q.vertex(v).expect("live").predicates {
            out.push(GraphMod::RemovePredicate {
                target: Target::Vertex(v),
                attr: p.attr.clone(),
            });
        }
    }
    for e in q.edge_ids() {
        for p in &q.edge(e).expect("live").predicates {
            out.push(GraphMod::RemovePredicate {
                target: Target::Edge(e),
                attr: p.attr.clone(),
            });
        }
    }
    if topology {
        for e in q.edge_ids() {
            out.push(GraphMod::RemoveEdge(e));
        }
        if q.num_vertices() > 1 {
            for v in q.vertex_ids() {
                out.push(GraphMod::RemoveVertex(v));
            }
        }
    }
    out
}

fn concretizations(q: &PatternQuery, domains: &AttributeDomains, topology: bool) -> Vec<GraphMod> {
    let mut out = Vec::new();
    // value-level predicate narrowing
    for v in q.vertex_ids() {
        for p in &q.vertex(v).expect("live").predicates {
            narrow_interval(Target::Vertex(v), p, &mut out);
        }
    }
    for e in q.edge_ids() {
        let ed = q.edge(e).expect("live");
        for p in &ed.predicates {
            narrow_interval(Target::Edge(e), p, &mut out);
        }
        // direction concretization: both → forward
        if ed.directions == DirectionSet::BOTH {
            out.push(GraphMod::RemoveDirection {
                edge: e,
                dir: Direction::Backward,
            });
        }
        // type concretization: drop one of several admitted types
        if ed.types.len() > 1 {
            out.push(GraphMod::RemoveType {
                edge: e,
                ty: ed.types.last().expect("non-empty").clone(),
            });
        }
    }
    // new predicates on unconstrained attributes (first / median / last
    // domain value per element+attr — distinct selectivities to pick from)
    for v in q.vertex_ids() {
        let vx = q.vertex(v).expect("live");
        for attr in domains.vertex_attr_names() {
            if vx.predicate(attr).is_none() {
                for p in anchor_predicates(attr, domains.vertex_attr(attr)) {
                    out.push(GraphMod::InsertPredicate {
                        target: Target::Vertex(v),
                        predicate: p,
                    });
                }
            }
        }
    }
    if topology {
        // connect currently unconnected vertex pairs with an existing type
        let vids: Vec<_> = q.vertex_ids().collect();
        if let Some(ty) = domains.edge_types().first() {
            for (i, &a) in vids.iter().enumerate() {
                for &b in vids.iter().skip(i + 1) {
                    let connected = q.edge_ids().any(|e| {
                        let ed = q.edge(e).expect("live");
                        ed.touches(a) && ed.touches(b)
                    });
                    if !connected {
                        out.push(GraphMod::InsertEdge {
                            src: a,
                            dst: b,
                            types: vec![ty.clone()],
                            directions: DirectionSet::BOTH,
                            predicates: vec![],
                        });
                    }
                }
            }
        }
    }
    out
}

fn widen_interval(
    target: Target,
    p: &Predicate,
    domain: Option<&AttrDomain>,
    out: &mut Vec<GraphMod>,
) {
    match &p.interval {
        Interval::OneOf(vals) => {
            let Some(domain) = domain else { return };
            // extend with neighbors of each present value
            let mut extended = Vec::new();
            for v in vals {
                for n in domain.neighbors(v) {
                    if !vals.contains(n) && !extended.contains(n) {
                        extended.push(n.clone());
                    }
                }
            }
            for n in extended {
                let mut widened = p.interval.clone();
                widened.add_value(n);
                out.push(GraphMod::ReplaceInterval {
                    target,
                    attr: p.attr.clone(),
                    interval: widened,
                });
            }
        }
        Interval::Range { .. } => {
            let step = domain.map_or(1.0, AttrDomain::range_step);
            let mut widened = p.interval.clone();
            if widened.widen(step) {
                out.push(GraphMod::ReplaceInterval {
                    target,
                    attr: p.attr.clone(),
                    interval: widened,
                });
            }
        }
    }
}

fn narrow_interval(target: Target, p: &Predicate, out: &mut Vec<GraphMod>) {
    match &p.interval {
        Interval::OneOf(vals) if vals.len() > 1 => {
            // drop each value in turn (deterministic: first and last)
            for v in [vals.first(), vals.last()].into_iter().flatten() {
                let mut narrowed = p.interval.clone();
                narrowed.remove_value(v);
                out.push(GraphMod::ReplaceInterval {
                    target,
                    attr: p.attr.clone(),
                    interval: narrowed,
                });
            }
        }
        Interval::Range { lo, hi, .. } => {
            if let (Some(lo), Some(hi)) = (lo, hi) {
                let step = ((hi - lo) / 4.0).max(0.5);
                let mut narrowed = p.interval.clone();
                if narrowed.shrink(step) {
                    out.push(GraphMod::ReplaceInterval {
                        target,
                        attr: p.attr.clone(),
                        interval: narrowed,
                    });
                }
            }
        }
        _ => {}
    }
}

fn anchor_predicates(attr: &str, domain: Option<&AttrDomain>) -> Vec<Predicate> {
    let Some(domain) = domain else {
        return Vec::new();
    };
    if domain.values.is_empty() {
        return Vec::new();
    }
    let mut picks = vec![
        domain.values[0].clone(),
        domain.values[domain.values.len() / 2].clone(),
        domain.values[domain.values.len() - 1].clone(),
    ];
    picks.dedup();
    let mut out: Vec<Predicate> = picks
        .into_iter()
        .map(|v| Predicate {
            attr: attr.to_string(),
            interval: Interval::OneOf(vec![v]),
        })
        .collect();
    // numeric attributes additionally get tunable half-range predicates —
    // later shrink/widen steps can fine-adjust these toward the threshold
    if let (Some(lo), Some(hi)) = (domain.min, domain.max) {
        if hi > lo {
            let mid = (lo + hi) / 2.0;
            out.push(Predicate {
                attr: attr.to_string(),
                interval: Interval::between(lo, mid),
            });
            out.push(Predicate {
                attr: attr.to_string(),
                interval: Interval::between(mid, hi),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::{PropertyGraph, Value};
    use whyq_query::QueryBuilder;

    fn setup() -> (AttributeDomains, PatternQuery) {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(25))]);
        let b = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(30))]);
        let c = g.add_vertex([("type", Value::str("city"))]);
        g.add_edge(a, b, "knows", [("since", Value::Int(2005))]);
        g.add_edge(a, c, "livesIn", []);
        let q = QueryBuilder::new("q")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("age", 24.0, 26.0),
                ],
            )
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build();
        (AttributeDomains::build(&g, 100), q)
    }

    #[test]
    fn relaxations_include_value_widening() {
        let (domains, q) = setup();
        let mods = fine_candidates(&q, &domains, true, true);
        // a ReplaceInterval widening the age range must be present
        assert!(mods.iter().any(|m| matches!(
            m,
            GraphMod::ReplaceInterval { attr, .. } if attr == "age"
        )));
        // and a OneOf extension of the type predicate (person → +city)
        assert!(mods.iter().any(|m| matches!(
            m,
            GraphMod::ReplaceInterval { attr, .. } if attr == "type"
        )));
        // topology removals present
        assert!(mods.iter().any(|m| matches!(m, GraphMod::RemoveEdge(_))));
    }

    #[test]
    fn concretizations_include_narrowing_and_new_predicates() {
        let (domains, q) = setup();
        let mods = fine_candidates(&q, &domains, false, true);
        // inserting a predicate on an unconstrained attribute (e.g. age on c)
        assert!(mods
            .iter()
            .any(|m| matches!(m, GraphMod::InsertPredicate { .. })));
        // inserting an edge between unconnected pair is impossible here
        // (only p–c exist and they are connected) — so no InsertEdge
        assert!(!mods
            .iter()
            .any(|m| matches!(m, GraphMod::InsertEdge { .. })));
    }

    #[test]
    fn topology_flag_suppresses_structure_changes() {
        let (domains, q) = setup();
        let mods = fine_candidates(&q, &domains, true, false);
        assert!(!mods.iter().any(whyq_query::GraphMod::is_topological));
    }

    #[test]
    fn all_candidates_apply() {
        let (domains, q) = setup();
        for need_more in [true, false] {
            for m in fine_candidates(&q, &domains, need_more, true) {
                assert!(m.applied(&q).is_ok(), "failed: {m}");
            }
        }
    }

    #[test]
    fn narrowing_one_of_drops_values() {
        let mut q = PatternQuery::new();
        q.add_vertex(whyq_query::QueryVertex::with([Predicate::one_of(
            "type",
            ["a", "b", "c"],
        )]));
        let g = PropertyGraph::new();
        let domains = AttributeDomains::build(&g, 10);
        let mods = fine_candidates(&q, &domains, false, false);
        let narrowed = mods
            .iter()
            .filter(|m| matches!(m, GraphMod::ReplaceInterval { .. }))
            .count();
        assert_eq!(narrowed, 2); // drop first ("a") and last ("c")
    }
}
