//! Naive reference matcher — the correctness oracle for the slot-based
//! engine.
//!
//! This is a faithful retention of the pre-optimization engine: per call it
//! plans by *exactly counting* candidate vertices with a full vertex scan
//! per query vertex (the original planner's behavior), and the DFS
//! clones the whole partial [`ResultGraph`] for every candidate binding,
//! checking injectivity by linear scans over the partial assignment. It is
//! kept for three reasons:
//!
//! * the equivalence property test asserts the optimized engine returns the
//!   same match sets and counts on randomized inputs;
//! * the matcher micro-benchmarks measure the optimized engine against it
//!   (`BENCH_matcher.json`) — the speedup numbers are before/after this PR;
//! * it documents the semantics without any performance machinery on top.
//!
//! Since the value dictionary, this also means the reference evaluates
//! predicates on **decoded strings**: it resolves only attribute *names*
//! to symbols (as the original engine did) and leaves every constant
//! comparison to [`whyq_query::Predicate::matches`], whose string equality
//! walks text whatever the physical encoding. The optimized engine's
//! symbol-compiled predicates are therefore checked against an oracle that
//! shares none of the dictionary machinery.
//!
//! Nothing in the hot path should ever call into this module.

use crate::engine::MatchOptions;
use crate::result::ResultGraph;
use whyq_graph::{AttrMap, EdgeData, EdgeId, PropertyGraph, Symbol, VertexId};
use whyq_query::{PatternQuery, Predicate, QEid, QVid};

/// A predicate with only its attribute *name* resolved; constants stay in
/// the query's own representation and compare by decoded value.
struct NaivePredicate {
    sym: Option<Symbol>,
    pred: Predicate,
}

impl NaivePredicate {
    fn matches(&self, attrs: &AttrMap) -> bool {
        match self.sym {
            Some(s) => self.pred.matches(attrs.get(s)),
            None => false,
        }
    }
}

/// Naive compiled form of one query vertex.
struct NaiveVertex {
    preds: Vec<NaivePredicate>,
}

impl NaiveVertex {
    fn accepts(&self, g: &PropertyGraph, v: VertexId) -> bool {
        let attrs = &g.vertex(v).attrs;
        self.preds.iter().all(|p| p.matches(attrs))
    }
}

/// Naive compiled form of one query edge.
struct NaiveEdge {
    types: Option<Vec<Symbol>>,
    preds: Vec<NaivePredicate>,
}

impl NaiveEdge {
    fn accepts(&self, ed: &EdgeData) -> bool {
        if let Some(tys) = &self.types {
            if !tys.contains(&ed.ty) {
                return false;
            }
        }
        self.preds.iter().all(|p| p.matches(&ed.attrs))
    }
}

/// Per-slot naive compilation (name resolution only).
struct NaiveCompiled {
    vertices: Vec<Option<NaiveVertex>>,
    edges: Vec<Option<NaiveEdge>>,
}

impl NaiveCompiled {
    fn new(g: &PropertyGraph, q: &PatternQuery) -> Self {
        let resolve = |preds: &[Predicate]| -> Vec<NaivePredicate> {
            preds
                .iter()
                .map(|p| NaivePredicate {
                    sym: g.attr_symbol(&p.attr),
                    pred: p.clone(),
                })
                .collect()
        };
        let mut vertices: Vec<Option<NaiveVertex>> = (0..q.vertex_slots()).map(|_| None).collect();
        for v in q.vertex_ids() {
            let qv = q.vertex(v).expect("live");
            vertices[v.0 as usize] = Some(NaiveVertex {
                preds: resolve(&qv.predicates),
            });
        }
        let mut edges: Vec<Option<NaiveEdge>> = (0..q.edge_slots()).map(|_| None).collect();
        for e in q.edge_ids() {
            let qe = q.edge(e).expect("live");
            let types = if qe.types.is_empty() {
                None
            } else {
                let mut tys: Vec<_> = qe.types.iter().filter_map(|t| g.type_symbol(t)).collect();
                tys.sort_unstable();
                tys.dedup();
                Some(tys)
            };
            edges[e.0 as usize] = Some(NaiveEdge {
                types,
                preds: resolve(&qe.predicates),
            });
        }
        NaiveCompiled { vertices, edges }
    }

    fn vertex(&self, v: QVid) -> &NaiveVertex {
        self.vertices[v.0 as usize].as_ref().expect("compiled")
    }

    fn edge(&self, e: QEid) -> &NaiveEdge {
        self.edges[e.0 as usize].as_ref().expect("compiled")
    }
}

/// One step of the fixed naive plan (mirrors `compile::Step` but is built
/// without any selectivity input).
enum NaiveStep {
    Seed(QVid),
    Expand { edge: QEid, from: QVid, to: QVid },
    Close(QEid),
}

/// Exact per-query-vertex candidate counts — the original planner scanned
/// the whole vertex arena once per query vertex on every call.
fn exact_candidate_counts(
    g: &PropertyGraph,
    q: &PatternQuery,
    compiled: &NaiveCompiled,
) -> Vec<u64> {
    let mut cand_count: Vec<u64> = vec![0; q.vertex_slots()];
    for v in q.vertex_ids() {
        let cv = compiled.vertex(v);
        let mut c = 0u64;
        for dv in g.vertex_ids() {
            if cv.accepts(g, dv) {
                c += 1;
            }
        }
        cand_count[v.0 as usize] = c;
    }
    cand_count
}

/// Greedy plan of one component, seeded at the vertex with the fewest
/// exactly counted candidates (the original planner).
fn naive_plan(q: &PatternQuery, comp: &[QVid], cand_count: &[u64]) -> Vec<NaiveStep> {
    let seed = *comp
        .iter()
        .min_by_key(|v| cand_count[v.0 as usize])
        .expect("non-empty component");
    let mut steps = vec![NaiveStep::Seed(seed)];
    let mut bound = vec![seed];
    let mut remaining: Vec<QEid> = comp
        .iter()
        .flat_map(|&v| q.incident_edges(v))
        .collect::<Vec<_>>();
    remaining.sort();
    remaining.dedup();
    while !remaining.is_empty() {
        // prefer closing edges
        if let Some(pos) = remaining.iter().position(|&e| {
            let ed = q.edge(e).expect("live");
            bound.contains(&ed.src) && bound.contains(&ed.dst)
        }) {
            steps.push(NaiveStep::Close(remaining.remove(pos)));
            continue;
        }
        // otherwise the frontier edge with the cheapest new endpoint
        let (pos, from, to) = remaining
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| {
                let ed = q.edge(e).expect("live");
                if bound.contains(&ed.src) {
                    Some((i, ed.src, ed.dst))
                } else if bound.contains(&ed.dst) {
                    Some((i, ed.dst, ed.src))
                } else {
                    None
                }
            })
            .min_by_key(|&(_, _, to)| cand_count[to.0 as usize])
            .expect("component is connected");
        let e = remaining.remove(pos);
        steps.push(NaiveStep::Expand { edge: e, from, to });
        bound.push(to);
    }
    steps
}

#[allow(clippy::too_many_arguments)]
fn step(
    g: &PropertyGraph,
    q: &PatternQuery,
    compiled: &NaiveCompiled,
    steps: &[NaiveStep],
    i: usize,
    injective: bool,
    partial: &ResultGraph,
    emit: &mut dyn FnMut(&ResultGraph) -> bool,
) -> bool {
    if i == steps.len() {
        return emit(partial);
    }
    match steps[i] {
        NaiveStep::Seed(vertex) => {
            let cv = compiled.vertex(vertex);
            for dv in g.vertex_ids() {
                if !cv.accepts(g, dv) {
                    continue;
                }
                if injective && partial.uses_data_vertex(dv) {
                    continue;
                }
                let mut next = partial.clone();
                next.bind_vertex(vertex, dv);
                if !step(g, q, compiled, steps, i + 1, injective, &next, emit) {
                    return false;
                }
            }
            true
        }
        NaiveStep::Expand { edge, from, to } => {
            let qe = q.edge(edge).expect("live");
            let ce = compiled.edge(edge);
            let cv_to = compiled.vertex(to);
            let bound = partial.vertex(from).expect("plan binds from first");
            let from_is_src = from == qe.src;
            let mut cands: Vec<(EdgeId, VertexId)> = Vec::new();
            if qe.directions.forward {
                if from_is_src {
                    for &de in g.out_edges(bound) {
                        cands.push((de, g.edge(de).dst));
                    }
                } else {
                    for &de in g.in_edges(bound) {
                        cands.push((de, g.edge(de).src));
                    }
                }
            }
            if qe.directions.backward {
                if from_is_src {
                    for &de in g.in_edges(bound) {
                        cands.push((de, g.edge(de).src));
                    }
                } else {
                    for &de in g.out_edges(bound) {
                        cands.push((de, g.edge(de).dst));
                    }
                }
            }
            cands.sort();
            cands.dedup();
            for (de, dv) in cands {
                if !ce.accepts(g.edge(de)) || !cv_to.accepts(g, dv) {
                    continue;
                }
                if injective && (partial.uses_data_vertex(dv) || partial.uses_data_edge(de)) {
                    continue;
                }
                let mut next = partial.clone();
                next.bind_vertex(to, dv);
                next.bind_edge(edge, de);
                if !step(g, q, compiled, steps, i + 1, injective, &next, emit) {
                    return false;
                }
            }
            true
        }
        NaiveStep::Close(edge) => {
            let qe = q.edge(edge).expect("live");
            let ce = compiled.edge(edge);
            let ms = partial.vertex(qe.src).expect("bound");
            let mt = partial.vertex(qe.dst).expect("bound");
            let mut cands: Vec<EdgeId> = Vec::new();
            if qe.directions.forward {
                for &de in g.out_edges(ms) {
                    if g.edge(de).dst == mt {
                        cands.push(de);
                    }
                }
            }
            if qe.directions.backward {
                for &de in g.out_edges(mt) {
                    if g.edge(de).dst == ms {
                        cands.push(de);
                    }
                }
            }
            cands.sort();
            cands.dedup();
            for de in cands {
                if !ce.accepts(g.edge(de)) {
                    continue;
                }
                if injective && partial.uses_data_edge(de) {
                    continue;
                }
                let mut next = partial.clone();
                next.bind_edge(edge, de);
                if !step(g, q, compiled, steps, i + 1, injective, &next, emit) {
                    return false;
                }
            }
            true
        }
    }
}

/// Enumerate result graphs with the naive engine.
pub fn find_matches_naive(
    g: &PropertyGraph,
    q: &PatternQuery,
    opts: MatchOptions,
) -> Vec<ResultGraph> {
    if q.num_vertices() == 0 {
        return Vec::new();
    }
    let compiled = NaiveCompiled::new(g, q);
    let cand_count = exact_candidate_counts(g, q, &compiled);
    let cap = opts.limit.unwrap_or(usize::MAX);
    let mut per_component: Vec<Vec<ResultGraph>> = Vec::new();
    for comp in q.weakly_connected_components() {
        let steps = naive_plan(q, &comp, &cand_count);
        let mut results = Vec::new();
        let root = ResultGraph::new();
        step(
            g,
            q,
            &compiled,
            &steps,
            0,
            opts.injective,
            &root,
            &mut |r| {
                results.push(r.clone());
                results.len() < cap
            },
        );
        if results.is_empty() {
            return Vec::new();
        }
        per_component.push(results);
    }
    let mut combined = per_component.remove(0);
    for comp in per_component {
        let mut next = Vec::new();
        'outer: for base in &combined {
            for extra in &comp {
                next.push(base.merged(extra));
                if next.len() >= cap {
                    break 'outer;
                }
            }
        }
        combined = next;
    }
    combined.truncate(cap);
    combined
}

/// Count result graphs with the naive engine, stopping early at the limit.
pub fn count_matches_naive(g: &PropertyGraph, q: &PatternQuery, opts: MatchOptions) -> u64 {
    if q.num_vertices() == 0 {
        return 0;
    }
    let compiled = NaiveCompiled::new(g, q);
    let cand_count = exact_candidate_counts(g, q, &compiled);
    let limit = opts.limit.map(|l| l as u64);
    let mut counts: Vec<u64> = Vec::new();
    for comp in q.weakly_connected_components() {
        let steps = naive_plan(q, &comp, &cand_count);
        let mut c: u64 = 0;
        let root = ResultGraph::new();
        step(
            g,
            q,
            &compiled,
            &steps,
            0,
            opts.injective,
            &root,
            &mut |_| {
                c += 1;
                limit.is_none_or(|l| c < l)
            },
        );
        if c == 0 {
            return 0;
        }
        counts.push(c);
    }
    let total = counts.into_iter().fold(1u64, u64::saturating_mul);
    match limit {
        Some(l) => total.min(l),
        None => total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::Value;
    use whyq_query::{Predicate, QueryBuilder};

    #[test]
    fn naive_matches_known_counts() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let b = g.add_vertex([("type", Value::str("person"))]);
        let c = g.add_vertex([("type", Value::str("person"))]);
        g.add_edge(a, b, "knows", []);
        g.add_edge(b, c, "knows", []);
        let q = QueryBuilder::new("pairs")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .edge("p1", "p2", "knows")
            .build();
        assert_eq!(count_matches_naive(&g, &q, MatchOptions::default()), 2);
        assert_eq!(find_matches_naive(&g, &q, MatchOptions::default()).len(), 2);
        assert_eq!(count_matches_naive(&g, &q, MatchOptions::limited(1)), 1);
    }
}
