//! Property-based verification of the matching engine against a
//! brute-force reference: on small random graphs and queries, the
//! prepared-query facade (eager `find`, early-terminating `count` and the
//! lazy `stream`) must produce exactly the assignments a naive
//! enumerate-all-mappings oracle accepts. A second suite checks the
//! compile-time refutation against the reference matcher.

use proptest::prelude::*;
use whyquery::graph::{EdgeId, PropertyGraph, VertexId};
use whyquery::matcher::compile::Compiled;
use whyquery::matcher::{count_matches_naive, Matcher, ResultGraph};
use whyquery::prelude::*;
use whyquery::query::{QEid, QVid, QueryEdge, QueryVertex};

fn build_graph(n: usize, types: &[u8], pairs: &[(u8, u8, bool)]) -> PropertyGraph {
    let names = ["red", "green", "blue"];
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|i| {
            g.add_vertex([(
                "type",
                Value::str(names[types[i % types.len()] as usize % 3]),
            )])
        })
        .collect();
    for &(a, b, t) in pairs {
        g.add_edge(
            vs[a as usize % n],
            vs[b as usize % n],
            if t { "link" } else { "flow" },
            [],
        );
    }
    g
}

fn build_query(len: usize, types: &[u8], etypes: &[bool], undirected: bool) -> PatternQuery {
    let names = ["red", "green", "blue"];
    let mut q = PatternQuery::new();
    let mut prev: Option<QVid> = None;
    for i in 0..len {
        let v = q.add_vertex(QueryVertex::with([Predicate::eq(
            "type",
            names[types[i % types.len()] as usize % 3],
        )]));
        if let Some(p) = prev {
            let mut e = QueryEdge::typed(
                p,
                v,
                if etypes[i % etypes.len()] {
                    "link"
                } else {
                    "flow"
                },
            );
            if undirected {
                e.directions = DirectionSet::BOTH;
            }
            q.add_edge(e);
        }
        prev = Some(v);
    }
    q
}

/// Brute force: enumerate every injective vertex assignment and every
/// injective choice of data edges per query edge; count accepted mappings.
fn brute_force_count(g: &PropertyGraph, q: &PatternQuery) -> u64 {
    let qvs: Vec<QVid> = q.vertex_ids().collect();
    let qes: Vec<QEid> = q.edge_ids().collect();
    let dvs: Vec<VertexId> = g.vertex_ids().collect();
    let mut count = 0u64;
    let mut assignment: Vec<VertexId> = Vec::new();
    enumerate_vertices(g, q, &qvs, &qes, &dvs, &mut assignment, &mut count);
    count
}

fn enumerate_vertices(
    g: &PropertyGraph,
    q: &PatternQuery,
    qvs: &[QVid],
    qes: &[QEid],
    dvs: &[VertexId],
    assignment: &mut Vec<VertexId>,
    count: &mut u64,
) {
    if assignment.len() == qvs.len() {
        // all vertices placed: check predicates already done; now count
        // injective edge assignments
        *count += count_edge_assignments(g, q, qvs, qes, assignment, 0, &mut Vec::new());
        return;
    }
    let qv = qvs[assignment.len()];
    let vx = q.vertex(qv).expect("live");
    for &dv in dvs {
        if assignment.contains(&dv) {
            continue;
        }
        let ok = vx
            .predicates
            .iter()
            .all(|p| p.matches(g.attr_symbol(&p.attr).and_then(|s| g.vertex_attr(dv, s))));
        if !ok {
            continue;
        }
        assignment.push(dv);
        enumerate_vertices(g, q, qvs, qes, dvs, assignment, count);
        assignment.pop();
    }
}

fn count_edge_assignments(
    g: &PropertyGraph,
    q: &PatternQuery,
    qvs: &[QVid],
    qes: &[QEid],
    assignment: &[VertexId],
    idx: usize,
    used: &mut Vec<EdgeId>,
) -> u64 {
    if idx == qes.len() {
        return 1;
    }
    let qe = q.edge(qes[idx]).expect("live");
    let ms = assignment[qvs.iter().position(|&v| v == qe.src).unwrap()];
    let mt = assignment[qvs.iter().position(|&v| v == qe.dst).unwrap()];
    let mut total = 0u64;
    for de in g.edge_ids() {
        if used.contains(&de) {
            continue;
        }
        let ed = g.edge(de);
        let fwd = qe.directions.forward && ed.src == ms && ed.dst == mt;
        let bwd = qe.directions.backward && ed.src == mt && ed.dst == ms;
        if !fwd && !bwd {
            continue;
        }
        let ty_ok = qe.types.is_empty() || qe.types.iter().any(|t| g.type_symbol(t) == Some(ed.ty));
        if !ty_ok {
            continue;
        }
        let preds_ok = qe
            .predicates
            .iter()
            .all(|p| p.matches(g.attr_symbol(&p.attr).and_then(|s| g.edge_attr(de, s))));
        if !preds_ok {
            continue;
        }
        used.push(de);
        total += count_edge_assignments(g, q, qvs, qes, assignment, idx + 1, used);
        used.pop();
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matcher_agrees_with_brute_force(
        n in 2usize..6,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        undirected in any::<bool>(),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes, undirected);
        let expected = brute_force_count(&g, &q);
        let db = Database::open(g).expect("open");
        let session = db.session();
        let prepared = session.prepare(&q).expect("valid query");
        let got = prepared.count().expect("count");
        prop_assert_eq!(got, expected, "matcher vs brute force");
        // find() agrees with count()
        let found = prepared.find().expect("find");
        prop_assert_eq!(found.len() as u64, expected);
        // the lazy stream yields exactly the eager result sequence
        let streamed: Vec<ResultGraph> = prepared.stream().collect();
        prop_assert_eq!(&streamed, &found, "stream vs find");
        // every found match is valid and distinct
        let g = db.graph();
        let mut seen: Vec<&ResultGraph> = Vec::new();
        for r in &found {
            prop_assert!(validate(g, &q, r));
            prop_assert!(!seen.contains(&r));
            seen.push(r);
        }
    }
}

/// Independent validity check of a result graph.
fn validate(g: &PropertyGraph, q: &PatternQuery, r: &ResultGraph) -> bool {
    // every live query element bound
    for v in q.vertex_ids() {
        let Some(dv) = r.vertex(v) else { return false };
        let vx = q.vertex(v).expect("live");
        if !vx
            .predicates
            .iter()
            .all(|p| p.matches(g.attr_symbol(&p.attr).and_then(|s| g.vertex_attr(dv, s))))
        {
            return false;
        }
    }
    for e in q.edge_ids() {
        let Some(de) = r.edge(e) else { return false };
        let qe = q.edge(e).expect("live");
        let ed = g.edge(de);
        let (ms, mt) = (r.vertex(qe.src).unwrap(), r.vertex(qe.dst).unwrap());
        let fwd = qe.directions.forward && ed.src == ms && ed.dst == mt;
        let bwd = qe.directions.backward && ed.src == mt && ed.dst == ms;
        if !fwd && !bwd {
            return false;
        }
    }
    // injectivity
    let mut vs: Vec<_> = r.vertex_bindings().iter().map(|&(_, v)| v).collect();
    vs.sort();
    vs.dedup();
    if vs.len() != r.num_vertices() {
        return false;
    }
    let mut es: Vec<_> = r.edge_bindings().iter().map(|&(_, e)| e).collect();
    es.sort();
    es.dedup();
    es.len() == r.num_edges()
}

/// A graph whose numeric attributes mix `Int`, `Float`, NaN and strings:
/// vertex `x` (numbers around 0..12, some NaN, some strings, some absent),
/// vertex `s` (strings only) and edge `w` (integers only, so the vertex
/// side of `w` stores no number at all).
fn build_numeric_graph(n: usize, xs: &[u8], pairs: &[(u8, u8, u8)]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|i| {
            let code = xs[i % xs.len()];
            let k = i64::from(code % 12);
            let x = match code % 5 {
                0 => Some(Value::Int(k)),
                1 => Some(Value::Float(k as f64 + 0.5)),
                2 => Some(Value::Float(f64::NAN)),
                3 => Some(Value::str("x")),
                _ => None,
            };
            let mut attrs = vec![("s", Value::str(["a", "b"][i % 2]))];
            attrs.extend(x.map(|x| ("x", x)));
            g.add_vertex(attrs)
        })
        .collect();
    for &(a, b, w) in pairs {
        g.add_edge(
            vs[a as usize % n],
            vs[b as usize % n],
            "link",
            [("w", Value::Int(i64::from(w % 8)))],
        );
    }
    g
}

/// A predicate drawn to hit every refutation: ranges in and out of the
/// observed range, NaN bounds, numeric constants in and out of it, a
/// string where a number is stored. `attrs` weights the attribute draw
/// toward the one the element stores numbers under, so that most drawn
/// queries still match and an over-eager refutation shows.
fn drawn_predicate(attrs: [&str; 6], attr: u8, kind: u8, a: u8, b: u8) -> Predicate {
    let attr = attrs[attr as usize % 6];
    let (a, b) = (f64::from(a % 20) - 4.0, f64::from(b % 20) - 4.0);
    let interval = match kind % 10 {
        0 | 1 => Interval::between(a.min(b), a.max(b)),
        2 => Interval::between(a, b),
        3 | 4 => Interval::at_least(a),
        5 => Interval::at_most(b),
        6 => Interval::between(f64::NAN, b),
        7 => Interval::one_of([Value::Int(a as i64), Value::Float(b + 0.5)]),
        8 => Interval::one_of([Value::Float(f64::NAN), Value::Int(b as i64)]),
        _ => Interval::eq("x"),
    };
    Predicate {
        attr: attr.into(),
        interval,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Compile-time refutation is sound: whenever the compiled query is
    /// unsatisfiable (out-of-range or NaN-bounded ranges, pruned numeric
    /// constants, contradictory predicates on one attribute), the
    /// reference counts 0. The session (analyzer first) and the bare
    /// matcher (no analyzer) both count what the reference counts.
    #[test]
    fn refuted_probes_count_zero(
        n in 3usize..8,
        xs in prop::collection::vec(any::<u8>(), 8),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..10),
        qlen in 1usize..4,
        vpreds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..3),
        epreds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..3),
    ) {
        let g = build_numeric_graph(n, &xs, &pairs);
        let mut q = PatternQuery::new();
        let vs: Vec<QVid> = (0..qlen).map(|_| q.add_vertex(QueryVertex::any())).collect();
        for (i, &(attr, kind, a, b)) in vpreds.iter().enumerate() {
            q.vertex_mut(vs[i % qlen])
                .expect("live")
                .predicates
                .push(drawn_predicate(["x", "x", "x", "x", "w", "s"], attr, kind, a, b));
        }
        let es: Vec<QEid> = vs
            .windows(2)
            .map(|w| q.add_edge(QueryEdge::typed(w[0], w[1], "link")))
            .collect();
        for (i, &(attr, kind, a, b)) in epreds.iter().enumerate() {
            if let Some(&e) = es.get(i % qlen) {
                q.edge_mut(e)
                    .expect("live")
                    .predicates
                    .push(drawn_predicate(["w", "w", "w", "w", "x", "s"], attr, kind, a, b));
            }
        }
        let reference = count_matches_naive(&g, &q, MatchOptions::default());
        if Compiled::new(&g, &q).unsatisfiable() {
            prop_assert_eq!(reference, 0, "refuted, yet the reference matches: {}", q.signature());
        }
        prop_assert_eq!(Matcher::new(&g).count(&q, MatchOptions::default()), reference);
        let db = Database::open(g).expect("open");
        prop_assert_eq!(db.session().count(&q).expect("valid query"), reference);
    }
}

/// An attribute value drawn to reach every kind of column code: absent,
/// `Int`s and `Float`s (equal pairs among them), `-0.0`, NaN, `Int`s
/// beyond 2^53 with a `Float` equal to two of them, `Bool`s and strings.
fn drawn_value(code: u8) -> Option<Value> {
    let big = 1i64 << 53;
    match code % 9 {
        0 => None,
        1 => Some(Value::Int(i64::from(code % 4))),
        2 => Some(Value::Float(f64::from(code % 8) / 2.0)),
        3 => Some(Value::Float(-0.0)),
        4 => Some(Value::Float(f64::NAN)),
        5 => Some(Value::Int(big + i64::from(code % 3))),
        6 => Some(Value::Float(big as f64)),
        7 => Some(Value::Bool(code.is_multiple_of(2))),
        _ => Some(Value::str(["a", "b", "c"][usize::from(code % 3)])),
    }
}

/// A predicate on `attr` drawn from `code`: a `Range` whose bounds are
/// open, closed, absent or NaN, or a `OneOf` whose constants are
/// numbers, strings or both, some absent from every dictionary.
fn column_predicate(attr: &str, code: u16) -> Predicate {
    let bounds = [
        None,
        Some(-1.0),
        Some(0.0),
        Some(-0.0),
        Some(1.0),
        Some(1.5),
        Some(3.0),
        Some((1u64 << 53) as f64),
        Some(f64::NAN),
        Some(300.0),
    ];
    let constants = [
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(-0.0),
        Value::str("a"),
        Value::str("zz"),
        Value::Bool(true),
        Value::Int((1 << 53) + 1),
        Value::Float(f64::NAN),
        Value::Int(270),
        Value::Float(2.5),
    ];
    let interval = if code & 1 == 0 {
        let c = usize::from(code >> 1);
        Interval::Range {
            lo: bounds[c % 10],
            hi: bounds[(c / 10) % 10],
            lo_incl: c & 0x100 != 0,
            hi_incl: c & 0x200 != 0,
        }
    } else {
        let mask = code >> 1;
        let vals: Vec<Value> = (0..constants.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| constants[i].clone())
            .collect();
        Interval::OneOf(if vals.is_empty() {
            vec![constants[usize::from(mask % 10)].clone()]
        } else {
            vals
        })
    };
    Predicate {
        attr: attr.into(),
        interval,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine's code columns answer exactly what the attribute maps
    /// do. Vertices and edges store every kind of value (see
    /// [`drawn_value`]); filler vertices give `k` a dictionary too large
    /// for one-byte codes; some writes after sealing store a value the
    /// dictionary holds, one it lacks, or a new attribute. Queried with
    /// ranges and disjunctions of every shape on vertices and edges, the
    /// bare matcher and the session count what the reference counts, and
    /// `find` finds as many.
    #[test]
    fn attribute_columns_agree_with_reference(
        n in 2usize..9,
        values in prop::collection::vec((any::<u8>(), any::<u8>()), 9),
        writes in prop::collection::vec((any::<u8>(), 0u8..3, any::<u8>()), 0..4),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..14),
        qlen in 1usize..4,
        vpreds in prop::collection::vec((0u8..4, any::<u16>(), 0u8..6, any::<u16>()), 3),
        epreds in prop::collection::vec((any::<bool>(), any::<u16>()), 2),
        undirected in any::<bool>(),
    ) {
        let mut g = PropertyGraph::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|i| {
                let (x, k) = values[i];
                let mut attrs: Vec<(&str, Value)> = Vec::new();
                attrs.extend(drawn_value(x).map(|v| ("x", v)));
                attrs.extend(drawn_value(k).map(|v| ("k", v)));
                g.add_vertex(attrs)
            })
            .collect();
        for i in 0..260 {
            g.add_vertex([("k", Value::Int(i))]);
        }
        for &(a, b, w) in &pairs {
            let (a, b) = (vs[a as usize % n], vs[b as usize % n]);
            g.add_edge(a, b, "link", drawn_value(w).map(|v| ("w", v)));
        }
        g.seal();
        for &(v, attr, x) in &writes {
            let val = drawn_value(x).unwrap_or(Value::Float(9.25));
            g.set_vertex_attr(vs[v as usize % n], ["x", "k", "fresh"][usize::from(attr)], val)
                .expect("in range");
        }
        // per query vertex: up to two predicates on its side's attributes;
        // per query edge: none or one
        let attrs = ["x", "k", "fresh"];
        let mut q = PatternQuery::new();
        let qv: Vec<QVid> = (0..qlen)
            .map(|i| {
                let (a, code, b, code2) = vpreds[i];
                let preds = [(a, code), (b, code2)].into_iter().filter_map(|(a, code)| {
                    attrs.get(usize::from(a)).map(|a| column_predicate(a, code))
                });
                q.add_vertex(QueryVertex::with(preds))
            })
            .collect();
        for (w, &(tested, code)) in qv.windows(2).zip(&epreds) {
            let mut e = QueryEdge::typed(w[0], w[1], "link");
            if tested {
                e.predicates.push(column_predicate("w", code));
            }
            if undirected {
                e.directions = DirectionSet::BOTH;
            }
            q.add_edge(e);
        }
        let reference = count_matches_naive(&g, &q, MatchOptions::default());
        prop_assert_eq!(Matcher::new(&g).count(&q, MatchOptions::default()), reference);
        let db = Database::open(g).expect("open");
        let session = db.session();
        let prepared = session.prepare(&q).expect("valid query");
        prop_assert_eq!(prepared.count().expect("count"), reference);
        prop_assert_eq!(prepared.find().expect("find").len() as u64, reference);
    }
}
