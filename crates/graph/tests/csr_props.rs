//! Property-based equivalence of the sealed CSR adjacency and the
//! build-phase `Vec` adjacency: on arbitrary interleaved multigraphs —
//! self-loops, parallel edges, types arriving in any order — every
//! adjacency accessor must answer identically before and after `seal()`,
//! the CSR SoA columns must agree with the `EdgeData` arena, and a
//! mutation after sealing (the melt path) must land the graph back in a
//! consistent build state. The planner's statistics — the per-code counts
//! of every code column and the per-type run sizes — must equal a naive
//! recount, before and after attribute writes, and each arena's per-type
//! edge lists must hold every edge of the type once, in arena order.

use proptest::prelude::*;
use std::collections::HashSet;
use whyq_graph::{AttrMap, PropertyGraph, TypeRuns, Value, VertexId};

const TYPE_NAMES: [&str; 4] = ["knows", "livesIn", "worksAt", "self"];

/// Build a multigraph with `n` vertices and the given `(src, dst, ty)`
/// edge list (indices taken modulo `n`, so self-loops and parallel edges
/// occur naturally).
fn build(n: usize, edges: &[(u8, u8, u8)]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let vs: Vec<VertexId> = (0..n).map(|_| g.add_vertex([])).collect();
    for &(s, d, t) in edges {
        g.add_edge(
            vs[s as usize % n],
            vs[d as usize % n],
            TYPE_NAMES[t as usize % TYPE_NAMES.len()],
            [],
        );
    }
    g
}

/// Assert every adjacency accessor of `a` and `b` agrees on every vertex
/// and every edge type.
fn assert_adjacency_eq(a: &PropertyGraph, b: &PropertyGraph) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    let tys: Vec<_> = TYPE_NAMES.iter().filter_map(|t| a.type_symbol(t)).collect();
    for v in a.vertex_ids() {
        assert_eq!(a.out_edges(v), b.out_edges(v), "out_edges({v})");
        assert_eq!(a.in_edges(v), b.in_edges(v), "in_edges({v})");
        assert_eq!(a.degree(v), b.degree(v), "degree({v})");
        assert_eq!(
            a.incident(v).collect::<Vec<_>>(),
            b.incident(v).collect::<Vec<_>>(),
            "incident({v})"
        );
        for &ty in &tys {
            assert_eq!(a.out_edges_of(v, ty), b.out_edges_of(v, ty));
            assert_eq!(a.in_edges_of(v, ty), b.in_edges_of(v, ty));
        }
    }
}

/// The CSR columns must mirror the `EdgeData` arena entry by entry.
fn assert_columns_consistent(g: &PropertyGraph) {
    let topo = g.topology();
    for v in g.vertex_ids() {
        let out = topo.out_entries(v);
        for i in 0..out.len() {
            let ed = g.edge(out.edges[i]);
            assert_eq!(ed.src, v);
            assert_eq!(out.others[i], ed.dst);
            assert_eq!(out.types[i], ed.ty);
        }
        let inn = topo.in_entries(v);
        for i in 0..inn.len() {
            let ed = g.edge(inn.edges[i]);
            assert_eq!(ed.dst, v);
            assert_eq!(inn.others[i], ed.src);
            assert_eq!(inn.types[i], ed.ty);
        }
        // typed runs partition the full extent
        let typed_total: usize = TYPE_NAMES
            .iter()
            .filter_map(|t| g.type_symbol(t))
            .map(|ty| topo.out_entries_of(v, ty).len())
            .sum();
        assert_eq!(typed_total, out.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sealing must not change any observable adjacency, and the sealed
    /// columns must agree with the edge arena.
    #[test]
    fn sealed_graph_equals_vec_adjacency(
        n in 1usize..8,
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..24),
    ) {
        let unsealed = build(n, &edges);
        let mut sealed = unsealed.clone();
        sealed.seal();
        prop_assert!(sealed.is_sealed());
        assert_adjacency_eq(&unsealed, &sealed);
        assert_columns_consistent(&sealed);
        // the lazy topology cache of an unsealed graph is the same CSR
        assert_columns_consistent(&unsealed);
        assert_adjacency_eq(&unsealed, &sealed);
    }

    /// Every edge appears exactly once in `incident` of each endpoint —
    /// self-loops included (the historical double-count regression).
    #[test]
    fn incident_is_deduplicated_per_edge(
        n in 1usize..6,
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
    ) {
        let mut g = build(n, &edges);
        g.seal();
        for v in g.vertex_ids() {
            let mut seen = std::collections::HashSet::new();
            for (e, _) in g.incident(v) {
                prop_assert!(seen.insert(e), "edge {e} incident to {v} twice");
                let ed = g.edge(e);
                prop_assert!(ed.src == v || ed.dst == v);
            }
            // and none is missing: membership matches the edge arena
            for e in g.edge_ids() {
                let ed = g.edge(e);
                prop_assert_eq!(seen.contains(&e), ed.src == v || ed.dst == v);
            }
        }
    }

    /// Mutating a sealed graph melts it back into a consistent build
    /// state identical to a graph that was never sealed.
    #[test]
    fn melt_after_seal_stays_consistent(
        n in 1usize..6,
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..16),
        extra in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
    ) {
        let mut never_sealed = build(n, &edges);
        let mut melted = build(n, &edges);
        melted.seal();
        for &(s, d, t) in &extra {
            for g in [&mut never_sealed, &mut melted] {
                g.add_edge(
                    VertexId((s as usize % n) as u32),
                    VertexId((d as usize % n) as u32),
                    TYPE_NAMES[t as usize % TYPE_NAMES.len()],
                    [],
                );
            }
        }
        prop_assert!(!melted.is_sealed());
        assert_adjacency_eq(&never_sealed, &melted);
        // re-sealing after the melt reproduces the same CSR
        melted.seal();
        assert_adjacency_eq(&never_sealed, &melted);
        assert_columns_consistent(&melted);
    }
}

/// Vertex and edge attribute names of the statistics properties; `fresh`
/// is first written after sealing, so it never has a column.
const ATTRS: [&str; 5] = ["a", "b", "serial", "w", "fresh"];

/// A drawn attribute value: absent, a small number (an `Int` and an equal
/// `Float` share a code), a string, a boolean, or one of the two values
/// no code stands for (NaN, an `Int` beyond 2^53).
fn drawn(k: u8) -> Option<Value> {
    match k % 8 {
        0 => None,
        1 => Some(Value::Float(f64::NAN)),
        2 => Some(Value::Int((1 << 53) + 1 + i64::from(k))),
        3 | 4 => Some(Value::Int(i64::from(k % 5))),
        5 => Some(Value::Float(2.0)),
        6 => Some(Value::str(["x", "y", "z"][usize::from(k) % 3])),
        _ => Some(Value::Bool(k.is_multiple_of(2))),
    }
}

/// A graph with the drawn vertex attributes `a`/`b`, a `serial` number
/// per vertex (distinct on every vertex when `wide`: with 260 extra
/// vertices its column needs `u16` codes) and edges carrying `w`.
fn attributed(vals: &[(u8, u8)], wide: bool, edges: &[(u8, u8, u8, u8)]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let extra = if wide { 260 } else { 0 };
    let n = vals.len() + extra;
    for i in 0..n {
        let (x, y) = vals.get(i).copied().unwrap_or((0, 0));
        let serial = Value::Int(if wide { i as i64 } else { i as i64 % 7 });
        let attrs = [("a", drawn(x)), ("b", drawn(y)), ("serial", Some(serial))];
        g.add_vertex(attrs.into_iter().filter_map(|(k, v)| Some((k, v?))));
    }
    for &(s, d, t, w) in edges {
        g.add_edge(
            VertexId((s as usize % n) as u32),
            VertexId((d as usize % n) as u32),
            TYPE_NAMES[t as usize % TYPE_NAMES.len()],
            drawn(w).map(|v| ("w", v)),
        );
    }
    g
}

/// The per-code counts of every column, and the per-type run sizes of
/// both arenas, recounted element by element from the attribute maps and
/// the edge arena.
fn assert_statistics_recount(g: &PropertyGraph) {
    let topo = g.topology();
    let vertex_maps: Vec<&AttrMap> = g.vertex_ids().map(|v| &g.vertex(v).attrs).collect();
    let edge_maps: Vec<&AttrMap> = g.edge_ids().map(|e| &g.edge(e).attrs).collect();
    for (on_edges, maps) in [(false, &vertex_maps), (true, &edge_maps)] {
        for name in ATTRS {
            let Some(col) = g.attr_symbol(name).and_then(|s| topo.column(s, on_edges)) else {
                continue;
            };
            let sym = g.attr_symbol(name).unwrap();
            let mut counts = vec![0u32; col.dict().len()];
            let mut fallbacks = 0;
            for v in maps.iter().filter_map(|m| m.get(sym)) {
                let beyond = v.as_int().is_some_and(|i| i.unsigned_abs() > 1 << 53);
                let nan = v.as_f64().is_some_and(f64::is_nan);
                match col.dict().iter().position(|d| d == v) {
                    Some(rank) if !beyond && !nan => counts[rank] += 1,
                    _ => fallbacks += 1,
                }
            }
            assert_eq!(col.counts(), &counts[..], "{name} counts, edges {on_edges}");
            assert_eq!(
                col.fallbacks(),
                fallbacks,
                "{name} fallbacks, edges {on_edges}"
            );
        }
    }
    for ty in TYPE_NAMES.iter().filter_map(|t| g.type_symbol(t)) {
        let typed: Vec<_> = g
            .edge_ids()
            .map(|e| g.edge(e))
            .filter(|ed| ed.ty == ty)
            .collect();
        let runs = |ends: HashSet<VertexId>| TypeRuns {
            entries: typed.len() as u32,
            vertices: ends.len() as u32,
        };
        assert_eq!(
            topo.type_runs(ty, true),
            runs(typed.iter().map(|ed| ed.src).collect())
        );
        assert_eq!(
            topo.type_runs(ty, false),
            runs(typed.iter().map(|ed| ed.dst).collect())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The statistics equal a naive recount at sealing and after every
    /// write of a held value, a value the dictionary lacks and a value
    /// no code stands for — on narrow and wide columns, vertices and
    /// edges, with absent attributes and uncodable values.
    #[test]
    fn statistics_equal_a_recount(
        vals in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40),
        wide in any::<bool>(),
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
        writes in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..12),
    ) {
        let mut g = attributed(&vals, wide, &edges);
        g.seal();
        assert_statistics_recount(&g);
        let n = g.num_vertices();
        for &(v, attr, k) in &writes {
            let name = ["a", "b", "serial", "fresh"][usize::from(attr) % 4];
            let held = g
                .attr_symbol(name)
                .and_then(|s| g.topology().column(s, false))
                .filter(|col| !col.dict().is_empty())
                .map(|col| col.dict()[usize::from(k) % col.dict().len()].clone());
            let value = match (k % 3, held) {
                (0, Some(held)) => held,
                (1, _) => Value::Int(1000 + i64::from(k)),
                _ => drawn(1 + (k % 2)).unwrap(),
            };
            g.set_vertex_attr(VertexId(u32::from(v) % n as u32), name, value).unwrap();
            prop_assert!(g.is_sealed());
            assert_statistics_recount(&g);
        }
    }
}

/// Each arena's per-type edge lists, against a recount: a type's list in
/// a direction is the concatenation, over the vertices in id order, of
/// their runs of the type — so every edge of the type appears exactly
/// once, in arena order — and its length is the type's `entries`.
fn assert_type_edges_recount(g: &PropertyGraph) {
    let topo = g.topology();
    for ty in TYPE_NAMES.iter().filter_map(|t| g.type_symbol(t)) {
        for outgoing in [true, false] {
            let arena_order: Vec<_> = g
                .vertex_ids()
                .flat_map(|v| {
                    if outgoing {
                        topo.out_entries_of(v, ty).edges
                    } else {
                        topo.in_entries_of(v, ty).edges
                    }
                })
                .copied()
                .collect();
            let list = topo.type_edges(ty, outgoing);
            assert_eq!(list, &arena_order[..], "{ty:?} outgoing {outgoing}");
            assert_eq!(list.len(), topo.type_runs(ty, outgoing).entries as usize);
            let mut once: Vec<_> = list.to_vec();
            once.sort_unstable();
            let typed: Vec<_> = g.edge_ids().filter(|&e| g.edge(e).ty == ty).collect();
            assert_eq!(once, typed, "every edge of {ty:?} exactly once");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-type edge lists equal a recount when sealed, stay as they
    /// are under an attribute write, and are rebuilt after an edge or a
    /// vertex is added.
    #[test]
    fn type_edge_lists_equal_a_recount(
        n in 1usize..8,
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..32),
        extra in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut g = build(n, &edges);
        g.seal();
        assert_type_edges_recount(&g);
        g.set_vertex_attr(VertexId(0), "mood", Value::str("calm")).unwrap();
        prop_assert!(g.is_sealed());
        assert_type_edges_recount(&g);
        for &(s, d, t) in &extra {
            g.add_edge(
                VertexId((s as usize % n) as u32),
                VertexId((d as usize % n) as u32),
                TYPE_NAMES[t as usize % TYPE_NAMES.len()],
                [],
            );
            // the lazily rebuilt topology of the melted graph
            assert_type_edges_recount(&g);
        }
        g.add_vertex([]);
        g.seal();
        assert_type_edges_recount(&g);
    }
}
