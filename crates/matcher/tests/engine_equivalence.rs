//! Property-based equivalence of the slot-based engine and the naive
//! reference engine: on random small graphs and queries the two must return
//! the same match sets and the same counts — injectively, homomorphically,
//! with and without result limits, and with or without an attribute index.

use proptest::prelude::*;
use std::sync::Arc;
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::{
    count_matches_naive, find_matches_naive, AttrIndex, MatchOptions, Matcher, ResultGraph,
};
use whyq_query::{DirectionSet, PatternQuery, Predicate, QVid, QueryEdge, QueryVertex};

/// Matcher with a freshly built `"type"` index (none when the attribute
/// occurs nowhere in the graph).
fn indexed_by_type(g: &PropertyGraph) -> Matcher<'_> {
    let mut m = Matcher::new(g);
    if let Some(idx) = AttrIndex::build(g, "type") {
        m.attach_index(Arc::new(idx));
    }
    m
}

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

/// One match in canonical form: (vertex bindings, edge bindings) as raw ids.
type CanonicalMatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Canonical form of a match set: sorted binding lists, sorted overall.
fn canonical(results: &[ResultGraph]) -> Vec<CanonicalMatch> {
    let mut out: Vec<_> = results
        .iter()
        .map(|r| {
            (
                r.vertex_bindings()
                    .iter()
                    .map(|&(q, d)| (q.0, d.0))
                    .collect::<Vec<_>>(),
                r.edge_bindings()
                    .iter()
                    .map(|&(q, d)| (q.0, d.0))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Injective and homomorphic counts and match sets agree with the naive
    /// reference, with and without the attribute index.
    #[test]
    fn slot_engine_equals_naive_reference(
        n in 2usize..6,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        undirected in any::<bool>(),
        injective in any::<bool>(),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes, undirected);
        let opts = MatchOptions { injective, limit: None, ..Default::default() };

        let naive_count = count_matches_naive(&g, &q, opts.clone());
        let naive_set = canonical(&find_matches_naive(&g, &q, opts.clone()));

        let plain = Matcher::new(&g);
        prop_assert_eq!(plain.count(&q, opts.clone()), naive_count);
        prop_assert_eq!(canonical(&plain.find(&q, opts.clone())), naive_set.clone());

        let indexed = indexed_by_type(&g);
        prop_assert_eq!(indexed.count(&q, opts.clone()), naive_count);
        prop_assert_eq!(canonical(&indexed.find(&q, opts.clone())), naive_set);
    }

    /// Limits clamp identically: `min(total, limit)` results/counts.
    #[test]
    fn limits_clamp_like_naive_reference(
        n in 2usize..6,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..3, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        limit in 1usize..5,
        injective in any::<bool>(),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes, false);
        let total = count_matches_naive(
            &g,
            &q,
            MatchOptions { injective, limit: None, ..Default::default() },
        );
        let opts = MatchOptions { injective, limit: Some(limit), ..Default::default() };
        let expect = total.min(limit as u64);

        let m = Matcher::new(&g);
        prop_assert_eq!(m.count(&q, opts.clone()), expect);
        prop_assert_eq!(m.find(&q, opts.clone()).len() as u64, expect);
        prop_assert_eq!(count_matches_naive(&g, &q, opts.clone()), expect);
        prop_assert_eq!(find_matches_naive(&g, &q, opts.clone()).len() as u64, expect);
    }

    /// String-predicate queries — including `OneOf` disjunctions carrying
    /// constants the graph has never stored, which the optimized engine
    /// prunes through the value dictionary at compile time — agree with
    /// the oracle's decoded-string evaluation. Vertices carry a second
    /// string attribute so multi-predicate conjunctions are exercised too.
    #[test]
    fn string_predicate_queries_agree_with_oracle(
        n in 2usize..6,
        vtypes in prop::collection::vec(0u8..3, 6),
        vlabels in prop::collection::vec(0u8..4, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
        qlen in 1usize..4,
        // 0..3 are stored type names, 3.. are strings absent from every
        // graph (dictionary-pruned); each query vertex gets a disjunction
        qdisj in prop::collection::vec(prop::collection::vec(0u8..5, 1..3), 4),
        qlabel in prop::collection::vec(0u8..6, 4),
        injective in any::<bool>(),
    ) {
        let names = ["red", "green", "blue", "ultraviolet", "infrared"];
        let labels = ["ok", "warn", "err", "mute", "ghost", "wraith"];
        let mut g = PropertyGraph::new();
        let vs: Vec<_> = (0..n)
            .map(|i| {
                g.add_vertex([
                    ("type", Value::str(names[vtypes[i % vtypes.len()] as usize % 3])),
                    ("label", Value::str(labels[vlabels[i % vlabels.len()] as usize % 4])),
                ])
            })
            .collect();
        for &(a, b, t) in &pairs {
            g.add_edge(
                vs[a as usize % n],
                vs[b as usize % n],
                if t { "link" } else { "flow" },
                [],
            );
        }
        let mut q = PatternQuery::new();
        let mut prev: Option<QVid> = None;
        for i in 0..qlen {
            let disj: Vec<&str> = qdisj[i % qdisj.len()]
                .iter()
                .map(|&d| names[d as usize % names.len()])
                .collect();
            let v = q.add_vertex(QueryVertex::with([
                Predicate::one_of("type", disj),
                Predicate::eq("label", labels[qlabel[i % qlabel.len()] as usize % labels.len()]),
            ]));
            if let Some(p) = prev {
                q.add_edge(QueryEdge::typed(p, v, "link"));
            }
            prev = Some(v);
        }
        let opts = MatchOptions { injective, limit: None, ..Default::default() };

        let naive_count = count_matches_naive(&g, &q, opts.clone());
        let naive_set = canonical(&find_matches_naive(&g, &q, opts.clone()));

        let plain = Matcher::new(&g);
        prop_assert_eq!(plain.count(&q, opts.clone()), naive_count);
        prop_assert_eq!(canonical(&plain.find(&q, opts.clone())), naive_set.clone());

        let indexed = indexed_by_type(&g);
        prop_assert_eq!(indexed.count(&q, opts.clone()), naive_count);
        prop_assert_eq!(canonical(&indexed.find(&q, opts.clone())), naive_set);
    }

    /// Multi-component queries (isolated vertices) multiply identically.
    #[test]
    fn disconnected_components_agree(
        n in 2usize..5,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
        parts in prop::collection::vec(0u8..3, 1..4),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let names = ["red", "green", "blue"];
        let mut q = PatternQuery::new();
        for &t in &parts {
            q.add_vertex(QueryVertex::with([Predicate::eq(
                "type",
                names[t as usize % 3],
            )]));
        }
        let opts = MatchOptions::default();
        let m = Matcher::new(&g);
        prop_assert_eq!(
            m.count(&q, opts.clone()),
            count_matches_naive(&g, &q, opts.clone())
        );
        prop_assert_eq!(
            canonical(&m.find(&q, opts.clone())),
            canonical(&find_matches_naive(&g, &q, opts.clone()))
        );
    }
}
