//! Seed-selection equivalence: programs compiled with and without the
//! optimizer's one pass, executed through every execution mode, must
//! enumerate exactly the matches the brute-force reference accepts.
//!
//! For each randomized graph/query pair and both settings of
//! [`PassSet::seed_select`] the suite checks:
//!
//! - the lowered IR passes [`verify_ir`] after optimization;
//! - serial `find`/`count` on the compiled program equal the naive
//!   reference (canonical multiset comparison);
//! - the streamed enumeration yields the identical result *list*;
//! - a step-budgeted (governed) run yields a prefix of the serial list;
//! - concatenating [`WorkUnit`] executions over every seed split equals
//!   the serial list (the substrate of `find_par`/`count_par`).
//!
//! The reference is the only oracle, so the generated queries reach every
//! IR node kind and seed source: chains optionally closed into a cycle
//! (`CloseRun`), two indexed equality predicates on one seed (an
//! `Intersect` source), an optional second disconnected component
//! (cartesian combination, also under `MatchStream`), injective and
//! homomorphic matching.

use proptest::prelude::*;
use std::sync::Arc;
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::budget::Budget;
use whyq_matcher::compile::{build_plans_est, Compiled};
use whyq_matcher::{
    count_matches_naive, find_matches_naive, lower, optimize, verify_ir, AttrIndex, MatchOptions,
    MatchStream, Matcher, PassSet, QueryProgram, ResultGraph, WorkUnit,
};
use whyq_query::{DirectionSet, PatternQuery, Predicate, QVid, QueryEdge, QueryVertex};

fn build_graph(n: usize, types: &[u8], pairs: &[(u8, u8, bool)]) -> PropertyGraph {
    let names = ["red", "green", "blue"];
    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..n)
        .map(|i| {
            g.add_vertex([
                (
                    "type",
                    Value::str(names[types[i % types.len()] as usize % 3]),
                ),
                // a second indexed attribute so seed_select can find
                // point-probe intersections to rewrite
                ("rank", Value::Int((i % 2) as i64)),
            ])
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

/// Append one chain component of `len` vertices to `q`; `close` adds an
/// edge from the last vertex back to the first, which the planner must
/// bind with a closing scan.
fn add_chain(
    q: &mut PatternQuery,
    len: usize,
    types: &[u8],
    etypes: &[bool],
    undirected: bool,
    rank_pred: bool,
    close: bool,
) {
    let names = ["red", "green", "blue"];
    let edge = |q: &mut PatternQuery, i: usize, src: QVid, dst: QVid| {
        let ty = if etypes[i % etypes.len()] {
            "link"
        } else {
            "flow"
        };
        let mut e = QueryEdge::typed(src, dst, ty);
        if undirected {
            e.directions = DirectionSet::BOTH;
        }
        q.add_edge(e);
    };
    let mut chain: Vec<QVid> = Vec::with_capacity(len);
    for i in 0..len {
        // a type value past the palette leaves the vertex untyped
        let mut preds: Vec<Predicate> = names
            .get(types[i % types.len()] as usize)
            .map(|name| Predicate::eq("type", *name))
            .into_iter()
            .collect();
        if rank_pred && i == 0 {
            // two equality predicates on the same vertex exercise the
            // intersection seed source
            preds.push(Predicate::eq("rank", 0));
        }
        let v = q.add_vertex(QueryVertex::with(preds));
        if let Some(&p) = chain.last() {
            edge(q, i, p, v);
        }
        chain.push(v);
    }
    if close && len >= 2 {
        edge(q, 0, chain[len - 1], chain[0]);
    }
}

/// A chain of `len` vertices, optionally closed into a cycle, plus an
/// optional second disconnected chain of `second_len` vertices.
fn build_query(
    len: usize,
    types: &[u8],
    etypes: &[bool],
    undirected: bool,
    rank_pred: bool,
    close: bool,
    second_len: usize,
) -> PatternQuery {
    let mut q = PatternQuery::new();
    add_chain(&mut q, len, types, etypes, undirected, rank_pred, close);
    if second_len > 0 {
        add_chain(
            &mut q,
            second_len,
            &types[1..],
            etypes,
            undirected,
            false,
            false,
        );
    }
    q
}

/// One match in canonical form: (vertex bindings, edge bindings).
type CanonicalMatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

fn canonical(results: &[ResultGraph]) -> Vec<CanonicalMatch> {
    let mut out: Vec<_> = results
        .iter()
        .map(|r| {
            (
                r.vertex_bindings()
                    .iter()
                    .map(|&(qv, d)| (qv.0, d.0))
                    .collect::<Vec<_>>(),
                r.edge_bindings()
                    .iter()
                    .map(|&(qe, d)| (qe.0, d.0))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    out.sort();
    out
}

fn indexes_for(g: &PropertyGraph) -> Vec<Arc<AttrIndex>> {
    ["type", "rank"]
        .iter()
        .filter_map(|a| AttrIndex::build(g, a).map(Arc::new))
        .collect()
}

/// Concatenate every work unit of every component under a `chunks`-way
/// seed split — must reproduce the serial enumeration exactly.
fn run_units(
    m: &Matcher<'_>,
    q: &PatternQuery,
    compiled: &Compiled,
    program: &QueryProgram,
    chunks: usize,
    opts: &MatchOptions,
) -> Vec<ResultGraph> {
    let mut per_component = Vec::new();
    for (component, prog) in program.components().iter().enumerate() {
        let seeds = m.seed_list_for(prog);
        let mut merged = Vec::new();
        for range in whyq_matcher::split_ranges(seeds.len(), chunks) {
            let unit = WorkUnit { component, range };
            merged.extend(m.find_unit(q, compiled, program, &unit, &seeds, opts.clone()));
        }
        if merged.is_empty() {
            return Vec::new();
        }
        per_component.push(merged);
    }
    whyq_matcher::combine_components(per_component, usize::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Seed selection on and off, each verified and result-equivalent to
    /// the reference across serial, streamed, governed and unit modes.
    #[test]
    fn pass_power_set_is_result_equivalent(
        n in 2usize..8,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..20),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..4, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        undirected in any::<bool>(),
        rank_pred in any::<bool>(),
        close_cycle in any::<bool>(),
        second_len in 0usize..3,
        injective in any::<bool>(),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &qetypes, undirected, rank_pred, close_cycle, second_len);
        let indexes = indexes_for(&g);
        let opts = MatchOptions { injective, ..MatchOptions::default() };

        let naive_count = count_matches_naive(&g, &q, opts.clone());
        let naive_set = canonical(&find_matches_naive(&g, &q, opts.clone()));

        let mut m = Matcher::new(&g);
        for idx in &indexes {
            m.attach_index(Arc::clone(idx));
        }

        for seed_select in [false, true] {
            let passes = PassSet { seed_select };

            // the IR stays verifiable after optimization
            let compiled = Compiled::new(&g, &q);
            if !compiled.unsatisfiable() {
                let (plans, est) = build_plans_est(&g, &q, &compiled, &indexes);
                let mut ir = lower(&compiled, &plans, &est);
                optimize(&mut ir, &g, &q, &compiled, &indexes, passes);
                prop_assert!(
                    verify_ir(&q, &compiled, &ir, indexes.len()).is_ok(),
                    "verify_ir failed for seed_select {seed_select}"
                );
            }

            let cq = m.compile_with_passes(&q, passes);

            // serial vs reference
            let serial = m.find_compiled(&q, &cq.compiled, &cq.program, opts.clone());
            prop_assert_eq!(canonical(&serial), naive_set.clone(), "seed_select {}", seed_select);
            prop_assert_eq!(
                m.count_compiled(&q, &cq.compiled, &cq.program, opts.clone()),
                naive_count,
                "seed_select {}", seed_select
            );

            // streamed: identical list, not just multiset
            let streamed: Vec<ResultGraph> = MatchStream::over(
                &g,
                indexes.clone(),
                Arc::new(q.clone()),
                Arc::new(cq.compiled.clone()),
                Arc::new(cq.program.clone()),
                opts.clone(),
            )
            .collect();
            prop_assert_eq!(&streamed, &serial, "stream diverged for seed_select {}", seed_select);

            // governed: a small step budget yields a prefix of the serial
            // list (sticky trip ⇒ no holes)
            let governed = m.find_compiled(
                &q,
                &cq.compiled,
                &cq.program,
                opts.clone().with_budget(Budget::steps(2048)),
            );
            prop_assert!(
                governed.len() <= serial.len()
                    && governed.as_slice() == &serial[..governed.len()],
                "governed run is not a serial prefix for seed_select {seed_select}"
            );

            // unit protocol: every split concatenates to the serial list
            for chunks in [1usize, 3] {
                let merged = run_units(&m, &q, &cq.compiled, &cq.program, chunks, &opts);
                prop_assert_eq!(&merged, &serial, "units diverged for seed_select {}", seed_select);
            }
        }
    }

    /// Limits behave identically with seed selection on and off:
    /// `min(C(Q), limit)` counts and capped find sizes.
    #[test]
    fn limits_are_pass_independent(
        n in 2usize..5,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..8),
        qlen in 1usize..3,
        qtypes in prop::collection::vec(0u8..3, 4),
        limit in 1usize..4,
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let q = build_query(qlen, &qtypes, &[true], false, false, false, 0);
        let indexes = indexes_for(&g);
        let mut m = Matcher::new(&g);
        for idx in &indexes {
            m.attach_index(Arc::clone(idx));
        }
        let full = m.count(&q, MatchOptions::default());
        for seed_select in [false, true] {
            let cq = m.compile_with_passes(&q, PassSet { seed_select });
            let capped = m.count_compiled(&q, &cq.compiled, &cq.program,
                MatchOptions::counting(Some(limit as u64)));
            prop_assert_eq!(capped, full.min(limit as u64));
            let found = m.find_compiled(&q, &cq.compiled, &cq.program,
                MatchOptions::limited(limit));
            prop_assert_eq!(found.len() as u64, full.min(limit as u64));
        }
    }
}
