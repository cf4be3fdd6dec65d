//! Pass equivalence: programs compiled under every [`PassSet`] — seed
//! selection on and off, edge seeds on and off — executed through every
//! execution mode, must enumerate exactly the matches the brute-force
//! reference accepts.
//!
//! For each randomized graph/query pair and each pass set the suite
//! checks:
//!
//! - the lowered IR passes [`verify_ir`] after optimization;
//! - serial `find`/`count` on the compiled program equal the naive
//!   reference (canonical multiset comparison);
//! - a program seeded at an edge yields the same result *list* as the
//!   vertex-seeded plan of the same walk;
//! - the streamed enumeration yields the identical result *list*;
//! - a step-budgeted (governed) run yields a prefix of the serial list;
//! - concatenating [`WorkUnit`] executions over every seed split equals
//!   the serial list (the substrate of `find_par`/`count_par`).
//!
//! On larger graphs, a step-budgeted count and a step-budgeted find of
//! one program trip on the same candidate.
//!
//! The reference is the only oracle, so the generated queries reach every
//! IR node kind and seed source: chains optionally closed into a cycle
//! (`CloseRun`), two indexed equality predicates on one seed (an
//! `Intersect` source), typed one-way edges walked either way (an
//! `EdgeSeed` over either arena's list), an edge predicate, an optional
//! second disconnected component (cartesian combination, also under
//! `MatchStream`), injective and homomorphic matching.

use proptest::prelude::*;
use std::sync::Arc;
use whyq_graph::{PropertyGraph, Value};
use whyq_matcher::budget::Budget;
use whyq_matcher::compile::{build_plans_with, Compiled};
use whyq_matcher::{
    count_matches_naive, find_matches_naive, lower, optimize, verify_ir, AttrIndex, MatchOptions,
    MatchStream, Matcher, PassSet, QueryProgram, ResultGraph, WorkUnit,
};
use whyq_query::{DirectionSet, PatternQuery, Predicate, QVid, QueryEdge, QueryVertex};

/// The four pass sets.
const PASS_SETS: [PassSet; 4] = [
    PassSet {
        seed_select: false,
        edge_seed: false,
    },
    PassSet {
        seed_select: false,
        edge_seed: true,
    },
    PassSet {
        seed_select: true,
        edge_seed: false,
    },
    PassSet {
        seed_select: true,
        edge_seed: true,
    },
];

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
            [("w", Value::Int(i64::from(a % 3)))],
        );
    }
    g
}

/// How a chain's edges are directed.
#[derive(Debug, Clone, Copy)]
struct EdgeShape {
    /// Both ways.
    undirected: bool,
    /// Backward only (when not `undirected`).
    backward: bool,
    /// The first edge tests `w = 1`.
    weighted: bool,
}

/// Append one chain component of `len` vertices to `q`; `close` adds an
/// edge from the last vertex back to the first, which the planner must
/// bind with a closing scan.
fn add_chain(
    q: &mut PatternQuery,
    len: usize,
    types: &[u8],
    etypes: &[bool],
    shape: EdgeShape,
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
        if shape.undirected {
            e.directions = DirectionSet::BOTH;
        } else if shape.backward {
            e.directions = DirectionSet::BACKWARD;
        }
        if shape.weighted && i == 1 {
            e.predicates.push(Predicate::eq("w", 1));
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
    shape: EdgeShape,
    rank_pred: bool,
    close: bool,
    second_len: usize,
) -> PatternQuery {
    let mut q = PatternQuery::new();
    add_chain(&mut q, len, types, etypes, shape, rank_pred, close);
    if second_len > 0 {
        add_chain(&mut q, second_len, &types[1..], etypes, shape, false, false);
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

    /// Every pass set, each verified and result-equivalent to the
    /// reference across serial, streamed, governed and unit modes; an
    /// edge seed enumerates in the order of its walk's vertex seed.
    #[test]
    fn pass_power_set_is_result_equivalent(
        n in 2usize..8,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..20),
        qlen in 1usize..4,
        qtypes in prop::collection::vec(0u8..4, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        shape in (any::<bool>(), any::<bool>(), any::<bool>()),
        rank_pred in any::<bool>(),
        close_cycle in any::<bool>(),
        second_len in 0usize..3,
        injective in any::<bool>(),
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let shape = EdgeShape { undirected: shape.0, backward: shape.1, weighted: shape.2 };
        let q = build_query(qlen, &qtypes, &qetypes, shape, rank_pred, close_cycle, second_len);
        let indexes = indexes_for(&g);
        let opts = MatchOptions { injective, ..MatchOptions::default() };

        let naive_count = count_matches_naive(&g, &q, opts.clone());
        let naive_set = canonical(&find_matches_naive(&g, &q, opts.clone()));

        let mut m = Matcher::new(&g);
        for idx in &indexes {
            m.attach_index(Arc::clone(idx));
        }

        let mut vertex_seeded = Vec::new();
        for passes in PASS_SETS {
            // the IR stays verifiable after optimization
            let compiled = Compiled::new(&g, &q);
            if !compiled.unsatisfiable() {
                let (plans, est) =
                    build_plans_with(&g, &q, &compiled, &indexes, passes.edge_seed);
                let mut ir = lower(&compiled, &plans, &est);
                optimize(&mut ir, &g, &q, &compiled, &indexes, passes);
                prop_assert!(
                    verify_ir(&q, &compiled, &ir, indexes.len()).is_ok(),
                    "verify_ir failed for {passes:?}"
                );
            }

            let cq = m.compile_with_passes(&q, passes);

            // serial vs reference
            let serial = m.find_compiled(&q, &cq.compiled, &cq.program, opts.clone());
            prop_assert_eq!(canonical(&serial), naive_set.clone(), "{:?}", passes);
            prop_assert_eq!(
                m.count_compiled(&q, &cq.compiled, &cq.program, opts.clone()),
                naive_count,
                "{:?}", passes
            );

            // edge seeds: the very list of the same walk seeded at a vertex
            if passes.edge_seed {
                prop_assert_eq!(&serial, &vertex_seeded, "edge seed reordered {:?}", passes);
            } else {
                vertex_seeded = serial.clone();
            }

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
            prop_assert_eq!(&streamed, &serial, "stream diverged for {:?}", passes);

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
                "governed run is not a serial prefix for {passes:?}"
            );

            // unit protocol: every split concatenates to the serial list
            for chunks in [1usize, 3] {
                let merged = run_units(&m, &q, &cq.compiled, &cq.program, chunks, &opts);
                prop_assert_eq!(&merged, &serial, "units diverged for {:?}", passes);
            }
        }
    }

    /// Limits behave identically under every pass set:
    /// `min(C(Q), limit)` counts and capped find sizes. The queries reach
    /// every scan kind as the last one — the scan a count runs in count
    /// mode, where the cap stops it: a seed scan (one vertex), an edge
    /// seed (one typed one-way edge), an expansion (a longer chain, or a
    /// both-way edge) and a close (a cycle), injective and homomorphic.
    #[test]
    fn limits_are_pass_independent(
        n in 2usize..8,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..24),
        qlen in 1usize..5,
        // most query vertices untyped: their walks tend to seed at an
        // edge, and match often
        qtypes in prop::collection::vec(0u8..8, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        // one chain in four both-way, one in three closed: mostly
        // one-way chains, which an edge seed needs
        both_ways in 0u8..4,
        shape in (any::<bool>(), any::<bool>()),
        cycle in 0u8..3,
        injective in any::<bool>(),
        limit in 1usize..4,
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let shape = EdgeShape { undirected: both_ways == 0, backward: shape.0, weighted: shape.1 };
        let q = build_query(qlen, &qtypes, &qetypes, shape, false, cycle == 0, 0);
        let indexes = indexes_for(&g);
        let mut m = Matcher::new(&g);
        for idx in &indexes {
            m.attach_index(Arc::clone(idx));
        }
        let opts = MatchOptions { injective, ..MatchOptions::default() };
        let full = m.count(&q, opts.clone());
        let capped_opts = MatchOptions { limit: Some(limit), ..opts };
        for passes in PASS_SETS {
            let cq = m.compile_with_passes(&q, passes);
            let capped = m.count_compiled(&q, &cq.compiled, &cq.program, capped_opts.clone());
            prop_assert_eq!(capped, full.min(limit as u64));
            // the one component's count stops at the cap inside the VM
            if let Some(prog) = cq.program.components().first() {
                let seeds = m.seed_list_for(prog);
                let unit = WorkUnit::whole(0, &seeds);
                let counted = m.count_unit(&q, &cq.compiled, &cq.program, &unit, &seeds,
                    capped_opts.clone());
                prop_assert_eq!(counted, full.min(limit as u64));
            }
            let found = m.find_compiled(&q, &cq.compiled, &cq.program, capped_opts.clone());
            prop_assert_eq!(found.len() as u64, full.min(limit as u64));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On graphs large enough for a step budget to trip mid-run, a
    /// budgeted count and a budgeted find of one program — seeded at a
    /// vertex or at an edge — stop on the same candidate: the count equals
    /// the number of rows the find emitted, and those rows are a prefix
    /// of the unbudgeted list.
    #[test]
    fn budgeted_count_and_find_trip_together(
        n in 8usize..24,
        vtypes in prop::collection::vec(0u8..3, 6),
        pairs in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 200..600),
        qlen in 2usize..5,
        // most query vertices untyped: their walks tend to seed at an edge
        qtypes in prop::collection::vec(0u8..8, 4),
        qetypes in prop::collection::vec(any::<bool>(), 4),
        shape in (any::<bool>(), any::<bool>()),
        injective in any::<bool>(),
        steps in 1u64..3000,
    ) {
        let g = build_graph(n, &vtypes, &pairs);
        let shape = EdgeShape { undirected: false, backward: shape.0, weighted: shape.1 };
        let q = build_query(qlen, &qtypes, &qetypes, shape, false, false, 0);
        let m = Matcher::new(&g);
        let opts = MatchOptions { injective, ..MatchOptions::default() };
        for passes in PASS_SETS {
            let cq = m.compile_with_passes(&q, passes);
            let all = m.find_compiled(&q, &cq.compiled, &cq.program, opts.clone());
            let budgeted = || opts.clone().with_budget(Budget::steps(steps));
            let found = m.find_compiled(&q, &cq.compiled, &cq.program, budgeted());
            let counted = m.count_compiled(&q, &cq.compiled, &cq.program, budgeted());
            prop_assert_eq!(counted, found.len() as u64, "{:?}", passes);
            prop_assert!(found.len() <= all.len() && found[..] == all[..found.len()]);
        }
    }
}
