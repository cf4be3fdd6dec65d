//! The matching engine: [`Matcher`], its scratch arena and entry points.
//!
//! Evaluates the bytecode program of every weakly connected query
//! component on the VM ([`crate::vm`]) — a backtracking depth-first search
//! over candidate assignments — and combines component results as a
//! cartesian product (§4.3.3). Counting supports early
//! termination — the why-query engine only ever needs to know whether a
//! candidate query crosses a cardinality threshold, not the exact count
//! beyond it.
//!
//! ## Zero-allocation search
//!
//! The DFS never clones partial results. Bindings live in dense *slot
//! arrays* indexed by query vertex/edge slot (`Vec<Option<VertexId>>` /
//! `Vec<Option<EdgeId>>`), bound and unbound in O(1) as the search descends
//! and backtracks. Injectivity is checked through generation-stamped
//! inverse occupancy arrays over the data graph (O(1) check, O(1) whole-set
//! reset) instead of linear scans of the partial assignment. Candidate
//! edges are streamed straight off the graph's sealed CSR topology
//! ([`whyq_graph::CsrTopology`]): each expansion scans contiguous
//! `(edge, endpoint)` column pairs of one per-type run, so the filter loop
//! touches no [`whyq_graph::EdgeData`] unless the query edge carries
//! attribute predicates, and a self-loop skip rule makes a sort+dedup
//! buffer per step unnecessary. A [`ResultGraph`] is
//! materialized only when a complete match is emitted; counting skips
//! even that, and binds no candidate of a component's last scan at all —
//! the VM counts them in place. All per-search storage lives in one reusable scratch arena
//! owned by the [`Matcher`], so a matcher that is kept around — as the
//! why-query relaxation loop does — performs no per-call setup allocations
//! beyond query compilation, the candidate list of a component seeded at
//! a union or intersection of index buckets ([`crate::work::SeedList`]),
//! and the bound predicates of a one-edge count.

use crate::budget::Budget;
use crate::compile::Compiled;
use crate::index::AttrIndex;
use crate::optimize::PassSet;
use crate::result::ResultGraph;
use crate::vm::{Bound, Program, QueryProgram, SeedSrc, VmCtx, VmState};
use crate::work::{SeedList, WorkUnit};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use whyq_graph::{CsrTopology, PropertyGraph, VertexId};
use whyq_query::{PatternQuery, QVid};

/// Options controlling match semantics.
///
/// `Clone` (not `Copy`): the [`Budget`] is a shared handle, and cloning
/// options deliberately shares it — every evaluation run under clones of
/// one `MatchOptions` draws on the *same* deadline/step/cancel limits.
#[derive(Debug, Clone)]
pub struct MatchOptions {
    /// Injective mapping of vertices and edges within a component
    /// (subgraph-isomorphism style). `false` = homomorphic matching.
    pub injective: bool,
    /// Stop after this many result graphs.
    pub limit: Option<usize>,
    /// Resource governance: deadline, step budget, cooperative cancel.
    /// Checked every [`crate::budget::CHECK_INTERVAL`] VM transitions;
    /// when it trips,
    /// the search stops early and the budget records the cause — inspect
    /// [`Budget::termination`] after the run to distinguish a complete
    /// answer from a partial prefix. Unlimited by default.
    pub budget: Budget,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            injective: true,
            limit: None,
            budget: Budget::unlimited(),
        }
    }
}

impl MatchOptions {
    /// Default options with a result cap.
    pub fn limited(limit: usize) -> Self {
        MatchOptions {
            limit: Some(limit),
            ..Self::default()
        }
    }

    /// Injective options with an optional `u64` cardinality cap — the shape
    /// every counting call site in the why-query engine uses.
    pub fn counting(limit: Option<u64>) -> Self {
        MatchOptions {
            injective: true,
            limit: limit.map(|l| usize::try_from(l).unwrap_or(usize::MAX)),
            ..Self::default()
        }
    }

    /// Default options governed by `budget` (builder style — combine with
    /// struct update syntax for limits).
    pub fn governed(budget: Budget) -> Self {
        MatchOptions {
            budget,
            ..Self::default()
        }
    }

    /// Replace the budget (builder style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// A query compiled all the way to executable bytecode: the per-element
/// predicate programs and dictionary resolutions ([`Compiled`]) plus the
/// per-component bytecode programs ([`QueryProgram`]). Produced by
/// [`Matcher::compile_full`] / [`Matcher::compile_with_passes`]; this is
/// the artifact the `whyq-session` plan cache stores per query signature.
///
/// An unsatisfiable query compiles to an empty program
/// ([`QueryProgram::is_empty`]) — executing it yields no matches without
/// touching the graph.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Dictionary-resolved predicate programs for every query element.
    pub compiled: Compiled,
    /// One bytecode program per weakly connected query component.
    pub program: QueryProgram,
}

/// Reusable per-matcher search storage: binding slots and occupancy
/// stamps. Allocated lazily on first use and grown,
/// never shrunk, across searches. Also used by the suspendable streaming
/// DFS ([`crate::stream::MatchStream`]), which owns a private arena so a
/// live stream never contends with the matcher's own searches.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// Data vertex bound to each query vertex slot.
    pub(crate) vslots: Vec<Option<VertexId>>,
    /// Data edge bound to each query edge slot.
    pub(crate) eslots: Vec<Option<whyq_graph::EdgeId>>,
    /// Inverse occupancy, generation-stamped: a data vertex is used by the
    /// current partial assignment iff its stamp equals [`Scratch::gen`].
    /// Stamping (instead of a bitmap) makes the per-search reset O(1) —
    /// bumping the generation invalidates every stale entry at once.
    /// Maintained only in injective mode.
    v_stamp: Vec<u32>,
    /// Inverse occupancy stamps for data edges.
    e_stamp: Vec<u32>,
    /// The stamp value marking "used in the current search". Starts at 1 so
    /// freshly zeroed stamp entries are never considered used.
    gen: u32,
    /// VM transitions since the search started; every
    /// [`crate::budget::CHECK_INTERVAL`]-th transition charges the budget,
    /// and [`Scratch::settle`] charges the rest when the run ends. Reset
    /// per search so block boundaries are deterministic.
    pub(crate) ticks: u64,
}

impl Scratch {
    /// Size (and reset) the arena for a search of `q` over `g`.
    pub(crate) fn prepare(&mut self, g: &PropertyGraph, q: &PatternQuery) {
        self.ticks = 0;
        self.vslots.clear();
        self.vslots.resize(q.vertex_slots(), None);
        self.eslots.clear();
        self.eslots.resize(q.edge_slots(), None);
        if self.v_stamp.len() < g.num_vertices() {
            self.v_stamp.resize(g.num_vertices(), 0);
        }
        if self.e_stamp.len() < g.num_edges() {
            self.e_stamp.resize(g.num_edges(), 0);
        }
        if self.gen == u32::MAX {
            self.v_stamp.fill(0);
            self.e_stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// Charge `budget` the transitions of a finished run that no full
    /// [`crate::budget::CHECK_INTERVAL`] block has charged yet, so short
    /// runs spend a step budget too. Idempotent until the run ticks again.
    /// The charge may trip the budget after the run completed; see
    /// [`crate::budget`] for why that is safe.
    pub(crate) fn settle(&mut self, budget: &Budget) {
        let rest = self.ticks % u64::from(crate::budget::CHECK_INTERVAL);
        if rest > 0 {
            self.ticks -= rest;
            let _ = budget.charge(rest);
        }
    }

    #[inline]
    pub(crate) fn vertex_used(&self, dv: VertexId) -> bool {
        self.v_stamp[dv.0 as usize] == self.gen
    }

    #[inline]
    pub(crate) fn edge_used(&self, de: whyq_graph::EdgeId) -> bool {
        self.e_stamp[de.0 as usize] == self.gen
    }

    #[inline]
    pub(crate) fn set_vertex_used(&mut self, dv: VertexId, used: bool) {
        self.v_stamp[dv.0 as usize] = if used { self.gen } else { 0 };
    }

    #[inline]
    pub(crate) fn set_edge_used(&mut self, de: whyq_graph::EdgeId, used: bool) {
        self.e_stamp[de.0 as usize] = if used { self.gen } else { 0 };
    }

    /// Materialize the current complete assignment (bindings are pushed in
    /// ascending slot order, so every insert lands at the end).
    pub(crate) fn to_result(&self) -> ResultGraph {
        let mut r = ResultGraph::new();
        for (slot, dv) in self.vslots.iter().enumerate() {
            if let Some(dv) = dv {
                r.bind_vertex(QVid(slot as u32), *dv);
            }
        }
        for (slot, de) in self.eslots.iter().enumerate() {
            if let Some(de) = de {
                r.bind_edge(whyq_query::QEid(slot as u32), *de);
            }
        }
        r
    }
}

/// A reusable matcher bound to one data graph, optionally with vertex
/// attribute indexes for seeding and selectivity estimation.
///
/// Sessions of the `whyq-session` facade each own one matcher: the scratch
/// arena inside is the per-worker state, while the attribute indexes are
/// shared (`Arc`) with every other session of the same database.
#[derive(Debug, Clone)]
pub struct Matcher<'g> {
    pub(crate) g: &'g PropertyGraph,
    /// The graph's sealed CSR adjacency — resolved once at construction so
    /// every candidate scan is a plain slice walk (building it here also
    /// warms the graph's topology cache for unsealed graphs).
    pub(crate) topo: &'g CsrTopology,
    pub(crate) indexes: Vec<Arc<AttrIndex>>,
    pub(crate) scratch: RefCell<Scratch>,
}

impl<'g> Matcher<'g> {
    /// Matcher without an index.
    pub fn new(g: &'g PropertyGraph) -> Self {
        Matcher {
            g,
            topo: g.topology(),
            indexes: Vec::new(),
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Matcher sharing prebuilt attribute indexes (the `whyq-session`
    /// facade builds the configured indexes once per database and hands
    /// each session a matcher constructed this way).
    pub fn with_shared_indexes(g: &'g PropertyGraph, indexes: Vec<Arc<AttrIndex>>) -> Self {
        Matcher {
            g,
            topo: g.topology(),
            indexes,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Append a prebuilt shared index.
    pub fn attach_index(&mut self, idx: Arc<AttrIndex>) {
        self.indexes.push(idx);
    }

    /// The attached shared indexes.
    pub fn indexes(&self) -> &[Arc<AttrIndex>] {
        &self.indexes
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g PropertyGraph {
        self.g
    }

    /// Compile `q` all the way to executable bytecode with the default
    /// (full) optimizer pipeline — lower the greedy plans to the IR,
    /// optimize, encode. The `whyq-session` facade calls this once per
    /// distinct query signature and memoizes the [`CompiledQuery`].
    pub fn compile_full(&self, q: &PatternQuery) -> CompiledQuery {
        self.compile_with_passes(q, crate::optimize::PassSet::default())
    }

    /// [`Matcher::compile_full`] with an explicit [`PassSet`] — the tests
    /// switch `seed_select` off through it to reach full-scan seeding of
    /// an indexed vertex, and `edge_seed` to reach the vertex-seeded plan
    /// of a walk. Every setting yields a program enumerating the same
    /// matches; in debug builds the plans and the optimized IR are
    /// re-verified.
    pub fn compile_with_passes(&self, q: &PatternQuery, passes: PassSet) -> CompiledQuery {
        let compiled = Compiled::new(self.g, q);
        // compile-time pruning: an unknown attribute/type, a string
        // constant absent from the value dictionary, a range or number
        // outside the observed range, or contradictory predicates on one
        // attribute prove some element unmatchable — no program needed
        if compiled.unsatisfiable() {
            return CompiledQuery {
                compiled,
                program: QueryProgram::default(),
            };
        }
        let (plans, est) =
            crate::compile::build_plans_with(self.g, q, &compiled, &self.indexes, passes.edge_seed);
        #[cfg(debug_assertions)]
        if let Err(violation) = crate::verify::verify_plans(q, &compiled, &plans) {
            panic!("compiled plan violates invariants: {violation}");
        }
        let mut ir = crate::plan_ir::lower(&compiled, &plans, &est);
        // the optimizer verifies its output (debug builds)
        crate::optimize::optimize(&mut ir, self.g, q, &compiled, &self.indexes, passes);
        CompiledQuery {
            compiled,
            program: QueryProgram::from_ir(&ir),
        }
    }

    /// Enumerate result graphs.
    pub fn find(&self, q: &PatternQuery, opts: MatchOptions) -> Vec<ResultGraph> {
        let cq = self.compile_full(q);
        self.find_compiled(q, &cq.compiled, &cq.program, opts)
    }

    /// [`Matcher::find`] with a precompiled query — the prepared-query
    /// fast path: no name resolution, no selectivity estimation, no
    /// planning, no lowering. `compiled`/`program` must come from
    /// [`Matcher::compile_full`] (or [`Matcher::compile_with_passes`]) on
    /// a query with the same signature over the same graph and indexes
    /// (the plan cache of `whyq-session` guarantees this). Every component
    /// runs as its whole-range [`WorkUnit`] — the one-unit-per-component
    /// case of the `whyq-session` component loop.
    pub fn find_compiled(
        &self,
        q: &PatternQuery,
        compiled: &Compiled,
        program: &QueryProgram,
        opts: MatchOptions,
    ) -> Vec<ResultGraph> {
        if q.num_vertices() == 0 || program.is_empty() {
            return Vec::new();
        }
        let cap = opts.limit.unwrap_or(usize::MAX);
        let mut per_component: Vec<Vec<ResultGraph>> =
            Vec::with_capacity(program.components().len());
        for (component, prog) in program.components().iter().enumerate() {
            let seeds = self.seed_list_for(prog);
            let unit = WorkUnit::whole(component, &seeds);
            let results = self.find_unit(q, compiled, program, &unit, &seeds, opts.clone());
            if results.is_empty() {
                return Vec::new();
            }
            per_component.push(results);
        }

        // cartesian combination, capped
        crate::combine::combine_components(per_component, cap)
    }

    /// Count result graphs under `opts`, stopping early at `opts.limit`
    /// (the returned value is `min(C(Q), limit)`). Unlike [`Matcher::find`]
    /// no result graph is ever materialized.
    pub fn count(&self, q: &PatternQuery, opts: MatchOptions) -> u64 {
        let cq = self.compile_full(q);
        self.count_compiled(q, &cq.compiled, &cq.program, opts)
    }

    /// [`Matcher::count`] with a precompiled query — see
    /// [`Matcher::find_compiled`] for the contract.
    pub fn count_compiled(
        &self,
        q: &PatternQuery,
        compiled: &Compiled,
        program: &QueryProgram,
        opts: MatchOptions,
    ) -> u64 {
        if q.num_vertices() == 0 || program.is_empty() {
            return 0;
        }
        let mut total: u64 = 1;
        for (component, prog) in program.components().iter().enumerate() {
            let seeds = self.seed_list_for(prog);
            let unit = WorkUnit::whole(component, &seeds);
            let c = self.count_unit(q, compiled, program, &unit, &seeds, opts.clone());
            if c == 0 {
                return 0;
            }
            total = total.saturating_mul(c);
        }
        match opts.limit {
            Some(l) => total.min(l as u64),
            None => total,
        }
    }

    /// Materialize the seed candidate space of one component program in
    /// engine order: the dense arena for a full scan, a copy of the index
    /// bucket / union / intersection the optimizer selected. Any subrange
    /// of the list is an independently executable [`WorkUnit`].
    pub fn seed_list_for(&self, prog: &Program) -> SeedList {
        crate::work::resolve_seeds(self.g, &self.indexes, prog)
    }

    /// Execute one [`WorkUnit`]: enumerate the partial bindings of
    /// component `unit.component` whose seed lies in `unit.range` of
    /// `seeds`, capped at `opts.limit`. `seeds` must come from
    /// [`Matcher::seed_list_for`] on that component's program (over the
    /// same graph and indexes) and `compiled`/`program` from
    /// [`Matcher::compile_full`]. Units of one component partition its
    /// serial result list: concatenating their outputs in range order
    /// equals the serial enumeration.
    pub fn find_unit(
        &self,
        q: &PatternQuery,
        compiled: &Compiled,
        program: &QueryProgram,
        unit: &WorkUnit,
        seeds: &SeedList,
        opts: MatchOptions,
    ) -> Vec<ResultGraph> {
        self.find_rows(q, compiled, program, unit, seeds, opts, None)
    }

    /// [`Matcher::find_unit`] for one of several units of a component
    /// that share its `opts.limit`: `taken` counts the rows all of them
    /// have kept, and each unit stops at its first row after the count
    /// reaches the limit. Their rows together hold `min(limit, C)` or
    /// more of the component's `C` matches — which ones depends on
    /// scheduling — so the caller truncates the concatenation.
    #[allow(clippy::too_many_arguments)]
    pub fn find_shard(
        &self,
        q: &PatternQuery,
        compiled: &Compiled,
        program: &QueryProgram,
        unit: &WorkUnit,
        seeds: &SeedList,
        opts: MatchOptions,
        taken: &AtomicUsize,
    ) -> Vec<ResultGraph> {
        self.find_rows(q, compiled, program, unit, seeds, opts, Some(taken))
    }

    /// [`Matcher::find_unit`], its limit shared through `taken` when set.
    #[allow(clippy::too_many_arguments)]
    fn find_rows(
        &self,
        q: &PatternQuery,
        compiled: &Compiled,
        program: &QueryProgram,
        unit: &WorkUnit,
        seeds: &SeedList,
        opts: MatchOptions,
        taken: Option<&AtomicUsize>,
    ) -> Vec<ResultGraph> {
        let cap = opts.limit.unwrap_or(usize::MAX);
        if taken.map_or(0, |t| t.load(Ordering::Relaxed)) >= cap {
            return Vec::new();
        }
        let mut results = Vec::new();
        let prog = &program.components()[unit.component];
        self.run_unit(
            q,
            compiled,
            prog,
            seeds.view(self.topo, &unit.range),
            &opts,
            |cx, st, vs| {
                crate::vm::run_to_end(cx, st, vs, &mut |s| {
                    results.push(s.to_result());
                    match taken {
                        Some(t) => t.fetch_add(1, Ordering::Relaxed) + 1 < cap,
                        None => results.len() < cap,
                    }
                });
            },
        );
        results
    }

    /// Count the partial bindings of one [`WorkUnit`] without
    /// materializing them, stopping early at `opts.limit` — the counting
    /// twin of [`Matcher::find_unit`]. The VM runs each component's last
    /// scan in count mode ([`crate::vm`]), so no match is ever bound,
    /// only counted.
    pub fn count_unit(
        &self,
        q: &PatternQuery,
        compiled: &Compiled,
        program: &QueryProgram,
        unit: &WorkUnit,
        seeds: &SeedList,
        opts: MatchOptions,
    ) -> u64 {
        let cap = opts.limit.map_or(u64::MAX, |l| l as u64);
        if cap == 0 {
            return 0;
        }
        let prog = &program.components()[unit.component];
        self.run_unit(
            q,
            compiled,
            prog,
            seeds.view(self.topo, &unit.range),
            &opts,
            |cx, st, vs| crate::vm::count_to_end(cx, st, vs, cap),
        )
        .unwrap_or(0)
    }

    /// The one program runner: one component program over one seed
    /// source on this matcher's scratch arena, driven by `body`
    /// ([`crate::vm::run_to_end`] or [`crate::vm::count_to_end`]). The
    /// arena is left clean and the budget settled; `None` when the budget
    /// had already tripped and nothing ran.
    fn run_unit<R>(
        &self,
        q: &PatternQuery,
        compiled: &Compiled,
        prog: &Program,
        seeds: SeedSrc<'_>,
        opts: &MatchOptions,
        body: impl FnOnce(&VmCtx<'_>, &mut Scratch, &mut VmState) -> R,
    ) -> Option<R> {
        // an already-tripped (or zero) budget refuses the search up front —
        // the tick check inside the VM only fires after a full block
        if opts.budget.poll().is_err() {
            return None;
        }
        let mut st = self.scratch.borrow_mut();
        st.prepare(self.g, q);
        let mut bound = Bound::default();
        bound.bind(compiled, prog, self.topo);
        let cx = VmCtx {
            g: self.g,
            topo: self.topo,
            q,
            compiled,
            prog,
            bound: &bound,
            injective: opts.injective,
            budget: &opts.budget,
            seeds,
        };
        let mut vs = VmState::default();
        let out = body(&cx, &mut st, &mut vs);
        // release any registers an early stop left bound
        crate::vm::unwind(&cx, &mut st, &mut vs);
        st.settle(&opts.budget);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Termination;
    use std::sync::Arc;
    use whyq_graph::Value;
    use whyq_query::{DirectionSet, Predicate, QueryBuilder};

    /// Injective count through a throwaway matcher.
    fn count_injective(g: &PropertyGraph, q: &PatternQuery, limit: Option<u64>) -> u64 {
        Matcher::new(g).count(q, MatchOptions::counting(limit))
    }

    /// Injective find through a throwaway matcher.
    fn find_injective(
        g: &PropertyGraph,
        q: &PatternQuery,
        limit: Option<usize>,
    ) -> Vec<ResultGraph> {
        Matcher::new(g).find(
            q,
            MatchOptions {
                injective: true,
                limit,
                ..Default::default()
            },
        )
    }

    /// Matcher with a freshly built index over `attr`.
    fn indexed<'g>(g: &'g PropertyGraph, attr: &str) -> Matcher<'g> {
        let mut m = Matcher::new(g);
        if let Some(idx) = AttrIndex::build(g, attr) {
            m.attach_index(Arc::new(idx));
        }
        m
    }

    /// Two persons living in one city, knowing each other; a third person in
    /// another city.
    fn social() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person")), ("name", Value::str("Anna"))]);
        let b = g.add_vertex([("type", Value::str("person")), ("name", Value::str("Bert"))]);
        let c = g.add_vertex([("type", Value::str("person")), ("name", Value::str("Cleo"))]);
        let berlin = g.add_vertex([("type", Value::str("city")), ("name", Value::str("Berlin"))]);
        let rome = g.add_vertex([("type", Value::str("city")), ("name", Value::str("Rome"))]);
        g.add_edge(a, b, "knows", [("since", Value::Int(2003))]);
        g.add_edge(b, c, "knows", [("since", Value::Int(2010))]);
        g.add_edge(a, berlin, "livesIn", []);
        g.add_edge(b, berlin, "livesIn", []);
        g.add_edge(c, rome, "livesIn", []);
        g
    }

    fn co_located_friends() -> PatternQuery {
        QueryBuilder::new("colocated")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .vertex("city", [Predicate::eq("type", "city")])
            .edge("p1", "p2", "knows")
            .edge("p1", "city", "livesIn")
            .edge("p2", "city", "livesIn")
            .build()
    }

    #[test]
    fn finds_triangle_match() {
        let g = social();
        let q = co_located_friends();
        let res = find_injective(&g, &q, None);
        assert_eq!(res.len(), 1);
        assert_eq!(count_injective(&g, &q, None), 1);
    }

    /// A run shorter than one budget block still spends its steps: ten
    /// 50-step counts use up `Budget::steps(500)` exactly, the 11th trips.
    #[test]
    fn short_runs_charge_the_step_budget() {
        let mut g = PropertyGraph::new();
        for _ in 0..50 {
            g.add_vertex([("type", Value::str("person"))]);
        }
        let q = QueryBuilder::new("people")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        let m = Matcher::new(&g);
        let budget = Budget::steps(500);
        for run in 1..=10 {
            assert_eq!(m.count(&q, MatchOptions::governed(budget.clone())), 50);
            assert_eq!(m.scratch.borrow().ticks % 50, 0, "one tick per match");
            assert_eq!(budget.termination(), Termination::Complete, "run {run}");
        }
        // the 11th count completes, then its charge trips the budget
        assert_eq!(m.count(&q, MatchOptions::governed(budget.clone())), 50);
        assert_eq!(budget.termination(), Termination::BudgetExhausted);
        // a stream charges its steps when it is exhausted or dropped
        let streamed = Budget::steps(70);
        assert_eq!(
            m.stream(&q, MatchOptions::governed(streamed.clone()))
                .count(),
            50
        );
        let mut partial = m.stream(&q, MatchOptions::governed(streamed.clone()));
        assert_eq!(partial.by_ref().take(30).count(), 30);
        assert_eq!(streamed.termination(), Termination::Complete);
        drop(partial);
        assert_eq!(streamed.termination(), Termination::BudgetExhausted);
    }

    /// Setting a vertex's `type` on a sealed graph patches the type
    /// column the engine reads, so the next count sees the new type —
    /// a string, or a number the column has no symbol for.
    #[test]
    fn retyping_a_sealed_vertex_is_seen_by_the_next_count() {
        let mut g = social();
        g.seal();
        let of_type = |ty: &str| {
            QueryBuilder::new("t")
                .vertex("v", [Predicate::one_of("type", [ty, "nobody"])])
                .build()
        };
        let counts = |g: &PropertyGraph| {
            let m = Matcher::new(g);
            let count = |ty| m.count(&of_type(ty), MatchOptions::default());
            (count("person"), count("city"))
        };
        assert_eq!(counts(&g), (3, 2));
        g.set_vertex_attr(VertexId(0), "type", Value::str("city"))
            .unwrap();
        assert_eq!(counts(&g), (2, 3));
        g.set_vertex_attr(VertexId(1), "type", Value::Int(7))
            .unwrap();
        assert!(g.is_sealed());
        assert_eq!(counts(&g), (1, 3));
    }

    /// Adding a vertex rebuilds the code columns with new ranks ("animal"
    /// sorts before "city" and "person"); a query compiled before keeps
    /// its answer, because its code tests belong to the old build.
    #[test]
    fn a_compiled_query_survives_a_rebuild_of_the_columns() {
        let mut g = social();
        g.seal();
        let q = QueryBuilder::new("t")
            .vertex("v", [Predicate::eq("type", "person")])
            .build();
        let cq = Matcher::new(&g).compile_full(&q);
        // a one-edge query seeded at its edge, with a vertex and an edge
        // predicate: both sides of its binding go stale
        let pair = QueryBuilder::new("old-friends")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .edge_full(
                "p1",
                "p2",
                "knows",
                DirectionSet::FORWARD,
                [Predicate::at_most("since", 2005.0)],
            )
            .build();
        let pcq = Matcher::new(&g).compile_full(&pair);
        assert!(matches!(
            pcq.program.components()[0].code(),
            [crate::vm::Instruction::EdgeSeed { .. }, _]
        ));
        g.add_vertex([("type", Value::str("animal"))]);
        let m = Matcher::new(&g);
        let count = m.count_compiled(&q, &cq.compiled, &cq.program, MatchOptions::default());
        assert_eq!(count, 3);
        let opts = MatchOptions::default;
        let count = m.count_compiled(&pair, &pcq.compiled, &pcq.program, opts());
        assert_eq!(count, 1);
        let rows = m.find_compiled(&pair, &pcq.compiled, &pcq.program, opts());
        assert_eq!(rows.len(), 1);
        let knows_2003 = (whyq_query::QEid(0), whyq_graph::EdgeId(0));
        assert_eq!(rows[0].edge_bindings(), &[knows_2003]);
    }

    #[test]
    fn edge_predicates_filter() {
        let g = social();
        let q = QueryBuilder::new("old-friends")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .edge_full(
                "p1",
                "p2",
                "knows",
                DirectionSet::FORWARD,
                [Predicate::at_most("since", 2005.0)],
            )
            .build();
        assert_eq!(count_injective(&g, &q, None), 1);
    }

    #[test]
    fn direction_semantics() {
        let g = social();
        // Anna -knows-> Bert exists; backward-only must match Bert->Anna side
        let q_fwd = QueryBuilder::new("f")
            .vertex("a", [Predicate::eq("name", "Anna")])
            .vertex("b", [Predicate::eq("name", "Bert")])
            .edge("a", "b", "knows")
            .build();
        assert_eq!(count_injective(&g, &q_fwd, None), 1);
        let q_bwd = QueryBuilder::new("b")
            .vertex("a", [Predicate::eq("name", "Anna")])
            .vertex("b", [Predicate::eq("name", "Bert")])
            .edge_full("b", "a", "knows", DirectionSet::BACKWARD, [])
            .build();
        assert_eq!(count_injective(&g, &q_bwd, None), 1);
        let q_wrong = QueryBuilder::new("w")
            .vertex("a", [Predicate::eq("name", "Anna")])
            .vertex("b", [Predicate::eq("name", "Bert")])
            .edge("b", "a", "knows")
            .build();
        assert_eq!(count_injective(&g, &q_wrong, None), 0);
        let q_both = QueryBuilder::new("bt")
            .vertex("a", [Predicate::eq("name", "Anna")])
            .vertex("b", [Predicate::eq("name", "Bert")])
            .edge_full("b", "a", "knows", DirectionSet::BOTH, [])
            .build();
        assert_eq!(count_injective(&g, &q_both, None), 1);
    }

    #[test]
    fn injectivity_prevents_vertex_reuse() {
        let g = social();
        // p1 knows p2 — both persons; without injectivity a self-match on a
        // reflexive edge could appear; here count distinct ordered pairs
        let q = QueryBuilder::new("pairs")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .edge("p1", "p2", "knows")
            .build();
        assert_eq!(count_injective(&g, &q, None), 2); // (a,b), (b,c)
    }

    #[test]
    fn unconnected_components_multiply() {
        let g = social();
        let q = QueryBuilder::new("pair")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .build();
        // 3 persons × 2 cities
        assert_eq!(count_injective(&g, &q, None), 6);
        let res = find_injective(&g, &q, None);
        assert_eq!(res.len(), 6);
    }

    #[test]
    fn limits_stop_early() {
        let g = social();
        let q = QueryBuilder::new("p")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        assert_eq!(count_injective(&g, &q, Some(2)), 2);
        assert_eq!(find_injective(&g, &q, Some(2)).len(), 2);
        assert_eq!(count_injective(&g, &q, None), 3);
    }

    #[test]
    fn zero_limit_with_multiple_components_finds_nothing() {
        let g = social();
        let q = QueryBuilder::new("pair")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .build();
        let m = Matcher::new(&g);
        assert!(m.find(&q, MatchOptions::limited(0)).is_empty());
        assert_eq!(m.count(&q, MatchOptions::counting(Some(0))), 0);
    }

    #[test]
    fn empty_query_has_no_matches() {
        let g = social();
        let q = PatternQuery::new();
        assert_eq!(count_injective(&g, &q, None), 0);
        assert!(find_injective(&g, &q, None).is_empty());
    }

    #[test]
    fn indexed_matcher_agrees_with_scan() {
        let g = social();
        let q = co_located_friends();
        let plain = Matcher::new(&g).count(&q, MatchOptions::default());
        let with_idx = indexed(&g, "type").count(&q, MatchOptions::default());
        assert_eq!(plain, with_idx);
    }

    #[test]
    fn point_range_predicate_hits_index() {
        let mut g = PropertyGraph::new();
        let mut last = None;
        for year in 2000..2010 {
            let v = g.add_vertex([("year", Value::Int(year))]);
            last = Some(v);
        }
        g.add_vertex([("year", Value::Float(2005.0))]);
        let _ = last;
        let q = QueryBuilder::new("y")
            .vertex("v", [Predicate::between("year", 2005.0, 2005.0)])
            .build();
        let plain = Matcher::new(&g).count(&q, MatchOptions::default());
        let with_idx = indexed(&g, "year").count(&q, MatchOptions::default());
        // both the Int(2005) and the Float(2005.0) vertex match
        assert_eq!(plain, 2);
        assert_eq!(with_idx, 2);
    }

    #[test]
    fn count_respects_homomorphic_options() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let b = g.add_vertex([("type", Value::str("person"))]);
        g.add_edge(a, b, "knows", []);
        g.add_edge(b, a, "knows", []);
        let q = QueryBuilder::new("path")
            .vertex("p1", [])
            .vertex("p2", [])
            .vertex("p3", [])
            .edge("p1", "p2", "knows")
            .edge("p2", "p3", "knows")
            .build();
        let m = Matcher::new(&g);
        assert_eq!(m.count(&q, MatchOptions::default()), 0);
        let hom = MatchOptions {
            injective: false,
            limit: None,
            ..Default::default()
        };
        assert_eq!(m.count(&q, hom.clone()), 2);
        assert_eq!(m.find(&q, hom.clone()).len() as u64, m.count(&q, hom));
    }

    #[test]
    fn homomorphic_mode_allows_reuse() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let b = g.add_vertex([("type", Value::str("person"))]);
        g.add_edge(a, b, "knows", []);
        g.add_edge(b, a, "knows", []);
        // path p1 -> p2 -> p3 homomorphically maps p1=p3=a
        let q = QueryBuilder::new("path")
            .vertex("p1", [])
            .vertex("p2", [])
            .vertex("p3", [])
            .edge("p1", "p2", "knows")
            .edge("p2", "p3", "knows")
            .build();
        assert_eq!(count_injective(&g, &q, None), 0); // injective: needs 3 distinct
        let hom = Matcher::new(&g).find(
            &q,
            MatchOptions {
                injective: false,
                limit: None,
                ..Default::default()
            },
        );
        assert_eq!(hom.len(), 2); // a->b->a and b->a->b
    }

    #[test]
    fn parallel_edges_yield_distinct_matches() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([]);
        let b = g.add_vertex([]);
        g.add_edge(a, b, "t", []);
        g.add_edge(a, b, "t", []);
        let q = QueryBuilder::new("e")
            .vertex("x", [])
            .vertex("y", [])
            .edge("x", "y", "t")
            .build();
        assert_eq!(count_injective(&g, &q, None), 2);
    }

    #[test]
    fn self_loops_with_both_directions_not_double_counted() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([]);
        let b = g.add_vertex([]);
        g.add_edge(a, a, "t", []);
        g.add_edge(a, b, "t", []);
        // x -t- y in both directions: the self-loop must not produce two
        // bindings for the same (edge, vertex) pair
        let q = QueryBuilder::new("b")
            .vertex("x", [])
            .vertex("y", [])
            .edge_full("x", "y", "t", DirectionSet::BOTH, [])
            .build();
        // injective matches: (a,b) via forward, (b,a) via backward
        assert_eq!(count_injective(&g, &q, None), 2);
        let hom = Matcher::new(&g).find(
            &q,
            MatchOptions {
                injective: false,
                limit: None,
                ..Default::default()
            },
        );
        // homomorphic adds (a,a) once — not twice
        assert_eq!(hom.len(), 3);
    }

    #[test]
    fn duplicate_edge_types_not_double_counted() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([]);
        let b = g.add_vertex([]);
        g.add_edge(a, b, "knows", []);
        let mut q = PatternQuery::new();
        let x = q.add_vertex(whyq_query::QueryVertex::any());
        let y = q.add_vertex(whyq_query::QueryVertex::any());
        let mut e = whyq_query::QueryEdge::typed(x, y, "knows");
        e.types.push("knows".into());
        q.add_edge(e);
        // the type disjunction admits "knows" twice; the edge must still
        // bind once
        assert_eq!(count_injective(&g, &q, None), 1);
        assert_eq!(find_injective(&g, &q, None).len(), 1);
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        let g = social();
        let q = co_located_friends();
        let m = indexed(&g, "type");
        for _ in 0..3 {
            assert_eq!(m.count(&q, MatchOptions::default()), 1);
            assert_eq!(m.find(&q, MatchOptions::default()).len(), 1);
        }
    }

    #[test]
    fn work_units_partition_the_serial_enumeration() {
        let g = social();
        let q = co_located_friends();
        let m = indexed(&g, "type");
        let cq = m.compile_full(&q);
        assert_eq!(cq.program.components().len(), 1);
        let seeds = m.seed_list_for(&cq.program.components()[0]);
        let serial = m.find_compiled(&q, &cq.compiled, &cq.program, MatchOptions::default());
        // concatenating the units of every split reproduces serial order
        for chunks in [1usize, 2, 3, 16] {
            let mut merged = Vec::new();
            let mut counted = 0u64;
            for range in crate::work::split_ranges(seeds.len(), chunks) {
                let unit = WorkUnit {
                    component: 0,
                    range,
                };
                merged.extend(m.find_unit(
                    &q,
                    &cq.compiled,
                    &cq.program,
                    &unit,
                    &seeds,
                    MatchOptions::default(),
                ));
                counted += m.count_unit(
                    &q,
                    &cq.compiled,
                    &cq.program,
                    &unit,
                    &seeds,
                    MatchOptions::default(),
                );
            }
            assert_eq!(merged, serial, "chunks={chunks}");
            assert_eq!(counted, serial.len() as u64);
        }
    }

    #[test]
    fn unit_limits_cap_each_unit() {
        let g = social();
        let q = QueryBuilder::new("p")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        let m = Matcher::new(&g);
        let cq = m.compile_full(&q);
        let seeds = m.seed_list_for(&cq.program.components()[0]);
        let unit = WorkUnit::whole(0, &seeds);
        let opts = MatchOptions::counting(Some(2));
        assert_eq!(
            m.count_unit(&q, &cq.compiled, &cq.program, &unit, &seeds, opts),
            2
        );
        assert_eq!(
            m.find_unit(
                &q,
                &cq.compiled,
                &cq.program,
                &unit,
                &seeds,
                MatchOptions::limited(2)
            )
            .len(),
            2
        );
        // an empty range is a valid unit that finds nothing
        let empty = WorkUnit {
            component: 0,
            range: 0..0,
        };
        assert_eq!(
            m.count_unit(
                &q,
                &cq.compiled,
                &cq.program,
                &empty,
                &seeds,
                MatchOptions::default()
            ),
            0
        );
    }
}
