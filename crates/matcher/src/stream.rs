//! Lazy result enumeration — the suspendable twin of the eager engine.
//!
//! [`MatchStream`] yields [`ResultGraph`]s one at a time from the same
//! bytecode programs [`Matcher::find`] executes, without ever
//! materializing the result set: the VM already runs on an explicit frame
//! stack (one frame per scan instruction, each remembering its candidate
//! cursor — see [`crate::vm`]), so the search *suspends* after every
//! emitted match and resumes exactly where it stopped on the next
//! [`Iterator::next`] call. A caller that stops after ten results pays
//! for ten results — the contract prepared queries of the `whyq-session`
//! facade expose as `PreparedQuery::stream()`.
//!
//! Multi-component queries combine component results as a cartesian
//! product (§4.3.3). The product itself — where the blow-up lives — is
//! enumerated lazily with an odometer over the non-first components'
//! (capped) result lists; only those factor lists are materialized, once,
//! on the first `next()` call. Connected queries, the common case,
//! materialize nothing.
//!
//! The stream owns its scratch arena and VM state, so any number of
//! streams can be in-flight concurrently with each other and with
//! `find`/`count` calls on the matcher they came from.

use crate::budget::{Budget, Termination};
use crate::combine::FactorOdometer;
use crate::compile::Compiled;
use crate::engine::{MatchOptions, Matcher, Scratch};
use crate::index::AttrIndex;
use crate::result::ResultGraph;
use crate::vm::{self, Bound, QueryProgram, VmCtx, VmState};
use crate::work::{resolve_seeds, SeedList};
use std::sync::Arc;
use whyq_graph::{CsrTopology, PropertyGraph};
use whyq_query::PatternQuery;

/// Lazy iterator over the result graphs of one compiled query.
///
/// Created by [`Matcher::stream`] or directly via [`MatchStream::over`]
/// with a cached compilation. Yields exactly the multiset
/// [`Matcher::find`] would return (in the same order), honoring the
/// injectivity and limit of its [`MatchOptions`].
pub struct MatchStream<'g> {
    g: &'g PropertyGraph,
    topo: &'g CsrTopology,
    indexes: Vec<Arc<AttrIndex>>,
    q: Arc<PatternQuery>,
    compiled: Arc<Compiled>,
    program: Arc<QueryProgram>,
    injective: bool,
    /// Resource governance shared with the caller (see
    /// [`MatchOptions::budget`]); on a trip the stream ends early and
    /// [`MatchStream::termination`] reports the cause.
    budget: Budget,
    /// Results still allowed out (from `MatchOptions::limit`).
    remaining: usize,
    started: bool,
    done: bool,
    /// Lazy cartesian enumerator over the materialized results of
    /// components `1..n` (program order, each factor capped at the stream
    /// limit; no factors for connected queries). Shared with `find`'s
    /// eager combination, so product order is identical by construction.
    odo: FactorOdometer,
    /// Current match of component 0, combined with every factor
    /// combination before the VM advances.
    cur0: Option<ResultGraph>,
    scratch: Scratch,
    /// Suspended VM frame stack of the component currently advancing.
    vs: VmState,
    /// Seed candidates of that component, viewed afresh on every
    /// `next()` call: a bucket is held by a shared handle, an edge list
    /// read from the topology.
    cur_seeds: SeedList,
    /// That component's predicates, bound to the topology once.
    bound: Bound<'g>,
}

impl<'g> MatchStream<'g> {
    /// Stream over a precompiled query. `compiled`/`program` must come
    /// from [`Matcher::compile_full`] (or
    /// [`Matcher::compile_with_passes`]) on a query with the same
    /// signature over the same graph and indexes — the contract the
    /// `whyq-session` plan cache maintains.
    pub fn over(
        g: &'g PropertyGraph,
        indexes: Vec<Arc<AttrIndex>>,
        q: Arc<PatternQuery>,
        compiled: Arc<Compiled>,
        program: Arc<QueryProgram>,
        opts: MatchOptions,
    ) -> Self {
        MatchStream {
            g,
            topo: g.topology(),
            indexes,
            q,
            compiled,
            program,
            injective: opts.injective,
            budget: opts.budget.clone(),
            remaining: opts.limit.unwrap_or(usize::MAX),
            started: false,
            done: false,
            odo: FactorOdometer::default(),
            cur0: None,
            scratch: Scratch::default(),
            vs: VmState::default(),
            cur_seeds: SeedList::All(0),
            bound: Bound::default(),
        }
    }

    /// How the stream's governed execution has ended so far:
    /// [`Termination::Complete`] while no budget limit has tripped. When a
    /// limit trips mid-stream, iteration stops early and this reports why
    /// — the results already yielded are a prefix of the full enumeration.
    pub fn termination(&self) -> Termination {
        self.budget.termination()
    }

    /// First-call setup: size the arena, materialize the factor lists of
    /// components `1..n` and park the component-0 VM at its seed scan.
    fn start(&mut self) {
        self.started = true;
        if self.q.num_vertices() == 0 || self.program.is_empty() || self.remaining == 0 {
            self.done = true;
            return;
        }
        // refuse an already-tripped (or zero) budget before any setup work
        if self.budget.poll().is_err() {
            self.done = true;
            return;
        }
        self.scratch.prepare(self.g, &self.q);
        let cap = self.remaining;
        let mut factors = Vec::new();
        for comp in 1..self.program.components().len() {
            let factor = self.run_component_to_vec(comp, cap);
            if factor.is_empty() {
                // an empty component zeroes the cartesian product
                self.done = true;
                return;
            }
            factors.push(factor);
        }
        self.odo = FactorOdometer::new(factors);
        self.begin_component(0);
    }

    /// Run one component's program to completion, collecting at most
    /// `cap` results, and leave the scratch arena clean.
    fn run_component_to_vec(&mut self, comp: usize, cap: usize) -> Vec<ResultGraph> {
        self.begin_component(comp);
        let mut out = Vec::new();
        while let Some(r) = self.next_component_match(comp) {
            out.push(r);
            if out.len() >= cap {
                break;
            }
        }
        // the run may have stopped before natural exhaustion: unbind
        // whatever its frames still hold
        self.with_vm(comp, vm::unwind);
        out
    }

    /// Park a fresh VM at component `comp`'s seed scan.
    fn begin_component(&mut self, comp: usize) {
        self.vs.reset();
        let prog = &self.program.components()[comp];
        self.cur_seeds = resolve_seeds(self.g, &self.indexes, prog);
        self.bound.bind(&self.compiled, prog, self.topo);
    }

    /// Run `f` on component `comp`'s VM context over the stream's own
    /// arena and suspended frame stack.
    fn with_vm<R>(
        &mut self,
        comp: usize,
        f: impl FnOnce(&VmCtx<'_>, &mut Scratch, &mut VmState) -> R,
    ) -> R {
        let cx = VmCtx {
            g: self.g,
            topo: self.topo,
            q: &self.q,
            compiled: &self.compiled,
            prog: &self.program.components()[comp],
            bound: &self.bound,
            injective: self.injective,
            budget: &self.budget,
            seeds: self.cur_seeds.view(self.topo, &(0..self.cur_seeds.len())),
        };
        f(&cx, &mut self.scratch, &mut self.vs)
    }

    /// Resume component `comp`'s VM until it emits the next full
    /// assignment (returned as a materialized [`ResultGraph`]) or
    /// exhausts / trips its budget.
    fn next_component_match(&mut self, comp: usize) -> Option<ResultGraph> {
        self.with_vm(comp, vm::next_match)
            .then(|| self.scratch.to_result())
    }
}

impl Iterator for MatchStream<'_> {
    type Item = ResultGraph;

    fn next(&mut self) -> Option<ResultGraph> {
        if !self.started {
            self.start();
        }
        if self.done || self.remaining == 0 {
            self.finish();
            return None;
        }
        if self.cur0.is_none() {
            match self.next_component_match(0) {
                Some(r) => {
                    self.cur0 = Some(r);
                    self.odo.reset();
                }
                None => {
                    self.finish();
                    return None;
                }
            }
        }
        if self.odo.num_factors() == 0 {
            self.remaining -= 1;
            return self.cur0.take();
        }
        let r = self.odo.combine(self.cur0.as_ref().expect("set above"));
        // odometer overflow moves the outer VM to its next component-0
        // match
        if !self.odo.advance() {
            self.cur0 = None;
        }
        self.remaining -= 1;
        Some(r)
    }
}

impl MatchStream<'_> {
    /// End the stream: exhausted, at its limit, or dropped. The
    /// transitions no full budget block has charged are charged now.
    fn finish(&mut self) {
        self.done = true;
        self.scratch.settle(&self.budget);
    }
}

impl Drop for MatchStream<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl<'g> Matcher<'g> {
    /// Stream the result graphs of `q` lazily — compile to bytecode and
    /// return a suspended search. Equivalent to [`Matcher::find`]
    /// result-for-result but pays only for the matches actually pulled
    /// from the iterator.
    pub fn stream(&self, q: &PatternQuery, opts: MatchOptions) -> MatchStream<'g> {
        let cq = self.compile_full(q);
        MatchStream::over(
            self.graph(),
            self.indexes().to_vec(),
            Arc::new(q.clone()),
            Arc::new(cq.compiled),
            Arc::new(cq.program),
            opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MatchOptions;
    use std::collections::BTreeMap;
    use whyq_graph::Value;
    use whyq_query::{DirectionSet, Predicate, QueryBuilder};

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
        g.add_edge(a, a, "knows", []);
        g
    }

    fn multiset(results: Vec<ResultGraph>) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for r in results {
            *m.entry(format!("{r:?}")).or_insert(0) += 1;
        }
        m
    }

    fn assert_stream_matches_find(g: &PropertyGraph, q: &PatternQuery, opts: MatchOptions) {
        let m = Matcher::new(g);
        let found = m.find(q, opts.clone());
        let streamed: Vec<ResultGraph> = m.stream(q, opts).collect();
        assert_eq!(multiset(found), multiset(streamed));
    }

    #[test]
    fn stream_equals_find_on_triangle() {
        let g = social();
        let q = QueryBuilder::new("colocated")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .vertex("city", [Predicate::eq("type", "city")])
            .edge("p1", "p2", "knows")
            .edge("p1", "city", "livesIn")
            .edge("p2", "city", "livesIn")
            .build();
        assert_stream_matches_find(&g, &q, MatchOptions::default());
    }

    #[test]
    fn stream_handles_directions_and_self_loops() {
        let g = social();
        let q = QueryBuilder::new("both")
            .vertex("x", [])
            .vertex("y", [])
            .edge_full("x", "y", "knows", DirectionSet::BOTH, [])
            .build();
        assert_stream_matches_find(&g, &q, MatchOptions::default());
        let hom = MatchOptions {
            injective: false,
            limit: None,
            ..Default::default()
        };
        assert_stream_matches_find(&g, &q, hom);
    }

    #[test]
    fn stream_is_lazy_under_limit() {
        let g = social();
        let q = QueryBuilder::new("p")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        let m = Matcher::new(&g);
        let mut s = m.stream(&q, MatchOptions::default());
        assert!(s.next().is_some());
        drop(s); // a dropped stream must not disturb the matcher
        assert_eq!(m.count(&q, MatchOptions::default()), 3);
        assert_stream_matches_find(&g, &q, MatchOptions::limited(2));
    }

    #[test]
    fn stream_combines_components_like_find() {
        let g = social();
        let q = QueryBuilder::new("pair")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .build();
        assert_stream_matches_find(&g, &q, MatchOptions::default());
        assert_stream_matches_find(&g, &q, MatchOptions::limited(3));
    }

    #[test]
    fn stream_of_unsatisfiable_query_is_empty() {
        let g = social();
        let q = QueryBuilder::new("robot")
            .vertex("r", [Predicate::eq("type", "robot")])
            .build();
        let m = Matcher::new(&g);
        assert_eq!(m.stream(&q, MatchOptions::default()).count(), 0);
        let empty = PatternQuery::new();
        assert_eq!(m.stream(&empty, MatchOptions::default()).count(), 0);
    }

    #[test]
    fn interleaved_streams_do_not_interfere() {
        let g = social();
        let q = QueryBuilder::new("p")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        let m = Matcher::new(&g);
        let mut s1 = m.stream(&q, MatchOptions::default());
        let mut s2 = m.stream(&q, MatchOptions::default());
        let a1 = s1.next();
        let b1 = s2.next();
        let a2 = s1.next();
        let b2 = s2.next();
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        assert_eq!(s1.count(), 1);
        assert_eq!(s2.count(), 1);
    }
}
