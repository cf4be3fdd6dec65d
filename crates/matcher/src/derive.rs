//! Sibling-plan derivation: patch a compiled parent plan for a child
//! query that differs in exactly one predicate interval.
//!
//! The relax loop (§6.3.1) and the server batcher both produce streams of
//! queries that are structurally identical and differ only in one
//! constraint's interval — `whyq_query::DeltaKind::SingleInterval`. For
//! those, a full recompile (analyze → plan → optimize → encode) does no
//! new work: the instruction stream tests predicates *by reference* into
//! the [`Compiled`] table at run time, so swapping the changed element's
//! resolved predicates and, when necessary, rebuilding the seed source of
//! the one affected component yields a plan that is result-equivalent to
//! a fresh compile.
//!
//! Soundness rests on two invariants of [`crate::plan_ir::lower`] and
//! the optimizer:
//!
//! - **An element with a resolved predicate always gets its inline
//!   test.** `lower` emits `VertexPreds` for every vertex that compiled
//!   to at least one predicate and `EdgeAttrs` for every edge with an
//!   attribute predicate. Derivation is refused unless the parent's
//!   compiled element carries a resolved predicate on the changed
//!   attribute (the analyzer only ever *merges or drops* predicates it
//!   proves redundant), so the parent program tests that element, and
//!   the test reads the patched [`Compiled`] table at run time.
//! - **Seed selection never drops a test.** The seed scan runs its
//!   `VertexPreds` filter whatever its source, so a seed source that
//!   *over*-approximates the changed interval's candidates (up to
//!   `FullScan`) changes cost, never results. An edge seed tests its
//!   seed vertex inline the same way, and its type's list holds every
//!   candidate edge whatever the interval, so a derived program keeps
//!   the parent's edge seed.
//!
//! Row *order* of a derived program can differ from a fresh compile of
//! the same query (the optimizer might have chosen a different seed); the
//! session layer keys cached row lists by [`crate::vm::Program::fingerprint`]
//! to keep replay order-exact.

use crate::compile::{Compiled, CompiledEdge, CompiledVertex};
use crate::index::AttrIndex;
use crate::plan_ir::SeedSpec;
use crate::vm::{Program, QueryProgram};
use std::sync::Arc;
use whyq_graph::{PropertyGraph, Symbol, Value};
use whyq_query::{Interval, PatternQuery, QVid, Target};

/// Derive a compiled plan for `child` from its parent's plan, given that
/// the two differ only in the interval of the single predicate named by
/// (`target`, `attr`) — the caller is responsible for having classified
/// the pair via `whyq_query::QueryDelta::between`.
///
/// A patched element that compiles unsatisfiable (see
/// [`crate::compile`]) makes the whole child unsatisfiable: the answer is
/// the empty program a full compile would return, with no further check.
/// Otherwise returns `None` when the patch cannot be proven sound
/// (unknown attribute, untested predicate, component mismatch); the
/// caller then falls back to a full compile.
pub fn derive_sibling(
    g: &PropertyGraph,
    indexes: &[Arc<AttrIndex>],
    parent_compiled: &Compiled,
    parent_program: &QueryProgram,
    child: &PatternQuery,
    target: Target,
    attr: &str,
) -> Option<(Compiled, QueryProgram)> {
    // The changed attribute must resolve in this graph, otherwise the
    // child predicate is unsatisfiable and the full pipeline's pruning
    // (analyzer + compile) is the right path.
    let sym = g.attr_symbol(attr)?;

    let components = child.weakly_connected_components();
    if parent_program.components().len() != components.len() {
        return None;
    }

    let mut compiled = parent_compiled.clone();
    match target {
        Target::Vertex(v) => {
            let slot = compiled.vertices.get_mut(v.0 as usize)?.as_mut()?;
            let patched = CompiledVertex::compile(g, child.vertex(v)?);
            if patched.unsatisfiable() {
                *slot = patched;
                return Some((compiled, QueryProgram::default()));
            }
            // Refuse unless the parent plan provably tests this attribute.
            if !slot.preds.iter().any(|p| p.attr_symbol() == Some(sym)) {
                return None;
            }
            *slot = patched;
            // Only the changed vertex's component can need a new seed
            // source, and only when that vertex seeds it.
            let comp_idx = components.iter().position(|c| c.contains(&v))?;
            let prog = &parent_program.components()[comp_idx];
            let new_prog = if prog.seed_vertex() == v {
                reseed(indexes, prog, child, v, sym, attr)?
            } else {
                prog.clone()
            };
            let mut progs: Vec<Program> = parent_program.components().to_vec();
            progs[comp_idx] = new_prog;
            Some((compiled, QueryProgram::from_components(progs)))
        }
        Target::Edge(e) => {
            let slot = compiled.edges.get_mut(e.0 as usize)?.as_mut()?;
            let patched = CompiledEdge::compile(g, child.edge(e)?);
            if patched.unsatisfiable() {
                *slot = patched;
                return Some((compiled, QueryProgram::default()));
            }
            if !slot.preds.iter().any(|p| p.attr_symbol() == Some(sym)) {
                return None;
            }
            *slot = patched;
            // Edge predicates never feed seed selection; the programs
            // carry over verbatim and read the patched table at run time.
            Some((compiled, parent_program.clone()))
        }
    }
}

/// Rebuild the seed source of `prog` for the changed predicate on the
/// seed vertex itself. Every rewrite here yields a source that *covers*
/// the child interval's candidates (superset is fine — the filter chain
/// still runs), so correctness never depends on the interval's shape.
fn reseed(
    indexes: &[Arc<AttrIndex>],
    prog: &Program,
    child: &PatternQuery,
    v: QVid,
    sym: Symbol,
    attr: &str,
) -> Option<Program> {
    let on_changed_attr =
        |pos: usize| -> bool { indexes.get(pos).is_some_and(|i| i.attr() == sym) };
    let child_interval = || -> Option<&Interval> {
        child
            .vertex(v)?
            .predicates
            .iter()
            .find(|p| p.attr == attr)
            .map(|p| &p.interval)
    };
    // The keys an index probe may use for the child interval: every
    // `OneOf` constant, or a degenerate point range. `None` = the
    // interval is not enumerable (a real range) — fall back to coverage
    // by scan.
    let probe_keys = |i: &Interval| -> Option<Vec<Value>> {
        match i {
            Interval::OneOf(vals) => {
                let mut keys: Vec<Value> = Vec::with_capacity(vals.len());
                for val in vals {
                    if !keys.contains(val) {
                        keys.push(val.clone());
                    }
                }
                (!keys.is_empty()).then_some(keys)
            }
            _ => i.point_value().map(|pv| vec![pv]),
        }
    };
    let spec = match prog.seed() {
        // the seed vertex's predicates are tested inline, and the edge
        // list holds every candidate whatever they are
        spec @ (SeedSpec::FullScan | SeedSpec::TypeEdges { .. }) => spec.clone(),
        SeedSpec::Bucket { index, key } if !on_changed_attr(*index) => SeedSpec::Bucket {
            index: *index,
            key: key.clone(),
        },
        SeedSpec::Union { index, keys } if !on_changed_attr(*index) => SeedSpec::Union {
            index: *index,
            keys: keys.clone(),
        },
        SeedSpec::Bucket { index, .. } | SeedSpec::Union { index, .. } => {
            match probe_keys(child_interval()?) {
                Some(mut keys) if keys.len() == 1 => SeedSpec::Bucket {
                    index: *index,
                    key: keys.pop().expect("one key"),
                },
                Some(keys) => SeedSpec::Union {
                    index: *index,
                    keys,
                },
                None => SeedSpec::FullScan,
            }
        }
        SeedSpec::Intersect { probes } => {
            let mut kept: Vec<(usize, Value)> = probes
                .iter()
                .filter(|(pos, _)| !on_changed_attr(*pos))
                .cloned()
                .collect();
            // Re-probe the changed attribute only when the new interval
            // is a single point; otherwise dropping its probe leaves a
            // sound superset.
            if let Some(pos) = probes.iter().map(|(p, _)| *p).find(|&p| on_changed_attr(p)) {
                if let Some(pv) = child_interval()?.point_value() {
                    kept.push((pos, pv));
                }
            }
            match kept.len() {
                0 => SeedSpec::FullScan,
                1 => {
                    let (index, key) = kept.pop().expect("one probe");
                    SeedSpec::Bucket { index, key }
                }
                _ => SeedSpec::Intersect { probes: kept },
            }
        }
    };
    Some(prog.with_seed(spec))
}
