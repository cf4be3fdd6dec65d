//! Query deltas: classifying how one relax-loop sibling differs from
//! another.
//!
//! The coarse and fine rewriters (§6.3.1, §6.2.2) derive hundreds of
//! near-identical queries per relaxation step. The plan cache already
//! dedups *exact* repeats by full signature; this module provides the
//! finer-grained vocabulary the incremental layer needs:
//!
//! - [`component_signature`] — the canonical signature of one
//!   weakly-connected component, so per-component results can be shared
//!   between siblings whose *other* components changed;
//! - [`shape_signature`] / [`shape_hash`] — the signature with interval
//!   contents blanked, so a sibling can cheaply find candidate parents
//!   that differ only in constraint *content*;
//! - [`QueryDelta::between`] — a precise classification of the
//!   difference between two same-shape queries, used to decide whether a
//!   cached parent plan can be patched instead of recompiled.

use crate::modification::Target;
use crate::query::{PatternQuery, QEid, QVid};
use crate::signature::{fnv1a, interval_sig, write_sig};
use std::collections::BTreeMap;

/// Canonical signature of the sub-query induced by `vertices` (one weakly-
/// connected component) plus every live edge whose endpoints both lie in
/// it. Element ids are raw query ids — stable across relaxation siblings —
/// so two siblings that share a component verbatim produce byte-identical
/// component signatures, even when their other components differ.
pub fn component_signature(q: &PatternQuery, vertices: &[QVid]) -> String {
    let inside = |v: &QVid| vertices.contains(v);
    let internal = |e: &QEid| {
        q.edge(*e)
            .is_some_and(|ed| inside(&ed.src) && inside(&ed.dst))
    };
    let edges = q.edge_ids().filter(internal);
    write_sig(
        q,
        q.vertex_ids().filter(inside),
        edges,
        false,
        str::to_owned,
    )
}

/// The query signature with every interval's *content* blanked to `*`:
/// element ids, predicate attributes, edge endpoints/directions/types all
/// remain. Two queries with equal shape signatures differ at most in the
/// intervals of their predicates — exactly the family the relax loop's
/// interval rewrites (and the server batcher's `OneOf` variants) produce.
pub fn shape_signature(q: &PatternQuery) -> String {
    write_sig(q, q.vertex_ids(), q.edge_ids(), true, str::to_owned)
}

/// FNV-1a hash of [`shape_signature`] — the bucket key for the session's
/// recent-query registry. Collisions are possible; callers must confirm
/// with [`QueryDelta::between`] before acting on a hash hit.
pub fn shape_hash(q: &PatternQuery) -> u64 {
    write_sig(q, q.vertex_ids(), q.edge_ids(), true, fnv1a)
}

/// How a child query differs from a parent query (see
/// [`QueryDelta::between`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaKind {
    /// Identical constraint content: equal full signatures.
    Identical,
    /// Exactly one predicate's interval changed, on exactly one element,
    /// and that element carries exactly one predicate on that attribute
    /// in both queries. Everything else — structure, types, directions,
    /// every other predicate — is identical. This is the patchable case:
    /// a compiled parent plan stays valid after recompiling just the
    /// changed element's predicate table and its seed source.
    SingleInterval {
        /// The element whose predicate interval changed.
        target: Target,
        /// The attribute whose interval changed.
        attr: String,
    },
    /// Any other difference: element sets, edge endpoints/types/
    /// directions, predicate attribute sets, or several intervals.
    Other,
}

/// The classified difference between two queries sharing one id space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryDelta {
    /// The classification.
    pub kind: DeltaKind,
}

impl QueryDelta {
    /// Classify how `child` differs from `parent`. Both queries must come
    /// from the same relaxation family (shared element-id space) for the
    /// result to be meaningful; ids are compared raw, never re-labelled.
    pub fn between(parent: &PatternQuery, child: &PatternQuery) -> QueryDelta {
        let kind = classify(parent, child);
        QueryDelta { kind }
    }

    /// True when the delta admits plan patching ([`DeltaKind::SingleInterval`]).
    pub fn is_single_interval(&self) -> bool {
        matches!(self.kind, DeltaKind::SingleInterval { .. })
    }
}

fn classify(parent: &PatternQuery, child: &PatternQuery) -> DeltaKind {
    if parent.vertex_ids().ne(child.vertex_ids()) || parent.edge_ids().ne(child.edge_ids()) {
        return DeltaKind::Other;
    }
    // Structural edge content (endpoints, directions, admissible types)
    // must match exactly — only predicate intervals may move.
    for e in parent.edge_ids() {
        let pe = parent.edge(e).expect("live");
        let ce = child.edge(e).expect("live");
        if pe.src != ce.src || pe.dst != ce.dst || pe.directions != ce.directions {
            return DeltaKind::Other;
        }
        let mut pt = pe.types.clone();
        let mut ct = ce.types.clone();
        pt.sort();
        pt.dedup();
        ct.sort();
        ct.dedup();
        if pt != ct {
            return DeltaKind::Other;
        }
    }
    let mut diffs: Vec<(Target, String)> = Vec::new();
    for v in parent.vertex_ids() {
        let pp = &parent.vertex(v).expect("live").predicates;
        let cp = &child.vertex(v).expect("live").predicates;
        match diff_preds(pp, cp) {
            PredDiff::Same => {}
            PredDiff::OneInterval(attr) => diffs.push((Target::Vertex(v), attr)),
            PredDiff::Other => return DeltaKind::Other,
        }
    }
    for e in parent.edge_ids() {
        let pp = &parent.edge(e).expect("live").predicates;
        let cp = &child.edge(e).expect("live").predicates;
        match diff_preds(pp, cp) {
            PredDiff::Same => {}
            PredDiff::OneInterval(attr) => diffs.push((Target::Edge(e), attr)),
            PredDiff::Other => return DeltaKind::Other,
        }
    }
    match (diffs.pop(), diffs.pop()) {
        (None, _) => DeltaKind::Identical,
        (Some((target, attr)), None) => DeltaKind::SingleInterval { target, attr },
        _ => DeltaKind::Other,
    }
}

enum PredDiff {
    Same,
    OneInterval(String),
    Other,
}

/// Compare two predicate lists under the signature's canonicalization
/// (per-attribute *sets* of interval signatures — order and duplicates
/// are irrelevant, matching [`crate::signature::signature`] semantics).
fn diff_preds(
    parent: &[crate::predicate::Predicate],
    child: &[crate::predicate::Predicate],
) -> PredDiff {
    let group = |preds: &[crate::predicate::Predicate]| -> BTreeMap<String, Vec<String>> {
        let mut m: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for p in preds {
            m.entry(p.attr.clone())
                .or_default()
                .push(interval_sig(&p.interval));
        }
        for sigs in m.values_mut() {
            sigs.sort();
            sigs.dedup();
        }
        m
    };
    let pm = group(parent);
    let cm = group(child);
    // Predicate added or removed (attribute sets differ) is structural.
    if pm.keys().ne(cm.keys()) {
        return PredDiff::Other;
    }
    let mut changed: Option<String> = None;
    for (attr, psigs) in &pm {
        let csigs = &cm[attr];
        if psigs == csigs {
            continue;
        }
        // A patchable interval change: exactly one predicate on this
        // attribute on both sides, and no other attribute changed.
        if psigs.len() != 1 || csigs.len() != 1 || changed.is_some() {
            return PredDiff::Other;
        }
        changed = Some(attr.clone());
    }
    match changed {
        Some(attr) => PredDiff::OneInterval(attr),
        None => PredDiff::Same,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::predicate::Predicate;
    use crate::query::{QEid, QueryEdge, QueryVertex};

    fn base() -> PatternQuery {
        let mut q = PatternQuery::new();
        let a = q.add_vertex(QueryVertex::with([
            Predicate::eq("type", "person"),
            Predicate::eq("city", "berlin"),
        ]));
        let b = q.add_vertex(QueryVertex::with([Predicate::eq("type", "city")]));
        q.add_edge(QueryEdge::typed(a, b, "livesIn"));
        q
    }

    #[test]
    fn identical_queries_classify_identical() {
        let d = QueryDelta::between(&base(), &base());
        assert_eq!(d.kind, DeltaKind::Identical);
    }

    #[test]
    fn single_interval_change_is_patchable() {
        let parent = base();
        let mut child = base();
        child
            .vertex_mut(QVid(0))
            .unwrap()
            .predicate_mut("city")
            .unwrap()
            .interval = Interval::one_of(["berlin", "dresden"]);
        let d = QueryDelta::between(&parent, &child);
        assert_eq!(
            d.kind,
            DeltaKind::SingleInterval {
                target: Target::Vertex(QVid(0)),
                attr: "city".into(),
            }
        );
        assert!(d.is_single_interval());
    }

    #[test]
    fn two_interval_changes_are_other() {
        let parent = base();
        let mut child = base();
        child
            .vertex_mut(QVid(0))
            .unwrap()
            .predicate_mut("city")
            .unwrap()
            .interval = Interval::one_of(["berlin", "dresden"]);
        child
            .vertex_mut(QVid(1))
            .unwrap()
            .predicate_mut("type")
            .unwrap()
            .interval = Interval::one_of(["city", "country"]);
        assert_eq!(QueryDelta::between(&parent, &child).kind, DeltaKind::Other);
    }

    #[test]
    fn removed_predicate_is_other() {
        let parent = base();
        let mut child = base();
        child
            .vertex_mut(QVid(0))
            .unwrap()
            .predicates
            .retain(|p| p.attr != "city");
        assert_eq!(QueryDelta::between(&parent, &child).kind, DeltaKind::Other);
    }

    #[test]
    fn removed_edge_is_other() {
        let parent = base();
        let mut child = base();
        child.remove_edge(QEid(0));
        assert_eq!(QueryDelta::between(&parent, &child).kind, DeltaKind::Other);
    }

    #[test]
    fn changed_edge_type_is_other() {
        let parent = base();
        let mut child = base();
        child.edge_mut(QEid(0)).unwrap().types = vec!["worksIn".into()];
        assert_eq!(QueryDelta::between(&parent, &child).kind, DeltaKind::Other);
    }

    #[test]
    fn edge_predicate_interval_change_targets_the_edge() {
        let mut parent = base();
        parent.edge_mut(QEid(0)).unwrap().predicates = vec![Predicate::eq("since", 2000)];
        let mut child = parent.clone();
        child
            .edge_mut(QEid(0))
            .unwrap()
            .predicate_mut("since")
            .unwrap()
            .interval = Interval::one_of([2000, 2001]);
        assert_eq!(
            QueryDelta::between(&parent, &child).kind,
            DeltaKind::SingleInterval {
                target: Target::Edge(QEid(0)),
                attr: "since".into(),
            }
        );
    }

    #[test]
    fn shape_signature_ignores_interval_content_only() {
        let parent = base();
        let mut child = base();
        child
            .vertex_mut(QVid(0))
            .unwrap()
            .predicate_mut("city")
            .unwrap()
            .interval = Interval::one_of(["berlin", "dresden"]);
        assert_eq!(shape_signature(&parent), shape_signature(&child));
        assert_eq!(shape_hash(&parent), shape_hash(&child));
        assert_ne!(parent.signature(), child.signature());

        let mut structural = base();
        structural.remove_edge(QEid(0));
        assert_ne!(shape_signature(&parent), shape_signature(&structural));
    }

    #[test]
    fn component_signatures_survive_unrelated_changes() {
        // two disconnected pairs; relaxing one leaves the other's
        // component signature byte-identical
        let mut q = PatternQuery::new();
        let a = q.add_vertex(QueryVertex::with([Predicate::eq("type", "person")]));
        let b = q.add_vertex(QueryVertex::with([Predicate::eq("type", "city")]));
        q.add_edge(QueryEdge::typed(a, b, "livesIn"));
        let c = q.add_vertex(QueryVertex::with([Predicate::eq("type", "tag")]));
        let d = q.add_vertex(QueryVertex::with([Predicate::eq("type", "forum")]));
        q.add_edge(QueryEdge::typed(c, d, "hasTag"));

        let comps = q.weakly_connected_components();
        assert_eq!(comps.len(), 2);
        let before: Vec<String> = comps.iter().map(|cs| component_signature(&q, cs)).collect();

        let mut relaxed = q.clone();
        relaxed
            .vertex_mut(c)
            .unwrap()
            .predicate_mut("type")
            .unwrap()
            .interval = Interval::one_of(["tag", "tagclass"]);
        let rcomps = relaxed.weakly_connected_components();
        let after: Vec<String> = rcomps
            .iter()
            .map(|cs| component_signature(&relaxed, cs))
            .collect();

        assert_eq!(before[0], after[0], "untouched component key is stable");
        assert_ne!(before[1], after[1], "relaxed component key changes");
    }
}
