//! §6.3.2 before execution: proving a change non-contributing without
//! counting it.
//!
//! Every change TRAVERSESEARCHTREE proves here relaxes its query: the child
//! matches everything its parent matches, and a new match must bind the
//! changed element to a data element the parent did not admit. The
//! catalog's type triples ([`AttributeDomains::connects`]) tell which
//! data edges exist between vertices of which `type`. When no triple fits
//! such a binding, the child matches exactly what its parent matches, so
//! it counts the same and is non-contributing. This is a data-dependent
//! equivalence proof in the sense of "Proving Cypher Query Equivalence"
//! (PAPERS.md): it reads a summary of the graph, never the query's answer.
//!
//! Four changes qualify:
//!
//! * `InsertType` on an edge that already lists types: no triple of the
//!   new type joins the endpoints' admitted `type`s in an admitted
//!   direction;
//! * `InsertDirection`: no triple of an admitted type joins the endpoints'
//!   admitted `type`s in the new direction;
//! * a widening of a vertex's `type` predicate (`ReplaceInterval`) and its
//!   removal (`RemovePredicate`): the vertex now admits more `type`
//!   buckets, the untyped one included once the predicate is gone, and
//!   some non-loop incident query edge has no triple from an added bucket
//!   to the other endpoint's admitted `type`s.
//!
//! The proofs ignore every other predicate and injectivity: both only
//! remove bindings, so the triples over-approximate what can bind.

use whyq_graph::domains::{AttributeDomains, TYPE_ATTR};
use whyq_query::{
    Direction, DirectionSet, GraphMod, PatternQuery, QVid, QueryEdge, QueryVertex, Target,
};

/// Does `child`, which `m` derives from `parent`, provably match exactly
/// what `parent` matches over the graph `domains` summarizes?
pub fn non_contributing(
    domains: &AttributeDomains,
    parent: &PatternQuery,
    m: &GraphMod,
    child: &PatternQuery,
) -> bool {
    match m {
        GraphMod::InsertType { edge, ty } => {
            let e = parent.edge(*edge).expect("live");
            let added: Vec<bool> = domains.edge_types().iter().map(|t| t == ty).collect();
            !e.types.is_empty() && !binds(domains, parent, e, &added, e.directions)
        }
        GraphMod::InsertDirection { edge, dir } => {
            let e = parent.edge(*edge).expect("live");
            let only = match dir {
                Direction::Forward => DirectionSet::FORWARD,
                Direction::Backward => DirectionSet::BACKWARD,
            };
            !binds(domains, parent, e, &edge_types(domains, e), only)
        }
        GraphMod::ReplaceInterval {
            target: Target::Vertex(v),
            attr,
            ..
        }
        | GraphMod::RemovePredicate {
            target: Target::Vertex(v),
            attr,
        } if attr == TYPE_ATTR => widening_binds_nothing_new(domains, parent, child, *v),
        _ => false,
    }
}

/// `child` changes only `v`'s `type` predicates. Does `v` admit every
/// bucket it admitted in `parent`, and can none of the added buckets bind
/// along some non-loop edge of `v`?
fn widening_binds_nothing_new(
    domains: &AttributeDomains,
    parent: &PatternQuery,
    child: &PatternQuery,
    v: QVid,
) -> bool {
    let before = buckets(domains, parent.vertex(v).expect("live"));
    let after = buckets(domains, child.vertex(v).expect("live"));
    if before.iter().zip(&after).any(|(&b, &a)| b && !a) {
        return false;
    }
    let added: Vec<bool> = before.iter().zip(&after).map(|(&b, &a)| a && !b).collect();
    child.incident_edges(v).into_iter().any(|id| {
        let e = child.edge(id).expect("live");
        if e.src == e.dst {
            return false;
        }
        let other = buckets(domains, child.vertex(e.other(v)).expect("live"));
        let (src, dst) = if e.src == v {
            (&added, &other)
        } else {
            (&other, &added)
        };
        !connects(domains, src, &edge_types(domains, e), dst, e.directions)
    })
}

/// Can `e` of `q`, restricted to the edge types `ty` and to `dirs`, bind a
/// data edge between vertices its endpoints admit?
fn binds(
    domains: &AttributeDomains,
    q: &PatternQuery,
    e: &QueryEdge,
    ty: &[bool],
    dirs: DirectionSet,
) -> bool {
    let src = buckets(domains, q.vertex(e.src).expect("live"));
    let dst = buckets(domains, q.vertex(e.dst).expect("live"));
    connects(domains, &src, ty, &dst, dirs)
}

/// Is some data edge of a type in `ty` oriented by `dirs` between a
/// `src`-bucket vertex (the query edge's source) and a `dst`-bucket one?
/// A backward binding runs from the target's vertex to the source's.
fn connects(
    domains: &AttributeDomains,
    src: &[bool],
    ty: &[bool],
    dst: &[bool],
    dirs: DirectionSet,
) -> bool {
    (dirs.forward && domains.connects(src, ty, dst))
        || (dirs.backward && domains.connects(dst, ty, src))
}

/// The `type` buckets the vertex admits: all of them without a `type`
/// predicate, else those whose value every `type` predicate accepts.
fn buckets(domains: &AttributeDomains, vertex: &QueryVertex) -> Vec<bool> {
    domains
        .type_buckets()
        .iter()
        .map(|b| {
            vertex
                .predicates
                .iter()
                .filter(|p| p.attr == TYPE_ATTR)
                .all(|p| p.matches(b.as_ref()))
        })
        .collect()
}

/// The edge types `e` admits: all of them when it lists none.
fn edge_types(domains: &AttributeDomains, e: &QueryEdge) -> Vec<bool> {
    domains
        .edge_types()
        .iter()
        .map(|t| e.types.is_empty() || e.types.contains(t))
        .collect()
}
