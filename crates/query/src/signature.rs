//! Canonical query signatures.
//!
//! The coarse-grained rewriter caches the cardinality of every executed
//! query candidate (§5.5, Appendix B.2). The cache key must identify a query
//! up to its *constraint content* — two candidates reached along different
//! relaxation paths but describing the same query must collide. Since query
//! element ids are stable and shared across all candidates derived from one
//! original query, a deterministic serialization in id order is canonical.

use crate::interval::Interval;
use crate::predicate::Predicate;
use crate::query::{PatternQuery, QEid, QVid};
use std::cell::RefCell;
use std::fmt::Write;
use std::ops::Range;
use whyq_graph::Value;

impl PatternQuery {
    /// Deterministic, canonical textual signature of this query — the key
    /// the plan cache and the rewriters' memo tables share. Two queries
    /// with equal signatures have identical live elements (ids, predicate
    /// sets, type disjunctions, direction sets), so any compilation or
    /// plan derived from one is valid for the other. Element ids are part
    /// of the signature: relabeled-but-isomorphic queries deliberately get
    /// *distinct* signatures — a cached plan binds concrete `QVid`/`QEid`
    /// slots and must never be served to a query with different ids.
    pub fn signature(&self) -> String {
        signature(self)
    }

    /// FNV-1a hash of [`PatternQuery::signature`] — a stable, platform-
    /// independent `u64` for callers that want a fixed-width cache key.
    /// Collisions are possible; cache implementations must verify the full
    /// signature on a hash hit before serving a cached plan.
    pub fn signature_hash(&self) -> u64 {
        fnv1a(&self.signature())
    }
}

/// Deterministic, canonical textual signature of a query.
pub fn signature(q: &PatternQuery) -> String {
    write_sig(q, q.vertex_ids(), q.edge_ids(), false, str::to_owned)
}

/// The signature of `q.edge_subquery(edges)` — the given live edges and
/// their endpoints — written from `q` without building the subquery.
/// Statistics are keyed by it (`paths(n)` counts of an edge set).
pub fn edge_subquery_signature(q: &PatternQuery, edges: &[QEid]) -> String {
    let kept = || q.edge_ids().filter(|e| edges.contains(e));
    let endpoint = |v: &QVid| kept().any(|e| q.edge(e).is_some_and(|ed| ed.touches(*v)));
    write_sig(
        q,
        q.vertex_ids().filter(endpoint),
        kept(),
        false,
        str::to_owned,
    )
}

/// Write the canonical blocks of the live `vertices`, then the live
/// `edges`, of `q` (each in id order) and hand the key to `finish`. With
/// `blank` interval contents become `*` (the shape signature of
/// [`crate::delta`]). Every signature in the crate is written here, into
/// reusable per-thread buffers: a key allocates only what `finish` keeps.
pub(crate) fn write_sig<R>(
    q: &PatternQuery,
    vertices: impl Iterator<Item = QVid>,
    edges: impl Iterator<Item = QEid>,
    blank: bool,
    finish: impl FnOnce(&str) -> R,
) -> R {
    SCRATCH.with_borrow_mut(|s| {
        s.out.clear();
        for v in vertices {
            if let Some(vx) = q.vertex(v) {
                s.out.push('V');
                push_int(&mut s.out, v.0.into());
                s.out.push('[');
                s.write_preds(&vx.predicates, blank);
                s.out.push(']');
            }
        }
        for e in edges {
            if let Some(ed) = q.edge(e) {
                for (text, id) in [("E", e.0), ("(", ed.src.0), ("->", ed.dst.0)] {
                    s.out.push_str(text);
                    push_int(&mut s.out, id.into());
                }
                let d =
                    usize::from(ed.directions.forward) * 2 + usize::from(ed.directions.backward);
                s.out.push_str([")d00t[", ")d01t[", ")d10t[", ")d11t["][d]);
                for t in &ed.types {
                    s.items.push(|b| b.push_str(t));
                }
                s.items.drain_into(&mut s.out, '|');
                s.out.push_str("]p[");
                s.write_preds(&ed.predicates, blank);
                s.out.push(']');
            }
        }
        finish(&s.out)
    })
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The signature writer's buffers: the key being written, the predicate
/// renderings of one element, and the values (or edge types) of one
/// disjunction.
#[derive(Default)]
struct Scratch {
    out: String,
    preds: Renderings,
    items: Renderings,
}

impl Scratch {
    /// Append one element's predicates, sorted, deduplicated and joined
    /// by `,`.
    fn write_preds(&mut self, preds: &[Predicate], blank: bool) {
        for p in preds {
            let items = &mut self.items;
            self.preds.push(|b| {
                b.push_str(&p.attr);
                b.push(':');
                if blank {
                    b.push('*');
                } else {
                    write_interval(b, &p.interval, items);
                }
            });
        }
        self.preds.drain_into(&mut self.out, ',');
    }
}

/// Renderings appended to one buffer, each a range of it.
#[derive(Default)]
struct Renderings {
    buf: String,
    ranges: Vec<Range<usize>>,
}

impl Renderings {
    fn push(&mut self, render: impl FnOnce(&mut String)) {
        let start = self.buf.len();
        render(&mut self.buf);
        self.ranges.push(start..self.buf.len());
    }

    /// Append the renderings to `out` sorted bytewise, deduplicated and
    /// joined by `sep`, and forget them.
    fn drain_into(&mut self, out: &mut String, sep: char) {
        let buf = &self.buf;
        self.ranges
            .sort_unstable_by(|a, b| buf[a.clone()].cmp(&buf[b.clone()]));
        let mut last: Option<&str> = None;
        for r in &self.ranges {
            let item = &buf[r.clone()];
            if last != Some(item) {
                if last.is_some() {
                    out.push(sep);
                }
                out.push_str(item);
                last = Some(item);
            }
        }
        self.buf.clear();
        self.ranges.clear();
    }
}

/// Append the canonical rendering of one predicate interval; a `OneOf`
/// renders its values through `items`.
fn write_interval(out: &mut String, i: &Interval, items: &mut Renderings) {
    match i {
        Interval::OneOf(vals) => {
            for v in vals {
                items.push(|b| write_value(b, v));
            }
            out.push('{');
            items.drain_into(out, '|');
            out.push('}');
        }
        Interval::Range {
            lo,
            hi,
            lo_incl,
            hi_incl,
        } => {
            let _ = write!(
                out,
                "r{}{:?}..{:?}{}",
                if *lo_incl { "[" } else { "(" },
                lo,
                hi,
                if *hi_incl { "]" } else { ")" }
            );
        }
    }
}

/// A value as a key renders it: its `Display`, except that a float NaN
/// carries its bit pattern. `Value` equality tells NaNs apart by their
/// bits (`total_cmp`), so two NaN constants must not share a key. Integers
/// and strings that `Debug` leaves unescaped are written without the
/// formatting machinery.
fn write_value(out: &mut String, v: &Value) {
    let plain = |b: u8| (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\';
    match v {
        Value::Int(i) => push_int(out, *i),
        Value::Float(x) if x.is_nan() => {
            let _ = write!(out, "NaN({:#018x})", x.to_bits());
        }
        _ => match v.as_str() {
            Some(text) if text.bytes().all(plain) => {
                out.push('"');
                out.push_str(text);
                out.push('"');
            }
            _ => {
                let _ = write!(out, "{v}");
            }
        },
    }
}

/// Append `n` in decimal, as `Display` writes it.
fn push_int(out: &mut String, n: i64) {
    fn digits(out: &mut String, m: u64) {
        if m >= 10 {
            digits(out, m / 10);
        }
        out.push(char::from(b'0' + (m % 10) as u8));
    }
    if n < 0 {
        out.push('-');
    }
    digits(out, n.unsigned_abs());
}

/// Stable FNV-1a hash of an arbitrary signature string.
pub(crate) fn fnv1a(s: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Canonical textual signature of one predicate interval — the
/// per-predicate comparisons in [`crate::delta`] use the same rendering
/// as the full-query signature.
pub(crate) fn interval_sig(i: &Interval) -> String {
    let mut out = String::new();
    write_interval(&mut out, i, &mut Renderings::default());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::query::{QueryEdge, QueryVertex};

    fn base() -> PatternQuery {
        let mut q = PatternQuery::new();
        let a = q.add_vertex(QueryVertex::with([Predicate::eq("type", "person")]));
        let b = q.add_vertex(QueryVertex::with([Predicate::eq("type", "city")]));
        q.add_edge(QueryEdge::typed(a, b, "livesIn"));
        q
    }

    #[test]
    fn identical_queries_share_signature() {
        assert_eq!(signature(&base()), signature(&base()));
    }

    #[test]
    fn predicate_order_does_not_matter() {
        let mut q1 = PatternQuery::new();
        q1.add_vertex(QueryVertex::with([
            Predicate::eq("a", 1),
            Predicate::eq("b", 2),
        ]));
        let mut q2 = PatternQuery::new();
        q2.add_vertex(QueryVertex::with([
            Predicate::eq("b", 2),
            Predicate::eq("a", 1),
        ]));
        assert_eq!(signature(&q1), signature(&q2));
    }

    #[test]
    fn duplicates_do_not_matter() {
        // duplicate predicates, edge types and disjunction values are
        // idempotent under conjunction/disjunction — canonicalize them away
        // so reordered-and-duplicated queries share one plan-cache slot
        let mut q1 = PatternQuery::new();
        let a1 = q1.add_vertex(QueryVertex::with([
            Predicate::eq("a", 1),
            Predicate::eq("a", 1),
            Predicate::one_of("t", ["x", "x", "y"]),
        ]));
        let b1 = q1.add_vertex(QueryVertex::any());
        let mut e1 = QueryEdge::typed(a1, b1, "knows");
        e1.types.push("knows".into());
        q1.add_edge(e1);

        let mut q2 = PatternQuery::new();
        let a2 = q2.add_vertex(QueryVertex::with([
            Predicate::one_of("t", ["y", "x"]),
            Predicate::eq("a", 1),
        ]));
        let b2 = q2.add_vertex(QueryVertex::any());
        q2.add_edge(QueryEdge::typed(a2, b2, "knows"));

        assert_eq!(signature(&q1), signature(&q2));
    }

    #[test]
    fn different_intervals_different_signatures() {
        let q1 = base();
        let mut q2 = base();
        q2.vertex_mut(crate::query::QVid(0))
            .unwrap()
            .predicate_mut("type")
            .unwrap()
            .interval = Interval::one_of(["person", "robot"]);
        assert_ne!(signature(&q1), signature(&q2));
    }

    #[test]
    fn removal_changes_signature() {
        let q1 = base();
        let mut q2 = base();
        q2.remove_edge(crate::query::QEid(0));
        assert_ne!(signature(&q1), signature(&q2));
    }
    #[test]
    fn nan_constants_keep_their_bits() {
        let nan_q = |x: f64| {
            let mut q = PatternQuery::new();
            q.add_vertex(QueryVertex::with([Predicate::eq("x", x)]));
            q
        };
        let (pos, neg) = (nan_q(f64::NAN), nan_q(-f64::NAN));
        assert_ne!(Value::Float(f64::NAN), Value::Float(-f64::NAN));
        assert_ne!(signature(&pos), signature(&neg));
        assert_eq!(signature(&pos), "V0[x:{NaN(0x7ff8000000000000)}]");
        assert_eq!(signature(&pos), signature(&nan_q(f64::NAN)));
    }

    /// The writer this module had before it appended into reusable
    /// buffers: `format!` per predicate, sorted and joined `Vec<String>`s.
    /// The property below holds the new writer to its bytes.
    mod legacy {
        use crate::interval::Interval;
        use crate::query::{PatternQuery, QEid, QVid};
        use std::fmt::Write;

        pub fn signature(q: &PatternQuery) -> String {
            whole(q, false)
        }

        pub fn shape_signature(q: &PatternQuery) -> String {
            whole(q, true)
        }

        fn whole(q: &PatternQuery, blank: bool) -> String {
            let mut out = String::new();
            for v in q.vertex_ids() {
                vertex(&mut out, q, v, blank);
            }
            for e in q.edge_ids() {
                edge(&mut out, q, e, blank);
            }
            out
        }

        pub fn component_signature(q: &PatternQuery, vertices: &[QVid]) -> String {
            let mut verts: Vec<QVid> = vertices.to_vec();
            verts.sort_by_key(|v| v.0);
            verts.dedup();
            let mut out = String::new();
            for &v in &verts {
                vertex(&mut out, q, v, false);
            }
            for e in q.edge_ids() {
                let ed = q.edge(e).expect("live");
                let in_comp = |v: QVid| verts.binary_search_by_key(&v.0, |x| x.0).is_ok();
                if in_comp(ed.src) && in_comp(ed.dst) {
                    edge(&mut out, q, e, false);
                }
            }
            out
        }

        fn preds(out: &mut String, ps: &[crate::predicate::Predicate], blank: bool) {
            let mut preds: Vec<String> = ps
                .iter()
                .map(|p| {
                    let i = if blank {
                        "*".to_string()
                    } else {
                        interval(&p.interval)
                    };
                    format!("{}:{}", p.attr, i)
                })
                .collect();
            preds.sort();
            preds.dedup();
            out.push_str(&preds.join(","));
        }

        fn vertex(out: &mut String, q: &PatternQuery, v: QVid, blank: bool) {
            let vx = q.vertex(v).expect("live");
            let _ = write!(out, "V{}[", v.0);
            preds(out, &vx.predicates, blank);
            out.push(']');
        }

        fn edge(out: &mut String, q: &PatternQuery, e: QEid, blank: bool) {
            let ed = q.edge(e).expect("live");
            let _ = write!(
                out,
                "E{}({}->{})d{}{}t[",
                e.0,
                ed.src.0,
                ed.dst.0,
                u8::from(ed.directions.forward),
                u8::from(ed.directions.backward)
            );
            let mut tys = ed.types.clone();
            tys.sort();
            tys.dedup();
            out.push_str(&tys.join("|"));
            out.push_str("]p[");
            preds(out, &ed.predicates, blank);
            out.push(']');
        }

        fn interval(i: &Interval) -> String {
            match i {
                Interval::OneOf(vals) => {
                    let mut parts: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
                    parts.sort();
                    parts.dedup();
                    format!("{{{}}}", parts.join("|"))
                }
                Interval::Range {
                    lo,
                    hi,
                    lo_incl,
                    hi_incl,
                } => format!(
                    "r{}{:?}..{:?}{}",
                    if *lo_incl { "[" } else { "(" },
                    lo,
                    hi,
                    if *hi_incl { "]" } else { ")" }
                ),
            }
        }
    }

    mod props {
        use super::legacy;
        use crate::delta::{component_signature, shape_hash, shape_signature};
        use crate::direction::DirectionSet;
        use crate::interval::Interval;
        use crate::predicate::Predicate;
        use crate::query::{PatternQuery, QEid, QVid, QueryEdge, QueryVertex};
        use crate::signature::{edge_subquery_signature, fnv1a, signature};
        use proptest::prelude::*;
        use whyq_graph::Value;

        /// Mixed-family values from small domains, so `OneOf` lists repeat
        /// values; strings include characters `Debug` escapes. No NaN.
        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                (-3i64..3).prop_map(Value::Int),
                prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(-10), Just(1_000_007)]
                    .prop_map(Value::Int),
                (-3i64..3).prop_map(|i| Value::Float(i as f64 / 2.0)),
                Just(Value::Float(-0.0)),
                "[a-c]{0,2}".prop_map(Value::str),
                "[!-(]{1,2}".prop_map(Value::str),
                "[Z-^]{1,2}".prop_map(Value::str),
                "[à-ã]{1}".prop_map(Value::str),
                Just(Value::str("\u{301}\t")),
                any::<bool>().prop_map(Value::Bool),
            ]
        }

        fn arb_bound() -> impl Strategy<Value = Option<f64>> {
            prop_oneof![Just(None), (-4i64..4).prop_map(|i| Some(i as f64 / 2.0))]
        }

        fn arb_interval() -> impl Strategy<Value = Interval> {
            prop_oneof![
                prop::collection::vec(arb_value(), 0..5).prop_map(Interval::OneOf),
                (arb_bound(), arb_bound(), any::<bool>(), any::<bool>()).prop_map(
                    |(lo, hi, lo_incl, hi_incl)| Interval::Range {
                        lo,
                        hi,
                        lo_incl,
                        hi_incl,
                    }
                ),
            ]
        }

        /// Predicates over three attributes, so an element often carries
        /// several predicates on one attribute, or one predicate twice.
        fn arb_preds() -> impl Strategy<Value = Vec<Predicate>> {
            (
                prop::collection::vec(("[a-c]{1}", arb_interval()), 0..4),
                any::<bool>(),
            )
                .prop_map(|(ps, repeat)| {
                    let mut ps: Vec<Predicate> = ps
                        .into_iter()
                        .map(|(attr, interval)| Predicate { attr, interval })
                        .collect();
                    if repeat && !ps.is_empty() {
                        ps.push(ps[0].clone());
                    }
                    ps
                })
        }

        type EdgeSpec = (u8, u8, Vec<String>, (bool, bool), Vec<Predicate>);

        fn arb_edge() -> impl Strategy<Value = EdgeSpec> {
            (
                0u8..6,
                0u8..6,
                prop::collection::vec("[k-m]{1}", 0..4),
                (any::<bool>(), any::<bool>()),
                arb_preds(),
            )
        }

        /// A query with up to six vertices, self-loops and parallel edges
        /// included, and some vertices and edges tombstoned.
        fn arb_query() -> impl Strategy<Value = PatternQuery> {
            (
                prop::collection::vec(arb_preds(), 1..7),
                prop::collection::vec(arb_edge(), 0..7),
                prop::collection::vec(0u8..8, 0..3),
                prop::collection::vec(0u8..8, 0..3),
            )
                .prop_map(|(verts, edges, dead_v, dead_e)| {
                    let mut q = PatternQuery::new();
                    let n = verts.len();
                    for predicates in verts {
                        q.add_vertex(QueryVertex {
                            predicates,
                            label: None,
                        });
                    }
                    for (s, d, types, (forward, backward), predicates) in edges {
                        q.add_edge(QueryEdge {
                            src: QVid(u32::from(s) % n as u32),
                            dst: QVid(u32::from(d) % n as u32),
                            types,
                            directions: DirectionSet { forward, backward },
                            predicates,
                            label: None,
                        });
                    }
                    for e in dead_e {
                        q.remove_edge(QEid(u32::from(e)));
                    }
                    for v in dead_v {
                        q.remove_vertex(QVid(u32::from(v)));
                    }
                    q
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every key the writer builds has the bytes of the writer it
            /// replaced, and the statistics keys written from the query
            /// equal the signatures of the subqueries they stand for.
            #[test]
            fn writer_keeps_the_bytes(q in arb_query(), pick in 0u8..64) {
                prop_assert_eq!(signature(&q), legacy::signature(&q));
                prop_assert_eq!(shape_signature(&q), legacy::shape_signature(&q));
                prop_assert_eq!(shape_hash(&q), fnv1a(&legacy::shape_signature(&q)));
                for comp in q.weakly_connected_components() {
                    prop_assert_eq!(
                        component_signature(&q, &comp),
                        legacy::component_signature(&q, &comp)
                    );
                }
                // an arbitrary vertex subset, given unsorted and repeated
                let mut some: Vec<QVid> = q
                    .vertex_ids()
                    .filter(|v| pick & (1 << (v.0 % 6)) != 0)
                    .collect();
                some.reverse();
                some.extend(some.clone());
                prop_assert_eq!(
                    component_signature(&q, &some),
                    legacy::component_signature(&q, &some)
                );
                for v in q.vertex_ids() {
                    prop_assert_eq!(
                        component_signature(&q, &[v]),
                        signature(&q.induced_subquery(&[v]))
                    );
                }
                let edges: Vec<QEid> = q.edge_ids().collect();
                for e in &edges {
                    prop_assert_eq!(
                        edge_subquery_signature(&q, &[*e]),
                        signature(&q.edge_subquery(&[*e]))
                    );
                }
                for w in edges.windows(2) {
                    prop_assert_eq!(
                        edge_subquery_signature(&q, w),
                        signature(&q.edge_subquery(w))
                    );
                }
                let mut all = edges.clone();
                all.reverse();
                all.extend(edges.iter().take(2));
                all.push(QEid(40));
                prop_assert_eq!(
                    edge_subquery_signature(&q, &all),
                    signature(&q.edge_subquery(&all))
                );
            }
        }
    }
}
