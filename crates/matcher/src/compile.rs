//! Query compilation: resolve attribute/type names *and predicate
//! constants* against a graph's interners and observed value ranges, and
//! build a per-component evaluation plan.
//!
//! A query predicate names attributes by string and carries string
//! constants; the graph stores interned symbols on both axes (attribute
//! names since PR 1, attribute *values* since the value dictionary).
//! Compilation resolves each name and each string constant once, so the
//! inner matching loops compare integers only:
//!
//! * an attribute name resolves to its `Symbol` — absent from the graph
//!   means the predicate can match nothing;
//! * every string constant of a `OneOf` interval resolves through the
//!   graph's value dictionary — a constant the dictionary has never seen
//!   cannot equal any stored (always-encoded) string and is dropped from
//!   the disjunction at compile time.
//!
//! The dictionary refutes strings; the graph's observed numeric range of
//! the attribute ([`PropertyGraph::numeric_range`], kept separately for
//! vertex and edge attributes) and the conjunction of an element's
//! predicates on one attribute refute the rest:
//!
//! * a numeric `OneOf` constant outside the observed range equals no
//!   stored number and is dropped like an unknown string;
//! * a `Range` disjoint from the observed range (its
//!   [`Interval::intersect`] with it [`is_vacuous`](Interval::is_vacuous)),
//!   or on an attribute that stores no number on that kind of element,
//!   matches nothing;
//! * predicates of one element on one attribute whose intersection is
//!   vacuous (`age >= 40 ∧ age <= 30`) match nothing together.
//!
//! A disjunction that loses *all* its constants, or a refuted range or
//! conjunction, proves the predicate **unsatisfiable**, which
//! [`Compiled::unsatisfiable`] surfaces so the engine answers "no
//! matches" before it builds a plan or scans a candidate.
//!
//! Last, each resolved predicate derives its **code test** against the
//! attribute's sealed code column on its side of the graph
//! ([`CsrTopology::column`]): binary searches in the column's sorted
//! dictionary give a span of codes for a range and a few codes for a
//! disjunction, and a code passes exactly when the dictionary value it
//! stands for satisfies the predicate. The engine's candidate loop then
//! tests `type = "person"` or `birthYear >= 1984` on one or two bytes per
//! element and reads the element's [`AttrMap`] only for the
//! [`FALLBACK`] code, for an attribute without a column, and for a
//! disjunction with an `Int` constant beyond 2^53 (no code test).

use crate::index::AttrIndex;
use std::sync::Arc;
use whyq_graph::csr::{AttrColumn, FALLBACK};
use whyq_graph::{AttrMap, CsrTopology, EdgeData, PropertyGraph, Symbol, Value, VertexId};
use whyq_query::{Interval, PatternQuery, Predicate, QEid, QVid, QueryEdge, QueryVertex};

/// A predicate interval with its string constants resolved against the
/// graph's value dictionary.
#[derive(Debug, Clone)]
pub enum CompiledInterval {
    /// Explicit disjunction, split by family: interned string constants
    /// (compared by symbol) and non-string constants (compared by value).
    /// String constants absent from the dictionary were dropped — they can
    /// equal no stored string.
    OneOf {
        /// Resolved string constants; the `Arc<str>` is kept only for the
        /// defensive un-encoded-string fallback and for display.
        syms: Vec<(Symbol, Arc<str>)>,
        /// Non-string constants (numbers, booleans).
        other: Vec<Value>,
    },
    /// Numeric range, kept as the query interval itself: range evaluation
    /// never touches the dictionary, and delegating to
    /// [`Interval::matches`] keeps the engine's bounds/NaN semantics in
    /// lockstep with the oracle's by construction.
    Range(Interval),
}

impl CompiledInterval {
    /// Resolve the string constants of `interval` against `g`'s value
    /// dictionary and refute its numbers against `observed`, the
    /// attribute's observed numeric range (`None`: the attribute stores no
    /// number on this kind of element).
    pub fn resolve(g: &PropertyGraph, interval: &Interval, observed: Option<(f64, f64)>) -> Self {
        match interval {
            Interval::OneOf(vals) => {
                let mut syms: Vec<(Symbol, Arc<str>)> = Vec::new();
                let mut other = Vec::new();
                let mut push_sym = |sym: Symbol, text: Arc<str>| {
                    if !syms.iter().any(|(s, _)| *s == sym) {
                        syms.push((sym, text));
                    }
                };
                for v in vals {
                    match v {
                        // a constant already encoded by *this* graph's
                        // dictionary — the why-engine's relax loop builds
                        // its candidate intervals from domain values
                        // cloned out of the graph, so this arm makes
                        // recompiling hundreds of relaxed queries skip
                        // even the dictionary hash probe
                        Value::Sym(sv) if sv.dict_id() == g.values().dict_id() => {
                            push_sym(sv.sym(), Arc::clone(sv.text_arc()));
                        }
                        v => match v.as_str() {
                            Some(text) => {
                                if let Some(sym) = g.value_symbol(text) {
                                    push_sym(sym, Arc::clone(g.values().resolve_arc(sym)));
                                }
                                // absent from the dictionary: unmatchable, drop
                            }
                            // a number outside the observed range equals
                            // no stored number: unmatchable, drop
                            None if outside(v, observed) => {}
                            None => other.push(v.clone()),
                        },
                    }
                }
                CompiledInterval::OneOf { syms, other }
            }
            range @ Interval::Range { .. } => {
                let admits_stored = observed.is_some_and(|(lo, hi)| {
                    !range.intersect(&Interval::between(lo, hi)).is_vacuous()
                });
                if admits_stored {
                    CompiledInterval::Range(range.clone())
                } else {
                    CompiledInterval::refuted()
                }
            }
        }
    }

    /// The interval no stored value satisfies.
    fn refuted() -> Self {
        CompiledInterval::OneOf {
            syms: Vec::new(),
            other: Vec::new(),
        }
    }

    /// Does a *stored* attribute value satisfy the interval? Stored string
    /// values are dictionary-encoded (the graph interns on insertion), so
    /// the string case is a scan over a few `u32`s; the `Str` arm is a
    /// defensive fallback that never fires on graph-API-built data.
    pub fn matches_stored(&self, v: &Value) -> bool {
        match self {
            CompiledInterval::OneOf { syms, other } => match v {
                Value::Sym(sv) => {
                    let s = sv.sym();
                    syms.iter().any(|(c, _)| *c == s)
                }
                Value::Str(s) => syms.iter().any(|(_, t)| **t == **s),
                v => other.iter().any(|c| c == v),
            },
            CompiledInterval::Range(iv) => iv.matches(v),
        }
    }

    /// True when no stored value can satisfy the interval: an exhausted
    /// disjunction — empty to begin with, every constant pruned by the
    /// dictionary or the observed range, or a range refuted by
    /// [`CompiledInterval::resolve`], which compiles an empty, NaN-bounded
    /// or out-of-range `Range` to the empty disjunction.
    pub fn is_unsatisfiable(&self) -> bool {
        matches!(self, CompiledInterval::OneOf { syms, other } if syms.is_empty() && other.is_empty())
    }
}

/// A predicate with its attribute name and string constants resolved to
/// graph symbols, and its test on the attribute's code column.
#[derive(Debug, Clone)]
pub struct ResolvedPredicate {
    /// `None` when the graph has no such attribute anywhere — the predicate
    /// is unsatisfiable.
    sym: Option<Symbol>,
    /// The interval, with string constants dictionary-resolved.
    interval: CompiledInterval,
    /// The codes that pass, when the attribute has a column on this
    /// predicate's side and the interval a code test.
    codes: Option<CodeTest>,
}

impl ResolvedPredicate {
    /// Resolve `p` against `g`'s name and value dictionaries, against the
    /// observed numeric range of its attribute over `g`'s vertices, or its
    /// edges when `on_edges` is set, and against that side's code column.
    pub fn resolve(g: &PropertyGraph, p: &Predicate, on_edges: bool) -> Self {
        let sym = g.attr_symbol(&p.attr);
        let observed = sym.and_then(|s| g.numeric_range(s, on_edges));
        Self::with_interval(
            g,
            sym,
            CompiledInterval::resolve(g, &p.interval, observed),
            on_edges,
        )
    }

    fn with_interval(
        g: &PropertyGraph,
        sym: Option<Symbol>,
        interval: CompiledInterval,
        on_edges: bool,
    ) -> Self {
        let topo = g.topology();
        let codes = sym.and_then(|s| {
            let col = topo.column(s, on_edges)?;
            CodeTest::derive(topo.id(), s, on_edges, col, &interval)
        });
        ResolvedPredicate {
            sym,
            interval,
            codes,
        }
    }

    /// Check the predicate against an attribute map.
    #[inline]
    pub fn matches(&self, attrs: &AttrMap) -> bool {
        match self.sym {
            Some(s) => match attrs.get(s) {
                Some(v) => self.interval.matches_stored(v),
                None => false,
            },
            None => false,
        }
    }

    /// The predicate bound to `topo`'s column: the column decides only
    /// when the code test was derived from `topo`'s build.
    fn bind<'t>(&self, topo: &'t CsrTopology, at: PredAt) -> BoundPredicate<'t> {
        let coded = self
            .codes
            .as_ref()
            .filter(|t| t.topo == topo.id())
            .and_then(|t| Some((topo.column(t.attr, t.on_edges)?, &t.pass)));
        let (col, lo, hi, sparse) = match coded {
            None => (None, 0, 0, false),
            Some((col, &CodeSet::Span(lo, hi))) => (Some(col), lo, hi, false),
            Some((col, CodeSet::Set(codes))) => {
                (Some(col), codes[0], codes[codes.len() - 1] + 1, true)
            }
        };
        BoundPredicate {
            col,
            lo,
            hi,
            sparse,
            at,
        }
    }

    /// Does code `c` pass the predicate's code test?
    fn passes(&self, c: u16) -> bool {
        self.codes.as_ref().is_some_and(|t| t.pass.contains(c))
    }

    /// True when the predicate can match nothing in this graph: unknown
    /// attribute, or an interval with no reachable value.
    pub fn is_unsatisfiable(&self) -> bool {
        self.sym.is_none() || self.interval.is_unsatisfiable()
    }

    /// How many elements of its side of `topo`'s graph may satisfy the
    /// predicate, read from its column's counts: the elements of passing
    /// codes plus the [`FALLBACK`] ones. `None` without a code test
    /// derived from `topo`'s build.
    fn count(&self, topo: &CsrTopology) -> Option<u64> {
        let test = self.codes.as_ref().filter(|t| t.topo == topo.id())?;
        let col = topo.column(test.attr, test.on_edges)?;
        let counts = col.counts();
        let pass: u64 = match &test.pass {
            CodeSet::Span(lo, hi) => counts[usize::from(*lo)..usize::from(*hi)]
                .iter()
                .map(|&c| u64::from(c))
                .sum(),
            CodeSet::Set(codes) => codes
                .iter()
                .map(|&c| u64::from(counts[usize::from(c)]))
                .sum(),
        };
        Some(pass + u64::from(col.fallbacks()))
    }

    /// The resolved attribute symbol, if the graph knows the attribute.
    pub fn attr_symbol(&self) -> Option<Symbol> {
        self.sym
    }

    /// The compiled interval.
    pub fn interval(&self) -> &CompiledInterval {
        &self.interval
    }
}

/// A [`ResolvedPredicate`] bound to one topology's column for a program
/// run ([`Compiled::bind`]): the topology id check and the column lookup
/// are done, and the test of an element reads its code and nothing else
/// unless the code cannot decide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundPredicate<'t> {
    /// The column, when the predicate's code test was derived from its
    /// build.
    col: Option<&'t AttrColumn>,
    /// The codes `lo..hi` that pass, or that bound the passing set.
    lo: u16,
    hi: u16,
    /// The passing codes are a [`CodeSet::Set`] within `lo..hi`.
    sparse: bool,
    /// The predicate, for the map and the set.
    at: PredAt,
}

/// Where a [`BoundPredicate`]'s predicate is in its [`Compiled`].
#[derive(Debug, Clone, Copy)]
struct PredAt {
    on_edges: bool,
    slot: u32,
    idx: u32,
}

impl BoundPredicate<'_> {
    /// Check the predicate on element `i`, whose attribute map `attrs`
    /// yields: from the element's code where the column decides, from
    /// the map for a [`FALLBACK`] code or without a column. `compiled`
    /// is the compilation the predicate was bound from. Debug builds
    /// check every decided code against the map.
    #[inline(always)]
    pub(crate) fn holds<'m>(
        &self,
        compiled: &Compiled,
        i: u32,
        attrs: impl Fn() -> &'m AttrMap,
    ) -> bool {
        // no sentinel is ever in a pass set, and an absent column
        // passes nothing
        let c = self.col.map_or(FALLBACK, |col| col.code(i));
        let in_span = self.lo <= c && c < self.hi;
        if (in_span && !self.sparse) || (!in_span && c != FALLBACK) {
            debug_assert_eq!(
                in_span,
                compiled.pred(self.at).matches(attrs()),
                "code column and attribute map disagree on element {i}"
            );
            return in_span;
        }
        self.decide(compiled, c, attrs())
    }

    /// The verdicts the span cannot give, out of the candidate loops: a
    /// code in the span of a set, or a [`FALLBACK`] code.
    #[inline(never)]
    fn decide(&self, compiled: &Compiled, c: u16, attrs: &AttrMap) -> bool {
        let pred = compiled.pred(self.at);
        if c == FALLBACK {
            return pred.matches(attrs);
        }
        let verdict = pred.passes(c);
        debug_assert_eq!(verdict, pred.matches(attrs), "inexact code set");
        verdict
    }
}

/// The codes of one attribute column that satisfy a predicate: code `c`
/// passes exactly when the predicate's interval holds for the dictionary
/// value `c` stands for.
#[derive(Debug, Clone)]
struct CodeTest {
    /// The [`CsrTopology::id`] of the column's build.
    topo: u64,
    attr: Symbol,
    on_edges: bool,
    pass: CodeSet,
}

#[derive(Debug, Clone)]
enum CodeSet {
    /// The codes `lo..hi`.
    Span(u16, u16),
    /// A few codes, not contiguous.
    Set(Box<[u16]>),
}

impl CodeTest {
    /// The code test of `interval` on `col`, found by binary search in
    /// the dictionary: a range is a contiguous span of the numeric
    /// codes, a disjunction the codes of its constants. `None` when the
    /// codes cannot decide the interval: a disjunction with an `Int`
    /// constant beyond 2^53, which the dictionary's representative of an
    /// equal number may fail to equal.
    fn derive(
        topo: u64,
        attr: Symbol,
        on_edges: bool,
        col: &AttrColumn,
        interval: &CompiledInterval,
    ) -> Option<Self> {
        let pass = match interval {
            CompiledInterval::Range(Interval::Range {
                lo,
                hi,
                lo_incl,
                hi_incl,
            }) => {
                let above = Interval::Range {
                    lo: *lo,
                    hi: None,
                    lo_incl: *lo_incl,
                    hi_incl: false,
                };
                let below = Interval::Range {
                    lo: None,
                    hi: *hi,
                    lo_incl: false,
                    hi_incl: *hi_incl,
                };
                let nums = col.numbers();
                let start = nums.partition_point(|&x| !above.matches(&Value::Float(x)));
                let end = nums
                    .partition_point(|&x| below.matches(&Value::Float(x)))
                    .max(start);
                let first = col.first_number();
                CodeSet::Span(first + start as u16, first + end as u16)
            }
            CompiledInterval::Range(Interval::OneOf(_)) => return None,
            CompiledInterval::OneOf { syms, other } => {
                if other
                    .iter()
                    .any(|v| v.as_int().is_some_and(|i| i.unsigned_abs() > 1 << 53))
                {
                    return None;
                }
                let mut codes = syms
                    .iter()
                    .filter_map(|&(sym, _)| col.rank_of_sym(sym))
                    .chain(other.iter().filter_map(|v| col.rank(v)));
                match (codes.next(), syms.len() + other.len()) {
                    (None, _) => CodeSet::Span(0, 0),
                    // the common equality: no set to collect
                    (Some(c), 1) => CodeSet::Span(c, c + 1),
                    (Some(c), _) => {
                        let mut codes: Vec<u16> = std::iter::once(c).chain(codes).collect();
                        codes.sort_unstable();
                        codes.dedup();
                        let (lo, hi) = (codes[0], codes[codes.len() - 1]);
                        if usize::from(hi - lo) + 1 == codes.len() {
                            CodeSet::Span(lo, hi + 1)
                        } else {
                            CodeSet::Set(codes.into())
                        }
                    }
                }
            }
        };
        debug_assert!(
            col.dict()
                .iter()
                .enumerate()
                .all(|(c, v)| pass.contains(c as u16) == interval.matches_stored(v)),
            "inexact code test {pass:?} for {interval:?}"
        );
        Some(CodeTest {
            topo,
            attr,
            on_edges,
            pass,
        })
    }
}

impl CodeSet {
    #[inline(always)]
    fn contains(&self, c: u16) -> bool {
        match self {
            CodeSet::Span(lo, hi) => *lo <= c && c < *hi,
            CodeSet::Set(codes) => set_contains(codes, c),
        }
    }
}

/// Kept out of line: most code tests are spans, and inlining the
/// vectorized scan would crowd the span test in the candidate loop.
#[inline(never)]
fn set_contains(codes: &[u16], c: u16) -> bool {
    codes.contains(&c)
}

/// Compiled form of one query vertex.
#[derive(Debug, Clone, Default)]
pub struct CompiledVertex {
    /// Resolved predicates; all must hold.
    pub preds: Vec<ResolvedPredicate>,
}

impl CompiledVertex {
    /// Compile the predicates of `qv` against `g`.
    pub fn compile(g: &PropertyGraph, qv: &QueryVertex) -> Self {
        CompiledVertex {
            preds: resolve(g, &qv.predicates, false),
        }
    }

    /// Does data vertex `v` satisfy the vertex constraints? Reads only
    /// `v`'s attribute map.
    pub fn accepts(&self, g: &PropertyGraph, v: VertexId) -> bool {
        let attrs = &g.vertex(v).attrs;
        self.preds.iter().all(|p| p.matches(attrs))
    }

    /// True when no data vertex can satisfy this query vertex.
    pub fn unsatisfiable(&self) -> bool {
        self.preds.iter().any(ResolvedPredicate::is_unsatisfiable)
    }
}

/// Compiled form of one query edge.
#[derive(Debug, Clone)]
pub struct CompiledEdge {
    /// Resolved admissible types. `None` = any type; `Some` with an empty
    /// vector = unsatisfiable (every named type is absent from the graph).
    pub types: Option<Vec<Symbol>>,
    /// Resolved predicates; all must hold.
    pub preds: Vec<ResolvedPredicate>,
}

impl CompiledEdge {
    /// Compile the type disjunction and predicates of `qe` against `g`.
    pub fn compile(g: &PropertyGraph, qe: &QueryEdge) -> Self {
        let types = if qe.types.is_empty() {
            None
        } else {
            // dedup: the engine scans one adjacency slice per admitted
            // type, so a repeated type name must not repeat its edges
            let mut tys = qe
                .types
                .iter()
                .filter_map(|t| g.type_symbol(t))
                .collect::<Vec<_>>();
            tys.sort_unstable();
            tys.dedup();
            Some(tys)
        };
        CompiledEdge {
            types,
            preds: resolve(g, &qe.predicates, true),
        }
    }

    /// Does the data edge satisfy type and attribute constraints
    /// (direction is checked by the traversal, not here)?
    pub fn accepts(&self, ed: &EdgeData) -> bool {
        if let Some(tys) = &self.types {
            if !tys.contains(&ed.ty) {
                return false;
            }
        }
        self.preds.iter().all(|p| p.matches(&ed.attrs))
    }

    /// True when matching an edge from an admissible-type adjacency run
    /// tests anything beyond its type (only attribute predicates do —
    /// endpoints and type come straight from the CSR columns).
    pub fn needs_edge_data(&self) -> bool {
        !self.preds.is_empty()
    }

    /// True when no data edge can satisfy this query edge.
    pub fn unsatisfiable(&self) -> bool {
        self.types.as_ref().is_some_and(Vec::is_empty)
            || self.preds.iter().any(ResolvedPredicate::is_unsatisfiable)
    }
}

/// Fully compiled query: one slot per query vertex/edge id.
#[derive(Debug, Clone, Default)]
pub struct Compiled {
    /// Compiled vertices, indexed by `QVid` slot.
    pub vertices: Vec<Option<CompiledVertex>>,
    /// Compiled edges, indexed by `QEid` slot.
    pub edges: Vec<Option<CompiledEdge>>,
}

impl Compiled {
    /// Compile `q` against `g`.
    pub fn new(g: &PropertyGraph, q: &PatternQuery) -> Self {
        let mut vertices = vec![None; q.vertex_slots()];
        for v in q.vertex_ids() {
            let qv = q.vertex(v).expect("live");
            vertices[v.0 as usize] = Some(CompiledVertex::compile(g, qv));
        }
        let mut edges = vec![None; q.edge_slots()];
        for e in q.edge_ids() {
            let qe = q.edge(e).expect("live");
            edges[e.0 as usize] = Some(CompiledEdge::compile(g, qe));
        }
        Compiled { vertices, edges }
    }

    /// Compiled vertex by id.
    pub fn vertex(&self, v: QVid) -> &CompiledVertex {
        self.vertices[v.0 as usize].as_ref().expect("compiled")
    }

    /// Compiled edge by id.
    pub fn edge(&self, e: QEid) -> &CompiledEdge {
        self.edges[e.0 as usize].as_ref().expect("compiled")
    }

    /// Bind the predicates of query edge `slot`, or of query vertex `slot`
    /// unless `on_edges`, to `topo`'s columns, in order, onto `out`: once
    /// per program run, so that no candidate loop looks a column up.
    pub(crate) fn bind<'t>(
        &self,
        topo: &'t CsrTopology,
        on_edges: bool,
        slot: u32,
        out: &mut Vec<BoundPredicate<'t>>,
    ) {
        let preds = self.preds(on_edges, slot);
        out.extend(preds.iter().enumerate().map(|(idx, p)| {
            let at = PredAt {
                on_edges,
                slot,
                idx: idx as u32,
            };
            p.bind(topo, at)
        }));
    }

    fn preds(&self, on_edges: bool, slot: u32) -> &[ResolvedPredicate] {
        if on_edges {
            &self.edge(QEid(slot)).preds
        } else {
            &self.vertex(QVid(slot)).preds
        }
    }

    fn pred(&self, at: PredAt) -> &ResolvedPredicate {
        &self.preds(at.on_edges, at.slot)[at.idx as usize]
    }

    /// True when some query element can match nothing in this graph — an
    /// unknown attribute or edge type, an empty interval, a string
    /// constant the value dictionary has never seen, a range outside the
    /// attribute's observed range, or contradictory predicates on one
    /// attribute (see the [module docs](self)). Since every component
    /// must match for the query to match (empty components zero the
    /// cartesian product), the whole search can be skipped.
    pub fn unsatisfiable(&self) -> bool {
        self.vertices
            .iter()
            .flatten()
            .any(CompiledVertex::unsatisfiable)
            || self.edges.iter().flatten().any(CompiledEdge::unsatisfiable)
    }
}

/// Resolve one element's predicates. A predicate whose conjunction with
/// the element's later predicates on the same attribute is vacuous is
/// refuted: together they match nothing.
fn resolve(g: &PropertyGraph, preds: &[Predicate], on_edges: bool) -> Vec<ResolvedPredicate> {
    let mut resolved: Vec<ResolvedPredicate> = preds
        .iter()
        .map(|p| ResolvedPredicate::resolve(g, p, on_edges))
        .collect();
    for (i, p) in preds.iter().enumerate() {
        let mut conj: Option<Interval> = None;
        for other in preds[i + 1..].iter().filter(|o| o.attr == p.attr) {
            conj = Some(
                conj.as_ref()
                    .unwrap_or(&p.interval)
                    .intersect(&other.interval),
            );
        }
        if conj.is_some_and(|c| c.is_vacuous()) {
            let sym = resolved[i].sym;
            resolved[i] =
                ResolvedPredicate::with_interval(g, sym, CompiledInterval::refuted(), on_edges);
        }
    }
    resolved
}

/// Is `v` a number (other than NaN) outside `observed`? Such a constant
/// equals no stored value: only numbers equal numbers, and every stored
/// number other than NaN lies in the observed range. NaN stays: a stored
/// NaN is equal to it but outside every range.
fn outside(v: &Value, observed: Option<(f64, f64)>) -> bool {
    v.as_f64()
        .is_some_and(|x| !x.is_nan() && observed.is_none_or(|(lo, hi)| x < lo || x > hi))
}

/// One step of a component evaluation plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Bind the first vertex of the component by scanning candidates.
    Seed {
        /// The query vertex to bind.
        vertex: QVid,
    },
    /// Traverse a query edge from a bound endpoint to an unbound one.
    ExpandNew {
        /// Query edge to bind.
        edge: QEid,
        /// Already-bound endpoint.
        from: QVid,
        /// Endpoint bound by this step.
        to: QVid,
    },
    /// Bind a query edge whose endpoints are both already bound.
    Close {
        /// Query edge to bind.
        edge: QEid,
    },
    /// Bind the first two vertices of the component and the edge between
    /// them by scanning the edge's one type's list in the sealed CSR
    /// ([`CsrTopology::type_edges`]) — in place of `Seed { from }` then
    /// `ExpandNew { edge, from, to }`, whose candidates it meets in the
    /// same order.
    SeedEdge {
        /// Query edge to bind; it has one type and one direction.
        edge: QEid,
        /// The endpoint the replaced seed bound.
        from: QVid,
        /// The endpoint the replaced expansion bound.
        to: QVid,
        /// Whether the data edges leave `from` (the out arena's list is
        /// scanned) rather than enter it (the in arena's).
        outgoing: bool,
    },
}

/// Evaluation plan for one weakly connected query component.
#[derive(Debug, Clone)]
pub struct ComponentPlan {
    /// Steps in execution order; the first is always [`Step::Seed`] or
    /// [`Step::SeedEdge`].
    pub steps: Vec<Step>,
}

impl ComponentPlan {
    /// The query vertex the component's search is seeded from — the
    /// first vertex it binds. Parallel execution shards the candidate
    /// space of the first step (this vertex's candidates, or the seed
    /// edge's list) into [`crate::work::WorkUnit`]s.
    pub fn seed_vertex(&self) -> QVid {
        match self.steps.first() {
            Some(&(Step::Seed { vertex } | Step::SeedEdge { from: vertex, .. })) => vertex,
            _ => unreachable!("plans start with a seed step"),
        }
    }
}

/// Build greedy, cost-ordered plans for every weakly connected component
/// of `q`, returned with the per-vertex candidate estimates they were
/// planned with (indexed by `QVid` slot).
///
/// Each component's plan is a greedy walk: from a seed vertex, a *closing*
/// edge (both endpoints bound — a cheap existence check) is taken first,
/// otherwise the frontier edge with the fewest estimated rows after it.
/// The rows after expanding edge `e` from `from` to `to` are
/// `rows × fan-out × min(1, est(to) / far)`, where the fan-out is the
/// average number of entries of `e`'s types a vertex with at least one
/// has in the walked direction, and `far` is how many distinct vertices
/// those entries reach ([`CsrTopology::type_runs`]); an untyped edge fans
/// out `|E| / |V|` to all `|V|` vertices, and a both-way edge adds both
/// directions. The walk is run from every vertex of the component, and
/// the seed whose walk scans the fewest estimated candidates wins: the
/// seed's own estimate plus, per step, the entries it scans.
///
/// The chosen walk then starts at its first edge ([`Step::SeedEdge`])
/// when that edge has one type and one direction and the type's list is
/// no longer than what the walk's seed and first expansion would touch:
/// the seed source (the smallest index bucket of the seed's equality
/// predicates, else every vertex) plus the seed's estimate × fan-out.
///
/// `est` comes from [`estimate_candidates`]. The IR lowering
/// ([`crate::plan_ir::lower`]) annotates its scan nodes with exactly
/// these estimates, so seed selection reasons from the same signal the
/// planner ordered by.
pub fn build_plans_est(
    g: &PropertyGraph,
    q: &PatternQuery,
    compiled: &Compiled,
    indexes: &[Arc<AttrIndex>],
) -> (Vec<ComponentPlan>, Vec<u64>) {
    build_plans_with(g, q, compiled, indexes, true)
}

/// [`build_plans_est`], with edge seeds allowed or not
/// ([`crate::optimize::PassSet::edge_seed`]): without them every plan
/// seeds at a vertex.
pub fn build_plans_with(
    g: &PropertyGraph,
    q: &PatternQuery,
    compiled: &Compiled,
    indexes: &[Arc<AttrIndex>],
    edge_seeds: bool,
) -> (Vec<ComponentPlan>, Vec<u64>) {
    let est = estimate_candidates(g, q, compiled, indexes);
    let hops = Hops::new(g, q, compiled);
    let plans = q
        .weakly_connected_components()
        .into_iter()
        .map(|comp| {
            let mut plan = plan_component(q, &comp, &est, &hops);
            if edge_seeds {
                seed_at_edge(g, q, compiled, indexes, &est, &hops, &mut plan);
            }
            plan
        })
        .collect();
    (plans, est)
}

/// Start `plan` at its first edge when its list is the cheaper seed.
///
/// A plan that opens with `Seed { from }` then `ExpandNew { edge, from,
/// to }` touches the seed source's candidates (the smallest index bucket
/// among `from`'s equality predicates, else every vertex), then est(from)
/// × fan-out entries. When `edge` has exactly one type and one direction,
/// the type's list in the walked direction holds exactly the entries
/// the pair could bind; if it is no longer than what the pair touches,
/// the pair becomes one [`Step::SeedEdge`]. A both-way or multi-type edge
/// keeps its vertex seed: per-type lists cannot reproduce the order in
/// which one seed interleaves several runs.
fn seed_at_edge(
    g: &PropertyGraph,
    q: &PatternQuery,
    compiled: &Compiled,
    indexes: &[Arc<AttrIndex>],
    est: &[u64],
    hops: &Hops,
    plan: &mut ComponentPlan,
) {
    let [Step::Seed { vertex }, Step::ExpandNew { edge, from, to }, ..] = plan.steps[..] else {
        return;
    };
    debug_assert_eq!(vertex, from);
    let qe = q.edge(edge).expect("live");
    let Some(&[ty]) = compiled.edge(edge).types.as_deref() else {
        return;
    };
    if qe.directions.forward == qe.directions.backward {
        return;
    }
    // a forward data edge leaves the query edge's source
    let outgoing = qe.directions.forward == (from == qe.src);
    let list = f64::from(g.topology().type_runs(ty, outgoing).entries);
    let source = q
        .vertex(from)
        .expect("live")
        .predicates
        .iter()
        .filter_map(|p| bucket_count(g, p, indexes))
        .fold(g.num_vertices() as u64, u64::min);
    let touched = source as f64 + est[from.0 as usize] as f64 * hops.from(edge, qe, from).0;
    if list <= touched {
        plan.steps.splice(
            ..2,
            [Step::SeedEdge {
                edge,
                from,
                to,
                outgoing,
            }],
        );
    }
}

/// Estimate per-query-vertex candidate counts, indexed by `QVid` slot.
///
/// This is planning input, not a correctness bound: the matcher works with
/// any ordering, the estimates only decide which one. A vertex's estimate
/// is the least of:
///
/// * per predicate with a code test, the elements its column's counts
///   ([`whyq_graph::csr::AttrColumn::counts`]) put in its passing codes,
///   plus the column's [`FALLBACK`] elements, whose maps may pass — exact
///   when the column has none;
/// * per equality-shaped predicate (`OneOf` or degenerate point `Range`)
///   on an indexed attribute, the sum of its index bucket sizes;
/// * the vertex count, for a vertex with neither.
///
/// A predicate without a code test — its attribute has no column (it
/// overflowed the dictionary, or was first set after sealing), or its
/// disjunction holds an `Int` beyond 2^53 — counts nothing. A vertex with
/// an unsatisfiable compiled predicate — including a string equality
/// whose constant the value dictionary has never seen — estimates to zero
/// outright. Nothing is sampled: the counts are kept exact by the CSR.
pub fn estimate_candidates(
    g: &PropertyGraph,
    q: &PatternQuery,
    compiled: &Compiled,
    indexes: &[Arc<AttrIndex>],
) -> Vec<u64> {
    let n = g.num_vertices() as u64;
    let topo = g.topology();
    let mut est: Vec<u64> = vec![0; q.vertex_slots()];
    for v in q.vertex_ids() {
        let cv = compiled.vertex(v);
        if cv.unsatisfiable() {
            continue;
        }
        let coded = cv.preds.iter().filter_map(|p| p.count(topo));
        let bucketed = q
            .vertex(v)
            .expect("live")
            .predicates
            .iter()
            .filter_map(|p| bucket_count(g, p, indexes));
        est[v.0 as usize] = coded.chain(bucketed).fold(n, u64::min);
    }
    est
}

/// The summed index bucket sizes of an equality-shaped predicate on an
/// indexed attribute: an exact count for that predicate.
fn bucket_count(g: &PropertyGraph, p: &Predicate, indexes: &[Arc<AttrIndex>]) -> Option<u64> {
    let attr = g.attr_symbol(&p.attr)?;
    let idx = indexes.iter().find(|i| i.attr() == attr)?;
    if let Interval::OneOf(vals) = &p.interval {
        Some(vals.iter().map(|v| idx.lookup(g, v).len() as u64).sum())
    } else {
        // one probe covers Int and Float encodings: `Value` equates (and
        // the index buckets) numeric family members
        let pv = p.interval.point_value()?;
        Some(idx.lookup(g, &pv).len() as u64)
    }
}

/// Per query edge slot and walked-from endpoint (source, then target):
/// the entries one bound row scans, and the distinct vertices they reach.
struct Hops(Vec<[(f64, f64); 2]>);

impl Hops {
    fn new(g: &PropertyGraph, q: &PatternQuery, compiled: &Compiled) -> Self {
        let mut hops = vec![[(0.0, 0.0); 2]; q.edge_slots()];
        for e in q.edge_ids() {
            let qe = q.edge(e).expect("live");
            let types = compiled.edge(e).types.as_deref();
            hops[e.0 as usize] = [hop(g, qe, types, true), hop(g, qe, types, false)];
        }
        Hops(hops)
    }

    /// `(fan-out, far endpoints)` of walking `qe` (slot `e`) from `from`.
    fn from(&self, e: QEid, qe: &QueryEdge, from: QVid) -> (f64, f64) {
        self.0[e.0 as usize][usize::from(from != qe.src)]
    }
}

/// `(fan-out, far endpoints)` of walking `qe`, whose admissible types
/// are `types` (`None`: any), from its source, or from its target when
/// `from_src` is unset.
fn hop(g: &PropertyGraph, qe: &QueryEdge, types: Option<&[Symbol]>, from_src: bool) -> (f64, f64) {
    let topo = g.topology();
    let n = g.num_vertices() as f64;
    let (mut fan, mut far) = (0.0, 0.0);
    let dirs = [
        (qe.directions.forward, true),
        (qe.directions.backward, false),
    ];
    for forward in dirs.into_iter().filter_map(|(on, fwd)| on.then_some(fwd)) {
        // a forward data edge leaves the query edge's source
        let outgoing = forward == from_src;
        match types {
            None if n > 0.0 => {
                fan += g.num_edges() as f64 / n;
                far += n;
            }
            None => {}
            Some(tys) => {
                for &ty in tys {
                    let near = topo.type_runs(ty, outgoing);
                    if near.vertices > 0 {
                        fan += f64::from(near.entries) / f64::from(near.vertices);
                    }
                    far += f64::from(topo.type_runs(ty, !outgoing).vertices);
                }
            }
        }
    }
    (fan, far.min(n))
}

/// The share of `far` distinct vertices that `est` candidates can be.
fn kept(est: f64, far: f64) -> f64 {
    if far > 0.0 {
        (est / far).min(1.0)
    } else {
        0.0
    }
}

/// The cheapest of the greedy walks from each vertex of `comp`.
fn plan_component(q: &PatternQuery, comp: &[QVid], est: &[u64], hops: &Hops) -> ComponentPlan {
    comp.iter()
        .map(|&seed| walk(q, comp, est, hops, seed))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty component")
        .0
}

/// The greedy walk of `comp` from `seed`, with the candidates it is
/// estimated to scan.
fn walk(
    q: &PatternQuery,
    comp: &[QVid],
    est: &[u64],
    hops: &Hops,
    seed: QVid,
) -> (ComponentPlan, f64) {
    let est_of = |v: QVid| est[v.0 as usize] as f64;
    let mut rows = est_of(seed);
    let mut scanned = rows;
    let mut steps = vec![Step::Seed { vertex: seed }];
    let mut bound: Vec<QVid> = vec![seed];
    let mut remaining: Vec<QEid> = comp
        .iter()
        .flat_map(|&v| q.incident_edges(v))
        .collect::<Vec<_>>();
    remaining.sort();
    remaining.dedup();

    while !remaining.is_empty() {
        // prefer closing edges: each row probes the shorter side's run
        if let Some(pos) = remaining.iter().position(|&e| {
            let ed = q.edge(e).expect("live");
            bound.contains(&ed.src) && bound.contains(&ed.dst)
        }) {
            let e = remaining.remove(pos);
            let qe = q.edge(e).expect("live");
            let (fan, far) = hops.from(e, qe, qe.src);
            scanned += rows * fan.min(hops.from(e, qe, qe.dst).0);
            rows *= kept(fan, far);
            steps.push(Step::Close { edge: e });
            continue;
        }
        // otherwise the frontier edge with the fewest rows after it
        let (pos, from, to, fan, after) = remaining
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| {
                let ed = q.edge(e).expect("live");
                let (from, to) = if bound.contains(&ed.src) {
                    (ed.src, ed.dst)
                } else if bound.contains(&ed.dst) {
                    (ed.dst, ed.src)
                } else {
                    return None;
                };
                let (fan, far) = hops.from(e, ed, from);
                Some((i, from, to, fan, rows * fan * kept(est_of(to), far)))
            })
            .min_by(|a, b| a.4.total_cmp(&b.4))
            .expect("component is connected");
        let e = remaining.remove(pos);
        scanned += rows * fan;
        rows = after;
        steps.push(Step::ExpandNew { edge: e, from, to });
        bound.push(to);
    }
    (ComponentPlan { steps }, scanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::Value;
    use whyq_query::{QueryBuilder, QueryVertex};

    fn small_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let p1 = g.add_vertex([("type", Value::str("person"))]);
        let p2 = g.add_vertex([("type", Value::str("person"))]);
        let c = g.add_vertex([("type", Value::str("city"))]);
        g.add_edge(p1, p2, "knows", []);
        g.add_edge(p1, c, "livesIn", []);
        g
    }

    #[test]
    fn unknown_attribute_is_unsatisfiable() {
        let g = small_graph();
        let q = QueryBuilder::new("q")
            .vertex("a", [whyq_query::Predicate::eq("nonexistent", 1)])
            .build();
        let c = Compiled::new(&g, &q);
        assert!(!c.vertex(QVid(0)).accepts(&g, VertexId(0)));
        assert!(c.vertex(QVid(0)).unsatisfiable());
        assert!(c.unsatisfiable());
    }

    #[test]
    fn unknown_type_is_unsatisfiable() {
        let g = small_graph();
        let mut q = PatternQuery::new();
        let a = q.add_vertex(QueryVertex::any());
        let b = q.add_vertex(QueryVertex::any());
        q.add_edge(QueryEdge::typed(a, b, "teleportsTo"));
        let c = Compiled::new(&g, &q);
        assert_eq!(c.edge(QEid(0)).types.as_deref(), Some(&[][..]));
        assert!(!c.edge(QEid(0)).accepts(g.edge(whyq_graph::EdgeId(0))));
        assert!(c.unsatisfiable());
    }

    #[test]
    fn string_constants_resolve_to_dictionary_symbols() {
        let g = small_graph();
        let q = QueryBuilder::new("q")
            .vertex("a", [whyq_query::Predicate::eq("type", "person")])
            .build();
        let c = Compiled::new(&g, &q);
        let p = &c.vertex(QVid(0)).preds[0];
        assert!(!p.is_unsatisfiable());
        let CompiledInterval::OneOf { syms, other } = p.interval() else {
            panic!("expected OneOf");
        };
        assert_eq!(other.len(), 0);
        assert_eq!(syms.len(), 1);
        assert_eq!(syms[0].0, g.value_symbol("person").unwrap());
        // the symbol check accepts exactly the person vertices
        assert!(c.vertex(QVid(0)).accepts(&g, VertexId(0)));
        assert!(c.vertex(QVid(0)).accepts(&g, VertexId(1)));
        assert!(!c.vertex(QVid(0)).accepts(&g, VertexId(2)));
    }

    #[test]
    fn unknown_string_constant_prunes_to_unsatisfiable() {
        let g = small_graph();
        // "robot" is not in the value dictionary: the graph stores no such
        // string anywhere, so the predicate can match nothing
        let q = QueryBuilder::new("q")
            .vertex("a", [whyq_query::Predicate::eq("type", "robot")])
            .build();
        let c = Compiled::new(&g, &q);
        assert!(c.vertex(QVid(0)).unsatisfiable());
        assert!(c.unsatisfiable());
        let est = estimate_candidates(&g, &q, &c, &[]);
        assert_eq!(est, vec![0]);
        // a mixed disjunction with one known constant survives
        let q2 = QueryBuilder::new("q2")
            .vertex(
                "a",
                [whyq_query::Predicate::one_of("type", ["robot", "city"])],
            )
            .build();
        let c2 = Compiled::new(&g, &q2);
        assert!(!c2.unsatisfiable());
        assert!(c2.vertex(QVid(0)).accepts(&g, VertexId(2)));
        assert!(!c2.vertex(QVid(0)).accepts(&g, VertexId(0)));
    }

    #[test]
    fn non_string_constants_still_match() {
        let mut g = PropertyGraph::new();
        let v = g.add_vertex([("age", Value::Int(30)), ("ok", Value::Bool(true))]);
        let q = QueryBuilder::new("q")
            .vertex(
                "a",
                [
                    whyq_query::Predicate::eq("age", 30),
                    whyq_query::Predicate::eq("ok", true),
                ],
            )
            .build();
        let c = Compiled::new(&g, &q);
        assert!(!c.unsatisfiable());
        assert!(c.vertex(QVid(0)).accepts(&g, v));
    }

    /// Ages 20..=30 on vertices, `since` only on edges, `name` strings only.
    fn aged_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("age", Value::Int(20)), ("name", Value::str("Anna"))]);
        let b = g.add_vertex([("age", Value::Float(30.0)), ("name", Value::str("Bert"))]);
        g.add_edge(a, b, "knows", [("since", Value::Int(2003))]);
        g
    }

    fn vertex_query(preds: Vec<whyq_query::Predicate>) -> PatternQuery {
        QueryBuilder::new("q").vertex("a", preds).build()
    }

    #[test]
    fn ranges_outside_the_observed_range_are_unsatisfiable() {
        use whyq_query::Predicate;
        let g = aged_graph();
        let unsat = |preds| Compiled::new(&g, &vertex_query(preds)).unsatisfiable();
        assert!(unsat(vec![Predicate::at_least("age", 40.0)]));
        assert!(unsat(vec![Predicate::at_most("age", 19.5)]));
        assert!(unsat(vec![Predicate::between("age", f64::NAN, 25.0)]));
        // touching the observed range is enough to survive
        assert!(!unsat(vec![Predicate::at_least("age", 30.0)]));
        assert!(!unsat(vec![Predicate::between("age", 25.0, 26.0)]));
        // an open bound at the range's edge admits nothing stored
        let open = whyq_query::Interval::Range {
            lo: Some(30.0),
            hi: None,
            lo_incl: false,
            hi_incl: false,
        };
        assert!(unsat(vec![Predicate {
            attr: "age".into(),
            interval: open,
        }]));
        // no number stored: strings only, or numbers only on edges
        assert!(unsat(vec![Predicate::at_least("name", 0.0)]));
        assert!(unsat(vec![Predicate::at_least("since", 0.0)]));
        let mut edge_q = PatternQuery::new();
        let (x, y) = (
            edge_q.add_vertex(QueryVertex::any()),
            edge_q.add_vertex(QueryVertex::any()),
        );
        let mut e = QueryEdge::typed(x, y, "knows");
        e.predicates
            .push(Predicate::between("since", 2000.0, 2005.0));
        edge_q.add_edge(e);
        assert!(!Compiled::new(&g, &edge_q).unsatisfiable());
    }

    #[test]
    fn contradictory_predicates_on_one_attribute_are_unsatisfiable() {
        use whyq_query::Predicate;
        let g = aged_graph();
        let q = vertex_query(vec![
            Predicate::at_least("age", 26.0),
            Predicate::at_most("age", 24.0),
        ]);
        assert!(Compiled::new(&g, &q).unsatisfiable());
        let q = vertex_query(vec![
            Predicate::eq("name", "Anna"),
            Predicate::eq("name", "Bert"),
        ]);
        assert!(Compiled::new(&g, &q).unsatisfiable());
        let q = vertex_query(vec![
            Predicate::at_least("age", 20.0),
            Predicate::at_most("age", 24.0),
            Predicate::eq("name", "Anna"),
        ]);
        let c = Compiled::new(&g, &q);
        assert!(!c.unsatisfiable());
        assert!(c.vertex(QVid(0)).accepts(&g, VertexId(0)));
    }

    #[test]
    fn numeric_constants_outside_the_observed_range_are_dropped() {
        use whyq_query::Predicate;
        let g = aged_graph();
        let q = vertex_query(vec![Predicate::one_of(
            "age",
            [Value::Int(19), Value::Float(30.0), Value::Int(31)],
        )]);
        let c = Compiled::new(&g, &q);
        let CompiledInterval::OneOf { other, .. } = c.vertex(QVid(0)).preds[0].interval() else {
            panic!("expected OneOf");
        };
        assert_eq!(other, &vec![Value::Float(30.0)]);
        assert!(c.vertex(QVid(0)).accepts(&g, VertexId(1)));
        let q = vertex_query(vec![Predicate::one_of("age", [5, 50])]);
        assert!(Compiled::new(&g, &q).unsatisfiable());
        // NaN lies outside every range but may be stored: it stays
        let q = vertex_query(vec![Predicate::eq("age", f64::NAN)]);
        assert!(!Compiled::new(&g, &q).unsatisfiable());
        // booleans are not numbers
        let q = vertex_query(vec![Predicate::eq("age", true)]);
        assert!(!Compiled::new(&g, &q).unsatisfiable());
    }

    #[test]
    fn plan_seeds_most_selective_vertex() {
        let g = small_graph();
        let q = QueryBuilder::new("q")
            .vertex("p", [whyq_query::Predicate::eq("type", "person")])
            .vertex("c", [whyq_query::Predicate::eq("type", "city")])
            .edge("p", "c", "livesIn")
            .build();
        let compiled = Compiled::new(&g, &q);
        let (plans, _) = build_plans_with(&g, &q, &compiled, &[], false);
        assert_eq!(plans.len(), 1);
        // the city vertex (1 candidate) beats the person vertex (2)
        assert_eq!(plans[0].steps[0], Step::Seed { vertex: QVid(1) });
        assert_eq!(plans[0].steps.len(), 2);
        // with edge seeds, the one `livesIn` edge is cheaper still: the
        // walk from the city starts at it, against the edge's direction
        let (plans, _) = build_plans_est(&g, &q, &compiled, &[]);
        assert_eq!(
            plans[0].steps,
            vec![Step::SeedEdge {
                edge: QEid(0),
                from: QVid(1),
                to: QVid(0),
                outgoing: false
            }]
        );
    }

    /// A 600-vertex line of `knows` edges, 300 of them from persons, a
    /// few born in 1977, and one `likes` edge each way between two of them.
    fn line_graph() -> (PropertyGraph, Vec<Arc<AttrIndex>>) {
        let mut g = PropertyGraph::new();
        let vs: Vec<VertexId> = (0..600)
            .map(|i| {
                let year = if i % 100 == 7 { 1977 } else { 1980 };
                g.add_vertex([
                    (
                        "type",
                        Value::str(if i % 2 == 0 { "person" } else { "post" }),
                    ),
                    ("birthYear", Value::Int(year)),
                ])
            })
            .collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1], "knows", []);
        }
        g.add_edge(vs[0], vs[2], "likes", []);
        g.add_edge(vs[2], vs[0], "likes", []);
        g.seal();
        let index = Arc::new(AttrIndex::build(&g, "type").unwrap());
        (g, vec![index])
    }

    #[test]
    fn an_edge_seeds_when_its_list_is_shorter_than_what_the_seed_touches() {
        use whyq_query::{DirectionSet, Predicate};
        let (g, indexes) = line_graph();
        let first = |q: &PatternQuery, indexes: &[Arc<AttrIndex>]| {
            build_plans_est(&g, q, &Compiled::new(&g, q), indexes).0[0].steps[0]
        };
        let pair = |a: Vec<Predicate>, ty: &str, dirs: DirectionSet| {
            QueryBuilder::new("q")
                .vertex("a", a)
                .vertex("b", [])
                .edge_full("a", "b", ty, dirs, [])
                .build()
        };
        let person = || vec![Predicate::eq("type", "person")];
        // 599 `knows` entries against 600 vertices + 600 × 1 expansions
        let q = pair(vec![], "knows", DirectionSet::FORWARD);
        assert!(matches!(
            first(&q, &[]),
            Step::SeedEdge { outgoing: true, .. }
        ));
        // ... and against the 300-person bucket + 300 expansions
        let q = pair(person(), "knows", DirectionSet::FORWARD);
        assert!(matches!(first(&q, &indexes), Step::SeedEdge { .. }));
        // six rare persons found by a full scan: 600 + 6 touched still
        // beats 599 listed, and with the bucket 300 + 6 does not
        let mut rare = person();
        rare.push(Predicate::eq("birthYear", 1977));
        let q = pair(rare, "knows", DirectionSet::FORWARD);
        assert!(matches!(first(&q, &[]), Step::SeedEdge { .. }));
        assert!(matches!(first(&q, &indexes), Step::Seed { .. }));
        // a both-way edge keeps its vertex seed
        let q = pair(vec![], "likes", DirectionSet::BOTH);
        assert!(matches!(first(&q, &[]), Step::Seed { .. }));
        // as does an edge with two types
        let mut q = pair(vec![], "likes", DirectionSet::FORWARD);
        q.edge_mut(QEid(0)).unwrap().types.push("knows".into());
        assert!(matches!(first(&q, &[]), Step::Seed { .. }));
    }

    /// Two cities, 80 residents who each know the next three, and four
    /// residents born in 1977.
    fn hub_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let cities: Vec<VertexId> = (0..2)
            .map(|_| g.add_vertex([("type", Value::str("city"))]))
            .collect();
        let persons: Vec<VertexId> = (0..80)
            .map(|i| {
                let year = if i % 20 == 7 { 1977 } else { 1980 + i % 15 };
                g.add_vertex([
                    ("type", Value::str("person")),
                    ("birthYear", Value::Int(year)),
                ])
            })
            .collect();
        for (i, &p) in persons.iter().enumerate() {
            g.add_edge(p, cities[i % 2], "isLocatedIn", []);
            for k in 1..=3 {
                g.add_edge(p, persons[(i + k) % 80], "knows", []);
            }
        }
        g.seal();
        g
    }

    #[test]
    fn a_rare_person_seeds_before_a_city_hub() {
        use whyq_query::Predicate;
        let g = hub_graph();
        let q = QueryBuilder::new("q")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::eq("birthYear", 1977),
                ],
            )
            .vertex("a", [])
            .vertex("b", [])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p", "a", "knows")
            .edge("a", "b", "knows")
            .edge("b", "c", "isLocatedIn")
            .build();
        let compiled = Compiled::new(&g, &q);
        let (plans, est) = build_plans_est(&g, &q, &compiled, &[]);
        // the cities have the fewest candidates, but each reaches 40
        // residents: walking from them scans 2 + 80 + 240 + 720 entries,
        // from the four rare persons 4 + 12 + 36 + 36
        assert_eq!(est, vec![4, 82, 82, 2]);
        assert_eq!(plans[0].seed_vertex(), QVid(0));
        let hops = Hops::new(&g, &q, &compiled);
        let comp = q.vertex_ids().collect::<Vec<_>>();
        let cost = |seed| walk(&q, &comp, &est, &hops, seed).1;
        assert!((cost(QVid(3)) - 1042.0).abs() < 1e-6, "{}", cost(QVid(3)));
        assert!((cost(QVid(0)) - 88.0).abs() < 1e-6, "{}", cost(QVid(0)));
    }

    /// 60 vertices over a few numbers, strings and booleans, no value a
    /// code cannot stand for.
    fn counted_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for i in 0..60i64 {
            g.add_vertex(
                [
                    ("age", Some(Value::Int(i % 13))),
                    (
                        "score",
                        (i % 4 != 0).then(|| Value::Float((i % 9) as f64 / 2.0)),
                    ),
                    (
                        "name",
                        Some(Value::str(
                            ["Anna", "Bert", "Cleo", "Dora"][(i % 7 % 4) as usize],
                        )),
                    ),
                    ("ok", (i % 3 == 0).then_some(Value::Bool(i % 2 == 0))),
                ]
                .into_iter()
                .filter_map(|(k, v)| Some((k, v?))),
            );
        }
        g.seal();
        g
    }

    #[test]
    fn estimates_are_exact_counts_of_coded_predicates() {
        use whyq_query::Predicate;
        let g = counted_graph();
        let preds = [
            Predicate::eq("age", 4),
            Predicate::eq("age", 4.0),
            Predicate::one_of("age", [1, 5, 12]),
            Predicate::at_least("age", 9.5),
            Predicate::between("score", 1.0, 3.0),
            Predicate::at_most("score", 0.0),
            Predicate::eq("name", "Bert"),
            Predicate::one_of("name", ["Anna", "Dora"]),
            Predicate::eq("ok", true),
            Predicate::eq("name", "Zed"),
        ];
        let admitted = |preds: Vec<Predicate>| {
            let q = vertex_query(preds);
            let c = Compiled::new(&g, &q);
            let exact = g
                .vertex_ids()
                .filter(|&v| c.vertex(QVid(0)).accepts(&g, v))
                .count() as u64;
            (estimate_candidates(&g, &q, &c, &[])[0], exact)
        };
        let mut single = Vec::new();
        for p in &preds {
            let (est, exact) = admitted(vec![p.clone()]);
            assert_eq!(est, exact, "{p:?}");
            single.push(exact);
        }
        // several coded predicates: the least of their counts
        for (i, p) in preds.iter().enumerate() {
            for (j, o) in preds.iter().enumerate().skip(i + 1) {
                if p.attr == o.attr {
                    continue;
                }
                let (est, exact) = admitted(vec![p.clone(), o.clone()]);
                assert_eq!(est, single[i].min(single[j]), "{p:?} and {o:?}");
                assert!(est >= exact);
            }
        }
    }

    #[test]
    fn predicates_without_a_code_test_count_nothing() {
        use whyq_query::Predicate;
        // 65,536 distinct serials overflow the dictionary: no column
        let mut g = PropertyGraph::new();
        for i in 0..65_536i64 {
            let kind = if i % 10_000 == 3 { "rare" } else { "common" };
            g.add_vertex([("serial", Value::Int(i)), ("kind", Value::str(kind))]);
        }
        g.seal();
        let serial = g.attr_symbol("serial").unwrap();
        assert!(g.topology().column(serial, false).is_none());
        g.set_vertex_attr(VertexId(0), "late", Value::Int(1))
            .unwrap();
        let est = |g: &PropertyGraph, preds: Vec<Predicate>, indexes: &[Arc<AttrIndex>]| {
            let q = vertex_query(preds);
            estimate_candidates(g, &q, &Compiled::new(g, &q), indexes)[0]
        };
        let n = 65_536;
        // the overflowed attribute alone: the vertex count
        assert_eq!(est(&g, vec![Predicate::eq("serial", 7)], &[]), n);
        // ... its other predicates
        let rare = vec![Predicate::eq("serial", 7), Predicate::eq("kind", "rare")];
        assert_eq!(est(&g, rare, &[]), 7);
        // ... or its index bucket
        let index = [Arc::new(AttrIndex::build(&g, "serial").unwrap())];
        assert_eq!(est(&g, vec![Predicate::eq("serial", 7)], &index), 1);
        // an attribute first set after sealing has no column either
        assert_eq!(est(&g, vec![Predicate::eq("late", 1)], &[]), n);
        // nor does a disjunction with an `Int` beyond 2^53
        let mut small = counted_graph();
        small
            .set_vertex_attr(VertexId(0), "age", Value::Int(1 << 60))
            .unwrap();
        let big = vec![Predicate::one_of(
            "age",
            [Value::Int(1 << 60), Value::Int(3)],
        )];
        assert_eq!(est(&small, big, &[]), 60);
    }

    #[test]
    fn plan_emits_close_for_cycles() {
        let g = small_graph();
        let q = QueryBuilder::new("tri")
            .vertex("a", [])
            .vertex("b", [])
            .vertex("c", [])
            .edge("a", "b", "knows")
            .edge("b", "c", "knows")
            .edge("a", "c", "knows")
            .build();
        let compiled = Compiled::new(&g, &q);
        let (plans, _) = build_plans_est(&g, &q, &compiled, &[]);
        let closes = plans[0]
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Close { .. }))
            .count();
        assert_eq!(closes, 1);
    }

    #[test]
    fn isolated_vertices_get_seed_only_plans() {
        let g = small_graph();
        let q = QueryBuilder::new("iso")
            .vertex("x", [])
            .vertex("y", [])
            .build();
        let compiled = Compiled::new(&g, &q);
        let (plans, _) = build_plans_est(&g, &q, &compiled, &[]);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].steps.len(), 1);
    }
}
