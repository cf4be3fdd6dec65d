//! The property-graph store.
//!
//! `PropertyGraph` is a directed multigraph: any number of edges may connect
//! the same pair of vertices (Definition 1, §3.1.1). Vertices and edges live
//! in dense arenas addressed by `u32` ids, and attribute names and edge
//! types are interned.
//!
//! ## Two-phase adjacency: build, then seal
//!
//! Adjacency has two representations matched to the two phases of a
//! graph's life:
//!
//! * **Build phase** — per-vertex in/out edge lists (`AdjList`), cheap to
//!   append to while edges stream in.
//! * **Sealed phase** — one compressed-sparse-row arena per direction
//!   ([`CsrTopology`]): flat SoA columns (`edge`, `other endpoint`, `type`)
//!   plus per-vertex, per-type run offsets, so candidate scans read
//!   contiguous memory and never touch [`EdgeData`] just to learn an
//!   endpoint or a type.
//!
//! [`PropertyGraph::seal`] compacts the build lists into the CSR and frees
//! them; readers that want the dense layout without an explicit seal call
//! [`PropertyGraph::topology`], which builds the CSR lazily and caches it
//! (any later mutation invalidates the cache and — on a sealed graph —
//! transparently re-materializes the build lists, so mutation is always
//! legal, just not free). The classic slice accessors (`out_edges`,
//! `in_edges_of`, …) serve from whichever representation is current.

use crate::attrs::AttrMap;
use crate::csr::{fresh_topology_id, Columns, CsrDir, CsrTopology};
use crate::error::GraphError;
use crate::interner::{Interner, Symbol};
use crate::value::Value;
use std::fmt;
use std::sync::OnceLock;

/// Dense identifier of a data vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Dense identifier of a data edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Payload of a vertex: its attribute map.
#[derive(Debug, Clone, Default)]
pub struct VertexData {
    /// Attribute key/value pairs (`f : V → A_V`).
    pub attrs: AttrMap,
}

/// Payload of an edge: endpoints, type, attributes.
#[derive(Debug, Clone)]
pub struct EdgeData {
    /// Source vertex (`u(e).0`).
    pub src: VertexId,
    /// Target vertex (`u(e).1`).
    pub dst: VertexId,
    /// Interned edge type (e.g. `knows`, `isLocatedIn`).
    pub ty: Symbol,
    /// Attribute key/value pairs (`g : E → A_E`).
    pub attrs: AttrMap,
}

/// Per-vertex adjacency list kept *grouped by edge type*: one flat vector
/// of edge ids ordered as contiguous per-type runs, plus a tiny run table
/// (most vertices touch only a handful of edge types). The whole list and
/// any single-type slice are both O(1)-addressable, which lets the pattern
/// matcher traverse only the edges whose type a query edge admits.
#[derive(Debug, Default, Clone)]
pub(crate) struct AdjList {
    /// Edge ids, contiguous per type run.
    pub(crate) flat: Vec<EdgeId>,
    /// `(type, end offset)` per run, sorted by type symbol; a run starts at
    /// the previous run's end.
    pub(crate) runs: Vec<(Symbol, u32)>,
}

impl AdjList {
    fn insert(&mut self, ty: Symbol, e: EdgeId) {
        // fast path: the common construction orders (same type repeated,
        // or per-type phases with freshly interned — hence increasing —
        // symbols) always touch the last run, where insertion is a plain
        // push. Only interleaving types on one vertex pays the O(degree)
        // middle insert.
        match self.runs.last_mut() {
            Some((last_ty, end)) if *last_ty == ty => {
                self.flat.push(e);
                *end += 1;
                return;
            }
            Some((last_ty, _)) if *last_ty < ty => {
                self.flat.push(e);
                self.runs.push((ty, self.flat.len() as u32));
                return;
            }
            None => {
                self.flat.push(e);
                self.runs.push((ty, 1));
                return;
            }
            _ => {}
        }
        match self.runs.binary_search_by_key(&ty, |(t, _)| *t) {
            Ok(i) => {
                let end = self.runs[i].1 as usize;
                self.flat.insert(end, e);
                for r in &mut self.runs[i..] {
                    r.1 += 1;
                }
            }
            Err(i) => {
                let start = if i == 0 { 0 } else { self.runs[i - 1].1 };
                self.flat.insert(start as usize, e);
                self.runs.insert(i, (ty, start + 1));
                for r in &mut self.runs[i + 1..] {
                    r.1 += 1;
                }
            }
        }
    }

    fn all(&self) -> &[EdgeId] {
        &self.flat
    }

    fn of_type(&self, ty: Symbol) -> &[EdgeId] {
        match self.runs.binary_search_by_key(&ty, |(t, _)| *t) {
            Ok(i) => {
                let start = if i == 0 {
                    0
                } else {
                    self.runs[i - 1].1 as usize
                };
                &self.flat[start..self.runs[i].1 as usize]
            }
            Err(_) => &[],
        }
    }
}

/// Observed numeric `[min, max]` per attribute symbol (indexed by
/// `Symbol.0`); `None` where no numeric value was stored.
type Ranges = Vec<Option<(f64, f64)>>;

/// Widen `sym`'s range in `ranges` to cover `v`, if `v` is a number other
/// than NaN.
fn widen(ranges: &mut Ranges, sym: Symbol, v: &Value) {
    let Some(x) = v.as_f64().filter(|x| !x.is_nan()) else {
        return;
    };
    let i = sym.0 as usize;
    if ranges.len() <= i {
        ranges.resize(i + 1, None);
    }
    ranges[i] = Some(match ranges[i] {
        Some((lo, hi)) => (lo.min(x), hi.max(x)),
        None => (x, x),
    });
}

/// An in-memory property graph.
#[derive(Debug, Default, Clone)]
pub struct PropertyGraph {
    attr_names: Interner,
    edge_types: Interner,
    /// The value dictionary: every string attribute value stored in this
    /// graph is interned here on insertion (see `crate::value` for the
    /// encoding invariants).
    values: Interner,
    /// Observed numeric ranges of the vertex attributes, widened on
    /// insertion like the value dictionary (see [`Self::numeric_range`]).
    vertex_ranges: Ranges,
    /// Observed numeric ranges of the edge attributes.
    edge_ranges: Ranges,
    vertices: Vec<VertexData>,
    edges: Vec<EdgeData>,
    /// Build-phase adjacency; drained (left empty) once sealed.
    out_edges: Vec<AdjList>,
    in_edges: Vec<AdjList>,
    /// Sealed CSR adjacency, built lazily on the first [`Self::topology`]
    /// call and invalidated by any topology mutation.
    csr: OnceLock<CsrTopology>,
    /// True once [`Self::seal`] dropped the build lists: the CSR is then
    /// the *only* adjacency representation until a mutation melts it.
    sealed: bool,
}

impl PropertyGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph with pre-sized vertex/edge arenas.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        PropertyGraph {
            attr_names: Interner::new(),
            edge_types: Interner::new(),
            values: Interner::new(),
            vertex_ranges: Ranges::new(),
            edge_ranges: Ranges::new(),
            vertices: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(vertices),
            in_edges: Vec::with_capacity(vertices),
            csr: OnceLock::new(),
            sealed: false,
        }
    }

    // ------------------------------------------------------------------
    // lifecycle: build → seal (→ melt on mutation)
    // ------------------------------------------------------------------

    /// The sealed CSR view of the adjacency, built on first use and cached,
    /// with the attribute code columns ([`CsrTopology::column`]).
    ///
    /// Cheap after the first call; adding a vertex or an edge invalidates
    /// the cache, and setting a vertex attribute patches its code. Bulk
    /// readers (the matcher, traversals) should grab this once and scan
    /// through [`crate::csr::AdjSlice`]s instead of per-edge [`Self::edge`]
    /// lookups.
    pub fn topology(&self) -> &CsrTopology {
        self.csr.get_or_init(|| CsrTopology {
            out: CsrDir::build(
                self.out_edges.iter().map(|l| (&l.flat[..], &l.runs[..])),
                &self.edges,
                true,
            ),
            inn: CsrDir::build(
                self.in_edges.iter().map(|l| (&l.flat[..], &l.runs[..])),
                &self.edges,
                false,
            ),
            vertex_cols: Columns::build(
                self.vertices.iter().map(|v| &v.attrs),
                self.values.dict_id(),
            ),
            edge_cols: Columns::build(self.edges.iter().map(|e| &e.attrs), self.values.dict_id()),
            id: fresh_topology_id(),
        })
    }

    /// Seal the graph: compact adjacency into the CSR arena and free the
    /// per-vertex build lists. Idempotent. Reads keep working unchanged
    /// (served from the CSR); a later mutation transparently melts the
    /// graph back into build mode at O(|E|) cost.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let _ = self.topology();
        self.out_edges = Vec::new();
        self.in_edges = Vec::new();
        self.sealed = true;
    }

    /// True while the CSR is the only adjacency representation.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Invalidate the CSR cache before a topology mutation; on a sealed
    /// graph, first re-materialize the build lists from the edge arena
    /// (iterating in edge-id order reproduces the original insertion
    /// sequence, hence the exact same run layout).
    fn melt(&mut self) {
        if self.sealed {
            self.out_edges = vec![AdjList::default(); self.vertices.len()];
            self.in_edges = vec![AdjList::default(); self.vertices.len()];
            for (i, ed) in self.edges.iter().enumerate() {
                let id = EdgeId(i as u32);
                self.out_edges[ed.src.0 as usize].insert(ed.ty, id);
                self.in_edges[ed.dst.0 as usize].insert(ed.ty, id);
            }
            self.sealed = false;
        }
        self.csr.take();
    }

    // ------------------------------------------------------------------
    // construction
    // ------------------------------------------------------------------

    /// Add a vertex with the given attributes; returns its id.
    pub fn add_vertex<'a, I>(&mut self, attrs: I) -> VertexId
    where
        I: IntoIterator<Item = (&'a str, Value)>,
    {
        self.melt();
        let id = VertexId(u32::try_from(self.vertices.len()).expect("vertex arena overflow"));
        let attrs = attrs
            .into_iter()
            .map(|(k, v)| {
                let (k, v) = (self.attr_names.intern(k), self.values.intern_value(v));
                widen(&mut self.vertex_ranges, k, &v);
                (k, v)
            })
            .collect();
        self.vertices.push(VertexData { attrs });
        self.out_edges.push(AdjList::default());
        self.in_edges.push(AdjList::default());
        id
    }

    /// Add a directed edge `src → dst` of type `ty`; returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range (construction-time bug).
    pub fn add_edge<'a, I>(&mut self, src: VertexId, dst: VertexId, ty: &str, attrs: I) -> EdgeId
    where
        I: IntoIterator<Item = (&'a str, Value)>,
    {
        assert!((src.0 as usize) < self.vertices.len(), "src out of range");
        assert!((dst.0 as usize) < self.vertices.len(), "dst out of range");
        self.melt();
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge arena overflow"));
        let ty = self.edge_types.intern(ty);
        let attrs = attrs
            .into_iter()
            .map(|(k, v)| {
                let (k, v) = (self.attr_names.intern(k), self.values.intern_value(v));
                widen(&mut self.edge_ranges, k, &v);
                (k, v)
            })
            .collect();
        self.edges.push(EdgeData {
            src,
            dst,
            ty,
            attrs,
        });
        self.out_edges[src.0 as usize].insert(ty, id);
        self.in_edges[dst.0 as usize].insert(ty, id);
        id
    }

    /// Set (insert or overwrite) an attribute on an existing vertex.
    ///
    /// An overwrite only widens the attribute's
    /// [numeric range](Self::numeric_range): the replaced value's bound
    /// stays, so the range may be wider than the data, never narrower.
    /// The cached topology keeps its adjacency; the vertex's code in the
    /// attribute's column and the column's counts are patched (see
    /// [`crate::csr`]).
    pub fn set_vertex_attr(
        &mut self,
        v: VertexId,
        key: &str,
        value: Value,
    ) -> Result<(), GraphError> {
        let sym = self.attr_names.intern(key);
        let value = self.values.intern_value(value);
        let vertex = self
            .vertices
            .get_mut(v.0 as usize)
            .ok_or(GraphError::VertexOutOfRange(v))?;
        widen(&mut self.vertex_ranges, sym, &value);
        if let Some(csr) = self.csr.get_mut() {
            csr.vertex_cols
                .patch(sym, v.0, &value, self.values.dict_id());
        }
        vertex.attrs.insert(sym, value);
        Ok(())
    }

    // ------------------------------------------------------------------
    // sizes
    // ------------------------------------------------------------------

    /// Number of vertices `N_d`.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges `M_d`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    // ------------------------------------------------------------------
    // lookups
    // ------------------------------------------------------------------

    /// The interner of attribute names.
    pub fn attr_names(&self) -> &Interner {
        &self.attr_names
    }

    /// The interner of edge types.
    pub fn edge_types(&self) -> &Interner {
        &self.edge_types
    }

    /// The value dictionary: every string attribute value stored in this
    /// graph, interned. Readers that compile predicates resolve string
    /// constants here once, then compare symbols.
    pub fn values(&self) -> &Interner {
        &self.values
    }

    /// Resolve a string to its value-dictionary symbol, if any stored
    /// attribute carries it. Allocation-free probe.
    pub fn value_symbol(&self, text: &str) -> Option<Symbol> {
        self.values.get(text)
    }

    /// The observed numeric range `[min, max]` of attribute `attr` over the
    /// graph's vertices, or over its edges when `on_edges` is set; `None`
    /// when no such element stores a numeric value under `attr`.
    ///
    /// Every insertion path widens the range the way it fills the value
    /// dictionary, so every stored `Int`/`Float` of the attribute lies
    /// inside it. NaN is skipped, as is every non-numeric value: no range
    /// predicate admits them (`whyq_query::Interval::matches`). An
    /// overwrite never narrows the range, so it can be wider than the
    /// data: a stale bound keeps every proof drawn from it sound (a range
    /// predicate disjoint from it matches nothing), only less sharp.
    pub fn numeric_range(&self, attr: Symbol, on_edges: bool) -> Option<(f64, f64)> {
        let ranges = if on_edges {
            &self.edge_ranges
        } else {
            &self.vertex_ranges
        };
        ranges.get(attr.0 as usize).copied().flatten()
    }

    /// Resolve an attribute name to its symbol, if any element uses it.
    pub fn attr_symbol(&self, name: &str) -> Option<Symbol> {
        self.attr_names.get(name)
    }

    /// Resolve an edge-type name to its symbol, if any edge uses it.
    pub fn type_symbol(&self, name: &str) -> Option<Symbol> {
        self.edge_types.get(name)
    }

    /// Vertex payload.
    pub fn vertex(&self, v: VertexId) -> &VertexData {
        &self.vertices[v.0 as usize]
    }

    /// Edge payload.
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        &self.edges[e.0 as usize]
    }

    /// Checked vertex lookup.
    pub fn try_vertex(&self, v: VertexId) -> Result<&VertexData, GraphError> {
        self.vertices
            .get(v.0 as usize)
            .ok_or(GraphError::VertexOutOfRange(v))
    }

    /// Checked edge lookup.
    pub fn try_edge(&self, e: EdgeId) -> Result<&EdgeData, GraphError> {
        self.edges
            .get(e.0 as usize)
            .ok_or(GraphError::EdgeOutOfRange(e))
    }

    /// Attribute value of a vertex by symbol.
    pub fn vertex_attr(&self, v: VertexId, key: Symbol) -> Option<&Value> {
        self.vertices[v.0 as usize].attrs.get(key)
    }

    /// Attribute value of an edge by symbol.
    pub fn edge_attr(&self, e: EdgeId, key: Symbol) -> Option<&Value> {
        self.edges[e.0 as usize].attrs.get(key)
    }

    /// Outgoing edges of `v`, grouped in contiguous per-type runs.
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        match self.csr.get() {
            Some(csr) => csr.out_edge_ids(v),
            None => self.out_edges[v.0 as usize].all(),
        }
    }

    /// Incoming edges of `v`, grouped in contiguous per-type runs.
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        match self.csr.get() {
            Some(csr) => csr.in_edge_ids(v),
            None => self.in_edges[v.0 as usize].all(),
        }
    }

    /// Outgoing edges of `v` whose type is `ty` — an O(log #types) slice
    /// lookup, so typed traversals touch no foreign-type edges at all.
    pub fn out_edges_of(&self, v: VertexId, ty: Symbol) -> &[EdgeId] {
        match self.csr.get() {
            Some(csr) => csr.out_entries_of(v, ty).edges,
            None => self.out_edges[v.0 as usize].of_type(ty),
        }
    }

    /// Incoming edges of `v` whose type is `ty`.
    pub fn in_edges_of(&self, v: VertexId, ty: Symbol) -> &[EdgeId] {
        match self.csr.get() {
            Some(csr) => csr.in_entries_of(v, ty).edges,
            None => self.in_edges[v.0 as usize].of_type(ty),
        }
    }

    /// Out-degree plus in-degree (a self-loop contributes to both).
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_edges(v).len() + self.in_edges(v).len()
    }

    /// Iterate over all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Iterate over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Neighbors reachable via one edge in either direction (with the
    /// connecting edge), deduplicated per edge: a self-loop sits in both
    /// the out- and the in-list of `v` but is yielded exactly once (from
    /// the out side).
    ///
    /// With the CSR cache present the scan reads the endpoint columns
    /// directly; in build mode it chases each edge id into the arena.
    /// Exactly one source of each chained pair below is non-empty, so the
    /// self-loop dedup rule lives in this one filter for both modes.
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, VertexId)> + '_ {
        let csr = self.csr.get();
        let (csr_out, csr_in) = csr
            .map(|c| (c.out_entries(v), c.in_entries(v)))
            .unwrap_or_default();
        let (build_out, build_in): (&[EdgeId], &[EdgeId]) = if csr.is_some() {
            (&[], &[])
        } else {
            (
                self.out_edges[v.0 as usize].all(),
                self.in_edges[v.0 as usize].all(),
            )
        };
        let out = csr_out
            .iter()
            .chain(build_out.iter().map(move |&e| (e, self.edge(e).dst)));
        let inn = csr_in
            .iter()
            .chain(build_in.iter().map(move |&e| (e, self.edge(e).src)));
        out.chain(inn.filter(move |&(_, other)| other != v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{ABSENT, FALLBACK};

    fn tiny() -> (PropertyGraph, VertexId, VertexId, EdgeId) {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person")), ("age", Value::Int(30))]);
        let b = g.add_vertex([("type", Value::str("city"))]);
        let e = g.add_edge(a, b, "livesIn", [("since", Value::Int(2003))]);
        (g, a, b, e)
    }

    #[test]
    fn construction_and_lookup() {
        let (g, a, b, e) = tiny();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        let age = g.attr_symbol("age").unwrap();
        assert_eq!(g.vertex_attr(a, age), Some(&Value::Int(30)));
        let since = g.attr_symbol("since").unwrap();
        assert_eq!(g.edge_attr(e, since), Some(&Value::Int(2003)));
        assert_eq!(g.edge(e).src, a);
        assert_eq!(g.edge(e).dst, b);
        assert_eq!(g.edge_types().resolve(g.edge(e).ty), "livesIn");
    }

    #[test]
    fn adjacency_lists() {
        let (g, a, b, e) = tiny();
        assert_eq!(g.out_edges(a), &[e]);
        assert_eq!(g.in_edges(b), &[e]);
        assert!(g.out_edges(b).is_empty());
        assert_eq!(g.degree(a), 1);
        let inc: Vec<_> = g.incident(a).collect();
        assert_eq!(inc, vec![(e, b)]);
    }

    #[test]
    fn multigraph_allows_parallel_edges() {
        let (mut g, a, b, _) = tiny();
        let e2 = g.add_edge(a, b, "livesIn", []);
        let e3 = g.add_edge(a, b, "worksIn", []);
        assert_eq!(g.out_edges(a).len(), 3);
        assert_ne!(e2, e3);
        // The two `livesIn` edges share a type symbol, `worksIn` differs.
        assert_eq!(g.edge(e2).ty, g.edge(EdgeId(0)).ty);
        assert_ne!(g.edge(e3).ty, g.edge(e2).ty);
    }

    #[test]
    fn typed_adjacency_slices() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([]);
        let b = g.add_vertex([]);
        let c = g.add_vertex([]);
        // interleave types on one vertex so inserts hit both the push fast
        // path and the middle-insert slow path
        let e1 = g.add_edge(a, b, "knows", []);
        let e2 = g.add_edge(a, c, "livesIn", []);
        let e3 = g.add_edge(a, c, "knows", []);
        let e4 = g.add_edge(b, a, "knows", []);
        let knows = g.type_symbol("knows").unwrap();
        let lives = g.type_symbol("livesIn").unwrap();
        assert_eq!(g.out_edges_of(a, knows), &[e1, e3]);
        assert_eq!(g.out_edges_of(a, lives), &[e2]);
        assert_eq!(g.in_edges_of(a, knows), &[e4]);
        assert!(g.in_edges_of(a, lives).is_empty());
        assert!(g.out_edges_of(b, lives).is_empty());
        // the flat view contains every edge exactly once, grouped by type
        let mut all = g.out_edges(a).to_vec();
        all.sort();
        assert_eq!(all, vec![e1, e2, e3]);
        let missing = g.type_symbol("nope");
        assert!(missing.is_none());
    }

    #[test]
    fn stored_strings_are_dictionary_encoded() {
        let (g, a, b, e) = tiny();
        let ty = g.attr_symbol("type").unwrap();
        // both "person" and "city" landed in the value dictionary...
        let person = g.value_symbol("person").unwrap();
        let city = g.value_symbol("city").unwrap();
        assert_ne!(person, city);
        assert!(g.value_symbol("robot").is_none());
        // ...and the stored values carry those symbols
        let pv = g.vertex_attr(a, ty).unwrap().as_sym().unwrap();
        assert_eq!(pv.sym(), person);
        assert_eq!(pv.dict_id(), g.values().dict_id());
        assert_eq!(g.vertex_attr(b, ty).unwrap().as_sym().unwrap().sym(), city);
        // encoded values still compare equal to plain literals
        assert_eq!(g.vertex_attr(a, ty), Some(&Value::str("person")));
        // non-strings pass through un-encoded
        let since = g.attr_symbol("since").unwrap();
        assert!(g.edge_attr(e, since).unwrap().as_sym().is_none());
    }

    #[test]
    fn set_vertex_attr_encodes_strings_too() {
        let (mut g, a, _, _) = tiny();
        g.set_vertex_attr(a, "type", Value::str("robot")).unwrap();
        let ty = g.attr_symbol("type").unwrap();
        let stored = g.vertex_attr(a, ty).unwrap();
        assert_eq!(
            stored.as_sym().unwrap().sym(),
            g.value_symbol("robot").unwrap()
        );
    }

    #[test]
    fn set_vertex_attr_overwrites() {
        let (mut g, a, _, _) = tiny();
        g.set_vertex_attr(a, "age", Value::Int(31)).unwrap();
        let age = g.attr_symbol("age").unwrap();
        assert_eq!(g.vertex_attr(a, age), Some(&Value::Int(31)));
        assert!(g
            .set_vertex_attr(VertexId(99), "age", Value::Int(1))
            .is_err());
    }

    #[test]
    fn numeric_ranges_cover_every_stored_number() {
        let (mut g, a, b, _) = tiny();
        let age = g.attr_symbol("age").unwrap();
        let since = g.attr_symbol("since").unwrap();
        assert_eq!(g.numeric_range(age, false), Some((30.0, 30.0)));
        // vertex and edge attributes keep separate ranges
        assert_eq!(g.numeric_range(age, true), None);
        assert_eq!(g.numeric_range(since, true), Some((2003.0, 2003.0)));
        assert_eq!(g.numeric_range(since, false), None);
        // Int and Float widen one range
        g.add_vertex([("age", Value::Float(-1.5))]);
        g.add_edge(a, b, "livesIn", [("since", Value::Float(2010.25))]);
        assert_eq!(g.numeric_range(age, false), Some((-1.5, 30.0)));
        assert_eq!(g.numeric_range(since, true), Some((2003.0, 2010.25)));
        // NaN, strings and booleans are skipped
        g.add_vertex([("age", Value::Float(f64::NAN))]);
        g.add_vertex([("age", Value::str("old")), ("ok", Value::Bool(true))]);
        assert_eq!(g.numeric_range(age, false), Some((-1.5, 30.0)));
        let ok = g.attr_symbol("ok").unwrap();
        assert_eq!(g.numeric_range(ok, false), None);
        // a string-only attribute has no range
        let ty = g.attr_symbol("type").unwrap();
        assert_eq!(g.numeric_range(ty, false), None);
    }

    #[test]
    fn overwrites_only_widen_the_range() {
        let (mut g, a, b, _) = tiny();
        let age = g.attr_symbol("age").unwrap();
        g.set_vertex_attr(a, "age", Value::Int(99)).unwrap();
        // the overwritten 30 keeps its bound: stale, wider, still sound
        assert_eq!(g.numeric_range(age, false), Some((30.0, 99.0)));
        g.set_vertex_attr(b, "age", Value::Float(f64::NAN)).unwrap();
        g.set_vertex_attr(b, "age", Value::str("n/a")).unwrap();
        assert_eq!(g.numeric_range(age, false), Some((30.0, 99.0)));
        // a new attribute on an existing vertex opens its range
        g.set_vertex_attr(b, "pop", Value::Int(5)).unwrap();
        let pop = g.attr_symbol("pop").unwrap();
        assert_eq!(g.numeric_range(pop, false), Some((5.0, 5.0)));
        // a failed write widens nothing
        assert!(g
            .set_vertex_attr(VertexId(9), "pop", Value::Int(50))
            .is_err());
        assert_eq!(g.numeric_range(pop, false), Some((5.0, 5.0)));
    }

    #[test]
    fn numeric_ranges_survive_io_and_clone() {
        let (mut g, a, _, _) = tiny();
        g.set_vertex_attr(a, "score", Value::Float(-2.25)).unwrap();
        let read = crate::io::read_graph(&crate::io::write_graph(&g)).unwrap();
        for copy in [read, g.clone()] {
            for name in ["age", "since", "score", "type"] {
                let (s, t) = (
                    g.attr_symbol(name).unwrap(),
                    copy.attr_symbol(name).unwrap(),
                );
                for on_edges in [false, true] {
                    assert_eq!(
                        g.numeric_range(s, on_edges),
                        copy.numeric_range(t, on_edges),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn checked_lookups() {
        let (g, a, _, e) = tiny();
        assert!(g.try_vertex(a).is_ok());
        assert!(g.try_edge(e).is_ok());
        assert_eq!(
            g.try_vertex(VertexId(5)).unwrap_err(),
            GraphError::VertexOutOfRange(VertexId(5))
        );
        assert_eq!(
            g.try_edge(EdgeId(5)).unwrap_err(),
            GraphError::EdgeOutOfRange(EdgeId(5))
        );
    }

    #[test]
    fn self_loops_supported() {
        let mut g = PropertyGraph::new();
        let v = g.add_vertex([]);
        let e = g.add_edge(v, v, "self", []);
        assert_eq!(g.out_edges(v), &[e]);
        assert_eq!(g.in_edges(v), &[e]);
        assert_eq!(g.degree(v), 2);
    }

    /// Regression: `incident` chained the out- and in-lists, so a self-loop
    /// (present in both) was yielded twice and inflated neighborhood
    /// discovery. It must appear exactly once — in build and sealed mode.
    #[test]
    fn incident_yields_self_loop_once() {
        let mut g = PropertyGraph::new();
        let v = g.add_vertex([]);
        let w = g.add_vertex([]);
        let loop_e = g.add_edge(v, v, "self", []);
        let out_e = g.add_edge(v, w, "t", []);
        let in_e = g.add_edge(w, v, "t", []);
        let expect = vec![(loop_e, v), (out_e, w), (in_e, w)];
        assert_eq!(g.incident(v).collect::<Vec<_>>(), expect);
        // degree still counts both loop endpoints (standard convention)
        assert_eq!(g.degree(v), 4);
        g.seal();
        assert_eq!(g.incident(v).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn seal_preserves_adjacency_and_typed_slices() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([]);
        let b = g.add_vertex([]);
        let c = g.add_vertex([]);
        // interleaved types + parallel edges + a self-loop
        let e1 = g.add_edge(a, b, "knows", []);
        let e2 = g.add_edge(a, c, "livesIn", []);
        let e3 = g.add_edge(a, c, "knows", []);
        let e4 = g.add_edge(a, a, "knows", []);
        let e5 = g.add_edge(b, a, "knows", []);
        let unsealed = g.clone();
        g.seal();
        assert!(g.is_sealed());
        assert!(!unsealed.is_sealed());
        let knows = g.type_symbol("knows").unwrap();
        let lives = g.type_symbol("livesIn").unwrap();
        for v in [a, b, c] {
            assert_eq!(g.out_edges(v), unsealed.out_edges(v));
            assert_eq!(g.in_edges(v), unsealed.in_edges(v));
            assert_eq!(g.degree(v), unsealed.degree(v));
            for ty in [knows, lives] {
                assert_eq!(g.out_edges_of(v, ty), unsealed.out_edges_of(v, ty));
                assert_eq!(g.in_edges_of(v, ty), unsealed.in_edges_of(v, ty));
            }
        }
        assert_eq!(g.out_edges_of(a, knows), &[e1, e3, e4]);
        assert_eq!(g.out_edges_of(a, lives), &[e2]);
        assert_eq!(g.in_edges_of(a, knows), &[e4, e5]);
        // the SoA columns expose (edge, other, type) without EdgeData
        let entries = g.topology().out_entries_of(a, knows);
        assert_eq!(entries.edges, &[e1, e3, e4]);
        assert_eq!(entries.others, &[b, c, a]);
        assert!(entries.types.iter().all(|&t| t == knows));
        assert_eq!(g.topology().in_entries(a).others, &[a, b]);
    }

    /// The values `vs` stand for in the column of `name` (vertex side, or
    /// edge side with `on_edges`): the dictionary value of each code, or
    /// the sentinel's name.
    fn decoded(g: &PropertyGraph, name: &str, on_edges: bool, ids: &[u32]) -> Vec<String> {
        let col = g
            .topology()
            .column(g.attr_symbol(name).unwrap(), on_edges)
            .expect("coded");
        ids.iter()
            .map(|&i| match col.code(i) {
                ABSENT => "absent".to_string(),
                FALLBACK => "fallback".to_string(),
                c => col.dict()[c as usize].to_string(),
            })
            .collect()
    }

    #[test]
    fn type_column_holds_encoded_types_and_follows_writes() {
        let (mut g, a, b, _) = tiny();
        let c = g.add_vertex([("type", Value::Int(3))]);
        let d = g.add_vertex([("name", Value::str("Dora"))]);
        g.seal();
        let ids = [a, b, c, d].map(|v| v.0);
        assert_eq!(
            decoded(&g, "type", false, &ids),
            ["\"person\"", "\"city\"", "3", "absent"]
        );
        // the dictionary sorts numbers before strings
        let ty = g.attr_symbol("type").unwrap();
        let dict = g.topology().column(ty, false).unwrap().dict().to_vec();
        assert_eq!(
            dict,
            [Value::Int(3), Value::str("city"), Value::str("person")]
        );
        // a write patches the code in place, on a sealed graph: a value
        // the dictionary holds gets its rank, any other value FALLBACK
        g.set_vertex_attr(a, "type", Value::str("city")).unwrap();
        g.set_vertex_attr(b, "type", Value::Float(0.5)).unwrap();
        g.set_vertex_attr(c, "type", Value::Float(3.0)).unwrap();
        g.set_vertex_attr(d, "type", Value::str("robot")).unwrap();
        g.set_vertex_attr(c, "mood", Value::Int(4)).unwrap();
        assert!(g.is_sealed());
        assert_eq!(
            decoded(&g, "type", false, &ids),
            ["\"city\"", "fallback", "3", "fallback"]
        );
        // an attribute first set after sealing has no column
        let mood = g.attr_symbol("mood").unwrap();
        assert!(g.topology().column(mood, false).is_none());
        // a melt and rebuild codes every value from the attributes again
        g.add_vertex([]);
        assert_eq!(
            decoded(&g, "type", false, &ids),
            ["\"city\"", "0.5", "3", "\"robot\""]
        );
        assert!(g.topology().column(mood, false).is_some());
    }

    #[test]
    fn columns_code_only_what_they_decide_exactly() {
        let mut g = PropertyGraph::new();
        let big = (1i64 << 53) + 1;
        let vals = [
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Int(big),
            Value::Bool(true),
            Value::Int(1 << 53),
        ];
        let ids: Vec<u32> = vals
            .iter()
            .map(|x| g.add_vertex([("x", x.clone())]).0)
            .collect();
        let e = g.add_edge(VertexId(0), VertexId(1), "t", [("w", Value::Float(2.5))]);
        g.seal();
        // -0.0 and 0 are one value; NaN and the Int beyond 2^53 fall back
        assert_eq!(
            decoded(&g, "x", false, &ids),
            [
                "-0",
                "-0",
                "fallback",
                "fallback",
                "true",
                "9007199254740992"
            ]
        );
        assert_eq!(decoded(&g, "w", true, &[e.0]), ["2.5"]);
        // vertex and edge sides keep their own columns
        let w = g.attr_symbol("w").unwrap();
        assert!(g.topology().column(w, false).is_none());
        let x = g.attr_symbol("x").unwrap();
        let col = g.topology().column(x, false).unwrap();
        assert_eq!(
            (col.first_number(), col.numbers()),
            (1, &[-0.0, 9007199254740992.0][..])
        );
        assert_eq!(col.rank(&Value::Float(0.0)), Some(1));
        assert_eq!(col.rank(&Value::Float(f64::NAN)), None);
    }

    #[test]
    fn columns_widen_past_254_values() {
        let mut g = PropertyGraph::new();
        for i in 0..300 {
            g.add_vertex([
                ("n", Value::Int(i)),
                ("s", Value::str(format!("s{}", i % 254))),
            ]);
        }
        g.add_vertex([("o", Value::str("elsewhere"))]);
        g.seal();
        g.set_vertex_attr(VertexId(7), "n", Value::Int(1000))
            .unwrap();
        g.set_vertex_attr(VertexId(8), "s", Value::str("s3"))
            .unwrap();
        assert_eq!(
            decoded(&g, "n", false, &[0, 7, 299]),
            ["0", "fallback", "299"]
        );
        assert_eq!(decoded(&g, "s", false, &[8, 253]), ["\"s3\"", "\"s253\""]);
        let s = g.attr_symbol("s").unwrap();
        let col = g.topology().column(s, false).unwrap();
        assert_eq!(col.dict().len(), 254);
        assert_eq!(col.rank_of_sym(g.value_symbol("s10").unwrap()), Some(2));
        // a string stored only under another attribute has no rank here
        assert_eq!(col.rank_of_sym(g.value_symbol("elsewhere").unwrap()), None);
    }

    #[test]
    fn mutation_after_seal_melts_and_stays_correct() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([]);
        let b = g.add_vertex([]);
        let e1 = g.add_edge(a, b, "t", []);
        g.seal();
        assert!(g.is_sealed());
        let c = g.add_vertex([]);
        assert!(!g.is_sealed());
        let e2 = g.add_edge(b, c, "t", []);
        let e3 = g.add_edge(a, b, "u", []);
        let t = g.type_symbol("t").unwrap();
        assert_eq!(g.out_edges(a), &[e1, e3]);
        assert_eq!(g.out_edges_of(b, t), &[e2]);
        assert_eq!(g.in_edges(b), &[e1, e3]);
        // re-seal after the melt; everything still agrees
        g.seal();
        assert_eq!(g.out_edges(a), &[e1, e3]);
        assert_eq!(g.out_edges_of(a, t), &[e1]);
        assert_eq!(g.in_edges(c), &[e2]);
    }
}
