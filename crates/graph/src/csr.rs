//! Sealed CSR adjacency — the cache-dense read layout of a
//! [`crate::PropertyGraph`].
//!
//! During construction the graph keeps per-vertex adjacency `Vec`s (cheap
//! to append to). For matching, the hot loop is a *scan* over one vertex's
//! candidate edges, and per-vertex `Vec`s scatter those scans across the
//! heap and force a pointer chase into [`crate::EdgeData`] for every
//! candidate just to learn its opposite endpoint and type. Sealing
//! compacts adjacency into two compressed-sparse-row arenas (one per
//! direction), each a struct-of-arrays:
//!
//! * `edges`   — edge ids, grouped per vertex and, within a vertex, in
//!   contiguous per-type runs (the same order the build lists keep);
//! * `others`  — the opposite endpoint of each entry (`dst` in the out
//!   arena, `src` in the in arena);
//! * `types`   — the edge type of each entry;
//! * `offsets` — per-vertex extents into the arena (`offsets[v]..offsets[v+1]`);
//! * `runs` / `run_offsets` — the per-vertex type-run table, so a typed
//!   scan is one binary search plus one contiguous slice.
//!
//! A candidate scan therefore reads `(edge, other, type)` straight out of
//! three parallel arrays — no `EdgeData` load at all unless a predicate
//! needs edge attributes. [`AdjSlice`] bundles the three parallel slices of
//! one scan.
//!
//! Beside the two arenas sits one dense vertex column, `vertex_types`: the
//! value-dictionary symbol of each vertex's `type` attribute
//! ([`crate::domains::TYPE_ATTR`]), or [`NO_TYPE`] when the vertex has
//! none, a non-string one or an un-encoded string. A matcher testing
//! `type` against a string disjunction reads four bytes per vertex instead
//! of searching the vertex's heap [`crate::AttrMap`]; a [`NO_TYPE`] entry
//! sends it back to the map, so the column decides only what it can
//! decide exactly.

use crate::graph::{EdgeData, EdgeId, VertexId};
use crate::interner::Symbol;
use crate::value::Value;
use std::ops::Range;

/// The [`CsrTopology::vertex_type`] column entry of a vertex whose `type`
/// attribute is absent, not a string, or a string the value dictionary
/// did not encode.
pub const NO_TYPE: u32 = u32::MAX;

/// The type-column entry for a vertex whose `type` attribute is `ty`.
pub(crate) fn type_entry(ty: Option<&Value>) -> u32 {
    match ty {
        Some(Value::Sym(sv)) => sv.sym().0,
        _ => NO_TYPE,
    }
}

/// Parallel slices over one vertex's (possibly type-restricted) adjacency:
/// `edges[i]` connects the scanned vertex to `others[i]` and has type
/// `types[i]`. All three slices have equal length and index together.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdjSlice<'a> {
    /// Candidate edge ids.
    pub edges: &'a [EdgeId],
    /// Opposite endpoint of each candidate edge.
    pub others: &'a [VertexId],
    /// Edge type of each candidate edge.
    pub types: &'a [Symbol],
}

impl<'a> AdjSlice<'a> {
    /// Number of candidate edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterate over `(edge, other endpoint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, VertexId)> + 'a {
        self.edges.iter().copied().zip(self.others.iter().copied())
    }

    /// The `i`-th `(edge, other endpoint)` candidate — random access for
    /// resumable scans (the matcher's streaming DFS stores a position into
    /// the slice across suspension points).
    pub fn get(&self, i: usize) -> (EdgeId, VertexId) {
        (self.edges[i], self.others[i])
    }
}

/// One direction (out or in) of the sealed adjacency.
#[derive(Debug, Clone, Default)]
pub(crate) struct CsrDir {
    edges: Vec<EdgeId>,
    others: Vec<VertexId>,
    types: Vec<Symbol>,
    /// `offsets[v]..offsets[v + 1]` is vertex `v`'s extent in the arena.
    offsets: Vec<u32>,
    /// `(type, absolute end offset)` runs, concatenated across vertices;
    /// a run starts at the previous run's end (or the vertex extent start).
    runs: Vec<(Symbol, u32)>,
    /// `run_offsets[v]..run_offsets[v + 1]` is vertex `v`'s extent in `runs`.
    run_offsets: Vec<u32>,
}

impl CsrDir {
    /// Compact per-vertex `(type, edge)` run lists into one arena.
    /// `lists` yields, per vertex, the flat edge ids and the relative
    /// `(type, end)` run table — exactly the layout the build-phase
    /// adjacency keeps.
    pub(crate) fn build<'a, I>(lists: I, edges: &[EdgeData], take_dst: bool) -> CsrDir
    where
        I: Iterator<Item = (&'a [EdgeId], &'a [(Symbol, u32)])>,
    {
        let mut dir = CsrDir {
            edges: Vec::new(),
            others: Vec::new(),
            types: Vec::new(),
            offsets: vec![0],
            runs: Vec::new(),
            run_offsets: vec![0],
        };
        for (flat, runs) in lists {
            let base = dir.edges.len() as u32;
            for &e in flat {
                let ed = &edges[e.0 as usize];
                dir.edges.push(e);
                dir.others.push(if take_dst { ed.dst } else { ed.src });
                dir.types.push(ed.ty);
            }
            for &(ty, end) in runs {
                dir.runs.push((ty, base + end));
            }
            dir.offsets.push(dir.edges.len() as u32);
            dir.run_offsets.push(dir.runs.len() as u32);
        }
        dir
    }

    fn extent(&self, v: VertexId) -> Range<usize> {
        self.offsets[v.0 as usize] as usize..self.offsets[v.0 as usize + 1] as usize
    }

    fn extent_u32(&self, v: VertexId) -> Range<u32> {
        self.offsets[v.0 as usize]..self.offsets[v.0 as usize + 1]
    }

    fn extent_of_u32(&self, v: VertexId, ty: Symbol) -> Range<u32> {
        let r = self.extent_of(v, ty);
        r.start as u32..r.end as u32
    }

    /// The arena extent of `v`'s edges of type `ty` (empty if none).
    fn extent_of(&self, v: VertexId, ty: Symbol) -> Range<usize> {
        let rr =
            self.run_offsets[v.0 as usize] as usize..self.run_offsets[v.0 as usize + 1] as usize;
        let runs = &self.runs[rr];
        match runs.binary_search_by_key(&ty, |(t, _)| *t) {
            Ok(i) => {
                let start = if i == 0 {
                    self.offsets[v.0 as usize]
                } else {
                    runs[i - 1].1
                };
                start as usize..runs[i].1 as usize
            }
            Err(_) => 0..0,
        }
    }

    pub(crate) fn edge_ids(&self, v: VertexId) -> &[EdgeId] {
        &self.edges[self.extent(v)]
    }

    pub(crate) fn entries(&self, v: VertexId) -> AdjSlice<'_> {
        self.slice(self.extent(v))
    }

    pub(crate) fn entries_of(&self, v: VertexId, ty: Symbol) -> AdjSlice<'_> {
        self.slice(self.extent_of(v, ty))
    }

    pub(crate) fn degree(&self, v: VertexId) -> usize {
        self.extent(v).len()
    }

    fn slice(&self, r: Range<usize>) -> AdjSlice<'_> {
        AdjSlice {
            edges: &self.edges[r.clone()],
            others: &self.others[r.clone()],
            types: &self.types[r],
        }
    }
}

/// The sealed, read-optimized adjacency of a graph: one CSR arena per
/// direction, plus the dense vertex-type column (see the
/// [module docs](self)). Obtained from [`crate::PropertyGraph::topology`]
/// (built lazily and cached) or pinned permanently by
/// [`crate::PropertyGraph::seal`]. Adding a vertex or an edge drops the
/// whole view; [`crate::PropertyGraph::set_vertex_attr`] on `type`
/// patches the one column entry it changes.
#[derive(Debug, Clone, Default)]
pub struct CsrTopology {
    pub(crate) out: CsrDir,
    pub(crate) inn: CsrDir,
    /// Per vertex: the dictionary symbol of its `type` string, or
    /// [`NO_TYPE`].
    pub(crate) vertex_types: Vec<u32>,
}

impl CsrTopology {
    /// The value-dictionary symbol of `v`'s `type` attribute, or `None`
    /// when `v` has no such attribute, a non-string one or an
    /// un-encoded string — the caller then reads the attribute map.
    #[inline]
    pub fn vertex_type(&self, v: VertexId) -> Option<Symbol> {
        let t = self.vertex_types[v.0 as usize];
        (t != NO_TYPE).then_some(Symbol(t))
    }

    /// Outgoing entries of `v`, grouped in contiguous per-type runs.
    pub fn out_entries(&self, v: VertexId) -> AdjSlice<'_> {
        self.out.entries(v)
    }

    /// Incoming entries of `v`, grouped in contiguous per-type runs.
    pub fn in_entries(&self, v: VertexId) -> AdjSlice<'_> {
        self.inn.entries(v)
    }

    /// Outgoing entries of `v` whose type is `ty`.
    pub fn out_entries_of(&self, v: VertexId, ty: Symbol) -> AdjSlice<'_> {
        self.out.entries_of(v, ty)
    }

    /// Incoming entries of `v` whose type is `ty`.
    pub fn in_entries_of(&self, v: VertexId, ty: Symbol) -> AdjSlice<'_> {
        self.inn.entries_of(v, ty)
    }

    /// Outgoing edge ids of `v`.
    pub fn out_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        self.out.edge_ids(v)
    }

    /// Incoming edge ids of `v`.
    pub fn in_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        self.inn.edge_ids(v)
    }

    /// Out-degree of `v` (one offset subtraction).
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v` (one offset subtraction).
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.inn.degree(v)
    }

    /// Absolute out-arena extent of `v`'s entries. Pair with
    /// [`CsrTopology::out_slice`]: resumable scans can resolve an extent
    /// once, store the two `u32`s across suspension points, and reslice
    /// in O(1) on every resume instead of re-running the offset (and,
    /// for typed runs, binary-search) lookups.
    pub fn out_extent(&self, v: VertexId) -> Range<u32> {
        self.out.extent_u32(v)
    }

    /// Absolute in-arena extent of `v`'s entries.
    pub fn in_extent(&self, v: VertexId) -> Range<u32> {
        self.inn.extent_u32(v)
    }

    /// Absolute out-arena extent of `v`'s entries of type `ty` (empty if
    /// none).
    pub fn out_extent_of(&self, v: VertexId, ty: Symbol) -> Range<u32> {
        self.out.extent_of_u32(v, ty)
    }

    /// Absolute in-arena extent of `v`'s entries of type `ty` (empty if
    /// none).
    pub fn in_extent_of(&self, v: VertexId, ty: Symbol) -> Range<u32> {
        self.inn.extent_of_u32(v, ty)
    }

    /// Reslice an extent previously obtained from
    /// [`CsrTopology::out_extent`] / [`CsrTopology::out_extent_of`].
    pub fn out_slice(&self, r: Range<u32>) -> AdjSlice<'_> {
        self.out.slice(r.start as usize..r.end as usize)
    }

    /// Reslice an extent previously obtained from
    /// [`CsrTopology::in_extent`] / [`CsrTopology::in_extent_of`].
    pub fn in_slice(&self, r: Range<u32>) -> AdjSlice<'_> {
        self.inn.slice(r.start as usize..r.end as usize)
    }
}
