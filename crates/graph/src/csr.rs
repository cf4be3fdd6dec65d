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
//! Beside the two arenas sit the **code columns**: one dense column per
//! vertex attribute and one per edge attribute, built with the arenas
//! (one pass over the vertex attribute maps, one over the edge maps) and
//! dropped with them. A column stores, per element, the *code* of
//! its value: the value's rank in the attribute's dictionary, the sorted
//! distinct values stored under that attribute on that side of the graph
//! (vertex and edge dictionaries are kept apart). A predicate compiled
//! against the dictionary becomes a test on codes — a code range for a
//! numeric range, a few codes for a disjunction — so a matcher reads one
//! or two bytes per candidate instead of searching its heap
//! [`crate::AttrMap`]. Codes are `u8` for dictionaries of up to 254
//! values and `u16` up to 65,534; a larger dictionary gets no column.
//!
//! Two codes are not ranks:
//!
//! * [`ABSENT`] — the element lacks the attribute, so every predicate on
//!   it is false;
//! * [`FALLBACK`] — the codes cannot decide the value exactly, so the
//!   reader tests that one element's map. NaN, an `Int` beyond 2^53 (its
//!   equality with floats is not transitive), a string of another
//!   dictionary and a value written after sealing that the dictionary
//!   lacks all get this code.
//!
//! A dictionary is never re-coded: a write after sealing patches the
//! element's code to the value's rank, or to [`FALLBACK`], and an attribute
//! that first appears after sealing has no column at all.
//!
//! Both layers also carry the **statistics** the planner estimates from,
//! exact at all times:
//!
//! * per column, how many elements hold each code
//!   ([`AttrColumn::counts`]), with the [`FALLBACK`] elements counted
//!   apart ([`AttrColumn::fallbacks`]); a patch moves the element from its
//!   old code's count to its new one;
//! * per edge type and direction, how many entries the type's runs hold
//!   and how many vertices have at least one ([`CsrTopology::type_runs`]).
//!
//! Last, each arena lists the **edges of each type** in arena order
//! ([`CsrTopology::type_edges`]): vertices in id order, each vertex's run
//! of the type in place. That is the order in which a seed scan over
//! ascending vertices followed by a typed expansion meets them, so a
//! matcher can seed a pattern at one typed edge by scanning its type's
//! list instead of every candidate vertex. The lists cost 4 B per edge
//! per direction and are built and dropped with the arenas.

use crate::attrs::AttrMap;
use crate::domains::{value_order, Distinct};
use crate::graph::{EdgeData, EdgeId, VertexId};
use crate::interner::Symbol;
use crate::value::Value;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The column code of an element that lacks the attribute.
pub const ABSENT: u16 = u16::MAX;

/// The column code of an element whose value the dictionary cannot
/// decide exactly: its attribute map decides.
pub const FALLBACK: u16 = u16::MAX - 1;

/// The largest dictionary a `u8` column codes: 254 ranks below its two
/// sentinels.
const NARROW_MAX: usize = u8::MAX as usize - 1;

/// Can a dictionary rank stand in for `v` in every predicate test? Not
/// for NaN (it equals only itself and matches no range), an `Int` beyond
/// 2^53 (equal to a float it rounds to, while that float's other equals
/// differ from it), or a string not encoded by dictionary `dict`.
fn codable(v: &Value, dict: u32) -> bool {
    match v {
        Value::Int(_) | Value::Float(_) => exact_number(v).is_some(),
        Value::Sym(s) => s.dict_id() == dict,
        Value::Str(_) => false,
        Value::Bool(_) => true,
    }
}

/// `v` as an `f64`, when it is a number a rank can stand for.
fn exact_number(v: &Value) -> Option<f64> {
    match *v {
        Value::Int(i) if i.unsigned_abs() <= 1 << 53 => Some(i as f64),
        Value::Float(f) if !f.is_nan() => Some(f),
        _ => None,
    }
}

/// The per-element codes of one column, as narrow as its dictionary.
#[derive(Debug, Clone)]
enum Codes {
    /// Ranks below 254; `0xFE` is [`FALLBACK`] and `0xFF` [`ABSENT`].
    Narrow(Vec<u8>),
    Wide(Vec<u16>),
}

impl Codes {
    /// Store `code` for element `i`; a narrow column must hold its rank.
    fn set(&mut self, i: u32, code: u16) {
        match self {
            // the sentinels truncate onto 0xFE / 0xFF
            Codes::Narrow(c) => c[i as usize] = code as u8,
            Codes::Wide(c) => c[i as usize] = code,
        }
    }
}

/// A narrow code as a wide one: ranks stay, the two sentinels are lifted.
#[inline]
fn widened(c: u8) -> u16 {
    let c = u16::from(c);
    if c >= NARROW_MAX as u16 {
        c | 0xFF00
    } else {
        c
    }
}

/// The sealed code column of one attribute on one side of the graph (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct AttrColumn {
    dict: Vec<Value>,
    /// `(symbol, rank)` of every string in `dict`, by symbol: a string
    /// constant's code is found without reading any text.
    strings: Box<[(Symbol, u16)]>,
    /// The numeric block of `dict` as `f64`s (exact: codable numbers fit),
    /// starting at rank `first_number`.
    numbers: Box<[f64]>,
    first_number: u16,
    codes: Codes,
    /// How many elements hold each rank.
    counts: Box<[u32]>,
    /// How many elements hold [`FALLBACK`].
    fallbacks: u32,
}

impl AttrColumn {
    /// The dictionary: the distinct codable values stored under the
    /// attribute when the column was built, sorted (booleans, then
    /// numbers, then strings). Code `c` stands for `dict()[c]`.
    pub fn dict(&self) -> &[Value] {
        &self.dict
    }

    /// The code of element `i`: a dictionary rank, [`ABSENT`] or
    /// [`FALLBACK`].
    #[inline]
    pub fn code(&self, i: u32) -> u16 {
        match &self.codes {
            Codes::Narrow(c) => widened(c[i as usize]),
            Codes::Wide(c) => c[i as usize],
        }
    }

    /// The rank of the dictionary value equal to `v`, if any.
    pub fn rank(&self, v: &Value) -> Option<u16> {
        if let Some(x) = exact_number(v) {
            // the dictionary's numbers are exact too, and none is NaN
            let r = self
                .numbers
                .binary_search_by(|n| n.partial_cmp(&x).expect("no NaN"))
                .ok()?;
            return Some(self.first_number + r as u16);
        }
        let r = self.dict.binary_search_by(|x| value_order(x, v)).ok()?;
        Some(r as u16)
    }

    /// The rank of the dictionary string whose value-dictionary symbol is
    /// `sym`, if any.
    pub fn rank_of_sym(&self, sym: Symbol) -> Option<u16> {
        let i = self.strings.binary_search_by_key(&sym, |&(s, _)| s).ok()?;
        Some(self.strings[i].1)
    }

    /// The numeric dictionary values as `f64`s, in numeric order: the
    /// values of the ranks `first..first + numbers().len()`, where
    /// `first` is [`AttrColumn::first_number`].
    pub fn numbers(&self) -> &[f64] {
        &self.numbers
    }

    /// The rank of the smallest numeric dictionary value (booleans sort
    /// before numbers).
    pub fn first_number(&self) -> u16 {
        self.first_number
    }

    /// How many elements hold each code: `counts()[c]` elements hold
    /// rank `c`.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// How many elements hold [`FALLBACK`]: their maps decide.
    pub fn fallbacks(&self) -> u32 {
        self.fallbacks
    }

    /// The code `v` gets in this column: its rank, or [`FALLBACK`].
    fn code_of(&self, v: &Value, dict: u32) -> u16 {
        if !codable(v, dict) {
            return FALLBACK;
        }
        self.rank(v).unwrap_or(FALLBACK)
    }

    /// The count that code `c` is tallied in; none for [`ABSENT`].
    fn tally(&mut self, c: u16) -> Option<&mut u32> {
        match c {
            ABSENT => None,
            FALLBACK => Some(&mut self.fallbacks),
            rank => Some(&mut self.counts[usize::from(rank)]),
        }
    }
}

/// The code columns of one side of the graph, indexed by attribute
/// symbol; `None` where the attribute has no column (no element stored
/// it at sealing, or its dictionary overflowed).
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns(Vec<Option<AttrColumn>>);

/// A column under construction: the distinct values met so far and each
/// element's first-seen rank (or sentinel), one byte each until the 255th
/// distinct value widens the codes.
enum Building {
    Open(Distinct, Codes),
    Overflowed,
}

impl Columns {
    /// Code every attribute of the `maps`, one per element; string values
    /// are codable when dictionary `dict` encoded them.
    pub(crate) fn build<'a>(maps: impl ExactSizeIterator<Item = &'a AttrMap>, dict: u32) -> Self {
        let n = maps.len();
        let mut building: Vec<Option<Building>> = Vec::new();
        for (i, attrs) in maps.enumerate() {
            for (sym, v) in attrs.iter() {
                let s = sym.0 as usize;
                if building.len() <= s {
                    building.resize_with(s + 1, || None);
                }
                let col = building[s].get_or_insert_with(|| {
                    Building::Open(Distinct::default(), Codes::Narrow(vec![ABSENT as u8; n]))
                });
                let Building::Open(distinct, codes) = col else {
                    continue;
                };
                let code = if codable(v, dict) {
                    let rank = distinct.rank(v);
                    if rank >= u32::from(FALLBACK) {
                        *col = Building::Overflowed;
                        continue;
                    }
                    if let Codes::Narrow(narrow) = codes {
                        if rank as usize >= NARROW_MAX {
                            *codes = Codes::Wide(narrow.iter().map(|&c| widened(c)).collect());
                        }
                    }
                    rank as u16
                } else {
                    FALLBACK
                };
                codes.set(i as u32, code);
            }
        }
        Columns(
            building
                .into_iter()
                .map(|b| match b? {
                    Building::Overflowed => None,
                    Building::Open(distinct, codes) => Some(seal(distinct, codes)),
                })
                .collect(),
        )
    }

    /// The column of attribute `sym`, if it has one.
    #[inline]
    pub(crate) fn get(&self, sym: Symbol) -> Option<&AttrColumn> {
        self.0.get(sym.0 as usize)?.as_ref()
    }

    /// Element `i` now stores `v` under `sym`: patch its code and the
    /// counts, if the attribute has a column.
    pub(crate) fn patch(&mut self, sym: Symbol, i: u32, v: &Value, dict: u32) {
        if let Some(Some(col)) = self.0.get_mut(sym.0 as usize) {
            let (old, new) = (col.code(i), col.code_of(v, dict));
            if let Some(n) = col.tally(old) {
                *n -= 1;
            }
            if let Some(n) = col.tally(new) {
                *n += 1;
            }
            col.codes.set(i, new);
        }
    }
}

/// Sort the distinct values into the dictionary, turn the first-seen
/// ranks into dictionary ranks and count the elements of each code.
fn seal(distinct: Distinct, mut codes: Codes) -> AttrColumn {
    let (dict, first_seen) = distinct.sorted().unwrap_or_default();
    let mut rank_of = vec![0u16; dict.len()];
    for (rank, &seen) in first_seen.iter().enumerate() {
        rank_of[seen as usize] = rank as u16;
    }
    let mut counts = vec![0u32; dict.len()].into_boxed_slice();
    let mut fallbacks = 0;
    let mut recode = |c: u16| match c {
        ABSENT => ABSENT,
        FALLBACK => {
            fallbacks += 1;
            FALLBACK
        }
        seen => {
            let rank = rank_of[usize::from(seen)];
            counts[usize::from(rank)] += 1;
            rank
        }
    };
    // in place: the build already widened the codes a large dictionary needs
    match &mut codes {
        Codes::Narrow(c) => c.iter_mut().for_each(|c| *c = recode(widened(*c)) as u8),
        Codes::Wide(c) => c.iter_mut().for_each(|c| *c = recode(*c)),
    }
    let mut strings: Box<[(Symbol, u16)]> = dict
        .iter()
        .enumerate()
        .filter_map(|(rank, v)| Some((v.as_sym()?.sym(), rank as u16)))
        .collect();
    strings.sort_unstable();
    let first_number = dict.partition_point(|x| x.as_bool().is_some());
    let numbers = dict[first_number..]
        .iter()
        .map_while(Value::as_f64)
        .collect();
    AttrColumn {
        dict,
        strings,
        numbers,
        first_number: first_number as u16,
        codes,
        counts,
        fallbacks,
    }
}

/// Source of fresh topology identities (see [`CsrTopology::id`]).
static NEXT_TOPOLOGY_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique topology identity. 64 bits never wrap in
/// practice, so no two builds of one process (nor the empty default, id
/// 0) share an id.
pub(crate) fn fresh_topology_id() -> u64 {
    NEXT_TOPOLOGY_ID.fetch_add(1, Ordering::Relaxed)
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

/// The runs of one edge type in one direction of the CSR: how many
/// entries they hold, and how many vertices have at least one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeRuns {
    /// Entries of the type in this direction (its edge count).
    pub entries: u32,
    /// Vertices with at least one entry of the type in this direction.
    pub vertices: u32,
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
    /// The [`TypeRuns`] of each edge type, indexed by type symbol.
    type_runs: Vec<TypeRuns>,
    /// The edge ids of the arena grouped by type, each type's in arena
    /// order: type `t` owns `type_edges[type_starts[t]..type_starts[t + 1]]`.
    type_edges: Vec<EdgeId>,
    type_starts: Vec<u32>,
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
            type_runs: Vec::new(),
            type_edges: Vec::new(),
            type_starts: Vec::new(),
        };
        for (flat, runs) in lists {
            let base = dir.edges.len() as u32;
            for &e in flat {
                let ed = &edges[e.0 as usize];
                dir.edges.push(e);
                dir.others.push(if take_dst { ed.dst } else { ed.src });
                dir.types.push(ed.ty);
            }
            let mut start = 0;
            for &(ty, end) in runs {
                dir.runs.push((ty, base + end));
                let t = ty.0 as usize;
                if dir.type_runs.len() <= t {
                    dir.type_runs.resize(t + 1, TypeRuns::default());
                }
                dir.type_runs[t].entries += end - start;
                dir.type_runs[t].vertices += 1;
                start = end;
            }
            dir.offsets.push(dir.edges.len() as u32);
            dir.run_offsets.push(dir.runs.len() as u32);
        }
        dir.group_by_type();
        dir
    }

    /// Fill `type_edges`: a counting sort of the arena by type that keeps
    /// arena order within each type.
    fn group_by_type(&mut self) {
        self.type_starts = std::iter::once(0)
            .chain(self.type_runs.iter().scan(0, |end, r| {
                *end += r.entries;
                Some(*end)
            }))
            .collect();
        let mut next = self.type_starts.clone();
        self.type_edges = vec![EdgeId(0); self.edges.len()];
        for (&e, ty) in self.edges.iter().zip(&self.types) {
            let at = &mut next[ty.0 as usize];
            self.type_edges[*at as usize] = e;
            *at += 1;
        }
    }

    fn type_edges(&self, ty: Symbol) -> &[EdgeId] {
        let t = ty.0 as usize;
        match (self.type_starts.get(t), self.type_starts.get(t + 1)) {
            (Some(&start), Some(&end)) => &self.type_edges[start as usize..end as usize],
            _ => &[],
        }
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
/// direction, plus the vertex and edge code columns and their statistics
/// (see the [module docs](self)). Obtained from
/// [`crate::PropertyGraph::topology`] (built lazily and cached) or pinned
/// permanently by [`crate::PropertyGraph::seal`]. Adding a vertex or an
/// edge drops the whole view; [`crate::PropertyGraph::set_vertex_attr`]
/// patches the one code it changes and that code's counts.
#[derive(Debug, Clone, Default)]
pub struct CsrTopology {
    pub(crate) out: CsrDir,
    pub(crate) inn: CsrDir,
    pub(crate) vertex_cols: Columns,
    pub(crate) edge_cols: Columns,
    /// Process-unique identity of this build (0 for the empty default).
    pub(crate) id: u64,
}

impl CsrTopology {
    /// The process-unique identity of this build. Its dictionaries never
    /// change, so a code test derived from one of its columns holds for
    /// every topology with the same id (a clone of the graph shares it);
    /// a rebuild after a vertex or edge is added gets a fresh id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The code column of attribute `attr` over the vertices, or over the
    /// edges when `on_edges` is set; `None` when it has none.
    #[inline]
    pub fn column(&self, attr: Symbol, on_edges: bool) -> Option<&AttrColumn> {
        if on_edges {
            self.edge_cols.get(attr)
        } else {
            self.vertex_cols.get(attr)
        }
    }

    /// The runs of edge type `ty` in the out arena, or the in arena when
    /// `outgoing` is unset: the type's edge count, and how many vertices
    /// have at least one such edge leaving (entering) them.
    pub fn type_runs(&self, ty: Symbol, outgoing: bool) -> TypeRuns {
        let dir = if outgoing { &self.out } else { &self.inn };
        dir.type_runs
            .get(ty.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The edges of type `ty` in the out arena, or the in arena when
    /// `outgoing` is unset, in arena order: by source (target) vertex id,
    /// each vertex's run of the type in place. Its length is
    /// `type_runs(ty, outgoing).entries`.
    pub fn type_edges(&self, ty: Symbol, outgoing: bool) -> &[EdgeId] {
        if outgoing {
            self.out.type_edges(ty)
        } else {
            self.inn.type_edges(ty)
        }
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
