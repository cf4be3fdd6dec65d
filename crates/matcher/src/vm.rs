//! The bytecode VM: flat programs compiled from the plan IR, executed by
//! a resumable dispatch loop over the matcher's scratch arena.
//!
//! A [`Program`] is one component's [`crate::plan_ir::ComponentIr`]
//! flattened into a `Vec<Instruction>` plus a pooled filter table; a
//! [`QueryProgram`] bundles one program per weakly connected component
//! and is the artifact the `whyq-session` plan cache stores and the
//! parallel executor ships across threads (it is `Send + Sync` and
//! immutable after compilation).
//!
//! ## Execution model
//!
//! The *register file* is the existing scratch arena
//! (`Scratch::vslots`/`eslots` plus the generation-stamped occupancy
//! arrays): instruction operands are query vertex/edge slot numbers, so
//! binding a candidate writes the slots [`crate::engine::Matcher`]'s
//! result materialization reads.
//!
//! One dispatch loop is the whole engine: a loop over a program counter
//! and an explicit frame stack, one frame per active *scan* instruction —
//! every instruction but the final `Emit` is a scan, one per plan step.
//! A scan instruction pushes a frame on first entry and advances its
//! cursor to the next acceptable candidate on re-entry: occupancy
//! (injective mode) and its inline filters accept the candidate, and the
//! scan commits it to the register file. What happens at `Emit` is the
//! loop's one mode switch:
//!
//! * `next_match` suspends the machine and yields. Resumption re-enters
//!   at the deepest frame's scan — exactly the suspension shape
//!   [`crate::stream::MatchStream`] needs.
//! * `run_to_end` hands the assignment to an inline callback and
//!   backtracks; eager `find` (and its [`crate::work::WorkUnit`]s) runs
//!   this way.
//! * `count_to_end` never reaches `Emit`. When control enters the last
//!   scan, that scan counts its accepted candidates in a tight loop
//!   (`count_leaf`) and binds none of them, then backtracks. Every other
//!   scan runs as above. Counts pay for what decides them: no binding,
//!   occupancy stamp or dispatch per match.
//!
//! The resumable scans and the leaf counter share one set of candidate
//! rules (run extents, direction passes, the self-loop skip, occupancy,
//! inline filters), so a leaf counts exactly the candidates its scan
//! would bind.
//!
//! An `EdgeSeed` is the first scan of a component planned to start at an
//! edge: it walks one edge type's list in the CSR
//! ([`whyq_graph::CsrTopology::type_edges`]), tests each edge's seed
//! vertex once per run of edges sharing it, then the edge and its other
//! endpoint, and binds all three. It meets its candidates in the order
//! `SeedScan` then `Expand` over the same edge would, under the same
//! rules, so the two programs enumerate the same matches in the same
//! order; only the budget ticks differ — one per accepted edge, none per
//! seed vertex. A one-edge count is then one tight loop over the list.
//!
//! Candidate order and filter sequence are fixed (occupancy stamps
//! before predicate checks, `EdgeData` loaded only when a filter needs
//! it, the self-loop and duplicate-direction skip rules of undirected
//! edges included), so programs compiled with or without
//! [`crate::optimize::PassSet::seed_select`] enumerate the same matches;
//! with identical seed sources they enumerate them in the same order. The
//! budget is ticked once per accepted candidate — by a leaf count as by
//! a binding scan — and charged every [`CHECK_INTERVAL`] ticks, so a
//! governed run yields a prefix of the ungoverned one and a governed
//! count stops on the candidate a governed find stops on.
//!
//! Instruction encodings and the compilation scheme are documented in
//! `docs/plan-ir.md`.

use crate::budget::{Budget, CHECK_INTERVAL};
use crate::compile::{BoundPredicate, Compiled};
use crate::engine::Scratch;
use crate::plan_ir::{FilterTest, IrNode, PlanIr, SeedSpec};
use std::ops::ControlFlow;
use whyq_graph::{AdjSlice, AttrMap, CsrTopology, EdgeId, PropertyGraph, Symbol, VertexId};
use whyq_query::{PatternQuery, QEid, QVid};

/// A range into a [`Program`]'s pooled filter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterRange {
    /// First filter index.
    pub start: u16,
    /// Number of filters.
    pub len: u16,
}

/// One VM instruction. Operands are query vertex/edge *slot numbers*
/// (`u16` — a query with more than 65 535 slots is rejected at
/// compilation), filter operands index the program's pooled filter
/// table via [`FilterRange`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Produce seed candidates from the program's [`SeedSpec`], test them
    /// against the inline `filters` and bind each accepted one.
    SeedScan {
        /// Query vertex slot being seeded.
        vertex: u16,
        /// Inline filters.
        filters: FilterRange,
    },
    /// Traverse a query edge from the bound `from` slot, producing and
    /// binding `(edge, vertex)` candidates for (`edge`, `to`). Walks only
    /// the admissible per-type CSR runs when the compiled edge has a type
    /// disjunction, the full adjacency otherwise.
    Expand {
        /// Query edge slot being traversed.
        edge: u16,
        /// Bound endpoint slot the traversal leaves.
        from: u16,
        /// Endpoint slot the traversal reaches.
        to: u16,
        /// Inline filters.
        filters: FilterRange,
    },
    /// Produce the edges of the program's [`SeedSpec::TypeEdges`] list,
    /// test each one's seed vertex against `near` (once per run of edges
    /// sharing it), the edge and its other endpoint against `filters`,
    /// and bind `from`, `edge` and `to` for each accepted one.
    EdgeSeed {
        /// Query edge slot being bound.
        edge: u16,
        /// Endpoint slot bound to the seed vertex.
        from: u16,
        /// Endpoint slot bound to the other vertex.
        to: u16,
        /// Filters of the seed vertex.
        near: FilterRange,
        /// Filters of the edge and of `to`.
        filters: FilterRange,
    },
    /// Bind a query edge whose endpoints are both bound, scanning the
    /// shorter endpoint adjacency (per-type runs for a typed edge) for
    /// edges between the mapped vertices.
    Close {
        /// Query edge slot being closed.
        edge: u16,
        /// Inline filters.
        filters: FilterRange,
    },
    /// Yield the complete assignment and suspend. Always last.
    Emit,
}

/// One component's compiled bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    code: Vec<Instruction>,
    /// Pooled filter table, referenced by [`FilterRange`] operands.
    filters: Vec<FilterTest>,
    seed: SeedSpec,
    seed_vertex: QVid,
}

impl Program {
    /// The flat instruction sequence.
    pub fn code(&self) -> &[Instruction] {
        &self.code
    }

    /// The pooled filter table.
    pub fn filters(&self) -> &[FilterTest] {
        &self.filters
    }

    /// Where the component's seed candidates come from.
    pub fn seed(&self) -> &SeedSpec {
        &self.seed
    }

    /// The component's seed query vertex.
    pub fn seed_vertex(&self) -> QVid {
        self.seed_vertex
    }

    /// A copy of this program drawing its seed candidates from a
    /// different source. The instruction stream and filter table are
    /// shared verbatim — sound because seed selection never elides
    /// filters, so any covering seed source yields identical results
    /// (possibly at different cost). This is how a sibling plan derived
    /// by [`crate::derive_sibling`] swaps in a seed spec rebuilt for the
    /// changed predicate interval.
    pub fn with_seed(&self, seed: SeedSpec) -> Program {
        Program {
            code: self.code.clone(),
            filters: self.filters.clone(),
            seed,
            seed_vertex: self.seed_vertex,
        }
    }

    /// Stable content fingerprint of this program (instructions, filter
    /// table, seed source, seed vertex). Two programs with equal
    /// fingerprints enumerate rows in the same order, so cached *row
    /// lists* may only be replayed when fingerprints match — a derived
    /// sibling program can legitimately order rows differently from a
    /// fresh compile of the same query. Counts are order-independent and
    /// do not need this check.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let repr = format!(
            "{:?}|{:?}|{:?}|{:?}",
            self.code, self.filters, self.seed, self.seed_vertex
        );
        let mut h = FNV_OFFSET;
        for b in repr.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// The compiled bytecode of a whole query: one [`Program`] per weakly
/// connected component, in plan order. Empty exactly when the query is
/// unsatisfiable or has no vertices — executing it answers "no matches"
/// without touching the graph. This is what the session plan cache
/// memoizes per query signature.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProgram {
    components: Vec<Program>,
}

impl QueryProgram {
    /// Compile verified IR into bytecode. Panics if a query slot exceeds
    /// the `u16` operand range (65 535 slots — far beyond any real
    /// pattern).
    pub fn from_ir(ir: &PlanIr) -> QueryProgram {
        QueryProgram {
            components: ir.components.iter().map(compile_component).collect(),
        }
    }

    /// Assemble a program from per-component programs, in plan order.
    /// Used by sibling-plan derivation to splice a patched component
    /// program next to components shared verbatim with the parent plan.
    pub fn from_components(components: Vec<Program>) -> QueryProgram {
        QueryProgram { components }
    }

    /// Per-component programs, in plan order.
    pub fn components(&self) -> &[Program] {
        &self.components
    }

    /// True when the query compiled to no programs (unsatisfiable or
    /// vertex-less).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

fn slot16(n: u32) -> u16 {
    n.try_into().expect("query slot exceeds u16 operand range")
}

fn compile_component(comp: &crate::plan_ir::ComponentIr) -> Program {
    let mut code = Vec::with_capacity(comp.nodes.len());
    let mut filters = Vec::new();
    let mut seed = SeedSpec::FullScan;
    let pool = |list: &[FilterTest], filters: &mut Vec<FilterTest>| -> FilterRange {
        let start = slot16(filters.len() as u32);
        filters.extend_from_slice(list);
        FilterRange {
            start,
            len: slot16(list.len() as u32),
        }
    };
    for node in &comp.nodes {
        code.push(match node {
            IrNode::SeedScan {
                vertex,
                spec,
                filters: fs,
                ..
            } => {
                seed = spec.clone();
                Instruction::SeedScan {
                    vertex: slot16(vertex.0),
                    filters: pool(fs, &mut filters),
                }
            }
            IrNode::ExpandRun {
                edge,
                from,
                to,
                filters: fs,
                ..
            } => Instruction::Expand {
                edge: slot16(edge.0),
                from: slot16(from.0),
                to: slot16(to.0),
                filters: pool(fs, &mut filters),
            },
            IrNode::EdgeSeed {
                edge,
                from,
                to,
                spec,
                near,
                filters: fs,
            } => {
                seed = spec.clone();
                Instruction::EdgeSeed {
                    edge: slot16(edge.0),
                    from: slot16(from.0),
                    to: slot16(to.0),
                    near: pool(near, &mut filters),
                    filters: pool(fs, &mut filters),
                }
            }
            IrNode::CloseRun { edge, filters: fs } => Instruction::Close {
                edge: slot16(edge.0),
                filters: pool(fs, &mut filters),
            },
            IrNode::Emit => Instruction::Emit,
        });
    }
    Program {
        code,
        filters,
        seed,
        seed_vertex: comp.seed_vertex,
    }
}

/// Where one program run draws its seed candidates from. The engine
/// resolves the program's [`SeedSpec`] (or a [`crate::work::WorkUnit`]'s
/// seed-list subrange) into one of these before starting the machine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SeedSrc<'a> {
    /// The dense vertex-id range `[start, end)`.
    Range { start: u32, end: u32 },
    /// An explicit candidate list (index bucket, materialized union or
    /// intersection, or a work unit's slice).
    Slice(&'a [VertexId]),
    /// A slice of one edge type's list, for an `EdgeSeed`: each edge's
    /// seed vertex is its source when `outgoing`, else its target.
    Edges { edges: &'a [EdgeId], outgoing: bool },
}

impl SeedSrc<'_> {
    fn get(&self, pos: usize) -> Option<VertexId> {
        match *self {
            SeedSrc::Range { start, end } => {
                let v = start.checked_add(pos as u32)?;
                (v < end).then_some(VertexId(v))
            }
            SeedSrc::Slice(seeds) => seeds.get(pos).copied(),
            SeedSrc::Edges { .. } => unreachable!("a seed scan draws vertices"),
        }
    }

    /// The edge list of an `EdgeSeed`, and whether it is the out arena's.
    fn edges(&self) -> (&[EdgeId], bool) {
        match *self {
            SeedSrc::Edges { edges, outgoing } => (edges, outgoing),
            SeedSrc::Range { .. } | SeedSrc::Slice(_) => {
                unreachable!("an edge seed draws from an edge list")
            }
        }
    }
}

/// Loop-invariant inputs of one component-program run.
pub(crate) struct VmCtx<'a> {
    pub(crate) g: &'a PropertyGraph,
    pub(crate) topo: &'a CsrTopology,
    pub(crate) q: &'a PatternQuery,
    pub(crate) compiled: &'a Compiled,
    pub(crate) prog: &'a Program,
    pub(crate) injective: bool,
    pub(crate) budget: &'a Budget,
    pub(crate) seeds: SeedSrc<'a>,
}

/// Resumable cursor of one active scan instruction.
#[derive(Debug, Clone)]
enum Cursor {
    /// Position in the seed source.
    Seed { pos: usize },
    /// Position in an edge seed's list, and the last seed vertex met
    /// with its `near` verdict.
    Edges {
        pos: usize,
        last: Option<(VertexId, bool)>,
    },
    /// Adjacency walk of an expansion: the anchor data vertex, the
    /// direction phase (0 = forward, 1 = backward), the per-type run
    /// index and the position inside the current run. The admissible
    /// directions and the anchor's role are loop invariants, looked up
    /// once at frame push; `ext`/`resolved` cache the current run's
    /// absolute CSR extent so every resume reslices in O(1) instead of
    /// re-running the offset (and typed binary-search) lookups.
    Expand {
        anchor: VertexId,
        phase: u8,
        ty: usize,
        pos: usize,
        fwd: bool,
        bwd: bool,
        from_is_src: bool,
        ext: (u32, u32),
        resolved: bool,
    },
    /// Adjacency walk of a close: the mapped endpoint pair plus the same
    /// phase/run/position cursor, cached direction flags, and the cached
    /// choice of scanned arena (`scan_out`), extent and wanted opposite
    /// endpoint of the current run.
    Close {
        ms: VertexId,
        mt: VertexId,
        phase: u8,
        ty: usize,
        pos: usize,
        fwd: bool,
        bwd: bool,
        ext: (u32, u32),
        scan_out: bool,
        want: VertexId,
        resolved: bool,
    },
}

/// One active scan: the instruction it executes, whether its candidate
/// is currently committed to the register file, the candidate itself and
/// the scan cursor.
#[derive(Debug, Clone)]
struct Frame {
    pc: usize,
    bound: bool,
    de: EdgeId,
    dv: VertexId,
    cur: Cursor,
}

/// The suspendable machine state of one component-program run: a frame
/// *file* — one preallocated slot per scan instruction, since a linear
/// program's scans activate in a fixed nesting order — plus the current
/// activation depth and started/done markers. Entering a scan overwrites
/// its slot in place; backtracking just decrements `depth`. No `Vec`
/// push/pop (or capacity check) ever runs on the transition path.
/// `Default` is the pristine not-yet-started machine; the file is sized
/// lazily on first use against the program being run.
#[derive(Debug, Clone, Default)]
pub(crate) struct VmState {
    frames: Vec<Frame>,
    depth: usize,
    started: bool,
    done: bool,
}

impl VmState {
    /// Reset to the pristine state, keeping the frame-file allocation.
    pub(crate) fn reset(&mut self) {
        self.depth = 0;
        self.started = false;
        self.done = false;
    }

    /// Size the frame file for `prog` (one slot per scan instruction).
    /// Cheap after the first call: the file only ever grows.
    fn ensure_frames(&mut self, prog: &Program) {
        let scans = prog
            .code()
            .iter()
            .filter(|i| !matches!(i, Instruction::Emit))
            .count();
        if self.frames.len() < scans {
            self.frames.resize(
                scans,
                Frame {
                    pc: 0,
                    bound: false,
                    de: EdgeId(0),
                    dv: VertexId(0),
                    cur: Cursor::Seed { pos: 0 },
                },
            );
        }
    }
}

/// Outcome of one dispatch step.
enum Adv {
    /// A candidate was accepted and bound: fall through to the next
    /// instruction.
    Found,
    /// The scan ran out of candidates: pop its frame and backtrack.
    Exhausted,
    /// Backtrack into the deepest active scan without popping a frame —
    /// after an emission was delivered, or after the last scan of a count
    /// run counted its candidates in place.
    Resume,
    /// The caller asked to stop (a declined emission, a count at its cap).
    Stop,
    /// The budget tripped mid-scan; abort the run (sticky).
    Tripped,
}

/// What the dispatch loop does with complete assignments.
enum Sink<'a> {
    /// Suspend and return each one ([`next_match`]).
    Yield,
    /// Hand each one to a callback, stopping when it declines
    /// ([`run_to_end`]).
    Emit(&'a mut dyn FnMut(&Scratch) -> bool),
    /// Count them without binding the last scan ([`count_to_end`]):
    /// `n` so far, stopping at `cap`. `Emit` is never reached.
    Count { n: &'a mut u64, cap: u64 },
}

#[inline]
fn tick(cx: &VmCtx<'_>, st: &mut Scratch) -> bool {
    st.ticks += 1;
    !(st.ticks.is_multiple_of(CHECK_INTERVAL as u64)
        && cx.budget.charge(CHECK_INTERVAL as u64).is_err())
}

/// Apply one pooled filter to a candidate `(de, dv)`.
#[inline]
fn test_filter(cx: &VmCtx<'_>, test: FilterTest, de: EdgeId, dv: VertexId) -> bool {
    match test {
        FilterTest::VertexPreds(v) => cx.compiled.vertex(v).accepts_coded(cx.g, cx.topo, dv),
        FilterTest::EdgeAttrs(e) => cx.compiled.edge(e).accepts_attrs_coded(cx.g, cx.topo, de),
    }
}

/// Resolve a [`FilterRange`] into its slice of the pooled filter table —
/// once per advance call, so the per-candidate loop tests a plain slice.
#[inline]
fn filter_slice(prog: &Program, range: FilterRange) -> &[FilterTest] {
    &prog.filters[range.start as usize..(range.start + range.len) as usize]
}

#[inline]
fn inline_filters(cx: &VmCtx<'_>, fs: &[FilterTest], de: EdgeId, dv: VertexId) -> bool {
    fs.iter().all(|&t| test_filter(cx, t, de, dv))
}

// ---------------------------------------------------------------------
// candidate rules, shared by the resumable scans and the leaf counter
// ---------------------------------------------------------------------

/// The admissible type symbols of query edge slot `edge`, `None` = any.
#[inline]
fn edge_types<'a>(cx: &VmCtx<'a>, edge: u16) -> Option<&'a [Symbol]> {
    cx.compiled.edge(QEid(edge as u32)).types.as_deref()
}

/// The absolute CSR extent of run `ty` of `v`'s out (`out`) or in
/// adjacency: the `ty`-th admissible per-type run of a typed edge, the
/// whole adjacency as run 0 of an untyped one. `None` past the last run.
#[inline]
fn run_extent(
    topo: &CsrTopology,
    tys: Option<&[Symbol]>,
    v: VertexId,
    out: bool,
    ty: usize,
) -> Option<(u32, u32)> {
    let r = match tys {
        Some(tys) => {
            let t = *tys.get(ty)?;
            if out {
                topo.out_extent_of(v, t)
            } else {
                topo.in_extent_of(v, t)
            }
        }
        None if ty == 0 => {
            if out {
                topo.out_extent(v)
            } else {
                topo.in_extent(v)
            }
        }
        None => return None,
    };
    Some((r.start, r.end))
}

/// Reslice an extent from [`run_extent`] or [`close_run`].
#[inline]
fn run_slice(topo: &CsrTopology, out: bool, ext: (u32, u32)) -> AdjSlice<'_> {
    if out {
        topo.out_slice(ext.0..ext.1)
    } else {
        topo.in_slice(ext.0..ext.1)
    }
}

/// Does an expansion walk direction `phase` (0 = forward, 1 = backward)?
#[inline]
fn expand_dir_on(phase: u8, fwd: bool, bwd: bool) -> bool {
    if phase == 0 {
        fwd
    } else {
        bwd
    }
}

/// Does an expansion accept candidate `(de, dv)` reached from `anchor`?
/// `skip_self_loops` is set on the backward pass of an edge that also
/// walks forward: a self-loop at the anchor sits in both adjacency lists,
/// and forward already tried it. Then occupancy (injective mode), then
/// the inline filters.
#[inline]
fn expand_accepts(
    cx: &VmCtx<'_>,
    st: &Scratch,
    fs: &[FilterTest],
    skip_self_loops: bool,
    anchor: VertexId,
    de: EdgeId,
    dv: VertexId,
) -> bool {
    !(skip_self_loops && dv == anchor)
        && !(cx.injective && (st.vertex_used(dv) || st.edge_used(de)))
        && inline_filters(cx, fs, de, dv)
}

/// Does a close between `ms` and `mt` walk direction `phase`? When both
/// endpoints map to one data vertex the forward pass already enumerated
/// every self-loop there.
#[inline]
fn close_dir_on(phase: u8, fwd: bool, bwd: bool, ms: VertexId, mt: VertexId) -> bool {
    if phase == 0 {
        fwd
    } else {
        bwd && !(fwd && ms == mt)
    }
}

/// Run `ty` of a close from `ends.0` to `ends.1`: whichever endpoint
/// slice is shorter (the deterministic choice keeps resumption stable) —
/// its extent, whether it is the out arena, and the opposite endpoint a
/// candidate must reach. `None` past the last run.
#[inline]
fn close_run(
    topo: &CsrTopology,
    tys: Option<&[Symbol]>,
    ends: (VertexId, VertexId),
    ty: usize,
) -> Option<((u32, u32), bool, VertexId)> {
    let r_out = run_extent(topo, tys, ends.0, true, ty)?;
    let r_in = run_extent(topo, tys, ends.1, false, ty)?;
    Some(if r_out.1 - r_out.0 <= r_in.1 - r_in.0 {
        (r_out, true, ends.1)
    } else {
        (r_in, false, ends.0)
    })
}

/// Does a close accept candidate edge `de`, whose opposite endpoint in
/// the scanned slice is `other`? Then occupancy (injective mode), then
/// the inline (edge) filters.
#[inline]
fn close_accepts(
    cx: &VmCtx<'_>,
    st: &Scratch,
    fs: &[FilterTest],
    want: VertexId,
    de: EdgeId,
    other: VertexId,
) -> bool {
    other == want && !(cx.injective && st.edge_used(de)) && inline_filters(cx, fs, de, other)
}

// ---------------------------------------------------------------------
// the dispatch loop
// ---------------------------------------------------------------------

/// Run the machine until the next complete match. Returns `true` with
/// the full assignment committed to `st`'s slot arrays (read it with
/// `Scratch::to_result`); `false` when the program is exhausted *or* the
/// budget tripped — distinguish via [`Budget::termination`]. The machine
/// suspends on emission; calling again resumes by advancing the deepest
/// scan. After the final `false` (or when abandoning a run early) call
/// [`unwind`] to release the registers.
pub(crate) fn next_match(cx: &VmCtx<'_>, st: &mut Scratch, vs: &mut VmState) -> bool {
    run(cx, st, vs, Sink::Yield)
}

/// Run the machine to completion, delivering every match through `emit`
/// inline — the eager twin of [`next_match`] for `find`, where
/// suspending (and later re-entering) the dispatch loop once per match
/// would dominate high-cardinality result sets. The machine stops when
/// the program exhausts, the budget trips, or `emit` returns `false`
/// (state is left suspended exactly as after a `next_match` emission, so
/// [`unwind`] releases the registers either way).
pub(crate) fn run_to_end(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    vs: &mut VmState,
    emit: &mut dyn FnMut(&Scratch) -> bool,
) {
    run(cx, st, vs, Sink::Emit(emit));
}

/// Count the program's matches, up to `cap` (at least 1), without
/// materializing or even binding the last one: every scan but the last
/// runs as in [`run_to_end`], and the last scan — the instruction before
/// `Emit` — counts its accepted candidates in place ([`count_leaf`]) and
/// backtracks. Candidate order, acceptance rules and budget ticks are
/// those of [`run_to_end`], so a tripped count equals the number of
/// matches a tripped [`run_to_end`] emits. Call [`unwind`] afterwards.
pub(crate) fn count_to_end(cx: &VmCtx<'_>, st: &mut Scratch, vs: &mut VmState, cap: u64) -> u64 {
    debug_assert!(cap > 0, "a zero cap counts nothing and needs no run");
    let mut n = 0;
    run(cx, st, vs, Sink::Count { n: &mut n, cap });
    n
}

/// The dispatch loop behind [`next_match`], [`run_to_end`] and
/// [`count_to_end`]; `sink` says what happens to complete assignments.
fn run(cx: &VmCtx<'_>, st: &mut Scratch, vs: &mut VmState, mut sink: Sink<'_>) -> bool {
    if vs.done || cx.budget.poll().is_err() {
        return false;
    }
    let code = cx.prog.code();
    vs.ensure_frames(cx.prog);
    // a count run never binds its last scan: entering it counts instead
    let leaf = match sink {
        Sink::Count { .. } => code.len() - 2,
        Sink::Yield | Sink::Emit(_) => usize::MAX,
    };
    // `fresh` distinguishes the two ways control reaches a scan
    // instruction: falling through from the previous instruction (a new
    // activation — initialize the scan's frame slot) versus backtracking
    // or resuming (re-advance the existing activation). Tracking it as a
    // dispatch-local flag avoids inspecting the frame file per step.
    let mut fresh;
    let mut pc: usize = if !vs.started {
        vs.started = true;
        fresh = true;
        0
    } else {
        if vs.depth == 0 {
            vs.done = true;
            return false;
        }
        fresh = false;
        vs.frames[vs.depth - 1].pc
    };
    // No budget tick here: every candidate a scan produces is ticked
    // inside its advance loop, and the O(1) Emit step rides on the tick
    // of the candidate that reached it — charging per dispatch as well
    // would double-count each transition.
    loop {
        let adv = match code[pc] {
            ins if fresh && pc == leaf => {
                let Sink::Count { n, cap } = &mut sink else {
                    unreachable!("only a count run has a leaf")
                };
                count_leaf(cx, st, ins, n, *cap)
            }
            Instruction::SeedScan { vertex, filters } => {
                if fresh {
                    let f = &mut vs.frames[vs.depth];
                    f.pc = pc;
                    f.bound = false;
                    f.cur = Cursor::Seed { pos: 0 };
                    vs.depth += 1;
                }
                advance_seed(cx, st, &mut vs.frames[vs.depth - 1], vertex, filters)
            }
            Instruction::Expand {
                edge,
                from,
                to,
                filters,
            } => {
                if fresh {
                    let anchor =
                        st.vslots[from as usize].expect("program binds `from` before Expand");
                    let qe = cx.q.edge(QEid(edge as u32)).expect("live");
                    let f = &mut vs.frames[vs.depth];
                    f.pc = pc;
                    f.bound = false;
                    f.cur = Cursor::Expand {
                        anchor,
                        phase: 0,
                        ty: 0,
                        pos: 0,
                        fwd: qe.directions.forward,
                        bwd: qe.directions.backward,
                        from_is_src: QVid(from as u32) == qe.src,
                        ext: (0, 0),
                        resolved: false,
                    };
                    vs.depth += 1;
                }
                advance_expand(cx, st, &mut vs.frames[vs.depth - 1], edge, to, filters)
            }
            Instruction::EdgeSeed {
                edge,
                from,
                to,
                near,
                filters,
            } => {
                if fresh {
                    let f = &mut vs.frames[vs.depth];
                    f.pc = pc;
                    f.bound = false;
                    f.cur = Cursor::Edges { pos: 0, last: None };
                    vs.depth += 1;
                }
                let f = &mut vs.frames[vs.depth - 1];
                advance_edge_seed(cx, st, f, [from, edge, to], near, filters)
            }
            Instruction::Close { edge, filters } => {
                if fresh {
                    let qe = cx.q.edge(QEid(edge as u32)).expect("live");
                    let ms = st.vslots[qe.src.0 as usize].expect("bound");
                    let mt = st.vslots[qe.dst.0 as usize].expect("bound");
                    let f = &mut vs.frames[vs.depth];
                    f.pc = pc;
                    f.bound = false;
                    f.cur = Cursor::Close {
                        ms,
                        mt,
                        phase: 0,
                        ty: 0,
                        pos: 0,
                        fwd: qe.directions.forward,
                        bwd: qe.directions.backward,
                        ext: (0, 0),
                        scan_out: true,
                        want: VertexId(0),
                        resolved: false,
                    };
                    vs.depth += 1;
                }
                advance_close(cx, st, &mut vs.frames[vs.depth - 1], edge, filters)
            }
            Instruction::Emit => match &mut sink {
                Sink::Yield => return true,
                Sink::Emit(e) => {
                    if e(st) {
                        Adv::Resume
                    } else {
                        Adv::Stop
                    }
                }
                Sink::Count { .. } => unreachable!("a count run counts its leaf in place"),
            },
        };
        match adv {
            Adv::Found => {
                pc += 1;
                fresh = true;
            }
            Adv::Tripped => return false,
            Adv::Stop => return true,
            Adv::Exhausted | Adv::Resume => {
                if matches!(adv, Adv::Exhausted) {
                    vs.depth -= 1;
                }
                if vs.depth == 0 {
                    vs.done = true;
                    return false;
                }
                pc = vs.frames[vs.depth - 1].pc;
                fresh = false;
            }
        }
    }
}

/// The leaf kernel of a count run: count the accepted candidates of scan
/// `ins`, binding nothing. It walks the candidates [`advance_seed`] /
/// [`advance_edge_seed`] / [`advance_expand`] / [`advance_close`] would,
/// in their order and by their rules, and ticks once per accepted
/// candidate as they do — so a trip lands on the same candidate, which
/// is not counted. Returns
/// [`Adv::Resume`] when the scan is exhausted, [`Adv::Stop`] once `n`
/// reaches `cap`, [`Adv::Tripped`] on a trip.
fn count_leaf(cx: &VmCtx<'_>, st: &mut Scratch, ins: Instruction, n: &mut u64, cap: u64) -> Adv {
    // count one accepted candidate whose tick went through
    let mut count = || {
        *n += 1;
        if *n == cap {
            ControlFlow::Break(Adv::Stop)
        } else {
            ControlFlow::Continue(())
        }
    };
    let flow = match ins {
        Instruction::SeedScan { filters, .. } => {
            let fs = filter_slice(cx.prog, filters);
            let mut seed = |dv: VertexId| {
                if !inline_filters(cx, fs, EdgeId(0), dv) {
                    return ControlFlow::Continue(());
                }
                if !tick(cx, st) {
                    return ControlFlow::Break(Adv::Tripped);
                }
                #[cfg(feature = "fault-inject")]
                crate::fault::on_seed_bound();
                count()
            };
            match cx.seeds {
                SeedSrc::Range { start, end } => (start..end).map(VertexId).try_for_each(&mut seed),
                SeedSrc::Slice(seeds) => seeds.iter().copied().try_for_each(&mut seed),
                SeedSrc::Edges { .. } => unreachable!("a seed scan draws vertices"),
            }
        }
        Instruction::Expand {
            edge,
            from,
            filters,
            ..
        } => {
            let anchor = st.vslots[from as usize].expect("program binds `from` before Expand");
            let qe = cx.q.edge(QEid(edge as u32)).expect("live");
            let (fwd, bwd) = (qe.directions.forward, qe.directions.backward);
            let from_is_src = QVid(from as u32) == qe.src;
            let (fs, tys) = (filter_slice(cx.prog, filters), edge_types(cx, edge));
            (0..2u8)
                .filter(|&phase| expand_dir_on(phase, fwd, bwd))
                .try_for_each(|phase| {
                    let along_src = (phase == 0) == from_is_src;
                    let skip_self_loops = phase == 1 && fwd;
                    let mut ty = 0;
                    while let Some(ext) = run_extent(cx.topo, tys, anchor, along_src, ty) {
                        let list = run_slice(cx.topo, along_src, ext);
                        for (&de, &dv) in list.edges.iter().zip(list.others) {
                            if expand_accepts(cx, st, fs, skip_self_loops, anchor, de, dv) {
                                if !tick(cx, st) {
                                    return ControlFlow::Break(Adv::Tripped);
                                }
                                count()?;
                            }
                        }
                        ty += 1;
                    }
                    ControlFlow::Continue(())
                })
        }
        Instruction::EdgeSeed { near, filters, .. } => {
            let (near, fs) = (filter_slice(cx.prog, near), filter_slice(cx.prog, filters));
            return count_edge_seed(cx, st, near, fs, n, cap);
        }
        Instruction::Close { edge, filters } => {
            let qe = cx.q.edge(QEid(edge as u32)).expect("live");
            let ms = st.vslots[qe.src.0 as usize].expect("bound");
            let mt = st.vslots[qe.dst.0 as usize].expect("bound");
            let (fwd, bwd) = (qe.directions.forward, qe.directions.backward);
            let (fs, tys) = (filter_slice(cx.prog, filters), edge_types(cx, edge));
            (0..2u8)
                .filter(|&phase| close_dir_on(phase, fwd, bwd, ms, mt))
                .try_for_each(|phase| {
                    let ends = if phase == 0 { (ms, mt) } else { (mt, ms) };
                    let mut ty = 0;
                    while let Some((ext, scan_out, want)) = close_run(cx.topo, tys, ends, ty) {
                        let list = run_slice(cx.topo, scan_out, ext);
                        for (&de, &other) in list.edges.iter().zip(list.others) {
                            if close_accepts(cx, st, fs, want, de, other) {
                                if !tick(cx, st) {
                                    return ControlFlow::Break(Adv::Tripped);
                                }
                                count()?;
                            }
                        }
                        ty += 1;
                    }
                    ControlFlow::Continue(())
                })
        }
        Instruction::Emit => unreachable!("a leaf is a scan"),
    };
    match flow {
        ControlFlow::Break(adv) => adv,
        ControlFlow::Continue(()) => Adv::Resume,
    }
}

/// The leaf kernel of a one-edge program: count the edges of the seed
/// list [`advance_edge_seed`] would accept, by [`edge_seed_accepts`]'
/// rules, in one loop. The loop tests the filters' predicates bound to
/// their columns once ([`BoundPredicate`]) and keeps the count and the
/// tick counter in registers; ticks, charges and the return value are
/// [`count_leaf`]'s.
#[inline(never)]
fn count_edge_seed(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    near: &[FilterTest],
    fs: &[FilterTest],
    n: &mut u64,
    cap: u64,
) -> Adv {
    let g = cx.g;
    // the seed vertex's predicates, the edge's, then the other endpoint's
    let preds = |tests: &[FilterTest], on_edges: bool| {
        let mut bound = Vec::new();
        for &t in tests {
            match t {
                FilterTest::VertexPreds(v) if !on_edges => {
                    bound.extend(cx.compiled.vertex(v).preds.iter().map(|p| p.bind(cx.topo)));
                }
                FilterTest::EdgeAttrs(e) if on_edges => {
                    bound.extend(cx.compiled.edge(e).preds.iter().map(|p| p.bind(cx.topo)));
                }
                FilterTest::VertexPreds(_) | FilterTest::EdgeAttrs(_) => {}
            }
        }
        bound
    };
    let (near, on_edge, far) = (preds(near, false), preds(fs, true), preds(fs, false));
    let (edges, outgoing) = cx.seeds.edges();
    let (mut ticks, mut counted) = (st.ticks, *n);
    let (mut last, mut near_ok) = (None, false);
    let mut adv = Adv::Resume;
    for &de in edges {
        let (dn, df) = edge_ends(g, de, outgoing);
        if last != Some(dn) {
            last = Some(dn);
            near_ok = all_hold(&near, dn.0, || &g.vertex(dn).attrs);
        }
        if !near_ok
            || (cx.injective && df == dn)
            || !all_hold(&on_edge, de.0, || &g.edge(de).attrs)
            || !all_hold(&far, df.0, || &g.vertex(df).attrs)
        {
            continue;
        }
        ticks += 1;
        if ticks.is_multiple_of(u64::from(CHECK_INTERVAL))
            && cx.budget.charge(u64::from(CHECK_INTERVAL)).is_err()
        {
            adv = Adv::Tripped;
            break;
        }
        #[cfg(feature = "fault-inject")]
        crate::fault::on_seed_bound();
        counted += 1;
        if counted == cap {
            adv = Adv::Stop;
            break;
        }
    }
    (st.ticks, *n) = (ticks, counted);
    adv
}

/// Do all of `preds` hold on element `i`, whose attribute map `attrs`
/// yields?
#[inline(always)]
fn all_hold<'m>(
    preds: &[BoundPredicate<'_>],
    i: u32,
    attrs: impl Fn() -> &'m AttrMap + Copy,
) -> bool {
    for p in preds {
        if !p.holds(i, attrs) {
            return false;
        }
    }
    true
}

/// Release every register the machine still holds and mark it done. Must
/// run after a component run ends — exhausted, tripped or abandoned —
/// so stale bindings never leak into a later component's
/// `Scratch::to_result`.
pub(crate) fn unwind(cx: &VmCtx<'_>, st: &mut Scratch, vs: &mut VmState) {
    while vs.depth > 0 {
        vs.depth -= 1;
        let f = vs.frames[vs.depth].clone();
        if f.bound {
            unbind(cx, st, &f);
        }
    }
    vs.done = true;
}

/// Release one frame's registers (slot `take` + occupancy unstamp).
fn unbind(cx: &VmCtx<'_>, st: &mut Scratch, f: &Frame) {
    match cx.prog.code()[f.pc] {
        Instruction::SeedScan { vertex, .. } => release_vertex(cx, st, vertex),
        Instruction::Expand { edge, to, .. } => {
            release_edge(cx, st, edge);
            release_vertex(cx, st, to);
        }
        Instruction::EdgeSeed { edge, from, to, .. } => {
            release_edge(cx, st, edge);
            release_vertex(cx, st, to);
            release_vertex(cx, st, from);
        }
        Instruction::Close { edge, .. } => release_edge(cx, st, edge),
        Instruction::Emit => unreachable!("frames belong to scan instructions"),
    }
}

/// Empty vertex slot `slot`, unstamping its data vertex (injective mode).
#[inline]
fn release_vertex(cx: &VmCtx<'_>, st: &mut Scratch, slot: u16) {
    if let Some(dv) = st.vslots[slot as usize].take() {
        if cx.injective {
            st.set_vertex_used(dv, false);
        }
    }
}

/// Empty edge slot `slot`, unstamping its data edge (injective mode).
#[inline]
fn release_edge(cx: &VmCtx<'_>, st: &mut Scratch, slot: u16) {
    if let Some(de) = st.eslots[slot as usize].take() {
        if cx.injective {
            st.set_edge_used(de, false);
        }
    }
}

fn advance_seed(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    f: &mut Frame,
    vertex: u16,
    filters: FilterRange,
) -> Adv {
    if f.bound {
        release_vertex(cx, st, vertex);
        f.bound = false;
    }
    let Cursor::Seed { pos } = &mut f.cur else {
        unreachable!("seed frame carries a seed cursor")
    };
    let fs = filter_slice(cx.prog, filters);
    loop {
        let Some(dv) = cx.seeds.get(*pos) else {
            return Adv::Exhausted;
        };
        *pos += 1;
        if !inline_filters(cx, fs, EdgeId(0), dv) {
            continue;
        }
        // one budget tick per accepted candidate — one per DFS
        // transition (rejected candidates are plain scan work, charged
        // via the transition that consumed them)
        if !tick(cx, st) {
            return Adv::Tripped;
        }
        f.dv = dv;
        #[cfg(feature = "fault-inject")]
        crate::fault::on_seed_bound();
        st.vslots[vertex as usize] = Some(dv);
        if cx.injective {
            st.set_vertex_used(dv, true);
        }
        f.bound = true;
        return Adv::Found;
    }
}

/// The seed vertex and the other endpoint of edge `de` of an edge seed's
/// list: its source and target in the out arena's list, its target and
/// source in the in arena's.
#[inline]
fn edge_ends(g: &PropertyGraph, de: EdgeId, outgoing: bool) -> (VertexId, VertexId) {
    let ed = g.edge(de);
    if outgoing {
        (ed.src, ed.dst)
    } else {
        (ed.dst, ed.src)
    }
}

/// Does an edge seed accept edge `de` from seed vertex `dn` to `df`? The
/// seed vertex's `near` filters first — their verdict is kept in `last`,
/// since a list holds each seed vertex's edges in one run — then, in
/// injective mode, the self-loop skip (the replaced seed scan bound `dn`
/// before its expansion met `df`, and nothing else is bound yet), then
/// the `filters` of the edge and of `df`.
#[inline]
fn edge_seed_accepts(
    cx: &VmCtx<'_>,
    near: &[FilterTest],
    fs: &[FilterTest],
    last: &mut Option<(VertexId, bool)>,
    de: EdgeId,
    dn: VertexId,
    df: VertexId,
) -> bool {
    let near_ok = match *last {
        Some((v, ok)) if v == dn => ok,
        _ => {
            let ok = inline_filters(cx, near, EdgeId(0), dn);
            *last = Some((dn, ok));
            ok
        }
    };
    near_ok && !(cx.injective && df == dn) && inline_filters(cx, fs, de, df)
}

/// Advance an edge seed to its next accepted edge and bind the slots
/// `[from, edge, to]`.
fn advance_edge_seed(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    f: &mut Frame,
    [from, edge, to]: [u16; 3],
    near: FilterRange,
    filters: FilterRange,
) -> Adv {
    if f.bound {
        release_edge(cx, st, edge);
        release_vertex(cx, st, to);
        release_vertex(cx, st, from);
        f.bound = false;
    }
    let Cursor::Edges { pos, last } = &mut f.cur else {
        unreachable!("edge seed frame carries an edge cursor")
    };
    let (near, fs) = (filter_slice(cx.prog, near), filter_slice(cx.prog, filters));
    let (edges, outgoing) = cx.seeds.edges();
    while let Some(&de) = edges.get(*pos) {
        *pos += 1;
        let (dn, df) = edge_ends(cx.g, de, outgoing);
        if !edge_seed_accepts(cx, near, fs, last, de, dn, df) {
            continue;
        }
        // one tick per accepted edge: the seed vertex is not a
        // transition of its own
        if !tick(cx, st) {
            return Adv::Tripped;
        }
        #[cfg(feature = "fault-inject")]
        crate::fault::on_seed_bound();
        f.de = de;
        f.dv = df;
        st.vslots[from as usize] = Some(dn);
        st.vslots[to as usize] = Some(df);
        st.eslots[edge as usize] = Some(de);
        if cx.injective {
            st.set_vertex_used(dn, true);
            st.set_vertex_used(df, true);
            st.set_edge_used(de, true);
        }
        f.bound = true;
        return Adv::Found;
    }
    Adv::Exhausted
}

fn advance_expand(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    f: &mut Frame,
    edge: u16,
    to: u16,
    filters: FilterRange,
) -> Adv {
    if f.bound {
        release_edge(cx, st, edge);
        release_vertex(cx, st, to);
        f.bound = false;
    }
    let Cursor::Expand {
        anchor,
        phase,
        ty,
        pos,
        fwd,
        bwd,
        from_is_src,
        ext,
        resolved,
    } = &mut f.cur
    else {
        unreachable!("expand frame carries an expand cursor")
    };
    let (anchor, fwd, bwd, from_is_src) = (*anchor, *fwd, *bwd, *from_is_src);
    let (fs, tys) = (filter_slice(cx.prog, filters), edge_types(cx, edge));
    while *phase < 2 {
        // forward pass: the anchor plays the data edge's source role iff
        // it is the query edge's source; the backward pass mirrors it
        let along_src = (*phase == 0) == from_is_src;
        if !*resolved {
            let run = expand_dir_on(*phase, fwd, bwd)
                .then(|| run_extent(cx.topo, tys, anchor, along_src, *ty))
                .flatten();
            let Some(run) = run else {
                *phase += 1;
                *ty = 0;
                continue;
            };
            *ext = run;
            *resolved = true;
            *pos = 0;
        }
        let skip_self_loops = *phase == 1 && fwd;
        let list = run_slice(cx.topo, along_src, *ext);
        let mut p = *pos;
        for (&de, &dv) in list.edges[p..].iter().zip(&list.others[p..]) {
            p += 1;
            if !expand_accepts(cx, st, fs, skip_self_loops, anchor, de, dv) {
                continue;
            }
            *pos = p;
            if !tick(cx, st) {
                return Adv::Tripped;
            }
            f.de = de;
            f.dv = dv;
            st.vslots[to as usize] = Some(dv);
            st.eslots[edge as usize] = Some(de);
            if cx.injective {
                st.set_vertex_used(dv, true);
                st.set_edge_used(de, true);
            }
            f.bound = true;
            return Adv::Found;
        }
        *ty += 1;
        *resolved = false;
    }
    Adv::Exhausted
}

fn advance_close(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    f: &mut Frame,
    edge: u16,
    filters: FilterRange,
) -> Adv {
    if f.bound {
        release_edge(cx, st, edge);
        f.bound = false;
    }
    let Cursor::Close {
        ms,
        mt,
        phase,
        ty,
        pos,
        fwd,
        bwd,
        ext,
        scan_out,
        want,
        resolved,
    } = &mut f.cur
    else {
        unreachable!("close frame carries a close cursor")
    };
    let (ms, mt, fwd, bwd) = (*ms, *mt, *fwd, *bwd);
    let (fs, tys) = (filter_slice(cx.prog, filters), edge_types(cx, edge));
    while *phase < 2 {
        if !*resolved {
            let ends = if *phase == 0 { (ms, mt) } else { (mt, ms) };
            let run = close_dir_on(*phase, fwd, bwd, ms, mt)
                .then(|| close_run(cx.topo, tys, ends, *ty))
                .flatten();
            let Some(run) = run else {
                *phase += 1;
                *ty = 0;
                continue;
            };
            (*ext, *scan_out, *want) = run;
            *resolved = true;
            *pos = 0;
        }
        let list = run_slice(cx.topo, *scan_out, *ext);
        let want = *want;
        let mut p = *pos;
        for (&de, &other) in list.edges[p..].iter().zip(&list.others[p..]) {
            p += 1;
            if !close_accepts(cx, st, fs, want, de, other) {
                continue;
            }
            *pos = p;
            if !tick(cx, st) {
                return Adv::Tripped;
            }
            f.de = de;
            st.eslots[edge as usize] = Some(de);
            if cx.injective {
                st.set_edge_used(de, true);
            }
            f.bound = true;
            return Adv::Found;
        }
        *ty += 1;
        *resolved = false;
    }
    Adv::Exhausted
}
