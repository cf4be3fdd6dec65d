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
//! Each scan kind has one body, its `advance_*` function, and every body
//! walks its candidates through one loop (`walk`): occupancy (injective
//! mode) and the scan's predicates accept a candidate, and each accepted
//! one ticks the budget. A scan pushes a frame on first entry and
//! resumes its cursor on re-entry. What happens to an accepted candidate
//! and at `Emit` is the loop's one mode switch:
//!
//! * `next_match` binds it and, at `Emit`, suspends the machine and
//!   yields. Resumption re-enters at the deepest frame's scan — exactly
//!   the suspension shape [`crate::stream::MatchStream`] needs.
//! * `run_to_end` binds it and hands each complete assignment to an
//!   inline callback, then backtracks; eager `find` (and its
//!   [`crate::work::WorkUnit`]s) runs this way.
//! * `count_to_end` runs the last scan in *count mode*: it counts every
//!   accepted candidate, up to the cap, binds none and never reaches
//!   `Emit`. Every other scan binds as above. Counts pay for what decides
//!   them: no binding, occupancy stamp or dispatch per match.
//!
//! The predicates are bound to the topology's code columns once per run
//! (`Bound`, built by [`crate::engine::Matcher`] per work unit and by
//! [`crate::stream::MatchStream`] per component): per scan, the lists of
//! the vertex it binds, of its edge and — for an `EdgeSeed` — of its seed
//! vertex. No candidate loop checks a topology id or looks a column up.
//!
//! An `EdgeSeed` is the first scan of a component planned to start at an
//! edge: it walks one edge type's list in the CSR
//! ([`whyq_graph::CsrTopology::type_edges`]), tests each edge's seed
//! vertex once per run of edges sharing it, then the edge and its other
//! endpoint, and binds all three. It meets its candidates in the order
//! `SeedScan` then `Expand` over the same edge would, under the same
//! rules, so the two programs enumerate the same matches in the same
//! order; only the budget ticks differ — one per accepted edge, none per
//! seed vertex. A one-edge count is then one walk over the list.
//!
//! Candidate order and filter sequence are fixed (occupancy stamps
//! before predicate checks, the self-loop and duplicate-direction skip
//! rules of undirected edges included), so programs compiled with or
//! without [`crate::optimize::PassSet::seed_select`] enumerate the same
//! matches; with identical seed sources they enumerate them in the same
//! order. The budget is ticked once per accepted candidate — in count
//! mode as when binding — and charged every [`CHECK_INTERVAL`] ticks, so
//! a governed run yields a prefix of the ungoverned one and a governed
//! count stops on the candidate a governed find stops on.
//!
//! Instruction encodings and the compilation scheme are documented in
//! `docs/plan-ir.md`.

use crate::budget::{Budget, CHECK_INTERVAL};
use crate::compile::{BoundPredicate, Compiled};
use crate::engine::Scratch;
use crate::plan_ir::{FilterTest, IrNode, PlanIr, SeedSpec};
use whyq_graph::{AdjSlice, CsrTopology, EdgeId, PropertyGraph, Symbol, VertexId};
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
/// (`u16` — `whyq-session` rejects a query with more than 65 536 vertex
/// or edge slots when it is prepared), filter operands index the
/// program's pooled filter table via [`FilterRange`].
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
    /// the `u16` operand range (65 536 slots — far beyond any real
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
    /// `prog`'s predicates bound to `topo` for this run.
    pub(crate) bound: &'a Bound<'a>,
    pub(crate) injective: bool,
    pub(crate) budget: &'a Budget,
    pub(crate) seeds: SeedSrc<'a>,
}

/// The predicates of one program's scans bound to a topology's columns
/// ([`Compiled::bind`]), once per run. Per scan instruction, three lists:
/// *near* (the seed vertex of an `EdgeSeed`), *edge* (the scanned edge)
/// and *far* (the vertex the scan binds).
#[derive(Debug, Default)]
pub(crate) struct Bound<'t> {
    preds: Vec<BoundPredicate<'t>>,
    /// Per scan instruction, where its near, edge and far lists start in
    /// `preds`, and where its far list ends.
    lists: Vec<[usize; 4]>,
}

impl<'t> Bound<'t> {
    /// Bind the predicates `prog`'s filters name, compiled in
    /// `compiled`, to `topo`'s columns, in place of the previous binding.
    pub(crate) fn bind(&mut self, compiled: &Compiled, prog: &Program, topo: &'t CsrTopology) {
        self.preds.clear();
        self.lists.clear();
        for &ins in &prog.code {
            let (near, filters) = match ins {
                Instruction::SeedScan { filters, .. }
                | Instruction::Expand { filters, .. }
                | Instruction::Close { filters, .. } => (FilterRange::default(), filters),
                Instruction::EdgeSeed { near, filters, .. } => (near, filters),
                Instruction::Emit => break,
            };
            let mut ends = [self.preds.len(); 4];
            let lists = [(near, false), (filters, true), (filters, false)];
            for (end, (range, on_edges)) in ends[1..].iter_mut().zip(lists) {
                for &test in filter_slice(prog, range) {
                    match test {
                        FilterTest::EdgeAttrs(e) if on_edges => {
                            compiled.bind(topo, true, e.0, &mut self.preds);
                        }
                        FilterTest::VertexPreds(v) if !on_edges => {
                            compiled.bind(topo, false, v.0, &mut self.preds);
                        }
                        FilterTest::EdgeAttrs(_) | FilterTest::VertexPreds(_) => {}
                    }
                }
                *end = self.preds.len();
            }
            self.lists.push(ends);
        }
    }

    /// The near, edge and far lists of scan instruction `pc`.
    #[inline(always)]
    fn scan(&self, pc: usize) -> [&[BoundPredicate<'t>]; 3] {
        let [near, edge, far, end] = self.lists[pc];
        [
            &self.preds[near..edge],
            &self.preds[edge..far],
            &self.preds[far..end],
        ]
    }
}

/// Resumable cursor of one active scan instruction.
#[derive(Debug, Clone, Copy)]
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
/// is currently committed to the register file, and the scan cursor.
#[derive(Debug, Clone, Copy)]
struct Frame {
    pc: usize,
    bound: bool,
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
        let scans = prog.code().len() - 1;
        if self.frames.len() < scans {
            self.frames.resize(
                scans,
                Frame {
                    pc: 0,
                    bound: false,
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
    /// Backtrack into the deepest active scan without popping a frame,
    /// after an emission was delivered.
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
    /// Count them: the last scan counts its accepted candidates into the
    /// tally instead of binding them ([`count_to_end`]). `Emit` is never
    /// reached.
    Count(&'a mut Tally),
}

/// A count run's tally: the matches counted so far and the cap it stops
/// at.
struct Tally {
    n: u64,
    cap: u64,
}

/// Resolve a [`FilterRange`] into its slice of the pooled filter table.
#[inline]
fn filter_slice(prog: &Program, range: FilterRange) -> &[FilterTest] {
    &prog.filters[range.start as usize..(range.start + range.len) as usize]
}

/// Do all of `preds` hold on data vertex `v`?
#[inline(always)]
fn vertex_holds(cx: &VmCtx<'_>, preds: &[BoundPredicate<'_>], v: VertexId) -> bool {
    // a plain loop: `Iterator::all` is not inlined into the walks
    for p in preds {
        if !p.holds(cx.compiled, v.0, || &cx.g.vertex(v).attrs) {
            return false;
        }
    }
    true
}

/// Do all of `preds` hold on data edge `e`?
#[inline(always)]
fn edge_holds(cx: &VmCtx<'_>, preds: &[BoundPredicate<'_>], e: EdgeId) -> bool {
    for p in preds {
        if !p.holds(cx.compiled, e.0, || &cx.g.edge(e).attrs) {
            return false;
        }
    }
    true
}

/// The one candidate walk every scan runs over candidates `range` of its
/// current run. Each candidate `accepts` passes ticks the budget — and,
/// when `seed` is set, calls the `fault-inject` build's seed hook. Without
/// a tally the walk stops at the first accepted candidate and returns its
/// index. With one (the last scan of a count run) it counts every
/// accepted candidate instead and binds none, keeping the tick counter
/// and the count in locals. `Err` says how the walk ended: the run is
/// walked ([`Adv::Exhausted`]), the count reached its cap ([`Adv::Stop`])
/// or the budget tripped ([`Adv::Tripped`]; the candidate it tripped on
/// is not counted).
#[inline(always)]
fn walk(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    range: std::ops::Range<usize>,
    seed: bool,
    tally: Option<&mut Tally>,
    mut accepts: impl FnMut(&Scratch, usize) -> bool,
) -> Result<usize, Adv> {
    let counting = tally.is_some();
    let (mut n, cap) = tally.as_deref().map_or((0, 0), |t| (t.n, t.cap));
    let mut ticks = st.ticks;
    let mut end = Err(Adv::Exhausted);
    for i in range {
        if !accepts(st, i) {
            continue;
        }
        // one tick per accepted candidate — one per DFS transition
        // (rejected candidates are plain scan work, charged via the
        // transition that consumed them)
        ticks += 1;
        if ticks.is_multiple_of(u64::from(CHECK_INTERVAL))
            && cx.budget.charge(u64::from(CHECK_INTERVAL)).is_err()
        {
            end = Err(Adv::Tripped);
            break;
        }
        if seed {
            #[cfg(feature = "fault-inject")]
            crate::fault::on_seed_bound();
        }
        if !counting {
            end = Ok(i);
            break;
        }
        n += 1;
        if n == cap {
            end = Err(Adv::Stop);
            break;
        }
    }
    st.ticks = ticks;
    if let Some(t) = tally {
        t.n = n;
    }
    end
}

// ---------------------------------------------------------------------
// candidate runs
// ---------------------------------------------------------------------

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
/// `Emit` — runs in count mode: it counts its accepted candidates and
/// binds none. Candidate order, acceptance rules and budget ticks are
/// those of [`run_to_end`], so a tripped count equals the number of
/// matches a tripped [`run_to_end`] emits. Call [`unwind`] afterwards.
pub(crate) fn count_to_end(cx: &VmCtx<'_>, st: &mut Scratch, vs: &mut VmState, cap: u64) -> u64 {
    debug_assert!(cap > 0, "a zero cap counts nothing and needs no run");
    let mut tally = Tally { n: 0, cap };
    run(cx, st, vs, Sink::Count(&mut tally));
    tally.n
}

/// The dispatch loop behind [`next_match`], [`run_to_end`] and
/// [`count_to_end`]; `sink` says what happens to complete assignments.
fn run(cx: &VmCtx<'_>, st: &mut Scratch, vs: &mut VmState, mut sink: Sink<'_>) -> bool {
    if vs.done || cx.budget.poll().is_err() {
        return false;
    }
    let code = cx.prog.code();
    vs.ensure_frames(cx.prog);
    // the scan a count run counts in: its last
    let counted = match sink {
        Sink::Count(_) => code.len() - 2,
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
    // inside its walk, and the O(1) Emit step rides on the tick of the
    // candidate that reached it — charging per dispatch as well would
    // double-count each transition.
    loop {
        let ins = code[pc];
        let adv = if ins == Instruction::Emit {
            match &mut sink {
                Sink::Yield => return true,
                Sink::Emit(e) => {
                    if e(st) {
                        Adv::Resume
                    } else {
                        Adv::Stop
                    }
                }
                Sink::Count(_) => unreachable!("a count run counts in its last scan"),
            }
        } else {
            if fresh {
                vs.frames[vs.depth] = Frame {
                    pc,
                    bound: false,
                    cur: enter(cx, st, ins),
                };
                vs.depth += 1;
            }
            let tally = match &mut sink {
                Sink::Count(t) if pc == counted => Some(&mut **t),
                _ => None,
            };
            let f = &mut vs.frames[vs.depth - 1];
            if f.bound {
                release(cx, st, ins);
            }
            let adv = match ins {
                Instruction::SeedScan { vertex, .. } => advance_seed(cx, st, f, vertex, tally),
                Instruction::Expand { edge, to, .. } => advance_expand(cx, st, f, edge, to, tally),
                Instruction::EdgeSeed { edge, from, to, .. } => {
                    advance_edge_seed(cx, st, f, [from, edge, to], tally)
                }
                Instruction::Close { edge, .. } => advance_close(cx, st, f, edge, tally),
                Instruction::Emit => unreachable!("handled above"),
            };
            f.bound = matches!(adv, Adv::Found);
            adv
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

/// The cursor of a new activation of scan `ins`.
fn enter(cx: &VmCtx<'_>, st: &Scratch, ins: Instruction) -> Cursor {
    match ins {
        Instruction::SeedScan { .. } => Cursor::Seed { pos: 0 },
        Instruction::EdgeSeed { .. } => Cursor::Edges { pos: 0, last: None },
        Instruction::Expand { edge, from, .. } => {
            let qe = cx.q.edge(QEid(edge as u32)).expect("live");
            Cursor::Expand {
                anchor: st.vslots[from as usize].expect("program binds `from` before Expand"),
                phase: 0,
                ty: 0,
                pos: 0,
                fwd: qe.directions.forward,
                bwd: qe.directions.backward,
                from_is_src: QVid(from as u32) == qe.src,
                ext: (0, 0),
                resolved: false,
            }
        }
        Instruction::Close { edge, .. } => {
            let qe = cx.q.edge(QEid(edge as u32)).expect("live");
            Cursor::Close {
                ms: st.vslots[qe.src.0 as usize].expect("bound"),
                mt: st.vslots[qe.dst.0 as usize].expect("bound"),
                phase: 0,
                ty: 0,
                pos: 0,
                fwd: qe.directions.forward,
                bwd: qe.directions.backward,
                ext: (0, 0),
                scan_out: true,
                want: VertexId(0),
                resolved: false,
            }
        }
        Instruction::Emit => unreachable!("Emit is not a scan"),
    }
}

/// Release every register the machine still holds and mark it done. Must
/// run after a component run ends — exhausted, tripped or abandoned —
/// so stale bindings never leak into a later component's
/// `Scratch::to_result`.
pub(crate) fn unwind(cx: &VmCtx<'_>, st: &mut Scratch, vs: &mut VmState) {
    while vs.depth > 0 {
        vs.depth -= 1;
        let f = vs.frames[vs.depth];
        if f.bound {
            release(cx, st, cx.prog.code()[f.pc]);
        }
    }
    vs.done = true;
}

/// Release the registers scan `ins` bound (slot `take` + occupancy
/// unstamp).
fn release(cx: &VmCtx<'_>, st: &mut Scratch, ins: Instruction) {
    match ins {
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

/// Commit vertex `dv` to slot `slot` (stamped in injective mode).
#[inline]
fn bind_vertex(cx: &VmCtx<'_>, st: &mut Scratch, slot: u16, dv: VertexId) {
    st.vslots[slot as usize] = Some(dv);
    if cx.injective {
        st.set_vertex_used(dv, true);
    }
}

/// Commit edge `de` to slot `slot` (stamped in injective mode).
#[inline]
fn bind_edge(cx: &VmCtx<'_>, st: &mut Scratch, slot: u16, de: EdgeId) {
    st.eslots[slot as usize] = Some(de);
    if cx.injective {
        st.set_edge_used(de, true);
    }
}

// ---------------------------------------------------------------------
// the scans: each walks its candidates with [`walk`], and binds the one
// it returns or, with a tally, counts them
// ---------------------------------------------------------------------

/// Advance a seed scan: candidates from the seed source that pass the
/// far list.
fn advance_seed(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    f: &mut Frame,
    vertex: u16,
    tally: Option<&mut Tally>,
) -> Adv {
    let [_, _, far] = cx.bound.scan(f.pc);
    let Cursor::Seed { pos } = &mut f.cur else {
        unreachable!("seed frame carries a seed cursor")
    };
    let walked = match cx.seeds {
        SeedSrc::Range { start, end } => {
            let at = |i: usize| VertexId(start + i as u32);
            walk(cx, st, *pos..(end - start) as usize, true, tally, |_, i| {
                vertex_holds(cx, far, at(i))
            })
            .map(|i| (i, at(i)))
        }
        SeedSrc::Slice(seeds) => walk(cx, st, *pos..seeds.len(), true, tally, |_, i| {
            vertex_holds(cx, far, seeds[i])
        })
        .map(|i| (i, seeds[i])),
        SeedSrc::Edges { .. } => unreachable!("a seed scan draws vertices"),
    };
    let (i, dv) = match walked {
        Ok(hit) => hit,
        Err(adv) => return adv,
    };
    *pos = i + 1;
    bind_vertex(cx, st, vertex, dv);
    Adv::Found
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

/// Advance an edge seed and bind the slots `[from, edge, to]`. An edge
/// `de` from seed vertex `dn` to `df` passes the near list on `dn` —
/// its verdict is kept in the cursor, since a list holds each seed
/// vertex's edges in one run — then, in injective mode, the self-loop
/// skip (the replaced seed scan bound `dn` before its expansion met
/// `df`, and nothing else is bound yet), then the edge list on `de` and
/// the far list on `df`. Kept out of line: a one-edge count is this
/// walk alone, and inside the dispatch loop it runs short of registers.
#[inline(never)]
fn advance_edge_seed(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    f: &mut Frame,
    [from, edge, to]: [u16; 3],
    tally: Option<&mut Tally>,
) -> Adv {
    let [near, on_edge, far] = cx.bound.scan(f.pc);
    let Cursor::Edges { pos, last } = &mut f.cur else {
        unreachable!("edge seed frame carries an edge cursor")
    };
    let (edges, outgoing) = cx.seeds.edges();
    let mut seen = *last;
    let walked = walk(cx, st, *pos..edges.len(), true, tally, |_, i| {
        let de = edges[i];
        let (dn, df) = edge_ends(cx.g, de, outgoing);
        let near_ok = match seen {
            Some((v, ok)) if v == dn => ok,
            _ => {
                let ok = vertex_holds(cx, near, dn);
                seen = Some((dn, ok));
                ok
            }
        };
        near_ok
            && !(cx.injective && df == dn)
            && edge_holds(cx, on_edge, de)
            && vertex_holds(cx, far, df)
    });
    *last = seen;
    let i = match walked {
        Ok(i) => i,
        Err(adv) => return adv,
    };
    *pos = i + 1;
    let de = edges[i];
    let (dn, df) = edge_ends(cx.g, de, outgoing);
    bind_vertex(cx, st, from, dn);
    bind_vertex(cx, st, to, df);
    bind_edge(cx, st, edge, de);
    Adv::Found
}

/// Advance an expansion from its anchor: the admissible runs of each
/// walked direction in turn. A candidate `(de, dv)` passes unless it is
/// a self-loop met again on the backward pass of an edge that also walks
/// forward (a self-loop at the anchor sits in both adjacency lists), or
/// occupied (injective mode), then the edge list on `de` and the far list
/// on `dv`.
fn advance_expand(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    f: &mut Frame,
    edge: u16,
    to: u16,
    mut tally: Option<&mut Tally>,
) -> Adv {
    let [_, on_edge, far] = cx.bound.scan(f.pc);
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
    let tys = cx.compiled.edge(QEid(edge as u32)).types.as_deref();
    while *phase < 2 {
        // forward pass: the anchor plays the data edge's source role iff
        // it is the query edge's source; the backward pass mirrors it
        let along_src = (*phase == 0) == from_is_src;
        if !*resolved {
            let walks = if *phase == 0 { fwd } else { bwd };
            let run = walks
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
        let (edges, others) = (list.edges, &list.others[..list.edges.len()]);
        let walked = walk(
            cx,
            st,
            *pos..edges.len(),
            false,
            tally.as_deref_mut(),
            |st, i| {
                let (de, dv) = (edges[i], others[i]);
                !(skip_self_loops && dv == anchor)
                    && !(cx.injective && (st.vertex_used(dv) || st.edge_used(de)))
                    && edge_holds(cx, on_edge, de)
                    && vertex_holds(cx, far, dv)
            },
        );
        match walked {
            Ok(i) => {
                *pos = i + 1;
                bind_vertex(cx, st, to, others[i]);
                bind_edge(cx, st, edge, edges[i]);
                return Adv::Found;
            }
            Err(Adv::Exhausted) => {
                *ty += 1;
                *resolved = false;
            }
            Err(adv) => return adv,
        }
    }
    Adv::Exhausted
}

/// Advance a close between the mapped endpoints: the admissible runs of
/// each walked direction in turn, skipping the backward pass when both
/// endpoints map to one data vertex and the forward pass already met
/// every self-loop there. A candidate edge passes when it reaches the
/// wanted endpoint, is unoccupied (injective mode) and passes the edge
/// list.
fn advance_close(
    cx: &VmCtx<'_>,
    st: &mut Scratch,
    f: &mut Frame,
    edge: u16,
    mut tally: Option<&mut Tally>,
) -> Adv {
    let [_, on_edge, _] = cx.bound.scan(f.pc);
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
    let tys = cx.compiled.edge(QEid(edge as u32)).types.as_deref();
    while *phase < 2 {
        if !*resolved {
            let ends = if *phase == 0 { (ms, mt) } else { (mt, ms) };
            let walks = if *phase == 0 {
                fwd
            } else {
                bwd && !(fwd && ms == mt)
            };
            let run = walks.then(|| close_run(cx.topo, tys, ends, *ty)).flatten();
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
        let (edges, others) = (list.edges, &list.others[..list.edges.len()]);
        let want = *want;
        let walked = walk(
            cx,
            st,
            *pos..edges.len(),
            false,
            tally.as_deref_mut(),
            |st, i| {
                let de = edges[i];
                others[i] == want
                    && !(cx.injective && st.edge_used(de))
                    && edge_holds(cx, on_edge, de)
            },
        );
        match walked {
            Ok(i) => {
                *pos = i + 1;
                bind_edge(cx, st, edge, edges[i]);
                return Adv::Found;
            }
            Err(Adv::Exhausted) => {
                *ty += 1;
                *resolved = false;
            }
            Err(adv) => return adv,
        }
    }
    Adv::Exhausted
}
