//! The parallel work model: component × seed-subrange work units.
//!
//! The matcher evaluates each weakly connected query component by seeding
//! its plan's first vertex (or first edge) and expanding. Those seed
//! candidates are *independent*: the DFS below one seed never reads state
//! bound under another, so any contiguous subrange of a component's seed
//! list is an independently executable unit of work producing
//! per-component partial bindings. A [`WorkUnit`] names such a slice — `(component, seed
//! range)` — and [`Matcher::find_unit`](crate::Matcher::find_unit) /
//! [`Matcher::count_unit`](crate::Matcher::count_unit) execute one against
//! a caller-owned scratch arena. The `whyq-session` executor shards a
//! query into units, runs them across worker sessions and merges the
//! per-component outputs with [`crate::combine::combine_components`].
//!
//! Unit execution is deterministic: seeds are drawn in slice order from a
//! [`SeedList`] resolved once per component (the same source order the
//! serial engine and the streaming DFS use), so concatenating the outputs
//! of a component's units in range order reproduces the serial result
//! order exactly. Parallelism changes *scheduling*, never the multiset.

use crate::index::AttrIndex;
use crate::plan_ir::SeedSpec;
use crate::vm::{Program, SeedSrc};
use std::ops::Range;
use std::sync::Arc;
use whyq_graph::{CsrTopology, PropertyGraph, Symbol, VertexId};

/// The seed candidate space of one component's first step.
///
/// Only a union or intersection of index buckets is built: a full vertex
/// scan is kept symbolic (`All`), an index bucket is shared with its
/// index, and an edge seed's list is read in place from the CSR, so
/// neither resolving nor sharding a seed list copies ids.
#[derive(Debug, Clone)]
pub enum SeedList {
    /// Full scan over the dense vertex arena `0..n`.
    All(usize),
    /// An explicit candidate list: an index bucket (shared with the
    /// index), or the deduplicated union or the intersection of several.
    List(Arc<[VertexId]>),
    /// The `len` edges of type `ty` in the out arena's list (`outgoing`)
    /// or the in arena's ([`CsrTopology::type_edges`]).
    Edges {
        /// The edge type.
        ty: Symbol,
        /// Whether the list is the out arena's.
        outgoing: bool,
        /// The list's length.
        len: usize,
    },
}

impl SeedList {
    /// Number of seed candidates.
    pub fn len(&self) -> usize {
        match self {
            SeedList::All(n) | SeedList::Edges { len: n, .. } => *n,
            SeedList::List(v) => v.len(),
        }
    }

    /// True when the component has no seed candidates at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clamp `range` onto the list and view it as a VM seed source;
    /// `topo` is the topology of the graph the list was resolved on.
    pub(crate) fn view<'a>(&'a self, topo: &'a CsrTopology, range: &Range<usize>) -> SeedSrc<'a> {
        let clamp = |len: usize| {
            let end = range.end.min(len);
            range.start.min(end)..end
        };
        match self {
            SeedList::All(n) => {
                let r = clamp(*n);
                SeedSrc::Range {
                    start: r.start as u32,
                    end: r.end as u32,
                }
            }
            SeedList::List(v) => SeedSrc::Slice(&v[clamp(v.len())]),
            &SeedList::Edges { ty, outgoing, .. } => {
                let edges = topo.type_edges(ty, outgoing);
                SeedSrc::Edges {
                    edges: &edges[clamp(edges.len())],
                    outgoing,
                }
            }
        }
    }
}

/// Resolve a component program's [`SeedSpec`] into its candidate list:
/// the dense arena for a full scan, the shared index bucket of a point
/// probe, the sorted and deduplicated union of a multi-value
/// disjunction's buckets (repeated values would repeat their buckets),
/// the intersection of several point probes, or an edge type's list. The
/// single definition keeps eager, streamed and sharded execution drawing
/// identical candidates in identical order.
pub(crate) fn resolve_seeds(
    g: &PropertyGraph,
    indexes: &[Arc<AttrIndex>],
    prog: &Program,
) -> SeedList {
    match prog.seed() {
        SeedSpec::FullScan => SeedList::All(g.num_vertices()),
        SeedSpec::Bucket { index, key } => SeedList::List(indexes[*index].shared(g, key)),
        SeedSpec::Union { index, keys } => {
            let mut seeds = Vec::new();
            for key in keys {
                seeds.extend_from_slice(indexes[*index].lookup(g, key));
            }
            seeds.sort_unstable();
            seeds.dedup();
            SeedList::List(seeds.into())
        }
        SeedSpec::Intersect { probes } => {
            // `probes` is non-empty and optimizer-sorted smallest bucket
            // first; buckets are built by ascending arena scan, so each
            // further one is a binary-search membership filter
            let (first_idx, first_key) = &probes[0];
            let mut seeds = indexes[*first_idx].lookup(g, first_key).to_vec();
            for (idx, key) in &probes[1..] {
                let bucket = indexes[*idx].lookup(g, key);
                seeds.retain(|v| bucket.binary_search(v).is_ok());
            }
            SeedList::List(seeds.into())
        }
        &SeedSpec::TypeEdges { ty, outgoing } => SeedList::Edges {
            ty,
            outgoing,
            len: g.topology().type_edges(ty, outgoing).len(),
        },
    }
}

/// One independently executable slice of a query: a component index (into
/// the plan list) and a subrange of that component's [`SeedList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkUnit {
    /// Index into the query's `Vec<ComponentPlan>`.
    pub component: usize,
    /// Seed positions this unit owns (`range.end <= seed_list.len()`).
    pub range: Range<usize>,
}

impl WorkUnit {
    /// A unit covering one component's whole seed list.
    pub fn whole(component: usize, seeds: &SeedList) -> Self {
        WorkUnit {
            component,
            range: 0..seeds.len(),
        }
    }
}

/// Split `0..len` into at most `chunks` contiguous, non-empty, disjoint
/// ranges covering it exactly, with sizes differing by at most one.
/// `len == 0` yields a single empty range (a unit that finds nothing),
/// `chunks == 0` is treated as 1.
pub fn split_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1);
    if len == 0 {
        // one empty unit, so a zero-seed component still reports a result
        return std::iter::once(0..0).collect();
    }
    let chunks = chunks.min(len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_exactly_without_gaps() {
        for len in [0usize, 1, 2, 7, 64, 65] {
            for chunks in [1usize, 2, 3, 8, 100] {
                let ranges = split_ranges(len, chunks);
                assert!(!ranges.is_empty());
                let mut pos = 0;
                for r in &ranges {
                    assert_eq!(r.start, pos, "len={len} chunks={chunks}");
                    assert!(r.end >= r.start);
                    pos = r.end;
                }
                assert_eq!(pos, len);
                if len > 0 {
                    assert!(ranges.len() <= chunks.max(1));
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                    let min = *sizes.iter().min().unwrap();
                    let max = *sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "balanced split");
                }
            }
        }
    }

    #[test]
    fn zero_chunks_means_one() {
        assert_eq!(split_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn seed_list_indexing() {
        let topo = CsrTopology::default();
        let all = SeedList::All(3);
        assert_eq!(all.len(), 3);
        assert!(matches!(
            all.view(&topo, &(2..9)),
            SeedSrc::Range { start: 2, end: 3 }
        ));
        let list = SeedList::List(vec![VertexId(7), VertexId(9)].into());
        assert_eq!(list.len(), 2);
        assert!(!list.is_empty());
        assert!(matches!(
            list.view(&topo, &(1..5)),
            SeedSrc::Slice([VertexId(9)])
        ));
        assert!(SeedList::List(Vec::new().into()).is_empty());
        assert_eq!(WorkUnit::whole(1, &list).range, 0..2);
    }
}
