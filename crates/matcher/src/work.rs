//! The parallel work model: component × seed-subrange work units.
//!
//! The matcher evaluates each weakly connected query component by seeding
//! its plan's first vertex and expanding. Those seed candidates are
//! *independent*: the DFS below one seed never reads state bound under
//! another, so any contiguous subrange of a component's seed list is an
//! independently executable unit of work producing per-component partial
//! bindings. A [`WorkUnit`] names such a slice — `(component, seed
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
use whyq_graph::{PropertyGraph, VertexId};

/// The materialized seed candidate space of one component's `Seed` step.
///
/// A full vertex scan is kept symbolic (`All`) so sharding a large arena
/// never copies vertex ids; index-backed seed sources (`Bucket`/`Union`)
/// own their candidate list in engine order.
#[derive(Debug, Clone)]
pub enum SeedList {
    /// Full scan over the dense vertex arena `0..n`.
    All(usize),
    /// An explicit candidate list (an index bucket copy, or the
    /// deduplicated union of a multi-value disjunction's buckets).
    List(Vec<VertexId>),
}

impl SeedList {
    /// Number of seed candidates.
    pub fn len(&self) -> usize {
        match self {
            SeedList::All(n) => *n,
            SeedList::List(v) => v.len(),
        }
    }

    /// True when the component has no seed candidates at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidate at position `i` (must be `< len`).
    #[inline]
    pub fn get(&self, i: usize) -> VertexId {
        match self {
            SeedList::All(_) => VertexId(i as u32),
            SeedList::List(v) => v[i],
        }
    }

    /// Clamp `range` onto the list and view it as a VM seed source.
    pub(crate) fn view(&self, range: &Range<usize>) -> SeedSrc<'_> {
        match self {
            SeedList::All(n) => SeedSrc::Range {
                start: range.start.min(*n) as u32,
                end: range.end.min(*n) as u32,
            },
            SeedList::List(v) => {
                let end = range.end.min(v.len());
                let start = range.start.min(end);
                SeedSrc::Slice(&v[start..end])
            }
        }
    }
}

/// Resolve a component program's [`SeedSpec`] into its candidate list:
/// the dense arena for a full scan, a copy of the index bucket of a point
/// probe, the sorted and deduplicated union of a multi-value
/// disjunction's buckets (repeated values would repeat their buckets), or
/// the intersection of several point probes. The single definition keeps
/// eager, streamed and sharded execution drawing identical candidates in
/// identical order.
pub(crate) fn resolve_seeds(
    g: &PropertyGraph,
    indexes: &[Arc<AttrIndex>],
    prog: &Program,
) -> SeedList {
    match prog.seed() {
        SeedSpec::FullScan => SeedList::All(g.num_vertices()),
        SeedSpec::Bucket { index, key } => SeedList::List(indexes[*index].lookup(g, key).to_vec()),
        SeedSpec::Union { index, keys } => {
            let mut seeds = Vec::new();
            for key in keys {
                seeds.extend_from_slice(indexes[*index].lookup(g, key));
            }
            seeds.sort_unstable();
            seeds.dedup();
            SeedList::List(seeds)
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
            SeedList::List(seeds)
        }
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
        let all = SeedList::All(3);
        assert_eq!(all.len(), 3);
        assert_eq!(all.get(2), VertexId(2));
        let list = SeedList::List(vec![VertexId(7), VertexId(9)]);
        assert_eq!(list.len(), 2);
        assert!(!list.is_empty());
        assert_eq!(list.get(1), VertexId(9));
        assert!(SeedList::List(Vec::new()).is_empty());
        assert_eq!(WorkUnit::whole(1, &list).range, 0..2);
    }
}
