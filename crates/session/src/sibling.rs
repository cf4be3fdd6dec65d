//! The sibling result cache: delta-driven reuse of per-component results
//! across relax-loop siblings.
//!
//! The relax loop (§6.3.1) and the MCS probes evaluate hundreds of
//! near-identical queries. The plan cache already removes the *compile*
//! share; this store removes the *execution* share that survives it:
//! every evaluated query's per-component outputs (counts, and — when
//! worth it — materialized rows) are memoized under the component's
//! canonical [`whyq_query::component_signature`]. A sibling derived by
//! removing an edge or vertex splits into components, most of which are
//! byte-identical to a component some earlier sibling already executed —
//! those units replay from here, and only the component the modification
//! touched re-runs. The merged answer goes through the same cartesian
//! combiner as a full execution, so the replayed result is exactly the
//! full-execution result (property-tested in `tests/sibling.rs`).
//!
//! ## Recency and clearing
//!
//! The store is an LRU, like the plan cache: a replay refreshes its
//! entry, but a lookup that cannot answer (a count that reached a lower
//! cap) is no use. The graph never changes under a database, so nothing
//! goes stale; `SiblingCache::clear` (benchmarks and tests) empties the
//! store and counts each dropped entry in [`SiblingStats::invalidations`].
//!
//! ## What is — and is not — cached
//!
//! Only results computed to completion are inserted: a unit whose
//! [`whyq_matcher::Budget`] tripped mid-run produced a *partial* count or
//! row prefix, and caching it would replay a truncated answer as if it
//! were exact. Callers enforce this by checking the budget's termination
//! after computing each component (the session's single component loop).
//! Replays themselves consume no budget — a governed run that reuses
//! cached units can therefore legitimately return *more* than an
//! identically-budgeted cold run; the governed contract (the value is a
//! lower bound of the exact answer unless tagged `Complete`) is
//! unaffected.

use crate::lru::Lru;
use std::sync::Arc;
use whyq_matcher::ResultGraph;

/// Cache key for one component's memoized result. Everything that can
/// change the per-component output is part of the key: the component's
/// canonical signature (raw element ids — stable across relax siblings),
/// the injectivity mode, and for rows the per-component result cap and the
/// executing program's fingerprint (derived sibling programs may enumerate
/// rows in a different order than a fresh compile). A count keeps its cap
/// in its entry instead ([`SiblingCache::lookup`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CompKey {
    pub(crate) sig: Arc<str>,
    pub(crate) injective: bool,
    /// `None` for count entries; `Some((cap, program fingerprint))` for
    /// rows.
    pub(crate) rows: Option<(Option<usize>, u64)>,
}

/// One component's memoized result.
#[derive(Debug, Clone)]
pub(crate) enum CompValue {
    /// A count and the cap it was taken under (`None` = uncapped).
    Count(u64, Option<usize>),
    Rows(Arc<Vec<ResultGraph>>),
}

/// Point-in-time counters of the sibling cache (see
/// [`crate::Database::sibling_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiblingStats {
    /// Component results replayed from the cache instead of re-executed.
    pub hits: u64,
    /// Component units that had to (re-)execute while the rest of their
    /// query replayed — the units a sibling's delta invalidated — plus
    /// the entries a clear dropped.
    pub invalidations: u64,
    /// Complete component results inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Plans derived from a parent plan instead of compiled
    /// (single-interval siblings; see `whyq_matcher::derive_sibling`).
    /// Counted by the database beside its compiles.
    pub derived_plans: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Configured capacity (0 = the sibling layer is disabled).
    pub capacity: usize,
}

/// Bounded LRU store of per-component results. Owned by the `Database`
/// behind one mutex; every method is O(1) amortized.
#[derive(Debug)]
pub(crate) struct SiblingCache {
    hits: u64,
    invalidations: u64,
    insertions: u64,
    evictions: u64,
    entries: Lru<CompKey, CompValue>,
}

impl SiblingCache {
    pub(crate) fn new(capacity: usize) -> Self {
        SiblingCache {
            hits: 0,
            invalidations: 0,
            insertions: 0,
            evictions: 0,
            entries: Lru::new(capacity),
        }
    }

    /// Replay a memoized component result for a run capped at `limit`, if
    /// present and deciding. A count decides a cap k when it is exact —
    /// below its own cap, or uncapped — and answers `min(n, k)`; a count
    /// that reached its cap decides only caps k ≤ that cap. An entry that
    /// does not decide stays where it is in the recency order. A
    /// capacity-0 store holds nothing, so it never hits.
    pub(crate) fn lookup(&mut self, key: &CompKey, limit: Option<usize>) -> Option<CompValue> {
        let value = self.entries.get(key, |value| match *value {
            CompValue::Count(n, cap) => {
                let exact = cap.is_none_or(|c| n < c as u64);
                if !exact && limit.zip(cap).is_none_or(|(k, c)| k > c) {
                    return None;
                }
                Some(CompValue::Count(
                    limit.map_or(n, |k| n.min(k as u64)),
                    limit,
                ))
            }
            ref rows => Some(rows.clone()),
        })?;
        self.hits += 1;
        Some(value)
    }

    /// Memoize a *complete* component result — callers must never insert
    /// a value computed under a tripped budget. It replaces an entry under
    /// the same key, which a run only re-computes when that entry could
    /// not answer it. A capacity-0 store never inserts.
    pub(crate) fn insert(&mut self, key: CompKey, value: CompValue) {
        if self.entries.capacity() == 0 {
            return;
        }
        self.insertions += 1;
        self.evictions += u64::from(self.entries.insert(key, value).is_some());
    }

    /// Count the cross-component bookkeeping of one incremental query:
    /// units that re-executed while at least one sibling unit replayed
    /// are exactly the units the query's delta invalidated.
    pub(crate) fn finish_query(&mut self, replayed: u64, recomputed: u64) {
        if replayed > 0 {
            self.invalidations += recomputed;
        }
    }

    /// Drop every memoized result, counting each as an invalidation.
    pub(crate) fn clear(&mut self) {
        self.invalidations += self.entries.clear() as u64;
    }

    /// Current counters. Derived plans are the database's to count.
    pub(crate) fn stats(&self) -> SiblingStats {
        SiblingStats {
            hits: self.hits,
            invalidations: self.invalidations,
            insertions: self.insertions,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.entries.capacity(),
            ..SiblingStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_key(sig: &str, injective: bool) -> CompKey {
        CompKey {
            sig: sig.into(),
            injective,
            rows: None,
        }
    }

    fn rows_key(sig: &str, fingerprint: u64) -> CompKey {
        CompKey {
            rows: Some((None, fingerprint)),
            ..count_key(sig, true)
        }
    }

    fn lookup_capped(c: &mut SiblingCache, sig: &str, limit: Option<usize>) -> Option<u64> {
        match c.lookup(&count_key(sig, true), limit)? {
            CompValue::Count(n, _) => Some(n),
            CompValue::Rows(_) => panic!("count key holds rows"),
        }
    }

    fn lookup_count(c: &mut SiblingCache, sig: &str) -> Option<u64> {
        lookup_capped(c, sig, None)
    }

    fn insert_capped(c: &mut SiblingCache, sig: &str, n: u64, cap: Option<usize>) {
        c.insert(count_key(sig, true), CompValue::Count(n, cap));
    }

    fn insert_count(c: &mut SiblingCache, sig: &str, n: u64) {
        insert_capped(c, sig, n, None);
    }

    #[test]
    fn count_entries_round_trip_and_track_counters() {
        let mut c = SiblingCache::new(4);
        assert_eq!(lookup_count(&mut c, "a"), None);
        insert_count(&mut c, "a", 7);
        assert_eq!(lookup_count(&mut c, "a"), Some(7));
        // the injectivity mode is part of the key
        assert!(c.lookup(&count_key("a", false), None).is_none());
        // an exact count answers every cap
        assert_eq!(lookup_capped(&mut c, "a", Some(3)), Some(3));
        let s = c.stats();
        assert_eq!((s.hits, s.insertions), (2, 1));
    }

    #[test]
    fn an_exact_capped_count_answers_every_cap() {
        let mut c = SiblingCache::new(4);
        // counted to 4 under cap 10: the count is exact
        insert_capped(&mut c, "a", 4, Some(10));
        assert_eq!(lookup_capped(&mut c, "a", Some(2)), Some(2));
        assert_eq!(lookup_capped(&mut c, "a", Some(10)), Some(4));
        assert_eq!(lookup_capped(&mut c, "a", Some(1_000_000)), Some(4));
        assert_eq!(lookup_capped(&mut c, "a", None), Some(4));
        assert_eq!(c.stats().hits, 4);
    }

    #[test]
    fn an_uncapped_count_answers_every_cap() {
        let mut c = SiblingCache::new(4);
        insert_count(&mut c, "a", 7);
        assert_eq!(lookup_capped(&mut c, "a", Some(0)), Some(0));
        assert_eq!(lookup_capped(&mut c, "a", Some(7)), Some(7));
        assert_eq!(lookup_capped(&mut c, "a", Some(8)), Some(7));
    }

    #[test]
    fn a_count_that_reached_its_cap_answers_only_lower_caps() {
        let mut c = SiblingCache::new(4);
        // counted to its cap 5: the true count is at least 5
        insert_capped(&mut c, "a", 5, Some(5));
        assert_eq!(lookup_capped(&mut c, "a", Some(3)), Some(3));
        assert_eq!(lookup_capped(&mut c, "a", Some(5)), Some(5));
        assert_eq!(lookup_capped(&mut c, "a", Some(6)), None);
        assert_eq!(lookup_capped(&mut c, "a", None), None);
        let s = c.stats();
        assert_eq!((s.hits, s.invalidations), (2, 0));
        // the re-count that a higher cap forces replaces the entry
        insert_capped(&mut c, "a", 9, Some(100));
        assert_eq!(lookup_capped(&mut c, "a", None), Some(9));
        assert_eq!(c.stats().len, 1);
    }

    #[test]
    fn rows_require_matching_fingerprint() {
        let mut c = SiblingCache::new(4);
        c.insert(rows_key("a", 42), CompValue::Rows(Arc::new(Vec::new())));
        assert!(matches!(
            c.lookup(&rows_key("a", 42), None),
            Some(CompValue::Rows(_))
        ));
        assert!(c.lookup(&rows_key("a", 43), None).is_none());
        // count lookups never alias row entries
        assert_eq!(lookup_count(&mut c, "a"), None);
    }

    #[test]
    fn clear_empties_the_store_and_counts_invalidations() {
        let mut c = SiblingCache::new(4);
        insert_count(&mut c, "a", 7);
        insert_count(&mut c, "b", 8);
        c.clear();
        let s = c.stats();
        assert_eq!((s.len, s.invalidations), (0, 2));
        assert_eq!(lookup_count(&mut c, "a"), None);
        assert_eq!(c.stats().invalidations, 2, "a miss is not an invalidation");
        // the store fills again after a clear
        insert_count(&mut c, "a", 7);
        assert_eq!(lookup_count(&mut c, "a"), Some(7));
    }

    #[test]
    fn capacity_bound_evicts_lru_and_zero_never_hits_or_inserts() {
        let mut c = SiblingCache::new(2);
        insert_count(&mut c, "a", 1);
        insert_count(&mut c, "b", 2);
        assert_eq!(lookup_count(&mut c, "a"), Some(1)); // refresh a
        insert_count(&mut c, "c", 3);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(lookup_count(&mut c, "b"), None, "LRU victim");
        assert_eq!(lookup_count(&mut c, "a"), Some(1));

        let mut off = SiblingCache::new(0);
        insert_count(&mut off, "a", 1);
        assert_eq!(lookup_count(&mut off, "a"), None);
        let s = off.stats();
        assert_eq!((s.len, s.hits, s.insertions), (0, 0, 0));
    }

    #[test]
    fn a_lookup_that_cannot_answer_refreshes_nothing() {
        let mut c = SiblingCache::new(2);
        // counted to its cap 5, then b: a is the older entry
        insert_capped(&mut c, "a", 5, Some(5));
        insert_count(&mut c, "b", 2);
        assert_eq!(lookup_capped(&mut c, "a", Some(6)), None);
        insert_count(&mut c, "c", 3);
        assert_eq!(lookup_count(&mut c, "b"), Some(2), "b survives");
        assert_eq!(
            lookup_capped(&mut c, "a", Some(1)),
            None,
            "a was the victim"
        );
    }

    #[test]
    fn partial_reuse_counts_invalidations() {
        let mut c = SiblingCache::new(8);
        c.finish_query(0, 3); // cold query: misses are not invalidations
        assert_eq!(c.stats().invalidations, 0);
        c.finish_query(2, 1); // one unit re-ran while two replayed
        assert_eq!(c.stats().invalidations, 1);
    }
}
