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
//! ## Generation stamping
//!
//! In the style of Bevy ECS's tick-stamped change detection, every entry
//! is stamped with the store's `generation` at insert. `SiblingCache::clear`
//! bumps the generation in O(1) instead of walking the map: a later
//! lookup that finds an entry from an older generation treats it as
//! *invalidated* — it is dropped, counted in
//! [`SiblingStats::invalidations`], and recomputed. The graph itself is
//! immutable for the database's lifetime, so generations only move when a
//! caller explicitly clears (benchmarks, tests, future mutation support).
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

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use whyq_matcher::ResultGraph;
use whyq_query::PatternQuery;

/// Bound on how many recently-prepared queries are remembered as
/// potential derivation parents (see `SiblingCache::register`).
const REGISTRY_CAPACITY: usize = 128;

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

#[derive(Debug)]
struct Entry {
    value: CompValue,
    /// Generation stamp at insert; a lookup from a later generation
    /// invalidates the entry.
    generation: u64,
    /// Logical timestamp of the last hit or insertion (LRU victim pick).
    last_used: u64,
}

/// A recently prepared satisfiable query, remembered as a candidate
/// parent for sibling-plan derivation.
#[derive(Debug, Clone)]
struct RegEntry {
    shape: u64,
    sig: String,
    query: Arc<PatternQuery>,
}

/// Point-in-time counters of the sibling cache (see
/// [`crate::Database::sibling_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiblingStats {
    /// Component results replayed from the cache instead of re-executed.
    pub hits: u64,
    /// Component units that had to (re-)execute while the rest of their
    /// query replayed — the units a sibling's delta invalidated — plus
    /// entries dropped by a generation bump.
    pub invalidations: u64,
    /// Complete component results inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Plans derived from a parent plan instead of compiled
    /// (single-interval siblings; see `whyq_matcher::derive_sibling`).
    pub derived_plans: u64,
    /// Entries currently resident (stale generations included until
    /// they are lazily dropped).
    pub len: usize,
    /// Configured capacity (0 = the sibling layer is disabled).
    pub capacity: usize,
}

/// Bounded, generation-stamped store of per-component results plus the
/// recent-query registry that seeds sibling-plan derivation. Owned by the
/// `Database` behind one mutex; all methods are O(1) amortized except
/// eviction's LRU scan.
#[derive(Debug)]
pub(crate) struct SiblingCache {
    capacity: usize,
    generation: u64,
    tick: u64,
    hits: u64,
    invalidations: u64,
    insertions: u64,
    evictions: u64,
    derived_plans: u64,
    entries: HashMap<CompKey, Entry>,
    registry: VecDeque<RegEntry>,
}

impl SiblingCache {
    pub(crate) fn new(capacity: usize) -> Self {
        SiblingCache {
            capacity,
            generation: 0,
            tick: 0,
            hits: 0,
            invalidations: 0,
            insertions: 0,
            evictions: 0,
            derived_plans: 0,
            entries: HashMap::new(),
            registry: VecDeque::new(),
        }
    }

    /// Replay a memoized component result for a run capped at `limit`, if
    /// present, current and deciding. A count decides a cap k when it is
    /// exact — below its own cap, or uncapped — and answers `min(n, k)`;
    /// a count that reached its cap decides only caps k ≤ that cap. A
    /// capacity-0 store holds nothing, so it never hits.
    pub(crate) fn lookup(&mut self, key: &CompKey, limit: Option<usize>) -> Option<CompValue> {
        let entry = self.entries.get_mut(key)?;
        if entry.generation != self.generation {
            // stale generation: the entry predates a clear — drop it and
            // count the forced recomputation as an invalidation
            self.entries.remove(key);
            self.invalidations += 1;
            return None;
        }
        let value = match entry.value {
            CompValue::Count(n, cap) => {
                let exact = cap.is_none_or(|c| n < c as u64);
                if !exact && limit.zip(cap).is_none_or(|(k, c)| k > c) {
                    return None;
                }
                CompValue::Count(limit.map_or(n, |k| n.min(k as u64)), limit)
            }
            ref rows => rows.clone(),
        };
        self.tick += 1;
        entry.last_used = self.tick;
        self.hits += 1;
        Some(value)
    }

    /// Memoize a *complete* component result — callers must never insert
    /// a value computed under a tripped budget. It replaces an entry under
    /// the same key, which a run only re-computes when that entry could
    /// not answer it. A capacity-0 store never inserts.
    pub(crate) fn insert(&mut self, key: CompKey, value: CompValue) {
        if self.capacity == 0 {
            return;
        }
        while self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.generation == self.generation, e.last_used))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                    self.evictions += 1;
                }
                None => break,
            }
        }
        self.tick += 1;
        self.insertions += 1;
        self.entries.insert(
            key,
            Entry {
                value,
                generation: self.generation,
                last_used: self.tick,
            },
        );
    }

    /// Count the cross-component bookkeeping of one incremental query:
    /// units that re-executed while at least one sibling unit replayed
    /// are exactly the units the query's delta invalidated.
    pub(crate) fn finish_query(&mut self, replayed: u64, recomputed: u64) {
        if replayed > 0 {
            self.invalidations += recomputed;
        }
    }

    /// Record a sibling-plan derivation (plan patched, not compiled).
    pub(crate) fn note_derived(&mut self) {
        self.derived_plans += 1;
    }

    /// Invalidate every memoized result in O(1) by bumping the
    /// generation; stale entries are dropped lazily on next touch.
    pub(crate) fn clear(&mut self) {
        self.generation += 1;
    }

    /// Remember an already prepared, satisfiable query as a candidate
    /// parent for sibling-plan derivation, newest last. Re-registering a
    /// known signature only refreshes its position: `entry` (the query's
    /// shape hash and a shared clone of it) is built for new signatures
    /// alone, so a plan-cache hit pays neither.
    pub(crate) fn register(
        &mut self,
        sig: String,
        entry: impl FnOnce() -> (u64, Arc<PatternQuery>),
    ) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.registry.iter().position(|e| e.sig == sig) {
            let e = self.registry.remove(pos).expect("position is valid");
            self.registry.push_back(e);
            return;
        }
        let (shape, query) = entry();
        self.registry.push_back(RegEntry { shape, sig, query });
        while self.registry.len() > REGISTRY_CAPACITY {
            self.registry.pop_front();
        }
    }

    /// Recently registered queries with the given shape hash, newest
    /// first — the candidate parents a plan-cache miss tries to derive
    /// from.
    pub(crate) fn parents_for(&self, shape: u64) -> Vec<(String, Arc<PatternQuery>)> {
        self.registry
            .iter()
            .rev()
            .filter(|e| e.shape == shape)
            .map(|e| (e.sig.clone(), Arc::clone(&e.query)))
            .collect()
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> SiblingStats {
        SiblingStats {
            hits: self.hits,
            invalidations: self.invalidations,
            insertions: self.insertions,
            evictions: self.evictions,
            derived_plans: self.derived_plans,
            len: self.entries.len(),
            capacity: self.capacity,
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
    fn clear_bumps_generation_and_counts_invalidations() {
        let mut c = SiblingCache::new(4);
        insert_count(&mut c, "a", 7);
        c.clear();
        assert_eq!(lookup_count(&mut c, "a"), None);
        assert_eq!(c.stats().invalidations, 1);
        // re-inserting under the new generation works
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
        off.register("s".into(), || {
            panic!("a capacity-0 store registers nothing")
        });
        assert!(off.parents_for(1).is_empty());
        let s = off.stats();
        assert_eq!((s.len, s.hits, s.insertions), (0, 0, 0));
    }

    #[test]
    fn registry_is_shape_filtered_newest_first_and_bounded() {
        let mut c = SiblingCache::new(4);
        let q = Arc::new(PatternQuery::new());
        let entry = |shape: u64| {
            let q = Arc::clone(&q);
            move || (shape, q)
        };
        c.register("s1".into(), entry(1));
        c.register("s2".into(), entry(2));
        c.register("s3".into(), entry(1));
        let parents: Vec<String> = c.parents_for(1).into_iter().map(|(s, _)| s).collect();
        assert_eq!(parents, ["s3", "s1"]);
        // re-registering refreshes, not duplicates — and never rebuilds
        // the entry (the clone a plan-cache hit must not pay)
        c.register("s1".into(), || panic!("known signature: entry not built"));
        let parents: Vec<String> = c.parents_for(1).into_iter().map(|(s, _)| s).collect();
        assert_eq!(parents, ["s1", "s3"]);
        for i in 0..(REGISTRY_CAPACITY + 10) {
            c.register(format!("x{i}"), entry(9));
        }
        assert!(c.parents_for(9).len() <= REGISTRY_CAPACITY);
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
