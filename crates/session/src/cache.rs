//! The shared plan cache.
//!
//! Compiling a pattern query resolves every attribute name, edge type and
//! string constant against the graph's dictionaries and runs selectivity
//! estimation to order the search — work that is identical for every
//! execution of the same query over the same (immutable) database. The
//! why-query workloads repeat queries *heavily*: the relax loop and
//! TRAVERSESEARCHTREE execute hundreds of near-identical candidates, and a
//! service replays the same patterns verbatim across requests.
//!
//! `PlanCache` memoizes `(Compiled, bytecode program)` pairs in an LRU
//! (the crate's one recency policy, shared with the sibling store) keyed
//! by the canonical [`whyq_query::PatternQuery::signature`]. The signature
//! includes element ids, so only queries whose compiled slot layout is
//! byte-for-byte interchangeable share an entry — relabeled-but-isomorphic
//! queries deliberately get separate entries (a plan binds concrete
//! `QVid`/`QEid` slots). The cache is owned by the `Database` and shared
//! by every `Session`, so one session's compilation warms all of them.
//!
//! The resident plans are also the derivation parents: a miss on a
//! one-interval sibling of one patches it instead of compiling
//! ([`whyq_matcher::derive_sibling`]), so no second structure remembers
//! recent queries.
//!
//! ## Compile-once under contention
//!
//! The cache stores [`PlanSlot`]s, not finished plans: probing for a
//! signature reserves (or finds) a slot under the cache lock in O(1), and
//! the *compilation* happens outside the lock through the slot's
//! [`OnceLock`]. Any number of sessions racing on one uncached signature
//! therefore serialize on that slot alone — exactly one of them compiles,
//! the rest block on the `OnceLock` and share the result — while probes
//! for other signatures proceed untouched. An entry evicted while a
//! compile is in flight simply detaches: the in-flight sessions finish on
//! the detached slot (their `Arc` keeps it alive) and a later probe
//! starts a fresh one.

use crate::lru::Lru;
use std::sync::{Arc, OnceLock};
use whyq_matcher::compile::Compiled;
use whyq_matcher::{QueryProgram, SeedList};
use whyq_query::{component_signature, AnalysisReport, PatternQuery};

/// How many of the most recently used satisfiable plans a plan-cache miss
/// considers as derivation parents ([`PlanCache::parents`]). The
/// `match-cold` benchmark's `PARENT_WINDOW` (`benchmark/src/corpus.rs`)
/// mirrors it, so that its base texts stay out of derivation range.
pub(crate) const PARENT_WINDOW: usize = 128;

/// A memoized compilation: the dictionary-resolved query plus its
/// executable per-component bytecode programs (empty when the query is
/// unsatisfiable — executing it answers without any scan).
#[derive(Debug)]
pub struct CachedPlan {
    /// The compiled (dictionary-resolved) query.
    pub compiled: Arc<Compiled>,
    /// The optimized per-component bytecode programs the VM executes;
    /// empty ⇔ unsatisfiable (or the query has no vertices).
    pub program: Arc<QueryProgram>,
    /// The static-analysis report produced at prepare time
    /// ([`whyq_query::analyze_against`]). An unsatisfiable verdict here is
    /// why `program` is empty without any compilation having run; its
    /// [`AnalysisReport::conflict_set`] names the predicates to relax
    /// first.
    pub report: Arc<AnalysisReport>,
    /// Per-component seed candidate lists (program-indexed), materialized
    /// lazily by the first execution. Graph and indexes are immutable for
    /// the database's lifetime, so the lists are computed once per cached
    /// plan and shared by every session and prepare — repeat executions
    /// pay no bucket copies or disjunction-union sorts.
    pub seed_lists: OnceLock<Vec<SeedList>>,
    /// The signature the plan is cached under.
    pub signature: Arc<str>,
    /// The sibling-store key of each weakly connected component, in
    /// program order ([`whyq_query::component_signature`]; the signature
    /// itself for a one-component query).
    pub component_keys: Vec<Arc<str>>,
    /// The query the plan was built from. A derived sibling diffs against
    /// it, and a prepare of an equal query shares it.
    pub query: Arc<PatternQuery>,
    /// [`whyq_query::shape_hash`] of `query`, the derivation-parent
    /// bucket; 0 for a query analysis refuted.
    pub shape: u64,
}

impl CachedPlan {
    /// The plan of `q`, whose signature is `signature` and shape hash
    /// `shape`: its compilation, the analysis `report`, and the component
    /// keys written once here.
    pub(crate) fn new(
        q: &PatternQuery,
        signature: &str,
        shape: u64,
        compiled: Compiled,
        program: QueryProgram,
        report: AnalysisReport,
    ) -> Self {
        let signature: Arc<str> = signature.into();
        let comps = q.weakly_connected_components();
        let component_keys = match comps.as_slice() {
            [_] => vec![Arc::clone(&signature)],
            comps => comps
                .iter()
                .map(|c| component_signature(q, c).into())
                .collect(),
        };
        CachedPlan {
            compiled: Arc::new(compiled),
            program: Arc::new(program),
            report: Arc::new(report),
            seed_lists: OnceLock::new(),
            signature,
            component_keys,
            query: Arc::new(q.clone()),
            shape,
        }
    }
}

/// One signature's compile-at-most-once cell. Handed out by
/// [`PlanCache::probe`]; the caller completes it via
/// [`PlanSlot::get_or_compile`] *outside* the cache lock.
#[derive(Debug, Default)]
pub struct PlanSlot {
    cell: OnceLock<Arc<CachedPlan>>,
}

impl PlanSlot {
    /// The cached plan, compiling it with `compile` if this slot has never
    /// been filled. Concurrent callers on one slot run `compile` exactly
    /// once; the others block until it finishes and share the result.
    pub fn get_or_compile(&self, compile: impl FnOnce() -> CachedPlan) -> Arc<CachedPlan> {
        Arc::clone(self.cell.get_or_init(|| Arc::new(compile())))
    }

    /// The plan, if some caller already compiled it.
    pub fn get(&self) -> Option<Arc<CachedPlan>> {
        self.cell.get().map(Arc::clone)
    }
}

/// Cumulative cache counters (exposed via `Session::cache_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prepares answered from the cache (slot already present — possibly
    /// still compiling under another session, which the prepare joins).
    pub hits: u64,
    /// Prepares that reserved a fresh slot (and will compile it, unless a
    /// concurrent prepare on the same fresh slot gets there first).
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// Signature-keyed LRU of compile-once plan slots.
pub struct PlanCache {
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: Lru<String, Arc<PlanSlot>>,
}

impl PlanCache {
    /// Empty cache holding at most `capacity` plans (0 disables caching —
    /// every probe hands out a detached slot, so every prepare compiles).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: Lru::new(capacity),
        }
    }

    /// The slot for `signature`, plus whether it was already resident
    /// (`true` = hit). A miss reserves a fresh empty slot — evicting the
    /// least recently used entry when over capacity — which the caller
    /// fills via [`PlanSlot::get_or_compile`] outside the cache lock.
    pub fn probe(&mut self, signature: &str) -> (Arc<PlanSlot>, bool) {
        if let Some(slot) = self.entries.get(signature, |slot| Some(Arc::clone(slot))) {
            self.hits += 1;
            return (slot, true);
        }
        self.misses += 1;
        let slot = Arc::new(PlanSlot::default());
        // at capacity 0 nothing is kept: the slot stays detached
        let evicted = self.entries.insert(signature.to_owned(), Arc::clone(&slot));
        self.evictions += u64::from(evicted.is_some());
        (slot, false)
    }

    /// The derivation parents for a query of shape hash `shape`, newest
    /// first: of the [`PARENT_WINDOW`] most recently used satisfiable
    /// plans, those of the same shape. Unfilled slots and unsatisfiable
    /// plans are skipped and do not count toward the window. Walking
    /// touches no counter and no recency.
    pub(crate) fn parents(&self, shape: u64) -> Vec<Arc<CachedPlan>> {
        self.entries
            .newest_first()
            .filter_map(|slot| slot.cell.get())
            .filter(|plan| !plan.program.is_empty())
            .take(PARENT_WINDOW)
            .filter(|plan| plan.shape == shape)
            .map(Arc::clone)
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.entries.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_plan() -> CachedPlan {
        CachedPlan::new(
            &PatternQuery::new(),
            "",
            0,
            Compiled::default(),
            QueryProgram::default(),
            AnalysisReport::default(),
        )
    }

    fn fill(slot: &Arc<PlanSlot>) {
        slot.get_or_compile(empty_plan);
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let mut c = PlanCache::new(2);
        let (a, hit) = c.probe("a");
        assert!(!hit);
        fill(&a);
        assert!(c.probe("a").1, "second probe hits");
        let (b, hit) = c.probe("b");
        assert!(!hit);
        fill(&b);
        // touch a so b is the LRU victim
        assert!(c.probe("a").1);
        let (_, hit) = c.probe("c");
        assert!(!hit);
        let s = c.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.evictions, 1);
        assert!(c.probe("a").1, "recently used entry survives");
        assert!(c.probe("c").1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (4, 3));
        // probing the evicted signature is a miss that re-reserves a
        // *fresh* slot (the old plan died with the eviction)
        let (b2, hit) = c.probe("b");
        assert!(!hit, "LRU entry was evicted");
        assert!(b2.get().is_none(), "fresh slot, nothing compiled yet");
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        let (slot, hit) = c.probe("a");
        assert!(!hit);
        fill(&slot);
        assert!(!c.probe("a").1, "nothing is retained");
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn slot_compiles_exactly_once() {
        let slot = Arc::new(PlanSlot::default());
        let mut compiles = 0;
        for _ in 0..3 {
            slot.get_or_compile(|| {
                compiles += 1;
                empty_plan()
            });
        }
        assert_eq!(compiles, 1);
        assert!(slot.get().is_some());
        assert!(PlanSlot::default().get().is_none());
    }
}
