//! # whyq-session — the `Database` → `Session` → `PreparedQuery` facade
//!
//! The public face of the workspace's query engine. It packages the raw
//! matching machinery of `whyq-matcher` into the contract a real graph
//! database exposes (prepared statements and lazy result enumeration are
//! the baseline of every modern graph query API — see Angles et al.,
//! *Foundations of Modern Query Languages for Graph Databases*):
//!
//! * [`Database::open`] **takes ownership** of a [`PropertyGraph`], seals
//!   its CSR topology once and builds the *configured* attribute indexes
//!   ([`DatabaseConfig`] — no more hard-coded `"type"` index buried in an
//!   engine constructor). Opening validates the configuration; every
//!   facade entry point returns `Result<_, `[`WhyqError`]`>` instead of
//!   panicking.
//! * [`Database::session`] hands out cheap [`Session`] handles. Each
//!   session owns its scratch arena (the per-worker state that makes
//!   parallel evaluation possible) while sharing the database's immutable
//!   graph, indexes and plan cache.
//! * [`Session::prepare`] runs the `parse → validate → analyze → compile`
//!   pipeline **once** per distinct signature and memoizes the result in a
//!   shared LRU keyed by the canonical [`PatternQuery::signature`] —
//!   repeat queries (the relax loop's hundreds of siblings, a service's
//!   verbatim replays) skip analysis, name resolution, selectivity
//!   estimation and planning entirely. The static-analysis stage
//!   ([`mod@whyq_query::analyze`]) merges and canonicalizes predicates and
//!   proves unsatisfiability where possible: a provably-empty query is
//!   never compiled at all — [`PreparedQuery::find`] answers with zero
//!   candidate scans and [`PreparedQuery::report`] carries the typed
//!   [`Diagnostic`]s naming the conflicting predicates.
//! * [`PreparedQuery::find`], [`PreparedQuery::count`] and the lazy
//!   [`PreparedQuery::stream`] execute the cached plan; `stream` yields
//!   [`ResultGraph`]s straight from the suspendable backtracking DFS
//!   without materializing the result set.
//!
//! ## One component loop
//!
//! Every eager entry point — `find`/`count` × plain/`_opts`/`_governed`/
//! `_par`/`_par_opts` — is a few-line wrapper of one private loop that
//! walks the query's weakly connected components in program order: poll
//! the budget, look the component up in the database's sibling store
//! ([`mod@sibling`]), on a miss execute it — inline as one whole-component
//! [`WorkUnit`], or as seed-range shards across the [`Executor`] when a
//! [`ParallelOpts`] was passed and *that component's* seed list is large
//! enough — memoize the result if the budget is still complete, stop at
//! the first matchless component, cap, and combine. A store opened with
//! `sibling_cache_capacity(0)` never hits and never inserts; it is the
//! same loop, not a second path.
//!
//! ```
//! use whyq_graph::{PropertyGraph, Value};
//! use whyq_query::{Predicate, QueryBuilder};
//! use whyq_session::Database;
//!
//! let mut g = PropertyGraph::new();
//! let anna = g.add_vertex([("type", Value::str("person"))]);
//! let tud = g.add_vertex([("type", Value::str("university"))]);
//! g.add_edge(anna, tud, "workAt", []);
//!
//! let db = Database::open(g)?;
//! let session = db.session();
//! let q = QueryBuilder::new("who-works")
//!     .vertex("p", [Predicate::eq("type", "person")])
//!     .vertex("u", [Predicate::eq("type", "university")])
//!     .edge("p", "u", "workAt")
//!     .build();
//!
//! let prepared = session.prepare(&q)?;
//! assert_eq!(prepared.count()?, 1);
//! for result in prepared.stream() {
//!     assert_eq!(result.vertex(whyq_query::QVid(0)), Some(anna));
//! }
//! // a second prepare of the same query is a cache hit
//! let again = session.prepare(&q)?;
//! assert_eq!(again.count()?, 1);
//! assert!(session.cache_stats().hits >= 1);
//! # Ok::<(), whyq_session::WhyqError>(())
//! ```

// The whole workspace is unsafe-free (audited 2026-08): lock it in.
#![forbid(unsafe_code)]
// Every public item documents itself; CI's docs lane denies this warning.
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod executor;
mod lru;
pub mod sibling;

pub use cache::{CacheStats, PlanCache};
pub use error::WhyqError;
pub use executor::{Executor, ParallelOpts, DEFAULT_MIN_SEEDS_PER_SPLIT};
pub use sibling::SiblingStats;

use cache::CachedPlan;
use sibling::{CompKey, CompValue, SiblingCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use whyq_graph::domains::AttributeDomains;
use whyq_graph::PropertyGraph;
use whyq_matcher::{
    combine_components, AttrIndex, MatchOptions, MatchStream, Matcher, ResultGraph, SeedList,
    WorkUnit,
};
pub use whyq_matcher::{Budget, CancelToken, Termination};
use whyq_query::{analyze_against, shape_hash, DeltaKind, PatternQuery, QueryDelta};
pub use whyq_query::{AnalysisReport, Diagnostic, DiagnosticCode, Severity};

/// A result produced under a [`Budget`], tagged with how the execution
/// ended. Returned by the `*_governed` entry points: when `termination`
/// is not [`Termination::Complete`], `value` holds the partial results
/// accumulated before the budget tripped — a prefix-consistent subset of
/// the ungoverned answer, still useful for best-effort serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Governed<T> {
    /// The (possibly partial) result.
    pub value: T,
    /// [`Termination::Complete`] iff `value` is the full answer.
    pub termination: Termination,
}

impl<T> Governed<T> {
    /// True iff the run finished and `value` is exact.
    pub fn is_complete(&self) -> bool {
        self.termination.is_complete()
    }
}

// `Executor` workers share one `&Database` across scoped threads; this
// trips at compile time if a future field ever breaks that contract.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

/// Configuration applied when opening a [`Database`].
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Vertex attributes to build equality indexes over. Defaults to
    /// `["type"]` — the attribute the thesis workloads pin on nearly every
    /// query vertex.
    pub index_attrs: Vec<String>,
    /// When `true`, [`Database::open_with`] fails with
    /// [`WhyqError::UnknownIndexAttribute`] if a configured attribute
    /// occurs nowhere in the graph; when `false` (default), such
    /// attributes are skipped — matching the historical behavior of
    /// building an index lazily and finding nothing to index.
    pub strict_indexes: bool,
    /// Capacity of the shared plan cache (entries). `0` disables caching.
    pub plan_cache_capacity: usize,
    /// Capacity (entries) of the sibling result cache that replays
    /// per-component results across relax-loop siblings, and gate for
    /// sibling-plan derivation. `0` disables the whole sibling layer:
    /// the store never hits or inserts and no plan is ever derived.
    pub sibling_cache_capacity: usize,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            index_attrs: vec!["type".to_string()],
            strict_indexes: false,
            plan_cache_capacity: 256,
            sibling_cache_capacity: 1024,
        }
    }
}

impl DatabaseConfig {
    /// Default configuration (a lenient `"type"` index, 256-entry plan
    /// cache).
    pub fn new() -> Self {
        Self::default()
    }

    /// Configuration with exactly the given index attributes.
    pub fn with_indexes<I, S>(attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        DatabaseConfig {
            index_attrs: attrs.into_iter().map(Into::into).collect(),
            ..Self::default()
        }
    }

    /// Configuration with no indexes at all.
    pub fn unindexed() -> Self {
        DatabaseConfig {
            index_attrs: Vec::new(),
            ..Self::default()
        }
    }

    /// Add one index attribute (builder style).
    pub fn index(mut self, attr: impl Into<String>) -> Self {
        self.index_attrs.push(attr.into());
        self
    }

    /// Require every configured index attribute to occur in the graph.
    pub fn strict(mut self) -> Self {
        self.strict_indexes = true;
        self
    }

    /// Override the plan cache capacity.
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Override the sibling result cache capacity (`0` disables the
    /// sibling layer: no result replay, no plan derivation).
    pub fn sibling_cache_capacity(mut self, capacity: usize) -> Self {
        self.sibling_cache_capacity = capacity;
        self
    }
}

/// Distinct values per attribute kept by [`Database::domains`].
const DOMAIN_CAP: usize = 256;

/// An immutable, sealed property graph plus everything derived from it:
/// configured attribute indexes, the attribute-domain catalog and the
/// shared plan cache.
///
/// A `Database` owns its graph. Sealing happens once at open — every
/// session reads the same compact CSR topology — and because the graph can
/// no longer change, compiled plans and index buckets stay valid for the
/// database's whole lifetime. Reopening (dropping the database and calling
/// [`Database::open`] on a graph again) naturally starts from an empty
/// cache: plans never outlive the graph they were compiled against.
pub struct Database {
    g: PropertyGraph,
    config: DatabaseConfig,
    indexes: Vec<Arc<AttrIndex>>,
    /// Names of the attributes an index was actually built for (strict
    /// mode makes this equal to `config.index_attrs`).
    built_attrs: Vec<String>,
    /// Built on the first [`Database::domains`] call.
    domains: OnceLock<AttributeDomains>,
    /// The plan cache; its resident plans are also the derivation
    /// parents ([`PlanCache::parents`]).
    cache: Mutex<PlanCache>,
    /// The sibling result cache (see [`mod@sibling`]). At capacity 0 it
    /// never hits or inserts, and no plan is derived.
    siblings: Mutex<SiblingCache>,
    /// Number of plan compilations actually performed — under contention
    /// this stays equal to the number of distinct uncached signatures
    /// prepared (the compile-once guarantee of [`cache::PlanSlot`]).
    /// Plans *derived* from a parent plan (single-interval siblings) do
    /// not count: derivation is the point of not compiling.
    compiles: AtomicU64,
    /// Number of plans derived from a parent plan instead of compiled
    /// (reported as [`SiblingStats::derived_plans`]).
    derived_plans: AtomicU64,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("vertices", &self.g.num_vertices())
            .field("edges", &self.g.num_edges())
            .field("index_attrs", &self.built_attrs)
            .field("cache", &self.cache_stats())
            .finish()
    }
}

impl Database {
    /// Open a database over `graph` with the default configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use whyq_graph::{PropertyGraph, Value};
    /// use whyq_session::Database;
    ///
    /// let mut g = PropertyGraph::new();
    /// g.add_vertex([("type", Value::str("person"))]);
    /// let db = Database::open(g)?; // seals the topology, builds indexes
    /// assert_eq!(db.graph().num_vertices(), 1);
    /// # Ok::<(), whyq_session::WhyqError>(())
    /// ```
    pub fn open(graph: PropertyGraph) -> Result<Database, WhyqError> {
        Self::open_with(graph, DatabaseConfig::default())
    }

    /// Open a database over `graph`, sealing its topology and building the
    /// configured indexes. With `config.strict_indexes`, an index attribute
    /// that occurs nowhere in the graph is an error; otherwise it is
    /// skipped.
    pub fn open_with(
        mut graph: PropertyGraph,
        config: DatabaseConfig,
    ) -> Result<Database, WhyqError> {
        graph.seal();
        let mut indexes = Vec::new();
        let mut built_attrs = Vec::new();
        for attr in &config.index_attrs {
            match AttrIndex::build(&graph, attr) {
                Some(idx) => {
                    indexes.push(Arc::new(idx));
                    built_attrs.push(attr.clone());
                }
                None if config.strict_indexes => {
                    return Err(WhyqError::UnknownIndexAttribute { attr: attr.clone() });
                }
                None => {}
            }
        }
        let cache = Mutex::new(PlanCache::new(config.plan_cache_capacity));
        let siblings = Mutex::new(SiblingCache::new(config.sibling_cache_capacity));
        Ok(Database {
            g: graph,
            config,
            indexes,
            built_attrs,
            domains: OnceLock::new(),
            cache,
            siblings,
            compiles: AtomicU64::new(0),
            derived_plans: AtomicU64::new(0),
        })
    }

    /// The owned (sealed) graph.
    pub fn graph(&self) -> &PropertyGraph {
        &self.g
    }

    /// The configuration the database was opened with.
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// The attribute indexes built at open (shared with every session).
    pub fn indexes(&self) -> &[Arc<AttrIndex>] {
        &self.indexes
    }

    /// Names of the attributes an index was actually built over.
    pub fn index_attrs(&self) -> &[String] {
        &self.built_attrs
    }

    /// The graph's attribute-domain catalog, built on the first call and
    /// shared by every later one: callers that never rewrite a query never
    /// pay for it.
    pub fn domains(&self) -> &AttributeDomains {
        self.domains
            .get_or_init(|| AttributeDomains::build(&self.g, DOMAIN_CAP))
    }

    /// A new session: a cheap handle owning its own scratch arena and
    /// sharing the database's graph, indexes and plan cache.
    pub fn session(&self) -> Session<'_> {
        Session {
            db: self,
            matcher: Matcher::with_shared_indexes(&self.g, self.indexes.clone()),
        }
    }

    /// Counters of the shared plan cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// Number of plan compilations this database has performed. Distinct
    /// from [`CacheStats::misses`]: concurrent prepares racing on one
    /// uncached signature all count as misses of the cache probe, but the
    /// per-signature [`cache::PlanSlot`] guarantees exactly one of them
    /// compiles — so absent evictions this equals the number of distinct
    /// *satisfiable* signatures ever prepared, under any amount of
    /// contention. Queries the static analyzer proves unsatisfiable are
    /// never compiled and do not count.
    pub fn compile_count(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Counters of the sibling result cache (hits, invalidations,
    /// derived plans, …). All zero while the layer is disabled.
    pub fn sibling_stats(&self) -> SiblingStats {
        SiblingStats {
            derived_plans: self.derived_plans.load(Ordering::Relaxed),
            ..self.lock_siblings().stats()
        }
    }

    /// Drop every memoized sibling result, counting each as an
    /// invalidation, so that later runs execute instead of replaying.
    /// Plans and the plan cache are unaffected.
    pub fn clear_sibling_cache(&self) {
        self.lock_siblings().clear();
    }

    /// Close the database, handing the graph back (e.g. to mutate and
    /// reopen). All plans ever cached, and the domain catalog, die with
    /// the database.
    pub fn close(self) -> PropertyGraph {
        self.g
    }

    /// The plan cache, recovering from lock poisoning. A thread that
    /// panics while holding the cache lock can only have been inside
    /// `probe`/`stats`, whose LRU bookkeeping has no multi-step invariant
    /// a partial update could break (and plan *compilation* happens
    /// outside the lock through a `OnceLock` slot that simply stays
    /// unfilled if it panics) — so the cache is always safe to keep
    /// using, and one crashed worker must not poison every future
    /// prepare on the database.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, PlanCache> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The sibling cache, recovering from lock poisoning for the same
    /// reason as [`Database::lock_cache`]: every critical section is a
    /// self-contained map/counter update with no multi-step invariant.
    fn lock_siblings(&self) -> std::sync::MutexGuard<'_, SiblingCache> {
        self.siblings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look up or build the cached plan for `q`. The cache lock is held
    /// only to probe-or-reserve the signature's slot — compilation (which
    /// samples the graph for selectivity estimates) runs outside it, so
    /// concurrent sessions never serialize on each other's compiles.
    /// Sessions racing on the *same* uncached signature serialize on that
    /// signature's slot alone: exactly one compiles, the rest share its
    /// result (see [`cache::PlanCache`]).
    fn plan_for(&self, session: &Session<'_>, q: &PatternQuery) -> Arc<CachedPlan> {
        let sig = q.signature();
        let (slot, _hit) = self.lock_cache().probe(&sig);
        slot.get_or_compile(|| {
            // static analysis runs between validation and compilation
            // (prepare → analyze → compile). A provably unsatisfiable
            // query is never compiled at all: no name resolution, no
            // selectivity sampling, no planning — executing it answers
            // "no matches" with zero candidate scans, and the report's
            // conflict set names the predicates to relax first.
            let analysis = analyze_against(q, &self.g);
            let (shape, (compiled, program)) = if analysis.report.is_unsatisfiable() {
                Default::default()
            } else {
                let shape = shape_hash(q);
                // single-interval sibling of a recently used plan? Patch
                // the parent's plan instead of compiling — this is how the
                // relax loop's interval rewrites and the server batcher's
                // `OneOf` variants skip the whole compile pipeline.
                let plan = self.derive_plan(q, shape).unwrap_or_else(|| {
                    self.compiles.fetch_add(1, Ordering::Relaxed);
                    // compile the analyzer-simplified query to bytecode:
                    // it is result-equivalent to `q` on this graph with
                    // identical element ids and topology, so the program
                    // serves the caller's original query exactly
                    let cq = session.matcher.compile_full(&analysis.query);
                    (cq.compiled, cq.program)
                });
                (shape, plan)
            };
            CachedPlan::new(q, &sig, shape, compiled, program, analysis.report)
        })
    }

    /// Try to derive `q`'s plan from a resident same-shape parent plan
    /// differing in exactly one predicate interval (see
    /// [`PlanCache::parents`] and [`whyq_matcher::derive_sibling`]);
    /// returns `None` when no parent qualifies, falling back to a full
    /// compile.
    fn derive_plan(
        &self,
        q: &PatternQuery,
        shape: u64,
    ) -> Option<(whyq_matcher::compile::Compiled, whyq_matcher::QueryProgram)> {
        if self.config.sibling_cache_capacity == 0 {
            return None;
        }
        let parents = self.lock_cache().parents(shape);
        let derived = parents.iter().find_map(|parent| {
            let DeltaKind::SingleInterval { target, attr } =
                QueryDelta::between(&parent.query, q).kind
            else {
                return None;
            };
            whyq_matcher::derive_sibling(
                &self.g,
                &self.indexes,
                &parent.compiled,
                &parent.program,
                q,
                target,
                &attr,
            )
        })?;
        self.derived_plans.fetch_add(1, Ordering::Relaxed);
        Some(derived)
    }
}

/// Structural validation applied at prepare time — the panics the
/// pre-facade API reserved for misuse become [`WhyqError::InvalidQuery`].
fn validate(q: &PatternQuery) -> Result<(), WhyqError> {
    for e in q.edge_ids() {
        let ed = q.edge(e).expect("live");
        if ed.directions.is_empty() {
            return Err(WhyqError::InvalidQuery {
                reason: format!("query edge {e} admits no direction"),
            });
        }
        if q.vertex(ed.src).is_none() || q.vertex(ed.dst).is_none() {
            return Err(WhyqError::InvalidQuery {
                reason: format!("query edge {e} references a removed vertex"),
            });
        }
    }
    Ok(())
}

/// A lightweight execution handle: shares the database's graph, indexes
/// and plan cache, owns its scratch arena.
///
/// Sessions are cheap to create and independent — each one can run
/// searches (and hold suspended [`MatchStream`]s) without contending with
/// any other session's scratch state. This is the per-worker unit for
/// parallel evaluation: hand one session to each thread.
#[derive(Debug)]
pub struct Session<'db> {
    db: &'db Database,
    matcher: Matcher<'db>,
}

impl<'db> Session<'db> {
    /// The database this session belongs to.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// The session's graph (the database's).
    pub fn graph(&self) -> &'db PropertyGraph {
        self.db.graph()
    }

    /// Prepare `q`: validate it, then fetch its compilation and plans from
    /// the shared cache (compiling at most once per distinct signature).
    ///
    /// # Examples
    ///
    /// ```
    /// use whyq_graph::{PropertyGraph, Value};
    /// use whyq_query::{Predicate, QueryBuilder};
    /// use whyq_session::Database;
    ///
    /// let mut g = PropertyGraph::new();
    /// g.add_vertex([("type", Value::str("person"))]);
    /// let db = Database::open(g)?;
    /// let session = db.session();
    ///
    /// let q = QueryBuilder::new("people")
    ///     .vertex("p", [Predicate::eq("type", "person")])
    ///     .build();
    /// let prepared = session.prepare(&q)?; // compiled once, cached by signature
    /// assert_eq!(prepared.count()?, 1);
    /// session.prepare(&q)?; // same signature: cache hit, no recompilation
    /// assert_eq!(db.compile_count(), 1);
    /// # Ok::<(), whyq_session::WhyqError>(())
    /// ```
    pub fn prepare(&self, q: &PatternQuery) -> Result<PreparedQuery<'_, 'db>, WhyqError> {
        validate(q)?;
        let plan = self.db.plan_for(self, q);
        // the handle reports the caller's own query (signatures exclude
        // display-only fields such as the name), shared with the plan when
        // the two are equal; execution is signature-determined either way
        let query = if *plan.query == *q {
            Arc::clone(&plan.query)
        } else {
            Arc::new(q.clone())
        };
        Ok(PreparedQuery {
            session: self,
            query,
            plan,
        })
    }

    /// Prepare and enumerate all result graphs of `q`.
    pub fn find(&self, q: &PatternQuery) -> Result<Vec<ResultGraph>, WhyqError> {
        self.find_opts(q, MatchOptions::default())
    }

    /// Prepare and enumerate result graphs of `q` under `opts`.
    pub fn find_opts(
        &self,
        q: &PatternQuery,
        opts: MatchOptions,
    ) -> Result<Vec<ResultGraph>, WhyqError> {
        self.prepare(q)?.find_opts(opts)
    }

    /// Prepare and count the result graphs of `q` (injective, no cap).
    pub fn count(&self, q: &PatternQuery) -> Result<u64, WhyqError> {
        self.count_opts(q, MatchOptions::default())
    }

    /// Prepare and count the result graphs of `q` under `opts`.
    pub fn count_opts(&self, q: &PatternQuery, opts: MatchOptions) -> Result<u64, WhyqError> {
        self.prepare(q)?.count_opts(opts)
    }

    /// Prepare and enumerate under `opts`, keeping the partial results of
    /// an interrupted run — see [`PreparedQuery::find_governed`].
    pub fn find_governed(
        &self,
        q: &PatternQuery,
        opts: MatchOptions,
    ) -> Result<Governed<Vec<ResultGraph>>, WhyqError> {
        Ok(self.prepare(q)?.find_governed(opts))
    }

    /// Prepare and count under `opts`, keeping the partial count of an
    /// interrupted run — see [`PreparedQuery::count_governed`].
    pub fn count_governed(
        &self,
        q: &PatternQuery,
        opts: MatchOptions,
    ) -> Result<Governed<u64>, WhyqError> {
        Ok(self.prepare(q)?.count_governed(opts))
    }

    /// Counters of the shared plan cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.db.cache_stats()
    }
}

/// A compiled, planned, cache-resident query bound to a session.
///
/// Executing a prepared query runs the cached plan directly: no name
/// resolution, no selectivity estimation, no planning. All execution
/// methods may be called any number of times.
#[derive(Debug)]
pub struct PreparedQuery<'s, 'db> {
    session: &'s Session<'db>,
    query: Arc<PatternQuery>,
    plan: Arc<CachedPlan>,
}

impl<'db> PreparedQuery<'_, 'db> {
    /// The query this handle was prepared with.
    pub fn query(&self) -> &PatternQuery {
        &self.query
    }

    /// The canonical signature the plan is cached under — the query's
    /// own, written once when it was prepared.
    pub fn signature(&self) -> String {
        self.plan.signature.to_string()
    }

    /// True when static analysis or compilation proved the query can match
    /// nothing in this database (contradictory predicates, an unknown
    /// attribute/type, a string constant the value dictionary has never
    /// seen, an empty interval, a range or number outside the attribute's
    /// observed numeric range). See [`PreparedQuery::report`] for *why*
    /// when the analyzer proved it; compile-time proofs leave no
    /// diagnostic.
    pub fn is_unsatisfiable(&self) -> bool {
        self.plan.program.is_empty() && self.query.num_vertices() > 0
    }

    /// The static-analysis report produced when this query's cache entry
    /// was built (`prepare → analyze → compile`): merged/subsumed
    /// predicates, pruned constants and types, and — for an
    /// [unsatisfiable](PreparedQuery::is_unsatisfiable) query — the
    /// error-level diagnostics whose
    /// [`AnalysisReport::conflict_set`] names the conflicting predicates
    /// the relax loop should target first.
    pub fn report(&self) -> &AnalysisReport {
        &self.plan.report
    }

    /// Enumerate all result graphs (injective).
    ///
    /// # Examples
    ///
    /// ```
    /// use whyq_graph::{PropertyGraph, Value};
    /// use whyq_query::{Predicate, QueryBuilder, QVid};
    /// use whyq_session::Database;
    ///
    /// let mut g = PropertyGraph::new();
    /// let anna = g.add_vertex([("type", Value::str("person"))]);
    /// let db = Database::open(g)?;
    /// let session = db.session();
    /// let q = QueryBuilder::new("people")
    ///     .vertex("p", [Predicate::eq("type", "person")])
    ///     .build();
    ///
    /// let results = session.prepare(&q)?.find()?;
    /// assert_eq!(results.len(), 1);
    /// assert_eq!(results[0].vertex(QVid(0)), Some(anna));
    /// # Ok::<(), whyq_session::WhyqError>(())
    /// ```
    pub fn find(&self) -> Result<Vec<ResultGraph>, WhyqError> {
        self.find_opts(MatchOptions::default())
    }

    /// Enumerate result graphs under `opts`.
    ///
    /// The contract of this entry point is an **exact** answer: when
    /// `opts.budget` trips mid-search (deadline, step budget or cancel),
    /// the truncated results are discarded and
    /// [`WhyqError::Interrupted`] is returned, so a partial answer can
    /// never be mistaken for a complete one. Use
    /// [`PreparedQuery::find_governed`] to keep the partial results.
    pub fn find_opts(&self, opts: MatchOptions) -> Result<Vec<ResultGraph>, WhyqError> {
        exact(self.find_governed(opts))
    }

    /// Enumerate result graphs under `opts`, keeping whatever an
    /// interrupted run produced: the returned [`Governed`] tags the
    /// results with the budget's [`Termination`]. On a trip the value is
    /// a prefix of the serial enumeration (per component; across
    /// components of a disconnected query it is a subset of the cartesian
    /// product) — the best-effort shape a serving layer degrades to.
    pub fn find_governed(&self, opts: MatchOptions) -> Governed<Vec<ResultGraph>> {
        self.run::<Rows>(&opts, None).expect(INLINE_NEVER_FAILS)
    }

    /// Count result graphs (injective, exact).
    pub fn count(&self) -> Result<u64, WhyqError> {
        self.count_opts(MatchOptions::default())
    }

    /// Count result graphs under `opts`, stopping early at `opts.limit` —
    /// same exact-answer contract as [`PreparedQuery::find_opts`]: a
    /// tripped budget is [`WhyqError::Interrupted`], never a silently
    /// low count.
    pub fn count_opts(&self, opts: MatchOptions) -> Result<u64, WhyqError> {
        exact(self.count_governed(opts))
    }

    /// Count result graphs under `opts`, keeping the partial count of an
    /// interrupted run — the counting twin of
    /// [`PreparedQuery::find_governed`]. A non-complete termination tags
    /// the count as a lower bound.
    ///
    /// # Examples
    ///
    /// ```
    /// use whyq_graph::{PropertyGraph, Value};
    /// use whyq_matcher::{Budget, MatchOptions, Termination};
    /// use whyq_query::{Predicate, QueryBuilder};
    /// use whyq_session::Database;
    ///
    /// let mut g = PropertyGraph::new();
    /// for _ in 0..5000 {
    ///     g.add_vertex([("type", Value::str("person"))]);
    /// }
    /// let db = Database::open(g)?;
    /// let session = db.session();
    /// let q = QueryBuilder::new("people")
    ///     .vertex("p", [Predicate::eq("type", "person")])
    ///     .build();
    ///
    /// // a starved budget trips mid-search: the partial count survives,
    /// // tagged with why the run stopped
    /// let opts = MatchOptions::default().with_budget(Budget::steps(10));
    /// let governed = session.prepare(&q)?.count_governed(opts);
    /// assert_eq!(governed.termination, Termination::BudgetExhausted);
    /// assert!(governed.value < 5000); // a lower bound, not the exact count
    /// # Ok::<(), whyq_session::WhyqError>(())
    /// ```
    pub fn count_governed(&self, opts: MatchOptions) -> Governed<u64> {
        self.run::<Count>(&opts, None).expect(INLINE_NEVER_FAILS)
    }

    /// Enumerate all result graphs (injective) across the threads of the
    /// environment-configured pool — see [`PreparedQuery::find_par_opts`].
    pub fn find_par(&self) -> Result<Vec<ResultGraph>, WhyqError> {
        self.find_par_opts(MatchOptions::default(), &ParallelOpts::default())
    }

    /// Enumerate result graphs under `opts` in parallel: every component
    /// whose seed list holds at least `2 × par.min_seeds_per_split` seeds
    /// is sharded into seed-range [`WorkUnit`]s executed across up to
    /// `par.threads` workers — each owning its own session arena — and
    /// merged in range order; smaller components, and everything under a
    /// 1-thread configuration, run inline exactly as
    /// [`PreparedQuery::find_opts`] does. Sharded components read and
    /// fill the sibling store like inline ones.
    ///
    /// Returns exactly the multiset [`PreparedQuery::find_opts`] returns.
    /// **Result order is unspecified in parallel mode** (the current
    /// implementation happens to preserve serial order, but only the
    /// multiset is contractual); under a `limit`, *which* results survive
    /// the cap is likewise unspecified. A worker panic surfaces as
    /// [`WhyqError::WorkerPanicked`] with the database left usable.
    pub fn find_par_opts(
        &self,
        opts: MatchOptions,
        par: &ParallelOpts,
    ) -> Result<Vec<ResultGraph>, WhyqError> {
        self.run::<Rows>(&opts, Some(par)).and_then(exact)
    }

    /// Count result graphs (injective, exact) in parallel — see
    /// [`PreparedQuery::count_par_opts`].
    pub fn count_par(&self) -> Result<u64, WhyqError> {
        self.count_par_opts(MatchOptions::default(), &ParallelOpts::default())
    }

    /// Count result graphs under `opts` in parallel — the counting twin
    /// of [`PreparedQuery::find_par_opts`]: shard counts are summed per
    /// component and multiplied, always equal to
    /// [`PreparedQuery::count_opts`], including under an `opts.limit` cap
    /// (both report `min(C(Q), limit)`).
    pub fn count_par_opts(&self, opts: MatchOptions, par: &ParallelOpts) -> Result<u64, WhyqError> {
        self.run::<Count>(&opts, Some(par)).and_then(exact)
    }

    /// The one execution body behind every eager entry point (see the
    /// [crate docs](crate#one-component-loop)): components in program
    /// order, each replayed from the sibling store or executed and — only
    /// if the budget is still complete, since a tripped unit produced a
    /// partial prefix — memoized there. Mirrors
    /// [`whyq_matcher::Matcher::count_compiled`] /
    /// [`whyq_matcher::Matcher::find_compiled`] exactly: per-component cap
    /// at `opts.limit`, early zero on a matchless component, capped
    /// product. Replayed components consume no budget, so a governed
    /// value stays a valid lower bound. Only sharded dispatch can fail.
    fn run<K: ResultKind>(
        &self,
        opts: &MatchOptions,
        par: Option<&ParallelOpts>,
    ) -> Result<Governed<K::Out>, WhyqError> {
        let db = self.session.db;
        let budget = &opts.budget;
        let programs = self.plan.program.components();
        let done = |value| {
            Ok(Governed {
                value,
                termination: budget.termination(),
            })
        };
        if self.query.num_vertices() == 0 || programs.is_empty() {
            return done(K::Out::default());
        }
        let keys = &self.plan.component_keys;
        debug_assert_eq!(keys.len(), programs.len(), "one program per component");
        // materialized once per cached plan (graph and indexes are sealed
        // for the database's lifetime) and shared across sessions
        let seed_lists = self.plan.seed_lists.get_or_init(|| {
            let matcher = &self.session.matcher;
            programs.iter().map(|p| matcher.seed_list_for(p)).collect()
        });
        let (mut replayed, mut recomputed) = (0u64, 0u64);
        let mut parts = Vec::with_capacity(keys.len());
        for (i, (sig, prog)) in keys.iter().zip(programs).enumerate() {
            // an already-tripped budget refuses up front like the engine
            if budget.poll().is_err() {
                break;
            }
            let key = CompKey {
                sig: Arc::clone(sig),
                injective: opts.injective,
                rows: K::rows_key(prog, opts.limit),
            };
            let cached = db
                .lock_siblings()
                .lookup(&key, opts.limit)
                .and_then(K::from_cached);
            let part = if let Some(part) = cached {
                replayed += 1;
                part
            } else {
                recomputed += 1;
                let part = self.execute::<K>(i, &seed_lists[i], opts, par)?;
                if budget.termination().is_complete() {
                    db.lock_siblings()
                        .insert(key, K::to_cached(&part, opts.limit));
                }
                part
            };
            if K::is_empty(&part) {
                // a matchless component zeroes the product; later
                // components never run
                break;
            }
            parts.push(part);
        }
        db.lock_siblings().finish_query(replayed, recomputed);
        // short of one part per component the loop stopped early: no match
        done(if parts.len() == keys.len() {
            K::combine(parts, opts.limit)
        } else {
            K::Out::default()
        })
    }

    /// Execute one component: as seed-range shards across worker sessions
    /// when `par` was passed and says this component is worth splitting
    /// ([`ParallelOpts::shard_ranges`]) — merged in range order, which
    /// reproduces the inline result exactly — else inline as one
    /// whole-component [`WorkUnit`].
    fn execute<K: ResultKind>(
        &self,
        component: usize,
        seeds: &SeedList,
        opts: &MatchOptions,
        par: Option<&ParallelOpts>,
    ) -> Result<K::Part, WhyqError> {
        let (query, plan) = (&*self.query, &*self.plan);
        let run = |matcher: &Matcher<'_>, range| {
            let unit = WorkUnit { component, range };
            K::run_unit(matcher, query, plan, &unit, seeds, opts.clone())
        };
        let Some((par, ranges)) = par.and_then(|p| Some((p, p.shard_ranges(seeds.len())?))) else {
            return Ok(run(&self.session.matcher, 0..seeds.len()));
        };
        let db = self.session.db;
        let shards = Executor::new(par.clone()).dispatch(
            ranges.len(),
            || db.session(),
            |session, j| run(&session.matcher, ranges[j].clone()),
        )?;
        Ok(K::merge(shards, opts.limit))
    }

    /// Stream result graphs lazily (injective, unlimited): the backtracking
    /// DFS suspends after every yielded match, so consuming `k` results
    /// costs `O(k)` search work regardless of the full result size.
    ///
    /// # Examples
    ///
    /// ```
    /// use whyq_graph::{PropertyGraph, Value};
    /// use whyq_query::{Predicate, QueryBuilder};
    /// use whyq_session::Database;
    ///
    /// let mut g = PropertyGraph::new();
    /// for _ in 0..1000 {
    ///     g.add_vertex([("type", Value::str("person"))]);
    /// }
    /// let db = Database::open(g)?;
    /// let session = db.session();
    /// let q = QueryBuilder::new("people")
    ///     .vertex("p", [Predicate::eq("type", "person")])
    ///     .build();
    ///
    /// // taking 3 of 1000 results does ~3 results' worth of search work;
    /// // no result set is materialized
    /// let first_three: Vec<_> = session.prepare(&q)?.stream().take(3).collect();
    /// assert_eq!(first_three.len(), 3);
    /// # Ok::<(), whyq_session::WhyqError>(())
    /// ```
    pub fn stream(&self) -> MatchStream<'db> {
        self.stream_opts(MatchOptions::default())
    }

    /// Stream result graphs lazily under `opts`. The stream owns its own
    /// search state — it stays valid after the prepared query or session
    /// it came from is dropped, and any number of streams may be in flight
    /// at once.
    pub fn stream_opts(&self, opts: MatchOptions) -> MatchStream<'db> {
        MatchStream::over(
            self.session.db.graph(),
            self.session.db.indexes().to_vec(),
            Arc::clone(&self.query),
            Arc::clone(&self.plan.compiled),
            Arc::clone(&self.plan.program),
            opts,
        )
    }
}

/// Why the serial wrappers may unwrap [`PreparedQuery::run`]: without a
/// [`ParallelOpts`] every component executes inline on the calling
/// thread, and only executor dispatch reports errors.
const INLINE_NEVER_FAILS: &str = "inline execution has no executor to fail";

/// The exact-answer contract of the non-`_governed` entry points: a
/// tripped budget is an error, never a silently truncated value.
fn exact<T>(governed: Governed<T>) -> Result<T, WhyqError> {
    match governed.termination {
        Termination::Complete => Ok(governed.value),
        termination => Err(WhyqError::Interrupted { termination }),
    }
}

/// `c` capped at `limit`.
fn capped(c: u64, limit: Option<usize>) -> u64 {
    limit.map_or(c, |l| c.min(l as u64))
}

/// What [`PreparedQuery::run`] is generic over: how one result kind
/// (count | rows) executes a work unit, round-trips through the sibling
/// store, and merges — shards of one component, then components.
trait ResultKind {
    /// One component's output.
    type Part: Send + Sync;
    /// The whole query's output; `default()` is "no match".
    type Out: Default;

    /// The cap and program fingerprint the store keys this kind's entries
    /// by: rows depend on the enumeration order of the program that
    /// produced them (a derived sibling program may differ from a fresh
    /// compile), counts do not, and a count keeps its cap in its entry.
    fn rows_key(
        prog: &whyq_matcher::vm::Program,
        limit: Option<usize>,
    ) -> Option<(Option<usize>, u64)>;
    fn from_cached(value: CompValue) -> Option<Self::Part>;
    fn to_cached(part: &Self::Part, limit: Option<usize>) -> CompValue;
    fn run_unit(
        matcher: &Matcher<'_>,
        q: &PatternQuery,
        plan: &CachedPlan,
        unit: &WorkUnit,
        seeds: &SeedList,
        opts: MatchOptions,
    ) -> Self::Part;
    /// Merge one component's range-ordered shards. Every shard stops at
    /// `limit` on its own, so re-capping the merge yields exactly what a
    /// whole-component unit would have.
    fn merge(shards: Vec<Self::Part>, limit: Option<usize>) -> Self::Part;
    fn is_empty(part: &Self::Part) -> bool;
    /// Cartesian combination of all (non-empty) components, capped.
    fn combine(parts: Vec<Self::Part>, limit: Option<usize>) -> Self::Out;
}

struct Count;

impl ResultKind for Count {
    type Part = u64;
    type Out = u64;

    fn rows_key(_: &whyq_matcher::vm::Program, _: Option<usize>) -> Option<(Option<usize>, u64)> {
        None
    }
    fn from_cached(value: CompValue) -> Option<u64> {
        match value {
            CompValue::Count(n, _) => Some(n),
            CompValue::Rows(_) => None,
        }
    }
    fn to_cached(part: &u64, limit: Option<usize>) -> CompValue {
        CompValue::Count(*part, limit)
    }
    fn run_unit(
        matcher: &Matcher<'_>,
        q: &PatternQuery,
        plan: &CachedPlan,
        unit: &WorkUnit,
        seeds: &SeedList,
        opts: MatchOptions,
    ) -> u64 {
        matcher.count_unit(q, &plan.compiled, &plan.program, unit, seeds, opts)
    }
    fn merge(shards: Vec<u64>, limit: Option<usize>) -> u64 {
        capped(shards.into_iter().fold(0, u64::saturating_add), limit)
    }
    fn is_empty(part: &u64) -> bool {
        *part == 0
    }
    fn combine(parts: Vec<u64>, limit: Option<usize>) -> u64 {
        capped(parts.into_iter().fold(1, u64::saturating_mul), limit)
    }
}

struct Rows;

/// Take the rows out of a component's shared list: free when the sibling
/// store did not keep a reference, one clone when it did.
fn unshare(rows: Arc<Vec<ResultGraph>>) -> Vec<ResultGraph> {
    Arc::try_unwrap(rows).unwrap_or_else(|shared| (*shared).clone())
}

impl ResultKind for Rows {
    /// Shared with the sibling store, so neither a hit nor an insertion
    /// copies rows under the store's lock.
    type Part = Arc<Vec<ResultGraph>>;
    type Out = Vec<ResultGraph>;

    fn rows_key(
        prog: &whyq_matcher::vm::Program,
        limit: Option<usize>,
    ) -> Option<(Option<usize>, u64)> {
        Some((limit, prog.fingerprint()))
    }
    fn from_cached(value: CompValue) -> Option<Self::Part> {
        match value {
            CompValue::Rows(rows) => Some(rows),
            CompValue::Count(..) => None,
        }
    }
    fn to_cached(part: &Self::Part, _: Option<usize>) -> CompValue {
        CompValue::Rows(Arc::clone(part))
    }
    fn run_unit(
        matcher: &Matcher<'_>,
        q: &PatternQuery,
        plan: &CachedPlan,
        unit: &WorkUnit,
        seeds: &SeedList,
        opts: MatchOptions,
    ) -> Self::Part {
        Arc::new(matcher.find_unit(q, &plan.compiled, &plan.program, unit, seeds, opts))
    }
    fn merge(shards: Vec<Self::Part>, limit: Option<usize>) -> Self::Part {
        let mut rows: Vec<ResultGraph> = shards.into_iter().flat_map(unshare).collect();
        rows.truncate(limit.unwrap_or(usize::MAX));
        Arc::new(rows)
    }
    fn is_empty(part: &Self::Part) -> bool {
        part.is_empty()
    }
    fn combine(parts: Vec<Self::Part>, limit: Option<usize>) -> Vec<ResultGraph> {
        let rows = parts.into_iter().map(unshare).collect();
        combine_components(rows, limit.unwrap_or(usize::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whyq_graph::Value;
    use whyq_query::{Predicate, QueryBuilder};

    fn social() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([("type", Value::str("person"))]);
        let b = g.add_vertex([("type", Value::str("person"))]);
        let city = g.add_vertex([("type", Value::str("city"))]);
        g.add_edge(a, b, "knows", []);
        g.add_edge(a, city, "livesIn", []);
        g.add_edge(b, city, "livesIn", []);
        g
    }

    fn pair_query() -> PatternQuery {
        QueryBuilder::new("pair")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .edge("p1", "p2", "knows")
            .build()
    }

    #[test]
    fn open_builds_configured_indexes() {
        let db = Database::open(social()).unwrap();
        assert_eq!(db.index_attrs(), ["type".to_string()]);
        assert_eq!(db.indexes().len(), 1);
        let none = Database::open_with(social(), DatabaseConfig::unindexed()).unwrap();
        assert!(none.indexes().is_empty());
    }

    #[test]
    fn strict_config_rejects_unknown_attrs() {
        let err = Database::open_with(
            social(),
            DatabaseConfig::with_indexes(["nonexistent"]).strict(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            WhyqError::UnknownIndexAttribute {
                attr: "nonexistent".into()
            }
        );
        // lenient mode skips it
        let db =
            Database::open_with(social(), DatabaseConfig::with_indexes(["nonexistent"])).unwrap();
        assert!(db.indexes().is_empty());
    }

    #[test]
    fn prepare_executes_and_caches() {
        let db = Database::open(social()).unwrap();
        let session = db.session();
        let q = pair_query();
        let prepared = session.prepare(&q).unwrap();
        assert_eq!(prepared.count().unwrap(), 1);
        assert_eq!(prepared.find().unwrap().len(), 1);
        assert_eq!(prepared.stream().count(), 1);
        let before = session.cache_stats();
        let again = session.prepare(&q).unwrap();
        assert_eq!(again.count().unwrap(), 1);
        let after = session.cache_stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn sessions_share_the_plan_cache() {
        let db = Database::open(social()).unwrap();
        let q = pair_query();
        let s1 = db.session();
        s1.prepare(&q).unwrap();
        let s2 = db.session();
        s2.prepare(&q).unwrap();
        let stats = db.cache_stats();
        assert_eq!(stats.misses, 1, "second session reuses the first's plan");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn invalid_query_is_an_error_not_a_panic() {
        let db = Database::open(social()).unwrap();
        let session = db.session();
        let mut q = pair_query();
        q.edge_mut(whyq_query::QEid(0))
            .unwrap()
            .directions
            .remove(whyq_query::Direction::Forward);
        let err = session.prepare(&q).unwrap_err();
        assert!(matches!(err, WhyqError::InvalidQuery { .. }));
    }

    #[test]
    fn unsatisfiable_queries_answer_without_scanning() {
        let db = Database::open(social()).unwrap();
        let session = db.session();
        let q = QueryBuilder::new("robot")
            .vertex("r", [Predicate::eq("type", "robot")])
            .build();
        let prepared = session.prepare(&q).unwrap();
        assert!(prepared.is_unsatisfiable());
        assert_eq!(prepared.count().unwrap(), 0);
        assert!(prepared.find().unwrap().is_empty());
        assert_eq!(prepared.stream().count(), 0);
    }

    #[test]
    fn static_analysis_short_circuits_contradictions_without_compiling() {
        use whyq_query::{QVid, Target};
        let db = Database::open(social()).unwrap();
        let session = db.session();
        // age > 30 ∧ age < 20 — provably empty from the query text alone
        let q = QueryBuilder::new("contra")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::at_least("age", 31.0),
                    Predicate::at_most("age", 20.0),
                ],
            )
            .build();
        let prepared = session.prepare(&q).unwrap();
        assert!(prepared.is_unsatisfiable());
        assert!(prepared.report().is_unsatisfiable());
        // the report names the conflicting predicates…
        assert_eq!(
            prepared.report().conflict_set(),
            vec![(Target::Vertex(QVid(0)), Some("age".to_string()))]
        );
        // …and the query was never compiled: zero candidate scans
        assert_eq!(db.compile_count(), 0);
        assert_eq!(prepared.count().unwrap(), 0);
        assert!(prepared.find().unwrap().is_empty());
        assert_eq!(prepared.stream().count(), 0);
        // the verdict is cached like any plan
        let again = session.prepare(&q).unwrap();
        assert!(again.is_unsatisfiable());
        assert_eq!(db.compile_count(), 0);
        // a satisfiable query on the same database still compiles
        session.prepare(&pair_query()).unwrap();
        assert_eq!(db.compile_count(), 1);
    }

    #[test]
    fn reordered_and_duplicated_predicates_share_one_plan() {
        let mut g = social();
        g.add_vertex([("type", Value::str("person")), ("age", Value::Int(30))]);
        let db = Database::open(g).unwrap();
        let session = db.session();
        let q1 = QueryBuilder::new("a")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::at_least("age", 18.0),
                ],
            )
            .build();
        // same constraints, reordered, with one predicate repeated
        let q2 = QueryBuilder::new("b")
            .vertex(
                "p",
                [
                    Predicate::at_least("age", 18.0),
                    Predicate::eq("type", "person"),
                    Predicate::eq("type", "person"),
                ],
            )
            .build();
        assert_eq!(q1.signature(), q2.signature());
        session.prepare(&q1).unwrap();
        session.prepare(&q2).unwrap();
        assert_eq!(db.compile_count(), 1, "one plan-cache slot for both");
        let stats = db.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn stream_outlives_session_and_prepared() {
        let db = Database::open(social()).unwrap();
        let stream = {
            let session = db.session();
            let prepared = session.prepare(&pair_query()).unwrap();
            prepared.stream()
        };
        assert_eq!(stream.count(), 1);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let db = Database::open(social()).unwrap();
        let session = db.session();
        let q = pair_query();
        let prepared = session.prepare(&q).unwrap();
        let serial = prepared.find().unwrap();
        for threads in [1usize, 2, 4] {
            let par = ParallelOpts::with_threads(threads).min_seeds_per_split(1);
            assert_eq!(
                prepared
                    .find_par_opts(MatchOptions::default(), &par)
                    .unwrap(),
                serial,
                "threads={threads}"
            );
            assert_eq!(
                prepared
                    .count_par_opts(MatchOptions::default(), &par)
                    .unwrap(),
                serial.len() as u64
            );
        }
        // env-default entry points agree too (whatever the thread count)
        assert_eq!(prepared.find_par().unwrap().len(), serial.len());
        assert_eq!(prepared.count_par().unwrap(), serial.len() as u64);
    }

    #[test]
    fn find_batch_reports_per_request_governed_results_in_order() {
        use whyq_matcher::Budget;
        let db = Database::open(social()).unwrap();
        let q1 = pair_query();
        let q2 = QueryBuilder::new("people")
            .vertex("p", [Predicate::eq("type", "person")])
            .build();
        let mut invalid = pair_query();
        invalid
            .edge_mut(whyq_query::QEid(0))
            .unwrap()
            .directions
            .remove(whyq_query::Direction::Forward);
        invalid
            .edge_mut(whyq_query::QEid(0))
            .unwrap()
            .directions
            .remove(whyq_query::Direction::Backward);
        // a pre-cancelled request degrades its own slot, not the batch
        let token = CancelToken::new();
        token.cancel();
        let starved = MatchOptions::governed(Budget::cancelled_by(&token));
        for exec in [
            Executor::serial(),
            Executor::new(ParallelOpts::with_threads(4)),
        ] {
            let requests: Vec<(&PatternQuery, MatchOptions)> = vec![
                (&q1, MatchOptions::default()),
                (&q2, MatchOptions::default()),
                (&invalid, MatchOptions::default()),
                (&q1, starved.clone()),
            ];
            let out = exec.find_batch(&db, &requests);
            assert_eq!(out.len(), 4);
            let full = out[0].as_ref().unwrap();
            assert_eq!(
                (full.value.len(), full.termination),
                (1, Termination::Complete)
            );
            assert_eq!(out[1].as_ref().unwrap().value.len(), 2);
            assert!(
                matches!(out[2], Err(WhyqError::InvalidQuery { .. })),
                "a bad request errors in its own slot without failing the batch"
            );
            let cancelled = out[3].as_ref().unwrap();
            assert_eq!(cancelled.termination, Termination::Cancelled);
        }
        // every distinct signature compiled exactly once across all batches
        assert_eq!(db.compile_count(), 2);
    }

    /// A plan's keys: its signature, and one sibling-store key per
    /// component.
    fn keys(prepared: &PreparedQuery<'_, '_>) -> (String, Vec<String>) {
        let plan = &prepared.plan;
        let comps = plan.component_keys.iter().map(ToString::to_string);
        (plan.signature.to_string(), comps.collect())
    }

    #[test]
    fn a_prepared_query_reports_the_signature_it_was_prepared_under() {
        let db = Database::open(social()).unwrap();
        let session = db.session();
        let q = pair_query();
        for _ in 0..2 {
            let prepared = session.prepare(&q).unwrap();
            assert_eq!(prepared.signature(), q.signature());
            // one component: its key is the signature itself
            assert_eq!(keys(&prepared), (q.signature(), vec![q.signature()]));
            assert!(Arc::ptr_eq(
                &prepared.plan.signature,
                &prepared.plan.component_keys[0]
            ));
        }
    }

    #[test]
    fn renamed_and_reordered_queries_share_plan_and_sibling_entries() {
        let db = Database::open(social()).unwrap();
        let session = db.session();
        let (person, either) = (
            Predicate::eq("type", "person"),
            Predicate::one_of("type", ["person", "city"]),
        );
        let build = |name: &str, preds: [&Predicate; 2]| {
            QueryBuilder::new(name)
                .vertex("p", preds.map(Predicate::clone))
                .vertex("c", [Predicate::eq("type", "city")])
                .edge("p", "c", "livesIn")
                .build()
        };
        let q1 = build("first", [&person, &either]);
        let q2 = build("second", [&either, &person]);
        let first = session.prepare(&q1).unwrap();
        assert_eq!(first.count().unwrap(), 2);
        let before = db.sibling_stats();
        let second = session.prepare(&q2).unwrap();
        assert_eq!(second.count().unwrap(), 2);
        let after = db.sibling_stats();
        assert_eq!(after.hits, before.hits + 1, "the second count replays");
        assert_eq!(after.insertions, before.insertions, "and inserts nothing");
        assert_eq!(db.cache_stats().hits, 1, "one plan for both");
        assert_eq!(keys(&first), keys(&second));
        // the handle keeps the caller's own query
        assert_eq!(second.query().name.as_deref(), Some("second"));
    }

    #[test]
    fn each_component_is_keyed_by_its_component_signature() {
        let db = Database::open(social()).unwrap();
        let session = db.session();
        let q = QueryBuilder::new("two")
            .vertex("p1", [Predicate::eq("type", "person")])
            .vertex("p2", [Predicate::eq("type", "person")])
            .vertex("c", [Predicate::eq("type", "city")])
            .edge("p1", "p2", "knows")
            .build();
        let comps = q.weakly_connected_components();
        assert_eq!(comps.len(), 2);
        let want: Vec<String> = comps
            .iter()
            .map(|c| whyq_query::component_signature(&q, c))
            .collect();
        let prepared = session.prepare(&q).unwrap();
        assert_eq!(keys(&prepared), (q.signature(), want));
        assert_eq!(prepared.count().unwrap(), 1);
        assert_eq!(db.sibling_stats().insertions, 2);
        // a query holding only the city component, under the same ids,
        // replays its count
        let city = q.induced_subquery(&comps[1]);
        assert_eq!(session.prepare(&city).unwrap().count().unwrap(), 1);
        let s = db.sibling_stats();
        assert_eq!((s.hits, s.insertions), (1, 2));
    }

    #[test]
    fn derived_and_refuted_plans_carry_their_own_keys() {
        use whyq_query::{Interval, QVid};
        let mut g = social();
        g.add_vertex([("type", Value::str("robot")), ("age", Value::Int(40))]);
        let db = Database::open(g).unwrap();
        let session = db.session();
        let parent = pair_query();
        session.prepare(&parent).unwrap();
        let mut child = parent.clone();
        child
            .vertex_mut(QVid(1))
            .unwrap()
            .predicate_mut("type")
            .unwrap()
            .interval = Interval::one_of(["person", "robot"]);
        let derived = session.prepare(&child).unwrap();
        assert_eq!(db.sibling_stats().derived_plans, 1, "the plan is derived");
        assert_eq!(keys(&derived), (child.signature(), vec![child.signature()]));
        assert_eq!(derived.count().unwrap(), 1);

        // refuted at compile time: age 90 lies outside the stored range
        let refuted = QueryBuilder::new("old")
            .vertex("p", [Predicate::eq("type", "person")])
            .vertex("r", [Predicate::eq("age", 90)])
            .build();
        let prepared = session.prepare(&refuted).unwrap();
        assert!(prepared.is_unsatisfiable());
        let comps = refuted.weakly_connected_components();
        let want: Vec<String> = comps
            .iter()
            .map(|c| whyq_query::component_signature(&refuted, c))
            .collect();
        assert_eq!(keys(&prepared), (refuted.signature(), want));
        assert_eq!(prepared.signature(), refuted.signature());
    }

    #[test]
    fn an_equal_reprepare_shares_the_plans_query() {
        let db = Database::open(social()).unwrap();
        let session = db.session();
        let q = pair_query();
        let first = session.prepare(&q).unwrap();
        let again = session.prepare(&q).unwrap();
        assert!(Arc::ptr_eq(&first.query, &again.query));
        assert!(Arc::ptr_eq(&again.query, &again.plan.query));
        let mut renamed = q.clone();
        renamed.name = Some("renamed".into());
        let other = session.prepare(&renamed).unwrap();
        assert!(Arc::ptr_eq(&other.plan, &again.plan), "one plan");
        assert!(!Arc::ptr_eq(&other.query, &again.query), "its own query");
    }

    /// Persons aged 20..30, each knowing the next.
    fn ages() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let people: Vec<_> = (20..30)
            .map(|age| g.add_vertex([("type", Value::str("person")), ("age", Value::Int(age))]))
            .collect();
        for w in people.windows(2) {
            g.add_edge(w[0], w[1], "knows", []);
        }
        g
    }

    /// One person aged in `[lo, hi]`.
    fn aged(lo: f64, hi: f64) -> PatternQuery {
        QueryBuilder::new("aged")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("age", lo, hi),
                ],
            )
            .build()
    }

    /// A person aged in `[lo, hi]` who knows a person: another shape.
    fn knows_aged(lo: f64, hi: f64) -> PatternQuery {
        QueryBuilder::new("knows")
            .vertex(
                "p",
                [
                    Predicate::eq("type", "person"),
                    Predicate::between("age", lo, hi),
                ],
            )
            .vertex("q", [Predicate::eq("type", "person")])
            .edge("p", "q", "knows")
            .build()
    }

    /// Prepare `q`; returns (derived, compiled) plans it cost.
    fn prepare_cost(db: &Database, q: &PatternQuery) -> (u64, u64) {
        let (derived, compiled) = (db.sibling_stats().derived_plans, db.compile_count());
        db.session().prepare(q).unwrap();
        (
            db.sibling_stats().derived_plans - derived,
            db.compile_count() - compiled,
        )
    }

    const DERIVED: (u64, u64) = (1, 0);
    const COMPILED: (u64, u64) = (0, 1);

    #[test]
    fn the_newest_same_shape_parent_is_tried_first() {
        let db = Database::open(ages()).unwrap();
        let (older, newer, child) = (aged(21.0, 23.0), aged(22.0, 23.0), aged(21.0, 24.0));
        assert_eq!(prepare_cost(&db, &older), COMPILED);
        assert_eq!(prepare_cost(&db, &knows_aged(20.0, 29.0)), COMPILED);
        assert_eq!(prepare_cost(&db, &newer), DERIVED);
        let parents = |db: &Database| -> Vec<String> {
            let parents = db.lock_cache().parents(shape_hash(&child));
            parents.iter().map(|p| p.signature.to_string()).collect()
        };
        assert_eq!(parents(&db), [newer.signature(), older.signature()]);
        // a hit is a use: the re-prepared plan is now the newest
        db.session().prepare(&older).unwrap();
        assert_eq!(parents(&db), [older.signature(), newer.signature()]);
        assert_eq!(prepare_cost(&db, &child), DERIVED);
    }

    /// A plan derives its one-interval siblings while it is among the
    /// `PARENT_WINDOW` most recently used satisfiable plans, and not once
    /// it falls behind them.
    #[test]
    fn the_derivation_window_holds_the_newest_satisfiable_plans() {
        let child_cost = |fillers: usize| {
            let db = Database::open(ages()).unwrap();
            assert_eq!(prepare_cost(&db, &aged(21.0, 23.0)), COMPILED);
            for i in 0..fillers {
                prepare_cost(&db, &knows_aged(20.0, 29.0 + i as f64));
            }
            prepare_cost(&db, &aged(21.0, 24.0))
        };
        assert_eq!(child_cost(cache::PARENT_WINDOW - 1), DERIVED);
        assert_eq!(child_cost(cache::PARENT_WINDOW), COMPILED);
    }

    #[test]
    fn unsatisfiable_plans_and_unfilled_slots_neither_derive_nor_count() {
        // an unsatisfiable plan is no parent: ages 40..50 are out of range
        let db = Database::open(ages()).unwrap();
        assert!(db
            .session()
            .prepare(&aged(40.0, 50.0))
            .unwrap()
            .is_unsatisfiable());
        assert_eq!(prepare_cost(&db, &aged(21.0, 50.0)), COMPILED);

        // nor do they, or unfilled slots, push a parent out of the window
        let db = Database::open(ages()).unwrap();
        prepare_cost(&db, &aged(21.0, 23.0));
        for i in 0..cache::PARENT_WINDOW - 1 {
            prepare_cost(&db, &knows_aged(20.0, 29.0 + i as f64));
        }
        for i in 0..20 {
            let robot = QueryBuilder::new("robot")
                .vertex("r", [Predicate::eq("type", format!("robot{i}"))])
                .build();
            assert!(db.session().prepare(&robot).unwrap().is_unsatisfiable());
            let old = knows_aged(40.0 + i as f64, 50.0);
            assert!(db.session().prepare(&old).unwrap().is_unsatisfiable());
            let (slot, _) = db.lock_cache().probe(&format!("unfilled {i}"));
            assert!(slot.get().is_none());
        }
        assert_eq!(prepare_cost(&db, &aged(21.0, 24.0)), DERIVED);
    }

    #[test]
    fn disabled_caches_never_derive() {
        for config in [
            DatabaseConfig::default().sibling_cache_capacity(0),
            DatabaseConfig::default().plan_cache_capacity(0),
        ] {
            let db = Database::open_with(ages(), config).unwrap();
            assert_eq!(prepare_cost(&db, &aged(21.0, 23.0)), COMPILED);
            assert_eq!(prepare_cost(&db, &aged(21.0, 24.0)), COMPILED);
        }
    }

    #[test]
    fn close_returns_the_graph() {
        let db = Database::open(social()).unwrap();
        let g = db.close();
        assert_eq!(g.num_vertices(), 3);
    }
}
