//! Parallel execution: a scoped-thread work pool over per-worker sessions.
//!
//! Two workloads run in parallel: the requests of a server batch
//! (inter-query parallelism, [`Executor::find_batch`]) and, for one big
//! query, the independent seed subranges of a large weakly connected
//! component (intra-query parallelism, the `whyq-matcher` work model, used
//! by the session's component loop when a [`ParallelOpts`] is passed). Both shapes reduce
//! to "run N pure tasks against one shared [`Database`]", which is
//! exactly what [`Executor`] provides, with no dependencies beyond
//! `std::thread::scope`.
//!
//! ## The `Send + Sync` contract
//!
//! [`Database`] is `Send + Sync` **by design** (asserted at compile time in
//! `whyq-session`): the sealed graph and the prebuilt indexes are immutable
//! after open, and the only mutable shared state — the plan cache — is
//! behind a `Mutex` whose per-signature slots compile at most once (see
//! [`crate::cache::PlanCache`]). All mutable *search* state lives in
//! per-worker [`Session`](crate::Session)s: every worker thread creates
//! its own session (and with it its own matcher scratch arena), so
//! workers never contend on anything but the plan-cache and sibling-store
//! locks, which are held only for probes and inserts, never across a
//! compile or a search.
//!
//! ## Determinism
//!
//! Task *results* are returned in task order regardless of which worker
//! ran what, so batch APIs are deterministic functions of their inputs.
//! Result *order within* a parallel `find_par` is unspecified (documented
//! on the method); counts and result multisets always equal their serial
//! counterparts.

use crate::{Database, Governed, WhyqError};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use whyq_matcher::{split_ranges, MatchOptions, ResultGraph, Termination};
use whyq_query::PatternQuery;

/// Render a caught panic payload for [`WhyqError::WorkerPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Default seed-range split floor: a component whose seed list is smaller
/// than this is evaluated as a single unit — below it, thread start-up
/// outweighs the search.
pub const DEFAULT_MIN_SEEDS_PER_SPLIT: usize = 64;

/// Tuning knobs of parallel evaluation.
///
/// `threads == 1` means strictly serial execution on the calling thread
/// (no pool, no spawns) — the safe default everywhere determinism of
/// *timing* matters. `threads > 1` enables the scoped pool; correctness
/// is unaffected either way (`parallel == serial` is property-tested).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelOpts {
    /// Worker threads to run tasks on (capped at the task count). `0` is
    /// treated as 1.
    pub threads: usize,
    /// Do not shard a component whose seed list holds fewer candidates
    /// than this; it runs as one work unit instead.
    pub min_seeds_per_split: usize,
}

impl ParallelOpts {
    /// Strictly serial execution (1 thread, no spawns).
    pub fn serial() -> Self {
        ParallelOpts {
            threads: 1,
            min_seeds_per_split: DEFAULT_MIN_SEEDS_PER_SPLIT,
        }
    }

    /// `threads` workers with the default split floor.
    pub fn with_threads(threads: usize) -> Self {
        ParallelOpts {
            threads,
            min_seeds_per_split: DEFAULT_MIN_SEEDS_PER_SPLIT,
        }
    }

    /// Thread count from the environment: the `WHYQ_THREADS` variable when
    /// set, otherwise [`std::thread::available_parallelism`]. A malformed
    /// `WHYQ_THREADS` value is rejected **loudly**: a warning naming the
    /// bad value is printed to stderr (once — the lookup is memoized) and
    /// the hardware default is used, instead of the misconfiguration
    /// silently passing as "unset". `WHYQ_THREADS=1` (or a single-core
    /// machine) disables parallel execution engine-wide. The lookup is
    /// performed once per process and memoized — hot loops calling
    /// `find_par()` (whose default options come from here) pay no
    /// repeated env reads.
    pub fn from_env() -> Self {
        static ENV_THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *ENV_THREADS.get_or_init(|| {
            let fallback =
                || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            match std::env::var("WHYQ_THREADS") {
                Ok(raw) => parse_threads(&raw).unwrap_or_else(|| {
                    eprintln!(
                        "whyq-session: ignoring malformed WHYQ_THREADS={raw:?} \
                         (expected a positive integer); using {} worker(s)",
                        fallback()
                    );
                    fallback()
                }),
                Err(_) => fallback(),
            }
            .max(1)
        });
        ParallelOpts {
            threads,
            min_seeds_per_split: DEFAULT_MIN_SEEDS_PER_SPLIT,
        }
    }

    /// Override the split floor (builder style).
    pub fn min_seeds_per_split(mut self, min: usize) -> Self {
        self.min_seeds_per_split = min;
        self
    }

    /// Effective worker count (`0` is treated as 1).
    pub fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The split decision for one component of `seeds` seed candidates:
    /// the seed ranges to shard it into, or `None` when it should run as
    /// one inline unit — a 1-thread configuration, or fewer than
    /// `2 × min_seeds_per_split` seeds, the threshold below which thread
    /// start-up outweighs the search. Shards oversubscribe the pool 4× so
    /// an unlucky chunk doesn't idle it; each still holds at least
    /// `min_seeds_per_split` seeds.
    pub(crate) fn shard_ranges(&self, seeds: usize) -> Option<Vec<Range<usize>>> {
        let floor = self.min_seeds_per_split.max(1);
        let threads = self.effective_threads();
        (threads > 1 && seeds >= floor.saturating_mul(2)).then(|| {
            let chunks = (seeds / floor).min(threads.saturating_mul(4));
            split_ranges(seeds, chunks)
        })
    }
}

impl Default for ParallelOpts {
    /// The environment-derived configuration — see [`ParallelOpts::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

/// Parse a `WHYQ_THREADS` value: a non-negative integer (surrounding
/// whitespace tolerated; `0` keeps its documented "treated as 1"
/// meaning). `None` marks the value malformed.
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok()
}

/// A dependency-free scoped-thread task pool bound to a [`ParallelOpts`].
///
/// Every batch call spawns up to `threads` scoped workers that pull task
/// indices off a shared atomic counter and write results into per-task
/// slots; the scope joins before returning, so borrowed inputs (the
/// database, the query list) need no `'static` lifetimes and a panicking
/// task propagates to the caller instead of being lost. With `threads <=
/// 1` (or a single task) every batch runs inline on the calling thread —
/// serial fallback is the absence of the pool, not a special mode.
///
/// Spawn-per-batch is a deliberate trade: a persistent pool over borrowed
/// data would need `'static` task plumbing (or unsafe), while a scoped
/// spawn costs on the order of ten microseconds per worker. Batches
/// should therefore carry at least ~100µs of work each — which is what
/// `min_seeds_per_split` enforces for seed sharding.
///
/// See the [module docs](self) for the `Database: Send + Sync` contract
/// and determinism guarantees.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    opts: ParallelOpts,
}

impl Executor {
    /// Executor over explicit options.
    pub fn new(opts: ParallelOpts) -> Self {
        Executor { opts }
    }

    /// Executor configured from the environment ([`ParallelOpts::from_env`]).
    pub fn from_env() -> Self {
        Executor::new(ParallelOpts::from_env())
    }

    /// Strictly serial executor (all batches run inline).
    pub fn serial() -> Self {
        Executor::new(ParallelOpts::serial())
    }

    /// The configured options.
    pub fn opts(&self) -> &ParallelOpts {
        &self.opts
    }

    /// Effective worker count.
    pub fn threads(&self) -> usize {
        self.opts.effective_threads()
    }

    /// True when batches may actually run on more than one thread.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// Enumerate every request of `requests` against `db`, returning
    /// per-request **governed** results in request order. Each worker owns
    /// one session, so same-signature requests share the database's plan
    /// cache — under any contention exactly one of them compiles the plan
    /// (the [`crate::cache::PlanSlot`] guarantee) and the rest execute the
    /// shared bytecode. This is the batched form a serving layer coalesces
    /// same-signature traffic through: each request still carries its own
    /// [`MatchOptions`] (its own [`whyq_matcher::Budget`], its own limit),
    /// so one slow client's deadline never governs its batch siblings.
    ///
    /// Errors are **per-slot**: a request that fails — including by
    /// panicking its worker, caught and reported as
    /// [`WhyqError::WorkerPanicked`] in that slot — never poisons its
    /// siblings' results; only an executor-level stop (a panic in worker
    /// setup) fails every slot wholesale. A budget that trips mid-search
    /// is *not* an error here: the slot holds the partial results tagged with
    /// their [`Termination`], the degraded-but-servable contract.
    pub fn find_batch(
        &self,
        db: &Database,
        requests: &[(&PatternQuery, MatchOptions)],
    ) -> Vec<Result<Governed<Vec<ResultGraph>>, WhyqError>> {
        let dispatched = self.dispatch(
            requests.len(),
            || db.session(),
            |session, i| {
                let (query, opts) = &requests[i];
                catch_unwind(AssertUnwindSafe(|| {
                    session.find_governed(query, opts.clone())
                }))
                .unwrap_or_else(|payload| {
                    Err(WhyqError::WorkerPanicked {
                        message: panic_message(payload.as_ref()),
                    })
                })
            },
        );
        match dispatched {
            Ok(slots) => slots,
            // an executor-level stop has no per-slot results to salvage
            Err(e) => requests.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    /// Run `task(state, i)` for `i in 0..n` across the pool, where each
    /// worker initializes its own `state` once (e.g. a [`Session`](crate::Session)) and
    /// reuses it for every task it pulls. Results come back in task order.
    ///
    /// Robustness contract: every task (and every worker's `init`) runs
    /// under [`catch_unwind`], so a panic is confined to its work unit.
    /// The first panic is recorded, every worker
    /// stops pulling new tasks, and the batch returns `Err`; the shared
    /// [`Database`] and all other sessions stay untouched and usable
    /// (per-search scratch state is re-prepared from scratch on every
    /// search, so nothing leaks out of an abandoned unit).
    pub(crate) fn dispatch<S, T, Init, Task>(
        &self,
        n: usize,
        init: Init,
        task: Task,
    ) -> Result<Vec<T>, WhyqError>
    where
        T: Send + Sync,
        Init: Fn() -> S + Sync,
        Task: Fn(&mut S, usize) -> T + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let first_error: OnceLock<WhyqError> = OnceLock::new();
        let stop = AtomicBool::new(false);
        let worker = |next: &AtomicUsize| {
            let mut state = match catch_unwind(AssertUnwindSafe(&init)) {
                Ok(state) => state,
                Err(payload) => {
                    let _ = first_error.set(WhyqError::WorkerPanicked {
                        message: panic_message(payload.as_ref()),
                    });
                    stop.store(true, Ordering::Release);
                    return;
                }
            };
            loop {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                #[cfg(feature = "fault-inject")]
                let run = catch_unwind(AssertUnwindSafe(|| {
                    whyq_matcher::fault::maybe_panic_at_unit(i);
                    task(&mut state, i)
                }));
                #[cfg(not(feature = "fault-inject"))]
                let run = catch_unwind(AssertUnwindSafe(|| task(&mut state, i)));
                match run {
                    Ok(value) => {
                        let _ = slots[i].set(value);
                    }
                    Err(payload) => {
                        // first error wins; siblings see `stop` and quit.
                        // The worker's own state may be mid-search — drop
                        // it rather than reuse it.
                        let _ = first_error.set(WhyqError::WorkerPanicked {
                            message: panic_message(payload.as_ref()),
                        });
                        stop.store(true, Ordering::Release);
                        break;
                    }
                }
            }
        };
        let workers = self.threads().min(n);
        if workers <= 1 {
            let next = AtomicUsize::new(0);
            worker(&next);
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| worker(&next));
                }
            });
        }
        if let Some(e) = first_error.into_inner() {
            return Err(e);
        }
        slots
            .into_iter()
            .map(|s| {
                // no recorded error ⇒ every index was pulled and completed
                s.into_inner().ok_or(WhyqError::Interrupted {
                    termination: Termination::Cancelled,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_batch_preserves_order() {
        use whyq_graph::{PropertyGraph, Value};
        use whyq_query::{Predicate, QVid, QueryBuilder};
        let mut g = PropertyGraph::new();
        let vs: Vec<_> = (0..100)
            .map(|i| g.add_vertex([("x", Value::Int(i))]))
            .collect();
        let db = Database::open(g).unwrap();
        // request i matches exactly vertex i
        let queries: Vec<PatternQuery> = (0..100i64)
            .map(|i| {
                QueryBuilder::new("x")
                    .vertex("v", [Predicate::eq("x", i)])
                    .build()
            })
            .collect();
        let requests: Vec<_> = queries
            .iter()
            .map(|q| (q, MatchOptions::default()))
            .collect();
        for threads in [1usize, 2, 8] {
            let exec = Executor::new(ParallelOpts::with_threads(threads));
            let bound: Vec<_> = exec
                .find_batch(&db, &requests)
                .into_iter()
                .map(|slot| slot.unwrap().value[0].vertex(QVid(0)).unwrap())
                .collect();
            assert_eq!(bound, vs, "{threads} threads");
        }
        assert!(Executor::serial().find_batch(&db, &[]).is_empty());
    }

    #[test]
    fn parse_threads_accepts_integers_and_rejects_noise() {
        // well-formed: plain integers, surrounding whitespace, the
        // documented "0 treated as 1" value
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads("  16\n"), Some(16));
        assert_eq!(parse_threads("0"), Some(0));
        // malformed: empty, signs, fractions, words, embedded garbage
        for bad in ["", "  ", "-2", "2.5", "four", "8 cores", "0x10"] {
            assert_eq!(parse_threads(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn shard_ranges_respect_threads_and_the_split_floor() {
        let par = ParallelOpts::with_threads(4).min_seeds_per_split(8);
        assert_eq!(par.shard_ranges(15), None, "below 2 x floor: inline");
        let ranges = par.shard_ranges(64).expect("large enough to shard");
        assert_eq!(ranges.len(), 8, "64 / 8 chunks, under the 4 x 4 cap");
        assert!(ranges.iter().all(|r| r.len() >= 8));
        assert_eq!(par.shard_ranges(10_000).map(|r| r.len()), Some(16));
        assert_eq!(ParallelOpts::serial().shard_ranges(10_000), None);
        // a zero floor is treated as 1
        let eager = ParallelOpts::with_threads(2).min_seeds_per_split(0);
        assert_eq!(eager.shard_ranges(2).map(|r| r.len()), Some(2));
        assert_eq!(eager.shard_ranges(1), None);
    }

    #[test]
    fn opts_floor_zero_threads_to_one() {
        let opts = ParallelOpts {
            threads: 0,
            min_seeds_per_split: 0,
        };
        let exec = Executor::new(opts);
        assert_eq!(exec.threads(), 1);
        assert!(!exec.is_parallel());
        assert_eq!(ParallelOpts::serial().effective_threads(), 1);
        assert!(ParallelOpts::from_env().effective_threads() >= 1);
    }
}
