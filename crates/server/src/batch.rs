//! The batching scheduler: a count-driven batcher that waits only for
//! requests that are already on their way.
//!
//! All admitted requests funnel through one mpsc channel into a single
//! batcher thread. `Shared::in_transit` counts the requests admitted but
//! not yet received here, so after the first job of a batch [`collect`]
//! takes exactly what is queued or about to be and dispatches the moment
//! the count reads zero: a lone request on an idle server never waits,
//! and the requests that queued while the previous batch executed form
//! the next one. [`crate::ServerConfig::batch_window`] only bounds the
//! wait for a counted request that is slow to arrive;
//! [`crate::ServerConfig::max_batch`] caps the batch.
//!
//! Every batch, of one or of many, runs through [`Executor::find_batch`]
//! (a batch of one stays on the batcher thread). Its sessions prepare
//! against the database's shared plan cache, whose per-signature slot
//! compiles at most once under any contention, so N concurrent clients
//! sending the same query text cost one compile
//! (`Database::compile_count() == 1`), not N.
//!
//! Each request carries its own `MatchOptions` — its own SLO budget and
//! cancel token — so a slow request degrades *itself*, never its batch
//! siblings, and errors (panics included) stay per-slot. It does hold up
//! the single batcher: a batch occupies it until its slowest member
//! terminates, bounded by that member's SLO deadline.

use crate::Shared;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use whyq_matcher::{MatchOptions, ResultGraph};
use whyq_query::PatternQuery;
use whyq_session::{Executor, Governed, ParallelOpts, WhyqError};

/// One admitted request, queued for the batcher.
pub(crate) struct BatchJob {
    /// The parsed query (shared so the batcher never re-parses).
    pub query: Arc<PatternQuery>,
    /// Per-request options: SLO budget, cancel token, row cap.
    pub opts: MatchOptions,
    /// Where the connection worker waits for the result.
    pub reply: mpsc::Sender<BatchReply>,
}

/// What the batcher sends back for one job.
pub(crate) type BatchReply = Result<Governed<Vec<ResultGraph>>, WhyqError>;

/// Collect the batch that starts with `first`: receive while `in_transit`
/// says an admitted job is queued or still on its way, until `max_batch`
/// jobs are in hand or `window` has passed (a zero `window` takes only
/// what is already queued). Every job taken, `first` included, leaves
/// the count.
fn collect(
    rx: &mpsc::Receiver<BatchJob>,
    first: BatchJob,
    in_transit: &AtomicUsize,
    window: Duration,
    max_batch: usize,
) -> Vec<BatchJob> {
    let mut jobs = vec![first];
    let deadline = Instant::now() + window;
    // `fetch_sub` counts the job just taken out; what is left is on its way
    while in_transit.fetch_sub(1, Ordering::SeqCst) > 1 && jobs.len() < max_batch {
        // past `window` the straggler starts a batch of its own
        let Ok(job) = rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) else {
            break;
        };
        jobs.push(job);
    }
    jobs
}

/// The batcher loop. Exits when every job sender is gone (the server
/// drops its handle at shutdown; connections only hold transient clones).
pub(crate) fn run(shared: &Arc<Shared>, rx: &mpsc::Receiver<BatchJob>) {
    let threads = shared.config.threads;
    let exec = if threads == 0 {
        Executor::from_env()
    } else {
        Executor::new(ParallelOpts::with_threads(threads))
    };
    while let Ok(first) = rx.recv() {
        let jobs = collect(
            rx,
            first,
            &shared.in_transit,
            shared.config.batch_window,
            shared.config.max_batch,
        );
        // observability: count members of same-signature groups of >= 2 —
        // the requests that actually shared a plan inside this batch
        // (a batch of one cannot contain a group)
        if jobs.len() >= 2 {
            let mut by_sig: HashMap<String, u64> = HashMap::new();
            for job in &jobs {
                *by_sig.entry(job.query.signature()).or_insert(0) += 1;
            }
            for group in by_sig.into_values() {
                if group >= 2 {
                    shared.stats.batched.fetch_add(group, Ordering::Relaxed);
                }
            }
        }
        let requests: Vec<(&PatternQuery, MatchOptions)> = jobs
            .iter()
            .map(|job| (&*job.query, job.opts.clone()))
            .collect();
        let results = exec.find_batch(&shared.db, &requests);
        for (job, result) in jobs.into_iter().zip(results) {
            // a worker that stopped waiting (its connection died) just
            // drops the receiver; that is not the batcher's problem
            let _ = job.reply.send(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Duration = Duration::from_secs(30);

    fn job() -> BatchJob {
        BatchJob {
            query: Arc::new(whyq_query::parse_query("(a:person)").unwrap()),
            opts: MatchOptions::default(),
            reply: mpsc::channel().0,
        }
    }

    /// What a connection worker does: count the job in, then send it.
    fn admit(tx: &mpsc::Sender<BatchJob>, in_transit: &AtomicUsize) {
        in_transit.fetch_add(1, Ordering::SeqCst);
        tx.send(job()).unwrap();
    }

    #[test]
    fn a_lone_job_is_dispatched_without_waiting() {
        let (tx, rx) = mpsc::channel();
        let in_transit = AtomicUsize::new(0);
        admit(&tx, &in_transit);
        let started = Instant::now();
        let batch = collect(&rx, rx.recv().unwrap(), &in_transit, LONG, 32);
        assert_eq!(batch.len(), 1);
        assert_eq!(in_transit.load(Ordering::SeqCst), 0);
        assert!(started.elapsed() < LONG / 100, "waited on an idle server");
    }

    #[test]
    fn queued_jobs_come_back_as_one_batch_capped_at_max_batch() {
        let (tx, rx) = mpsc::channel();
        let in_transit = AtomicUsize::new(0);
        for _ in 0..7 {
            admit(&tx, &in_transit);
        }
        // no window at all: what is queued still coalesces
        let batch = collect(&rx, rx.recv().unwrap(), &in_transit, Duration::ZERO, 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(in_transit.load(Ordering::SeqCst), 3);
        let started = Instant::now();
        let batch = collect(&rx, rx.recv().unwrap(), &in_transit, LONG, 4);
        assert_eq!(batch.len(), 3);
        assert_eq!(in_transit.load(Ordering::SeqCst), 0);
        assert!(
            started.elapsed() < LONG / 100,
            "waited with nothing on its way"
        );
    }

    #[test]
    fn a_job_in_transit_is_awaited_and_joins_the_batch() {
        let (tx, rx) = mpsc::channel();
        let in_transit = AtomicUsize::new(0);
        admit(&tx, &in_transit);
        // the second worker has counted its job in but not sent it yet
        in_transit.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let batch = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(job()).unwrap();
            });
            collect(&rx, rx.recv().unwrap(), &in_transit, LONG, 32)
        });
        assert_eq!(batch.len(), 2);
        assert_eq!(in_transit.load(Ordering::SeqCst), 0);
        assert!(started.elapsed() < LONG / 100, "waited past the arrival");
    }

    #[test]
    fn a_job_that_never_arrives_releases_the_batch_at_the_window() {
        let (tx, rx) = mpsc::channel();
        let in_transit = AtomicUsize::new(0);
        admit(&tx, &in_transit);
        admit(&tx, &in_transit);
        in_transit.fetch_add(1, Ordering::SeqCst); // counted in, never sent
        let window = Duration::from_millis(40);
        let started = Instant::now();
        let batch = collect(&rx, rx.recv().unwrap(), &in_transit, window, 32);
        let waited = started.elapsed();
        assert_eq!(batch.len(), 2);
        assert!(waited >= window, "released after {waited:?}");
        assert!(waited < window * 25, "released after {waited:?}");
        // the straggler is still counted; a zero window never waits for it
        assert_eq!(in_transit.load(Ordering::SeqCst), 1);
        admit(&tx, &in_transit);
        let started = Instant::now();
        let batch = collect(&rx, rx.recv().unwrap(), &in_transit, Duration::ZERO, 32);
        assert_eq!(batch.len(), 1);
        assert!(started.elapsed() < window * 25);
    }
}
