//! Server observability counters.
//!
//! Every decision the serving layer makes — admit, shed, batch, degrade,
//! cancel — increments a lock-free counter here, and the whole set is
//! exposed two ways: over the wire through the `STATS` command and
//! in-process through [`crate::Server::stats`]. These are the inputs any
//! future *adaptive* admission controller needs (shed rate vs. queue
//! depth is the classic control signal), so the counters are first-class
//! protocol surface, not debug logging.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counter block shared by every connection, the batcher and
/// the accept loop. All counters are monotone except the two gauges
/// (`queue_depth`, `open_connections`).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections ever accepted.
    pub(crate) connections: AtomicU64,
    /// Connections fully torn down (reader and worker exited).
    pub(crate) disconnects: AtomicU64,
    /// Requests admitted past admission control.
    pub(crate) admitted: AtomicU64,
    /// Requests refused by admission control (`ROWS 0 shed`).
    pub(crate) shed: AtomicU64,
    /// Requests that ran inside a same-signature batch group of ≥ 2.
    pub(crate) batched: AtomicU64,
    /// Admitted requests answered `complete`.
    pub(crate) completed: AtomicU64,
    /// Admitted requests answered with a partial (`deadline`/`budget`).
    pub(crate) degraded: AtomicU64,
    /// Admitted requests answered `cancelled` (client `CANCEL` or a
    /// dropped connection tripping its token).
    pub(crate) cancelled: AtomicU64,
    /// Requests that ended in an engine error (`ERR internal`, …).
    pub(crate) failed: AtomicU64,
    /// Frames answered with any `ERR` protocol response.
    pub(crate) protocol_errors: AtomicU64,
    /// Gauge: requests admitted but not yet answered.
    pub(crate) queue_depth: AtomicU64,
    /// Gauge: currently open connections.
    pub(crate) open_connections: AtomicU64,
}

impl ServerStats {
    pub(crate) fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission: reserve a queue slot unless `bound` requests are already
    /// in flight. Check and increment are one atomic update, so racing
    /// connections can never push the gauge past `bound`.
    pub(crate) fn try_enter_queue(&self, bound: u64) -> bool {
        self.queue_depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |depth| {
                (depth < bound).then_some(depth + 1)
            })
            .is_ok()
    }

    pub(crate) fn leave_queue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::AcqRel);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batched: self.batched.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Acquire),
            open_connections: self.open_connections.load(Ordering::Acquire),
            // engine-side counters; merged in by `Shared::stats_snapshot`
            // via `StatsSnapshot::with_sibling`
            sibling_hits: 0,
            sibling_invalidations: 0,
        }
    }
}

/// A point-in-time copy of the server counters — what `STATS` renders and
/// what tests assert on. Field order is the wire order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections ever accepted.
    pub connections: u64,
    /// Connections fully torn down.
    pub disconnects: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Requests that ran inside a same-signature batch group of ≥ 2.
    pub batched: u64,
    /// Admitted requests answered `complete`.
    pub completed: u64,
    /// Admitted requests answered with a deadline/budget partial.
    pub degraded: u64,
    /// Admitted requests answered `cancelled`.
    pub cancelled: u64,
    /// Admitted requests that ended in an engine error.
    pub failed: u64,
    /// Frames answered with an `ERR` response.
    pub protocol_errors: u64,
    /// Gauge: requests admitted but not yet answered.
    pub queue_depth: u64,
    /// Gauge: currently open connections.
    pub open_connections: u64,
    /// Component results replayed from the database's sibling cache
    /// instead of re-executed (see `whyq_session::SiblingStats`).
    pub sibling_hits: u64,
    /// Component units a sibling's delta invalidated (re-executed while
    /// the rest of their query replayed) plus generation-bump drops.
    pub sibling_invalidations: u64,
}

impl StatsSnapshot {
    /// The `(name, value)` pairs in wire order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("connections", self.connections),
            ("disconnects", self.disconnects),
            ("admitted", self.admitted),
            ("shed", self.shed),
            ("batched", self.batched),
            ("completed", self.completed),
            ("degraded", self.degraded),
            ("cancelled", self.cancelled),
            ("failed", self.failed),
            ("protocol_errors", self.protocol_errors),
            ("queue_depth", self.queue_depth),
            ("open_connections", self.open_connections),
            ("sibling_hits", self.sibling_hits),
            ("sibling_invalidations", self.sibling_invalidations),
        ]
    }

    /// Render the `STATS` response payload.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("STATS");
        for (name, value) in self.fields() {
            let _ = write!(out, "\n{name}={value}");
        }
        out
    }

    /// This snapshot with the database's sibling-cache counters merged
    /// in — the engine-side half of the `STATS` surface. The server's own
    /// counters live in [`ServerStats`] atomics; the sibling counters
    /// live in the shared `Database`, so the merge happens at render
    /// time.
    pub fn with_sibling(mut self, hits: u64, invalidations: u64) -> StatsSnapshot {
        self.sibling_hits = hits;
        self.sibling_invalidations = invalidations;
        self
    }

    /// Rebuild a snapshot from parsed `STATS` counter lines (the client
    /// side). Unknown counters are ignored so old clients keep working
    /// when the server grows new ones.
    pub fn from_counters(counters: &[(String, u64)]) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for (name, value) in counters {
            match name.as_str() {
                "connections" => s.connections = *value,
                "disconnects" => s.disconnects = *value,
                "admitted" => s.admitted = *value,
                "shed" => s.shed = *value,
                "batched" => s.batched = *value,
                "completed" => s.completed = *value,
                "degraded" => s.degraded = *value,
                "cancelled" => s.cancelled = *value,
                "failed" => s.failed = *value,
                "protocol_errors" => s.protocol_errors = *value,
                "queue_depth" => s.queue_depth = *value,
                "open_connections" => s.open_connections = *value,
                "sibling_hits" => s.sibling_hits = *value,
                "sibling_invalidations" => s.sibling_invalidations = *value,
                _ => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_reply, Reply};

    #[test]
    fn snapshot_round_trips_through_the_wire_rendering() {
        let stats = ServerStats::default();
        ServerStats::incr(&stats.admitted);
        ServerStats::incr(&stats.admitted);
        ServerStats::incr(&stats.shed);
        assert!(stats.try_enter_queue(1));
        let snap = stats.snapshot();
        assert_eq!((snap.admitted, snap.shed, snap.queue_depth), (2, 1, 1));
        stats.leave_queue();
        assert_eq!(stats.snapshot().queue_depth, 0);

        let rendered = snap.render();
        let Reply::Stats(counters) = parse_reply(&rendered).unwrap() else {
            panic!("STATS payload should parse as a stats reply");
        };
        assert_eq!(StatsSnapshot::from_counters(&counters), snap);
    }

    #[test]
    fn racing_admissions_never_exceed_the_bound() {
        const BOUND: u64 = 3;
        const THREADS: usize = 16;
        let stats = ServerStats::default();
        let barrier = std::sync::Barrier::new(THREADS);
        for _round in 0..50 {
            let admitted: usize = std::thread::scope(|s| {
                let racers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            let won = stats.try_enter_queue(BOUND);
                            assert!(stats.snapshot().queue_depth <= BOUND);
                            // nobody leaves until every racer has tried
                            barrier.wait();
                            if won {
                                stats.leave_queue();
                            }
                            usize::from(won)
                        })
                    })
                    .collect();
                racers
                    .into_iter()
                    .map(|t| t.join().expect("racer panicked"))
                    .sum()
            });
            assert_eq!(admitted as u64, BOUND);
            assert_eq!(stats.snapshot().queue_depth, 0);
        }
    }
}
