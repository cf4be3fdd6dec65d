//! Resource governance: deadlines, step budgets and cooperative
//! cancellation for pattern evaluation.
//!
//! Worst-case pattern evaluation is intractable (the search space of the
//! backtracking matcher is exponential in the query size), so a serving
//! layer needs *admission control*: every search must be refusable up
//! front, cancellable mid-flight, and bounded in wall-clock time. This
//! module provides the one shared vocabulary for all three:
//!
//! * [`Budget`] — an immutable, cheaply clonable handle bundling an
//!   optional **deadline** (absolute [`Instant`]), an optional **step
//!   budget** (a count of DFS transitions), and an optional external
//!   [`CancelToken`]. The default budget is *unlimited* and costs one
//!   `Option` check per probe.
//! * [`CancelToken`] — an `Arc<AtomicBool>` flag an operator (or another
//!   thread) flips to request cooperative cancellation.
//! * [`Termination`] — how an execution ended: ran to completion, or was
//!   cut short by the deadline, a cancel, or step exhaustion.
//!
//! ## Semantics
//!
//! A `Budget` is **single-run state**: it records the first limit that
//! tripped in a sticky cell, and every later [`Budget::charge`]/
//! [`Budget::poll`] on the same budget (or any clone — clones share
//! state) fails immediately with the same [`Termination`]. Create a fresh
//! budget per logical request; share clones of it across all the
//! evaluations that serve that request so they stop together.
//!
//! Because the trip state lives *in the budget*, governed execution APIs
//! keep their signatures: run the search, then ask
//! [`Budget::termination`] whether the produced results are complete or a
//! partial (prefix-consistent) subset.
//!
//! ## Granularity and overhead
//!
//! The matcher DFS charges the budget in blocks of [`CHECK_INTERVAL`]
//! transitions, so a deadline or cancel is observed within at most one
//! block of extra work and `Instant::now` is off the per-step hot path.
//! Step budgets therefore trip at block granularity inside a run: a
//! budget of `Budget::steps(100)` stops a long search after its first
//! block (1024 steps), not after exactly 100.
//!
//! When a run ends — a count or find finishes, a stream is exhausted or
//! dropped — the matcher charges the transitions no full block covered
//! (`ticks % CHECK_INTERVAL`). Without that, a run shorter than one block
//! would never spend a step budget, and a loop of short counts (a relax
//! search counting each candidate to its first match) would run
//! unbounded. The final charge may trip the budget after the run already
//! produced its exact answer; the run is then tagged non-`Complete`
//! anyway. That is conservative: a non-`Complete` result is never cached
//! as exact, so the worst case is one recount.
//!
//! Long-running *loops* (the relax frontier, MCS path traversal, baseline
//! samplers) additionally [`Budget::poll`] between iterations, so
//! cancellation latency is bounded by one matcher block or one loop
//! iteration, whichever the execution is inside.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many DFS transitions the matcher executes between budget charges.
///
/// Power of two so the tick check compiles to a mask test. Chosen so that
/// even pathological per-step costs keep deadline observation latency in
/// the tens of microseconds while the `Instant::now` syscall amortizes to
/// noise (< 5% overhead is pinned by the `matcher/deadline-overhead`
/// bench).
pub const CHECK_INTERVAL: u32 = 1024;

/// How a governed execution ended.
///
/// `Complete` is the only value for which produced results are the full
/// answer; every other variant tags results as a partial,
/// prefix-consistent subset of what the ungoverned run would return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The search ran to completion; results are exact.
    Complete,
    /// The wall-clock deadline passed mid-search.
    DeadlineExceeded,
    /// The external [`CancelToken`] was flipped.
    Cancelled,
    /// The step budget was consumed (or exhaustion was fault-injected).
    BudgetExhausted,
}

impl Termination {
    /// True iff results produced under this termination are complete.
    pub fn is_complete(self) -> bool {
        matches!(self, Termination::Complete)
    }

    fn code(self) -> u8 {
        match self {
            Termination::Complete => 0,
            Termination::DeadlineExceeded => 1,
            Termination::Cancelled => 2,
            Termination::BudgetExhausted => 3,
        }
    }

    fn from_code(code: u8) -> Termination {
        match code {
            1 => Termination::DeadlineExceeded,
            2 => Termination::Cancelled,
            3 => Termination::BudgetExhausted,
            _ => Termination::Complete,
        }
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Termination::Complete => "complete",
            Termination::DeadlineExceeded => "deadline exceeded",
            Termination::Cancelled => "cancelled",
            Termination::BudgetExhausted => "budget exhausted",
        })
    }
}

/// A shared cancellation flag.
///
/// Clones share the flag: flip it from any thread with
/// [`CancelToken::cancel`] and every budget built
/// [`Budget::with_cancel`]\(token) observes the request at its next
/// charge or poll. Cancellation is cooperative and one-way — there is no
/// un-cancel.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation of every execution governed by this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[derive(Debug)]
struct BudgetInner {
    deadline: Option<Instant>,
    /// Remaining steps; signed so concurrent over-charge saturates
    /// negative instead of wrapping.
    steps: Option<AtomicI64>,
    cancel: Option<CancelToken>,
    /// Sticky first-trip cell: 0 = running, else a `Termination` code.
    tripped: AtomicU8,
}

/// A deadline / step-budget / cancellation bundle governing one logical
/// request.
///
/// See the [module docs](self) for the sharing and stickiness semantics.
/// The default ([`Budget::unlimited`]) imposes no limits and makes every
/// charge a single branch, so ungoverned execution pays essentially
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Option<Arc<BudgetInner>>,
}

impl Budget {
    /// No limits: every charge succeeds, [`Budget::termination`] is
    /// always [`Termination::Complete`].
    pub fn unlimited() -> Self {
        Budget { inner: None }
    }

    /// A wall-clock budget: trips once `timeout` has elapsed from *now*.
    pub fn deadline(timeout: Duration) -> Self {
        Budget::unlimited().with_deadline(timeout)
    }

    /// A step budget: trips once `steps` DFS transitions (or explicit
    /// unit charges) have been consumed. Observed at [`CHECK_INTERVAL`]
    /// granularity inside the matcher.
    pub fn steps(steps: u64) -> Self {
        Budget::unlimited().with_steps(steps)
    }

    /// A budget governed only by an external cancel token.
    pub fn cancelled_by(token: &CancelToken) -> Self {
        Budget::unlimited().with_cancel(token)
    }

    /// Add (or replace) a deadline of `timeout` from now.
    ///
    /// Combinators rebuild the budget, so apply them *before* sharing
    /// clones — clones made earlier do not see the new limit.
    pub fn with_deadline(self, timeout: Duration) -> Self {
        self.rebuild(|inner| inner.deadline = Instant::now().checked_add(timeout))
    }

    /// Add (or replace) a step budget.
    pub fn with_steps(self, steps: u64) -> Self {
        self.rebuild(|inner| inner.steps = Some(AtomicI64::new(steps.min(i64::MAX as u64) as i64)))
    }

    /// Attach an external cancel token (clones of `token` share the flag).
    pub fn with_cancel(self, token: &CancelToken) -> Self {
        let token = token.clone();
        self.rebuild(move |inner| inner.cancel = Some(token))
    }

    fn rebuild(self, apply: impl FnOnce(&mut BudgetInner)) -> Self {
        let mut inner = match self.inner {
            Some(prev) => BudgetInner {
                deadline: prev.deadline,
                steps: prev
                    .steps
                    .as_ref()
                    .map(|s| AtomicI64::new(s.load(Ordering::Relaxed))),
                cancel: prev.cancel.clone(),
                tripped: AtomicU8::new(prev.tripped.load(Ordering::Relaxed)),
            },
            None => BudgetInner {
                deadline: None,
                steps: None,
                cancel: None,
                tripped: AtomicU8::new(0),
            },
        };
        apply(&mut inner);
        Budget {
            inner: Some(Arc::new(inner)),
        }
    }

    /// True when this budget imposes no limits at all.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Consume `steps` units of work and check every limit. `Err` carries
    /// the (sticky) termination cause; once a budget has tripped, every
    /// subsequent charge fails with the same cause.
    pub fn charge(&self, steps: u64) -> Result<(), Termination> {
        let Some(inner) = self.inner.as_deref() else {
            return Ok(());
        };
        let code = inner.tripped.load(Ordering::Acquire);
        if code != 0 {
            return Err(Termination::from_code(code));
        }
        #[cfg(feature = "fault-inject")]
        if crate::fault::charge_exhausted() {
            return Err(self.trip(Termination::BudgetExhausted));
        }
        if let Some(cancel) = &inner.cancel {
            if cancel.is_cancelled() {
                return Err(self.trip(Termination::Cancelled));
            }
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(Termination::DeadlineExceeded));
            }
        }
        if steps > 0 {
            if let Some(remaining) = &inner.steps {
                let steps = steps.min(i64::MAX as u64) as i64;
                if remaining.fetch_sub(steps, Ordering::AcqRel) < steps {
                    return Err(self.trip(Termination::BudgetExhausted));
                }
            }
        }
        Ok(())
    }

    /// Check every limit without consuming steps. Loops that do
    /// non-matcher work (relaxation, path traversal, sampling) call this
    /// between iterations.
    pub fn poll(&self) -> Result<(), Termination> {
        self.charge(0)
    }

    /// Trip this budget with an explicit cause (first trip wins; returns
    /// the cause actually recorded). Used by fault injection and by
    /// executors that want to stop sibling work units after an error.
    pub fn trip(&self, cause: Termination) -> Termination {
        let Some(inner) = self.inner.as_deref() else {
            return Termination::Complete;
        };
        match inner
            .tripped
            .compare_exchange(0, cause.code(), Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => cause,
            Err(prev) => Termination::from_code(prev),
        }
    }

    /// How the governed execution ended *so far*: [`Termination::Complete`]
    /// while no limit has tripped, else the sticky first cause. Inspect
    /// this after running a search to learn whether its results are exact
    /// or a partial prefix.
    pub fn termination(&self) -> Termination {
        match self.inner.as_deref() {
            None => Termination::Complete,
            Some(inner) => Termination::from_code(inner.tripped.load(Ordering::Acquire)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10 {
            assert_eq!(b.charge(u64::MAX), Ok(()));
        }
        assert_eq!(b.termination(), Termination::Complete);
        // tripping an unlimited budget is a no-op
        assert_eq!(b.trip(Termination::Cancelled), Termination::Complete);
        assert_eq!(b.termination(), Termination::Complete);
    }

    #[test]
    fn step_budget_trips_and_sticks() {
        let b = Budget::steps(100);
        assert!(!b.is_unlimited());
        assert_eq!(b.charge(50), Ok(()));
        assert_eq!(b.charge(49), Ok(()));
        assert_eq!(b.charge(10), Err(Termination::BudgetExhausted));
        // sticky: even a zero-cost poll now fails with the same cause
        assert_eq!(b.poll(), Err(Termination::BudgetExhausted));
        assert_eq!(b.termination(), Termination::BudgetExhausted);
    }

    #[test]
    fn elapsed_deadline_trips_immediately() {
        let b = Budget::deadline(Duration::ZERO);
        assert_eq!(b.poll(), Err(Termination::DeadlineExceeded));
        assert_eq!(b.termination(), Termination::DeadlineExceeded);
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::deadline(Duration::from_secs(3600));
        assert_eq!(b.charge(1_000_000), Ok(()));
        assert_eq!(b.termination(), Termination::Complete);
    }

    #[test]
    fn cancel_token_is_shared_by_clones() {
        let token = CancelToken::new();
        let b = Budget::cancelled_by(&token);
        let clone = b.clone();
        assert_eq!(clone.poll(), Ok(()));
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.poll(), Err(Termination::Cancelled));
        // clones share the sticky state
        assert_eq!(clone.termination(), Termination::Cancelled);
    }

    #[test]
    fn first_trip_wins() {
        let b = Budget::steps(1000);
        assert_eq!(
            b.trip(Termination::DeadlineExceeded),
            Termination::DeadlineExceeded
        );
        assert_eq!(
            b.trip(Termination::Cancelled),
            Termination::DeadlineExceeded
        );
        assert_eq!(b.termination(), Termination::DeadlineExceeded);
    }

    #[test]
    fn combinators_stack_and_rebuild() {
        let token = CancelToken::new();
        let b = Budget::steps(10_000)
            .with_deadline(Duration::from_secs(3600))
            .with_cancel(&token);
        assert_eq!(b.charge(1), Ok(()));
        token.cancel();
        assert_eq!(b.charge(1), Err(Termination::Cancelled));
    }
}
