//! Deterministic fault injection (compiled only under the
//! `fault-inject` cargo feature).
//!
//! Robustness claims — "a panicking worker cannot take the database
//! down", "a cancelled search returns in bounded time" — are only
//! testable if faults can be produced *on demand, deterministically*.
//! This registry provides process-global injection points that the
//! execution stack consults at well-defined places:
//!
//! * **panic-at-unit-N** — the session executor panics the worker that
//!   pulls work unit `N` of a batch (exercises `catch_unwind` isolation
//!   and `WhyqError::WorkerPanicked` surfacing);
//! * **delay-at-seed-K** — the matcher sleeps before binding the `K`-th
//!   seed vertex bound process-wide since arming (widens race windows so
//!   cancellation can be requested mid-search);
//! * **exhaust-after-charges-K** — every governed [`crate::Budget`]
//!   reports [`crate::Termination::BudgetExhausted`] after `K` charges
//!   (forces the graceful-degradation paths without huge workloads).
//!
//! Plans are armed with [`arm`], which returns a [`FaultGuard`]: the
//! guard holds a process-wide test lock (so concurrently running `#[test]`
//! functions cannot observe each other's faults) and disarms the plan on
//! drop — including when the test itself unwinds from an injected panic.
//!
//! None of this code exists without the feature; the hooks in the matcher
//! and the executor compile to nothing, so production builds carry zero
//! overhead and zero new failure modes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// A deterministic fault plan. `Default` injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Panic the worker that pulls this executor work-unit index.
    pub panic_at_unit: Option<usize>,
    /// Sleep for the given duration before binding the n-th seed vertex
    /// (0-based, counted process-wide since the plan was armed).
    pub delay_at_seed: Option<(u64, Duration)>,
    /// Force every governed budget to report exhaustion after this many
    /// charges (0 = the very first charge trips).
    pub exhaust_after_charges: Option<u64>,
}

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Serializes tests that arm plans (held by [`FaultGuard`]).
static TEST_LOCK: Mutex<()> = Mutex::new(());
static SEEDS_BOUND: AtomicU64 = AtomicU64::new(0);
static CHARGES: AtomicU64 = AtomicU64::new(0);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // An injected panic may unwind a thread while a *caller* of this
    // module holds no lock, but never while these locks are held; recover
    // from poison regardless so one failing test cannot wedge the rest.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn current_plan() -> Option<FaultPlan> {
    lock(&PLAN).clone()
}

/// Arms `plan` for the whole process until the returned guard drops.
/// Also takes (and holds) the fault test lock, serializing tests that
/// inject faults, and resets the injection counters.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let mut guard = FaultGuard {
        _serial: lock(&TEST_LOCK),
    };
    guard.rearm(plan);
    guard
}

/// Disarms the active [`FaultPlan`] (and releases the test lock) on drop.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Swap in `plan` and reset the injection counters, keeping the test
    /// lock. A test that runs several plans in turn holds one guard for
    /// its whole run, so no other test's code can run between them and
    /// absorb a fault meant for this one.
    pub fn rearm(&mut self, plan: FaultPlan) {
        SEEDS_BOUND.store(0, Ordering::SeqCst);
        CHARGES.store(0, Ordering::SeqCst);
        *lock(&PLAN) = Some(plan);
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *lock(&PLAN) = None;
    }
}

/// Executor hook: called with each work-unit index before the unit runs.
pub fn maybe_panic_at_unit(unit: usize) {
    if let Some(plan) = current_plan() {
        if plan.panic_at_unit == Some(unit) {
            panic!("fault-inject: forced panic at work unit {unit}");
        }
    }
}

/// Matcher hook: called each time a seed vertex is bound.
pub fn on_seed_bound() {
    if let Some(plan) = current_plan() {
        if let Some((k, delay)) = plan.delay_at_seed {
            if SEEDS_BOUND.fetch_add(1, Ordering::SeqCst) == k {
                std::thread::sleep(delay);
            }
        }
    }
}

/// Budget hook: true when forced exhaustion should trip this charge.
pub fn charge_exhausted() -> bool {
    match current_plan() {
        Some(FaultPlan {
            exhaust_after_charges: Some(k),
            ..
        }) => CHARGES.fetch_add(1, Ordering::SeqCst) >= k,
        _ => false,
    }
}
