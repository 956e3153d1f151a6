//! Deterministic fault injection for the [`crate::engine::executor`]
//! worker pool (compiled only with the `fault-injection` feature).
//!
//! A [`FaultPlan`] maps **ticket ids** (the submission sequence numbers
//! carried by [`crate::engine::executor::Ticket`]; for a fresh executor's
//! first `diff_images` call, ticket `n` is row `n`) to faults a worker
//! triggers the moment it picks that row up. Faults are keyed by the
//! ticket, not the worker, so a plan reproduces the same failure
//! regardless of which thread wins the race for the row — every
//! failure-handling path in the executor has a deterministic test.
//!
//! Tickets are allocated executor-wide, so on a shared
//! [`crate::engine::executor::DiffExecutor`] a ticket id also selects a
//! *job*: submit jobs in a known order and a plan can plant a fault
//! inside one job's ticket range while its neighbours run clean — the
//! job-granularity drills in `tests/pipeline_faults.rs` use exactly this
//! to prove recovery is isolated to the owning job.
//!
//! Each registered fault carries a trigger budget: a fault armed with
//! [`FaultPlan::panic_on_row`] fires exactly once (the retry of that row
//! runs clean), while [`FaultPlan::panic_on_row_times`] can outlast the
//! executor's retry budget to force a
//! [`crate::error::SystolicError::RowFailed`].
//!
//! This module is test infrastructure: it is feature-gated so production
//! builds carry no injection hooks, and the plan is deliberately tiny —
//! the four faults below cover every recovery path the executor has
//! (caught panic → retry, dying thread → respawn + re-enqueue, stall →
//! deadline, poisoned lock → poison-tolerant recovery).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// What a worker does when it draws a planned fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Panic while processing the row. The worker's `catch_unwind` catches
    /// it, discards the (possibly corrupt) array and re-enqueues the row's
    /// chunk for a retry.
    Panic,
    /// Sleep for the given duration while the row counts as in-flight,
    /// emulating a wedged worker; used to exercise deadline handling.
    Stall(Duration),
    /// Panic outside the per-row `catch_unwind` with the row still checked
    /// out, so the worker thread unwinds and ends as a crashed one would.
    /// Its checkout slot must respawn the worker while the thread unwinds
    /// and re-enqueue the orphaned row.
    Die,
    /// Panic while holding the shared state lock (inside an inner
    /// `catch_unwind`, so the worker itself survives), poisoning the mutex;
    /// exercises the poison-tolerant lock handling.
    PoisonLock,
}

/// A deterministic schedule of worker faults, shared between the test and
/// the pool via cheap clones.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    // ticket -> (fault, remaining trigger count)
    inner: Arc<Mutex<HashMap<u64, (Fault, u32)>>>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn arm(self, row: u64, fault: Fault, times: u32) -> Self {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(row, (fault, times));
        self
    }

    /// Arms a one-shot panic on the given ticket id.
    #[must_use]
    pub fn panic_on_row(self, row: u64) -> Self {
        self.arm(row, Fault::Panic, 1)
    }

    /// Arms a panic that fires on the first `times` attempts of the ticket
    /// (use `times > retry_limit` to exhaust the executor's patience).
    #[must_use]
    pub fn panic_on_row_times(self, row: u64, times: u32) -> Self {
        self.arm(row, Fault::Panic, times)
    }

    /// Arms a one-shot stall of the given duration on the ticket.
    #[must_use]
    pub fn stall_on_row(self, row: u64, dur: Duration) -> Self {
        self.arm(row, Fault::Stall(dur), 1)
    }

    /// Arms a one-shot worker death on the ticket.
    #[must_use]
    pub fn die_on_row(self, row: u64) -> Self {
        self.arm(row, Fault::Die, 1)
    }

    /// Arms a one-shot lock poisoning on the ticket.
    #[must_use]
    pub fn poison_on_row(self, row: u64) -> Self {
        self.arm(row, Fault::PoisonLock, 1)
    }

    /// Draws the fault (if any) armed for this ticket, consuming one
    /// trigger. Called by workers as they pick a job up.
    pub(crate) fn take(&self, row: u64) -> Option<Fault> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let (fault, remaining) = inner.get_mut(&row)?;
        debug_assert!(*remaining > 0);
        let drawn = fault.clone();
        *remaining -= 1;
        if *remaining == 0 {
            inner.remove(&row);
        }
        Some(drawn)
    }

    /// Faults still armed (registered triggers not yet drawn).
    #[must_use]
    pub fn armed(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_by_default() {
        let plan = FaultPlan::new().panic_on_row(3);
        assert_eq!(plan.armed(), 1);
        assert!(matches!(plan.take(3), Some(Fault::Panic)));
        assert!(plan.take(3).is_none(), "one-shot fault must not re-fire");
        assert_eq!(plan.armed(), 0);
        assert!(plan.take(4).is_none(), "unarmed rows draw nothing");
    }

    #[test]
    fn multi_shot_faults_count_down() {
        let plan = FaultPlan::new().panic_on_row_times(0, 3);
        for _ in 0..3 {
            assert!(matches!(plan.take(0), Some(Fault::Panic)));
        }
        assert!(plan.take(0).is_none());
    }

    #[test]
    fn clones_share_the_schedule() {
        let plan = FaultPlan::new().die_on_row(1);
        let alias = plan.clone();
        assert!(matches!(alias.take(1), Some(Fault::Die)));
        assert!(plan.take(1).is_none(), "drawn through the clone");
    }
}
