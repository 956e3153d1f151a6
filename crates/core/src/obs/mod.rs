//! Observability for the diff executor: a lock-light [`MetricsRegistry`]
//! and an optional ring-buffered structured trace, owned together by an
//! [`Observer`].
//!
//! The paper's evaluation (§5, Figure 5 / Table 1) is about *measured*
//! iteration behaviour; this module is the substrate that turns such
//! measurements — and every recovery claim the executor makes — into
//! machine-checkable artefacts. Design constraints, in order:
//!
//! 1. **One ledger, always on; the trace is opt-in.** Every executor owns
//!    an [`Observer`] whose registry is the executor's only counter store,
//!    so counts never depend on configuration. The trace ring exists only
//!    under [`crate::DiffExecutorConfig::observe`]; without it,
//!    [`Observer::record`] returns before reading the clock.
//! 2. **Cheap enough to leave on.** Counters and histograms are relaxed
//!    atomics; trace recording is one compare-exchange (retried only when
//!    another thread claimed the same sequence number first) plus an
//!    uncontended per-slot mutex write of a `Copy` value. Nothing on the
//!    hot path allocates or blocks on a shared lock.
//! 3. **Audited, not just emitted.** The registry's counters form a closed
//!    ledger over row outcomes (see [`MetricsRegistry`]) and the trace's
//!    per-row event chain is causally ordered; `tests/observability.rs`
//!    replays deterministic workloads — including fault plans — and
//!    asserts the accounting identities exactly.

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, HistogramSnapshot, Log2Histogram, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{kernel_choice_name, TraceEvent, TraceKind, TraceRing};

use std::time::Instant;

/// Default number of trace events retained before the ring overwrites.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Tuning for an [`Observer`] (see
/// [`crate::DiffExecutorConfig::observe_with`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Trace ring capacity in events ([`DEFAULT_TRACE_CAPACITY`] by
    /// default); older events are overwritten once exceeded.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// The executor's observability state: one metrics registry plus an
/// optional trace ring, sharing an epoch so trace timestamps and latency
/// histograms agree on a clock.
#[derive(Debug)]
pub struct Observer {
    epoch: Instant,
    /// The metrics registry (public so recording sites and tests can reach
    /// individual counters directly).
    pub metrics: MetricsRegistry,
    trace: Option<TraceRing>,
}

impl Observer {
    /// A fresh observer with a trace ring if `trace` is `Some`; the epoch
    /// is now.
    #[must_use]
    pub fn new(trace: Option<ObsConfig>) -> Self {
        Self {
            epoch: Instant::now(),
            metrics: MetricsRegistry::default(),
            trace: trace.map(|config| TraceRing::new(config.trace_capacity)),
        }
    }

    /// Whether a trace ring is attached (callers skip building events in
    /// bulk when it is not).
    #[must_use]
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Nanoseconds since this observer was created (saturating at
    /// `u64::MAX`, ~584 years in).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one trace event stamped with the current time; without a
    /// ring, returns before reading the clock. With one, the ring reads the
    /// clock as it claims the sequence number ([`TraceRing::record`]), so
    /// timestamps never decrease along the sequence.
    #[inline]
    pub fn record(&self, kind: TraceKind) {
        if let Some(trace) = &self.trace {
            trace.record(|| self.now_ns(), kind);
        }
    }

    /// The retained trace, oldest first (see [`TraceRing::events`]); empty
    /// without a ring.
    #[must_use]
    pub fn trace_snapshot(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map_or_else(Vec::new, TraceRing::events)
    }

    /// A point-in-time copy of every metric, including the trace ring's
    /// recorded/dropped totals (0 without a ring).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        if let Some(trace) = &self.trace {
            snapshot.trace_recorded = trace.recorded();
            snapshot.trace_dropped = trace.dropped();
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_round_trip() {
        let obs = Observer::new(Some(ObsConfig { trace_capacity: 8 }));
        obs.metrics.rows_submitted.add(3);
        obs.record(TraceKind::Submit { ticket: 0 });
        obs.record(TraceKind::JobDone { job: 0, rows: 1 });
        let events = obs.trace_snapshot();
        assert_eq!(events.len(), 2);
        assert!(events[0].seq < events[1].seq);
        assert!(events[0].at_ns <= events[1].at_ns, "clock is monotonic");
        let snapshot = obs.metrics_snapshot();
        assert_eq!(snapshot.rows_submitted, 3);
        assert_eq!(snapshot.trace_recorded, 2);
        assert_eq!(snapshot.trace_dropped, 0);
    }

    #[test]
    fn concurrent_records_never_stamp_a_later_seq_earlier() {
        // A thread preempted between reading the clock and claiming its
        // sequence number must not record an older time under a newer
        // number, so `at_ns` is non-decreasing along `seq` however the
        // recording threads interleave.
        const THREADS: usize = 4;
        const EACH: u64 = 10_000;
        let capacity = THREADS * EACH as usize;
        let obs = Observer::new(Some(ObsConfig {
            trace_capacity: capacity,
        }));
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for ticket in 0..EACH {
                        obs.record(TraceKind::Submit { ticket });
                    }
                });
            }
        });
        let events = obs.trace_snapshot();
        assert_eq!(events.len(), capacity);
        let inversions = events
            .windows(2)
            .filter(|pair| pair[0].at_ns > pair[1].at_ns)
            .count();
        assert_eq!(inversions, 0, "at_ns decreased along seq");
    }

    #[test]
    fn default_config_capacity() {
        assert_eq!(ObsConfig::default().trace_capacity, DEFAULT_TRACE_CAPACITY);
    }
}
