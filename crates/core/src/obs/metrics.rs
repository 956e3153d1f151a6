//! Lock-light metrics primitives and the pipeline's registry.
//!
//! Everything here is built from `AtomicU64`/`AtomicI64` with relaxed
//! ordering: a recording site is one `fetch_add` (two for a histogram),
//! never a lock, so workers can update counters from the hot path without
//! serialising on each other. Reads ([`MetricsRegistry::snapshot`]) are
//! racy-by-design — each atomic is loaded independently — which is the
//! standard metrics trade-off; the invariant-audit suite therefore always
//! snapshots a *quiescent* pipeline (drained, no rows in flight), where
//! the accounting identities must hold exactly.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, rows in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value outright (used where the true value is known under a
    /// lock, so concurrent inc/dec drift cannot accumulate).
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`. Callers must pair every `add` with a matching [`Self::sub`]
    /// inside the same critical section that mutates the mirrored
    /// structure (the sharded queues do this per shard lock), so the gauge
    /// can drift neither negative nor away from the ledger.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (see [`Self::add`] for the pairing discipline).
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Buckets in a [`Log2Histogram`]: bucket 0 holds exact zeros, bucket `i`
/// (1 ≤ i ≤ 63) holds values in `[2^(i-1), 2^i)`, and bucket 64 holds the
/// top of the `u64` range — every value has exactly one bucket, so the
/// bucket sum always equals the count (an identity the audit suite
/// asserts).
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket base-2 histogram: one `fetch_add` on the bucket plus one
/// on each of count and sum per record — no allocation, no lock, no
/// dynamic bucket search beyond a `leading_zeros`.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [(); LOG2_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
#[must_use]
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Log2Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state out.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one [`Log2Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`LOG2_BUCKETS`] for the edges).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Sum over the buckets — must equal [`Self::count`] on a quiescent
    /// registry (the audit suite's first identity).
    #[must_use]
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Inclusive upper edge of bucket `i` (`0`, then `2^i − 1`), rendered
    /// for the Prometheus `le` label.
    #[must_use]
    pub fn bucket_edge(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }
}

/// Every metric the diff pipeline maintains when observation is enabled.
///
/// The counters form a closed ledger over row outcomes, which is what
/// makes the layer *testable* rather than merely emitted:
///
/// * `rows_diffed` — kernel executions that produced a diff (worker side;
///   counts **attempts that completed**, including ones later discarded by
///   a chunk crash);
/// * `rows_discarded` — completed row results thrown away because a later
///   row crashed their chunk (the chunk re-runs whole, so these rows are
///   diffed again);
/// * `rows_completed` / `rows_errored` — outcomes actually unpacked from
///   the result channel (collector side);
/// * `rows_inline_diffed` — kernel executions performed host-side by the
///   prefilter's inline-residual shortcut: real diffs through the same
///   kernels (so they count in the kernel mix and the row histograms) but
///   never submitted, so they appear in no queue/submit/complete ledger.
///
/// Quiescent identities (asserted by `tests/observability.rs`):
///
/// * `rows_fast_path + rows_rle_kernel + rows_packed_kernel +
///   rows_systolic_kernel == rows_diffed + rows_inline_diffed`
/// * `row_latency_ns.count == row_runs.count ==
///   rows_diffed + rows_inline_diffed`
/// * `rows_diffed == rows_completed + rows_discarded` (absent kernel
///   errors, which `diff_images`' dimension check rules out)
/// * `rows_submitted == rows_completed + rows_errored + rows_abandoned`
///   (every accepted row is either delivered, delivered-as-error, or
///   written off by a deadline abort — no row is silently lost)
/// * `chunk_latency_ns.count == chunks_completed`
/// * `retries`/`respawns`/`timeouts` equal both the matching trace-event
///   counts and the pipeline's `SupervisionCounters`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Row pairs accepted by `submit` or a batch front-end.
    pub rows_submitted: Counter,
    /// Row outcomes unpacked from the result channel with an `Ok` diff.
    pub rows_completed: Counter,
    /// Row outcomes unpacked from the result channel with an `Err`.
    pub rows_errored: Counter,
    /// Successful kernel executions (worker side, per attempt).
    pub rows_diffed: Counter,
    /// Kernel executions that returned a per-row error (worker side).
    pub rows_kernel_errors: Counter,
    /// Completed row results discarded because their chunk crashed.
    pub rows_discarded: Counter,
    /// Rows written off when a batch was aborted on a deadline: queued
    /// rows dropped before any worker ran them, plus rows still checked
    /// out behind the ticket watermark. The monotonic mirror of
    /// [`crate::DiffExecutor::abandoned`] (a level that drains back to 0
    /// as stale results arrive; this counter never decreases).
    pub rows_abandoned: Counter,
    /// Rows resolved host-side by the signature prefilter: matching row
    /// signatures short-circuited them to an empty diff before planning, so
    /// they appear in **no** other row ledger (not submitted, not diffed,
    /// not completed). Total rows presented to a batch front-end is
    /// `rows_submitted + rows_sig_skipped` when the prefilter is on.
    pub rows_sig_skipped: Counter,
    /// Rows the prefilter's inline-residual shortcut diffed host-side
    /// (small leftovers after a batch of skips; never submitted to the
    /// pool). Counted in the kernel-mix counters and row histograms, but
    /// not in `rows_diffed` (worker side) or the submit/complete ledgers.
    pub rows_inline_diffed: Counter,
    /// Rows short-circuited by the trivial fast path.
    pub rows_fast_path: Counter,
    /// Rows diffed by the RLE merge kernel.
    pub rows_rle_kernel: Counter,
    /// Rows diffed by the packed word-XOR kernel.
    pub rows_packed_kernel: Counter,
    /// Rows diffed by the systolic simulation kernel.
    pub rows_systolic_kernel: Counter,
    /// Chunks handed to the scheduler queue (batch planning + streaming
    /// submits; retries do not re-count).
    pub chunks_dispatched: Counter,
    /// Chunks a worker carried to completion and sent back.
    pub chunks_completed: Counter,
    /// Chunks a worker popped from another worker's shard (work-stealing
    /// on the sharded scheduler; a measure of tail imbalance).
    pub chunks_stolen: Counter,
    /// Chunk re-enqueues after a panic or worker death (mirrors
    /// `SupervisionCounters::retries`).
    pub retries: Counter,
    /// Worker threads replaced by the supervisor (mirrors
    /// `SupervisionCounters::respawns`).
    pub respawns: Counter,
    /// Deadline expiries observed by collectors (mirrors
    /// `SupervisionCounters::timeouts`).
    pub timeouts: Counter,
    /// Batch front-end calls (`diff_images` / `diff_images_shared`).
    pub batches: Counter,
    /// Ledgered jobs accepted by the executor (`submit_job` /
    /// `submit_pair`; the streaming job is not ledgered). Quiescent
    /// identity: `jobs_submitted == jobs_completed + jobs_abandoned`.
    pub jobs_submitted: Counter,
    /// Ledgered jobs whose every row was delivered.
    pub jobs_completed: Counter,
    /// Ledgered jobs written off by `JobHandle::abandon` before all rows
    /// were delivered.
    pub jobs_abandoned: Counter,
    /// Jobs currently sitting in the scheduler queue.
    pub queue_depth: Gauge,
    /// Rows submitted but not yet handed back to the caller.
    pub in_flight: Gauge,
    /// Wall-clock nanoseconds per successful row diff (worker side).
    pub row_latency_ns: Log2Histogram,
    /// Wall-clock nanoseconds per completed chunk (worker side).
    pub chunk_latency_ns: Log2Histogram,
    /// `k1 + k2` input-run count per successfully diffed row.
    pub row_runs: Log2Histogram,
}

impl MetricsRegistry {
    /// Copies every metric out. `trace_recorded`/`trace_dropped` are owned
    /// by the trace ring; [`crate::obs::Observer::metrics_snapshot`] fills
    /// them in.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            rows_submitted: self.rows_submitted.get(),
            rows_completed: self.rows_completed.get(),
            rows_errored: self.rows_errored.get(),
            rows_diffed: self.rows_diffed.get(),
            rows_kernel_errors: self.rows_kernel_errors.get(),
            rows_discarded: self.rows_discarded.get(),
            rows_abandoned: self.rows_abandoned.get(),
            rows_sig_skipped: self.rows_sig_skipped.get(),
            rows_inline_diffed: self.rows_inline_diffed.get(),
            rows_fast_path: self.rows_fast_path.get(),
            rows_rle_kernel: self.rows_rle_kernel.get(),
            rows_packed_kernel: self.rows_packed_kernel.get(),
            rows_systolic_kernel: self.rows_systolic_kernel.get(),
            chunks_dispatched: self.chunks_dispatched.get(),
            chunks_completed: self.chunks_completed.get(),
            chunks_stolen: self.chunks_stolen.get(),
            retries: self.retries.get(),
            respawns: self.respawns.get(),
            timeouts: self.timeouts.get(),
            batches: self.batches.get(),
            jobs_submitted: self.jobs_submitted.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_abandoned: self.jobs_abandoned.get(),
            queue_depth: self.queue_depth.get(),
            in_flight: self.in_flight.get(),
            row_latency_ns: self.row_latency_ns.snapshot(),
            chunk_latency_ns: self.chunk_latency_ns.snapshot(),
            row_runs: self.row_runs.snapshot(),
            trace_recorded: 0,
            trace_dropped: 0,
        }
    }
}

/// A point-in-time copy of the whole registry, with machine-readable
/// exposition in two formats: Prometheus text ([`Self::to_prometheus`])
/// and JSON ([`Self::to_json`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on MetricsRegistry
pub struct MetricsSnapshot {
    pub rows_submitted: u64,
    pub rows_completed: u64,
    pub rows_errored: u64,
    pub rows_diffed: u64,
    pub rows_kernel_errors: u64,
    pub rows_discarded: u64,
    pub rows_abandoned: u64,
    pub rows_sig_skipped: u64,
    pub rows_inline_diffed: u64,
    pub rows_fast_path: u64,
    pub rows_rle_kernel: u64,
    pub rows_packed_kernel: u64,
    pub rows_systolic_kernel: u64,
    pub chunks_dispatched: u64,
    pub chunks_completed: u64,
    pub chunks_stolen: u64,
    pub retries: u64,
    pub respawns: u64,
    pub timeouts: u64,
    pub batches: u64,
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub jobs_abandoned: u64,
    pub queue_depth: i64,
    pub in_flight: i64,
    pub row_latency_ns: HistogramSnapshot,
    pub chunk_latency_ns: HistogramSnapshot,
    pub row_runs: HistogramSnapshot,
    /// Trace events recorded since the observer was created.
    pub trace_recorded: u64,
    /// Trace events overwritten because the ring wrapped.
    pub trace_dropped: u64,
}

impl MetricsSnapshot {
    /// Sum of the four per-kernel row counters — must equal
    /// `rows_diffed + rows_inline_diffed` on a quiescent pipeline.
    #[must_use]
    pub fn kernel_rows(&self) -> u64 {
        self.rows_fast_path
            + self.rows_rle_kernel
            + self.rows_packed_kernel
            + self.rows_systolic_kernel
    }

    fn counters(&self) -> [(&'static str, u64); 23] {
        [
            ("rows_submitted", self.rows_submitted),
            ("rows_completed", self.rows_completed),
            ("rows_errored", self.rows_errored),
            ("rows_diffed", self.rows_diffed),
            ("rows_kernel_errors", self.rows_kernel_errors),
            ("rows_discarded", self.rows_discarded),
            ("rows_abandoned", self.rows_abandoned),
            ("rows_sig_skipped", self.rows_sig_skipped),
            ("rows_inline_diffed", self.rows_inline_diffed),
            ("rows_fast_path", self.rows_fast_path),
            ("rows_rle_kernel", self.rows_rle_kernel),
            ("rows_packed_kernel", self.rows_packed_kernel),
            ("rows_systolic_kernel", self.rows_systolic_kernel),
            ("chunks_dispatched", self.chunks_dispatched),
            ("chunks_completed", self.chunks_completed),
            ("chunks_stolen", self.chunks_stolen),
            ("retries", self.retries),
            ("respawns", self.respawns),
            ("timeouts", self.timeouts),
            ("batches", self.batches),
            ("jobs_submitted", self.jobs_submitted),
            ("jobs_completed", self.jobs_completed),
            ("jobs_abandoned", self.jobs_abandoned),
        ]
    }

    fn gauges(&self) -> [(&'static str, i64); 2] {
        [
            ("queue_depth", self.queue_depth),
            ("in_flight", self.in_flight),
        ]
    }

    fn histograms(&self) -> [(&'static str, &HistogramSnapshot); 3] {
        [
            ("row_latency_ns", &self.row_latency_ns),
            ("chunk_latency_ns", &self.chunk_latency_ns),
            ("row_runs", &self.row_runs),
        ]
    }

    /// Prometheus text exposition (metric prefix `diffpipeline_`,
    /// counters suffixed `_total`, histograms in the standard
    /// `_bucket`/`_sum`/`_count` shape with cumulative `le` labels).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in self.counters() {
            let _ = writeln!(out, "# TYPE diffpipeline_{name} counter");
            let _ = writeln!(out, "diffpipeline_{name}_total {v}");
        }
        let _ = writeln!(out, "# TYPE diffpipeline_trace_events counter");
        let _ = writeln!(
            out,
            "diffpipeline_trace_events_total {}",
            self.trace_recorded
        );
        let _ = writeln!(out, "# TYPE diffpipeline_trace_events_dropped counter");
        let _ = writeln!(
            out,
            "diffpipeline_trace_events_dropped_total {}",
            self.trace_dropped
        );
        for (name, v) in self.gauges() {
            let _ = writeln!(out, "# TYPE diffpipeline_{name} gauge");
            let _ = writeln!(out, "diffpipeline_{name} {v}");
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(out, "# TYPE diffpipeline_{name} histogram");
            let mut cumulative = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cumulative += n;
                // Empty tail buckets are elided; the +Inf bucket carries
                // the full count regardless.
                if *n > 0 {
                    let _ = writeln!(
                        out,
                        "diffpipeline_{name}_bucket{{le=\"{}\"}} {cumulative}",
                        HistogramSnapshot::bucket_edge(i)
                    );
                }
            }
            let _ = writeln!(out, "diffpipeline_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "diffpipeline_{name}_sum {}", h.sum);
            let _ = writeln!(out, "diffpipeline_{name}_count {}", h.count);
        }
        out
    }

    /// JSON object exposition (hand-rolled — the workspace carries no
    /// serde; the format is flat `name: number` pairs plus one object per
    /// histogram, stable for CI parsers).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        for (name, v) in self.counters() {
            let _ = writeln!(out, "  \"{name}\": {v},");
        }
        for (name, v) in self.gauges() {
            let _ = writeln!(out, "  \"{name}\": {v},");
        }
        let _ = writeln!(out, "  \"trace_recorded\": {},", self.trace_recorded);
        let _ = writeln!(out, "  \"trace_dropped\": {},", self.trace_dropped);
        let histograms = self.histograms();
        for (hi, (name, h)) in histograms.iter().enumerate() {
            let _ = write!(
                out,
                "  \"{name}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            );
            // Trailing zero buckets are trimmed so the arrays stay short;
            // absent entries are zero by construction.
            let last = h.buckets.iter().rposition(|n| *n > 0).map_or(0, |i| i + 1);
            for (i, n) in h.buckets[..last].iter().enumerate() {
                let _ = write!(out, "{}{n}", if i == 0 { "" } else { ", " });
            }
            let _ = writeln!(
                out,
                "]}}{}",
                if hi + 1 == histograms.len() { "" } else { "," }
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_the_u64_range() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), 64);
        // Edges agree with the bucketing: edge(i) is the largest value in
        // bucket i.
        for i in 0..LOG2_BUCKETS {
            let edge = HistogramSnapshot::bucket_edge(i);
            assert_eq!(log2_bucket(edge), i, "edge of bucket {i}");
            if i < 64 {
                assert_eq!(log2_bucket(edge + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_count_equals_bucket_total() {
        let h = Log2Histogram::default();
        for v in [0u64, 1, 1, 5, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.bucket_total(), 6);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 1 + 5 + 1000).wrapping_add(u64::MAX)
        );
        assert_eq!(s.buckets[0], 1, "one zero");
        assert_eq!(s.buckets[1], 2, "two ones");
        assert_eq!(s.buckets[64], 1, "one max");
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::default();
        reg.rows_completed.add(3);
        reg.row_latency_ns.record(100);
        reg.row_latency_ns.record(5000);
        reg.queue_depth.set(2);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE diffpipeline_rows_completed counter"));
        assert!(text.contains("diffpipeline_rows_completed_total 3"));
        assert!(text.contains("diffpipeline_queue_depth 2"));
        assert!(text.contains("diffpipeline_row_latency_ns_count 2"));
        assert!(text.contains("diffpipeline_row_latency_ns_bucket{le=\"+Inf\"} 2"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("diffpipeline_row_latency_ns_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn json_exposition_shape() {
        let reg = MetricsRegistry::default();
        reg.rows_diffed.add(2);
        reg.row_runs.record(12);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"rows_diffed\": 2"));
        assert!(json.contains("\"row_runs\": {\"count\": 1"));
        // Balanced braces and no trailing comma before a closing brace.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n}"));
    }
}
